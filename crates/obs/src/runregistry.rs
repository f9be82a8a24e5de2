//! The run registry: an append-only JSONL log of run results with
//! stable provenance, the storage layer for ablation and regression
//! pipelines (ROADMAP item 2).
//!
//! Every fleet / watch / perf run appends one [`RunRecord`] row to
//! `runs.jsonl`: git revision, seed, a hash of the run configuration,
//! and the run's KPIs. Rows render with sorted field names (objects
//! serialize through an ordered map), KPIs live in a `BTreeMap`
//! (sorted keys), and the wall-clock stamp is confined to the single
//! `timestamp_ms` field — so two same-seed runs produce byte-identical
//! rows modulo that one field, and a diff of two registry rows is a
//! diff of *results*, not formatting noise. (Perf rows additionally carry wall-clock bench
//! medians in their KPIs; those are the measurement, not noise.)

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

/// Bump when [`RunRecord`]'s shape changes incompatibly.
pub const RUN_SCHEMA_VERSION: u32 = 1;

/// One registry row. Do not rename or retype fields without bumping
/// [`RUN_SCHEMA_VERSION`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Schema version of this row.
    pub schema: u32,
    /// Run kind: `"fleet"`, `"watch"`, or `"perf"`.
    pub kind: String,
    /// Wall-clock milliseconds since the Unix epoch — the single
    /// non-deterministic field in non-perf rows.
    pub timestamp_ms: u64,
    /// Short git revision of the working tree (`"unknown"` outside a
    /// repository).
    pub git_rev: String,
    /// The run's RNG seed.
    pub seed: u64,
    /// FNV-1a hash of the rendered run configuration, as 16 hex chars.
    pub config_hash: String,
    /// Result KPIs, sorted by name.
    pub kpis: BTreeMap<String, f64>,
}

impl RunRecord {
    /// A row stamped with the current time and git revision.
    pub fn new(kind: &str, seed: u64, config: &str, kpis: BTreeMap<String, f64>) -> RunRecord {
        RunRecord {
            schema: RUN_SCHEMA_VERSION,
            kind: kind.to_owned(),
            timestamp_ms: now_ms(),
            git_rev: git_rev(),
            seed,
            config_hash: config_hash(config),
            kpis,
        }
    }
}

/// An append-only JSONL registry file.
#[derive(Debug, Clone)]
pub struct RunRegistry {
    path: PathBuf,
}

impl RunRegistry {
    /// A registry at `path` (created on first append).
    pub fn new(path: impl Into<PathBuf>) -> RunRegistry {
        RunRegistry { path: path.into() }
    }

    /// The registry file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one row (a single JSON line) to the registry file. The
    /// row always starts on a fresh line: after a final row written
    /// without its newline, a newline is added first; a final fragment
    /// that does not parse (a writer that died mid-row) is cut off. The
    /// cut assumes no live appender is mid-row: each row lands in one
    /// `O_APPEND` write, so a torn tail is left only by a dead writer.
    pub fn append(&self, record: &RunRecord) -> Result<(), String> {
        let line = serde_json::to_string(record)
            .map_err(|e| format!("cannot serialize run record: {e}"))?;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&self.path)
            .map_err(|e| format!("cannot open {}: {e}", self.path.display()))?;
        let mut text = Vec::new();
        file.read_to_end(&mut text)
            .map_err(|e| format!("cannot read {}: {e}", self.path.display()))?;
        let (complete, tail) = split_tail(&text);
        let row = if tail.is_empty() {
            format!("{line}\n")
        } else if parse_row(tail).is_ok() {
            format!("\n{line}\n")
        } else {
            file.set_len(complete.len() as u64)
                .map_err(|e| format!("cannot cut the torn tail of {}: {e}", self.path.display()))?;
            format!("{line}\n")
        };
        // One write call per row keeps concurrent appenders line-atomic
        // on POSIX (O_APPEND).
        file.write_all(row.as_bytes())
            .map_err(|e| format!("cannot append to {}: {e}", self.path.display()))
    }

    /// Reads every row, oldest first (empty when the file is absent).
    /// A final line without a newline that does not parse is a torn
    /// write and is skipped; any other bad line is an error.
    pub fn rows(&self) -> Result<Vec<RunRecord>, String> {
        let text = match std::fs::read(&self.path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(format!("cannot read {}: {e}", self.path.display())),
        };
        let (complete, tail) = split_tail(&text);
        let mut rows = complete
            .split(|&b| b == b'\n')
            .filter(|l| !l.trim_ascii().is_empty())
            .map(parse_row)
            .collect::<Result<Vec<RunRecord>, String>>()?;
        rows.extend(parse_row(tail).ok());
        Ok(rows)
    }
}

/// Splits registry bytes after the last newline: the complete lines,
/// and the unterminated tail (empty when the text ends in a newline).
fn split_tail(text: &[u8]) -> (&[u8], &[u8]) {
    text.split_at(text.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1))
}

fn parse_row(line: &[u8]) -> Result<RunRecord, String> {
    let text = std::str::from_utf8(line).map_err(|e| format!("registry row is not UTF-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| format!("bad registry row {text:?}: {e}"))
}

/// Wall-clock milliseconds since the Unix epoch. Lives here because the
/// determinism lint confines clock reads to the obs crate.
pub fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The canonical configuration hash: FNV-1a of the rendered config as
/// 16 lowercase hex characters.
pub fn config_hash(config: &str) -> String {
    format!("{:016x}", fnv1a64(config.as_bytes()))
}

/// The short (12-char) git revision of the repository containing the
/// current directory, read straight from `.git` — no subprocess. Walks
/// `HEAD` → ref file → `packed-refs`; `"unknown"` when anything is
/// missing (e.g. outside a checkout).
pub fn git_rev() -> String {
    let Ok(mut dir) = std::env::current_dir() else {
        return "unknown".to_owned();
    };
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            return rev_from_git_dir(&git).unwrap_or_else(|| "unknown".to_owned());
        }
        if !dir.pop() {
            return "unknown".to_owned();
        }
    }
}

fn rev_from_git_dir(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let full = if let Some(refname) = head.strip_prefix("ref: ") {
        match std::fs::read_to_string(git.join(refname)) {
            Ok(hash) => hash.trim().to_owned(),
            // Unborn or packed ref: scan packed-refs for the name.
            Err(_) => std::fs::read_to_string(git.join("packed-refs"))
                .ok()?
                .lines()
                .find_map(|l| l.strip_suffix(refname).map(|h| h.trim().to_owned()))?,
        }
    } else {
        head.to_owned()
    };
    if full.len() < 12 || !full.bytes().take(12).all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    Some(full[..12].to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> RunRecord {
        let mut kpis = BTreeMap::new();
        kpis.insert("saving_ratio".to_owned(), 0.42);
        kpis.insert("members".to_owned(), 64.0);
        RunRecord::new("fleet", seed, "users=64 days=30", kpis)
    }

    #[test]
    fn rows_round_trip_through_the_file() {
        let dir = std::env::temp_dir().join(format!("nm_runreg_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("runs.jsonl");
        let _ = std::fs::remove_file(&path);
        let reg = RunRegistry::new(&path);
        assert!(reg.rows().unwrap().is_empty());
        let a = sample(1);
        let b = sample(2);
        reg.append(&a).unwrap();
        reg.append(&b).unwrap();
        let rows = reg.rows().unwrap();
        assert_eq!(rows, vec![a, b]);
        let _ = std::fs::remove_file(&path);
    }

    fn row_line(r: &RunRecord) -> String {
        serde_json::to_string(r).unwrap()
    }

    fn scratch_registry(name: &str) -> (PathBuf, RunRegistry) {
        let dir = std::env::temp_dir().join(format!("nm_runreg_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("runs.jsonl");
        let _ = std::fs::remove_file(&path);
        (dir, RunRegistry::new(&path))
    }

    #[test]
    fn torn_tail_then_append_keeps_every_complete_row() {
        let (dir, reg) = scratch_registry("torn");
        let (a, b, c) = (sample(1), sample(2), sample(3));
        let torn = row_line(&sample(9));
        let torn = &torn[..torn.len() / 2];
        std::fs::write(reg.path(), format!("{}\n{torn}", row_line(&a))).unwrap();
        // The torn tail alone reads as absent, not as an error.
        assert_eq!(reg.rows().unwrap(), vec![a.clone()]);
        reg.append(&b).unwrap();
        reg.append(&c).unwrap();
        assert_eq!(reg.rows().unwrap(), vec![a.clone(), b.clone(), c.clone()]);
        let text = std::fs::read_to_string(reg.path()).unwrap();
        assert_eq!(
            text,
            format!("{}\n{}\n{}\n", row_line(&a), row_line(&b), row_line(&c))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unterminated_complete_row_is_kept_on_append() {
        let (dir, reg) = scratch_registry("unterminated");
        let (a, b) = (sample(1), sample(2));
        std::fs::write(reg.path(), row_line(&a)).unwrap();
        assert_eq!(reg.rows().unwrap(), vec![a.clone()]);
        reg.append(&b).unwrap();
        assert_eq!(reg.rows().unwrap(), vec![a, b]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn terminated_bad_line_is_an_error() {
        let (dir, reg) = scratch_registry("bad");
        let a = sample(1);
        std::fs::write(reg.path(), format!("{{\"schema\": 1\n{}\n", row_line(&a))).unwrap();
        assert!(reg.rows().unwrap_err().contains("bad registry row"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_seed_rows_differ_only_in_timestamp() {
        let mut a = sample(7);
        let mut b = sample(7);
        b.timestamp_ms = a.timestamp_ms + 1;
        assert_ne!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "rows with different timestamps must differ"
        );
        a.timestamp_ms = 0;
        b.timestamp_ms = 0;
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn field_order_is_schema_stable() {
        let mut r = sample(3);
        r.timestamp_ms = 123;
        let json = serde_json::to_string(&r).unwrap();
        // Fields render with sorted names — byte-stable across runs.
        let mut positions = Vec::new();
        for field in [
            "\"config_hash\"",
            "\"git_rev\"",
            "\"kind\"",
            "\"kpis\"",
            "\"schema\"",
            "\"seed\"",
            "\"timestamp_ms\"",
        ] {
            positions.push(
                json.find(field)
                    .unwrap_or_else(|| panic!("{field} missing")),
            );
        }
        assert!(positions.windows(2).all(|w| w[0] < w[1]), "{json}");
        // BTreeMap KPIs serialize sorted too.
        assert!(json.find("\"members\"").unwrap() < json.find("\"saving_ratio\"").unwrap());
    }

    #[test]
    fn config_hash_is_stable_and_hex() {
        let h = config_hash("users=64 days=30");
        assert_eq!(h.len(), 16);
        assert!(h.bytes().all(|b| b.is_ascii_hexdigit()));
        assert_eq!(h, config_hash("users=64 days=30"));
        assert_ne!(h, config_hash("users=65 days=30"));
    }

    #[test]
    fn git_rev_of_this_repo_is_hexish() {
        // The test runs inside the repository; outside one, "unknown"
        // is the contract.
        let rev = git_rev();
        assert!(
            rev == "unknown" || (rev.len() == 12 && rev.bytes().all(|b| b.is_ascii_hexdigit()))
        );
    }
}
