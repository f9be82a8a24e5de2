//! Process facts read from `/proc`: CPU time, peak memory and the
//! machine a result was measured on.

use std::process::Command;

/// Clock ticks per second of `/proc/*/stat` times (`USER_HZ`, 100 on
/// every Linux architecture this runs on).
const TICKS_PER_SEC: f64 = 100.0;

/// `utime + stime` of a `/proc/.../stat` line, in seconds.
fn stat_cpu_secs(stat: &str) -> Option<f64> {
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SEC)
}

/// CPU seconds used by the whole process so far (all threads, exited
/// ones included), to the nanosecond.
pub fn process_cpu_secs() -> f64 {
    cpu_clock_secs(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds used so far by the calling thread, to the nanosecond.
pub fn thread_cpu_secs() -> f64 {
    cpu_clock_secs(CLOCK_THREAD_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Reads a CPU-time clock; 0 when it cannot be read. (`/proc` counts
/// only 10 ms ticks, too coarse for one batch or one day.)
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_clock_secs(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // 64-bit Linux) that the kernel fills.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn cpu_clock_secs(_clock: i32) -> f64 {
    0.0
}

/// CPU seconds used so far by the live threads of this process other
/// than the calling one (the scrape server's accept and worker threads
/// while the client runs on the caller).
pub fn other_threads_cpu_secs() -> f64 {
    let me = std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name().map(|n| n.to_os_string()));
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .flatten()
        .filter(|t| Some(t.file_name()) != me)
        .filter_map(|t| std::fs::read_to_string(t.path().join("stat")).ok())
        .filter_map(|s| stat_cpu_secs(&s))
        .sum()
}

/// Restricts the calling thread, and every thread it starts afterwards,
/// to the lowest-numbered CPU it may run on. Returns that CPU.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: pid 0 names the calling thread; `mask` is a live, writable
    // buffer of exactly `size` bytes for the kernel to fill.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = (0..1024)
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or_else(|| std::io::Error::other("empty CPU affinity mask"))?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: pid 0 names the calling thread; `one` is a live buffer of
    // exactly `size` bytes that the kernel only reads.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    Err(std::io::Error::other("CPU pinning needs Linux"))
}

/// Peak resident set size of the process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where and from what a result was measured. Two results are
/// comparable only when [`Provenance::machine`] matches.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Cores the process may use.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version` of the toolchain on the path.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// The workload seed.
    pub seed: u64,
}

impl Provenance {
    /// Reads the current machine's provenance.
    pub fn detect(seed: u64) -> Provenance {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Provenance {
            nproc: netmaster_sim::par::default_parallelism(),
            cpu_model,
            rustc: command_line("rustc", &["--version"]),
            commit: command_line("git", &["rev-parse", "HEAD"]),
            seed,
        }
    }

    /// The part of provenance that must match for two results to be
    /// compared.
    pub fn machine(&self) -> (usize, &str) {
        (self.nproc, &self.cpu_model)
    }

    /// As a JSON object.
    pub fn to_json(&self) -> serde_json::Value {
        use serde_json::{Map, Number, Value};
        let mut m = Map::new();
        m.insert(
            "nproc".into(),
            Value::Number(Number::from_u64(self.nproc as u64)),
        );
        m.insert("cpu_model".into(), Value::String(self.cpu_model.clone()));
        m.insert("rustc".into(), Value::String(self.rustc.clone()));
        m.insert("commit".into(), Value::String(self.commit.clone()));
        m.insert("seed".into(), Value::Number(Number::from_u64(self.seed)));
        Value::Object(m)
    }

    /// Parses [`Provenance::to_json`] output.
    pub fn from_json(v: &serde_json::Value) -> Option<Provenance> {
        Some(Provenance {
            nproc: v.get("nproc")?.as_u64()? as usize,
            cpu_model: v.get("cpu_model")?.as_str()?.to_owned(),
            rustc: v.get("rustc")?.as_str()?.to_owned(),
            commit: v.get("commit")?.as_str()?.to_owned(),
            seed: v.get("seed")?.as_u64()?,
        })
    }
}

/// First line of a command's standard output, or `unknown` when it
/// cannot run or fails. Waits for the command to exit.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_in_the_name_parses() {
        let line = "42 (my (odd) prog) S 1 42 42 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 3 0";
        assert_eq!(stat_cpu_secs(line), Some(3.0));
    }

    #[test]
    fn live_process_reports_cpu_and_memory() {
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        // The loop's own CPU time shows on the nanosecond clocks.
        let thread = thread_cpu_secs();
        assert!(thread > 0.0);
        assert!(process_cpu_secs() >= thread);
        // Pinning applies to this test's own thread only.
        let pinned = std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().unwrap();
            (cpu, std::thread::available_parallelism().unwrap().get())
        })
        .join()
        .unwrap();
        assert_eq!(pinned.1, 1, "pinned to CPU {}", pinned.0);
        assert!(peak_rss_mb() > 0.0);
        let p = Provenance::detect(7);
        assert!(p.nproc >= 1);
        assert_eq!(Provenance::from_json(&p.to_json()), Some(p));
    }
}
