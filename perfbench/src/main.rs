//! The NetMaster repository benchmark.
//!
//! ```text
//! perfbench --workload fleet|device|scrape --seed N --seconds S --trace 0|1
//! perfbench --compare OLD.json NEW.json
//! ```
//!
//! A run sets its workload up several times (`setup_s` is the median),
//! measures for `--seconds`, checks every output and prints, as its last
//! line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones of
//! [`END_TO_END`]; with `--trace 1` a separate traced pass times each
//! layer from outside and the metrics are those of [`PER_LAYER`]. Each
//! run also writes its result with its provenance to
//! `out/<workload>-trace<T>.json` beside this package, and a traced run
//! writes its spans to `out/<workload>.spans.jsonl`. `--compare`
//! refuses two results measured on different machines.

mod device;
mod fleet;
mod scrape;
mod spans;
mod stats;
mod sys;

use spans::{LayerTotals, SpanLog};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("saving_mean", "fraction"),
];

/// Per-layer metrics of the traced pass. A layer a workload does not
/// reach from outside reports 0 there (see README.md).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.gen_us_per_member", "us"),
    ("trace.events_per_member", "count"),
    ("trace.gen_ns_per_event", "ns"),
    ("mining.train_us_per_member", "us"),
    ("mining.mine_us_per_day", "us"),
    ("mining.remine_total", "count"),
    ("core.plan_day_us_per_day", "us"),
    ("core.plan_day_recorder_off_us_per_day", "us"),
    ("core.predict_us_per_day", "us"),
    ("core.dutycycle_us_per_day", "us"),
    ("core.run_day_self_us", "us"),
    ("core.watch_us_per_day", "us"),
    ("core.remine_ms", "ms"),
    ("knapsack.solve_us_per_day", "us"),
    ("knapsack.fastpath_share", "fraction"),
    ("knapsack.items_per_day", "count"),
    ("sim.baseline_us_per_member", "us"),
    ("sim.price_us_per_member", "us"),
    ("sim.unattributed_share", "fraction"),
    ("sim.worker_tail_ms", "ms"),
    ("obs.ledger_records_total", "count"),
    ("obs.ledger_dropped_total", "count"),
    ("obs.journal_dropped_total", "count"),
    ("obs.snapshot_us", "us"),
    ("obs.prometheus_render_us", "us"),
    ("obs.store_query_us", "us"),
    ("obs.serve_overhead_us", "us"),
    ("obs.route.metrics_p50_ms", "ms"),
    ("obs.route.healthz_p50_ms", "ms"),
    ("obs.route.query_p50_ms", "ms"),
    ("obs.route.snapshot_p50_ms", "ms"),
    ("obs.metrics_bytes", "bytes"),
    ("obs.tracing_overhead", "fraction"),
];

/// The workloads. `BENCHMARK.json` lists `fleet` and `device`; `scrape`
/// runs on request (see README.md for why it is not listed).
pub const WORKLOADS: &[&str] = &["fleet", "device", "scrape"];

/// Run options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Tiny inputs, set only by the benchmark's own tests.
    pub tiny: bool,
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    aliases: Vec<(String, String, String)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    workload: String,
    trace: bool,
}

impl Report {
    /// Records a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    /// A recorded metric, 0 when absent.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Prints `metric` again under the workload-specific `label`.
    pub fn alias(&mut self, label: &str, metric: &str, unit: &str) {
        self.aliases
            .push((label.to_owned(), metric.to_owned(), unit.to_owned()));
    }

    /// Counts operations attempted and how many failed their checks.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a failed check that is not tied to counted operations:
    /// the check counts as one attempted operation, and it failed.
    pub fn fail(&mut self, why: String) {
        self.ops(1, 1);
        self.explain(why);
    }

    /// Prints why operations already counted by [`Report::ops`] failed.
    pub fn explain(&mut self, why: String) {
        println!("CHECK FAILED: {why}");
        self.failures.push(why);
    }

    /// Prints a line of context.
    pub fn note(&mut self, line: String) {
        println!("{line}");
    }

    /// Records the median of several set-up times.
    pub fn setup(&mut self, secs: &[f64]) {
        let m = stats::median(secs).unwrap_or(0.0);
        self.note(format!("set-up: median {m:.4} s of {} set-ups", secs.len()));
        self.set("setup_s", m);
    }

    /// Writes a traced run's spans beside the package.
    pub fn write_spans(&mut self, log: &SpanLog) {
        let path = out_dir().join(format!("{}.spans.jsonl", self.workload));
        match log.write_jsonl(&path) {
            Ok(n) => self.note(format!("wrote {n} spans to {}", path.display())),
            Err(e) => self.fail(format!("cannot write spans to {}: {e}", path.display())),
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metrics this mode reports, with units, in declared order.
    fn declared(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The final result line.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .declared()
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(self.get(name))
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed.min(self.attempted.max(1)),
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust prints for the value.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// Where runs write their results and spans.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Times the registry read path in-process: `snapshot()`, Prometheus
/// rendering and, with a store, a rate plus a quantile query.
pub fn obs_read_metrics(store: Option<(&netmaster_obs::MetricStore, u64)>, rep: &mut Report) {
    const N: usize = 200;
    let time = |f: &mut dyn FnMut()| {
        let samples: Vec<f64> = (0..N)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        stats::median(&samples).unwrap_or(0.0)
    };
    rep.set(
        "obs.snapshot_us",
        time(&mut || {
            std::hint::black_box(netmaster_obs::snapshot());
        }),
    );
    let snap = netmaster_obs::snapshot();
    rep.set(
        "obs.prometheus_render_us",
        time(&mut || {
            std::hint::black_box(snap.to_prometheus());
        }),
    );
    rep.set("obs.metrics_bytes", snap.to_prometheus().len() as f64);
    if let Some((store, to)) = store {
        rep.set(
            "obs.store_query_us",
            time(&mut || {
                std::hint::black_box(store.rate("fleet_members_total", 0, to));
                std::hint::black_box(store.window_quantile("stage_plan_day_seconds", 0.99, 0, to));
            }),
        );
    }
}

/// Prints the layer table: per span name, count, total and self time,
/// self time per unit of work and its share of `capacity_ns`, and the
/// unattributed remainder.
pub fn print_layer_table(
    totals: &BTreeMap<&'static str, LayerTotals>,
    capacity_ns: f64,
    units: f64,
    unit: &str,
) {
    println!(
        "{:<22} {:>9} {:>11} {:>11} {:>12} {:>7}",
        "layer span",
        "count",
        "total ms",
        "self ms",
        format!("self us/{unit}"),
        "share"
    );
    let mut attributed = 0.0;
    for (name, t) in totals {
        let self_ns = t.self_ns as f64;
        attributed += self_ns;
        println!(
            "{:<22} {:>9} {:>11.1} {:>11.1} {:>12.2} {:>6.2}%",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            self_ns / 1e6,
            self_ns / 1e3 / units.max(1.0),
            100.0 * self_ns / capacity_ns.max(1.0)
        );
    }
    println!(
        "{:<22} {:>9} {:>11} {:>11.1} {:>12.2} {:>6.2}%",
        "(unattributed)",
        "",
        "",
        (capacity_ns - attributed) / 1e6,
        (capacity_ns - attributed) / 1e3 / units.max(1.0),
        100.0 * (capacity_ns - attributed) / capacity_ns.max(1.0)
    );
}

/// Parses the command line.
fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--workload" => opts.workload = value("--workload")?,
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                opts.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_owned());
    }
    Ok(opts)
}

/// Runs one workload and returns its report.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report {
        workload: opts.workload.clone(),
        trace: opts.trace,
        ..Report::default()
    };
    // The registry is process-global: every workload starts clean.
    netmaster_obs::reset();
    match opts.workload.as_str() {
        "fleet" => fleet::run(opts, &mut rep),
        "device" => device::run(opts, &mut rep),
        _ => scrape::run(opts, &mut rep),
    }
    rep.set("peak_rss_mb", sys::peak_rss_mb());
    rep
}

/// Prints the human-readable metric lines: every reported metric and
/// the workload's own names for the end-to-end ones.
fn print_metrics(rep: &Report) {
    for (name, unit) in rep.declared() {
        println!("{name:<28} {:>14.6} {unit}", rep.get(name));
    }
    if !rep.trace {
        for (label, metric, unit) in &rep.aliases {
            println!("{label:<28} {:>14.6} {unit}", rep.get(metric));
        }
    }
}

/// Writes the result with its provenance to `out/`.
fn save(rep: &Report, prov: &sys::Provenance) {
    use serde_json::{Map, Number, Value};
    let mut metrics = Map::new();
    for (name, unit) in rep.declared() {
        let mut m = Map::new();
        m.insert(
            "value".into(),
            Value::Number(Number::from_f64(rep.get(name))),
        );
        m.insert("unit".into(), Value::String((*unit).to_owned()));
        metrics.insert((*name).to_owned(), Value::Object(m));
    }
    let mut doc = Map::new();
    doc.insert("workload".into(), Value::String(rep.workload.clone()));
    doc.insert("trace".into(), Value::Bool(rep.trace));
    doc.insert("provenance".into(), prov.to_json());
    doc.insert("correct".into(), Value::Bool(rep.correct()));
    doc.insert("metrics".into(), Value::Object(metrics));
    let path = out_dir().join(format!(
        "{}-trace{}.json",
        rep.workload,
        u8::from(rep.trace)
    ));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, Value::Object(doc).to_string()));
    match written {
        Ok(()) => println!("result with provenance: {}", path.display()),
        Err(e) => println!("cannot write {}: {e}", path.display()),
    }
}

/// Compares two saved results. Refuses results from different machines.
fn compare(old: &Path, new: &Path) -> Result<(), String> {
    let load = |p: &Path| -> Result<serde_json::Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = (load(old)?, load(new)?);
    let prov = |v: &serde_json::Value, p: &Path| {
        v.get("provenance")
            .and_then(sys::Provenance::from_json)
            .ok_or_else(|| format!("{}: no provenance", p.display()))
    };
    let (pa, pb) = (prov(&a, old)?, prov(&b, new)?);
    if pa.machine() != pb.machine() {
        return Err(format!(
            "refusing to compare results from different machines: {:?} vs {:?}",
            pa.machine(),
            pb.machine()
        ));
    }
    if a.get("workload") != b.get("workload") || a.get("trace") != b.get("trace") {
        return Err("refusing to compare different workloads or modes".to_owned());
    }
    println!("commit {} -> {}", pa.commit, pb.commit);
    let metrics = |v: &serde_json::Value| v.get("metrics").and_then(|m| m.as_object()).cloned();
    let (ma, mb) = (
        metrics(&a).unwrap_or_default(),
        metrics(&b).unwrap_or_default(),
    );
    for (name, va) in &ma {
        let x = va.get("value").and_then(|v| v.as_f64()).unwrap_or(0.0);
        let y = mb
            .get(name)
            .and_then(|v| v.get("value"))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        let change = if x != 0.0 {
            format!("{:+.2}%", 100.0 * (y / x - 1.0))
        } else {
            "-".into()
        };
        println!("{name:<28} {x:>14.6} {y:>14.6} {change:>9}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        return match args.as_slice() {
            [_, old, new] => match compare(Path::new(old), Path::new(new)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            },
            _ => {
                eprintln!("usage: perfbench --compare OLD.json NEW.json");
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload fleet|device|scrape --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let prov = sys::Provenance::detect(opts.seed);
    println!(
        "provenance: nproc {}, cpu {:?}, {}, commit {}, seed {}",
        prov.nproc, prov.cpu_model, prov.rustc, prov.commit, prov.seed
    );
    let rep = run(&opts);
    print_metrics(&rep);
    save(&rep, &prov);
    println!("{}", rep.json_line());
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The obs registry is process-global, so workload runs in tests
    /// take turns.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn tiny(workload: &str, trace: bool) -> Report {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        run(&Opts {
            workload: workload.to_owned(),
            seed: 2014,
            seconds: 0.2,
            trace,
            tiny: true,
        })
    }

    /// Names and units declared in `BENCHMARK.json` at the repo root.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        let serde_json::Value::Array(items) = doc.get(section).unwrap().clone() else {
            panic!("{section} is not a list");
        };
        items
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().as_str().unwrap().to_owned(),
                    m.get("unit").unwrap().as_str().unwrap().to_owned(),
                )
            })
            .collect()
    }

    fn assert_line_reports(rep: &Report, section: &str) {
        let line: serde_json::Value = serde_json::from_str(&rep.json_line()).unwrap();
        assert_eq!(
            line.get("correct").and_then(|v| v.as_bool()),
            Some(true),
            "{:?}",
            rep.failures
        );
        assert!(line.get("attempted").unwrap().as_u64().unwrap() >= 1);
        assert_eq!(line.get("failed").unwrap().as_u64(), Some(0));
        let metrics = line.get("metrics").unwrap().as_object().unwrap();
        let want = declared(section);
        assert_eq!(metrics.len(), want.len());
        for (name, unit) in want {
            let m = metrics
                .get(&name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(
                m.get("unit").unwrap().as_str(),
                Some(unit.as_str()),
                "{name}"
            );
            assert!(
                m.get("value").unwrap().as_f64().unwrap().is_finite(),
                "{name}"
            );
        }
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layer: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(declared("per_layer"), layer);
    }

    #[test]
    fn tiny_runs_of_every_workload_report_every_metric() {
        for w in WORKLOADS {
            let rep = tiny(w, false);
            assert_line_reports(&rep, "end_to_end");
            for (name, _) in END_TO_END {
                assert!(rep.get(name) > 0.0, "{w}: {name} is {}", rep.get(name));
            }
            let rep = tiny(w, true);
            assert_line_reports(&rep, "per_layer");
        }
    }

    #[test]
    fn a_failed_check_outside_any_operation_counts_as_failed() {
        let mut rep = Report::default();
        rep.ops(10, 0);
        rep.fail("scraped saving differs".to_owned());
        let line: serde_json::Value = serde_json::from_str(&rep.json_line()).unwrap();
        assert_eq!(line.get("correct").and_then(|v| v.as_bool()), Some(false));
        assert_eq!(line.get("attempted").and_then(|v| v.as_u64()), Some(11));
        assert_eq!(line.get("failed").and_then(|v| v.as_u64()), Some(1));
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let o = parse(&args("--workload device --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!((o.seed, o.seconds, o.trace), (9, 3.0, true));
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload fleet --trace 2")).is_err());
        assert!(parse(&args("--workload fleet --seconds 0")).is_err());
        assert!(parse(&args("--workload fleet --bogus")).is_err());
        assert!(parse(&args("--workload fleet --tiny")).is_err());
    }

    #[test]
    fn results_from_another_machine_are_refused() {
        let dir = out_dir().join(format!("test-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, nproc: usize| {
            let mut p = sys::Provenance::detect(1);
            p.nproc = nproc;
            let text = format!(
                "{{\"workload\":\"fleet\",\"trace\":false,\"provenance\":{},\"metrics\":{{}}}}",
                p.to_json()
            );
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            path
        };
        let a = write("a.json", 2);
        let b = write("b.json", 2);
        let c = write("c.json", 64);
        assert!(compare(&a, &b).is_ok());
        let err = compare(&a, &c).unwrap_err();
        assert!(err.contains("different machines"), "{err}");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
