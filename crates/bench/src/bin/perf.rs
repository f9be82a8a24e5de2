//! Hot-path performance tracking: times the allocation-free solvers and
//! the streaming fleet against the preserved reference implementations,
//! and writes the numbers to `BENCH_fleet.json` so regressions show up
//! in review diffs.
//!
//! ```text
//! cargo run -p netmaster-bench --bin perf --release -- [FLEET_N] [--out FILE] [--smoke] [--baseline FILE]
//! ```
//!
//! `--smoke` shrinks every workload for CI (seconds, not minutes) and
//! relaxes the telemetry-overhead budget from 2% to 15%.
//!
//! `--baseline FILE` compares this run's fleet numbers against a
//! previously committed `BENCH_fleet.json` and exits nonzero when the
//! mean saving drops >2pp or, on the machine the baseline came from,
//! throughput drops >10% (>60% in smoke mode, where CI noise dominates)
//! — the perf-regression gate. Throughput from another machine is not
//! compared.
//!
//! Covered paths:
//!
//! * `sin_knap` — reference (per-call `Vec` DP tables) vs `sin_knap_with`
//!   (reused scratch, bit-packed choice table, capacity-slack fast path)
//!   on all-fitting instances, plus a capacity-bound instance where the
//!   full DP must run;
//! * `overlapped::solve` — reference Algorithm 1 vs `solve_with`;
//! * `DecisionMaker::plan_day` — allocating vs scratch-threaded;
//! * streaming fleet throughput (members per wall second, trace
//!   generation included) for `FLEET_N` members, with per-stage latency
//!   histograms and prediction hit/miss telemetry scraped from the
//!   `netmaster-obs` registry;
//! * the cost of each always-on telemetry plane (metrics, scrape,
//!   recorder, tracing), measured and judged by [`ab`].
//!
//! Each run appends one provenance-stamped row (git revision, seed,
//! config hash, KPIs) to the `runs.jsonl` run registry.

use netmaster_bench::harness::{self, TEST_DAYS, TRAIN_DAYS};
use netmaster_bench::regression::{self, FleetNumbers, GateThresholds, Machine, Verdict};
use netmaster_core::decision::DecisionMaker;
use netmaster_core::NetMasterConfig;
use netmaster_knapsack::overlapped::OvProblem;
use netmaster_knapsack::{
    reference, sin_knap_with, solve_auto, solve_with, Item, OvScratch, SolverScratch,
};
use netmaster_mining::{predict_with_confidence, Bound, HourlyHistory, NetworkPrediction};
use netmaster_obs::{AlertEngine, AlertRule, MetricStore, ObsServer, Profiler, Sampler};
use netmaster_obs::{ServeOptions, TelemetryHub, DEFAULT_PROFILE_HZ};
use netmaster_radio::{LinkModel, RrcModel};
use netmaster_sim::{run_fleet_streaming_with, FleetReport, Policy, SimConfig};
use netmaster_trace::gen::TraceGenerator;
use netmaster_trace::profile::UserProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::process::ExitCode;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct Comparison {
    label: String,
    reference_ns: u64,
    optimized_ns: u64,
    speedup: f64,
}

#[derive(Serialize)]
struct FleetThroughput {
    members: usize,
    /// Wall seconds of one fleet run, trace generation included.
    elapsed_secs: f64,
    members_per_sec: f64,
    /// Worker threads the fleet ran on.
    workers: usize,
    /// Where it ran: throughput is comparable only on the same machine.
    machine: Machine,
    saving_mean: f64,
    saving_min: f64,
    affected_max: f64,
}

/// One latency histogram from the obs registry, summarized.
#[derive(Serialize)]
struct StageStat {
    name: String,
    count: u64,
    mean_secs: f64,
    p50_secs: f64,
    p99_secs: f64,
}

/// Prediction quality of the fleet run, from the obs counters. The
/// deferral latency is *simulated* time (how far demands moved), not
/// wall clock.
#[derive(Serialize)]
struct PredictionStats {
    hits: u64,
    misses: u64,
    hit_rate: f64,
    /// Fraction of predicted slot hours that saw real activity
    /// (hour-granular; see `NetMasterStats` for the two metric families).
    slot_precision: f64,
    /// Fraction of actually-active hours the predicted slots covered.
    slot_recall: f64,
    deferral_latency_mean_secs: f64,
    deferral_latency_p99_secs: f64,
}

/// One telemetry-overhead A/B, as measured and judged by [`ab`]. Arm A
/// is the fleet without the plane under test, arm B with it; each
/// pair's ratio is B's wall seconds per member over A's, minus one.
#[derive(Serialize)]
struct Overhead {
    label: String,
    budget: f64,
    pairs: usize,
    /// Median ratio and its 95% order-statistic interval.
    median: f64,
    lo: Option<f64>,
    hi: Option<f64>,
    /// `pass`, `fail`, `unresolved` or `skipped`.
    verdict: &'static str,
    /// Why a skipped A/B did not run.
    reason: Option<String>,
}

#[derive(Serialize)]
struct PerfReport {
    sin_knap: Vec<Comparison>,
    solver_matrix: Vec<Comparison>,
    overlapped: Comparison,
    plan_day: Comparison,
    fleet: FleetThroughput,
    stages: Vec<StageStat>,
    prediction: PredictionStats,
    overheads: Vec<Overhead>,
}

/// Median-of-`reps` wall time for `f`, in nanoseconds per iteration.
/// The median rather than the minimum: on a noisy shared box the median
/// is the stable central estimate, while the minimum favours whichever
/// side got the quietest scheduler slice. A black box on the result
/// keeps the optimizer honest.
fn median_ns<R>(reps: usize, iters: u32, mut f: impl FnMut() -> R) -> u64 {
    let mut samples: Vec<u64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            (t.elapsed().as_nanos() / iters as u128) as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn compare<R, O>(
    label: &str,
    reps: usize,
    iters: u32,
    mut reference: impl FnMut() -> R,
    mut optimized: impl FnMut() -> O,
) -> Comparison {
    let reference_ns = median_ns(reps, iters, &mut reference);
    let optimized_ns = median_ns(reps, iters, &mut optimized);
    let speedup = reference_ns as f64 / optimized_ns.max(1) as f64;
    println!("{label:<28} reference {reference_ns:>10} ns   optimized {optimized_ns:>10} ns   {speedup:>7.1}x");
    Comparison {
        label: label.into(),
        reference_ns,
        optimized_ns,
        speedup,
    }
}

/// `n` items whose total weight fits `capacity` (the fast-path shape:
/// a predicted night of small syncs against a whole slot's bytes).
fn slack_instance(n: usize, rng: &mut StdRng) -> (Vec<Item>, u64) {
    let items: Vec<Item> = (0..n)
        .map(|_| Item::new(rng.random_range(0.5..40.0), rng.random_range(200..4_000u64)))
        .collect();
    let total: u64 = items.iter().map(|i| i.weight).sum();
    (items, total + 10_000)
}

fn sin_knap_comparisons(smoke: bool) -> Vec<Comparison> {
    let mut rng = StdRng::seed_from_u64(2014);
    let mut out = Vec::new();
    let mut scratch = SolverScratch::new();
    let sizes: &[usize] = if smoke { &[10, 100] } else { &[10, 100, 500] };
    for &n in sizes {
        let (items, cap) = slack_instance(n, &mut rng);
        // The reference runs a full O(n³/ε) DP even on slack instances
        // (~0.7 s/solve at n=500): keep iteration counts proportionate.
        let iters: u32 = match n {
            10 => 2_000,
            100 => 50,
            _ => 3,
        };
        out.push(compare(
            &format!("sin_knap slack n={n}"),
            3,
            iters,
            || reference::sin_knap(&items, cap, 0.1),
            || sin_knap_with(&items, cap, 0.1, &mut scratch),
        ));
    }
    // Capacity-bound: the DP must actually run; the win here is table
    // reuse and the bit-packed choice matrix, not the fast path.
    let (items, cap) = slack_instance(100, &mut rng);
    let cap = cap / 4;
    out.push(compare(
        "sin_knap bound n=100",
        3,
        if smoke { 10 } else { 50 },
        || reference::sin_knap(&items, cap, 0.1),
        || sin_knap_with(&items, cap, 0.1, &mut scratch),
    ));
    out
}

/// The dispatcher matrix: {dense, sparse} profit distributions ×
/// {tight, slack} capacities × n ∈ {10, 100, 500}, each timed
/// median-of-N against the reference FPTAS. Dense profits draw from a
/// continuum (every Ibarra–Kim level is distinct); sparse profits
/// collapse onto four values, the shape where the quantized DP's
/// Pareto frontier stays tiny. Tight caps force real search; slack
/// caps hand the dispatcher its fast path.
fn solver_matrix(smoke: bool) -> Vec<Comparison> {
    let mut rng = StdRng::seed_from_u64(4242);
    let mut scratch = SolverScratch::new();
    let mut out = Vec::new();
    let sizes: &[usize] = if smoke { &[10, 100] } else { &[10, 100, 500] };
    for &n in sizes {
        for dense in [true, false] {
            for tight in [true, false] {
                let items: Vec<Item> = (0..n)
                    .map(|_| {
                        let profit = if dense {
                            rng.random_range(0.5..40.0)
                        } else {
                            [1.0, 2.0, 4.0, 8.0][rng.random_range(0..4usize)]
                        };
                        Item::new(profit, rng.random_range(200..4_000u64))
                    })
                    .collect();
                let total: u64 = items.iter().map(|i| i.weight).sum();
                let cap = if tight { total / 4 } else { total + 10_000 };
                let label = format!(
                    "auto {} {} n={n}",
                    if dense { "dense" } else { "sparse" },
                    if tight { "tight" } else { "slack" }
                );
                // The reference side is O(n³/ε) regardless of shape
                // (seconds per solve at n=500): keep rep counts
                // proportionate so the matrix stays bounded.
                let (reps, iters): (usize, u32) = match n {
                    10 => (9, 500),
                    100 => (5, 10),
                    _ => (3, 1),
                };
                out.push(compare(
                    &label,
                    reps,
                    iters,
                    || reference::sin_knap(&items, cap, 0.1),
                    || solve_auto(&items, cap, 0.1, &mut scratch),
                ));
            }
        }
    }
    out
}

fn overlapped_comparison(smoke: bool) -> Comparison {
    // A realistic planner instance: 3 slots, 60 duplicated items.
    let mut rng = StdRng::seed_from_u64(77);
    let nslots = 3;
    let items = (0..60)
        .map(|_| {
            let a = rng.random_range(0..nslots);
            let b = (a + 1) % nslots;
            netmaster_knapsack::OvItem::pair(
                rng.random_range(300..5_000u64),
                (a, rng.random_range(0.1..12.0)),
                (b, rng.random_range(0.1..12.0)),
            )
        })
        .collect();
    let problem = OvProblem {
        capacities: vec![40_000; nslots],
        items,
    };
    let mut scratch = OvScratch::new();
    compare(
        "overlapped 3x60",
        3,
        if smoke { 20 } else { 200 },
        || reference::solve(&problem, 0.1),
        || solve_with(&problem, 0.1, &mut scratch),
    )
}

fn plan_day_comparison(smoke: bool) -> Comparison {
    let trace = &harness::volunteers()[0];
    let train = trace.slice_days(0, TRAIN_DAYS);
    let hist = HourlyHistory::from_trace(&train);
    let cfg = NetMasterConfig::default();
    let active = predict_with_confidence(&hist, cfg.prediction, Bound::Point, 1.96);
    let network = NetworkPrediction::from_trace(&train);
    let maker = DecisionMaker::new(cfg, LinkModel::default(), RrcModel::wcdma_default());
    let mut scratch = OvScratch::new();
    compare(
        "plan_day volunteer 1",
        3,
        if smoke { 50 } else { 500 },
        || maker.plan_day(TRAIN_DAYS, &active, &network),
        || maker.plan_day_with(TRAIN_DAYS, &active, &network, &mut scratch),
    )
}

/// One streaming fleet run and its wall seconds, trace generation
/// included: producing each member's trace is part of a fleet run.
fn run_fleet(n: usize, hub: Option<&TelemetryHub>) -> (FleetReport, f64) {
    let cfg = SimConfig::default();
    let t = Instant::now();
    let report = run_fleet_streaming_with(
        n,
        TRAIN_DAYS,
        &cfg,
        |i| {
            let seed = 0xF1EE7 + i as u64 * 7919;
            let profile = UserProfile::panel().remove(i % 8);
            let trace = TraceGenerator::new(profile)
                .with_seed(seed)
                .generate(TRAIN_DAYS + TEST_DAYS);
            (seed, trace)
        },
        |trace| Box::new(harness::trained_netmaster(trace)) as Box<dyn Policy + Send>,
        hub,
    );
    (report, t.elapsed().as_secs_f64())
}

fn fleet_throughput(n: usize) -> FleetThroughput {
    let (report, elapsed) = run_fleet(n, None);
    let out = FleetThroughput {
        members: n,
        elapsed_secs: elapsed,
        members_per_sec: n as f64 / elapsed,
        workers: netmaster_sim::par::default_parallelism(),
        machine: Machine::detect(),
        saving_mean: report.saving.mean,
        saving_min: report.saving.min,
        affected_max: report.affected.max,
    };
    println!(
        "fleet {n} members on {} workers: {elapsed:.2} s wall  ({:.1} members/sec)  saving mean {:.3}  affected max {:.4}",
        out.workers, out.members_per_sec, out.saving_mean, out.affected_max
    );
    out
}

/// Scrapes the registry filled by the obs-enabled fleet run.
fn scrape_stages(snap: &netmaster_obs::Snapshot) -> (Vec<StageStat>, PredictionStats) {
    let stages: Vec<StageStat> = snap
        .histograms
        .iter()
        .map(|h| {
            println!("  {:<32} {}", h.name, h.summary_line());
            StageStat {
                name: h.name.clone(),
                count: h.count,
                mean_secs: h.mean_secs(),
                p50_secs: h.quantile_secs(0.5),
                p99_secs: h.quantile_secs(0.99),
            }
        })
        .collect();
    let hits = snap.counter("prediction_hits_total");
    let misses = snap.counter("prediction_misses_total");
    let slot_predicted = snap.counter("slot_hours_predicted_total");
    let slot_active = snap.counter("slot_hours_active_total");
    let slot_overlap = snap.counter("slot_hours_overlap_total");
    let deferral = snap.histogram("deferral_latency_seconds");
    let prediction = PredictionStats {
        hits,
        misses,
        hit_rate: hits as f64 / ((hits + misses) as f64).max(1.0),
        slot_precision: slot_overlap as f64 / (slot_predicted as f64).max(1.0),
        slot_recall: slot_overlap as f64 / (slot_active as f64).max(1.0),
        deferral_latency_mean_secs: deferral.map(|h| h.mean_secs()).unwrap_or(0.0),
        deferral_latency_p99_secs: deferral.map(|h| h.quantile_secs(0.99)).unwrap_or(0.0),
    };
    println!(
        "prediction: {} hits / {} misses (rate {:.3}); slot precision {:.3} recall {:.3}; \
         deferral latency mean {:.0} s (simulated)",
        prediction.hits,
        prediction.misses,
        prediction.hit_rate,
        prediction.slot_precision,
        prediction.slot_recall,
        prediction.deferral_latency_mean_secs
    );
    (stages, prediction)
}

/// Interleaved A/B pairs per overhead measurement: the fewest whose
/// 95% order-statistic interval on the median drops one ratio at each
/// end (ranks 2 and 9).
const AB_PAIRS: usize = 10;

/// Minimum wall time of one A/B arm, smoke included: shorter arms leave
/// a 2% budget inside scheduler jitter.
const MIN_ARM_SECS: f64 = 1.0;

/// Wall seconds per member over back-to-back fleet runs, repeated until
/// at least [`MIN_ARM_SECS`] have passed. With a hub, every run is
/// published into it as a run of its own.
fn secs_per_member(n: usize, hub: Option<&TelemetryHub>) -> f64 {
    let t = Instant::now();
    let mut runs = 0;
    while runs == 0 || t.elapsed().as_secs_f64() < MIN_ARM_SECS {
        hub.inspect(|hub| hub.begin_run(n as u64));
        run_fleet(n, hub);
        hub.inspect(|hub| hub.end_run());
        runs += 1;
    }
    t.elapsed().as_secs_f64() / (runs * n) as f64
}

/// The bare fleet: arm A of the scrape and recorder A/Bs.
fn bare(n: usize) -> Result<f64, String> {
    Ok(secs_per_member(n, None))
}

/// An arm that is the fleet with the run-time switch `set` turned off.
fn switched_off(set: fn(bool)) -> impl FnMut(usize) -> Result<f64, String> {
    move |n| {
        set(false);
        let secs = secs_per_member(n, None);
        set(true);
        Ok(secs)
    }
}

/// Measures what arm B costs over arm A. Each arm sets its plane up,
/// returns [`secs_per_member`] for `n` members, and tears the plane
/// down; an `Err` means the arm cannot run here, and the A/B is
/// `skipped` with that reason. [`AB_PAIRS`] pairs run in alternating
/// order (AB, BA, …) so drift in the machine's speed lands on both arms
/// alike; the per-pair ratios are judged against `budget` by
/// [`regression::judge_overhead`].
fn ab(
    label: &str,
    n: usize,
    budget: f64,
    mut arm_a: impl FnMut(usize) -> Result<f64, String>,
    mut arm_b: impl FnMut(usize) -> Result<f64, String>,
) -> Overhead {
    let pairs: Result<Vec<(f64, f64)>, String> = (0..AB_PAIRS)
        .map(|pair| {
            if pair % 2 == 0 {
                let a = arm_a(n)?;
                Ok((a, arm_b(n)?))
            } else {
                let b = arm_b(n)?;
                Ok((arm_a(n)?, b))
            }
        })
        .collect();
    let (pairs, reason) = match pairs {
        Ok(pairs) => (pairs, None),
        Err(reason) => (Vec::new(), Some(reason)),
    };
    let ratios: Vec<f64> = pairs.iter().map(|(a, b)| b / a - 1.0).collect();
    let judged = regression::judge_overhead(&ratios, budget);
    let overhead = Overhead {
        label: label.to_owned(),
        budget,
        pairs: pairs.len(),
        median: judged.median,
        lo: judged.interval.map(|i| i.0),
        hi: judged.interval.map(|i| i.1),
        verdict: match reason {
            Some(_) => Verdict::Skipped.as_str(),
            None => judged.verdict.as_str(),
        },
        reason,
    };
    match &overhead.reason {
        Some(reason) => println!("{label:<8} overhead skipped: {reason}"),
        None => println!(
            "{label:<8} overhead {} [{}, {}]  pairs {}  budget {:.0}%  {}",
            pct(Some(overhead.median)),
            pct(overhead.lo),
            pct(overhead.hi),
            overhead.pairs,
            100.0 * budget,
            overhead.verdict,
        ),
    }
    overhead
}

/// A ratio as a signed percentage, `n/a` when absent.
fn pct(v: Option<f64>) -> String {
    v.map_or("n/a".to_owned(), |v| format!("{:+.1}%", 100.0 * v))
}

/// The four telemetry-plane A/Bs, each under `budget`.
fn overheads(n: usize, budget: f64) -> Vec<Overhead> {
    if !netmaster_obs::compiled() {
        let absent = |_| Err("netmaster-obs is compiled out".to_owned());
        return ["obs", "scrape", "recorder", "tracing"]
            .into_iter()
            .map(|label| ab(label, n, budget, absent, absent))
            .collect();
    }
    // The metrics plane alone: recording off vs on at run time.
    // Span-tree capture has its own A/B below, so it stays off here.
    netmaster_obs::set_trace_capture(false);
    let unrecorded = switched_off(netmaster_obs::set_runtime_enabled);
    let obs = ab("obs", n, budget, unrecorded, bare);
    netmaster_obs::set_trace_capture(true);

    // The scrape plane: workers tick a hub while an `ObsServer` on a
    // throwaway port renders `/metrics` + `/healthz` to a 1 Hz scraper.
    let scrape = ab("scrape", n, budget, bare, |n| {
        let hub = Arc::new(TelemetryHub::new());
        let server = ObsServer::start(
            ServeOptions {
                addr: "127.0.0.1:0".to_owned(),
                ..Default::default()
            },
            Arc::clone(&hub),
        )
        .map_err(|e| format!("cannot start the scrape server: {e}"))?;
        let url = server.base_url();
        let (stop, stopped) = mpsc::channel::<()>();
        let scraper = std::thread::spawn(move || loop {
            let _ = netmaster_obs::http_get(&format!("{url}/metrics"));
            let _ = netmaster_obs::http_get(&format!("{url}/healthz"));
            if stopped.recv_timeout(Duration::from_secs(1)) != Err(RecvTimeoutError::Timeout) {
                break;
            }
        });
        let secs = secs_per_member(n, Some(&hub));
        drop(stop);
        let _ = scraper.join();
        server.shutdown();
        Ok(secs)
    });

    // The recorder: a 1 Hz sampler snapshots the registry into a
    // `MetricStore` and evaluates a representative rule mix (threshold
    // floor, absence watchdog, burn rate) on every tick. No HTTP.
    let rules = AlertRule::parse_list(
        "saving_floor:fleet_saving_ratio<0.05:sev=page;\
         liveness:absent(store_samples_total,30);\
         drop_burn:burn(store_dropped_total,60,300,10)",
    )
    .expect("perf: static alert rule set must parse");
    let recorder = ab("recorder", n, budget, bare, |n| {
        let sampler = Sampler::start(
            Arc::new(MetricStore::new(Default::default())),
            Some(Arc::new(AlertEngine::new(rules.clone()))),
            None,
            Duration::from_secs(1),
            None,
        );
        let secs = secs_per_member(n, None);
        sampler.stop();
        Ok(secs)
    });

    // Tracing: span-tree capture off vs on with the profiler walking
    // live span stacks at ~97 Hz. Histograms record in both arms.
    let untraced = switched_off(netmaster_obs::set_trace_capture);
    let tracing = ab("tracing", n, budget, untraced, |n| {
        let profiler = Profiler::start(DEFAULT_PROFILE_HZ);
        let secs = secs_per_member(n, None);
        profiler.stop();
        Ok(secs)
    });
    vec![obs, scrape, recorder, tracing]
}

struct PerfArgs {
    /// Fleet size; `None` picks 64 under `--smoke`, else 1,000.
    n: Option<usize>,
    out_path: String,
    smoke: bool,
    baseline: Option<String>,
    registry: String,
}

fn parse_args() -> Result<PerfArgs, String> {
    let mut parsed = PerfArgs {
        n: None,
        out_path: "BENCH_fleet.json".to_owned(),
        smoke: false,
        baseline: None,
        registry: "runs.jsonl".to_owned(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => parsed.out_path = args.next().ok_or("--out needs a file path")?,
            "--smoke" => parsed.smoke = true,
            "--baseline" => {
                parsed.baseline = Some(args.next().ok_or("--baseline needs a file path")?)
            }
            "--registry" => parsed.registry = args.next().ok_or("--registry needs a file path")?,
            s => {
                let n = s
                    .parse()
                    .map_err(|_| format!("bad fleet size argument {s:?}"))?;
                parsed.n = Some(n);
            }
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perf: {e}");
            eprintln!(
                "usage: perf [FLEET_N] [--out FILE] [--smoke] [--baseline FILE] [--registry FILE]"
            );
            return ExitCode::FAILURE;
        }
    };
    let smoke = args.smoke;
    let n = args.n.unwrap_or(if smoke { 64 } else { 1_000 });
    let out_path = &args.out_path;

    // Telemetry must come from this fleet run alone.
    netmaster_obs::reset();
    netmaster_obs::set_runtime_enabled(true);

    let thresholds = if smoke {
        GateThresholds::smoke()
    } else {
        GateThresholds::full()
    };
    let sin_knap = sin_knap_comparisons(smoke);
    let solver_matrix = solver_matrix(smoke);
    let overlapped = overlapped_comparison(smoke);
    let plan_day = plan_day_comparison(smoke);
    netmaster_obs::reset();
    let fleet = fleet_throughput(n);
    let snap = netmaster_obs::snapshot();
    let (stages, prediction) = scrape_stages(&snap);
    let overheads = overheads(n, thresholds.max_overhead);

    let report = PerfReport {
        sin_knap,
        solver_matrix,
        overlapped,
        plan_day,
        fleet,
        stages,
        prediction,
        overheads,
    };

    let json = match serde_json::to_string_pretty(&report) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("perf: cannot encode report: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(out_path, json + "\n") {
        eprintln!("perf: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");

    let slack_100 = &report.sin_knap[1];
    assert!(
        slack_100.speedup >= 5.0,
        "fast path must be >=5x on slack n=100, got {:.1}x",
        slack_100.speedup
    );
    if netmaster_obs::compiled() {
        // The telemetry must actually have recorded the fleet.
        assert!(
            report.prediction.hits > 0,
            "obs-enabled fleet must record prediction hits"
        );
        assert!(
            report
                .stages
                .iter()
                .any(|s| s.name == "stage_plan_day_seconds" && s.count > 0),
            "obs-enabled fleet must time plan_day"
        );
    }

    // Provenance: one registry row per perf run, so ablation and
    // regression pipelines can diff KPIs across revisions.
    let mut kpis = std::collections::BTreeMap::new();
    kpis.insert("members".to_owned(), report.fleet.members as f64);
    kpis.insert("members_per_sec".to_owned(), report.fleet.members_per_sec);
    kpis.insert("saving_mean".to_owned(), report.fleet.saving_mean);
    for o in report.overheads.iter().filter(|o| o.pairs > 0) {
        kpis.insert(format!("{}_overhead", o.label), o.median);
    }
    let row =
        netmaster_obs::RunRecord::new("perf", 0xF1EE7, &format!("fleet_n={n} smoke={smoke}"), kpis);
    match netmaster_obs::RunRegistry::new(&args.registry).append(&row) {
        Ok(()) => println!("registered perf run {} in {}", row.git_rev, args.registry),
        Err(e) => eprintln!("perf: cannot append to the run registry: {e}"),
    }

    // Overhead gate: a plane fails only when its whole interval sits at
    // or above the budget; `unresolved` and `skipped` are reported, not
    // passed.
    let mut violations: Vec<String> = report
        .overheads
        .iter()
        .filter(|o| o.verdict == Verdict::Fail.as_str())
        .map(|o| {
            let (lo, hi) = (pct(o.lo), pct(o.hi));
            format!(
                "{} overhead interval [{lo}, {hi}] is at or above its {:.0}% budget",
                o.label,
                100.0 * o.budget
            )
        })
        .collect();

    // Perf-regression gate: compare this run against a committed
    // baseline and fail the process on a real regression.
    if let Some(path) = &args.baseline {
        let doc = match std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|json| regression::parse_baseline(&json))
        {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("perf: {e}");
                return ExitCode::FAILURE;
            }
        };
        let current = FleetNumbers {
            members_per_sec: report.fleet.members_per_sec,
            saving_mean: report.fleet.saving_mean,
            machine: report.fleet.machine.clone(),
        };
        // Per-solver floors: no optimized solver bench may fall below
        // its reference oracle (the regression that reopened this
        // engine for the overhaul).
        let solver_speedups: Vec<regression::SolverSpeedup> = report
            .sin_knap
            .iter()
            .chain(report.solver_matrix.iter())
            .chain([&report.overlapped, &report.plan_day])
            .map(|c| regression::SolverSpeedup {
                label: c.label.clone(),
                speedup: c.speedup,
            })
            .collect();
        let gate = regression::check(&current, &doc, &thresholds);
        for note in &gate.not_compared {
            println!("regression gate vs {path}: {note}");
        }
        let mut found = gate.violations;
        found.extend(regression::check_solver_floors(
            &solver_speedups,
            &thresholds,
        ));
        if found.is_empty() {
            println!("regression gate vs {path}: pass");
        }
        violations.extend(found.into_iter().map(|v| format!("vs {path}: {v}")));
    }
    for v in &violations {
        eprintln!("perf: gate: {v}");
    }
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
