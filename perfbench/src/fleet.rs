//! The `fleet` workload: the `netmaster fleet` pipeline as a batch run.
//!
//! Each batch is built exactly as the CLI's `fleet` command builds it:
//! member `i` has seed `base + i·7919` and profile `seed % 8`, its trace
//! (14 training + 7 test days) is generated inside the
//! `par_map_indexed` workers, and the candidate is
//! `NetMasterPolicy::new(..).with_training` with the flight recorder
//! left on. The traced pass wraps the same closures and the policy to
//! time trace generation, training, the baseline simulation, `plan_day`
//! and RRC pricing from outside.

use crate::spans::{Span, SpanLog};
use crate::{Opts, Report};
use netmaster_core::policies::NetMasterPolicy;
use netmaster_core::NetMasterConfig;
use netmaster_obs::names;
use netmaster_radio::{LinkModel, RrcModel, TailPolicy};
use netmaster_sim::{run_fleet_streaming_with, DayPlan, FleetReport, Policy, SimConfig};
use netmaster_trace::gen::TraceGenerator;
use netmaster_trace::profile::UserProfile;
use netmaster_trace::trace::{DayTrace, Trace};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Training days per member, as in the CLI.
pub const TRAIN_DAYS: usize = 14;
/// Test days per member, as in the CLI.
pub const TEST_DAYS: usize = 7;
/// Members per measured batch.
const BATCH: usize = 1000;
/// Members per batch in tiny (test) runs.
const TINY_BATCH: usize = 12;
/// Members in the warm-up run each set-up makes.
const WARMUP: usize = 64;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Pause after each batch and each set-up, outside their timing (see
/// the comment in [`run`]).
const BATCH_PAUSE: std::time::Duration = std::time::Duration::from_millis(20);
/// A member's (or a device user's) affected-interaction fraction must
/// stay below this: the paper's "< 1%" bound.
pub const AFFECTED_LIMIT: f64 = 0.01;

/// Member `i`'s seed and trace, as `netmaster fleet` makes them.
pub fn member_trace(base_seed: u64, i: usize) -> (u64, Trace) {
    let seed = base_seed.wrapping_add(i as u64 * 7919);
    let profile = UserProfile::panel().remove((seed % 8) as usize);
    (
        seed,
        TraceGenerator::new(profile)
            .with_seed(seed)
            .generate(TRAIN_DAYS + TEST_DAYS),
    )
}

/// The candidate policy, as `netmaster fleet` builds it (the flight
/// recorder on).
fn candidate(trace: &Trace) -> NetMasterPolicy {
    NetMasterPolicy::new(
        NetMasterConfig::default(),
        LinkModel::default(),
        RrcModel::wcdma_default(),
    )
    .with_training(&trace.days[..TRAIN_DAYS])
}

/// Events the generator produced for a trace.
fn events(trace: &Trace) -> u64 {
    trace
        .days
        .iter()
        .map(|d| (d.sessions.len() + d.interactions.len() + d.activities.len()) as u64)
        .sum()
}

/// The candidate of an untraced batch: forwards every call to the real
/// policy and, when dropped at the end of its member, records the
/// member's wall time on its worker, from the start of trace generation.
struct TimedPolicy {
    inner: NetMasterPolicy,
    member: usize,
    start: Instant,
    member_secs: Arc<Mutex<Vec<f64>>>,
}

impl Policy for TimedPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn tail_policy(&self) -> TailPolicy {
        self.inner.tail_policy()
    }

    fn plan_day(&mut self, day: &DayTrace) -> DayPlan {
        self.inner.plan_day(day)
    }
}

impl Drop for TimedPolicy {
    fn drop(&mut self) {
        let secs = self.start.elapsed().as_secs_f64();
        self.member_secs.lock().unwrap_or_else(|e| e.into_inner())[self.member] = secs;
    }
}

/// One untraced fleet run of `n` members; returns the report, its
/// wall-clock seconds and each member's wall time on its worker, by
/// member index.
pub fn run_untraced(base_seed: u64, n: usize) -> (FleetReport, f64, Vec<f64>) {
    let member_secs = Arc::new(Mutex::new(vec![0.0; n]));
    let t = Instant::now();
    let report = run_fleet_streaming_with(
        n,
        TRAIN_DAYS,
        &SimConfig::default(),
        |i| {
            MEMBER_START.with(|c| c.set(Some((i, Instant::now()))));
            member_trace(base_seed, i)
        },
        |trace| {
            let (member, start) = MEMBER_START
                .with(Cell::take)
                .expect("make_trace runs before make_policy on the same worker");
            Box::new(TimedPolicy {
                inner: candidate(trace),
                member,
                start,
                member_secs: Arc::clone(&member_secs),
            }) as Box<dyn Policy + Send>
        },
        None,
    );
    let wall = t.elapsed().as_secs_f64();
    let member_secs = std::mem::take(&mut *member_secs.lock().unwrap_or_else(|e| e.into_inner()));
    (report, wall, member_secs)
}

/// What a traced batch measured besides its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct TracedBatch {
    /// Members run.
    pub members: usize,
    /// Wall-clock seconds of the whole batch.
    pub wall_secs: f64,
    /// Worker threads (`par_map_indexed` uses one per core).
    pub workers: usize,
    /// Events generated over all members.
    pub events: u64,
    /// The batch's spans in the log: `first_span..end_span`.
    pub first_span: usize,
    /// One past the batch's last span.
    pub end_span: usize,
    /// Spread between the first and the last worker finishing, ns.
    pub worker_tail_ns: u64,
}

/// A member's spans while its worker runs it. Local indexes: 0 member,
/// 1 `trace.gen`, 2 `sim.baseline`, 3 `mining.train`, 4
/// `sim.candidate`, then one `core.plan_day` per test day.
struct MemberSpans {
    member: u64,
    spans: Vec<Span>,
}

impl MemberSpans {
    fn open(&mut self, name: &'static str, start_ns: u64, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            member: self.member,
        });
        self.spans.len() - 1
    }
}

thread_local! {
    /// The worker's current untraced member and when it started.
    static MEMBER_START: Cell<Option<(usize, Instant)>> = const { Cell::new(None) };
    static CURRENT: RefCell<Option<MemberSpans>> = const { RefCell::new(None) };
    /// The batch and end time of the last member this thread finished.
    static LAST_END: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

/// Numbers traced batches, so a thread reused across batches never
/// joins one batch's member to the next.
static BATCH_ID: AtomicU64 = AtomicU64::new(0);

/// The traced candidate: forwards to the real policy and times each
/// `plan_day`. Dropping it (when `simulate_member` returns) closes the
/// member's spans and hands them to the log with the worker's id.
struct TracedPolicy {
    inner: NetMasterPolicy,
    spans: MemberSpans,
    log: Arc<SpanLog>,
    ends: Arc<WorkerEnds>,
    batch: u64,
}

impl Policy for TracedPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn tail_policy(&self) -> TailPolicy {
        self.inner.tail_policy()
    }

    fn plan_day(&mut self, day: &DayTrace) -> DayPlan {
        let start = self.log.now_ns();
        let plan = self.inner.plan_day(day);
        let end = self.log.now_ns();
        let i = self.spans.open("core.plan_day", start, Some(4));
        self.spans.spans[i].end_ns = end;
        plan
    }
}

impl Drop for TracedPolicy {
    fn drop(&mut self) {
        let end = self.log.now_ns();
        self.spans.spans[0].end_ns = end;
        self.spans.spans[4].end_ns = end;
        self.ends.note(end);
        LAST_END.with(|c| c.set(Some((self.batch, end))));
        self.log.push_group(std::mem::take(&mut self.spans.spans));
    }
}

/// The last member end seen on each worker thread.
#[derive(Default)]
struct WorkerEnds(Mutex<std::collections::HashMap<std::thread::ThreadId, u64>>);

impl WorkerEnds {
    fn note(&self, end_ns: u64) {
        let mut m = self.0.lock().expect("worker-end lock poisoned");
        m.insert(std::thread::current().id(), end_ns);
    }

    fn tail_ns(&self) -> u64 {
        let m = self.0.lock().expect("worker-end lock poisoned");
        let first = m.values().min().copied().unwrap_or(0);
        let last = m.values().max().copied().unwrap_or(0);
        last - first
    }
}

/// One traced fleet run of `n` members, recording into `log`. With
/// `recorder` false the candidates run with the flight recorder off,
/// as `perf.rs` runs them.
pub fn run_traced(
    base_seed: u64,
    n: usize,
    log: &Arc<SpanLog>,
    recorder: bool,
) -> (FleetReport, TracedBatch) {
    let first_span = log.len();
    let batch = BATCH_ID.fetch_add(1, Ordering::Relaxed);
    let events = AtomicU64::new(0);
    let ends = Arc::new(WorkerEnds::default());
    let t = Instant::now();
    let report = run_fleet_streaming_with(
        n,
        TRAIN_DAYS,
        &SimConfig::default(),
        |i| {
            let start = log.now_ns();
            // The worker's time between its previous member and this one:
            // dropping the previous trace, handing its result over and
            // claiming work.
            if let Some((b, prev)) = LAST_END.with(Cell::get) {
                if b == batch {
                    log.push("sim.orchestrate", prev, start, i as u64);
                }
            }
            let out = member_trace(base_seed, i);
            let end = log.now_ns();
            events.fetch_add(crate::fleet::events(&out.1), Ordering::Relaxed);
            let mut spans = MemberSpans {
                member: i as u64,
                spans: Vec::with_capacity(5 + TEST_DAYS),
            };
            spans.open("fleet.member", start, None);
            let gen = spans.open("trace.gen", start, Some(0));
            spans.spans[gen].end_ns = end;
            CURRENT.with(|c| *c.borrow_mut() = Some(spans));
            out
        },
        |trace| {
            let start = log.now_ns();
            let mut spans = CURRENT
                .with(|c| c.borrow_mut().take())
                .expect("make_trace runs before make_policy on the same worker");
            let gen_end = spans.spans[1].end_ns;
            let baseline = spans.open("sim.baseline", gen_end, Some(0));
            spans.spans[baseline].end_ns = start;
            let inner = if recorder {
                candidate(trace)
            } else {
                candidate(trace).with_flight_recorder(false)
            };
            let end = log.now_ns();
            let train = spans.open("mining.train", start, Some(0));
            spans.spans[train].end_ns = end;
            spans.open("sim.candidate", end, Some(0));
            Box::new(TracedPolicy {
                inner,
                spans,
                log: Arc::clone(log),
                ends: Arc::clone(&ends),
                batch,
            }) as Box<dyn Policy + Send>
        },
        None,
    );
    let wall_secs = t.elapsed().as_secs_f64();
    let worker_tail_ns = ends.tail_ns();
    (
        report,
        TracedBatch {
            members: n,
            wall_secs,
            workers: netmaster_sim::par::default_parallelism().min(n),
            events: events.load(Ordering::Relaxed),
            first_span,
            end_span: log.len(),
            worker_tail_ns,
        },
    )
}

/// Output checks on one batch: every member's candidate moved exactly
/// the baseline's bytes, no member's affected fraction reaches 1%, and
/// the report equals `reference` (same inputs, same outputs). Returns
/// the members that failed.
pub fn check(
    report: &FleetReport,
    reference: Option<&FleetReport>,
    n: usize,
) -> (u64, Vec<String>) {
    let mut failed = 0u64;
    let mut why = Vec::new();
    if report.members.len() != n {
        why.push(format!("{} members reported of {n}", report.members.len()));
        return (n as u64, why);
    }
    for m in &report.members {
        let bytes_ok = m.candidate.bytes_down == m.baseline.bytes_down
            && m.candidate.bytes_up == m.baseline.bytes_up;
        let affected = m.candidate.affected_fraction();
        if !bytes_ok || affected >= AFFECTED_LIMIT {
            failed += 1;
            if why.len() < 5 {
                why.push(format!(
                    "member {} (seed {}): bytes conserved {bytes_ok}, affected {affected:.4}",
                    m.user_id, m.seed
                ));
            }
        }
    }
    if let Some(r) = reference {
        if r != report {
            why.push("report differs from the reference run of the same inputs".to_owned());
            return (n as u64, why);
        }
    }
    (failed, why)
}

/// Counter and histogram deltas of the registry between two snapshots.
pub struct Delta {
    before: netmaster_obs::Snapshot,
    after: netmaster_obs::Snapshot,
}

impl Delta {
    /// Takes the `before` snapshot.
    pub fn begin() -> Delta {
        let before = netmaster_obs::snapshot();
        Delta {
            after: before.clone(),
            before,
        }
    }

    /// Takes the `after` snapshot.
    pub fn end(&mut self) {
        self.after = netmaster_obs::snapshot();
    }

    /// Counter increase.
    pub fn counter(&self, name: &str) -> u64 {
        self.after
            .counter(name)
            .saturating_sub(self.before.counter(name))
    }

    /// Histogram seconds increase.
    pub fn hist_secs(&self, name: &str) -> f64 {
        let get = |s: &netmaster_obs::Snapshot| s.histogram(name).map_or(0.0, |h| h.sum_secs);
        (get(&self.after) - get(&self.before)).max(0.0)
    }

    /// Histogram seconds increase in µs over `per` units of work.
    pub fn stage_us_per(&self, name: &str, per: f64) -> f64 {
        if per > 0.0 {
            self.hist_secs(name) * 1e6 / per
        } else {
            0.0
        }
    }
}

/// Adds the per-layer metrics of traced fleet batches to `rep`.
pub fn layer_metrics(log: &SpanLog, batches: &[TracedBatch], delta: &[Delta], rep: &mut Report) {
    let mut totals = std::collections::BTreeMap::<&'static str, crate::spans::LayerTotals>::new();
    for b in batches {
        for (name, t) in log.totals_in(b.first_span..b.end_span) {
            let e = totals.entry(name).or_default();
            e.count += t.count;
            e.total_ns += t.total_ns;
            e.self_ns += t.self_ns;
        }
    }
    let members: f64 = batches.iter().map(|b| b.members as f64).sum();
    let days = members * TEST_DAYS as f64;
    let get = |n: &str| totals.get(n).copied().unwrap_or_default();
    let us = |ns: u64, per: f64| {
        if per > 0.0 {
            ns as f64 / 1e3 / per
        } else {
            0.0
        }
    };
    let events: f64 = batches.iter().map(|b| b.events as f64).sum();
    let gen = get("trace.gen");
    rep.set("trace.gen_us_per_member", us(gen.total_ns, members));
    rep.set("trace.events_per_member", events / members.max(1.0));
    rep.set(
        "trace.gen_ns_per_event",
        gen.total_ns as f64 / events.max(1.0),
    );
    rep.set(
        "mining.train_us_per_member",
        us(get("mining.train").total_ns, members),
    );
    let plan = get("core.plan_day");
    rep.set("core.plan_day_us_per_day", us(plan.total_ns, days));
    rep.set(
        "sim.baseline_us_per_member",
        us(get("sim.baseline").total_ns, members),
    );
    rep.set(
        "sim.price_us_per_member",
        us(get("sim.candidate").self_ns, members),
    );
    let busy_ns: u64 = get("fleet.member").total_ns + get("sim.orchestrate").total_ns;
    let capacity_ns: f64 = batches
        .iter()
        .map(|b| b.wall_secs * 1e9 * b.workers.max(1) as f64)
        .sum();
    rep.set(
        "sim.unattributed_share",
        1.0 - busy_ns as f64 / capacity_ns.max(1.0),
    );
    let tails: Vec<f64> = batches
        .iter()
        .map(|b| b.worker_tail_ns as f64 / 1e6)
        .collect();
    rep.set(
        "sim.worker_tail_ms",
        crate::stats::median(&tails).unwrap_or(0.0),
    );
    stage_metrics(delta, days, rep);
    crate::print_layer_table(&totals, capacity_ns, members, "member");
}

/// The split of `plan_day` (and the miner's per-day learning) from the
/// program's own stage histograms and counters, over `days` planned
/// days.
pub fn stage_metrics(delta: &[Delta], days: f64, rep: &mut Report) {
    let sum = |f: &dyn Fn(&Delta) -> f64| delta.iter().map(f).sum::<f64>();
    rep.set(
        "mining.mine_us_per_day",
        sum(&|d| d.stage_us_per(names::STAGE_MINE_SECONDS, days)),
    );
    rep.set(
        "knapsack.solve_us_per_day",
        sum(&|d| d.stage_us_per(names::STAGE_SOLVE_SECONDS, days)),
    );
    rep.set(
        "core.predict_us_per_day",
        sum(&|d| d.stage_us_per(names::STAGE_PREDICT_SECONDS, days)),
    );
    rep.set(
        "core.dutycycle_us_per_day",
        sum(&|d| d.stage_us_per(names::STAGE_DUTYCYCLE_SECONDS, days)),
    );
    let fast = sum(&|d| d.counter(names::KNAPSACK_FASTPATH_TOTAL) as f64);
    let solved = fast
        + sum(&|d| d.counter(names::KNAPSACK_DP_TOTAL) as f64)
        + sum(&|d| d.counter(names::KNAPSACK_BNB_TOTAL) as f64);
    rep.set(
        "knapsack.fastpath_share",
        if solved > 0.0 { fast / solved } else { 0.0 },
    );
    rep.set(
        "knapsack.items_per_day",
        sum(&|d| d.counter(names::PLANNER_ITEMS_TOTAL) as f64) / days.max(1.0),
    );
    rep.note(format!(
        "knapsack: {fast:.0} of {solved:.0} solved slots took the slack fast path"
    ));
    rep.set(
        "obs.ledger_records_total",
        sum(&|d| d.counter(names::LEDGER_RECORDS_TOTAL) as f64),
    );
    rep.set(
        "obs.ledger_dropped_total",
        sum(&|d| d.counter(names::LEDGER_DROPPED_TOTAL) as f64),
    );
    rep.set(
        "obs.journal_dropped_total",
        sum(&|d| d.counter(names::JOURNAL_DROPPED_TOTAL) as f64),
    );
}

/// Runs the workload.
pub fn run(opts: &Opts, rep: &mut Report) {
    let n = if opts.tiny { TINY_BATCH } else { BATCH };
    let warm = if opts.tiny { 4 } else { WARMUP };
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        netmaster_obs::reset();
        let _ = run_untraced(opts.seed ^ 0x5eed, warm);
        setups.push(t.elapsed().as_secs_f64());
        std::thread::sleep(BATCH_PAUSE);
    }
    rep.setup(&setups);
    netmaster_obs::reset();
    rep.note(format!(
        "fleet batch: {n} members of {TRAIN_DAYS}+{TEST_DAYS} days, {} workers",
        netmaster_sim::par::default_parallelism()
    ));

    let log = Arc::new(SpanLog::default());
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(opts.seconds);
    let mut cpu_secs = 0.0;
    // Untraced batch rates by round.
    let mut rates = std::collections::BTreeMap::new();
    // Every batch runs the same members, and host noise only adds time,
    // so a member's latency is its fastest repeat (README.md, "Noise").
    let mut member_fastest = Vec::new();
    // Rates of traced batches with the flight recorder on, by round.
    let mut traced_rates = Vec::new();
    let mut batches = Vec::new();
    let mut deltas = Vec::new();
    let mut recorder_off = Vec::new();
    // A traced run ends by serving this registry; its history records
    // a sample after every batch.
    let mut history = match opts.trace.then(crate::scrape::History::new) {
        Some(Ok(h)) => Some(h),
        Some(Err(e)) => {
            rep.fail(format!("history store: {e}"));
            None
        }
        None => None,
    };
    let mut reference: Option<FleetReport> = None;
    let mut round = 0usize;
    // Untraced and traced batches alternate A B B A in traced runs; every
    // other traced batch runs with the flight recorder off.
    while round < 2 || Instant::now() < deadline {
        let traced = opts.trace && matches!(round % 4, 1 | 2);
        let recorder = !matches!(round % 8, 2 | 5);
        let (report, wall) = if traced {
            let mut d = Delta::begin();
            let (report, b) = run_traced(opts.seed, n, &log, recorder);
            d.end();
            if recorder {
                deltas.push(d);
                batches.push(b);
                traced_rates.push((round, n as f64 / b.wall_secs));
            } else {
                recorder_off.push(b);
            }
            (report, b.wall_secs)
        } else {
            let c = crate::sys::process_cpu_secs();
            let (report, wall, member_secs) = run_untraced(opts.seed, n);
            cpu_secs += crate::sys::process_cpu_secs() - c;
            rates.insert(round, n as f64 / wall);
            crate::stats::keep_least(&mut member_fastest, &member_secs);
            (report, wall)
        };
        // The workers of a batch are detached when it returns, and a
        // worker's malloc arena is free for reuse only once its thread
        // has exited. Without a pause, the next batch's workers could
        // find every arena taken and create new ones, so peak RSS
        // depended on thread exit timing.
        std::thread::sleep(BATCH_PAUSE);
        if let Some(h) = history.as_mut() {
            h.tick();
        }
        let (failed, why) = check(&report, reference.as_ref(), n);
        rep.ops(n as u64, failed);
        for w in why {
            rep.explain(format!("fleet batch {round}: {w}"));
        }
        rep.note(format!(
            "batch {round} ({}): {n} members in {wall:.3} s = {:.1} members/s, peak rss {:.2} MB",
            match (traced, recorder) {
                (false, _) => "untraced",
                (true, true) => "traced",
                (true, false) => "traced, flight recorder off",
            },
            n as f64 / wall,
            crate::sys::peak_rss_mb()
        ));
        if reference.is_none() {
            rep.note(format!(
                "fleet of {n} (seed {}): saving mean {:.3} (sd {:.3}, min {:.3}, max {:.3}); affected max {:.4}",
                opts.seed,
                report.saving.mean,
                report.saving.std_dev,
                report.saving.min,
                report.saving.max,
                report.affected.max
            ));
            reference = Some(report);
        }
        round += 1;
    }
    let untraced_members = rates.len() as f64 * n as f64;
    let report = reference.expect("at least one batch ran");
    let batch_rates: Vec<f64> = rates.values().copied().collect();
    rep.set(
        "throughput_per_s",
        crate::stats::median(&batch_rates).unwrap_or(0.0),
    );
    rep.set("cpu_ms_per_op", cpu_secs * 1e3 / untraced_members.max(1.0));
    // A member's latency is its wall time on its worker.
    let member = crate::stats::Timing::of(&member_fastest).expect("untraced batches ran");
    rep.set("p50_ms", member.p50 * 1e3);
    rep.set("tail_ms", member.tail_value() * 1e3);
    rep.note(format!(
        "member wall time, fastest of {} untraced batches: p50 {:.3} ms, {} = {:.3} ms",
        batch_rates.len(),
        member.p50 * 1e3,
        member.tail_label(),
        member.tail_value() * 1e3
    ));
    rep.set("saving_mean", report.saving.mean);
    rep.set("affected_max", report.affected.max);
    rep.alias("affected_max", "affected_max", "fraction");
    rep.alias("members_per_s", "throughput_per_s", "members/s");
    rep.alias("cpu_ms_per_member", "cpu_ms_per_op", "ms");
    rep.alias("member_p50_ms", "p50_ms", "ms");
    rep.alias("member_tail_ms", "tail_ms", "ms");

    if opts.trace {
        layer_metrics(&log, &batches, &deltas, rep);
        // Each traced batch is paired with the untraced batch next to it.
        let pairs: Vec<f64> = traced_rates
            .iter()
            .filter_map(|&(r, t)| {
                let u = rates.get(&(r - 1)).or_else(|| rates.get(&(r + 1)))?;
                Some(u / t - 1.0)
            })
            .collect();
        rep.set(
            "obs.tracing_overhead",
            crate::stats::median(&pairs).unwrap_or(0.0),
        );
        let off: Vec<f64> = recorder_off
            .iter()
            .filter_map(|b| {
                let t = log.totals_in(b.first_span..b.end_span);
                let plan = t.get("core.plan_day")?;
                Some(plan.total_ns as f64 / 1e3 / (b.members * TEST_DAYS) as f64)
            })
            .collect();
        let off = crate::stats::median(&off).unwrap_or(0.0);
        rep.set("core.plan_day_recorder_off_us_per_day", off);
        rep.note(format!(
            "plan_day: {:.1} us/day with the flight recorder on (as the CLI runs), {off:.1} with it off (as perf.rs runs)",
            rep.get("core.plan_day_us_per_day")
        ));
        // The registry now holds this fleet: serve it and time the read
        // path (the `scrape` workload's layers) against it.
        if let Some(h) = history {
            let secs = (opts.seconds / 10.0).clamp(0.2, 3.0);
            crate::scrape::read_path_layers(h, &log, report.saving.mean, secs, rep);
        }
        rep.write_spans(&log);
    }
}
