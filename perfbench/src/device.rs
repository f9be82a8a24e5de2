//! The `device` workload: one phone's middleware on one thread.
//!
//! Set-up generates a year of traces for 8 users (two of them from
//! `scenario::schedule_change`, so the drift/re-mine path runs) and
//! each pass trains a fresh `MiddlewareService` per user with
//! `import_history` on 14 days. The measured loop then runs, for every
//! following day, `run_day` and `UserWatch::observe_day`, plus
//! `trigger_remine` whenever the watch fires — the step a phone pays
//! once a day. A year is long enough to fill each user's ledger ring.

use crate::fleet::Delta;
use crate::spans::SpanLog;
use crate::stats::Timing;
use crate::{Opts, Report};
use netmaster_core::watchtower::{UserWatch, WatchConfig};
use netmaster_core::{DayReport, MiddlewareService};
use netmaster_obs::names;
use netmaster_trace::gen::TraceGenerator;
use netmaster_trace::profile::UserProfile;
use netmaster_trace::scenario;
use netmaster_trace::trace::Trace;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Users on the device workload.
const USERS: usize = 8;
/// Days generated per user (about a year).
const HORIZON: usize = 365;
/// Days per user in tiny (test) runs.
const TINY_HORIZON: usize = 20;
/// History imported before the first measured day.
const TRAIN_DAYS: usize = 14;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// User `u`'s trace: users 0–5 have panel profiles 0–5, whatever the
/// seed, so every seed runs the same mix of habits; users 6 and 7
/// change schedule part-way through the horizon.
fn user_trace(seed: u64, u: usize, days: usize) -> Trace {
    let s = seed.wrapping_add(u as u64 * 7919);
    match u {
        6 => scenario::schedule_change(days, days * 2 / 5, s),
        7 => scenario::schedule_change(days, days * 3 / 5, s),
        _ => TraceGenerator::new(UserProfile::panel().remove(u))
            .with_seed(s)
            .generate(days),
    }
}

/// One user's outcome over a pass.
#[derive(Debug, Clone, PartialEq)]
struct UserOutcome {
    saving: f64,
    affected: f64,
    remines: u64,
}

/// What one pass over all users measured. Every pass runs the same
/// days in the same order, so step `i` of one pass repeats step `i` of
/// every other.
#[derive(Default)]
struct Pass {
    /// Wall time of each day's step.
    step_secs: Vec<f64>,
    /// Thread CPU time of each day's step.
    step_cpu_secs: Vec<f64>,
    outcomes: Vec<UserOutcome>,
    failed_days: u64,
    failures: Vec<String>,
    train_ns: u64,
}

impl Pass {
    /// Days per second of step time.
    fn rate(&self) -> f64 {
        self.step_secs.len() as f64 / self.step_secs.iter().sum::<f64>()
    }
}

/// Checks the invariant documented on
/// `MiddlewareService::apportion_energy` for every day whose records
/// are all still in the ledger ring: the baseline shares sum to the
/// day's stock energy, and the actual shares sum to at most the day's
/// NetMaster energy (the rest is duty-cycle wake-up energy, which no
/// activity pays). Returns the days that broke it.
fn check_ledger(svc: &MiddlewareService, trace: &Trace, reports: &[DayReport]) -> Vec<String> {
    let mut per_day: BTreeMap<usize, (usize, f64, f64)> = BTreeMap::new();
    for r in svc.ledger().records() {
        let e = per_day.entry(r.day).or_default();
        e.0 += 1;
        if let Some(share) = r.energy {
            e.1 += share.actual_j;
            e.2 += share.baseline_j;
        }
    }
    // The oldest day in a full ring may have lost records to eviction.
    let full = svc.ledger().len() >= netmaster_obs::DEFAULT_LEDGER_CAPACITY;
    let oldest = per_day.keys().next().copied();
    let mut bad = Vec::new();
    for report in reports {
        let d = report.day;
        if full && Some(d) == oldest {
            continue;
        }
        let Some(&(records, actual, baseline)) = per_day.get(&d) else {
            if full && oldest.is_some_and(|o| d < o) {
                continue;
            }
            if trace.days[d].activities.is_empty() {
                continue;
            }
            bad.push(format!("day {d}: no ledger records"));
            continue;
        };
        let tol = 1e-6 * report.stock_energy_j.max(1.0);
        let ok = records == trace.days[d].activities.len()
            && (baseline - report.stock_energy_j).abs() <= tol
            && actual >= 0.0
            && actual <= report.energy_j + tol;
        if !ok {
            bad.push(format!(
                "day {d}: {records} records, Σactual {actual:.6} vs energy {:.6}, Σbaseline {baseline:.6} vs stock {:.6}",
                report.energy_j, report.stock_energy_j
            ));
        }
    }
    bad
}

/// One pass over every user. With a log, records a span per step and
/// per part of the step.
fn pass(traces: &[Trace], log: Option<&SpanLog>) -> Pass {
    let mut out = Pass::default();
    for (u, trace) in traces.iter().enumerate() {
        let t0 = log.map(SpanLog::now_ns);
        let mut svc = MiddlewareService::new().import_history(&trace.days[..TRAIN_DAYS]);
        if let (Some(log), Some(t0)) = (log, t0) {
            let t1 = log.now_ns();
            log.push("mining.train", t0, t1, u as u64);
            out.train_ns += t1 - t0;
        }
        let mut watch = UserWatch::new(u as u32, WatchConfig::default());
        let mut reports = Vec::with_capacity(trace.days.len());
        let mut remines = 0u64;
        for day in &trace.days[TRAIN_DAYS..] {
            let cpu = crate::sys::thread_cpu_secs();
            let t = Instant::now();
            let report = match log {
                None => {
                    let report = svc.run_day(day);
                    if watch.observe_day(&report, svc.journal_mut()) {
                        svc.trigger_remine();
                        watch.note_remine();
                        remines += 1;
                    }
                    report
                }
                Some(log) => {
                    let a = log.now_ns();
                    let report = svc.run_day(day);
                    let b = log.now_ns();
                    let fired = watch.observe_day(&report, svc.journal_mut());
                    let c = log.now_ns();
                    let mut group = vec![
                        span("device.day", a, a, None, u),
                        span("core.run_day", a, b, Some(0), u),
                        span("core.watch", b, c, Some(0), u),
                    ];
                    if fired {
                        svc.trigger_remine();
                        watch.note_remine();
                        remines += 1;
                        group.push(span("core.remine", c, log.now_ns(), Some(0), u));
                    }
                    group[0].end_ns = log.now_ns();
                    log.push_group(group);
                    report
                }
            };
            out.step_secs.push(t.elapsed().as_secs_f64());
            out.step_cpu_secs.push(crate::sys::thread_cpu_secs() - cpu);
            reports.push(report);
        }
        let bad = check_ledger(&svc, trace, &reports);
        let mut failed = bad.len() as u64;
        out.failures
            .extend(bad.into_iter().take(3).map(|b| format!("user {u} {b}")));
        let summary = svc.summary();
        let interactions: usize = trace.days[TRAIN_DAYS..]
            .iter()
            .map(|d| d.interactions.len())
            .sum();
        // A wrong decision is an interaction the plan left without radio.
        let affected = summary.wrong_decisions as f64 / interactions.max(1) as f64;
        if affected >= crate::fleet::AFFECTED_LIMIT {
            failed = reports.len() as u64;
            out.failures
                .push(format!("user {u}: affected fraction {affected:.4}"));
        }
        out.failed_days += failed;
        out.outcomes.push(UserOutcome {
            saving: summary.saving(),
            affected,
            remines,
        });
    }
    out
}

fn span(name: &'static str, a: u64, b: u64, parent: Option<usize>, u: usize) -> crate::spans::Span {
    crate::spans::Span {
        name,
        start_ns: a,
        end_ns: b,
        parent,
        member: u as u64,
    }
}

/// Runs the workload.
pub fn run(opts: &Opts, rep: &mut Report) {
    let horizon = if opts.tiny { TINY_HORIZON } else { HORIZON };
    let mut setups = Vec::new();
    let mut traces = Vec::new();
    let mut gen_ns = 0u64;
    for _ in 0..SETUPS {
        let t = Instant::now();
        netmaster_obs::reset();
        traces = (0..USERS)
            .map(|u| user_trace(opts.seed, u, horizon))
            .collect::<Vec<_>>();
        gen_ns = t.elapsed().as_nanos() as u64;
        // Each pass trains its own services; set-up trains one set so
        // its cost is part of what a phone pays at install.
        for trace in &traces {
            let _ = MiddlewareService::new().import_history(&trace.days[..TRAIN_DAYS]);
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    rep.setup(&setups);
    netmaster_obs::reset();
    let days_per_pass = USERS * (horizon - TRAIN_DAYS);
    rep.note(format!(
        "device: {USERS} users x {} days = {days_per_pass} days per pass, one thread",
        horizon - TRAIN_DAYS
    ));

    let log = Arc::new(SpanLog::default());
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(opts.seconds);
    // Each day's step is the same work in every pass. Host noise only
    // adds time, so each step's fastest repeat over the untraced passes
    // is its own cost, and the end-to-end figures come from these
    // (README.md, "Noise").
    let mut fastest: Vec<f64> = Vec::new();
    let mut least_cpu: Vec<f64> = Vec::new();
    let mut rates = Vec::new();
    let mut traced_rates = Vec::new();
    let mut deltas = Vec::new();
    let mut traced_days = 0usize;
    let mut train_ns = 0u64;
    let mut reference: Option<Vec<UserOutcome>> = None;
    let mut round = 0usize;
    while round < 2 || Instant::now() < deadline {
        let traced = opts.trace && matches!(round % 4, 1 | 2);
        let mut d = Delta::begin();
        let p = pass(&traces, traced.then_some(&*log));
        d.end();
        let days = p.step_secs.len();
        if traced {
            traced_rates.push(p.rate());
            traced_days += days;
            train_ns += p.train_ns;
            deltas.push(d);
        } else {
            rates.push(p.rate());
            crate::stats::keep_least(&mut fastest, &p.step_secs);
            crate::stats::keep_least(&mut least_cpu, &p.step_cpu_secs);
        }
        rep.note(format!(
            "pass {round} ({}): {days} days, {:.1} days/s",
            if traced { "traced" } else { "untraced" },
            p.rate()
        ));
        let mut failed = p.failed_days;
        for f in &p.failures {
            rep.explain(format!("pass {round}: {f}"));
        }
        match &reference {
            None => {
                rep.note(format!(
                    "pass {round}: savings {:?}, re-mines {:?}",
                    p.outcomes
                        .iter()
                        .map(|o| (o.saving * 1e3).round() / 1e3)
                        .collect::<Vec<_>>(),
                    p.outcomes.iter().map(|o| o.remines).collect::<Vec<_>>()
                ));
                reference = Some(p.outcomes);
            }
            Some(r) if *r != p.outcomes => {
                rep.explain(format!(
                    "pass {round}: same-seed savings differ from pass 0"
                ));
                failed = days as u64;
            }
            Some(_) => {}
        }
        rep.ops(days as u64, failed.min(days as u64));
        round += 1;
    }
    let outcomes = reference.expect("at least one pass ran");
    let n = outcomes.len() as f64;
    let timing = Timing::of(&fastest).expect("untraced passes ran");
    rep.set(
        "throughput_per_s",
        fastest.len() as f64 / fastest.iter().sum::<f64>(),
    );
    rep.set(
        "cpu_ms_per_op",
        least_cpu.iter().sum::<f64>() * 1e3 / least_cpu.len() as f64,
    );
    rep.set("p50_ms", timing.p50 * 1e3);
    rep.set("tail_ms", timing.tail_value() * 1e3);
    rep.note(format!(
        "day step (run_day + watch + re-mine), fastest of {} untraced passes: p50 {:.4} ms, {} = {:.4} ms; median pass {:.1} days/s",
        rates.len(),
        timing.p50 * 1e3,
        timing.tail_label(),
        timing.tail_value() * 1e3,
        crate::stats::median(&rates).unwrap_or(0.0)
    ));
    rep.set(
        "saving_mean",
        outcomes.iter().map(|o| o.saving).sum::<f64>() / n,
    );
    rep.set(
        "affected_max",
        outcomes.iter().map(|o| o.affected).fold(0.0, f64::max),
    );
    rep.alias("affected_max", "affected_max", "fraction");
    rep.alias("day_p50_ms", "p50_ms", "ms");
    rep.alias("day_p99_ms", "tail_ms", "ms");

    if opts.trace {
        let totals = log.totals_since(0);
        let get = |n: &str| totals.get(n).copied().unwrap_or_default();
        let days = traced_days as f64;
        let us = |ns: u64| ns as f64 / 1e3 / days.max(1.0);
        let plan_secs: f64 = deltas
            .iter()
            .map(|d| d.hist_secs(names::STAGE_PLAN_DAY_SECONDS))
            .sum();
        rep.set("core.plan_day_us_per_day", plan_secs * 1e6 / days.max(1.0));
        rep.set(
            "core.run_day_self_us",
            (get("core.run_day").total_ns as f64 / 1e3 - plan_secs * 1e6) / days.max(1.0),
        );
        rep.set("core.watch_us_per_day", us(get("core.watch").total_ns));
        let remine = get("core.remine");
        rep.set(
            "core.remine_ms",
            if remine.count > 0 {
                remine.total_ns as f64 / 1e6 / remine.count as f64
            } else {
                0.0
            },
        );
        rep.set(
            "mining.remine_total",
            deltas
                .iter()
                .map(|d| d.counter(names::MINING_REMINE_TOTAL) as f64)
                .sum(),
        );
        let trained = (deltas.len() * USERS) as f64;
        rep.set(
            "mining.train_us_per_member",
            train_ns as f64 / 1e3 / trained.max(1.0),
        );
        crate::fleet::stage_metrics(&deltas, days, rep);
        let step = get("device.day");
        rep.set(
            "sim.unattributed_share",
            1.0 - (get("core.run_day").total_ns + get("core.watch").total_ns + remine.total_ns)
                as f64
                / step.total_ns.max(1) as f64,
        );
        let events: u64 = traces
            .iter()
            .flat_map(|t| &t.days)
            .map(|d| (d.sessions.len() + d.interactions.len() + d.activities.len()) as u64)
            .sum();
        rep.set(
            "trace.gen_us_per_member",
            gen_ns as f64 / 1e3 / USERS as f64,
        );
        rep.set("trace.events_per_member", events as f64 / USERS as f64);
        rep.set(
            "trace.gen_ns_per_event",
            gen_ns as f64 / events.max(1) as f64,
        );
        let pairs: Vec<f64> = rates
            .iter()
            .zip(&traced_rates)
            .map(|(u, t)| u / t - 1.0)
            .collect();
        rep.set(
            "obs.tracing_overhead",
            crate::stats::median(&pairs).unwrap_or(0.0),
        );
        crate::obs_read_metrics(None, rep);
        let busy = step.total_ns + get("mining.train").total_ns;
        crate::print_layer_table(&totals, busy as f64, days, "day");
        rep.write_spans(&log);
    }
}
