//! Perf-regression gating against a committed baseline, and the
//! verdict of a paired overhead A/B against its budget.
//!
//! The `perf` binary writes `BENCH_fleet.json`; this module reads a
//! previously committed copy back and compares the current run's fleet
//! numbers against it. The gate fails (returns a non-empty list of
//! violations) when the mean energy saving drops by more than the
//! configured number of points, or, when both runs come from the same
//! machine, when fleet throughput drops by more than the configured
//! fraction. Throughput from another machine is not compared at all:
//! members/sec measures the box as much as the code.
//!
//! Baseline parsing is deliberately lenient: only the fields the gate
//! compares are required, so older baselines keep working as the
//! report schema grows.

use serde::{Deserialize, Serialize};

/// Regression thresholds for [`check`], [`check_solver_floors`] and
/// [`judge_overhead`].
#[derive(Debug, Clone, Copy)]
pub struct GateThresholds {
    /// Maximum tolerated fractional drop in fleet throughput
    /// (members/sec) before the gate fails, e.g. `0.10` for 10%.
    pub max_throughput_drop: f64,
    /// Maximum tolerated absolute drop in the mean saving ratio,
    /// e.g. `0.02` for two percentage points.
    pub max_saving_drop: f64,
    /// Minimum speedup every optimized solver bench must keep over its
    /// reference oracle. `1.0` means "never slower than the reference"
    /// — the floor that caught the original DP-path regression.
    pub min_solver_speedup: f64,
    /// Budget for each always-on telemetry plane's throughput cost, as
    /// a fraction of the bare fleet's wall time per member.
    pub max_overhead: f64,
}

impl GateThresholds {
    /// The defaults for full perf runs: >10% throughput or >2pp saving
    /// regressions fail, every solver bench must be ≥1.0× vs its
    /// reference, and each telemetry plane must cost <2%.
    pub fn full() -> Self {
        GateThresholds {
            max_throughput_drop: 0.10,
            max_saving_drop: 0.02,
            min_solver_speedup: 1.0,
            max_overhead: 0.02,
        }
    }

    /// Smoke-mode thresholds: CI machines are noisy and smoke fleets
    /// are tiny, so the throughput, solver and overhead bounds are only
    /// sanity checks; the saving bound stays tight because savings are
    /// deterministic.
    pub fn smoke() -> Self {
        GateThresholds {
            max_throughput_drop: 0.60,
            max_saving_drop: 0.02,
            min_solver_speedup: 0.25,
            max_overhead: 0.15,
        }
    }
}

/// One solver bench's measured speedup over its reference oracle
/// (current-run side of [`check_solver_floors`]).
#[derive(Debug, Clone)]
pub struct SolverSpeedup {
    /// The bench label, e.g. `"sin_knap bound n=100"`.
    pub label: String,
    /// `reference_ns / optimized_ns` from the current run.
    pub speedup: f64,
}

/// Per-solver floor check: every optimized solver must hold
/// [`GateThresholds::min_solver_speedup`] over its reference. Returns
/// one message per sinking solver; needs no baseline document because
/// the reference oracles *are* the baseline.
pub fn check_solver_floors(current: &[SolverSpeedup], thr: &GateThresholds) -> Vec<String> {
    current
        .iter()
        .filter(|s| s.speedup < thr.min_solver_speedup)
        .map(|s| {
            format!(
                "solver bench {:?} at {:.2}x is below the {:.2}x floor vs its reference",
                s.label, s.speedup, thr.min_solver_speedup
            )
        })
        .collect()
}

/// The machine a fleet throughput was measured on. Two throughputs are
/// comparable only when their machines are equal.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Machine {
    /// Cores the process may use.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`, or `"unknown"`.
    pub cpu_model: String,
}

impl Machine {
    /// The machine this process runs on.
    pub fn detect() -> Machine {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Machine {
            nproc: netmaster_sim::par::default_parallelism(),
            cpu_model,
        }
    }
}

/// The fleet numbers the gate compares (current-run side).
#[derive(Debug, Clone)]
pub struct FleetNumbers {
    /// Fleet throughput in members per wall second.
    pub members_per_sec: f64,
    /// Mean energy-saving ratio across the fleet.
    pub saving_mean: f64,
    /// Where the throughput was measured.
    pub machine: Machine,
}

/// The `fleet` object of a `BENCH_fleet.json` baseline; extra fields
/// are ignored.
#[derive(Debug, Clone, Deserialize)]
pub struct BaselineFleet {
    /// Baseline throughput in members per second.
    pub members_per_sec: f64,
    /// Baseline mean saving ratio.
    pub saving_mean: f64,
    /// Where the baseline throughput was measured; absent in baselines
    /// that predate the field, which makes their throughput
    /// incomparable.
    pub machine: Option<Machine>,
}

/// A `BENCH_fleet.json` document, reduced to what the gate needs.
#[derive(Debug, Clone, Deserialize)]
pub struct BaselineDoc {
    /// The fleet throughput/saving block.
    pub fleet: BaselineFleet,
}

/// Parses a baseline report, tolerating unknown fields.
pub fn parse_baseline(json: &str) -> Result<BaselineDoc, String> {
    serde_json::from_str(json).map_err(|e| format!("bad baseline: {e}"))
}

/// What [`check`] found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GateReport {
    /// One message per violated threshold; empty means the gate passes.
    pub violations: Vec<String>,
    /// Checks that were not made, with the reason. These are neither a
    /// pass nor a fail.
    pub not_compared: Vec<String>,
}

/// Compares the current run against the baseline. Improvements never
/// fail the gate. Throughput is compared only when the baseline records
/// the same machine as the current run.
pub fn check(current: &FleetNumbers, baseline: &BaselineDoc, thr: &GateThresholds) -> GateReport {
    let mut report = GateReport::default();
    let base = &baseline.fleet;
    match &base.machine {
        Some(m) if *m == current.machine => {
            if base.members_per_sec > 0.0 {
                let drop = (base.members_per_sec - current.members_per_sec) / base.members_per_sec;
                if drop > thr.max_throughput_drop {
                    report.violations.push(format!(
                        "fleet throughput regressed {:.1}% ({:.1} -> {:.1} members/sec; budget {:.0}%)",
                        100.0 * drop,
                        base.members_per_sec,
                        current.members_per_sec,
                        100.0 * thr.max_throughput_drop
                    ));
                }
            }
        }
        Some(m) => report.not_compared.push(format!(
            "throughput not compared: baseline from {} cpus of {}",
            m.nproc, m.cpu_model
        )),
        None => report
            .not_compared
            .push("throughput not compared: baseline from an unrecorded machine".to_owned()),
    }
    let saving_drop = base.saving_mean - current.saving_mean;
    if saving_drop > thr.max_saving_drop {
        report.violations.push(format!(
            "mean saving regressed {:.2}pp ({:.4} -> {:.4}; budget {:.0}pp)",
            100.0 * saving_drop,
            base.saving_mean,
            current.saving_mean,
            100.0 * thr.max_saving_drop
        ));
    }
    report
}

/// The outcome of one overhead A/B against its budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The whole 95% interval lies below the budget.
    Pass,
    /// The whole 95% interval lies at or above the budget.
    Fail,
    /// The interval straddles the budget, or there are too few pairs
    /// for an interval.
    Unresolved,
    /// The A/B could not run. Never a pass.
    Skipped,
}

impl Verdict {
    /// The lowercase name printed and written to `BENCH_fleet.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Fail => "fail",
            Verdict::Unresolved => "unresolved",
            Verdict::Skipped => "skipped",
        }
    }
}

/// Paired overhead ratios summarized and judged by [`judge_overhead`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairedOverhead {
    /// Median ratio (NaN for no ratios).
    pub median: f64,
    /// The 95% distribution-free interval on the median; `None` under
    /// six pairs.
    pub interval: Option<(f64, f64)>,
    /// [`Verdict::Pass`], [`Verdict::Fail`] or [`Verdict::Unresolved`].
    pub verdict: Verdict,
}

/// The 1-based ranks `(k, n + 1 - k)` of the sorted sample that bound
/// the narrowest distribution-free interval covering the median with at
/// least 95% probability, or `None` when `n < 6` (there even the sample
/// minimum and maximum cover less). The coverage of
/// `[x(k), x(n+1-k)]` is `1 - 2·P(Bin(n, ½) < k)`.
pub fn median_interval_ranks(n: usize) -> Option<(usize, usize)> {
    let mut pmf = 0.5f64.powi(n as i32); // P(Bin = k - 1), from k = 1
    let mut below = 0.0; // P(Bin < k)
    let mut ranks = None;
    for k in 1..=n / 2 {
        below += pmf;
        if 1.0 - 2.0 * below < 0.95 {
            break;
        }
        ranks = Some((k, n + 1 - k));
        pmf *= (n + 1 - k) as f64 / k as f64;
    }
    ranks
}

/// Summarizes per-pair overhead ratios (`b / a - 1`) by their median
/// and its 95% order-statistic interval, and judges the interval
/// against `budget`: pass when it lies wholly below, fail when wholly
/// at or above, unresolved otherwise.
pub fn judge_overhead(ratios: &[f64], budget: f64) -> PairedOverhead {
    let mut sorted = ratios.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    };
    let interval = median_interval_ranks(n).map(|(lo, hi)| (sorted[lo - 1], sorted[hi - 1]));
    let verdict = match interval {
        Some((_, hi)) if hi < budget => Verdict::Pass,
        Some((lo, _)) if lo >= budget => Verdict::Fail,
        _ => Verdict::Unresolved,
    };
    PairedOverhead {
        median,
        interval,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
        "schema": "future-field-is-ignored",
        "fleet": {
            "members": 64,
            "elapsed_secs": 0.5,
            "members_per_sec": 400.0,
            "saving_mean": 0.62,
            "saving_min": 0.31,
            "affected_max": 0.002,
            "machine": {"nproc": 2, "cpu_model": "Test CPU @ 2.0GHz"}
        }
    }"#;

    fn box_a() -> Machine {
        Machine {
            nproc: 2,
            cpu_model: "Test CPU @ 2.0GHz".to_owned(),
        }
    }

    fn numbers(members_per_sec: f64, saving_mean: f64) -> FleetNumbers {
        FleetNumbers {
            members_per_sec,
            saving_mean,
            machine: box_a(),
        }
    }

    #[test]
    fn baseline_parses_leniently() {
        let doc = parse_baseline(BASELINE).unwrap();
        assert_eq!(doc.fleet.members_per_sec, 400.0);
        assert_eq!(doc.fleet.saving_mean, 0.62);
        assert_eq!(doc.fleet.machine, Some(box_a()));
        assert!(parse_baseline("{\"fleet\": {}}").is_err());
        assert!(parse_baseline("not json").is_err());
        // Baselines written before the machine was recorded still parse.
        let old = parse_baseline(r#"{"fleet": {"members_per_sec": 1.0, "saving_mean": 0.5}}"#);
        assert_eq!(old.unwrap().fleet.machine, None);
    }

    #[test]
    fn self_comparison_passes() {
        let doc = parse_baseline(BASELINE).unwrap();
        let current = numbers(400.0, 0.62);
        assert_eq!(
            check(&current, &doc, &GateThresholds::full()),
            GateReport::default()
        );
        assert_eq!(
            check(&current, &doc, &GateThresholds::smoke()),
            GateReport::default()
        );
    }

    #[test]
    fn improvements_never_fail() {
        let doc = parse_baseline(BASELINE).unwrap();
        let current = numbers(900.0, 0.70);
        assert!(check(&current, &doc, &GateThresholds::full())
            .violations
            .is_empty());
    }

    #[test]
    fn throughput_regression_fails_the_gate() {
        let doc = parse_baseline(BASELINE).unwrap();
        // 20% slower: past the 10% full budget, within the smoke one.
        let current = numbers(320.0, 0.62);
        let violations = check(&current, &doc, &GateThresholds::full()).violations;
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("throughput"), "{violations:?}");
        assert!(check(&current, &doc, &GateThresholds::smoke())
            .violations
            .is_empty());
    }

    #[test]
    fn saving_regression_fails_both_modes() {
        let doc = parse_baseline(BASELINE).unwrap();
        // 3pp saving drop: past the 2pp budget in full and smoke alike.
        let current = numbers(400.0, 0.59);
        for thr in [GateThresholds::full(), GateThresholds::smoke()] {
            let violations = check(&current, &doc, &thr).violations;
            assert_eq!(violations.len(), 1, "{violations:?}");
            assert!(violations[0].contains("saving"), "{violations:?}");
        }
    }

    #[test]
    fn both_regressions_report_both() {
        let doc = parse_baseline(BASELINE).unwrap();
        let current = numbers(100.0, 0.50);
        assert_eq!(
            check(&current, &doc, &GateThresholds::full())
                .violations
                .len(),
            2
        );
    }

    #[test]
    fn machine_mismatch_skips_only_the_throughput_check() {
        let doc = parse_baseline(BASELINE).unwrap();
        // Four times slower and 3pp less saving, on another machine.
        let mut current = numbers(100.0, 0.59);
        current.machine.nproc = 4;
        let report = check(&current, &doc, &GateThresholds::full());
        assert_eq!(report.violations.len(), 1, "{report:?}");
        assert!(report.violations[0].contains("saving"), "{report:?}");
        assert_eq!(
            report.not_compared,
            vec!["throughput not compared: baseline from 2 cpus of Test CPU @ 2.0GHz".to_owned()]
        );
        // Same core count, another CPU model: still another machine.
        let mut current = numbers(100.0, 0.62);
        current.machine.cpu_model = "Other CPU".to_owned();
        let report = check(&current, &doc, &GateThresholds::full());
        assert!(report.violations.is_empty(), "{report:?}");
        assert_eq!(report.not_compared.len(), 1, "{report:?}");
    }

    #[test]
    fn baseline_without_machine_is_not_comparable() {
        let doc = parse_baseline(
            r#"{"fleet": {"members_per_sec": 1000000000000.0, "saving_mean": 0.62}}"#,
        )
        .unwrap();
        let report = check(&numbers(800.0, 0.62), &doc, &GateThresholds::full());
        assert!(report.violations.is_empty(), "{report:?}");
        assert_eq!(report.not_compared.len(), 1, "{report:?}");
        assert!(report.not_compared[0].contains("unrecorded machine"));
        // The saving check still gates.
        let report = check(&numbers(800.0, 0.55), &doc, &GateThresholds::full());
        assert_eq!(report.violations.len(), 1, "{report:?}");
    }

    #[test]
    fn solver_floor_catches_a_sinking_solver() {
        let speedups = vec![
            SolverSpeedup {
                label: "sin_knap slack n=100".into(),
                speedup: 120.0,
            },
            SolverSpeedup {
                label: "sin_knap bound n=100".into(),
                speedup: 0.91,
            },
            SolverSpeedup {
                label: "overlapped 3x60".into(),
                speedup: 1.0,
            },
        ];
        let violations = check_solver_floors(&speedups, &GateThresholds::full());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("sin_knap bound n=100"),
            "{violations:?}"
        );
        // Smoke floors are lenient: 0.91x passes there.
        assert!(check_solver_floors(&speedups, &GateThresholds::smoke()).is_empty());
    }

    #[test]
    fn small_drops_within_budget_pass() {
        let doc = parse_baseline(BASELINE).unwrap();
        let current = numbers(370.0 /* -7.5% */, 0.605 /* -1.5pp */);
        assert!(check(&current, &doc, &GateThresholds::full())
            .violations
            .is_empty());
    }

    #[test]
    fn ten_pairs_use_ranks_two_and_nine() {
        assert_eq!(median_interval_ranks(10), Some((2, 9)));
        // Shuffled ratios: sorted, the 2nd is -0.01 and the 9th 0.05.
        let ratios = [0.03, -0.02, 0.05, 0.00, 0.01, 0.09, 0.02, -0.01, 0.04, 0.01];
        let judged = judge_overhead(&ratios, 0.10);
        assert_eq!(judged.interval, Some((-0.01, 0.05)));
        assert!((judged.median - 0.015).abs() < 1e-12);
        // Other counts: n = 6 is the first with an interval, and a
        // larger sample trims more order statistics from each end.
        assert_eq!(median_interval_ranks(6), Some((1, 6)));
        assert_eq!(median_interval_ranks(9), Some((2, 8)));
        assert_eq!(median_interval_ranks(20), Some((6, 15)));
    }

    #[test]
    fn verdicts_follow_the_interval() {
        let base = [0.00, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09];
        // Interval [0.01, 0.08].
        assert_eq!(judge_overhead(&base, 0.15).verdict, Verdict::Pass);
        assert_eq!(judge_overhead(&base, 0.08).verdict, Verdict::Unresolved);
        assert_eq!(judge_overhead(&base, 0.02).verdict, Verdict::Unresolved);
        assert_eq!(judge_overhead(&base, 0.01).verdict, Verdict::Fail);
        assert_eq!(judge_overhead(&base, 0.005).verdict, Verdict::Fail);
        // One wild pair per end cannot move the verdict.
        let mut wild = base;
        wild[0] = -5.0;
        wild[9] = 5.0;
        assert_eq!(judge_overhead(&wild, 0.15).verdict, Verdict::Pass);
        assert_eq!(judge_overhead(&wild, 0.01).verdict, Verdict::Fail);
    }

    #[test]
    fn under_six_pairs_is_always_unresolved() {
        for n in 0..6 {
            assert_eq!(median_interval_ranks(n), None, "n = {n}");
            let far_below = vec![-0.5; n];
            let far_above = vec![0.5; n];
            for ratios in [&far_below, &far_above] {
                let judged = judge_overhead(ratios, 0.02);
                assert_eq!(judged.verdict, Verdict::Unresolved, "n = {n}");
                assert_eq!(judged.interval, None);
            }
        }
        assert_eq!(judge_overhead(&[-0.5; 6], 0.02).verdict, Verdict::Pass);
        assert_eq!(judge_overhead(&[0.5; 6], 0.02).verdict, Verdict::Fail);
    }
}
