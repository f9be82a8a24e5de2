//! Shared experiment setup: standard seeds, panels, training splits,
//! and policy constructors used by every figure runner and bench.

use netmaster_core::policies::{DefaultPolicy, DelayPolicy, NetMasterPolicy, OraclePolicy};
use netmaster_core::NetMasterConfig;
use netmaster_radio::{LinkModel, RrcModel};
use netmaster_sim::{simulate, Policy, RunMetrics, SimConfig};
use netmaster_trace::gen::{generate_panel, generate_volunteers};
use netmaster_trace::trace::Trace;

/// The workspace-wide default seed (the paper's publication year).
pub const SEED: u64 = 2014;
/// Days of trace used to train NetMaster's miner (two weeks, matching
/// the paper's 3-week collection with the last week held out).
pub const TRAIN_DAYS: usize = 14;
/// Held-out evaluation days.
pub const TEST_DAYS: usize = 7;

/// The 8-user §III panel over three weeks.
pub fn panel() -> Vec<Trace> {
    generate_panel(TRAIN_DAYS + TEST_DAYS, SEED)
}

/// The 3-volunteer §VI evaluation set over three weeks.
pub fn volunteers() -> Vec<Trace> {
    generate_volunteers(TRAIN_DAYS + TEST_DAYS, SEED)
}

/// The standard simulation environment (WCDMA, default carrier link).
pub fn sim_config() -> SimConfig {
    SimConfig::default()
}

/// A NetMaster policy trained on the first [`TRAIN_DAYS`] of `trace`.
pub fn trained_netmaster(trace: &Trace) -> NetMasterPolicy {
    trained_netmaster_with(trace, NetMasterConfig::default())
}

/// A NetMaster policy with a custom config, trained on the head of the
/// trace. Bench policies run metrics-only: the harness never drains
/// per-member journals or ledgers, so the flight recorder would only
/// pollute cache and distort the timings it exists to explain.
pub fn trained_netmaster_with(trace: &Trace, cfg: NetMasterConfig) -> NetMasterPolicy {
    NetMasterPolicy::new(cfg, LinkModel::default(), RrcModel::wcdma_default())
        .with_flight_recorder(false)
        .with_training(&trace.days[..TRAIN_DAYS.min(trace.days.len())])
}

/// Simulates a policy over the held-out test days of `trace`.
pub fn run_test_days(trace: &Trace, policy: &mut dyn Policy) -> RunMetrics {
    let test = &trace.days[TRAIN_DAYS.min(trace.days.len().saturating_sub(1))..];
    simulate(test, policy, &sim_config())
}

/// The standard Fig. 7 policy set for one volunteer:
/// (baseline, oracle, netmaster, delay-and-batch at 10/20/60 s).
pub fn fig7_runs(trace: &Trace) -> Vec<RunMetrics> {
    let mut out = Vec::new();
    out.push(run_test_days(trace, &mut DefaultPolicy));
    out.push(run_test_days(trace, &mut OraclePolicy));
    let mut nm = trained_netmaster(trace);
    out.push(run_test_days(trace, &mut nm));
    for d in [10, 20, 60] {
        out.push(run_test_days(trace, &mut DelayPolicy::new(d)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panels_have_expected_shapes() {
        assert_eq!(panel().len(), 8);
        assert_eq!(volunteers().len(), 3);
        assert_eq!(panel()[0].num_days(), TRAIN_DAYS + TEST_DAYS);
    }

    #[test]
    fn fig7_produces_six_arms() {
        let v = volunteers().remove(0);
        let runs = fig7_runs(&v);
        assert_eq!(runs.len(), 6);
        assert_eq!(runs[0].policy, "default");
        assert_eq!(runs[1].policy, "oracle");
        assert_eq!(runs[2].policy, "netmaster");
        assert_eq!(runs[5].policy, "delay-60s");
        // Ordering sanity: oracle cheapest, default most expensive.
        assert!(runs[1].energy_j <= runs[2].energy_j);
        assert!(runs[2].energy_j < runs[0].energy_j);
    }
}
