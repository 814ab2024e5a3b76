//! The fleet is a pure function of its input: making a fleet wake cheaper
//! must not move a single bit of what it reports. This test runs three
//! fleets that cover the fleet's code paths — a steady 8-shard fleet, a
//! 4-shard fleet under a shard-kill campaign, and an autoscaler burst
//! that grows and then drains — and pins one digest over their rendered
//! reports (every shard's own report included), and how many times each
//! fleet woke to produce it.

use hermes_chaos::plan::{FaultPlan, FaultPlanConfig};
use hermes_fleet::engine::{FleetConfig, FleetEngine, FleetReport};
use hermes_fleet::scaler::ScalerConfig;
use hermes_fleet::workload::{self, FleetWorkloadConfig};
use hermes_serve::engine::ServeConfig;
use hermes_obs::hash::fnv1a_words;
use hermes_serve::model::AcceleratorModel;

/// Digest of the three fleets' reports, recorded before `next_due` was
/// memoized and arrivals were moved instead of cloned.
const EXPECTED: u64 = 0xea62_5870_294d_4a40;

/// Wakes of the steady, shard-kill and autoscale fleets, recorded when
/// every wake still came off a timer wheel. The digest pins what a fleet
/// reports; this pins how often it woke to get there, so a wake rule
/// that also woke on ticks with nothing due fails here.
const WAKES: [u64; 3] = [6453, 5552, 2147];

/// `svc(k) = 16 + 20k` ticks: the default stream saturates about 6.8
/// shards, so 8 shards run near 85% and 4 near 170%.
fn model() -> AcceleratorModel {
    AcceleratorModel::new("fleet-synth", 16, 20, |xs| {
        xs.iter().map(|&x| x.wrapping_mul(3).wrapping_sub(7)).collect()
    })
}

fn fleet_cfg(shards: usize) -> FleetConfig {
    let serve = ServeConfig {
        queue_depth: 64,
        tenant_quota: 24,
        trace_sample_permille: 2,
        ..ServeConfig::default()
    };
    FleetConfig { shards, serve, ..FleetConfig::default() }
}

fn stream(seed: u64, requests: usize) -> Vec<hermes_serve::request::Request> {
    let cfg = FleetWorkloadConfig { requests, tenants: 512, ..FleetWorkloadConfig::default() };
    workload::generate(seed, &cfg)
}

/// Run `fleet`: its report and the number of ticks it woke on.
fn run(mut fleet: FleetEngine) -> (FleetReport, u64) {
    let report = fleet.run();
    (report, fleet.wakes())
}

fn steady() -> (FleetReport, u64) {
    run(FleetEngine::new(fleet_cfg(8), model(), stream(21, 8192)))
}

fn shard_kills() -> (FleetReport, u64) {
    let arrivals = stream(22, 8192);
    let span = arrivals.last().expect("stream non-empty").arrival;
    let plan = FaultPlan::generate(47, &FaultPlanConfig::shard_only(span, 4, (span / 16) as u32, 4));
    let (report, wakes) = run(FleetEngine::new(fleet_cfg(4), model(), arrivals).with_chaos(plan));
    assert!(report.shard_kills > 0 && report.failover_rerouted > 0, "{report:?}");
    (report, wakes)
}

fn autoscale_burst() -> (FleetReport, u64) {
    let burst = FleetWorkloadConfig {
        requests: 6144,
        tenants: 512,
        gap_scale_x256: 16,
        gap_cap_x256: 4096,
        ..FleetWorkloadConfig::default()
    };
    let mut arrivals = workload::generate(23, &burst);
    let burst_end = arrivals.last().expect("burst non-empty").arrival;
    let tail = FleetWorkloadConfig {
        requests: 120,
        tenants: 512,
        gap_scale_x256: 900 * 256,
        gap_cap_x256: 900 * 256,
        first_id: burst.requests as u64,
        start: burst_end + 1000,
        ..FleetWorkloadConfig::default()
    };
    arrivals.extend(workload::generate(23, &tail));
    let scaler = ScalerConfig {
        eval_interval: 500,
        p99_slo: 2500,
        min_window: 32,
        queue_high: 24,
        up_consecutive: 2,
        down_consecutive: 3,
        cooldown_evals: 1,
        min_shards: 2,
        max_shards: 6,
        ..ScalerConfig::default()
    };
    let (report, wakes) = run(FleetEngine::new(fleet_cfg(2), model(), arrivals).with_scaler(scaler));
    assert!(report.scale_ups >= 1 && report.scale_downs >= 1, "{report:?}");
    (report, wakes)
}

#[test]
fn fleet_reports_are_bit_identical() {
    let mut h = 0u64;
    for (report, _) in [steady(), shard_kills(), autoscale_burst()] {
        let words: Vec<i64> = report.render().bytes().map(i64::from).collect();
        h = fnv1a_words(h, &words);
    }
    assert_eq!(h, EXPECTED, "fleet digest moved: {h:#018x}");
}

#[test]
fn fleet_wake_counts_are_pinned() {
    let wakes = [steady().1, shard_kills().1, autoscale_burst().1];
    assert_eq!(wakes, WAKES, "steady, shard-kill and autoscale fleet wakes");
}
