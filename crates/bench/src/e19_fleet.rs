//! E19 — Sharded serving fleet: load-aware routing, histogram-driven
//! autoscaling, cross-shard failover.
//!
//! The fleet engine (`crates/fleet`, DESIGN.md §15) fronts N independent
//! serving shards with a consistent-hash balancer (tenant affinity, a
//! power-of-two-choices fallback under pressure), a deterministic
//! histogram-driven autoscaler (drain-then-kill elasticity), and
//! cross-shard failover for whole-shard kills. E19 drives it at fleet
//! scale — over a million heavy-tailed (bounded-Pareto) arrivals across
//! 512 tenants — and holds it to the single-engine bar: the accounting
//! invariant `served + shed + rejected + balancer_shed == offered` on
//! every row, byte-identical output on every replay and across
//! `FleetEngine::with_event_kernel`.
//!
//! (a) sweeps the shard count at a fixed arrival process (4 shards ≈
//! 170% of capacity, 8 ≈ 85%, 16 ≈ 42%) and reports throughput, tail
//! latency, the shed/reject split, and the routing skew — the
//! consistent-hash ring with 128 vnodes per shard plus the po2c
//! fallback must keep `max/mean` routed per shard under 1.5x.
//! (b) replays an 8-shard point under a shard-kill chaos campaign:
//! every kill evacuates the victim's queued and in-flight work and
//! re-offers it to survivors (counted, never lost), and the victim
//! rejoins the ring after its outage.
//! (c) runs a two-phase burst-then-quiet stream against the autoscaler
//! and requires at least one scale-up under burn and one completed
//! drain-then-kill scale-down in the quiet tail.
//! (d) replays a chaos+scaler point with the event kernel on and off,
//! asserting byte-identical renders.

use crate::cells;
use crate::table::Table;
use crate::ExperimentOutput;
use hermes_chaos::plan::{FaultPlan, FaultPlanConfig};
use hermes_fleet::engine::{FleetConfig, FleetEngine, FleetReport};
use hermes_fleet::scaler::ScalerConfig;
use hermes_fleet::workload::{self, FleetWorkloadConfig};
use hermes_serve::engine::ServeConfig;
use hermes_serve::model::AcceleratorModel;

/// Workload seed for the sweep (arrivals, tenants, payloads).
const SEED: u64 = 19;
/// Chaos seed for the shard-kill campaign.
const CHAOS_SEED: u64 = 47;
/// E19a sweep: `(shards, requests)` per point. The totals sum to
/// 1,048,576 requests — the fleet-scale floor this experiment gates.
const SWEEP: [(usize, usize); 3] = [(4, 262_144), (8, 393_216), (16, 393_216)];
/// Tenants in every stream, drawn uniformly (the ring hashes them).
const TENANTS: u16 = 512;
/// Requests in the chaos replay (E19b).
const CHAOS_REQUESTS: usize = 131_072;
/// Requests in the identity replay (E19d).
const IDENTITY_REQUESTS: usize = 32_768;

/// The synthetic fleet accelerator: cheap enough to price a million
/// requests, non-trivial enough that the output checksum depends on
/// every payload word. `svc(k) = 16 + 20k` ticks, so one shard's two
/// instances sustain ~0.091 requests/tick at full batches and the
/// default workload gap (~1.63 ticks mean) saturates ~6.8 shards.
fn fleet_model() -> AcceleratorModel {
    AcceleratorModel::new("fleet-synth", 16, 20, |xs| {
        xs.iter().map(|&x| x.wrapping_mul(3).wrapping_sub(7)).collect()
    })
}

fn fleet_serve_cfg() -> ServeConfig {
    ServeConfig {
        queue_depth: 64,
        tenant_quota: 24,
        // fleet-scale streams: record 2 permille of traces (identity is
        // unaffected — sampling decides recording, never trace ids)
        trace_sample_permille: 2,
        ..ServeConfig::default()
    }
}

fn fleet_cfg(shards: usize) -> FleetConfig {
    FleetConfig { shards, serve: fleet_serve_cfg(), ..FleetConfig::default() }
}

fn stream_cfg(requests: usize) -> FleetWorkloadConfig {
    FleetWorkloadConfig { requests, tenants: TENANTS, ..FleetWorkloadConfig::default() }
}

fn run_fleet(
    cfg: FleetConfig,
    arrivals: Vec<hermes_serve::request::Request>,
    plan: Option<FaultPlan>,
    scaler: Option<ScalerConfig>,
    event_kernel: Option<bool>,
    obs: &hermes_obs::Recorder,
) -> FleetReport {
    let mut engine = FleetEngine::new(cfg, fleet_model(), arrivals).with_recorder(obs.child());
    if let Some(plan) = plan {
        engine = engine.with_chaos(plan);
    }
    if let Some(scaler) = scaler {
        engine = engine.with_scaler(scaler);
    }
    if let Some(on) = event_kernel {
        engine = engine.with_event_kernel(on);
    }
    let report = engine.run();
    assert!(report.accounted(), "fleet accounting invariant violated: {report:?}");
    obs.absorb(engine.recorder());
    report
}

/// One chaos+scaler fleet run with the event-kernel knob explicit
/// (public so the determinism suite can replay it across the knob).
pub fn identity_run(event_kernel: bool) -> FleetReport {
    let arrivals = workload::generate(SEED + 4, &stream_cfg(IDENTITY_REQUESTS));
    let span = arrivals.last().expect("stream non-empty").arrival;
    let plan = FaultPlan::generate(
        CHAOS_SEED + 1,
        &FaultPlanConfig::shard_only(span, 3, (span / 16) as u32, 8),
    );
    let scaler = ScalerConfig { eval_interval: 2_000, min_shards: 2, ..ScalerConfig::default() };
    run_fleet(
        fleet_cfg(8),
        arrivals,
        Some(plan),
        Some(scaler),
        Some(event_kernel),
        &hermes_obs::Recorder::disabled(),
    )
}

/// Run E19, tracing fleet metrics under `fleet` and per-shard serve
/// metrics under `shard<i>/serve` into `obs`. Every shard evaluates its
/// batches inline, so `jobs` is unused.
pub fn run(_jobs: usize, obs: &hermes_obs::Recorder) -> ExperimentOutput {
    // E19a: shard-count sweep over 1,048,576 heavy-tailed arrivals.
    let mut sweep = Table::new(&[
        "shards",
        "offered",
        "served",
        "shed",
        "rejected",
        "balancer_shed",
        "served_per_mtick",
        "p50",
        "p99",
        "po2c",
        "skew_x100",
        "accounted",
    ]);
    let mut points = Vec::new();
    for &(shards, requests) in &SWEEP {
        let arrivals = workload::generate(SEED, &stream_cfg(requests));
        let r = run_fleet(fleet_cfg(shards), arrivals, None, None, None, obs);
        let throughput = (r.served * 1_000_000).checked_div(r.makespan).unwrap_or(0);
        sweep.row(cells![
            shards,
            r.offered,
            r.served,
            r.shed,
            r.rejected,
            r.balancer_shed,
            throughput,
            r.p50_latency,
            r.p99_latency,
            r.routed_po2c,
            r.skew_x100(),
            if r.accounted() { "yes" } else { "NO" },
        ]);
        assert_eq!(r.offered, requests as u64, "the whole stream reaches the balancer");
        assert_eq!(r.balancer_shed, 0, "a healthy ring routes everything");
        assert!(r.served > 0, "every point serves");
        assert!(
            r.skew_x100() <= 150,
            "consistent hashing + po2c must spread load: skew {} at {} shards ({:?})",
            r.skew_x100(),
            shards,
            r.routed
        );
        points.push(r);
    }
    let total_offered: u64 = points.iter().map(|r| r.offered).sum();
    assert!(total_offered >= 1_000_000, "fleet-scale floor: {total_offered} offered");
    let permille =
        |r: &FleetReport| r.served * 1_000 / r.offered.max(1);
    assert!(
        permille(&points[0]) < permille(&points[1]) && permille(&points[1]) <= permille(&points[2]),
        "served fraction must grow with shard count: {:?}",
        points.iter().map(permille).collect::<Vec<_>>()
    );
    assert!(
        points[0].shed + points[0].rejected > points[2].shed + points[2].rejected,
        "an overloaded 4-shard fleet sheds more than an underloaded 16-shard one"
    );
    assert!(
        points[2].p99_latency <= points[1].p99_latency,
        "tail latency must not grow with headroom: p99 {} at 16 vs {} at 8",
        points[2].p99_latency,
        points[1].p99_latency
    );

    // E19b: shard-kill chaos at 8 shards — failover re-routes, loses
    // nothing, and the victims rejoin the ring.
    let arrivals = workload::generate(SEED + 2, &stream_cfg(CHAOS_REQUESTS));
    let span = arrivals.last().expect("stream non-empty").arrival;
    let clean = run_fleet(fleet_cfg(8), arrivals.clone(), None, None, None, obs);
    let plan = FaultPlan::generate(
        CHAOS_SEED,
        &FaultPlanConfig::shard_only(span, 8, (span / 16) as u32, 8),
    );
    let chaos = run_fleet(fleet_cfg(8), arrivals, Some(plan), None, None, obs);
    assert_eq!(chaos.shard_kills, 8, "all scheduled kills applied");
    assert!(chaos.failover_rerouted > 0, "kills landed on live work: {chaos:?}");
    assert!(chaos.revives > 0, "outages end within the run: {chaos:?}");
    assert_eq!(chaos.balancer_shed, 0, "survivors absorbed every evacuation");
    let mut chaos_t = Table::new(&[
        "campaign",
        "offered",
        "served",
        "shed",
        "rejected",
        "rerouted",
        "requeued",
        "kills",
        "revives",
        "accounted",
    ]);
    for (name, r) in [("clean @8 shards", &clean), ("chaos @8 shards", &chaos)] {
        chaos_t.row(cells![
            name,
            r.offered,
            r.served,
            r.shed,
            r.rejected,
            r.failover_rerouted,
            r.requeued,
            r.shard_kills,
            r.revives,
            if r.accounted() { "yes" } else { "NO" },
        ]);
    }

    // E19c: a hard burst (≈13x two shards' capacity) then a long sparse
    // tail; the autoscaler must grow under burn and drain when quiet.
    let burst = FleetWorkloadConfig {
        requests: 24_576,
        tenants: TENANTS,
        gap_scale_x256: 16,
        gap_cap_x256: 4_096,
        ..FleetWorkloadConfig::default()
    };
    let mut arrivals = workload::generate(SEED + 3, &burst);
    let burst_end = arrivals.last().expect("burst non-empty").arrival;
    let tail = FleetWorkloadConfig {
        requests: 120,
        tenants: TENANTS,
        // constant 900-tick gaps: cap == scale collapses the Pareto draw
        gap_scale_x256: 900 * 256,
        gap_cap_x256: 900 * 256,
        first_id: burst.requests as u64,
        start: burst_end + 1_000,
        ..FleetWorkloadConfig::default()
    };
    arrivals.extend(workload::generate(SEED + 3, &tail));
    let scaler = ScalerConfig {
        eval_interval: 500,
        p99_slo: 2_500,
        min_window: 32,
        queue_high: 24,
        up_consecutive: 2,
        down_consecutive: 3,
        cooldown_evals: 1,
        min_shards: 2,
        max_shards: 6,
        ..ScalerConfig::default()
    };
    let elastic = run_fleet(fleet_cfg(2), arrivals, None, Some(scaler), None, obs);
    assert!(elastic.scale_ups >= 1, "burn must scale up: {elastic:?}");
    assert!(elastic.scale_downs >= 1, "the quiet tail must drain-then-kill: {elastic:?}");
    assert!(
        elastic.shard_reports.len() >= 3,
        "scale-up spawned shards: {}",
        elastic.shard_reports.len()
    );
    let grown_served: u64 = elastic.shard_reports[2..].iter().map(|r| r.served).sum();
    assert!(grown_served > 0, "grown shards actually took load: {elastic:?}");
    let mut scale_t = Table::new(&[
        "phase_stream",
        "offered",
        "served",
        "shed",
        "rejected",
        "shards_spawned",
        "scale_ups",
        "scale_downs",
        "grown_served",
        "accounted",
    ]);
    scale_t.row(cells![
        "burst+tail",
        elastic.offered,
        elastic.served,
        elastic.shed,
        elastic.rejected,
        elastic.shard_reports.len(),
        elastic.scale_ups,
        elastic.scale_downs,
        grown_served,
        if elastic.accounted() { "yes" } else { "NO" },
    ]);

    // E19d: the event kernel is a throughput knob, never a results knob —
    // chaos + scaler replayed across it.
    let r_on = identity_run(true);
    let r_off = identity_run(false);
    assert_eq!(r_on, r_off, "reports must be identical across the kernel knob");
    assert_eq!(r_on.render(), r_off.render(), "renders must be byte-identical across the knob");
    let mut ident_t = Table::new(&["variant", "served", "p99", "checksum", "identical"]);
    for (variant, r) in [("kernel=on", &r_on), ("kernel=off", &r_off)] {
        ident_t.row(cells![
            variant,
            r.served,
            r.p99_latency,
            format!("{:#018x}", r.output_checksum),
            "yes",
        ]);
    }

    let text = format!(
        "E19a: shard-count sweep, {} heavy-tailed requests total over {} tenants \
         (synthetic model: per-item {} + overhead {} ticks; skew gate <= 150)\n{}\n\
         E19b: shard-kill chaos at 8 shards ({} requests; kills evacuate and re-route, \
         nothing lost)\n{}\n\
         E19c: burst-then-quiet autoscale (eval every {} ticks, drain-then-kill)\n{}\n\
         E19d: event kernel on vs off, byte-identical reports\n{}",
        total_offered,
        TENANTS,
        fleet_model().per_item,
        fleet_model().batch_overhead,
        sweep.render(),
        CHAOS_REQUESTS,
        chaos_t.render(),
        500,
        scale_t.render(),
        ident_t.render(),
    );
    ExperimentOutput::new(text)
        .with("e19a", "fleet shard-count sweep", sweep)
        .with("e19b", "fleet shard-kill failover", chaos_t)
        .with("e19c", "fleet autoscale burst/quiet", scale_t)
        .with("e19d", "fleet kernel invariance", ident_t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_points_account_and_spread() {
        let obs = hermes_obs::Recorder::disabled();
        let arrivals = workload::generate(SEED, &stream_cfg(8_192));
        let r = run_fleet(fleet_cfg(4), arrivals, None, None, None, &obs);
        assert!(r.accounted());
        assert!(r.served > 0);
        assert!(r.routed.iter().all(|&n| n > 0), "every shard took load: {:?}", r.routed);
    }

    #[test]
    fn chaos_point_stays_accounted_and_reroutes() {
        let obs = hermes_obs::Recorder::disabled();
        let arrivals = workload::generate(SEED + 2, &stream_cfg(8_192));
        let span = arrivals.last().unwrap().arrival;
        let plan = FaultPlan::generate(
            CHAOS_SEED,
            &FaultPlanConfig::shard_only(span, 4, (span / 8) as u32, 8),
        );
        let r = run_fleet(fleet_cfg(8), arrivals, Some(plan), None, None, &obs);
        assert!(r.accounted());
        assert_eq!(r.shard_kills, 4);
        assert!(r.failover_rerouted > 0);
    }
}
