//! E14 — Deadline-aware accelerator serving under an offered-load sweep.
//!
//! The serving runtime (`crates/serve`) fronts a pool of simulated MLP
//! inference accelerators with admission control, dynamic batching, EDF
//! scheduling within priority classes, and load shedding. E14 drives it
//! with an open-loop seeded arrival process at offered loads from
//! underload to 2x the pool's saturation rate and reports throughput,
//! tail latency, and the shed/reject split at each point (E14a).
//!
//! The accelerator's per-item cost is *measured*, not assumed: one
//! cycle-accurate co-simulation of the synthesized MLP kernel (apps use
//! case #3) prices the datapath, and one AXI round trip prices per-item
//! DMA. E14b repeats a past-saturation point under a chaos campaign that
//! kills and stalls pool instances mid-batch; the accounting invariant
//! `served + shed + rejected == offered` is asserted there too — a kill
//! re-queues in-flight work, it never loses it. E14c re-runs a sweep
//! point with 1 and 4 payload workers and asserts the rendered report and
//! output checksum are byte-identical: worker count is a throughput knob,
//! never a results knob.

use crate::cells;
use crate::table::Table;
use crate::ExperimentOutput;
use hermes_apps::ai;
use hermes_chaos::plan::{FaultPlan, FaultPlanConfig};
use hermes_hls::ir::ArrayId;
use hermes_hls::simulate::ExternalMemory;
use hermes_hls::HlsFlow;
use hermes_serve::engine::{ServeConfig, ServeEngine, ServeReport};
use hermes_serve::model::AcceleratorModel;
use hermes_serve::workload::{self, ClassProfile, WorkloadConfig};

/// MLP topology served by the pool (matches the apps use case).
const INPUTS: usize = 6;
const HIDDEN: usize = 8;
const OUTPUTS: usize = 3;
/// Offered loads swept, in percent of the pool's saturation rate
/// (shared with E17, which replays the same sweep under tracing + SLOs).
pub(crate) const LOADS: [u64; 5] = [50, 80, 100, 150, 200];
/// Requests offered per sweep point.
const REQUESTS: usize = 400;
/// Workload seed (arrivals, tenants, payloads).
pub(crate) const SEED: u64 = 14;

/// Build the measured MLP accelerator model: per-item cycles from one
/// cycle-accurate co-simulation, DMA cycles from one AXI round trip.
pub(crate) fn mlp_model() -> AcceleratorModel {
    let design = HlsFlow::new()
        .unroll_limit(0)
        .compile(ai::MLP_SOURCE)
        .expect("MLP kernel compiles");
    let (w1, b1, w2, b2) = ai::synth_weights(INPUTS, HIDDEN, OUTPUTS, 17);
    let x = vec![1 << (ai::Q - 1); INPUTS];
    let mut ext = ExternalMemory::buffers(vec![
        (ArrayId(0), x),
        (ArrayId(1), w1.clone()),
        (ArrayId(2), b1.clone()),
        (ArrayId(3), w2.clone()),
        (ArrayId(4), b2.clone()),
        (ArrayId(5), vec![0; OUTPUTS]),
    ]);
    let measured = design
        .simulate_with_memory(&[INPUTS as i64, HIDDEN as i64, OUTPUTS as i64], &mut ext)
        .expect("MLP co-simulation");
    AcceleratorModel::new("mlp-6-8-3", 32, measured.cycles, move |input| {
        ai::mlp_ref(input, &w1, &b1, &w2, &b2, INPUTS, HIDDEN, OUTPUTS)
    })
    // Q8.8 words move as 4-byte beats: inputs in, scores out
    .with_measured_dma((INPUTS + OUTPUTS) * 4)
}

pub(crate) fn serve_cfg() -> ServeConfig {
    ServeConfig {
        queue_depth: 64,
        tenant_quota: 24,
        classes: 2,
        batch_max: 8,
        instances: 2,
        ..ServeConfig::default()
    }
}

/// Workload shaped to the measured model: the mean inter-arrival gap at
/// 100% equals the pool's per-item service time at full batches, and
/// deadline budgets scale with the single-item service time.
pub(crate) fn workload_cfg(model: &AcceleratorModel, cfg: &ServeConfig) -> WorkloadConfig {
    let svc1 = model.service_cycles(1);
    let full = model.service_cycles(cfg.batch_max);
    // saturation: instances * batch_max items per `full` ticks
    let sat_gap = (full / (cfg.instances as u64 * cfg.batch_max as u64)).max(1);
    WorkloadConfig {
        requests: REQUESTS,
        mean_interarrival: sat_gap,
        tenants: 4,
        classes: vec![
            ClassProfile {
                weight: 1,
                deadline_budget: svc1 * 4,
                deadline_jitter: svc1 / 2,
            },
            ClassProfile {
                weight: 3,
                deadline_budget: svc1 * 24,
                deadline_jitter: svc1 * 4,
            },
        ],
        payload_words: INPUTS,
    }
}

fn run_point(
    model: &AcceleratorModel,
    base: &WorkloadConfig,
    load_pct: u64,
    jobs: usize,
    plan: Option<FaultPlan>,
    obs: &hermes_obs::Recorder,
) -> ServeReport {
    let wl = base.clone().at_load_pct(load_pct);
    let arrivals = workload::generate(SEED, &wl);
    let cfg = ServeConfig {
        jobs,
        ..serve_cfg()
    };
    let mut engine = ServeEngine::new(cfg, model.clone(), arrivals).with_recorder(obs.child());
    if let Some(plan) = plan {
        engine = engine.with_chaos(plan);
    }
    let report = engine.run();
    assert!(
        report.accounted(),
        "accounting invariant violated at load {load_pct}%: {report:?}"
    );
    obs.absorb(engine.recorder());
    report
}

/// Run E14 with a flight recorder (serve metrics under `serve`). The
/// sweep points run the serve pool on its default worker count and E14c
/// pins 1 and 4, so `jobs` is unused.
pub fn run(_jobs: usize, obs: &hermes_obs::Recorder) -> ExperimentOutput {
    let model = mlp_model();
    let base = workload_cfg(&model, &serve_cfg());

    // E14a: offered-load sweep, underload -> 2x saturation.
    let mut sweep = Table::new(&[
        "load_pct",
        "offered",
        "served",
        "shed",
        "rejected",
        "served_per_mtick",
        "c0_p50",
        "c0_p99",
        "c1_p99",
        "mean_batch_x100",
        "checksum",
    ]);
    let mut reports = Vec::new();
    for &load in &LOADS {
        let r = run_point(&model, &base, load, 0, None, obs);
        let throughput = (r.served * 1_000_000).checked_div(r.makespan).unwrap_or(0);
        let mean_batch_x100 = (r.batch_items * 100).checked_div(r.batches).unwrap_or(0);
        sweep.row(cells![
            load,
            r.offered,
            r.served,
            r.shed(),
            r.rejected(),
            throughput,
            r.per_class[0].p50,
            r.per_class[0].p99,
            r.per_class[1].p99,
            mean_batch_x100,
            format!("{:#018x}", r.output_checksum),
        ]);
        reports.push((load, r));
    }
    let under = &reports[0].1;
    let over = &reports.last().expect("sweep ran").1;
    assert!(
        under.shed() + under.rejected() <= over.shed() + over.rejected(),
        "shedding must not shrink as offered load doubles"
    );
    assert!(
        over.shed() + over.rejected() > 0,
        "2x saturation must shed or reject"
    );
    for (_, r) in &reports {
        assert!(r.served > 0, "every sweep point serves some requests");
    }

    // E14b: past saturation with a chaos campaign on the pool.
    let chaos_load = 150;
    let wl = base.clone().at_load_pct(chaos_load);
    let span = workload::generate(SEED, &wl)
        .last()
        .expect("workload non-empty")
        .arrival;
    let plan = FaultPlan::generate(99, &FaultPlanConfig::pool_only(span, 5, 3, span as u32 / 8, 2));
    let chaos = run_point(&model, &base, chaos_load, 0, Some(plan), obs);
    let clean = &reports.iter().find(|(l, _)| *l == chaos_load).expect("150% ran").1;
    assert_eq!(chaos.kills, 5, "all scheduled kills applied");
    assert_eq!(chaos.stalls, 3, "all scheduled stalls applied");
    assert!(
        chaos.requeued > 0,
        "a kill must land mid-batch and re-queue work: {chaos:?}"
    );
    assert!(chaos.availability_permille() < 1000);
    let mut chaos_t = Table::new(&[
        "campaign",
        "served",
        "shed",
        "rejected",
        "requeued",
        "kills",
        "stalls",
        "avail_permille",
        "accounted",
    ]);
    for (name, r) in [("clean @150%", clean), ("chaos @150%", &chaos)] {
        chaos_t.row(cells![
            name,
            r.served,
            r.shed(),
            r.rejected(),
            r.requeued,
            r.kills,
            r.stalls,
            r.availability_permille(),
            if r.accounted() { "yes" } else { "NO" },
        ]);
    }

    // E14c: worker count is a throughput knob, never a results knob.
    let r1 = run_point(&model, &base, 150, 1, None, obs);
    let r4 = run_point(&model, &base, 150, 4, None, obs);
    assert_eq!(r1, r4, "reports must be identical across jobs");
    assert_eq!(r1.render(), r4.render(), "renders must be byte-identical");
    let mut jobs_t = Table::new(&["jobs", "served", "p99_c1", "checksum", "identical"]);
    for (jobs, r) in [(1u64, &r1), (4, &r4)] {
        jobs_t.row(cells![
            jobs,
            r.served,
            r.per_class[1].p99,
            format!("{:#018x}", r.output_checksum),
            "yes",
        ]);
    }

    let text = format!(
        "E14a: offered-load sweep, {} requests per point, measured MLP model \
         (per-item {} + DMA {} ticks, batch overhead {})\n{}\n\
         E14b: chaos campaign on the pool at 150% load (kills re-queue in-flight work)\n{}\n\
         E14c: payload workers 1 vs 4, byte-identical reports\n{}",
        REQUESTS,
        model.per_item,
        model.dma_per_item,
        model.batch_overhead,
        sweep.render(),
        chaos_t.render(),
        jobs_t.render(),
    );
    ExperimentOutput::new(text)
        .with("e14a", "serving offered-load sweep", sweep)
        .with("e14b", "serving chaos campaign", chaos_t)
        .with("e14c", "serving jobs invariance", jobs_t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_points_account_and_shed_monotonically_at_extremes() {
        let model = mlp_model();
        let base = workload_cfg(&model, &serve_cfg());
        let obs = hermes_obs::Recorder::disabled();
        let under = run_point(&model, &base, 50, 0, None, &obs);
        let over = run_point(&model, &base, 200, 0, None, &obs);
        assert!(under.accounted() && over.accounted());
        assert!(over.shed() + over.rejected() > under.shed() + under.rejected());
    }

    #[test]
    fn chaos_point_stays_accounted() {
        let model = mlp_model();
        let base = workload_cfg(&model, &serve_cfg());
        let obs = hermes_obs::Recorder::disabled();
        let wl = base.clone().at_load_pct(150);
        let span = workload::generate(SEED, &wl).last().unwrap().arrival;
        let plan =
            FaultPlan::generate(99, &FaultPlanConfig::pool_only(span, 5, 3, span as u32 / 8, 2));
        let r = run_point(&model, &base, 150, 0, Some(plan), &obs);
        assert!(r.accounted());
        assert!(r.requeued > 0);
    }
}
