//! Serve demo: compile a C kernel, front it with the deadline-aware
//! serving runtime, and push it past saturation — with the full
//! observability stack watching: causal request traces, an exact
//! critical-path profile, and a burn-rate SLO.
//!
//! ```sh
//! cargo run --example serve_demo
//! ```
//!
//! The runtime admits an open-loop stream of requests (two priority
//! classes, four tenants), coalesces compatible requests into batches,
//! dispatches them over a pool of simulated accelerator instances, and
//! sheds what it cannot serve by deadline — every offered request ends in
//! exactly one accounted verdict. A chaos plan then kills one instance
//! mid-batch and the in-flight work is re-queued, not lost. Each admitted
//! request carries a minted `TraceCtx`, so afterwards the deterministic
//! profiler can decompose every served request's latency into segments
//! that sum to it *exactly*, and a deadline-hit SLO judges the run on
//! multi-window burn rates over the simulated clock.

use hermes::chaos::plan::{FaultPlan, FaultPlanConfig};
use hermes::hls::HlsFlow;
use hermes::obs::profile::profile;
use hermes::obs::slo::{SloEngine, SloObjective, SloSpec};
use hermes::obs::{Recorder, TraceCtx};
use hermes::serve::engine::{ServeConfig, ServeEngine};
use hermes::serve::model::AcceleratorModel;
use hermes::serve::workload::{self, WorkloadConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== HERMES serve demo: C kernel to serving runtime ==\n");

    // 1. the accelerator: a C kernel through the HLS flow; its service
    //    time is measured from one cycle-accurate co-simulation and its
    //    DMA cost from one AXI round trip
    let design = HlsFlow::new()
        .compile("int poly(int x) { return (3 * x + 1) * x + 7; }")?;
    let model = AcceleratorModel::from_design(
        design,
        &[11],
        16,
        &Recorder::disabled(),
        TraceCtx::untraced(),
    )?
    .with_measured_dma(8);
    println!(
        "model `{}`: per-item {} ticks, DMA {} ticks, batch overhead {}\n",
        model.name, model.per_item, model.dma_per_item, model.batch_overhead
    );

    // 2. an open-loop workload past the pool's capacity
    let wl = WorkloadConfig {
        requests: 300,
        mean_interarrival: model.service_cycles(1) / 5,
        payload_words: 1,
        ..WorkloadConfig::default()
    };
    let arrivals = workload::generate(7, &wl);
    let span = arrivals.last().expect("non-empty").arrival;

    // 3. serve it with the observability stack attached — a flight
    //    recorder tracing every admitted request (sample 1000‰; dial
    //    down via `trace_sample_permille` to bound the cost), a
    //    deadline-hit SLO judged on short and long burn-rate windows,
    //    and a chaos campaign killing pool instances mid-batch
    let rec = Recorder::new().with_capacity(1 << 14);
    let slo = SloEngine::new(vec![SloSpec::new(
        "deadline-hit",
        SloObjective::DeadlineHitRatio { min_permille: 950 },
        (span / 4).max(8),
    )]);
    let plan = FaultPlan::generate(3, &FaultPlanConfig::pool_only(span, 2, 1, span as u32 / 6, 2));
    let cfg = ServeConfig { trace_sample_permille: 1000, ..ServeConfig::default() };
    let mut engine = ServeEngine::new(cfg, model, arrivals)
        .with_recorder(rec)
        .with_slo(slo)
        .with_chaos(plan);
    let report = engine.run();
    println!("{}", report.render());

    // 4. the contract: every offered request has exactly one verdict
    assert!(report.accounted(), "accounting invariant");
    assert_eq!(engine.verdicts().len() as u64, report.offered);
    println!(
        "accounted: {} served + {} shed + {} rejected == {} offered",
        report.served,
        report.shed(),
        report.rejected(),
        report.offered
    );

    // 5. the profiler replays the recorder post-hoc: every served
    //    request's queue-wait / batch / service / DMA / stall segments
    //    must sum to its latency exactly, and self-time ranks the hot
    //    spans
    let prof = profile(&engine.recorder().snapshot());
    let (exact, total) = prof.exact_paths("request");
    assert_eq!(exact, total, "critical-path segments must sum to latency");
    println!("\ncritical paths: {exact}/{total} exact; hottest spans by self-time:");
    for s in prof.hot(3) {
        println!("  {}:{} x{} self {} ticks", s.subsystem, s.name, s.count, s.self_time);
    }

    // 6. the SLO verdict: deadline-hit judges *resolved admissions*, and
    //    queue-full rejections are excluded — bounded admission turns
    //    overload away at the front door, so what the engine does accept
    //    it serves on time and the alert stays green (E17a shows the
    //    paging side, where shedding turns systemic past 150% load)
    let slo = engine.slo().expect("slo attached");
    let (name, state) = slo.worst_states()[0];
    println!("\nSLO `{name}`: {} ({} verdicts)", state.as_str(), slo.verdicts().len());
    Ok(())
}
