//! E17 — Causal tracing, deterministic critical-path profiling, and SLO
//! burn-rate alerting over the serving runtime.
//!
//! E17a replays E14's offered-load sweep with per-request causal traces
//! and a deadline-hit SLO attached, and gates the two hard invariants of
//! the observability layer: every served request's critical-path segments
//! (queue wait, batch overhead, service, DMA, stall) sum *exactly* to its
//! end-to-end latency, and the multi-window burn-rate alert pages at and
//! only at the designed overload threshold (150% of saturation — the
//! first sweep point where shedding is systemic rather than incidental:
//! committed E14a shows 1 shed at 100% vs 84 at 150%). E17b measures the
//! wall-clock overhead of tracing at sampling rates 0/16/1000‰ against
//! an untraced run, asserting the rendered reports are byte-identical —
//! sampling bounds the recording cost but never touches results. E17d
//! threads one minted trace
//! context through the cross-layer surface — HLS co-simulation, AXI DMA
//! measurement, and XNG partition dispatch — and checks all three
//! subsystems link their events into the same trace id.
//!
//! The committed E17b row at 16‰ sampling is the overhead bound ci.sh
//! enforces: sampled tracing must add <5% over the untraced recorder
//! (the sample-0 row), which is how `ServeConfig::trace_sample_permille`
//! keeps always-on tracing affordable.

use crate::cells;
use crate::e14_serving::{self, LOADS, SEED};
use crate::table::Table;
use crate::ExperimentOutput;
use hermes_cpu::memmap::layout;
use hermes_obs::profile::profile;
use hermes_obs::slo::{AlertState, SloEngine, SloObjective, SloSpec};
use hermes_obs::Recorder;
use hermes_serve::engine::{ServeConfig, ServeEngine, ServeReport};
use hermes_serve::model::AcceleratorModel;
use hermes_serve::workload::{self, WorkloadConfig};
use hermes_xng::config::{MemRegion, PartitionConfig, Plan, Slot, XngConfig};
use hermes_xng::hypervisor::Hypervisor;
use hermes_xng::partition::native_task;

/// The designed overload threshold: the lowest sweep load (percent of
/// saturation) at which the deadline-hit SLO must page. Justified by the
/// committed E14a sweep — shedding at 100% is incidental (1 request),
/// at 150% it is systemic (84 requests, 21% of offered vs the 5% error
/// budget).
const PAGE_LOAD_PCT: u64 = 150;
/// Deadline-hit SLO: ≥95% of resolved admissions meet their deadline.
const HIT_MIN_PERMILLE: u64 = 950;

fn slo_for(span: u64) -> SloEngine {
    SloEngine::new(vec![SloSpec::new(
        "deadline-hit",
        SloObjective::DeadlineHitRatio { min_permille: HIT_MIN_PERMILLE },
        (span / 4).max(8),
    )])
}

/// One traced sweep point: E14's measured model and workload, with the
/// supplied recorder (callers pick traced vs disabled), sampling rate,
/// and the deadline-hit SLO attached. Returns the finished engine so
/// callers can profile its recorder and read its SLO state.
fn traced_point(
    model: &AcceleratorModel,
    base: &WorkloadConfig,
    load_pct: u64,
    sample_permille: u64,
    recorder: Recorder,
) -> (ServeReport, ServeEngine) {
    let wl = base.clone().at_load_pct(load_pct);
    let arrivals = workload::generate(SEED, &wl);
    let span = arrivals.last().expect("workload non-empty").arrival;
    let cfg = ServeConfig {
        trace_sample_permille: sample_permille,
        ..e14_serving::serve_cfg()
    };
    let mut engine = ServeEngine::new(cfg, model.clone(), arrivals)
        .with_recorder(recorder)
        .with_slo(slo_for(span));
    let report = engine.run();
    assert!(
        report.accounted(),
        "accounting invariant violated at load {load_pct}%: {report:?}"
    );
    (report, engine)
}

/// Thread one minted trace through HLS co-sim, AXI DMA measurement, and
/// XNG dispatch; return `(trace_id, per-subsystem traced event counts)`.
fn cross_layer_chain(rec: &Recorder) -> (u64, Vec<(String, u64)>) {
    let ctx = rec.mint_trace();

    // hls: the model-pricing co-simulation records under this trace
    let design = hermes_hls::HlsFlow::new()
        .compile("int triple(int x) { return x * 3; }")
        .expect("kernel compiles");
    let model = AcceleratorModel::from_design(design, &[5], 8, rec, ctx)
        .expect("traced measurement")
        // dma: the bus round trip exports its stats under the same trace
        .with_measured_dma_traced(64, rec, ctx);
    assert!(model.per_item >= 1 && model.dma_per_item > 0);

    // xng: partition dispatch links its context switches into the trace
    let mut cfg = XngConfig::new("e17");
    let p = cfg.add_partition(PartitionConfig::new("ctrl").with_memory(MemRegion {
        base: layout::SRAM_BASE,
        size: 0x1000,
        writable: true,
    }));
    cfg.set_plan(0, Plan::new(vec![Slot::new(p, 3_200)]));
    let mut hv = Hypervisor::new(cfg).expect("config");
    hv.set_obs(rec.clone());
    hv.attach_native(p, native_task("ctrl", |c| {
        c.consume(500);
        Ok(())
    }))
    .expect("attach");
    hv.set_trace_ctx(Some(ctx));
    hv.run(9_600).expect("run");

    let snap = rec.snapshot();
    let mut counts = Vec::new();
    for sub in &snap.subsystems {
        let traced = sub
            .events
            .iter()
            .filter(|ev| ev.trace.is_some_and(|l| l.trace_id == ctx.trace_id))
            .count() as u64;
        if traced > 0 {
            counts.push((sub.name.clone(), traced));
        }
    }
    (ctx.trace_id, counts)
}

/// Run E17 with a flight recorder. The gates need real traces even in an
/// untraced session, so each sweep point records into its own recorder;
/// the session recorder receives the absorbed copies. The serve engine
/// evaluates batches inline, so `jobs` is unused.
pub fn run(_jobs: usize, obs: &hermes_obs::Recorder) -> ExperimentOutput {
    let model = e14_serving::mlp_model();
    let base = e14_serving::workload_cfg(&model, &e14_serving::serve_cfg());

    // Every recorder whose events flow back into the session hangs off
    // this one root, so each gets its own trace-id domain — two absorbed
    // recorders must never reuse span ids, or profile parent chains
    // cross-wire. In an untraced session the root is a local stand-in
    // (the gates need real traces either way, so points can't just use
    // a disabled `obs.child()`).
    let root = if obs.enabled() {
        obs.child()
    } else {
        Recorder::new().with_capacity(1 << 16)
    };

    // E17a: traced sweep with critical-path and SLO gates.
    let mut sweep = Table::new(&[
        "load_pct",
        "served",
        "shed",
        "rejected",
        "cp_exact",
        "cp_total",
        "alert",
        "transitions",
    ]);
    for &load in &LOADS {
        let (report, engine) = traced_point(&model, &base, load, 1000, root.child());
        let prof = profile(&engine.recorder().snapshot());
        assert_eq!(prof.dropped_events, 0, "gates need an untruncated record");
        let (exact, total) = prof.exact_paths("request");
        assert_eq!(
            total, report.served,
            "every served request must leave a critical path at load {load}%"
        );
        assert_eq!(
            exact, total,
            "critical-path segments must sum to latency at load {load}%"
        );
        let slo = engine.slo().expect("SLO engine attached");
        let worst = slo.worst_states()[0].1;
        if load >= PAGE_LOAD_PCT {
            assert_eq!(worst, AlertState::Page, "SLO must page at load {load}%");
        } else {
            assert_ne!(worst, AlertState::Page, "SLO must not page at load {load}%");
        }
        sweep.row(cells![
            load,
            report.served,
            report.shed(),
            report.rejected(),
            exact,
            total,
            worst.as_str(),
            slo.verdicts().len(),
        ]);
        root.absorb(engine.recorder());
    }

    // E17b: tracing overhead vs an untraced run, per sampling rate.
    // Interleaved best-of-N (E12's protocol), with REPS engine runs per
    // timing sample — one 150% point is ~3 ms, too short to time on this
    // container's single shared core. The <5% gate on the sampled row
    // lives in ci.sh against the committed JSON, not here, so one noisy
    // run can't flake the build.
    const BEST_OF: usize = 21;
    const REPS: usize = 16;
    // configs timed: recorder disabled entirely, then enabled at three
    // sampling rates; `vs_untraced_pct` (enabled-sampled vs enabled-at-0)
    // is the ci.sh-gated quantity
    let configs: [(&str, Option<u64>); 4] =
        [("disabled", None), ("0", Some(0)), ("16", Some(16)), ("1000", Some(1000))];
    let time_config = |sample: Option<u64>| -> f64 {
        let t0 = std::time::Instant::now();
        for _ in 0..REPS {
            let rec = match sample {
                None => Recorder::disabled(),
                Some(_) => Recorder::new().with_capacity(1 << 16),
            };
            let _ = traced_point(&model, &base, 150, sample.unwrap_or(0), rec);
        }
        t0.elapsed().as_secs_f64() / REPS as f64
    };
    // untimed warm-up of every config, plus the results-identity gate
    let mut renders: Vec<String> = Vec::new();
    for (_, sample) in &configs {
        let rec = match sample {
            None => Recorder::disabled(),
            Some(_) => Recorder::new().with_capacity(1 << 16),
        };
        let (r, _) = traced_point(&model, &base, 150, sample.unwrap_or(0), rec);
        renders.push(r.render());
    }
    for r in &renders[1..] {
        assert_eq!(&renders[0], r, "tracing must never change results");
    }
    // interleaved rounds: every config is timed once per round, so the
    // container's load drift hits all of them alike; overheads are then
    // the MEDIAN of per-round paired ratios — a paired ratio cancels the
    // drift that a min-of-N statistic cannot
    let mut rounds: Vec<[f64; 4]> = Vec::new();
    for _ in 0..BEST_OF {
        let mut row = [0.0; 4];
        for (i, (_, sample)) in configs.iter().enumerate() {
            row[i] = time_config(*sample);
        }
        rounds.push(row);
    }
    let median = |mut xs: Vec<f64>| -> f64 {
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        xs[xs.len() / 2]
    };
    let med_us =
        |i: usize| (median(rounds.iter().map(|r| r[i]).collect()) * 1_000_000.0).round() as u64;
    let med_pct = |i: usize, vs: usize| {
        (median(rounds.iter().map(|r| r[i] / r[vs]).collect()) * 100.0 - 100.0).round() as i64
    };
    let mut overhead = Table::new(&[
        "sample_permille",
        "median_us",
        "vs_disabled_pct",
        "vs_untraced_pct",
        "identical",
    ]);
    for (i, (name, _)) in configs.iter().enumerate() {
        overhead.row(cells![
            *name,
            med_us(i),
            if i == 0 { "-".to_string() } else { med_pct(i, 0).to_string() },
            if i <= 1 { "-".to_string() } else { med_pct(i, 1).to_string() },
            "yes",
        ]);
    }

    // E17d: one trace id spans hls, dma (axi), and xng events.
    let chain_rec = root.child();
    let (trace_id, counts) = cross_layer_chain(&chain_rec);
    let mut chain = Table::new(&["subsystem", "traced_events", "trace_id"]);
    for (sub, n) in &counts {
        chain.row(cells![sub, *n, format!("{trace_id:#x}")]);
    }
    for required in ["hls", "dma", "xng"] {
        assert!(
            counts.iter().any(|(s, _)| s == required),
            "subsystem {required} must link into the cross-layer trace: {counts:?}"
        );
    }
    root.absorb(&chain_rec);
    obs.absorb(&root);

    let text = format!(
        "E17a: traced offered-load sweep (sample 1000‰), critical-path exactness and \
         deadline-hit SLO (≥{HIT_MIN_PERMILLE}‰, pages at ≥{PAGE_LOAD_PCT}% load)\n{}\n\
         E17b: tracing overhead at load 150%, best-of-{BEST_OF} interleaved x{REPS} reps, results byte-identical\n{}\n\
         E17d: one trace context across HLS co-sim, AXI DMA measurement, XNG dispatch\n{}",
        sweep.render(),
        overhead.render(),
        chain.render(),
    );
    ExperimentOutput::new(text)
        .with("e17a", "traced sweep: critical paths + SLO burn-rate", sweep)
        .with("e17b", "tracing overhead by sampling rate", overhead)
        .with("e17d", "cross-layer trace propagation", chain)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_point_paths_are_exact_and_slo_pages_past_threshold() {
        let model = e14_serving::mlp_model();
        let base = e14_serving::workload_cfg(&model, &e14_serving::serve_cfg());
        let rec = Recorder::new().with_capacity(1 << 16);
        let (report, engine) = traced_point(&model, &base, 200, 1000, rec);
        let prof = profile(&engine.recorder().snapshot());
        assert_eq!(prof.exact_paths("request"), (report.served, report.served));
        assert_eq!(
            engine.slo().unwrap().worst_states()[0].1,
            AlertState::Page
        );
    }

    #[test]
    fn healthy_point_stays_ok() {
        let model = e14_serving::mlp_model();
        let base = e14_serving::workload_cfg(&model, &e14_serving::serve_cfg());
        let (_, engine) =
            traced_point(&model, &base, 50, 1000, Recorder::new().with_capacity(1 << 16));
        assert_eq!(engine.slo().unwrap().worst_states()[0].1, AlertState::Ok);
    }

    #[test]
    fn cross_layer_chain_links_three_subsystems() {
        let rec = Recorder::new().with_capacity(1 << 14);
        let (id, counts) = cross_layer_chain(&rec);
        assert_ne!(id, 0);
        for sub in ["hls", "dma", "xng"] {
            assert!(counts.iter().any(|(s, _)| s == sub), "{counts:?}");
        }
    }
}
