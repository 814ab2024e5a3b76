//! `fleet-steady` and `fleet-overload`: a heavy-tailed open-loop arrival
//! stream over 512 tenants served by a `FleetEngine` whose accelerator
//! model is priced from the `mlp` kernel's co-simulation plus one AXI
//! round trip, with `hermes_apps::ai::mlp_ref` as its compute.

use crate::harness::{self, ms, Config, Outcome, SetupTimer, Spans};
use hermes_apps::{ai, TestDataGen};
use hermes_chaos::plan::{FaultPlan, FaultPlanConfig};
use hermes_fleet::engine::{FleetConfig, FleetEngine, FleetReport};
use hermes_fleet::workload::{self, FleetWorkloadConfig};
use hermes_hls::ir::ArrayId;
use hermes_hls::simulate::ExternalMemory;
use hermes_hls::HlsFlow;
use hermes_serve::engine::ServeConfig;
use hermes_serve::model::AcceleratorModel;
use hermes_serve::request::Request;
use hermes_serve::workload::ClassProfile;
use std::hint::black_box;
use std::time::Instant;

/// MLP topology of the served model (the apps use case).
const INPUTS: usize = 6;
const HIDDEN: usize = 8;
const OUTPUTS: usize = 3;
/// Requests in one replayed stream (one operation).
const REQUESTS: usize = 4096;
/// Tenants drawn uniformly per request.
const TENANTS: u16 = 512;
/// Offered load of the stream on 8 shards, in percent of capacity.
const LOAD_PCT_AT_8: f64 = 85.0;
/// Shard kills in the overload campaign.
const KILLS: u32 = 4;

/// Which fleet scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// 8 shards at about 85% of capacity, no chaos.
    Steady,
    /// The same stream on 4 shards (about 170%) under shard kills.
    Overload,
}

impl Scenario {
    fn shards(self) -> usize {
        match self {
            Scenario::Steady => 8,
            Scenario::Overload => 4,
        }
    }
}

/// Everything set-up produces.
struct Setup {
    flow: HlsFlow,
    model: AcceleratorModel,
    cosim_cycles: u64,
    cfg: FleetConfig,
    arrivals: Vec<Request>,
    plan: Option<FaultPlan>,
    compile_ms: f64,
    cosim_ms: f64,
    characterize_ms: f64,
}

/// Mean gap, in units of the Pareto scale, of the fleet generator's
/// bounded draw `min(65536 / u, 256)` with `u` uniform on `[1, 65536]`
/// (the default cap of 256 scales).
fn pareto_mean_factor() -> f64 {
    (1..=65536u64)
        .map(|u| (65536.0 / u as f64).min(256.0))
        .sum::<f64>()
        / 65536.0
}

fn setup(scenario: Scenario, seed: u64) -> Result<Setup, String> {
    let (flow, characterize) = harness::hls_flow()?;
    let t = Instant::now();
    let design = flow
        .compile(ai::MLP_SOURCE)
        .map_err(|e| format!("mlp compile: {e}"))?;
    let compile_ms = ms(t.elapsed());

    // price the datapath: one co-simulation of a representative input
    let (w1, b1, w2, b2) = ai::synth_weights(INPUTS, HIDDEN, OUTPUTS, 17);
    let x = TestDataGen::new(seed | 1).vec_below(INPUTS, 1 << ai::Q);
    let want = ai::mlp_ref(&x, &w1, &b1, &w2, &b2, INPUTS, HIDDEN, OUTPUTS);
    let mut ext = ExternalMemory::buffers(vec![
        (ArrayId(0), x),
        (ArrayId(1), w1.clone()),
        (ArrayId(2), b1.clone()),
        (ArrayId(3), w2.clone()),
        (ArrayId(4), b2.clone()),
        (ArrayId(5), vec![0; OUTPUTS]),
    ]);
    let t = Instant::now();
    let sim = design
        .simulate_with_memory(&[INPUTS as i64, HIDDEN as i64, OUTPUTS as i64], &mut ext)
        .map_err(|e| format!("mlp co-simulation: {e}"))?;
    let cosim_ms = ms(t.elapsed());
    if ext.buffer(ArrayId(5)) != Some(&want) {
        return Err(format!(
            "mlp co-sim output {:?} != golden {want:?}",
            ext.buffer(ArrayId(5))
        ));
    }
    let model = AcceleratorModel::new("mlp-6-8-3", 32, sim.cycles, move |input| {
        ai::mlp_ref(input, &w1, &b1, &w2, &b2, INPUTS, HIDDEN, OUTPUTS)
    })
    // Q8.8 words move as 4-byte beats: inputs in, scores out
    .with_measured_dma((INPUTS + OUTPUTS) * 4);

    // size the stream to LOAD_PCT_AT_8 of an 8-shard fleet's capacity
    let serve = ServeConfig::default();
    let full = model.service_cycles(serve.batch_max) as f64;
    let per_shard = (serve.instances * serve.batch_max) as f64 / full;
    let gap = 1.0 / (LOAD_PCT_AT_8 / 100.0 * 8.0 * per_shard);
    let scale = ((gap * 256.0 / pareto_mean_factor()).round() as u64).max(1);
    let svc1 = model.service_cycles(1);
    let wl = FleetWorkloadConfig {
        requests: REQUESTS,
        gap_scale_x256: scale,
        gap_cap_x256: scale * 256,
        tenants: TENANTS,
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
        ..FleetWorkloadConfig::default()
    };
    let arrivals = workload::generate(seed, &wl);
    let span = arrivals.last().ok_or("empty arrival stream")?.arrival;
    let shards = scenario.shards();
    let plan = (scenario == Scenario::Overload).then(|| {
        FaultPlan::generate(
            seed ^ 0x5eed_c4a0,
            &FaultPlanConfig::shard_only(span, KILLS, (span / 16) as u32, shards as u8),
        )
    });
    Ok(Setup {
        flow,
        model,
        cosim_cycles: sim.cycles,
        cfg: FleetConfig {
            shards,
            serve,
            ..FleetConfig::default()
        },
        arrivals,
        plan,
        compile_ms,
        cosim_ms,
        characterize_ms: ms(characterize),
    })
}

/// Engine counters of one operation (not part of the report).
struct EngineStats {
    wakes: u64,
    posted: u64,
    popped: u64,
    cancelled: u64,
    cascades: u64,
}

/// One operation: replay the whole stream through a fresh fleet.
fn replay(s: &Setup, spans: &mut Spans) -> (FleetReport, EngineStats, f64) {
    let arrivals = s.arrivals.clone();
    let start = Instant::now();
    let mut engine = FleetEngine::new(s.cfg.clone(), s.model.clone(), arrivals);
    if let Some(plan) = &s.plan {
        engine = engine.with_chaos(plan.clone());
    }
    let report = spans.time("fleet.run_ms", || engine.run());
    let wall = ms(start.elapsed());
    let k = engine.kernel_stats();
    let stats = EngineStats {
        wakes: engine.wakes(),
        posted: k.posted,
        popped: k.popped,
        cancelled: k.cancelled,
        cascades: k.cascades,
    };
    (report, stats, wall)
}

fn check(report: &FleetReport, reference: Option<&FleetReport>) -> Result<(), String> {
    if !report.accounted() {
        return Err(format!(
            "accounting: served {} + shed {} + rejected {} + balancer_shed {} != offered {}",
            report.served, report.shed, report.rejected, report.balancer_shed, report.offered
        ));
    }
    if report.offered != REQUESTS as u64 {
        return Err(format!("offered {} of {REQUESTS} requests", report.offered));
    }
    match reference {
        Some(r) if r != report => Err("fleet report differs from the first replay".into()),
        _ => Ok(()),
    }
}

/// Run one fleet scenario.
pub fn run(scenario: Scenario, cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut build = || setup(scenario, cfg.seed);
    let (mut timer, s) = SetupTimer::first(&mut build)?;
    out.check(harness::check_default_flow(
        &s.flow,
        &[("mlp", ai::MLP_SOURCE)],
    ));

    // warm-up replay: the reference every later replay must equal
    let (reference, _, _) = replay(&s, &mut Spans::new(false));
    out.check(check(&reference, None));

    let mut traced_run_ms = Vec::new();
    let mut last_stats = None;
    let start = Instant::now();
    while cfg.measuring(start.elapsed(), out.op_ms.len()) {
        timer.maybe(&mut build)?;
        for &on in cfg.modes() {
            let at = start.elapsed();
            let mut spans = Spans::new(on);
            let (report, stats, wall) = replay(&s, &mut spans);
            out.check(check(&report, Some(&reference)));
            if on {
                out.traced_op_ms.push(at, cfg.budget(), wall);
                traced_run_ms.push(ms(spans.get("fleet.run_ms")));
                last_stats = Some(stats);
            } else {
                out.op_ms.push(at, cfg.budget(), wall);
            }
        }
    }

    (out.setup_s, out.setup_probe_ms) = timer.finish();
    let r = &reference;
    let served_permille = r.served as f64 * 1000.0 / r.offered.max(1) as f64;
    out.named = vec![
        (
            "fleet_kreq_per_s",
            REQUESTS as f64 / out.op_ms.quantile(0.5),
            "kreq/s",
        ),
        ("served_permille", served_permille, "permille"),
        ("p50_ticks", r.p50_latency as f64, "ticks"),
        ("p99_ticks", r.p99_latency as f64, "ticks"),
    ];
    let render = r.render();
    out.report = format!(
        "fleet: {} shards, {REQUESTS} requests, {TENANTS} tenants, model per-item {} + dma {} + batch {} ticks{}\n{}",
        s.cfg.shards,
        s.model.per_item,
        s.model.dma_per_item,
        s.model.batch_overhead,
        if s.plan.is_some() { format!(", {KILLS} shard kills") } else { String::new() },
        render.lines().take(5).map(|l| format!("  {l}\n")).collect::<String>(),
    );
    out.fingerprint = render;

    if cfg.trace {
        let run_ms = harness::mean(&traced_run_ms);
        let st = last_stats.ok_or("no traced replay ran")?;
        out.layer("fleet.run_ms", run_ms);
        out.layer("fleet.wakes", st.wakes as f64);
        out.layer("fleet.ns_per_wake", run_ms * 1e6 / st.wakes.max(1) as f64);
        out.layer("kernel.posted", st.posted as f64);
        out.layer("kernel.popped", st.popped as f64);
        out.layer("kernel.cancelled", st.cancelled as f64);
        out.layer("kernel.cascades", st.cascades as f64);
        out.layer("fleet.routed_po2c", r.routed_po2c as f64);
        out.layer("fleet.skew_x100", r.skew_x100() as f64);
        out.layer("fleet.balancer_shed", r.balancer_shed as f64);
        out.layer("fleet.failover_rerouted", r.failover_rerouted as f64);
        out.layer("fleet.served_permille", served_permille);
        out.layer("fleet.p50_ticks", r.p50_latency as f64);
        out.layer("fleet.p99_ticks", r.p99_latency as f64);
        out.layer("serve.batches", r.batches as f64);
        out.layer(
            "serve.mean_batch_x100",
            (r.batch_items * 100) as f64 / r.batches.max(1) as f64,
        );
        out.layer("serve.shed", r.shed as f64);
        out.layer("serve.rejected", r.rejected as f64);
        out.layer("serve.requeued", r.requeued as f64);
        out.layer("axi.dma_cycles", s.model.dma_per_item as f64);
        out.layer("hls.cosim_cycles", s.cosim_cycles as f64);
        out.layer("hls.compile_ms", s.compile_ms);
        out.layer("hls.cosim_ms", s.cosim_ms);
        out.layer("eucalyptus.characterize_ms", s.characterize_ms);
        let (fanout_us, compute_ns) = fanout_probe(&s, cfg.jobs);
        out.layer("par.fanout_us", fanout_us);
        out.layer("serve.compute_ns_per_item", compute_ns);
    }
    Ok(out)
}

/// Host cost of one serve batch's payload fan-out and of one payload
/// evaluation: `par_map_bounded_jobs` over a two-item batch (the size of
/// a typical batch) at the pinned worker count, and
/// `AcceleratorModel::compute` alone.
fn fanout_probe(s: &Setup, jobs: usize) -> (f64, f64) {
    const CALLS: usize = 2000;
    let items: Vec<&[i64]> = s
        .arrivals
        .iter()
        .take(2)
        .map(|r| r.input.as_slice())
        .collect();
    let bound = s.cfg.serve.compute_bound;
    let start = Instant::now();
    for _ in 0..CALLS {
        let r = hermes_par::par_map_bounded_jobs(jobs, bound, &items, |x| s.model.compute(x));
        black_box(r.ok());
    }
    let fanout_us = start.elapsed().as_secs_f64() * 1e6 / CALLS as f64;
    let start = Instant::now();
    for _ in 0..CALLS {
        for x in &items {
            black_box(s.model.compute(black_box(x)));
        }
    }
    let compute_ns = start.elapsed().as_secs_f64() * 1e9 / (CALLS * items.len()) as f64;
    (fanout_us, compute_ns)
}
