//! E18 — Unified discrete-event kernel: cross-layer fast-forward wins.
//!
//! PR 9 replaced the three biggest polling loops — the serving engine's
//! per-tick arrival/completion scan, the XNG hypervisor's quiet-tick
//! march, and the AXI testbench's latency/timeout wait loops — with one
//! hierarchical timer-wheel kernel (`crates/kernel`, DESIGN.md §14).
//! The host is a single shared core, so E18 proves the win the only way
//! that is deterministic there: **algorithmically**, by counting the
//! scheduler passes each layer actually executes (polled ticks) against
//! the simulated ticks it fast-forwards over (skipped ticks).
//!
//! (a) runs each layer's co-sim leg with the event kernel on — serve at
//! 50% offered load under a pool chaos campaign, an XNG schedule with
//! native tasks + a yielding guest + an expiring watchdog, and an AXI
//! command sequence with slow memory, error retries, a stall-tripped
//! timeout, and an idle window — and gates the cross-layer polled-tick
//! reduction at **>= 10x**. Row order is itself produced by the kernel:
//! each leg's completion is posted to a [`TimerWheel`] and drained
//! through an [`EventSink`] in `(time, domain, seq)` order.
//! (b) exports the wheel health counters (occupancy, overflow, cascades)
//! per layer and in aggregate through `hermes-obs` under `kernel`.
//! (c) re-runs every leg with the event kernel off (the sorted-reference
//! scheduler for serve, the original per-tick loops for XNG and AXI) and
//! asserts the results are byte-identical — the kernel moves *when work
//! happens on the host*, never *what the simulation computes*.

use crate::cells;
use crate::e14_serving::{mlp_model, serve_cfg, workload_cfg, SEED};
use crate::table::Table;
use crate::ExperimentOutput;
use hermes_axi::memory::MemoryTiming;
use hermes_axi::testbench::{AxiTestbench, RetryPolicy};
use hermes_chaos::plan::{FaultPlan, FaultPlanConfig};
use hermes_cpu::memmap::layout;
use hermes_kernel::{DomainRegistry, Event, EventSink, TimerWheel, WheelStats};
use hermes_serve::engine::ServeEngine;
use hermes_serve::workload;
use hermes_xng::config::{MemRegion, PartitionConfig, Plan, Slot, XngConfig};
use hermes_xng::hypervisor::Hypervisor;
use hermes_xng::partition::native_task;
use hermes_xng::PartitionId;

/// Offered load for the serving leg (percent of pool saturation).
const SERVE_LOAD: u64 = 50;
/// Chaos seed for the serving leg's pool campaign.
const CHAOS_SEED: u64 = 18;
/// Hypervisor budget for the XNG leg, in ticks.
const XNG_BUDGET: u64 = 120_000;

/// One layer's polled/skipped ledger, both knob positions compared.
struct LayerRun {
    name: &'static str,
    /// Simulated ticks the leg spans.
    span: u64,
    /// Scheduler passes executed with the kernel on.
    polled_on: u64,
    /// Ticks fast-forwarded with the kernel on.
    skipped_on: u64,
    /// Scheduler passes executed with the kernel off.
    polled_off: u64,
    /// Wheel health counters of the kernel-on run.
    wheel: WheelStats,
}

impl LayerRun {
    /// Polled-tick reduction vs a per-tick baseline over the same span.
    fn reduction(&self) -> u64 {
        self.span.checked_div(self.polled_on).unwrap_or(0)
    }
}

/// One serving run of the E18 leg (50% offered load, pool chaos) with
/// the event-kernel knob explicit. Public so the determinism suite can
/// replay it across the knob.
pub fn serve_run(event_kernel: bool) -> (hermes_serve::engine::ServeReport, ServeEngine) {
    let model = mlp_model();
    let base = workload_cfg(&model, &serve_cfg());
    let wl = base.at_load_pct(SERVE_LOAD);
    let arrivals = workload::generate(SEED, &wl);
    let span = arrivals.last().expect("workload non-empty").arrival;
    let plan = FaultPlan::generate(
        CHAOS_SEED,
        &FaultPlanConfig::pool_only(span, 2, 2, span as u32 / 8, 2),
    );
    let mut engine = ServeEngine::new(serve_cfg(), model, arrivals)
        .with_chaos(plan)
        .with_event_kernel(event_kernel);
    let report = engine.run();
    assert!(
        report.accounted(),
        "serve leg accounting (kernel={event_kernel}): {report:?}"
    );
    (report, engine)
}

/// Serving leg: 50% offered load with a chaos campaign on the pool.
/// The off position is the sorted-reference scheduler — same wake
/// instants by construction, so the wake counts must match exactly.
fn serve_leg() -> LayerRun {
    let (r_off, e_off) = serve_run(false);
    let (r_on, e_on) = serve_run(true);
    assert_eq!(r_off, r_on, "serve reports identical across the knob");
    assert_eq!(r_off.render(), r_on.render(), "serve renders byte-identical");
    assert_eq!(e_off.wakes(), e_on.wakes(), "wheel and reference wake on the same ticks");
    LayerRun {
        name: "serve",
        span: r_on.makespan,
        polled_on: e_on.wakes(),
        skipped_on: r_on.makespan.saturating_sub(e_on.wakes()),
        polled_off: e_off.wakes(),
        wheel: *e_on.kernel_stats(),
    }
}

/// XNG leg: a silent partition with an expiring watchdog, a flaky native
/// task that crashes into HM restarts mid-run, and a yielding guest, on
/// a two-core plan. The off position is the original per-tick loop.
fn xng_build() -> Hypervisor {
    let mut cfg = XngConfig::new("e18");
    let silent = cfg.add_partition(PartitionConfig::new("silent").with_watchdog(1_500));
    let flaky = cfg.add_partition(PartitionConfig::new("flaky").with_restart_limit(3));
    let guest = cfg.add_partition(PartitionConfig::new("guest").with_memory(MemRegion {
        base: layout::SRAM_BASE,
        size: 0x1000,
        writable: true,
    }));
    cfg.set_plan(
        0,
        Plan::new(vec![Slot::new(silent, 900), Slot::new(flaky, 700), Slot::new(guest, 1_100)]),
    );
    cfg.set_plan(1, Plan::new(vec![Slot::new(flaky, 1_300)]));
    let mut hv = Hypervisor::new(cfg).expect("config");
    hv.attach_native(
        flaky,
        native_task("flaky", |c| {
            c.consume(40);
            if c.now() > 4_000 && c.now() < 9_000 {
                Err("boom".into())
            } else {
                Ok(())
            }
        }),
    )
    .expect("attach");
    let prog = hermes_cpu::isa::assemble("spin:\necall 0x08\njal r0, spin").expect("asm");
    hv.attach_guest(guest, layout::SRAM_BASE, vec![(layout::SRAM_BASE, prog)])
        .expect("attach");
    hv
}

/// One hypervisor run of the E18 leg with the knob explicit (public
/// for the determinism suite).
pub fn xng_run(event_kernel: bool) -> Hypervisor {
    let mut hv = xng_build();
    hv.set_event_kernel(event_kernel);
    hv.run(XNG_BUDGET).expect("xng leg runs");
    hv
}

fn xng_leg() -> LayerRun {
    let off = xng_run(false);
    let on = xng_run(true);
    for pid in (0..3u32).map(PartitionId) {
        assert_eq!(off.stats(pid), on.stats(pid), "partition {pid:?} stats");
        assert_eq!(off.mode(pid), on.mode(pid), "partition {pid:?} mode");
    }
    assert_eq!(off.hm_escalations, on.hm_escalations);
    assert_eq!(off.health().log(), on.health().log(), "HM timeline identical");
    assert_eq!(off.time(), on.time());
    assert_eq!(
        on.ticks_polled() + on.ticks_skipped(),
        off.ticks_polled(),
        "every hypervisor tick is either polled or skipped"
    );
    LayerRun {
        name: "xng",
        span: on.time(),
        polled_on: on.ticks_polled(),
        skipped_on: on.ticks_skipped(),
        polled_off: off.ticks_polled(),
        wheel: *on.kernel_stats(),
    }
}

/// AXI leg: writes and reads against slow memory with injected SLVERRs
/// (retried with backoff), a 700-cycle stall that trips the 200-cycle
/// timeout, and an idle window. The off position steps every cycle.
fn axi_run(on: bool) -> (AxiTestbench, Vec<u64>) {
    let mut tb = AxiTestbench::new(8192, MemoryTiming::slow())
        .with_retry(RetryPolicy { max_retries: 3, backoff_base: 16 })
        .with_event_kernel(on);
    tb.timeout_cycles = 200;
    let mut costs = Vec::new();
    tb.memory_mut().poke(0x100, &[0x5A; 64]);
    costs.push(tb.write_blocking(0x400, &[7u8; 48]).expect("write"));
    tb.memory_mut().inject_read_slverr(2);
    let (data, c) = tb.read_blocking(0x100, 64).expect("read after retries");
    assert_eq!(data, vec![0x5A; 64]);
    costs.push(c);
    tb.idle(500);
    tb.memory_mut().inject_stall(700);
    let (data, c) = tb.read_blocking(0x400, 48).expect("read after timeout retry");
    assert_eq!(data, vec![7u8; 48]);
    costs.push(c);
    tb.memory_mut().inject_write_slverr(1);
    costs.push(tb.write_blocking(0x800, &[9u8; 32]).expect("write after retry"));
    (tb, costs)
}

fn axi_leg() -> LayerRun {
    let (off, costs_off) = axi_run(false);
    let (on, costs_on) = axi_run(true);
    assert_eq!(costs_off, costs_on, "per-operation cycle costs identical");
    assert_eq!(off.stats(), on.stats(), "bus statistics identical");
    assert_eq!(off.violations().len(), on.violations().len());
    assert_eq!(
        on.ticks_polled() + on.ticks_skipped(),
        off.ticks_polled(),
        "every bus cycle is either polled or skipped"
    );
    LayerRun {
        name: "axi",
        span: on.stats().cycles,
        polled_on: on.ticks_polled(),
        skipped_on: on.ticks_skipped(),
        polled_off: off.ticks_polled(),
        wheel: *on.kernel_stats(),
    }
}

/// Run E18, tracing wheel counters into `obs` under `kernel`. Every leg
/// runs inline, so `jobs` is unused.
pub fn run(_jobs: usize, obs: &hermes_obs::Recorder) -> ExperimentOutput {
    let legs = [serve_leg(), xng_leg(), axi_leg()];

    // The kernel merges its own result rows: one completion event per
    // layer, posted at that layer's span and drained through an
    // EventSink — E18a's row order is the wheel's deterministic
    // `(time, domain, seq)` pop order, exercising the sink contract in
    // production rather than only in unit tests.
    let mut registry = DomainRegistry::new();
    let mut wheel: TimerWheel<usize> = TimerWheel::new();
    for (idx, leg) in legs.iter().enumerate() {
        let domain = registry.register(leg.name);
        wheel.post(leg.span, domain, idx).expect("leg spans are positive");
    }
    struct MergeOrder(Vec<usize>);
    impl EventSink<usize> for MergeOrder {
        fn deliver(&mut self, ev: Event<usize>) {
            self.0.push(ev.payload);
        }
    }
    let mut merged = MergeOrder(Vec::new());
    let horizon = legs.iter().map(|l| l.span).max().expect("three legs");
    let delivered = wheel.drain_due(horizon, &mut merged);
    assert_eq!(delivered, legs.len(), "every layer completion drains");

    // E18a: polled-vs-skipped ledger per layer, in kernel merge order.
    let mut ledger = Table::new(&["layer", "span_ticks", "polled", "skipped", "reduction_x"]);
    let (mut total_span, mut total_polled, mut total_skipped) = (0u64, 0u64, 0u64);
    for &idx in &merged.0 {
        let leg = &legs[idx];
        assert!(leg.skipped_on > 0, "{} leg must fast-forward", leg.name);
        ledger.row(cells![leg.name, leg.span, leg.polled_on, leg.skipped_on, leg.reduction()]);
        total_span += leg.span;
        total_polled += leg.polled_on;
        total_skipped += leg.skipped_on;
    }
    let total_reduction = total_span / total_polled.max(1);
    ledger.row(cells!["total", total_span, total_polled, total_skipped, total_reduction]);
    assert!(
        total_reduction >= 10,
        "event kernel must cut cross-layer scheduler passes >= 10x \
         (span {total_span}, polled {total_polled})"
    );

    // E18b: wheel health counters, per layer and aggregated, exported
    // through hermes-obs under `kernel`.
    let mut health = Table::new(&[
        "layer",
        "posted",
        "popped",
        "cancelled",
        "cascades",
        "max_occupancy",
        "max_overflow",
    ]);
    let mut agg = WheelStats::default();
    for leg in &legs {
        let w = &leg.wheel;
        assert!(w.posted > 0 && w.popped > 0, "{} leg uses the wheel: {w:?}", leg.name);
        health.row(cells![
            leg.name,
            w.posted,
            w.popped,
            w.cancelled,
            w.cascades,
            w.max_occupancy,
            w.max_overflow
        ]);
        agg.posted += w.posted;
        agg.popped += w.popped;
        agg.cancelled += w.cancelled;
        agg.cascades += w.cascades;
        agg.cascaded_events += w.cascaded_events;
        agg.max_occupancy = agg.max_occupancy.max(w.max_occupancy);
        agg.max_overflow = agg.max_overflow.max(w.max_overflow);
    }
    health.row(cells![
        "total",
        agg.posted,
        agg.popped,
        agg.cancelled,
        agg.cascades,
        agg.max_occupancy,
        agg.max_overflow
    ]);
    assert!(
        agg.max_overflow > 0 && agg.cascades > 0,
        "long horizons must exercise the overflow calendar: {agg:?}"
    );
    agg.export(obs, "kernel");

    // E18c: the knob is a scheduling knob, never a results knob — each
    // leg already asserted byte-identical results above.
    let mut knob = Table::new(&["layer", "polled_off", "polled_on", "skipped_on", "identical"]);
    for leg in &legs {
        knob.row(cells![leg.name, leg.polled_off, leg.polled_on, leg.skipped_on, "yes"]);
    }

    let text = format!(
        "E18a: polled vs skipped scheduler passes per layer (kernel on), \
         rows in the wheel's own merge order; gate: total reduction >= 10x\n{}\n\
         E18b: timer-wheel health counters (kernel on), exported under `kernel`\n{}\n\
         E18c: event-kernel-off replay (reference scheduler, polling loops), \
         byte-identical results per layer\n{}",
        ledger.render(),
        health.render(),
        knob.render(),
    );
    ExperimentOutput::new(text)
        .with("e18a", "event-kernel polled-tick reduction", ledger)
        .with("e18b", "timer-wheel health counters", health)
        .with("e18c", "event-kernel off-knob identity", knob)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_leg_fast_forwards_and_matches_the_polling_engine() {
        for leg in [serve_leg(), xng_leg(), axi_leg()] {
            assert!(leg.skipped_on > 0, "{} must skip", leg.name);
            assert!(leg.wheel.posted >= leg.wheel.popped);
        }
    }

    #[test]
    fn cross_layer_reduction_clears_the_gate() {
        let legs = [serve_leg(), xng_leg(), axi_leg()];
        let span: u64 = legs.iter().map(|l| l.span).sum();
        let polled: u64 = legs.iter().map(|l| l.polled_on).sum();
        assert!(span / polled.max(1) >= 10, "span {span} polled {polled}");
    }
}
