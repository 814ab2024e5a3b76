//! E18 — Cross-layer fast-forward wins.
//!
//! The serving engine, the XNG hypervisor and the AXI testbench each skip
//! quiet time: after every step a layer takes the minimum of the due
//! ticks it computes from live state and jumps straight there
//! (DESIGN.md §14) instead of polling every tick. E18 proves the win the
//! only way that is deterministic on a shared host: **algorithmically**,
//! by counting the scheduler passes each layer actually executes (polled
//! ticks) against the simulated ticks it fast-forwards over (skipped
//! ticks).
//!
//! (a) runs each layer's co-sim leg — serve at 50% offered load under a
//! pool chaos campaign, an XNG schedule with native tasks + a yielding
//! guest + an expiring watchdog, and an AXI command sequence with slow
//! memory, error retries, a stall-tripped timeout, and an idle window —
//! and gates the cross-layer polled-tick reduction at **>= 10x**. Rows
//! are ordered by span (ties keep the serve, xng, axi order).
//!
//! Fast-forward moves *when work happens on the host*, never *what the
//! simulation computes*. Tests hold that identity against oracles kept
//! in test code: `determinism.rs::event_kernel_knob_never_moves_results`
//! pins a digest of all three legs recorded from the polling engines,
//! and the XNG and AXI unit tests compare against a per-tick polling
//! loop and pinned per-cycle figures.

use crate::cells;
use crate::e14_serving::{mlp_model, serve_cfg, workload_cfg, SEED};
use crate::table::Table;
use crate::ExperimentOutput;
use hermes_axi::memory::MemoryTiming;
use hermes_axi::testbench::{AxiTestbench, RetryPolicy};
use hermes_chaos::plan::{FaultPlan, FaultPlanConfig};
use hermes_cpu::memmap::layout;
use hermes_hls::HlsFlow;
use hermes_serve::engine::ServeEngine;
use hermes_serve::workload;
use hermes_xng::config::{MemRegion, PartitionConfig, Plan, Slot, XngConfig};
use hermes_xng::hypervisor::Hypervisor;
use hermes_xng::partition::native_task;

/// Offered load for the serving leg (percent of pool saturation).
const SERVE_LOAD: u64 = 50;
/// Chaos seed for the serving leg's pool campaign.
const CHAOS_SEED: u64 = 18;
/// Hypervisor budget for the XNG leg, in ticks.
const XNG_BUDGET: u64 = 120_000;

/// One layer's polled/skipped ledger.
struct LayerRun {
    name: &'static str,
    /// Simulated ticks the leg spans.
    span: u64,
    /// Scheduler passes executed.
    polled: u64,
    /// Ticks fast-forwarded.
    skipped: u64,
}

impl LayerRun {
    /// Polled-tick reduction vs a per-tick baseline over the same span.
    fn reduction(&self) -> u64 {
        self.span.checked_div(self.polled).unwrap_or(0)
    }
}

/// One serving run of the E18 leg (50% offered load, pool chaos).
/// Public so the determinism suite can pin its results.
pub fn serve_run() -> (hermes_serve::engine::ServeReport, ServeEngine) {
    let model = mlp_model(&HlsFlow::new().unroll_limit(0));
    let base = workload_cfg(&model, &serve_cfg());
    let wl = base.at_load_pct(SERVE_LOAD);
    let arrivals = workload::generate(SEED, &wl);
    let span = arrivals.last().expect("workload non-empty").arrival;
    let plan = FaultPlan::generate(
        CHAOS_SEED,
        &FaultPlanConfig::pool_only(span, 2, 2, span as u32 / 8, 2),
    );
    let mut engine = ServeEngine::new(serve_cfg(), model, arrivals).with_chaos(plan);
    let report = engine.run();
    assert!(report.accounted(), "serve leg accounting: {report:?}");
    (report, engine)
}

/// Serving leg: 50% offered load with a chaos campaign on the pool.
fn serve_leg() -> LayerRun {
    let (report, engine) = serve_run();
    LayerRun {
        name: "serve",
        span: report.makespan,
        polled: engine.wakes(),
        skipped: report.makespan.saturating_sub(engine.wakes()),
    }
}

/// XNG leg: a silent partition with an expiring watchdog, a flaky native
/// task that crashes into HM restarts mid-run, and a yielding guest, on
/// a two-core plan, run for [`XNG_BUDGET`] ticks. Public for the
/// determinism suite.
pub fn xng_run() -> Hypervisor {
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
    hv.run(XNG_BUDGET).expect("xng leg runs");
    hv
}

fn xng_leg() -> LayerRun {
    let hv = xng_run();
    assert_eq!(
        hv.ticks_polled() + hv.ticks_skipped(),
        hv.time(),
        "every hypervisor tick is either polled or skipped"
    );
    LayerRun {
        name: "xng",
        span: hv.time(),
        polled: hv.ticks_polled(),
        skipped: hv.ticks_skipped(),
    }
}

/// AXI leg: writes and reads against slow memory with injected SLVERRs
/// (retried with backoff), a 700-cycle stall that trips the 200-cycle
/// timeout, and an idle window. Returns the testbench and the
/// per-operation cycle costs (public for the determinism suite).
pub fn axi_run() -> (AxiTestbench, Vec<u64>) {
    let mut tb = AxiTestbench::new(8192, MemoryTiming::slow())
        .with_retry(RetryPolicy { max_retries: 3, backoff_base: 16 });
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
    let (tb, _) = axi_run();
    assert!(tb.violations().is_empty(), "{:?}", tb.violations());
    assert_eq!(
        tb.ticks_polled() + tb.ticks_skipped(),
        tb.stats().cycles,
        "every bus cycle is either polled or skipped"
    );
    LayerRun {
        name: "axi",
        span: tb.stats().cycles,
        polled: tb.ticks_polled(),
        skipped: tb.ticks_skipped(),
    }
}

/// Run E18. Every leg runs inline, so `jobs` is unused, and it records
/// nothing into `obs`.
pub fn run(_jobs: usize, _obs: &hermes_obs::Recorder) -> ExperimentOutput {
    let mut legs = [serve_leg(), xng_leg(), axi_leg()];
    legs.sort_by_key(|leg| leg.span);

    // E18a: polled-vs-skipped ledger per layer, shortest span first.
    let mut ledger = Table::new(&["layer", "span_ticks", "polled", "skipped", "reduction_x"]);
    let (mut total_span, mut total_polled, mut total_skipped) = (0u64, 0u64, 0u64);
    for leg in &legs {
        assert!(leg.skipped > 0, "{} leg must fast-forward", leg.name);
        assert_eq!(leg.polled + leg.skipped, leg.span, "{} ticks polled or skipped", leg.name);
        ledger.row(cells![leg.name, leg.span, leg.polled, leg.skipped, leg.reduction()]);
        total_span += leg.span;
        total_polled += leg.polled;
        total_skipped += leg.skipped;
    }
    assert_eq!(total_polled + total_skipped, total_span, "the ledger totals close");
    let total_reduction = total_span / total_polled.max(1);
    ledger.row(cells!["total", total_span, total_polled, total_skipped, total_reduction]);
    assert!(
        total_reduction >= 10,
        "fast-forward must cut cross-layer scheduler passes >= 10x \
         (span {total_span}, polled {total_polled})"
    );

    let text = format!(
        "E18a: polled vs skipped scheduler passes per layer, rows in span order; \
         gate: total reduction >= 10x\n{}",
        ledger.render(),
    );
    ExperimentOutput::new(text).with("e18a", "event-kernel polled-tick reduction", ledger)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each leg fast-forwards, and (asserted inside the XNG and AXI
    /// legs) crosses exactly the ticks the polling engine would have run.
    #[test]
    fn each_leg_fast_forwards_and_matches_the_polling_engine() {
        for leg in [serve_leg(), xng_leg(), axi_leg()] {
            assert!(leg.skipped > 0, "{} must skip", leg.name);
        }
    }
}
