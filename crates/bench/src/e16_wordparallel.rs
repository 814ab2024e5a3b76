//! E16 — Word-parallel bit-packed RTL settle.
//!
//! A hot-path layer on top of the E13 event-driven settle (`crates/rtl`):
//! independent 1-bit ops of identical boolean form are bit-packed up to
//! 64 per `u64` word at settle-program build time and evaluated as one
//! bitwise instruction each.
//!
//! Sub-experiments:
//!
//! * **E16a** — compiled-program structure: packing per design
//!   (deterministic).
//! * **E16b** — the E11 sim workload (`acc` alone): cycles, return value,
//!   evaluated settle ops against the full-pass baseline, the activity
//!   factor, and the register samples the gated clock edge took.
//! * **E16c** — the same kernel tiled into an SoC-scale fabric
//!   (`Netlist::tiled`), the workload class packing and gating target,
//!   with every tile active and with one. The *one-active-tile* row
//!   carries the two headline gates, asserted in every profile: full
//!   passes would evaluate at least 10× the ops the event drain does,
//!   and sampling every register on every edge at least 10× the
//!   register samples the gated edge takes.
//!
//! That the engine agrees with full evaluation is held by the
//! reference-interpreter tests (`rtl/tests/settle_equivalence.rs`,
//! `tests/settle_engines.rs`). Settling is serial, so the tables are
//! independent of the worker count. Wall-clock figures appear only on
//! `completed in` lines (stripped by ci.sh's determinism diffs) and in
//! the machine-readable `e16_wall` table.

use crate::cells;
use crate::table::Table;
use crate::ExperimentOutput;
use hermes_hls::HlsFlow;
use hermes_rtl::netlist::{NetId, Netlist};
use hermes_rtl::sim::Simulator;
use std::time::Instant;

/// The E11/E13 accumulator kernel.
pub const ACC_SRC: &str =
    "int acc(int n) { int s = 0; for (int i = 0; i < n; i += 1) { s += i * i; } return s; }";

/// SoC-fabric scale. Release measures the full 256-tile fabric with the
/// E11 argument; debug (unit/determinism tests) shrinks both so test
/// runs stay quick.
const SOC_COPIES: usize = if cfg!(debug_assertions) { 16 } else { 256 };
/// `arg_n` for the tiled runs (per active tile).
const SOC_ARG: u64 = if cfg!(debug_assertions) { 200 } else { 2_000 };
/// `arg_n` and repetitions for the single-kernel E11 workload rerun.
const E11_ARG: u64 = if cfg!(debug_assertions) { 400 } else { 2_000 };
const E11_REPS: u32 = if cfg!(debug_assertions) { 2 } else { 6 };

/// One run to `done == 1`, with the counters the tables report.
struct KernelRun {
    cycles: u64,
    ret: u64,
    settle_ops: u64,
    /// `settle_passes × settle_program_len`: what evaluating the whole
    /// program on every pass would cost.
    full_ops: u64,
    register_evals: u64,
    /// `cycles × registers`: what sampling every register on every edge
    /// would cost.
    full_register_evals: u64,
    secs: f64,
}

/// Run `nl` to `done == 1` from `pokes`, `reps` times; the counters come
/// from the last run, the wall time covers all of them.
fn run_kernel(
    nl: &Netlist,
    pokes: &[(String, u64)],
    done: NetId,
    ret: NetId,
    reps: u32,
) -> KernelRun {
    let mut last = None;
    let start = Instant::now();
    for _ in 0..reps {
        let mut sim = Simulator::new(nl).expect("valid netlist");
        for (name, value) in pokes {
            sim.poke(name, *value).expect("argument net exists");
        }
        let mut cycles = 0u64;
        while sim.peek_net(done) != 1 {
            sim.step().expect("step");
            cycles += 1;
            assert!(cycles < 4_000_000, "kernel never finished");
        }
        last = Some((cycles, sim));
    }
    let secs = start.elapsed().as_secs_f64();
    let (cycles, sim) = last.expect("reps >= 1");
    KernelRun {
        cycles,
        ret: sim.peek_net(ret),
        settle_ops: sim.settle_ops(),
        full_ops: sim.settle_passes() * sim.settle_program_len() as u64,
        register_evals: sim.register_evals(),
        full_register_evals: sim.cycle() * sim.register_count() as u64,
        secs,
    }
}

/// Pokes for the tiled fabric: every tile's `arg_n` when `all`, else
/// tile 0 only (the localized-activity scenario).
fn soc_pokes(copies: usize, all: bool) -> Vec<(String, u64)> {
    let tiles = if all { copies } else { 1 };
    (0..tiles).map(|k| (format!("u{k}_arg_n"), SOC_ARG)).collect()
}

/// Run E16, tracing into `obs` (the packing counters export under
/// `rtl-par`). Settling is serial, so `jobs` is unused.
pub fn run(_jobs: usize, obs: &hermes_obs::Recorder) -> ExperimentOutput {
    let design = HlsFlow::new().unroll_limit(0).compile(ACC_SRC).expect("acc compiles");
    let acc_nl = design.netlist();
    let soc_nl = acc_nl.tiled(SOC_COPIES);
    soc_nl.validate().expect("tiled netlist is valid");

    // E16a: what the settle-program compiler produced for each design.
    let mut structure = Table::new(&[
        "design", "nets", "registers", "program_ops", "program_words", "packed_words",
        "packed_lanes", "occupancy_pm",
    ]);
    for (name, nl) in [("acc", acc_nl), (soc_nl.name(), &soc_nl)] {
        let sim = Simulator::new(nl).expect("valid netlist");
        assert!(
            sim.settle_words() <= sim.settle_program_len(),
            "{name}: packing can only shrink the walked program"
        );
        assert!(name == "acc" || sim.packed_lanes() > 0, "tiled fabric must pack some lanes");
        structure.row(cells![
            name,
            nl.net_count(),
            sim.register_count(),
            sim.settle_program_len(),
            sim.settle_words(),
            sim.packed_words(),
            sim.packed_lanes(),
            sim.lane_occupancy_permille(),
        ]);
    }

    // E16b: the E11 sim workload; E16c: the tiled SoC fabric with every
    // tile active, then one active tile (the localized-activity scenario
    // event gating and packing target). One engine, one row per scenario.
    let mut timing_lines = String::new();
    let mut wall = Table::new(&["scenario", "wall_ms", "kcycles_s"]);
    let acc_done = acc_nl.net_by_name("done").expect("done net");
    let acc_ret = acc_nl.net_by_name("ret_q").expect("ret net");
    let soc_done = soc_nl.net_by_name("u0_done").expect("tile 0 done net");
    let soc_ret = soc_nl.net_by_name("u0_ret_q").expect("tile 0 ret net");
    let scenarios = [
        ("acc-single", acc_nl, vec![("arg_n".to_string(), E11_ARG)], acc_done, acc_ret, E11_REPS),
        ("soc-all-active", &soc_nl, soc_pokes(SOC_COPIES, true), soc_done, soc_ret, 1),
        ("soc-one-active", &soc_nl, soc_pokes(SOC_COPIES, false), soc_done, soc_ret, 1),
    ];
    let columns =
        ["scenario", "cycles", "ret", "settle_ops", "full_ops", "activity", "register_evals"];
    let (mut workload, mut soc) = (Table::new(&columns), Table::new(&columns));
    for (scenario, nl, pokes, done, ret, reps) in &scenarios {
        let run = run_kernel(nl, pokes, *done, *ret, *reps);
        let activity = run.settle_ops as f64 / run.full_ops as f64;
        let row = cells![
            scenario,
            run.cycles,
            run.ret,
            run.settle_ops,
            run.full_ops,
            format!("{activity:.4}"),
            run.register_evals,
        ];
        if *scenario == "acc-single" {
            workload.row(row);
        } else {
            soc.row(row);
        }
        if *scenario == "soc-one-active" {
            // The headline gate, in settle ops rather than wall clock so
            // it holds in every profile: with one tile of the fabric
            // active, event gating must skip at least 90% of what full
            // passes would evaluate.
            assert!(
                run.full_ops >= 10 * run.settle_ops,
                "one-active fabric: full-pass ops {} < 10x evaluated ops {}",
                run.full_ops,
                run.settle_ops
            );
            // The same gate for the clock edge: idle tiles' registers
            // must not be sampled.
            assert!(
                run.full_register_evals >= 10 * run.register_evals,
                "one-active fabric: cycles x registers {} < 10x register evals {}",
                run.full_register_evals,
                run.register_evals
            );
        }
        let kcps = (u64::from(*reps) * run.cycles) as f64 / run.secs / 1e3;
        wall.row(cells![scenario, format!("{:.1}", run.secs * 1e3), format!("{kcps:.0}")]);
        timing_lines.push_str(&format!(
            "[e16 {scenario} x{reps} completed in {:.1} ms — {kcps:.0} kcycles/s]\n",
            run.secs * 1e3,
        ));
    }

    // Export the packing counters so trace consumers see lane occupancy
    // alongside the E13 activity factor.
    {
        let mut sim = Simulator::new(&soc_nl).expect("valid netlist");
        sim.poke("u0_arg_n", 64).expect("u0_arg_n exists");
        while sim.peek_net(soc_done) != 1 {
            sim.step().expect("step");
        }
        sim.obs_export(obs, "rtl-par");
    }

    let text = format!(
        "E16a: compiled settle-program structure (word-packing)\n{}\n\
         E16b: E11 sim workload acc({E11_ARG}) x{E11_REPS}\n{}\n\
         E16c: SoC fabric acc x{SOC_COPIES} (arg {SOC_ARG}), all tiles vs one tile active\n{}\n{}",
        structure.render(),
        workload.render(),
        soc.render(),
        timing_lines,
    );
    ExperimentOutput::new(text)
        .with("e16a", "settle program structure", structure)
        .with("e16b", "acc workload settle", workload)
        .with("e16c", "tiled SoC settle", soc)
        .with("e16_wall", "settle wall-clock (non-deterministic)", wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiled_fabric_packs_and_partitions() {
        let design = HlsFlow::new().unroll_limit(0).compile(ACC_SRC).expect("acc");
        let nl = design.netlist().tiled(8);
        let sim = Simulator::new(&nl).expect("sim");
        assert!(sim.packed_lanes() >= 8, "8 tiles share identical 1-bit forms");
        assert!(sim.settle_words() < sim.settle_program_len());
    }

    /// A tile of the fabric computes what the kernel alone computes, in
    /// the same cycles, whatever the other tiles do.
    #[test]
    fn tiles_match_the_single_kernel() {
        let design = HlsFlow::new().unroll_limit(0).compile(ACC_SRC).expect("acc");
        let acc = design.netlist();
        let nl = acc.tiled(4);
        let net = |nl: &Netlist, name: &str| nl.net_by_name(name).expect(name);
        let alone = run_kernel(
            acc,
            &[("arg_n".to_string(), 40)],
            net(acc, "done"),
            net(acc, "ret_q"),
            1,
        );
        let pokes = vec![("u0_arg_n".to_string(), 40u64), ("u2_arg_n".to_string(), 17u64)];
        let tiled = run_kernel(&nl, &pokes, net(&nl, "u0_done"), net(&nl, "u0_ret_q"), 1);
        assert_eq!(tiled.cycles, alone.cycles);
        assert_eq!(tiled.ret, alone.ret);
        assert!(tiled.settle_ops < tiled.full_ops, "idle tiles are skipped");
        assert!(
            tiled.register_evals < tiled.full_register_evals,
            "idle tiles' registers are not sampled"
        );
    }
}
