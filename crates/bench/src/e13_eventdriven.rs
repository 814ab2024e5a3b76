//! E13 — Event-driven settle and the shared characterization cache.
//!
//! Two orthogonal hot-path optimizations:
//!
//! * **Activity-gated settling** (`crates/rtl`): the simulator drains a
//!   dirty worklist in topological-rank order instead of evaluating the
//!   whole compiled settle program every pass. E13a reports the per-kernel
//!   *activity factor*: evaluated ops over the full-evaluation baseline
//!   `settle_passes × settle_program_len` of the same run. That the
//!   drain agrees with full evaluation is held by the reference-interpreter
//!   tests (`rtl/tests/settle_equivalence.rs`, `tests/settle_engines.rs`).
//! * **Shared characterization cache** (`crates/eucalyptus` →
//!   `crates/hls`): a suite of kernel flows characterizes each device
//!   once instead of once per flow. E13c times the E2 flow suite with the
//!   cache bypassed (every flow pays its own sweep — the pre-change
//!   behaviour) and with the cache active, and reports the hit/miss/bypass
//!   counter deltas.
//!
//! Wall-clock columns vary run to run; the structural claims (identical
//! E2 tables, activity factor in `(0, 1]`) are asserted, not just printed.

use crate::cells;
use crate::table::Table;
use crate::ExperimentOutput;
use hermes_hls::HlsFlow;
use hermes_rtl::sim::Simulator;
use std::time::Instant;

/// Argument pokes for one kernel run: `(net name, value)`.
type Pokes = &'static [(&'static str, u64)];

/// Scalar kernels that co-simulate through the raw netlist interface
/// (`arg_*` pokes, `done`/`ret_q` nets): name, C-subset source, pokes,
/// and the value `ret_q` must hold at `done`.
const KERNELS: &[(&str, &str, Pokes, u64)] = &[
    (
        "acc",
        "int acc(int n) { int s = 0; for (int i = 0; i < n; i += 1) { s += i * i; } return s; }",
        &[("arg_n", 200)],
        2_646_700,
    ),
    (
        "gcd",
        "int gcd(int a, int b) { while (b != 0) { int t = b; b = a % b; a = t; } return a; }",
        &[("arg_a", 3528), ("arg_b", 3780)],
        252,
    ),
    (
        "isqrt",
        "int isqrt(int n) { int r = 0; while ((r + 1) * (r + 1) <= n) { r = r + 1; } return r; }",
        &[("arg_n", 1 << 20)],
        1_024,
    ),
];

/// One co-simulation run to `done`.
struct SimRun {
    cycles: u64,
    ret: u64,
    settle_ops: u64,
    /// `settle_passes × settle_program_len`: what evaluating the whole
    /// program on every pass would cost.
    full_ops: u64,
    program_len: usize,
}

fn run_kernel(nl: &hermes_rtl::netlist::Netlist, pokes: &[(&str, u64)]) -> SimRun {
    let done = nl.net_by_name("done").expect("done net");
    let ret = nl.net_by_name("ret_q").expect("ret net");
    let mut sim = Simulator::new(nl).expect("valid netlist");
    for &(name, value) in pokes {
        sim.poke(name, value).expect("argument net exists");
    }
    let mut cycles = 0u64;
    while sim.peek_net(done) != 1 {
        sim.step().expect("step");
        cycles += 1;
        assert!(cycles < 1_000_000, "kernel never finished");
    }
    SimRun {
        cycles,
        ret: sim.peek_net(ret),
        settle_ops: sim.settle_ops(),
        full_ops: sim.settle_passes() * sim.settle_program_len() as u64,
        program_len: sim.settle_program_len(),
    }
}

/// Run E13 with a flight recorder (RTL counters under `rtl-event`); the
/// E13c cache comparison runs E2 on `jobs` workers.
pub fn run(jobs: usize, obs: &hermes_obs::Recorder) -> ExperimentOutput {
    // E13a: per-kernel activity factor, evaluated vs full-pass ops.
    let hls = HlsFlow::new().unroll_limit(0);
    let mut act = Table::new(&[
        "kernel", "cycles", "program_ops", "full_ops", "event_ops", "activity", "reduction",
    ]);
    for (name, source, pokes, want) in KERNELS {
        let design = hls.compile(source).unwrap_or_else(|e| panic!("{name}: {e}"));
        let run = run_kernel(design.netlist(), pokes);
        assert_eq!(run.ret, *want, "{name}: wrong result");
        let activity = run.settle_ops as f64 / run.full_ops as f64;
        assert!(activity > 0.0 && activity <= 1.0, "{name}: activity {activity}");
        act.row(cells![
            name,
            run.cycles,
            run.program_len,
            run.full_ops,
            run.settle_ops,
            format!("{activity:.3}"),
            format!("{:.2}x", 1.0 / activity),
        ]);
    }

    {
        // export the event-driven counters so E12-style trace consumers
        // see the activity factor (settle_ops vs settle_ops_full)
        let design = hls.compile(KERNELS[0].1).expect("acc compiles");
        let nl = design.netlist();
        let mut sim = Simulator::new(nl).expect("valid netlist");
        sim.poke("arg_n", 64).expect("arg_n exists");
        let done = nl.net_by_name("done").expect("done net");
        while sim.peek_net(done) != 1 {
            sim.step().expect("step");
        }
        sim.obs_export(obs, "rtl-event");
    }

    // E13c: E2 flow suite with the characterization cache bypassed
    // (pre-change behaviour: one sweep per flow) vs shared.
    let untraced = hermes_obs::Recorder::disabled();
    let mut cachet = Table::new(&[
        "mode", "wall_ms", "sweeps_run", "cache_hits", "identical", "speedup",
    ]);
    let s0 = hermes_eucalyptus::cache::stats();
    hermes_eucalyptus::cache::set_bypass(true);
    let start = Instant::now();
    let bypassed = crate::e2_fpga_flow::run(jobs, &untraced);
    let bypass_ms = start.elapsed().as_secs_f64() * 1e3;
    hermes_eucalyptus::cache::set_bypass(false);
    let s1 = hermes_eucalyptus::cache::stats();
    let start = Instant::now();
    let cached = crate::e2_fpga_flow::run(jobs, &untraced);
    let cached_ms = start.elapsed().as_secs_f64() * 1e3;
    let s2 = hermes_eucalyptus::cache::stats();
    assert_eq!(
        bypassed.text, cached.text,
        "cache must not change the E2 tables"
    );
    assert!(
        s1.bypasses - s0.bypasses >= 1,
        "bypassed run must have skipped the store"
    );
    cachet.row(cells![
        "bypass (sweep per flow)",
        format!("{bypass_ms:.0}"),
        s1.bypasses - s0.bypasses,
        0,
        "-",
        "1.00x",
    ]);
    cachet.row(cells![
        "shared cache",
        format!("{cached_ms:.0}"),
        s2.misses - s1.misses,
        s2.hits - s1.hits,
        "yes",
        format!("{:.2}x", bypass_ms / cached_ms),
    ]);

    let text = format!(
        "E13a: settle activity factor per kernel (evaluated vs full-pass ops)\n{}\n\
         E13c: E2 flow suite, characterization sweep per flow vs shared cache ({} workers)\n{}",
        act.render(),
        jobs,
        cachet.render(),
    );
    ExperimentOutput::new(text)
        .with("e13a", "settle activity factor", act)
        .with("e13c", "characterization cache", cachet)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_skip_quiescent_ops() {
        let hls = HlsFlow::new().unroll_limit(0);
        for (name, source, pokes, want) in KERNELS {
            let design = hls.compile(source).unwrap_or_else(|e| panic!("{name}: {e}"));
            let run = run_kernel(design.netlist(), pokes);
            assert_eq!(run.ret, *want, "{name}");
            assert!(run.settle_ops < run.full_ops, "{name}: some gating");
        }
    }

    #[test]
    fn gcd_kernel_computes_gcd() {
        let hls = HlsFlow::new().unroll_limit(0);
        let design = hls.compile(KERNELS[1].1).expect("gcd compiles");
        let run = run_kernel(design.netlist(), KERNELS[1].2);
        assert_eq!(run.ret, 252, "gcd(3528, 3780)");
    }
}
