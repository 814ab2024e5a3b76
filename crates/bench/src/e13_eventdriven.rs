//! E13 — Event-driven settle.
//!
//! The simulator (`crates/rtl`) drains a dirty worklist in
//! topological-rank order instead of evaluating the whole compiled settle
//! program every pass. E13a reports the per-kernel *activity factor*:
//! evaluated ops over the full-evaluation baseline
//! `settle_passes × settle_program_len` of the same run, asserted to lie
//! in `(0, 1]`. That the drain agrees with full evaluation is held by the
//! reference-interpreter tests (`rtl/tests/settle_equivalence.rs`,
//! `tests/settle_engines.rs`).

use crate::cells;
use crate::table::Table;
use crate::ExperimentOutput;
use hermes_hls::HlsFlow;
use hermes_rtl::sim::Simulator;

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

/// Run E13 with a flight recorder (RTL counters under `rtl-event`). The
/// kernels run serially, so `jobs` is unused.
pub fn run(_jobs: usize, obs: &hermes_obs::Recorder) -> ExperimentOutput {
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

    let text = format!(
        "E13a: settle activity factor per kernel (evaluated vs full-pass ops)\n{}",
        act.render(),
    );
    ExperimentOutput::new(text).with("e13a", "settle activity factor", act)
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
