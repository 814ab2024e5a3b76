//! E13 — Event-driven settle and the shared characterization cache.
//!
//! Two orthogonal hot-path optimizations, measured head-to-head against
//! the code paths they replace (both of which remain selectable at run
//! time, so the comparison is always live):
//!
//! * **Activity-gated settling** (`crates/rtl`): the simulator drains a
//!   dirty worklist in topological-rank order instead of evaluating the
//!   whole compiled settle program every pass. E13a reports the per-kernel
//!   *activity factor* — evaluated ops over the full-evaluation baseline —
//!   and E13b times the E11b acc workload both ways. Equivalence is
//!   asserted in-line: cycle counts, return values, and rendered traces
//!   must be byte-identical between the two settle modes (E13d).
//! * **Shared characterization cache** (`crates/eucalyptus` →
//!   `crates/hls`): a suite of kernel flows characterizes each device
//!   once instead of once per flow. E13c times the E2 flow suite with the
//!   cache bypassed (every flow pays its own sweep — the pre-change
//!   behaviour) and with the cache active, and reports the hit/miss/bypass
//!   counter deltas.
//!
//! Wall-clock columns vary run to run; the structural claims (identical
//! outputs, activity factor in `(0, 1]`, event-driven never evaluates
//! more ops than full settle) are asserted, not just printed.

use crate::cells;
use crate::table::Table;
use crate::ExperimentOutput;
use hermes_hls::HlsFlow;
use hermes_rtl::netlist::NetId;
use hermes_rtl::sim::Simulator;
use std::time::Instant;

/// Argument pokes for one kernel run: `(net name, value)`.
type Pokes = &'static [(&'static str, u64)];

/// Scalar kernels that co-simulate through the raw netlist interface
/// (`arg_*` pokes, `done`/`ret_q` nets): name, C-subset source, pokes.
const KERNELS: &[(&str, &str, Pokes)] = &[
    (
        "acc",
        "int acc(int n) { int s = 0; for (int i = 0; i < n; i += 1) { s += i * i; } return s; }",
        &[("arg_n", 200)],
    ),
    (
        "gcd",
        "int gcd(int a, int b) { while (b != 0) { int t = b; b = a % b; a = t; } return a; }",
        &[("arg_a", 3528), ("arg_b", 3780)],
    ),
    (
        "isqrt",
        "int isqrt(int n) { int r = 0; while ((r + 1) * (r + 1) <= n) { r = r + 1; } return r; }",
        &[("arg_n", 1 << 20)],
    ),
];

/// One co-simulation run to `done` in the requested settle mode.
struct SimRun {
    cycles: u64,
    ret: u64,
    settle_ops: u64,
    settle_passes: u64,
    program_len: usize,
    trace: String,
    secs: f64,
}

fn run_kernel(
    nl: &hermes_rtl::netlist::Netlist,
    pokes: &[(&str, u64)],
    event_driven: bool,
    reps: u32,
) -> SimRun {
    let done = nl.net_by_name("done").expect("done net");
    let ret = nl.net_by_name("ret_q").expect("ret net");
    let traced: Vec<NetId> = vec![done, ret];
    let mut last = None;
    let start = Instant::now();
    for _ in 0..reps {
        let mut sim = Simulator::new(nl).expect("valid netlist");
        sim.set_event_driven(event_driven);
        sim.enable_trace(&traced);
        for &(name, value) in pokes {
            sim.poke(name, value).expect("argument net exists");
        }
        let mut cycles = 0u64;
        while sim.peek_net(done) != 1 {
            sim.step().expect("step");
            cycles += 1;
            assert!(cycles < 1_000_000, "kernel never finished");
        }
        last = Some((cycles, sim.peek_net(ret), sim));
    }
    let secs = start.elapsed().as_secs_f64();
    let (cycles, retv, mut sim) = last.expect("reps >= 1");
    SimRun {
        cycles,
        ret: retv,
        settle_ops: sim.settle_ops(),
        settle_passes: sim.settle_passes(),
        program_len: sim.settle_program_len(),
        trace: sim.take_trace().expect("trace enabled").render(nl),
        secs,
    }
}

/// Run E13 with a flight recorder (RTL counters under `rtl-event`); the
/// E13c cache comparison runs E2 on `jobs` workers.
pub fn run(jobs: usize, obs: &hermes_obs::Recorder) -> ExperimentOutput {
    // E13a: per-kernel activity factor, event-driven vs full settle.
    let hls = HlsFlow::new().unroll_limit(0);
    let mut act = Table::new(&[
        "kernel", "cycles", "program_ops", "full_ops", "event_ops", "activity", "reduction",
    ]);
    let mut traces = Table::new(&["kernel", "trace_rows", "trace_bytes", "event_vs_full"]);
    for (name, source, pokes) in KERNELS {
        let design = hls.compile(source).unwrap_or_else(|e| panic!("{name}: {e}"));
        let nl = design.netlist();
        let full = run_kernel(nl, pokes, false, 1);
        let event = run_kernel(nl, pokes, true, 1);
        assert_eq!(full.cycles, event.cycles, "{name}: cycle counts must agree");
        assert_eq!(full.ret, event.ret, "{name}: return values must agree");
        assert_eq!(full.trace, event.trace, "{name}: traces must be byte-identical");
        assert_eq!(full.settle_passes, event.settle_passes, "{name}: same pass count");
        assert_eq!(
            full.settle_ops,
            full.settle_passes * full.program_len as u64,
            "{name}: full settle evaluates the whole program each pass"
        );
        assert!(
            event.settle_ops <= full.settle_ops,
            "{name}: event-driven can never evaluate more ops"
        );
        let activity = event.settle_ops as f64 / full.settle_ops as f64;
        assert!(activity > 0.0 && activity <= 1.0, "{name}: activity {activity}");
        act.row(cells![
            name,
            full.cycles,
            full.program_len,
            full.settle_ops,
            event.settle_ops,
            format!("{activity:.3}"),
            format!("{:.2}x", 1.0 / activity),
        ]);
        traces.row(cells![
            name,
            full.trace.lines().count().saturating_sub(1),
            full.trace.len(),
            "identical",
        ]);
    }

    // E13b: the E11b workload (acc(2000) x6) timed in both settle modes.
    let design = hls
        .compile(KERNELS[0].1)
        .expect("acc compiles");
    let nl = design.netlist();
    let pokes: &[(&str, u64)] = &[("arg_n", 2_000)];
    let full = run_kernel(nl, pokes, false, 6);
    let event = run_kernel(nl, pokes, true, 6);
    assert_eq!(full.cycles, event.cycles);
    assert_eq!(full.ret, event.ret);
    assert_eq!(full.trace, event.trace);
    let ops_reduction = full.settle_ops as f64 / event.settle_ops as f64;
    let mut wall = Table::new(&["settle mode", "ops_evaluated", "wall_ms", "kcycles/s", "speedup"]);
    for (mode, r) in [("full (pre-opt)", &full), ("event-driven", &event)] {
        wall.row(cells![
            mode,
            r.settle_ops,
            format!("{:.1}", r.secs * 1e3),
            format!("{:.0}", (r.cycles * 6) as f64 / r.secs / 1e3),
            format!("{:.2}x", full.secs / r.secs),
        ]);
    }
    {
        // export the event-driven counters so E12-style trace consumers
        // see the activity factor (settle_ops vs settle_ops_full)
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
        "E13a: settle activity factor per kernel (event-driven vs full, equivalence asserted)\n{}\n\
         E13b: E11b workload acc(2000) x6, settle ops reduced {:.1}x\n{}\n\
         E13c: E2 flow suite, characterization sweep per flow vs shared cache ({} workers)\n{}\n\
         E13d: traced output, event-driven vs full settle\n{}",
        act.render(),
        ops_reduction,
        wall.render(),
        jobs,
        cachet.render(),
        traces.render(),
    );
    ExperimentOutput::new(text)
        .with("e13a", "settle activity factor", act)
        .with("e13b", "acc workload settle modes", wall)
        .with("e13c", "characterization cache", cachet)
        .with("e13d", "trace equivalence", traces)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_agree_across_settle_modes() {
        let hls = HlsFlow::new().unroll_limit(0);
        for (name, source, pokes) in KERNELS {
            let design = hls.compile(source).unwrap_or_else(|e| panic!("{name}: {e}"));
            let full = run_kernel(design.netlist(), pokes, false, 1);
            let event = run_kernel(design.netlist(), pokes, true, 1);
            assert_eq!(full.ret, event.ret, "{name}");
            assert_eq!(full.trace, event.trace, "{name}");
            assert!(event.settle_ops < full.settle_ops, "{name}: some gating");
        }
    }

    #[test]
    fn gcd_kernel_computes_gcd() {
        let hls = HlsFlow::new().unroll_limit(0);
        let design = hls.compile(KERNELS[1].1).expect("gcd compiles");
        let run = run_kernel(design.netlist(), KERNELS[1].2, true, 1);
        assert_eq!(run.ret, 252, "gcd(3528, 3780)");
    }
}
