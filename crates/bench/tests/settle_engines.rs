//! The RTL settle engine, run in lockstep with the reference interpreter
//! on real HLS netlists.
//!
//! The randomized differential tests in `hermes-rtl` cover generated
//! netlists; this test covers what the HLS flow actually emits. Every
//! suite kernel, plus the E16 `acc` kernel tiled four times, is run on
//! the production `Simulator` and on the independent full-settle
//! `ReferenceSimulator` (`crates/rtl/tests/support/reference.rs`). Both
//! are reset and given the kernel's scalar arguments, then step together
//! while every net value and every register's state is compared on every
//! cycle, and the traced output rows at the end. Kernels with an
//! external-memory port read a fixed pseudo-random word per address, so
//! their datapaths see varied data.

#[path = "../../rtl/tests/support/reference.rs"]
mod reference;

use hermes_bench::{e16_wordparallel::ACC_SRC, kernels};
use hermes_hls::ir::ParamBinding;
use hermes_hls::{Design, HlsFlow};
use hermes_obs::Recorder;
use hermes_rtl::netlist::{CellId, CellOp, NetId, Netlist};
use hermes_rtl::sim::Simulator;
use reference::ReferenceSimulator;

/// Cycles each design is stepped for after the arguments are applied.
const CYCLES: u64 = 3_000;

/// `arg_<param>` input pokes for the design's scalar parameters, in
/// parameter order.
fn arg_pokes(design: &Design, args: &[i64]) -> Vec<(String, u64)> {
    let scalars = design
        .ir
        .params
        .iter()
        .filter(|(_, binding)| matches!(binding, ParamBinding::Scalar(_)));
    scalars
        .zip(args)
        .map(|((name, _), &value)| (format!("arg_{name}"), value as u64))
        .collect()
}

/// The word the external memory returns for `addr` (12 bits, so loop
/// bounds and indices derived from it stay small).
fn memory_word(addr: u64) -> u64 {
    (addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52) & 0xFFF
}

fn assert_lockstep(label: &str, nl: &Netlist, pokes: &[(String, u64)]) {
    let nets: Vec<NetId> = nl.nets().map(|(id, _)| id).collect();
    let reg_cells: Vec<CellId> = nl
        .cells()
        .filter(|(_, c)| matches!(c.op, CellOp::Register { .. }))
        .map(|(cid, _)| cid)
        .collect();
    let memory = nl
        .net_by_name("m_axi_addr")
        .zip(nl.net_by_name("m_axi_rdata"));
    let mut sim = Simulator::new(nl).expect("valid netlist");
    let mut oracle = ReferenceSimulator::new(nl);
    sim.enable_trace(nl.outputs());
    oracle.enable_trace(nl.outputs());
    sim.reset();
    oracle.reset();
    for (name, value) in pokes {
        let input = nl.net_by_name(name).expect("argument input exists");
        sim.poke_net(input, *value);
        oracle.poke_net(input, *value);
    }
    for cycle in 0..=CYCLES {
        if cycle > 0 {
            if let Some((addr, rdata)) = memory {
                sim.poke_net(rdata, memory_word(sim.peek_net(addr)));
                oracle.poke_net(rdata, memory_word(oracle.peek_net(addr)));
            }
            sim.step().expect("step");
            oracle.step();
        }
        for &net in &nets {
            assert_eq!(
                sim.peek_net(net),
                oracle.peek_net(net),
                "{label}: diverges from the reference on net `{}` at cycle {cycle}",
                nl.net(net).name
            );
        }
        for &cid in &reg_cells {
            assert_eq!(
                sim.register_state(cid),
                oracle.register_state(cid),
                "{label}: register {cid} diverges from the reference at cycle {cycle}"
            );
        }
    }
    let trace = sim.take_trace().expect("trace enabled");
    assert_eq!(trace.rows, oracle.rows, "{label}: trace rows diverge");
}

#[test]
fn suite_kernels_settle_identically_on_every_engine() {
    let flow = HlsFlow::new();
    for kernel in kernels::suite() {
        let design = kernel.compile(&flow, &Recorder::disabled());
        let pokes = arg_pokes(&design, &kernel.args);
        assert!(!pokes.is_empty(), "{}: no scalar arguments", kernel.name);
        assert_lockstep(kernel.name, design.netlist(), &pokes);
    }
}

#[test]
fn tiled_acc_settles_identically_on_every_engine() {
    let design = HlsFlow::new()
        .unroll_limit(0)
        .compile(ACC_SRC)
        .expect("acc compiles");
    let tiled = design.netlist().tiled(4);
    let pokes: Vec<(String, u64)> = (0..4)
        .map(|k| (format!("u{k}_arg_n"), 20 + 7 * k as u64))
        .collect();
    assert_lockstep("acc x4", &tiled, &pokes);
}
