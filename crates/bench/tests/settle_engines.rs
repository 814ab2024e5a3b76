//! Every RTL settle engine, run in lockstep on real HLS netlists.
//!
//! The randomized differential tests in `hermes-rtl` cover generated
//! netlists; this test covers what the HLS flow actually emits. Every
//! suite kernel, plus the E16 `acc` kernel tiled four times, is built
//! once per engine through the typed hooks (`Simulator::new_with_packing`
//! and `Simulator::set_event_driven`). Each simulator is reset and given
//! the kernel's scalar arguments, then all of them step together while
//! every net value is compared against the scalar full-settle oracle on
//! every cycle. Kernels with an external-memory port read a fixed
//! pseudo-random word per address, so their datapaths see varied data.

use hermes_bench::{e16_wordparallel::ACC_SRC, kernels};
use hermes_hls::ir::ParamBinding;
use hermes_hls::{Design, HlsFlow};
use hermes_obs::Recorder;
use hermes_rtl::netlist::{NetId, Netlist};
use hermes_rtl::sim::Simulator;

/// Cycles each design is stepped for after the arguments are applied.
const CYCLES: u64 = 3_000;

/// `(name, packed, event_driven)`; the first entry is the oracle.
const ENGINES: [(&str, bool, bool); 4] = [
    ("scalar-full", false, false),
    ("scalar-event", false, true),
    ("packed-full", true, false),
    ("packed-event", true, true),
];

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
    let memory = nl
        .net_by_name("m_axi_addr")
        .zip(nl.net_by_name("m_axi_rdata"));
    let mut sims: Vec<Simulator> = ENGINES
        .iter()
        .map(|&(_, packed, event)| {
            let mut sim = Simulator::new_with_packing(nl, packed).expect("valid netlist");
            sim.set_event_driven(event);
            sim.reset();
            for (name, value) in pokes {
                sim.poke(name, *value).expect("argument input exists");
            }
            sim
        })
        .collect();
    for cycle in 0..=CYCLES {
        if cycle > 0 {
            for sim in &mut sims {
                if let Some((addr, rdata)) = memory {
                    let word = memory_word(sim.peek_net(addr));
                    sim.poke_net(rdata, word);
                }
                sim.step().expect("step");
            }
        }
        let (oracle, rest) = sims.split_first().expect("oracle engine");
        for (sim, (engine, ..)) in rest.iter().zip(&ENGINES[1..]) {
            for &net in &nets {
                let (want, got) = (oracle.peek_net(net), sim.peek_net(net));
                assert_eq!(
                    got,
                    want,
                    "{label}: {engine} diverges from scalar-full on net `{}` at cycle {cycle}",
                    nl.net(net).name
                );
            }
        }
    }
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
