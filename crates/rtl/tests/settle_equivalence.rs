//! Differential property tests for the settle engine: on randomly
//! generated netlists, the production simulator (event-driven settle,
//! gated clock edge) must agree with the independent full-settle
//! interpreter in `support/reference.rs` on every net value, every
//! register's stored state, and every trace row, across long runs of
//! random pokes and mid-run resets (deterministic `DetRng` loops — no
//! external dependencies). Generator profiles bias toward RAM-heavy,
//! wide-bus, 1-bit-heavy, register-heavy and wire-heavy shapes so the
//! engine's fast paths (the rank-major event scan over wide and narrow
//! masks, the gated clock edge) are all exercised, and every
//! combinational cell, `ZeroExtend` wires included, must compile to one
//! settle op. Every net's value must also fit its declared width.

#[path = "support/reference.rs"]
mod reference;

use hermes_rtl::component::Comparison;
use hermes_rtl::mask;
use hermes_rtl::netlist::{CellId, CellOp, NetId, Netlist};
use hermes_rtl::rng::DetRng;
use hermes_rtl::sim::Simulator;
use reference::ReferenceSimulator;

/// Shape bias for the random netlist generator.
#[derive(Clone, Copy)]
struct Profile {
    /// Net width range (inclusive low, exclusive high).
    w_lo: u64,
    w_hi: u64,
    /// Probability that a width roll is forced to 1 bit.
    bit_bias: f64,
    /// Cell count range.
    cells_lo: u64,
    cells_hi: u64,
    /// Extra kind-roll weight landing on the RAM arm (0 = baseline 1/20).
    ram_bias: u64,
    /// RAM depth range high bound.
    ram_depth_hi: u64,
    /// Extra kind-roll weight landing on the register arm (0 = baseline
    /// 1/20). A non-zero weight also wires registers to each other: `d`
    /// often reads an earlier register's `q`, and `en` is sometimes the
    /// `d` net itself.
    reg_bias: u64,
    /// Extra kind-roll weight landing on the `ZeroExtend` arm (0 = baseline
    /// 1/20). A non-zero weight also makes most of them same-width or
    /// widening (wires) and often chains them onto the newest net.
    zext_bias: u64,
}

const BASELINE: Profile = Profile {
    w_lo: 1,
    w_hi: 33,
    bit_bias: 0.0,
    cells_lo: 5,
    cells_hi: 40,
    ram_bias: 0,
    ram_depth_hi: 17,
    reg_bias: 0,
    zext_bias: 0,
};

/// RAM-dominated: every other cell is a dual-port memory, deeper than
/// the baseline, so step()'s port sampling and read-first commits get a
/// dense workout against all engines.
const RAM_HEAVY: Profile = Profile {
    ram_bias: 20,
    ram_depth_hi: 65,
    cells_lo: 8,
    cells_hi: 30,
    ..BASELINE
};

/// Wide buses only (33–64 bits): shifts and sign arithmetic run at full
/// width.
const WIDE_BUS: Profile = Profile {
    w_lo: 33,
    w_hi: 65,
    cells_lo: 8,
    cells_hi: 40,
    ..BASELINE
};

/// 1-bit-heavy: most nets are single-bit and the netlist is large, so
/// 1-bit logic, muxes and comparisons (signed ones included) dominate
/// the program.
const BIT_HEAVY: Profile = Profile {
    bit_bias: 0.75,
    cells_lo: 60,
    cells_hi: 160,
    ..BASELINE
};

/// Register-dominated: about half the cells are registers of 1 to 64
/// bits, chained `q` to `d` with no logic between, so the clock edge's
/// dirty marking carries most of the activity.
const REG_HEAVY: Profile = Profile {
    w_hi: 65,
    bit_bias: 0.4,
    cells_lo: 20,
    cells_hi: 80,
    reg_bias: 18,
    ..BASELINE
};

/// Wire-heavy: about half the cells are `ZeroExtend`s, mostly
/// same-width or widening and often chained, mixed with registers and
/// RAMs, so wire outputs feed register `d`/`en`, RAM ports and outputs,
/// and RAM read data flows through wires. A RAM's two read ports get
/// independent widths.
const WIRE_HEAVY: Profile = Profile {
    bit_bias: 0.2,
    cells_lo: 30,
    cells_hi: 90,
    ram_bias: 3,
    reg_bias: 5,
    zext_bias: 24,
    ..BASELINE
};

/// Build a random, structurally valid netlist: combinational cells only
/// read already-created nets (so the graph is acyclic by construction),
/// registers and RAMs may read anything and source fresh nets.
fn random_netlist(rng: &mut DetRng) -> Netlist {
    random_netlist_with(rng, BASELINE)
}

fn random_netlist_with(rng: &mut DetRng, profile: Profile) -> Netlist {
    let mut nl = Netlist::new("rand");
    let mut pool: Vec<NetId> = Vec::new();
    let mut reg_qs: Vec<NetId> = Vec::new();
    for i in 0..rng.range_u64(1, 5) {
        pool.push(nl.add_input(format!("in{i}"), rng.range_u64(profile.w_lo, profile.w_hi) as u32));
    }
    let cells = rng.range_u64(profile.cells_lo, profile.cells_hi);
    for c in 0..cells {
        let pick = |rng: &mut DetRng, pool: &[NetId]| pool[rng.below(pool.len() as u64) as usize];
        let w = |rng: &mut DetRng| {
            if rng.chance(profile.bit_bias) {
                1
            } else {
                rng.range_u64(profile.w_lo, profile.w_hi) as u32
            }
        };
        // rolls past the named arms land on the RAM arm; `ram_bias`
        // widens that tail, `reg_bias` adds a tail of register rolls and
        // `zext_bias` one of `ZeroExtend` rolls
        let tails = profile.ram_bias + profile.reg_bias;
        let kind = match rng.below(20 + tails + profile.zext_bias) {
            k if k >= 20 + tails => 16,
            k if k >= 20 + profile.ram_bias => 18,
            k => k,
        };
        let a = pick(rng, &pool);
        let b = pick(rng, &pool);
        let sel = pick(rng, &pool);
        let out = match kind {
            0 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(format!("c{c}"), CellOp::Add, &[a, b], &[y]).unwrap();
                y
            }
            1 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(format!("c{c}"), CellOp::Sub, &[a, b], &[y]).unwrap();
                y
            }
            2 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(format!("c{c}"), CellOp::Mul, &[a, b], &[y]).unwrap();
                y
            }
            3 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(format!("c{c}"), CellOp::Div, &[a, b], &[y]).unwrap();
                y
            }
            4 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(format!("c{c}"), CellOp::Mod, &[a, b], &[y]).unwrap();
                y
            }
            5 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(format!("c{c}"), CellOp::And, &[a, b], &[y]).unwrap();
                y
            }
            6 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(format!("c{c}"), CellOp::Or, &[a, b], &[y]).unwrap();
                y
            }
            7 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(format!("c{c}"), CellOp::Xor, &[a, b], &[y]).unwrap();
                y
            }
            8 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(format!("c{c}"), CellOp::Not, &[a], &[y]).unwrap();
                y
            }
            9 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(format!("c{c}"), CellOp::Shl, &[a, b], &[y]).unwrap();
                y
            }
            10 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(format!("c{c}"), CellOp::ShrL, &[a, b], &[y]).unwrap();
                y
            }
            11 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(format!("c{c}"), CellOp::ShrA, &[a, b], &[y]).unwrap();
                y
            }
            12 => {
                let cmp = match rng.below(4) {
                    0 => Comparison::Eq,
                    1 => Comparison::LtS,
                    2 => Comparison::GeU,
                    _ => Comparison::Ne,
                };
                let y = nl.add_net(format!("y{c}"), 1);
                nl.add_cell(format!("c{c}"), CellOp::Cmp(cmp), &[a, b], &[y]).unwrap();
                y
            }
            13 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(format!("c{c}"), CellOp::Mux, &[sel, a, b], &[y]).unwrap();
                y
            }
            14 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(
                    format!("c{c}"),
                    CellOp::Const { value: rng.next_u64() },
                    &[],
                    &[y],
                )
                .unwrap();
                y
            }
            15 => {
                let aw = nl.net(a).width;
                let lo = rng.below(u64::from(aw)) as u32;
                let hi = lo + rng.below(u64::from(aw - lo)) as u32;
                let y = nl.add_net(format!("y{c}"), hi - lo + 1);
                nl.add_cell(format!("c{c}"), CellOp::Slice { lo, hi }, &[a], &[y]).unwrap();
                y
            }
            16 => {
                let (src, width) = if profile.zext_bias > 0 {
                    let src = if rng.chance(0.5) { pool[pool.len() - 1] } else { a };
                    let sw = nl.net(src).width;
                    // same width, wider, or (1 in 8) any width
                    let width = match rng.below(8) {
                        0..=3 => sw,
                        4..=6 => (sw + rng.range_u64(1, 9) as u32).min(64),
                        _ => w(rng),
                    };
                    (src, width)
                } else {
                    (a, w(rng))
                };
                let y = nl.add_net(format!("y{c}"), width);
                nl.add_cell(format!("c{c}"), CellOp::ZeroExtend, &[src], &[y]).unwrap();
                y
            }
            17 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(format!("c{c}"), CellOp::SignExtend, &[a], &[y]).unwrap();
                y
            }
            18 => {
                let has_enable = rng.chance(0.5);
                let q = nl.add_net(format!("q{c}"), w(rng));
                let (mut d, mut en) = (a, sel);
                if profile.reg_bias > 0 {
                    if !reg_qs.is_empty() && rng.chance(0.6) {
                        d = pick(rng, &reg_qs);
                    }
                    if rng.chance(0.3) {
                        en = d;
                    }
                }
                let ins: Vec<NetId> = if has_enable { vec![d, en] } else { vec![d] };
                nl.add_cell(
                    format!("c{c}"),
                    CellOp::Register {
                        has_enable,
                        has_reset: rng.chance(0.7),
                    },
                    &ins,
                    &[q],
                )
                .unwrap();
                reg_qs.push(q);
                q
            }
            _ => {
                let depth = rng.range_u64(4, profile.ram_depth_hi) as u32;
                let dw = w(rng);
                let init: Vec<u64> = (0..depth).map(|_| rng.next_u64()).collect();
                // the wire-heavy profile also gives port b its own width
                let bw = if profile.zext_bias > 0 { w(rng) } else { dw };
                let ra = nl.add_net(format!("ra{c}"), dw);
                let rb = nl.add_net(format!("rb{c}"), bw);
                let (wa, wb) = (pick(rng, &pool), pick(rng, &pool));
                let (ea, eb) = (pick(rng, &pool), pick(rng, &pool));
                nl.add_cell(
                    format!("c{c}"),
                    CellOp::RamTdp { depth, init },
                    &[a, wa, ea, b, wb, eb],
                    &[ra, rb],
                )
                .unwrap();
                pool.push(ra);
                rb
            }
        };
        pool.push(out);
    }
    // mark a few nets as outputs so the netlist resembles a real module
    for _ in 0..3 {
        let n = pool[rng.below(pool.len() as u64) as usize];
        nl.mark_output(n);
    }
    nl
}

/// Drive the production simulator and the reference in lockstep through
/// random pokes, mid-run resets, and steps, asserting every net, register,
/// and trace row stays identical throughout, and that every
/// combinational cell compiled to one settle op.
fn lockstep(nl: &Netlist, rng: &mut DetRng, cycles: u64, reset_p: f64, tag: &str) {
    nl.validate().expect("generated netlist is structurally valid");
    let inputs: Vec<NetId> = nl.inputs().to_vec();
    let reg_cells: Vec<CellId> = nl
        .cells()
        .filter(|(_, c)| matches!(c.op, CellOp::Register { .. }))
        .map(|(cid, _)| cid)
        .collect();
    // the first and the last 8 nets: inputs and early logic, and the
    // newest cells, where a profile's chains end
    let ids: Vec<NetId> = nl.nets().map(|(id, _)| id).collect();
    let traced: Vec<NetId> =
        ids.iter().take(8).chain(ids.iter().rev().take(8)).copied().collect();
    let mut sim = Simulator::new(nl).expect("sim builds");
    let mut oracle = ReferenceSimulator::new(nl);
    sim.enable_trace(&traced);
    oracle.enable_trace(&traced);
    for cycle in 0..cycles {
        if !inputs.is_empty() && rng.chance(0.3) {
            let id = inputs[rng.below(inputs.len() as u64) as usize];
            let v = rng.next_u64();
            sim.poke_net(id, v);
            oracle.poke_net(id, v);
        }
        if rng.chance(reset_p) {
            sim.reset();
            oracle.reset();
        }
        sim.step().expect("step");
        oracle.step();
        for (nid, net) in nl.nets() {
            let v = sim.peek_net(nid);
            assert_eq!(
                v,
                oracle.peek_net(nid),
                "{tag} cycle {cycle}: net {nid} diverged from the reference"
            );
            assert_eq!(
                v,
                mask(v, net.width),
                "{tag} cycle {cycle}: net {nid} holds bits above its width {}",
                net.width
            );
        }
        for &cid in &reg_cells {
            assert_eq!(
                sim.register_state(cid),
                oracle.register_state(cid),
                "{tag} cycle {cycle}: register {cid} diverged from the reference"
            );
        }
    }
    assert!(
        sim.settle_ops() <= sim.settle_passes() * sim.settle_program_len() as u64,
        "{tag}: event-driven can never do more work than full passes"
    );
    let trace = sim.take_trace().expect("trace enabled");
    assert_eq!(trace.rows, oracle.rows, "{tag}: trace rows diverged");
    let combinational = nl.cells().filter(|(_, c)| !c.op.is_sequential()).count();
    assert_eq!(sim.settle_program_len(), combinational, "{tag}: one op per combinational cell");
}

#[test]
fn event_driven_settle_equals_full_settle() {
    let mut rng = DetRng::new(0xE13_5E771E);
    for case in 0..24u64 {
        let nl = random_netlist(&mut rng);
        lockstep(&nl, &mut rng, 1000, 0.005, &format!("case {case}"));
    }
}

/// The dense-id Kahn pass in `Netlist` returns the hash-map oracle's
/// order, cell for cell, on every generator profile's netlists and on
/// three side-by-side copies of each.
#[test]
fn combinational_order_matches_the_hash_map_oracle() {
    let mut rng = DetRng::new(0x0D3E_0C5A);
    for (pname, profile) in [
        ("baseline", BASELINE),
        ("ram_heavy", RAM_HEAVY),
        ("wide_bus", WIDE_BUS),
        ("bit_heavy", BIT_HEAVY),
        ("reg_heavy", REG_HEAVY),
        ("wire_heavy", WIRE_HEAVY),
    ] {
        for case in 0..8u64 {
            let nl = random_netlist_with(&mut rng, profile);
            for (tag, nl) in [("", nl.clone()), (" tiled(3)", nl.tiled(3))] {
                let want = reference::combinational_order(&nl).expect("acyclic");
                assert_eq!(nl.combinational_order().unwrap(), want, "{pname} case {case}{tag}");
                assert_eq!(nl.validate().unwrap(), want, "{pname} case {case}{tag}");
            }
        }
    }
}

/// The reference check across generator profiles: RAM-heavy, wide-bus,
/// 1-bit-heavy, register-heavy and wire-heavy netlists through frequent
/// mid-run resets.
#[test]
fn every_profile_matches_the_reference() {
    let mut rng = DetRng::new(0xE16_7121);
    for (pname, profile) in [
        ("ram_heavy", RAM_HEAVY),
        ("wide_bus", WIDE_BUS),
        ("bit_heavy", BIT_HEAVY),
        ("reg_heavy", REG_HEAVY),
        ("wire_heavy", WIRE_HEAVY),
    ] {
        for case in 0..8u64 {
            let nl = random_netlist_with(&mut rng, profile);
            lockstep(&nl, &mut rng, 400, 0.02, &format!("{pname} case {case}"));
            let wires = nl
                .cells()
                .filter(|(_, c)| {
                    matches!(c.op, CellOp::ZeroExtend)
                        && nl.net(c.outputs[0]).width >= nl.net(c.inputs[0]).width
                })
                .count();
            if profile.zext_bias > 0 {
                assert!(wires >= 8, "{pname} case {case}: only {wires} wires");
            }
        }
    }
}
