//! Differential property tests for the settle engines: on randomly
//! generated netlists, the event-driven and bit-packed simulators must
//! agree with a forced scalar full-program simulator on every net value,
//! every register's stored state, and every trace row,
//! across long runs of random pokes and mid-run resets (deterministic
//! `DetRng` loops — no external dependencies). Generator profiles bias
//! toward RAM-heavy, wide-bus, and 1-bit-heavy shapes so each engine's
//! fast paths (packed words, aligned slots) are all exercised.

use hermes_rtl::component::Comparison;
use hermes_rtl::netlist::{CellId, CellOp, NetId, Netlist};
use hermes_rtl::rng::DetRng;
use hermes_rtl::sim::Simulator;

/// Shape bias for the random netlist generator.
#[derive(Clone, Copy)]
struct Profile {
    /// Net width range (inclusive low, exclusive high).
    w_lo: u64,
    w_hi: u64,
    /// Probability that a width roll is forced to 1 bit (packing fodder).
    bit_bias: f64,
    /// Cell count range.
    cells_lo: u64,
    cells_hi: u64,
    /// Extra kind-roll weight landing on the RAM arm (0 = baseline 1/20).
    ram_bias: u64,
    /// RAM depth range high bound.
    ram_depth_hi: u64,
}

const BASELINE: Profile = Profile {
    w_lo: 1,
    w_hi: 33,
    bit_bias: 0.0,
    cells_lo: 5,
    cells_hi: 40,
    ram_bias: 0,
    ram_depth_hi: 17,
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

/// Wide buses only (33–64 bits): nothing packs, shifts and sign
/// arithmetic run at full width.
const WIDE_BUS: Profile = Profile {
    w_lo: 33,
    w_hi: 65,
    cells_lo: 8,
    cells_hi: 40,
    ..BASELINE
};

/// 1-bit-heavy: most nets are single-bit and the netlist is large, so
/// the compiler forms many packed words (including partial and aligned
/// ones).
const BIT_HEAVY: Profile = Profile {
    bit_bias: 0.75,
    cells_lo: 60,
    cells_hi: 160,
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
        // widens that tail
        let kind = rng.below(20 + profile.ram_bias);
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
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(format!("c{c}"), CellOp::ZeroExtend, &[a], &[y]).unwrap();
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
                let ins: Vec<NetId> = if has_enable { vec![a, sel] } else { vec![a] };
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
                q
            }
            _ => {
                let depth = rng.range_u64(4, profile.ram_depth_hi) as u32;
                let dw = w(rng);
                let init: Vec<u64> = (0..depth).map(|_| rng.next_u64()).collect();
                let ra = nl.add_net(format!("ra{c}"), dw);
                let rb = nl.add_net(format!("rb{c}"), dw);
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

#[test]
fn event_driven_settle_equals_full_settle() {
    let mut rng = DetRng::new(0xE13_5E771E);
    for case in 0..24u64 {
        let nl = random_netlist(&mut rng);
        nl.validate().expect("generated netlist is structurally valid");
        let inputs: Vec<NetId> = nl.inputs().to_vec();
        let reg_cells: Vec<CellId> = nl
            .cells()
            .filter(|(_, c)| matches!(c.op, CellOp::Register { .. }))
            .map(|(cid, _)| cid)
            .collect();
        let traced: Vec<NetId> = nl.nets().map(|(id, _)| id).take(8).collect();

        let mut ev = Simulator::new(&nl).expect("event sim builds");
        let mut full = Simulator::new(&nl).expect("full sim builds");
        ev.set_event_driven(true);
        full.set_event_driven(false);
        ev.enable_trace(&traced);
        full.enable_trace(&traced);

        for cycle in 0..1000u64 {
            if rng.chance(0.3) {
                let id = inputs[rng.below(inputs.len() as u64) as usize];
                let v = rng.next_u64();
                ev.poke_net(id, v);
                full.poke_net(id, v);
            }
            if rng.chance(0.005) {
                ev.reset();
                full.reset();
            }
            ev.step().expect("event step");
            full.step().expect("full step");
            for (nid, _) in nl.nets() {
                assert_eq!(
                    ev.peek_net(nid),
                    full.peek_net(nid),
                    "case {case} cycle {cycle}: net {nid} diverged"
                );
            }
            for &cid in &reg_cells {
                assert_eq!(
                    ev.register_state(cid),
                    full.register_state(cid),
                    "case {case} cycle {cycle}: register {cid} diverged"
                );
            }
        }
        assert_eq!(ev.settle_passes(), full.settle_passes(), "case {case}");
        assert!(
            ev.settle_ops() <= full.settle_ops(),
            "case {case}: event-driven can never do more work"
        );
        let (te, tf) = (ev.take_trace().unwrap(), full.take_trace().unwrap());
        assert_eq!(te.rows, tf.rows, "case {case}: trace rows diverged");
        assert_eq!(
            te.render(&nl),
            tf.render(&nl),
            "case {case}: rendered traces diverged"
        );
    }
}

/// Drive a panel of simulators in lockstep through random pokes, mid-run
/// resets, and steps, asserting every net, register, and trace row stays
/// identical to the reference (index 0) throughout.
fn lockstep(
    nl: &Netlist,
    sims: &mut [(&'static str, Simulator)],
    rng: &mut DetRng,
    cycles: u64,
    reset_p: f64,
    tag: &str,
) {
    let inputs: Vec<NetId> = nl.inputs().to_vec();
    let reg_cells: Vec<CellId> = nl
        .cells()
        .filter(|(_, c)| matches!(c.op, CellOp::Register { .. }))
        .map(|(cid, _)| cid)
        .collect();
    let traced: Vec<NetId> = nl.nets().map(|(id, _)| id).take(8).collect();
    for (_, s) in sims.iter_mut() {
        s.enable_trace(&traced);
    }
    for cycle in 0..cycles {
        if !inputs.is_empty() && rng.chance(0.3) {
            let id = inputs[rng.below(inputs.len() as u64) as usize];
            let v = rng.next_u64();
            for (_, s) in sims.iter_mut() {
                s.poke_net(id, v);
            }
        }
        if rng.chance(reset_p) {
            for (_, s) in sims.iter_mut() {
                s.reset();
            }
        }
        for (_, s) in sims.iter_mut() {
            s.step().expect("step");
        }
        let (ref_name, reference) = &sims[0];
        for (name, s) in &sims[1..] {
            for (nid, _) in nl.nets() {
                assert_eq!(
                    s.peek_net(nid),
                    reference.peek_net(nid),
                    "{tag} cycle {cycle}: net {nid} diverged ({name} vs {ref_name})"
                );
            }
            for &cid in &reg_cells {
                assert_eq!(
                    s.register_state(cid),
                    reference.register_state(cid),
                    "{tag} cycle {cycle}: register {cid} diverged ({name} vs {ref_name})"
                );
            }
        }
    }
    let reference = sims[0].1.take_trace().unwrap();
    for (name, s) in &mut sims[1..] {
        let t = s.take_trace().unwrap();
        assert_eq!(t.rows, reference.rows, "{tag}: trace rows diverged ({name})");
    }
}

/// Triple check across generator profiles: packed-event vs scalar-event
/// vs scalar-full must stay bit-identical on RAM-heavy, wide-bus, and
/// 1-bit-heavy netlists through frequent mid-run resets.
#[test]
fn packed_scalar_full_triple_check() {
    let mut rng = DetRng::new(0xE16_7121);
    for (pname, profile) in [
        ("ram_heavy", RAM_HEAVY),
        ("wide_bus", WIDE_BUS),
        ("bit_heavy", BIT_HEAVY),
    ] {
        for case in 0..8u64 {
            let nl = random_netlist_with(&mut rng, profile);
            nl.validate().expect("generated netlist is structurally valid");
            let mut full = Simulator::new_with_packing(&nl, false).expect("full sim");
            full.set_event_driven(false);
            let packed = Simulator::new_with_packing(&nl, true).expect("packed sim");
            let scalar = Simulator::new_with_packing(&nl, true).expect("scalar sim");
            let mut scalar = scalar;
            // keep one event-driven sim genuinely scalar even on netlists
            // where the compiler would pack
            if scalar.packed_words() > 0 {
                scalar = Simulator::new_with_packing(&nl, false).expect("scalar rebuild");
            }
            let mut sims = [
                ("scalar_full", full),
                ("packed_event", packed),
                ("scalar_event", scalar),
            ];
            lockstep(
                &nl,
                &mut sims,
                &mut rng,
                400,
                0.02,
                &format!("{pname} case {case}"),
            );
        }
    }
}
