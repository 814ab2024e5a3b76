//! Technology mapping keeps the function of the RTL it maps. A
//! combinational evaluator for `PrimNetlist` (LUT4 through its truth
//! table, carry as sum and majority; flip-flop, DSP, block RAM and
//! input-pad outputs are free inputs) checks two things:
//!
//! * on every suite kernel, at default options and at E1/E2's
//!   `unroll_limit(0)`, folding constants into their readers' LUTs
//!   computes what the unfolded mapping computes: the netlist is mapped
//!   as is and once more with every `Const` cell replaced by a primary
//!   input held at the constant, and every flip-flop, DSP, block-RAM and
//!   output-pad input pin must agree over 64 random assignments;
//! * single cells with a constant operand (`Eq`, `Ne`, `Mux`) and adds
//!   and subtracts whose operands were fitted to their output agree with
//!   `hermes_rtl::Simulator` on random vectors, and `add_cell` refuses
//!   the same cells with operands of another width.

use hermes_bench::kernels;
use hermes_fpga::device::DeviceProfile;
use hermes_fpga::primitives::{CellName, PCellId, PrimNetlist, Primitive};
use hermes_fpga::synth::Synthesizer;
use hermes_hls::HlsFlow;
use hermes_obs::hash::Fnv1a;
use hermes_obs::Recorder;
use hermes_rtl::component::Comparison;
use hermes_rtl::mask;
use hermes_rtl::netlist::{CellId, CellOp, Netlist};
use hermes_rtl::rng::DetRng;
use hermes_rtl::sim::Simulator;
use hermes_rtl::RtlError;
use std::collections::{BTreeMap, HashMap};

fn map(nl: &Netlist) -> PrimNetlist {
    Synthesizer::new(DeviceProfile::ng_medium_like())
        .synthesize(nl)
        .unwrap_or_else(|e| panic!("{}: {e}", nl.name()))
        .prim
}

/// A LUT4 over 64 rounds at once: bit `r` of each word is round `r`.
/// Unconnected inputs read 0, as in `truth::eval`.
fn lut(truth: u16, inputs: &[u64]) -> u64 {
    (0..16)
        .filter(|&p| (truth >> p) & 1 == 1)
        .map(|p| {
            (0..4).fold(!0u64, |term, k| {
                let x = inputs.get(k).copied().unwrap_or(0);
                term & if (p >> k) & 1 == 1 { x } else { !x }
            })
        })
        .fold(0, |out, term| out | term)
}

/// Every net's value over 64 rounds. `free(name, pin)` gives output `pin`
/// of a free cell (flip-flop, DSP, block RAM or input pad) by instance
/// name; LUTs and carries are evaluated in dependency order.
///
/// # Panics
///
/// Panics if a net has two drivers, if a pin reads a net nothing drives,
/// or on a combinational loop.
fn evaluate(p: &PrimNetlist, mut free: impl FnMut(&str, usize) -> u64) -> Vec<u64> {
    let n = p.net_count() as usize;
    let mut value = vec![0u64; n];
    let mut driver = vec![None; n];
    let is_comb = |prim: Primitive| matches!(prim, Primitive::Lut4 { .. } | Primitive::Carry);
    for (id, c) in p.cells() {
        for &o in c.outputs {
            if let Some(other) = driver[o.0 as usize].replace(id) {
                panic!(
                    "{o} driven by {} and {}",
                    p.cell_name(other),
                    p.cell_name(id)
                );
            }
        }
        if !is_comb(c.prim) {
            let name = p.cell_name(id);
            for (pin, &o) in c.outputs.iter().enumerate() {
                value[o.0 as usize] = free(&name, pin);
            }
        }
    }
    // Kahn's order over the combinational cells
    let mut readers: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut waiting = vec![0usize; p.cell_count()];
    let mut ready = Vec::new();
    for (id, c) in p.cells() {
        for &i in c.inputs {
            let Some(d) = driver[i.0 as usize] else {
                panic!("{} reads {i}, which nothing drives", p.cell_name(id));
            };
            if is_comb(c.prim) && is_comb(p.cell(d).prim) {
                readers[i.0 as usize].push(id.0);
                waiting[id.0 as usize] += 1;
            }
        }
        if is_comb(c.prim) && waiting[id.0 as usize] == 0 {
            ready.push(id);
        }
    }
    let mut done = 0;
    while let Some(id) = ready.pop() {
        done += 1;
        let c = p.cell(id);
        let ins: Vec<u64> = c.inputs.iter().map(|i| value[i.0 as usize]).collect();
        let outs = match c.prim {
            Primitive::Lut4 { truth, .. } => vec![lut(truth, &ins)],
            _ => {
                let (a, b, cin) = (ins[0], ins[1], ins[2]);
                vec![a ^ b ^ cin, (a & b) | (a & cin) | (b & cin)]
            }
        };
        for (&o, v) in c.outputs.iter().zip(outs) {
            value[o.0 as usize] = v;
            for &r in &readers[o.0 as usize] {
                waiting[r as usize] -= 1;
                if waiting[r as usize] == 0 {
                    ready.push(PCellId(r));
                }
            }
        }
    }
    let comb = p.cells().filter(|(_, c)| is_comb(c.prim)).count();
    assert_eq!(done, comb, "{}: combinational loop", p.name);
    value
}

/// The input-pin values of every flip-flop, DSP, block RAM and output
/// pad, by instance name.
fn sinks(p: &PrimNetlist, value: &[u64]) -> BTreeMap<String, Vec<u64>> {
    p.cells()
        .filter(|(_, c)| {
            !matches!(
                c.prim,
                Primitive::Lut4 { .. } | Primitive::Carry | Primitive::IoPad { is_input: true }
            )
        })
        .map(|(id, c)| {
            (
                p.cell_name(id),
                c.inputs.iter().map(|i| value[i.0 as usize]).collect(),
            )
        })
        .collect()
}

/// 64 random rounds for output `pin` of the free cell `name`: the same
/// words for the same name in every netlist.
fn random_word(name: &str, pin: usize) -> u64 {
    let mut h = Fnv1a::new();
    h.str(name);
    h.u64(pin as u64);
    DetRng::new(h.finish()).next_u64()
}

/// `nl` with every `Const` cell replaced by a primary input of the same
/// net (ids are kept), and each replaced input's pad names with the word
/// that holds it at the constant.
fn consts_as_inputs(nl: &Netlist) -> (Netlist, HashMap<String, u64>) {
    let mut konst = HashMap::new();
    for (_, cell) in nl.cells() {
        if let CellOp::Const { value } = cell.op {
            konst.insert(cell.outputs[0], value);
        }
    }
    let mut out = Netlist::new(nl.name());
    let mut held = HashMap::new();
    for (id, net) in nl.nets() {
        let new = if let Some(&value) = konst.get(&id) {
            for i in 0..net.width {
                let bit = i < 64 && (value >> i) & 1 == 1;
                held.insert(format!("{}_pad{i}", net.name), if bit { !0 } else { 0 });
            }
            out.add_input(net.name.clone(), net.width)
        } else if nl.inputs().contains(&id) {
            out.add_input(net.name.clone(), net.width)
        } else {
            out.add_net(net.name.clone(), net.width)
        };
        assert_eq!(new, id, "net ids are kept");
    }
    for (_, cell) in nl.cells() {
        if !matches!(cell.op, CellOp::Const { .. }) {
            out.add_cell(
                cell.name.clone(),
                cell.op.clone(),
                &cell.inputs,
                &cell.outputs,
            )
            .expect("a cell of a valid netlist");
        }
    }
    for &o in nl.outputs() {
        out.mark_output(o);
    }
    (out, held)
}

/// Sink pins on which the folded and the unfolded mapping of `nl` differ,
/// one line each.
fn fold_mismatches(nl: &Netlist) -> Vec<String> {
    let folded = map(nl);
    let (unfolded_nl, held) = consts_as_inputs(nl);
    let unfolded = map(&unfolded_nl);
    let a = sinks(&folded, &evaluate(&folded, random_word));
    let b = sinks(
        &unfolded,
        &evaluate(&unfolded, |name, pin| {
            held.get(name)
                .copied()
                .unwrap_or_else(|| random_word(name, pin))
        }),
    );
    let mut faults = Vec::new();
    for (name, pins) in &a {
        match b.get(name) {
            Some(other) if other == pins => {}
            Some(other) => {
                let bad = pins.iter().zip(other).filter(|(x, y)| x != y).count();
                faults.push(format!("{name}: {bad} of {} pins differ", pins.len()));
            }
            None => faults.push(format!("{name}: only in the folded mapping")),
        }
    }
    faults.extend(
        b.keys()
            .filter(|k| !a.contains_key(*k))
            .map(|k| format!("{k}: only in the unfolded mapping")),
    );
    faults
}

#[test]
fn folded_constants_compute_the_unfolded_function_on_every_suite_kernel() {
    let hls = HlsFlow::new();
    let e2 = hls.clone().unroll_limit(0);
    let mut faults = Vec::new();
    for (label, flow) in [("default", &hls), ("unroll_limit(0)", &e2)] {
        for kernel in kernels::suite() {
            let design = kernel.compile(flow, &Recorder::disabled());
            for f in fold_mismatches(design.netlist()) {
                faults.push(format!("{} ({label}): {f}", kernel.name));
            }
        }
    }
    let shown: Vec<&str> = faults.iter().take(20).map(String::as_str).collect();
    assert!(
        faults.is_empty(),
        "{} mismatches:\n{}",
        faults.len(),
        shown.join("\n")
    );
}

/// Vectors of `nl` (one value per primary input, in `nl.inputs()` order)
/// on which an output of the mapped netlist differs from the RTL, counted
/// once per output per vector.
fn rtl_mismatches(nl: &Netlist, vectors: &[Vec<u64>]) -> usize {
    let prim = map(nl);
    let mut sim = Simulator::new(nl).expect("a valid netlist");
    let mut bad = 0;
    for batch in vectors.chunks(64) {
        let mut pads = HashMap::new();
        for (k, &input) in nl.inputs().iter().enumerate() {
            let net = nl.net(input);
            for i in 0..net.width {
                let word = batch
                    .iter()
                    .enumerate()
                    .fold(0u64, |w, (r, v)| w | ((v[k] >> i) & 1) << r);
                pads.insert(format!("{}_pad{i}", net.name), word);
            }
        }
        let value = evaluate(&prim, |name, _| pads[name]);
        let sink = sinks(&prim, &value);
        for (r, v) in batch.iter().enumerate() {
            for (&input, &x) in nl.inputs().iter().zip(v) {
                sim.poke_net(input, x);
            }
            for &out in nl.outputs() {
                let net = nl.net(out);
                let gates = (0..net.width).fold(0u64, |y, i| {
                    y | ((sink[&format!("{}_pad{i}", net.name)][0] >> r) & 1) << i
                });
                if gates != sim.peek_net(out) {
                    bad += 1;
                }
            }
        }
    }
    bad
}

/// `count` vectors for inputs of the given widths: each value is random,
/// or (for an input with a `near` value) that value with at most one bit
/// flipped half of the time, so compares against it also come out equal.
fn vectors(rng: &mut DetRng, widths: &[(u32, Option<u64>)], count: usize) -> Vec<Vec<u64>> {
    (0..count)
        .map(|_| {
            widths
                .iter()
                .map(|&(w, near)| {
                    let v = match near {
                        Some(k) if rng.chance(0.5) => {
                            let flip = rng.below(u64::from(w) + 1);
                            if flip < u64::from(w) {
                                k ^ (1 << flip)
                            } else {
                                k
                            }
                        }
                        _ => rng.next_u64(),
                    };
                    mask(v, w)
                })
                .collect()
        })
        .collect()
}

const WIDTHS: [u32; 7] = [1, 3, 4, 5, 9, 32, 64];

/// Constants to fold at width `w`: zero, all ones and a random value.
fn constants(rng: &mut DetRng, w: u32) -> [u64; 3] {
    [0, mask(!0, w), mask(rng.next_u64(), w)]
}

/// Asserts that `add_cell` refuses a cell whose pin widths break the
/// width contract, naming it.
fn assert_refused(r: Result<CellId, RtlError>, cell: &str) {
    match r {
        Err(RtlError::WidthMismatch { cell: named, .. }) => assert_eq!(named, cell),
        other => panic!("{cell}: expected a width mismatch, got {other:?}"),
    }
}

#[test]
fn equality_against_a_constant_matches_the_rtl() {
    let mut rng = DetRng::new(30);
    let mut failures = Vec::new();
    for cmp in [Comparison::Eq, Comparison::Ne] {
        for &w in &WIDTHS {
            // the other operand as wide as the constant; a narrower or a
            // wider one breaks the width contract
            for ow in [w, (w / 2).max(1), (w + 3).min(64)] {
                for value in constants(&mut rng, w) {
                    for const_first in [false, true] {
                        let mut nl = Netlist::new("t");
                        let x = nl.add_input("x", ow);
                        let k = nl.add_net("k", w);
                        nl.add_cell("kc", CellOp::Const { value }, &[], &[k])
                            .unwrap();
                        let y = nl.add_net("y", 1);
                        let ops = if const_first { [k, x] } else { [x, k] };
                        let cell = nl.add_cell("cmp", CellOp::Cmp(cmp), &ops, &[y]);
                        if ow != w {
                            assert_refused(cell, "cmp");
                            continue;
                        }
                        nl.mark_output(y);
                        let vs = vectors(&mut rng, &[(ow, Some(value))], 448);
                        let bad = rtl_mismatches(&nl, &vs);
                        if bad > 0 {
                            failures.push(format!(
                                "{cmp:?} w:{w} k={value:#x} const first {const_first}: {bad}/448"
                            ));
                        }
                    }
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn mux_with_a_constant_data_input_matches_the_rtl() {
    let mut rng = DetRng::new(31);
    let mut failures = Vec::new();
    for &w in &WIDTHS {
        for value in constants(&mut rng, w) {
            // the constant on either side, or both sides constant; data
            // inputs narrower than the output break the width contract
            for (side, dw) in [(1, w), (2, w), (1, (w / 2).max(1)), (3, w)] {
                let mut nl = Netlist::new("t");
                let sel = nl.add_input("sel", 1);
                let d = nl.add_input("d", dw);
                let k = nl.add_net("k", dw);
                nl.add_cell("kc", CellOp::Const { value }, &[], &[k])
                    .unwrap();
                let data = match side {
                    1 => [k, d],
                    2 => [d, k],
                    _ => {
                        let k2 = nl.add_net("k2", w);
                        let other = mask(value ^ 0b101, w);
                        nl.add_cell("kc2", CellOp::Const { value: other }, &[], &[k2])
                            .unwrap();
                        [k, k2]
                    }
                };
                let y = nl.add_net("y", w);
                let cell = nl.add_cell("mux", CellOp::Mux, &[sel, data[0], data[1]], &[y]);
                if dw != w {
                    assert_refused(cell, "mux");
                    continue;
                }
                nl.mark_output(y);
                let vs = vectors(&mut rng, &[(1, None), (dw, None)], 448);
                let bad = rtl_mismatches(&nl, &vs);
                if bad > 0 {
                    failures.push(format!("mux w:{w} k={value:#x} side {side}: {bad}/448"));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// An add or subtract cell with an operand narrower or wider than its
/// output is refused; fitted to the output first (a `ZeroExtend` widens,
/// a `Slice` narrows, as HLS fits operands), its mapping drives every
/// output bit as the RTL computes it.
#[test]
fn add_and_sub_with_a_narrow_operand_drive_every_output_bit() {
    let mut rng = DetRng::new(32);
    let mut failures = Vec::new();
    for op in [CellOp::Add, CellOp::Sub] {
        for (aw, bw, yw) in [
            (4, 4, 5),
            (8, 3, 8),
            (3, 8, 9),
            (16, 16, 32),
            (32, 8, 32),
            (9, 12, 6),
        ] {
            let mut nl = Netlist::new("t");
            let a = nl.add_input("a", aw);
            let b = nl.add_input("b", bw);
            let y = nl.add_net("y", yw);
            assert_refused(nl.add_cell("op", op.clone(), &[a, b], &[y]), "op");
            let mut fit = |net, w, tag: &str| {
                if w == yw {
                    return net;
                }
                let cell = if w < yw {
                    CellOp::ZeroExtend
                } else {
                    CellOp::Slice { lo: 0, hi: yw - 1 }
                };
                let out = nl.add_net(format!("{tag}_fit"), yw);
                nl.add_cell(format!("{tag}_fit"), cell, &[net], &[out]).unwrap();
                out
            };
            let ins = [fit(a, aw, "a"), fit(b, bw, "b")];
            nl.add_cell("op", op.clone(), &ins, &[y]).unwrap();
            nl.mark_output(y);
            let vs = vectors(&mut rng, &[(aw, None), (bw, None)], 448);
            let bad = rtl_mismatches(&nl, &vs);
            if bad > 0 {
                failures.push(format!("{op:?} a:{aw} b:{bw} y:{yw}: {bad}/448"));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The evaluator itself: an output pad that reads a net nothing drives
/// is refused, so an undriven output bit cannot pass as 0.
#[test]
#[should_panic(expected = "which nothing drives")]
fn evaluator_refuses_an_undriven_read() {
    let mut p = PrimNetlist::new("t");
    let floating = p.new_net();
    let base = p.add_string("y");
    let pad = Primitive::IoPad { is_input: false };
    p.add(
        CellName::of(base).at("_pad", 0),
        pad,
        &[floating],
        &[],
        base,
    );
    let _ = evaluate(&p, |_, _| 0);
}
