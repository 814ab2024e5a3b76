//! HLS connects each value's net straight to its readers. On every suite
//! kernel (at default options and at E1/E2's `unroll_limit(0)`) and on
//! `acc`, the coarse netlist holds no wire cell (a `ZeroExtend` whose
//! output is as wide as its input, or a `_tie`), no register that nothing
//! writes (one whose enable is a constant 0, seen through any wires).
//! No two cells share a name either: `Netlist::validate`, which HLS runs
//! on every netlist it emits, refuses that.

use hermes_bench::e16_activity::ACC_SRC;
use hermes_bench::kernels;
use hermes_hls::HlsFlow;
use hermes_obs::Recorder;
use hermes_rtl::netlist::{Cell, CellOp, Netlist};

/// Every shape fault of `nl`, one line each.
fn shape_faults(nl: &Netlist) -> Vec<String> {
    let drivers = nl.driver_map().expect("single drivers");
    let is_wire = |c: &Cell| {
        c.op == CellOp::ZeroExtend && nl.net(c.inputs[0]).width == nl.net(c.outputs[0]).width
    };
    let mut faults = Vec::new();
    for (_, cell) in nl.cells() {
        if cell.name.ends_with("_tie") {
            faults.push(format!("tie-off cell {}", cell.name));
        }
        if is_wire(cell) {
            faults.push(format!("wire cell {}", cell.name));
        }
        if let CellOp::Register { has_enable: true, .. } = cell.op {
            // follow wires back to the enable's source
            let mut en = cell.inputs[1];
            let root = loop {
                let Some(src) = drivers[en.0 as usize].map(|c| nl.cell(c)) else {
                    break None;
                };
                if is_wire(src) {
                    en = src.inputs[0];
                } else {
                    break Some(src);
                }
            };
            if matches!(root, Some(c) if c.op == CellOp::Const { value: 0 }) {
                faults.push(format!("register {} has no writer", cell.name));
            }
        }
    }
    faults
}

#[test]
fn hls_netlists_hold_no_wires_ties_writerless_registers_or_duplicate_names() {
    let hls = HlsFlow::new();
    let acc = hls.compile(ACC_SRC).expect("acc compiles");
    let e2 = hls.clone().unroll_limit(0);
    let mut faults = Vec::new();
    for (label, flow) in [("default", &hls), ("unroll_limit(0)", &e2)] {
        for kernel in kernels::suite() {
            let design = kernel.compile(flow, &Recorder::disabled());
            for f in shape_faults(design.netlist()) {
                faults.push(format!("{} ({label}): {f}", kernel.name));
            }
        }
    }
    let acc_e16 = e2.compile(ACC_SRC).expect("acc compiles");
    for (label, design) in [("default", &acc), ("unroll_limit(0)", &acc_e16)] {
        for f in shape_faults(design.netlist()) {
            faults.push(format!("acc ({label}): {f}"));
        }
    }
    assert!(faults.is_empty(), "{} shape faults:\n{}", faults.len(), faults.join("\n"));
}

/// The check itself can fail: a hand-built netlist with one of each
/// fault reports all three.
#[test]
fn shape_check_names_every_fault() {
    let mut nl = Netlist::new("bad");
    let a = nl.add_input("a", 8);
    let (w, z, q) = (nl.add_net("w", 8), nl.add_net("z", 1), nl.add_net("q", 8));
    let en = nl.add_net("en", 1);
    nl.add_cell("wire", CellOp::ZeroExtend, &[a], &[w]).unwrap();
    nl.add_cell("zero", CellOp::Const { value: 0 }, &[], &[z]).unwrap();
    nl.add_cell("x_en_tie", CellOp::ZeroExtend, &[z], &[en]).unwrap();
    let reg = CellOp::Register { has_enable: true, has_reset: true };
    nl.add_cell("x_reg", reg, &[w, en], &[q]).unwrap();
    assert_eq!(
        shape_faults(&nl),
        [
            "wire cell wire",
            "tie-off cell x_en_tie",
            "wire cell x_en_tie",
            "register x_reg has no writer",
        ]
    );
}
