//! Synthesizable netlist templates for library components.
//!
//! Each [`ComponentTemplate`] kind
//! is lowered to a small coarse netlist whose synthesis + timing results
//! stand in for the component's characterized cost. Registers wrap the
//! operands and result so the timing analysis measures a realistic
//! register-to-register path, exactly as a characterization synthesis run
//! would.

use hermes_rtl::component::{ComponentKind, ComponentTemplate};
use hermes_rtl::netlist::{CellOp, Netlist, NetId};
use hermes_rtl::RtlError;

/// Build the characterization netlist for one component specialization.
///
/// The structure is `input regs -> combinational core -> output reg`, so the
/// measured critical path covers clk-to-q + core + setup.
///
/// # Errors
///
/// Returns an [`RtlError`] if the template widths are unsupported.
pub fn build(template: &ComponentTemplate) -> Result<Netlist, RtlError> {
    let w = template.input_width;
    let ow = template.output_width;
    let mut nl = Netlist::new(template.instance_name());

    let reg = |nl: &mut Netlist, name: &str, src: NetId, width: u32| -> Result<NetId, RtlError> {
        let q = nl.add_net(format!("{name}_q"), width);
        nl.add_cell(
            format!("{name}_reg"),
            CellOp::Register {
                has_enable: false,
                has_reset: true,
            },
            &[src],
            &[q],
        )?;
        Ok(q)
    };

    let a_in = nl.add_input("a", w);
    let a = reg(&mut nl, "a", a_in, w)?;
    let result = nl.add_net("y", ow);

    use ComponentKind::*;
    match template.kind {
        Adder | Subtractor | Multiplier | Divider | Modulo | And | Or | Xor | ShiftLeft
        | ShiftRightLogical | ShiftRightArith => {
            let b_in = nl.add_input("b", w);
            let b = reg(&mut nl, "b", b_in, w)?;
            let op = match template.kind {
                Adder => CellOp::Add,
                Subtractor => CellOp::Sub,
                Multiplier => CellOp::Mul,
                Divider => CellOp::Div,
                Modulo => CellOp::Mod,
                And => CellOp::And,
                Or => CellOp::Or,
                Xor => CellOp::Xor,
                ShiftLeft => CellOp::Shl,
                ShiftRightLogical => CellOp::ShrL,
                _ => CellOp::ShrA,
            };
            nl.add_cell("core", op, &[a, b], &[result])?;
        }
        Comparator(c) => {
            let b_in = nl.add_input("b", w);
            let b = reg(&mut nl, "b", b_in, w)?;
            let bit = nl.add_net("cmp", 1);
            nl.add_cell("core", CellOp::Cmp(c), &[a, b], &[bit])?;
            nl.add_cell("widen", CellOp::ZeroExtend, &[bit], &[result])?;
        }
        Not => {
            nl.add_cell("core", CellOp::Not, &[a], &[result])?;
        }
        Mux => {
            let b_in = nl.add_input("b", w);
            let b = reg(&mut nl, "b", b_in, w)?;
            let s_in = nl.add_input("sel", 1);
            let s = reg(&mut nl, "sel", s_in, 1)?;
            nl.add_cell("core", CellOp::Mux, &[s, a, b], &[result])?;
        }
        Register => {
            nl.add_cell(
                "core",
                CellOp::Register {
                    has_enable: false,
                    has_reset: true,
                },
                &[a],
                &[result],
            )?;
        }
        RamTdp | Rom => {
            let depth = 256u32;
            let aw = 8u32;
            let addr_in = nl.add_input("addr", aw);
            let addr = reg(&mut nl, "addr", addr_in, aw)?;
            let we_in = nl.add_input("we", 1);
            let we = reg(&mut nl, "we", we_in, 1)?;
            let zero = nl.add_net("z1", 1);
            nl.add_cell("z1c", CellOp::Const { value: 0 }, &[], &[zero])?;
            let zaddr = nl.add_net("zaddr", aw);
            nl.add_cell("zac", CellOp::Const { value: 0 }, &[], &[zaddr])?;
            let rb = nl.add_net("rb", ow);
            nl.add_cell(
                "core",
                CellOp::RamTdp {
                    depth,
                    init: vec![],
                },
                &[addr, a, we, zaddr, a, zero],
                &[result, rb],
            )?;
        }
        Constant => {
            let k = nl.add_net("k", ow);
            nl.add_cell("core", CellOp::Const { value: 0x5A }, &[], &[k])?;
            nl.add_cell("mix", CellOp::Xor, &[a, k], &[result])?;
        }
        Resize => {
            nl.add_cell("core", CellOp::SignExtend, &[a], &[result])?;
        }
    }

    let out = reg(&mut nl, "y", result, ow)?;
    nl.mark_output(out);
    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_rtl::component::ComponentKind;

    #[test]
    fn every_kind_builds_and_validates() {
        for &kind in ComponentKind::all() {
            let t = ComponentTemplate::with_widths(kind, 16, 16, 0).unwrap();
            let nl = build(&t).unwrap_or_else(|e| panic!("{kind}: {e}"));
            nl.validate().unwrap_or_else(|e| panic!("{kind}: {e}"));
        }
    }

    #[test]
    fn template_netlists_are_registered() {
        let t = ComponentTemplate::new(ComponentKind::Adder, 8).unwrap();
        let nl = build(&t).unwrap();
        assert!(nl.stats().sequential >= 3, "in/out registers present");
    }
}
