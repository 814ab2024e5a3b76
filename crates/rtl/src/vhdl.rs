//! VHDL-93 emission for [`Netlist`]s.
//!
//! Bambu emits both Verilog and VHDL; this module provides the VHDL
//! back-end. Output follows the same synchronous single-clock discipline as
//! [`crate::verilog`].

use crate::component::Comparison;
use crate::netlist::{CellOp, Netlist, NetId};
use crate::verilog::sanitize;

/// Emit a complete VHDL entity + architecture pair for the netlist.
pub fn emit(netlist: &Netlist) -> String {
    let mut v = String::with_capacity(4096);
    let name = sanitize(netlist.name());
    let n = |id: NetId| sanitize(&netlist.net(id).name);

    v.push_str("-- Generated by hermes-rtl\n");
    v.push_str("library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\n");
    v.push_str(&format!("entity {name} is\n  port (\n"));
    v.push_str("    clk : in std_logic;\n    rst : in std_logic");
    for &i in netlist.inputs() {
        let net = netlist.net(i);
        v.push_str(&format!(";\n    {} : in {}", n(i), vtype(net.width)));
    }
    for &o in netlist.outputs() {
        let net = netlist.net(o);
        v.push_str(&format!(";\n    {} : out {}", n(o), vtype(net.width)));
    }
    v.push_str(&format!("\n  );\nend entity {name};\n\n"));
    v.push_str(&format!("architecture rtl of {name} is\n"));

    // internal signals (everything that is not a pure port pass-through)
    let io: Vec<NetId> = netlist.inputs().to_vec();
    for (id, net) in netlist.nets() {
        if io.contains(&id) {
            continue;
        }
        if netlist.outputs().contains(&id) {
            v.push_str(&format!(
                "  signal {}_i : {};\n",
                n(id),
                vtype(net.width)
            ));
        } else {
            v.push_str(&format!("  signal {} : {};\n", n(id), vtype(net.width)));
        }
    }
    // RAM array types
    for (_, cell) in netlist.cells() {
        if let CellOp::RamTdp { depth, .. } = &cell.op {
            let w = netlist.net(cell.outputs[0]).width;
            let cname = sanitize(&cell.name);
            v.push_str(&format!(
                "  type {cname}_mem_t is array (0 to {}) of unsigned({} downto 0);\n\
                 \x20 signal {cname}_mem : {cname}_mem_t := (others => (others => '0'));\n",
                depth - 1,
                w - 1
            ));
        }
    }
    v.push_str("begin\n");

    let sig = |id: NetId| {
        if netlist.outputs().contains(&id) {
            format!("{}_i", n(id))
        } else {
            n(id)
        }
    };

    // output port drivers
    for &o in netlist.outputs() {
        v.push_str(&format!("  {} <= {}_i;\n", n(o), n(o)));
    }

    for (_, cell) in netlist.cells() {
        let i = |k: usize| sig(cell.inputs[k]);
        let o = sig(cell.outputs[0]);
        let ow = netlist.net(cell.outputs[0]).width;
        let expr = match &cell.op {
            CellOp::Add => format!("{} + {}", i(0), i(1)),
            CellOp::Sub => format!("{} - {}", i(0), i(1)),
            CellOp::Mul => format!("resize({} * {}, {})", i(0), i(1), ow),
            CellOp::Div => format!("{} / {}", i(0), i(1)),
            CellOp::Mod => format!("{} mod {}", i(0), i(1)),
            CellOp::And => format!("{} and {}", i(0), i(1)),
            CellOp::Or => format!("{} or {}", i(0), i(1)),
            CellOp::Xor => format!("{} xor {}", i(0), i(1)),
            CellOp::Not => format!("not {}", i(0)),
            CellOp::Shl => format!("shift_left({}, to_integer({}))", i(0), i(1)),
            CellOp::ShrL => format!("shift_right({}, to_integer({}))", i(0), i(1)),
            CellOp::ShrA => format!(
                "unsigned(shift_right(signed({}), to_integer({})))",
                i(0),
                i(1)
            ),
            CellOp::Cmp(c) => {
                let (lhs, rhs, op) = match c {
                    Comparison::Eq => (i(0), i(1), "="),
                    Comparison::Ne => (i(0), i(1), "/="),
                    Comparison::LtU => (i(0), i(1), "<"),
                    Comparison::GeU => (i(0), i(1), ">="),
                    Comparison::LtS => (format!("signed({})", i(0)), format!("signed({})", i(1)), "<"),
                    Comparison::GeS => (format!("signed({})", i(0)), format!("signed({})", i(1)), ">="),
                };
                format!(
                    "\"1\" when {lhs} {op} {rhs} else \"0\""
                )
            }
            CellOp::Mux => format!("{} when {}(0) = '1' else {}", i(2), i(0), i(1)),
            CellOp::Const { value } => format!("to_unsigned({}, {})", value, ow),
            CellOp::Slice { lo, hi } => format!("{}({} downto {})", i(0), hi, lo),
            CellOp::ZeroExtend => format!("resize({}, {})", i(0), ow),
            CellOp::SignExtend => format!("unsigned(resize(signed({}), {}))", i(0), ow),
            CellOp::Register { .. } | CellOp::RamTdp { .. } => continue,
        };
        v.push_str(&format!("  {o} <= {expr};\n"));
    }

    for (_, cell) in netlist.cells() {
        match &cell.op {
            CellOp::Register {
                has_enable,
                has_reset,
            } => {
                let cname = sanitize(&cell.name);
                let q = sig(cell.outputs[0]);
                let d = sig(cell.inputs[0]);
                v.push_str(&format!(
                    "  {cname}_p : process (clk)\n  begin\n    if rising_edge(clk) then\n"
                ));
                let mut indent = String::from("      ");
                if *has_reset {
                    v.push_str("      if rst = '1' then\n");
                    v.push_str(&format!("        {q} <= (others => '0');\n      else\n"));
                    indent = String::from("        ");
                }
                if *has_enable {
                    let en = sig(cell.inputs[1]);
                    v.push_str(&format!("{indent}if {en}(0) = '1' then\n"));
                    v.push_str(&format!("{indent}  {q} <= {d};\n"));
                    v.push_str(&format!("{indent}end if;\n"));
                } else {
                    v.push_str(&format!("{indent}{q} <= {d};\n"));
                }
                if *has_reset {
                    v.push_str("      end if;\n");
                }
                v.push_str("    end if;\n  end process;\n");
            }
            CellOp::RamTdp { .. } => {
                let cname = sanitize(&cell.name);
                let i = |k: usize| sig(cell.inputs[k]);
                let (ra, rb) = (sig(cell.outputs[0]), sig(cell.outputs[1]));
                for (port, (addr, wd, we, rd)) in [
                    ("a", (i(0), i(1), i(2), ra)),
                    ("b", (i(3), i(4), i(5), rb)),
                ] {
                    v.push_str(&format!(
                        "  {cname}_{port} : process (clk)\n  begin\n    if rising_edge(clk) then\n\
                         \x20     {rd} <= {cname}_mem(to_integer({addr}));\n\
                         \x20     if {we}(0) = '1' then\n\
                         \x20       {cname}_mem(to_integer({addr})) <= {wd};\n\
                         \x20     end if;\n    end if;\n  end process;\n"
                    ));
                }
            }
            _ => {}
        }
    }

    v.push_str("end architecture rtl;\n");
    v
}

fn vtype(width: u32) -> String {
    format!("unsigned({} downto 0)", width - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{CellOp, Netlist};

    #[test]
    fn emits_entity_and_architecture() {
        let mut nl = Netlist::new("demo");
        let a = nl.add_input("a", 8);
        let b = nl.add_input("b", 8);
        let s = nl.add_net("s", 8);
        let q = nl.add_net("q", 8);
        nl.add_cell("add", CellOp::Add, &[a, b], &[s]).unwrap();
        nl.add_cell(
            "r",
            CellOp::Register {
                has_enable: false,
                has_reset: true,
            },
            &[s],
            &[q],
        )
        .unwrap();
        nl.mark_output(q);
        let text = emit(&nl);
        assert!(text.contains("entity demo is"));
        assert!(text.contains("architecture rtl of demo is"));
        assert!(text.contains("s <= a + b;"));
        assert!(text.contains("rising_edge(clk)"));
        assert!(text.contains("end architecture rtl;"));
    }

    #[test]
    fn ram_gets_two_processes() {
        let mut nl = Netlist::new("m");
        let a0 = nl.add_input("a0", 4);
        let d0 = nl.add_input("d0", 8);
        let w0 = nl.add_input("w0", 1);
        let a1 = nl.add_input("a1", 4);
        let d1 = nl.add_input("d1", 8);
        let w1 = nl.add_input("w1", 1);
        let r0 = nl.add_net("r0", 8);
        let r1 = nl.add_net("r1", 8);
        nl.add_cell(
            "mem",
            CellOp::RamTdp {
                depth: 16,
                init: vec![],
            },
            &[a0, d0, w0, a1, d1, w1],
            &[r0, r1],
        )
        .unwrap();
        nl.mark_output(r0);
        nl.mark_output(r1);
        let text = emit(&nl);
        assert!(text.contains("mem_a : process (clk)"));
        assert!(text.contains("mem_b : process (clk)"));
        assert!(text.contains("type mem_mem_t is array (0 to 15)"));
    }
}
