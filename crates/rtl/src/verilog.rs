//! Verilog-2001 emission for [`Netlist`]s.
//!
//! The emitted text is synthesizable single-clock RTL following the NXmap
//! synthesis guidelines the paper describes for NG-ULTRA: behavioural
//! templates for arithmetic (inferring DSP blocks) and synchronous read/write
//! templates for true dual-port RAM.

use crate::component::Comparison;
use crate::netlist::{CellOp, Netlist, NetId};

/// Emit a complete Verilog module for the netlist.
///
/// The module gains `clk` and `rst` ports in addition to the netlist's
/// declared primary inputs and outputs.
pub fn emit(netlist: &Netlist) -> String {
    let mut v = String::with_capacity(4096);
    let name = sanitize(netlist.name());
    let n = |id: NetId| sanitize(&netlist.net(id).name);

    // Header
    v.push_str(&format!("// Generated by hermes-rtl\nmodule {name} (\n"));
    v.push_str("  input wire clk,\n  input wire rst");
    for &i in netlist.inputs() {
        let net = netlist.net(i);
        v.push_str(&format!(",\n  input wire {}{}", range(net.width), n(i)));
    }
    for &o in netlist.outputs() {
        let net = netlist.net(o);
        v.push_str(&format!(",\n  output wire {}{}", range(net.width), n(o)));
    }
    v.push_str("\n);\n\n");

    // Wire / reg declarations for internal nets
    let io: Vec<NetId> = netlist
        .inputs()
        .iter()
        .chain(netlist.outputs())
        .copied()
        .collect();
    let mut reg_nets: Vec<NetId> = Vec::new();
    for (_, cell) in netlist.cells() {
        if cell.op.is_sequential() {
            reg_nets.extend(cell.outputs.iter().copied());
        }
    }
    for (id, net) in netlist.nets() {
        let is_reg = reg_nets.contains(&id);
        let is_output = netlist.outputs().contains(&id);
        if io.contains(&id) && !(is_reg && is_output) {
            continue;
        }
        if is_reg && is_output {
            // output driven by register: declare an internal reg + assign
            v.push_str(&format!(
                "reg {}{}_r;\nassign {} = {}_r;\n",
                range(net.width),
                n(id),
                n(id),
                n(id)
            ));
        } else if is_reg {
            v.push_str(&format!("reg {}{};\n", range(net.width), n(id)));
        } else {
            v.push_str(&format!("wire {}{};\n", range(net.width), n(id)));
        }
    }
    v.push('\n');

    let reg_name = |id: NetId| {
        if netlist.outputs().contains(&id) && reg_nets.contains(&id) {
            format!("{}_r", n(id))
        } else {
            n(id)
        }
    };

    // Combinational cells as continuous assigns
    for (_, cell) in netlist.cells() {
        let i = |k: usize| reg_name(cell.inputs[k]);
        let o = reg_name(cell.outputs[0]);
        let expr = match &cell.op {
            CellOp::Add => format!("{} + {}", i(0), i(1)),
            CellOp::Sub => format!("{} - {}", i(0), i(1)),
            CellOp::Mul => format!("{} * {}", i(0), i(1)),
            CellOp::Div => format!("({1} == 0) ? {{{2}{{1'b1}}}} : ({0} / {1})",
                i(0), i(1), netlist.net(cell.outputs[0]).width),
            CellOp::Mod => format!("({1} == 0) ? {0} : ({0} % {1})", i(0), i(1)),
            CellOp::And => format!("{} & {}", i(0), i(1)),
            CellOp::Or => format!("{} | {}", i(0), i(1)),
            CellOp::Xor => format!("{} ^ {}", i(0), i(1)),
            CellOp::Not => format!("~{}", i(0)),
            CellOp::Shl => format!("{} << {}", i(0), i(1)),
            CellOp::ShrL => format!("{} >> {}", i(0), i(1)),
            CellOp::ShrA => format!("$signed({}) >>> {}", i(0), i(1)),
            CellOp::Cmp(c) => {
                let op = match c {
                    Comparison::Eq => "==",
                    Comparison::Ne => "!=",
                    Comparison::LtU | Comparison::LtS => "<",
                    Comparison::GeU | Comparison::GeS => ">=",
                };
                if matches!(c, Comparison::LtS | Comparison::GeS) {
                    format!("$signed({}) {op} $signed({})", i(0), i(1))
                } else {
                    format!("{} {op} {}", i(0), i(1))
                }
            }
            CellOp::Mux => format!("{} ? {} : {}", i(0), i(2), i(1)),
            CellOp::Const { value } => {
                format!("{}'d{}", netlist.net(cell.outputs[0]).width, value)
            }
            CellOp::Slice { lo, hi } => {
                if lo == hi {
                    format!("{}[{}]", i(0), lo)
                } else {
                    format!("{}[{}:{}]", i(0), hi, lo)
                }
            }
            CellOp::ZeroExtend => i(0),
            CellOp::SignExtend => {
                let iw = netlist.net(cell.inputs[0]).width;
                let ow = netlist.net(cell.outputs[0]).width;
                if ow > iw {
                    format!(
                        "{{{{{}{{{}[{}]}}}}, {}}}",
                        ow - iw,
                        i(0),
                        iw - 1,
                        i(0)
                    )
                } else {
                    i(0)
                }
            }
            CellOp::Register { .. } | CellOp::RamTdp { .. } => continue,
        };
        v.push_str(&format!("assign {o} = {expr};\n"));
    }
    v.push('\n');

    // Sequential cells as always blocks
    for (_, cell) in netlist.cells() {
        match &cell.op {
            CellOp::Register {
                has_enable,
                has_reset,
            } => {
                let q = reg_name(cell.outputs[0]);
                let d = reg_name(cell.inputs[0]);
                v.push_str(&format!(
                    "// register {}\nalways @(posedge clk) begin\n",
                    sanitize(&cell.name)
                ));
                if *has_reset {
                    v.push_str(&format!("  if (rst) {q} <= 0;\n  else "));
                } else {
                    v.push_str("  ");
                }
                if *has_enable {
                    let en = reg_name(cell.inputs[1]);
                    v.push_str(&format!("if ({en}) {q} <= {d};\n"));
                } else {
                    v.push_str(&format!("{q} <= {d};\n"));
                }
                v.push_str("end\n\n");
            }
            CellOp::RamTdp { depth, init } => {
                let cname = sanitize(&cell.name);
                let w = netlist.net(cell.outputs[0]).width;
                let (ra, rb) = (reg_name(cell.outputs[0]), reg_name(cell.outputs[1]));
                let i = |k: usize| reg_name(cell.inputs[k]);
                v.push_str(&format!(
                    "// true dual-port RAM {cname} ({depth} x {w})\n\
                     reg {}{cname}_mem [0:{}];\n",
                    range(w),
                    depth - 1
                ));
                if !init.is_empty() {
                    v.push_str("initial begin\n");
                    for (a, val) in init.iter().enumerate() {
                        v.push_str(&format!("  {cname}_mem[{a}] = {w}'d{val};\n"));
                    }
                    v.push_str("end\n");
                }
                v.push_str(&format!(
                    "always @(posedge clk) begin\n\
                     \x20 {ra} <= {cname}_mem[{a0}];\n\
                     \x20 if ({we0}) {cname}_mem[{a0}] <= {d0};\n\
                     end\n\
                     always @(posedge clk) begin\n\
                     \x20 {rb} <= {cname}_mem[{a1}];\n\
                     \x20 if ({we1}) {cname}_mem[{a1}] <= {d1};\n\
                     end\n\n",
                    a0 = i(0),
                    d0 = i(1),
                    we0 = i(2),
                    a1 = i(3),
                    d1 = i(4),
                    we1 = i(5),
                ));
            }
            _ => {}
        }
    }

    v.push_str("endmodule\n");
    v
}

fn range(width: u32) -> String {
    if width <= 1 {
        String::new()
    } else {
        format!("[{}:0] ", width - 1)
    }
}

/// Make a name safe as a Verilog identifier.
pub fn sanitize(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' })
        .collect();
    if s.is_empty() || s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        s.insert(0, '_');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{CellOp, Netlist};

    fn demo() -> Netlist {
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
        nl
    }

    #[test]
    fn emits_module_skeleton() {
        let text = emit(&demo());
        assert!(text.contains("module demo"));
        assert!(text.contains("input wire clk"));
        assert!(text.contains("assign s = a + b;"));
        assert!(text.contains("always @(posedge clk)"));
        assert!(text.contains("endmodule"));
    }

    #[test]
    fn registered_output_gets_shadow_reg() {
        let text = emit(&demo());
        assert!(text.contains("reg [7:0] q_r;"));
        assert!(text.contains("assign q = q_r;"));
    }

    #[test]
    fn ram_template_matches_nxmap_guidelines() {
        let mut nl = Netlist::new("m");
        let addr_a = nl.add_input("addr_a", 4);
        let wdata_a = nl.add_input("wdata_a", 8);
        let we_a = nl.add_input("we_a", 1);
        let addr_b = nl.add_input("addr_b", 4);
        let wdata_b = nl.add_input("wdata_b", 8);
        let we_b = nl.add_input("we_b", 1);
        let ra = nl.add_net("ra", 8);
        let rb = nl.add_net("rb", 8);
        nl.add_cell(
            "mem",
            CellOp::RamTdp {
                depth: 16,
                init: vec![1, 2],
            },
            &[addr_a, wdata_a, we_a, addr_b, wdata_b, we_b],
            &[ra, rb],
        )
        .unwrap();
        nl.mark_output(ra);
        nl.mark_output(rb);
        let text = emit(&nl);
        assert!(text.contains("mem_mem [0:15];"));
        assert!(text.contains("mem_mem[0] = 8'd1;"));
        // two independent clocked ports
        assert_eq!(text.matches("always @(posedge clk)").count(), 2);
    }

    #[test]
    fn sanitize_handles_bad_identifiers() {
        assert_eq!(sanitize("3bad name"), "_3bad_name");
        assert_eq!(sanitize("ok_name"), "ok_name");
        assert_eq!(sanitize(""), "_");
    }

    #[test]
    fn signed_compare_uses_signed_cast() {
        let mut nl = Netlist::new("c");
        let a = nl.add_input("a", 8);
        let b = nl.add_input("b", 8);
        let y = nl.add_net("y", 1);
        nl.add_cell("cmp", CellOp::Cmp(Comparison::LtS), &[a, b], &[y])
            .unwrap();
        nl.mark_output(y);
        let text = emit(&nl);
        assert!(text.contains("$signed(a) < $signed(b)"));
    }
}
