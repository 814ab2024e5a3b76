//! Structural datapath + controller generation.
//!
//! Lowers a scheduled and bound design to a coarse [`Netlist`] suitable both
//! for cycle-accurate RTL simulation (`hermes-rtl`) and for the full FPGA
//! implementation flow (`hermes-fpga`). The generated structure is the
//! classic FSMD:
//!
//! * a state register plus next-state logic (comparators + mux chains),
//! * one register per written storage location, with write-enable logic
//!   (a location nothing writes reads a constant 0, its reset value),
//! * shared functional units with input multiplexer trees,
//! * block RAMs for local arrays, I/O pads for scalar arguments, the
//!   return value, a `done` flag, and (for external arrays) the datapath
//!   side of the AXI master interface.
//!
//! An extra `INIT` state (state 0) loads parameter registers from the input
//! ports, so netlist simulation takes `states_visited + 1` cycles.

use crate::bind::Binding;
use crate::fsm::{Fsm, FsmNext};
use crate::ir::{ArrayKind, IrFunction, IrOp, Operand, TempId, Terminator, VarId};
use crate::lang::ast::{BinOp, IntType, UnOp};
use crate::schedule::FunctionSchedule;
use crate::HlsError;
use hermes_rtl::component::Comparison;
use hermes_rtl::netlist::{CellOp, Netlist, NetId};
use std::collections::HashMap;

/// The generated structural design.
#[derive(Debug, Clone)]
pub struct DatapathNetlist {
    /// The coarse netlist (FSM + datapath).
    pub netlist: Netlist,
    /// Scalar argument input net per parameter name.
    pub arg_inputs: HashMap<String, NetId>,
    /// The `done` output net.
    pub done: NetId,
    /// The return-value output net (absent for void designs).
    pub ret: Option<NetId>,
    /// Number of FSM states including the INIT state.
    pub state_count: u32,
}

struct Gen<'a> {
    func: &'a IrFunction,
    sched: &'a FunctionSchedule,
    binding: &'a Binding,
    fsm: &'a Fsm,
    nl: Netlist,
    state_q: NetId,
    st_eq: Vec<NetId>,
    consts: HashMap<(u64, u32), NetId>,
    /// adapted nets by (source net, width, sign-extends)
    adapted: HashMap<(NetId, u32, bool), NetId>,
    /// combinational output net of each temp's producing cell
    temp_wire: HashMap<TempId, NetId>,
    /// output net of each storage register
    reg_q: Vec<NetId>,
    /// FSM state in which each temp's value is produced, by temp id
    temp_finish: Vec<Option<u32>>,
    /// pending writers per register, by register id: (state, source net)
    reg_writers: Vec<Vec<(u32, NetId)>>,
    /// D-input source of vars written in a given state (for end-of-block
    /// terminator reads)
    var_write_in_state: HashMap<(VarId, u32), NetId>,
}

impl<'a> Gen<'a> {
    fn konst(&mut self, value: u64, width: u32) -> NetId {
        if let Some(&n) = self.consts.get(&(value, width)) {
            return n;
        }
        let n = self.nl.add_net(format!("k{value}_{width}"), width);
        self.nl
            .add_cell(
                format!("konst_{value}_{width}"),
                CellOp::Const { value },
                &[],
                &[n],
            )
            .expect("const arity");
        self.consts.insert((value, width), n);
        n
    }

    /// Adapt a net to `width`, sign- or zero-extending / slicing as needed.
    fn adapt(&mut self, net: NetId, width: u32, signed: bool) -> NetId {
        let w = self.nl.net(net).width;
        if w == width {
            return net;
        }
        // a slice ignores signedness
        let sext = signed && width > w;
        if let Some(&n) = self.adapted.get(&(net, width, sext)) {
            return n;
        }
        let (op, tag) = if width < w {
            (CellOp::Slice { lo: 0, hi: width - 1 }, "")
        } else if sext {
            (CellOp::SignExtend, "s")
        } else {
            (CellOp::ZeroExtend, "")
        };
        let out = self.nl.add_net(format!("adapt_{}_{width}{tag}", net.0), width);
        self.nl
            .add_cell(format!("adapt{}_{width}{tag}", net.0), op, &[net], &[out])
            .expect("adapt arity");
        self.adapted.insert((net, width, sext), out);
        out
    }

    /// The 1-bit "state == s" signal.
    fn st(&mut self, s: u32) -> NetId {
        self.st_eq[s as usize]
    }

    /// OR a list of 1-bit nets.
    fn or_all(&mut self, name: &str, nets: &[NetId]) -> NetId {
        assert!(!nets.is_empty());
        let mut acc = nets[0];
        for (i, &n) in nets.iter().enumerate().skip(1) {
            let out = self.nl.add_net(format!("{name}_or{i}"), 1);
            self.nl
                .add_cell(format!("{name}_orc{i}"), CellOp::Or, &[acc, n], &[out])
                .expect("or arity");
            acc = out;
        }
        acc
    }

    /// Build a mux chain selecting `sources[i].1` when in state
    /// `sources[i].0`, defaulting to the first source.
    fn state_mux(&mut self, name: &str, sources: &[(u32, NetId)], width: u32) -> NetId {
        // group by source net to share select logic
        let mut by_net: Vec<(NetId, Vec<u32>)> = Vec::new();
        for &(s, n) in sources {
            if let Some(e) = by_net.iter_mut().find(|(net, _)| *net == n) {
                e.1.push(s);
            } else {
                by_net.push((n, vec![s]));
            }
        }
        let mut acc = self.adapt(by_net[0].0, width, false);
        for (i, (net, states)) in by_net.clone().into_iter().enumerate().skip(1) {
            let sts: Vec<NetId> = states.iter().map(|&s| self.st(s)).collect();
            let sel = self.or_all(&format!("{name}_sel{i}"), &sts);
            let val = self.adapt(net, width, false);
            let out = self.nl.add_net(format!("{name}_mx{i}"), width);
            self.nl
                .add_cell(
                    format!("{name}_mux{i}"),
                    CellOp::Mux,
                    &[sel, acc, val],
                    &[out],
                )
                .expect("mux arity");
            acc = out;
        }
        acc
    }

    /// FSM-global state id of (block, cycle), offset by the INIT state.
    fn gstate(&self, block: u32, cycle: u32) -> u32 {
        self.fsm.block_entry[&block] + cycle + 1
    }

    /// The net carrying an operand's value when read in global state `s`.
    fn operand_net(&mut self, op: Operand, reading_state: u32, want: IntType) -> NetId {
        let net = match op {
            Operand::Const(c) => self.konst(c as u64 & mask(want.width), want.width),
            Operand::Var(v) => self.reg_q[self.binding.reg_of_var[v.0 as usize].0 as usize],
            Operand::Temp(t) => {
                if let Some(&reg) = self.binding.reg_of_temp.get(&t) {
                    // chained consumers in the producer's cycle read the wire
                    if let Some(&wire) = self.temp_wire.get(&t) {
                        if self.temp_finish[t.0 as usize] == Some(reading_state) {
                            wire
                        } else {
                            self.reg_q[reg.0 as usize]
                        }
                    } else {
                        self.reg_q[reg.0 as usize]
                    }
                } else {
                    *self
                        .temp_wire
                        .get(&t)
                        .expect("wire temp must have a producing net")
                }
            }
        };
        let signed = match op {
            Operand::Temp(t) => self.func.temp_types[t.0 as usize].signed,
            Operand::Var(v) => self.func.vars[v.0 as usize].ty.signed,
            Operand::Const(_) => false,
        };
        self.adapt(net, want.width, signed)
    }

    /// Global finish state of each temp's first producing instruction,
    /// indexed by temp id (`None` for a temp no instruction writes).
    fn temp_finish_states(&self) -> Vec<Option<u32>> {
        let mut finish = vec![None; self.func.temp_types.len()];
        for (bi, block) in self.func.blocks.iter().enumerate() {
            for (ii, instr) in block.instrs.iter().enumerate() {
                match instr.dst {
                    Some(t) if finish[t.0 as usize].is_none() => {
                        let s = self.sched.blocks[bi].instrs[ii];
                        finish[t.0 as usize] = Some(self.gstate(bi as u32, s.finish_cycle()));
                    }
                    _ => {}
                }
            }
        }
        finish
    }
}

fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Generate the structural netlist of a scheduled + bound design.
///
/// # Errors
///
/// Returns [`HlsError::Rtl`] if netlist construction fails (indicates an
/// internal inconsistency).
pub fn generate(
    func: &IrFunction,
    sched: &FunctionSchedule,
    binding: &Binding,
    fsm: &Fsm,
) -> Result<DatapathNetlist, HlsError> {
    let total_states = fsm.state_count() as u32 + 1; // + INIT
    let state_w = (32 - (total_states.max(2) - 1).leading_zeros()).max(1);
    let mut nl = Netlist::new(&func.name);

    // state register output; the register itself is added once its
    // next-state logic exists
    let state_q = nl.add_net("state_q", state_w);

    let mut gen = Gen {
        func,
        sched,
        binding,
        fsm,
        nl,
        state_q,
        st_eq: Vec::new(),
        consts: HashMap::new(),
        adapted: HashMap::new(),
        temp_wire: HashMap::new(),
        reg_q: Vec::new(),
        temp_finish: Vec::new(),
        reg_writers: vec![Vec::new(); binding.regs.len()],
        var_write_in_state: HashMap::new(),
    };
    gen.temp_finish = gen.temp_finish_states();

    // state compare signals
    for s in 0..total_states {
        let k = gen.konst(u64::from(s), state_w);
        let eq = gen.nl.add_net(format!("st{s}"), 1);
        gen.nl
            .add_cell(format!("st_cmp{s}"), CellOp::Cmp(Comparison::Eq), &[gen.state_q, k], &[eq])?;
        gen.st_eq.push(eq);
    }

    // storage register outputs; each register is added with its write
    // logic, after every writer is known
    for reg in &binding.regs {
        let q = gen.nl.add_net(format!("{}_q", reg.name), reg.width);
        gen.reg_q.push(q);
    }

    // argument input pads feed parameter registers in the INIT state (0)
    let mut arg_inputs = HashMap::new();
    for (name, pb) in &func.params {
        if let crate::ir::ParamBinding::Scalar(v) = pb {
            let ty = func.vars[v.0 as usize].ty;
            let pad = gen.nl.add_input(format!("arg_{name}"), ty.width);
            arg_inputs.insert(name.clone(), pad);
            let reg = binding.reg_of_var[v.0 as usize];
            gen.reg_writers[reg.0 as usize].push((0, pad));
        }
    }

    // local arrays -> true dual-port RAM cells with per-port mux trees
    // port assignment: ops on LocalMem(ai) alternate across the 2 ports by
    // FU instance.
    let mut ram_ports: HashMap<(u32, usize), RamPort> = HashMap::new(); // (array, port)
    #[derive(Default)]
    struct RamPort {
        addr_sources: Vec<(u32, NetId)>,
        data_sources: Vec<(u32, NetId)>,
        we_states: Vec<u32>,
        rdata: Option<NetId>,
    }

    // external interface pads (one shared AXI-style port)
    let has_external = func
        .arrays
        .iter()
        .any(|a| matches!(a.kind, ArrayKind::External));
    let (ext_rdata, ext_addr_sources, ext_wdata_sources, ext_req_states) = if has_external {
        let rdata = gen.nl.add_input("m_axi_rdata", 64);
        (
            Some(rdata),
            Some(Vec::<(u32, NetId)>::new()),
            Some(Vec::<(u32, NetId)>::new()),
            Some(Vec::<u32>::new()),
        )
    } else {
        (None, None, None, None)
    };
    let mut ext_addr_sources = ext_addr_sources;
    let mut ext_wdata_sources = ext_wdata_sources;
    let mut ext_req_states = ext_req_states;

    // --- generate operations ---
    for (bi, block) in func.blocks.iter().enumerate() {
        for (ii, instr) in block.instrs.iter().enumerate() {
            let s = sched.blocks[bi].instrs[ii];
            let issue = gen.gstate(bi as u32, s.start_cycle);
            let finish = gen.gstate(bi as u32, s.finish_cycle());
            match &instr.op {
                IrOp::Bin { op, a, b } => {
                    let ta = gen.func.operand_type(*a);
                    let tb = gen.func.operand_type(*b);
                    let opty = match op {
                        BinOp::Shl | BinOp::Shr => ta,
                        _ => ta.unify(tb),
                    };
                    let an = gen.operand_net(*a, issue, opty);
                    let bn = gen.operand_net(*b, issue, opty);
                    // `a > b` is `b < a` and `a <= b` is `b >= a`: swap
                    let (an, bn) = if matches!(op, BinOp::Gt | BinOp::Le) {
                        (bn, an)
                    } else {
                        (an, bn)
                    };
                    let out_w = instr.ty.width;
                    let cell = bin_cellop(*op, opty);
                    // comparison cells output the result width; others
                    // compute at operand width and adapt
                    let w = if matches!(cell, CellOp::Cmp(_)) { out_w } else { opty.width };
                    let y = gen.nl.add_net(format!("b{bi}_i{ii}_y"), w);
                    gen.nl.add_cell(format!("b{bi}_i{ii}"), cell, &[an, bn], &[y])?;
                    let out = gen.adapt(y, out_w, opty.signed);
                    let dst = instr.dst.expect("bin dst");
                    gen.temp_wire.insert(dst, out);
                    if let Some(&reg) = binding.reg_of_temp.get(&dst) {
                        gen.reg_writers[reg.0 as usize].push((finish, out));
                    }
                }
                IrOp::Un { op, a } => {
                    let an = gen.operand_net(*a, issue, instr.ty);
                    let out = gen.nl.add_net(format!("b{bi}_i{ii}_y"), instr.ty.width);
                    match op {
                        UnOp::Neg => {
                            let zero = gen.konst(0, instr.ty.width);
                            gen.nl.add_cell(
                                format!("b{bi}_i{ii}"),
                                CellOp::Sub,
                                &[zero, an],
                                &[out],
                            )?;
                        }
                        UnOp::BitNot => {
                            gen.nl
                                .add_cell(format!("b{bi}_i{ii}"), CellOp::Not, &[an], &[out])?;
                        }
                        UnOp::LogNot => {
                            let zero = gen.konst(0, gen.nl.net(an).width);
                            gen.nl.add_cell(
                                format!("b{bi}_i{ii}"),
                                CellOp::Cmp(Comparison::Eq),
                                &[an, zero],
                                &[out],
                            )?;
                        }
                    }
                    let dst = instr.dst.expect("un dst");
                    gen.temp_wire.insert(dst, out);
                    if let Some(&reg) = binding.reg_of_temp.get(&dst) {
                        gen.reg_writers[reg.0 as usize].push((finish, out));
                    }
                }
                IrOp::Cast { a, from } => {
                    let src = gen.operand_net(*a, issue, *from);
                    let out = gen.adapt(src, instr.ty.width, from.signed);
                    let dst = instr.dst.expect("cast dst");
                    gen.temp_wire.insert(dst, out);
                    if let Some(&reg) = binding.reg_of_temp.get(&dst) {
                        gen.reg_writers[reg.0 as usize].push((finish, out));
                    }
                }
                IrOp::Load { array, index } | IrOp::Store { array, index, .. } => {
                    let info = &func.arrays[array.0 as usize];
                    let ew = info.ty.width;
                    match info.kind {
                        ArrayKind::Local { .. } => {
                            let fu = binding.fu_of[&(bi as u32, ii)];
                            // port = parity of the FU instance among this array's
                            let port = binding
                                .fus
                                .iter()
                                .enumerate()
                                .filter(|(_, f)| {
                                    matches!(f.kind, crate::allocate::FuKind::LocalMem(a) if a == *array)
                                })
                                .position(|(fi, _)| fi == fu)
                                .unwrap_or(0)
                                % 2;
                            let aw = addr_width(info.size);
                            let idx_ty = IntType {
                                width: aw,
                                signed: false,
                            };
                            let addr = gen.operand_net(*index, issue, idx_ty);
                            let entry = ram_ports.entry((array.0, port)).or_default();
                            entry.addr_sources.push((issue, addr));
                            if let IrOp::Store { value, .. } = &instr.op {
                                let vn = gen.operand_net(*value, issue, info.ty);
                                let e = ram_ports.entry((array.0, port)).or_default();
                                e.data_sources.push((issue, vn));
                                e.we_states.push(issue);
                            } else {
                                // load: capture RAM output at the finish state
                                let dst = instr.dst.expect("load dst");
                                // rdata net created later when the RAM cell is
                                // instantiated; remember a placeholder via a
                                // dedicated capture net
                                let cap_src =
                                    gen.nl.add_net(format!("b{bi}_i{ii}_ld"), ew);
                                let e = ram_ports.entry((array.0, port)).or_default();
                                // connect after RAM instantiation;
                                // share the port read net if one exists
                                if let Some(shared) = e.rdata {
                                    let reg = binding.reg_of_temp[&dst];
                                    gen.reg_writers[reg.0 as usize].push((finish, shared));
                                    continue;
                                }
                                e.rdata = Some(cap_src);
                                let reg = binding.reg_of_temp[&dst];
                                gen.reg_writers[reg.0 as usize].push((finish, cap_src));
                            }
                        }
                        ArrayKind::External => {
                            let addr_ty = IntType {
                                width: 32,
                                signed: false,
                            };
                            let an = gen.operand_net(*index, issue, addr_ty);
                            if let Some(src) = ext_addr_sources.as_mut() {
                                src.push((issue, an));
                            }
                            if let Some(states) = ext_req_states.as_mut() {
                                states.push(issue);
                            }
                            if let IrOp::Store { value, .. } = &instr.op {
                                let vt = IntType {
                                    width: 64,
                                    signed: info.ty.signed,
                                };
                                let vn = gen.operand_net(*value, issue, vt);
                                if let Some(src) = ext_wdata_sources.as_mut() {
                                    src.push((issue, vn));
                                }
                            } else {
                                let dst = instr.dst.expect("load dst");
                                let rdata = ext_rdata.expect("external pads exist");
                                let sliced = gen.adapt(rdata, ew, info.ty.signed);
                                let reg = binding.reg_of_temp[&dst];
                                gen.reg_writers[reg.0 as usize].push((finish, sliced));
                            }
                        }
                    }
                }
                IrOp::SetVar { var, value } => {
                    let ty = func.vars[var.0 as usize].ty;
                    let vn = gen.operand_net(*value, issue, ty);
                    let reg = binding.reg_of_var[var.0 as usize];
                    gen.reg_writers[reg.0 as usize].push((issue, vn));
                    gen.var_write_in_state.insert((*var, issue), vn);
                }
            }
        }
    }

    // --- RAM cells ---
    for (ai, info) in func.arrays.iter().enumerate() {
        let ArrayKind::Local { init } = &info.kind else {
            continue;
        };
        let aw = addr_width(info.size);
        let ew = info.ty.width;
        let mut port_nets = Vec::new();
        for port in 0..2usize {
            let p = ram_ports.remove(&(ai as u32, port)).unwrap_or_default();
            let addr = if p.addr_sources.is_empty() {
                gen.konst(0, aw)
            } else {
                gen.state_mux(&format!("ram{ai}_p{port}_addr"), &p.addr_sources, aw)
            };
            let wdata = if p.data_sources.is_empty() {
                gen.konst(0, ew)
            } else {
                gen.state_mux(&format!("ram{ai}_p{port}_wd"), &p.data_sources, ew)
            };
            let we = if p.we_states.is_empty() {
                gen.konst(0, 1)
            } else {
                let sts: Vec<NetId> = p.we_states.iter().map(|&s| gen.st(s)).collect();
                gen.or_all(&format!("ram{ai}_p{port}_we"), &sts)
            };
            port_nets.push((addr, wdata, we, p.rdata));
        }
        let rd_a = port_nets[0]
            .3
            .unwrap_or_else(|| gen.nl.add_net(format!("ram{ai}_rd_a_nc"), ew));
        let rd_b = port_nets[1]
            .3
            .unwrap_or_else(|| gen.nl.add_net(format!("ram{ai}_rd_b_nc"), ew));
        let init_words: Vec<u64> = init
            .iter()
            .map(|&v| (v as u64) & mask(ew))
            .collect();
        gen.nl.add_cell(
            format!("ram{ai}"),
            CellOp::RamTdp {
                depth: info.size.max(1),
                init: init_words,
            },
            &[
                port_nets[0].0,
                port_nets[0].1,
                port_nets[0].2,
                port_nets[1].0,
                port_nets[1].1,
                port_nets[1].2,
            ],
            &[rd_a, rd_b],
        )?;
    }

    // --- external interface outputs ---
    if has_external {
        let addr_src = ext_addr_sources.expect("created");
        let addr = if addr_src.is_empty() {
            gen.konst(0, 32)
        } else {
            gen.state_mux("m_axi_addr", &addr_src, 32)
        };
        gen.nl.mark_output(addr);
        let wd_src = ext_wdata_sources.expect("created");
        let wd = if wd_src.is_empty() {
            gen.konst(0, 64)
        } else {
            gen.state_mux("m_axi_wdata", &wd_src, 64)
        };
        gen.nl.mark_output(wd);
        let req_states = ext_req_states.expect("created");
        let req = if req_states.is_empty() {
            gen.konst(0, 1)
        } else {
            let sts: Vec<NetId> = req_states.iter().map(|&s| gen.st(s)).collect();
            gen.or_all("m_axi_req", &sts)
        };
        gen.nl.mark_output(req);
    }

    // --- next-state logic ---
    // default: stay (used for the Done states)
    let mut next_sources: Vec<(u32, NetId)> = Vec::new();
    // INIT -> first real state
    let first = gen.konst(1, state_w);
    next_sources.push((0, first));
    let mut done_states: Vec<u32> = Vec::new();
    for (si, n) in fsm.next.iter().enumerate() {
        let s = si as u32 + 1;
        match n {
            FsmNext::Goto(t) => {
                let tn = gen.konst(u64::from(*t + 1), state_w);
                next_sources.push((s, tn));
            }
            FsmNext::CondGoto {
                then_state,
                else_state,
            } => {
                // branch condition of the owning block
                let st = fsm.states[si];
                let Terminator::Branch { cond, .. } = &func.block(st.block).term else {
                    unreachable!("CondGoto only from Branch");
                };
                let cond_net = branch_operand_net(&mut gen, *cond, s);
                let tn = gen.konst(u64::from(*then_state + 1), state_w);
                let en = gen.konst(u64::from(*else_state + 1), state_w);
                let out = gen.nl.add_net(format!("next_br{s}"), state_w);
                gen.nl
                    .add_cell(format!("next_brmux{s}"), CellOp::Mux, &[cond_net, en, tn], &[out])?;
                next_sources.push((s, out));
            }
            FsmNext::Done => {
                done_states.push(s);
                let stay = gen.konst(u64::from(s), state_w);
                next_sources.push((s, stay));
            }
        }
    }
    let next = gen.state_mux("next_state", &next_sources, state_w);
    gen.nl.add_cell(
        "state_reg",
        CellOp::Register {
            has_enable: false,
            has_reset: true,
        },
        &[next],
        &[state_q],
    )?;

    // --- done output and return value ---
    let done = if done_states.is_empty() {
        gen.konst(0, 1)
    } else {
        let sts: Vec<NetId> = done_states.iter().map(|&s| gen.st(s)).collect();
        gen.or_all("done_sig", &sts)
    };
    gen.nl.rename_net(done, "done");
    gen.nl.mark_output(done);

    let ret = if let Some(rty) = func.return_type {
        let mut sources: Vec<(u32, NetId)> = Vec::new();
        for (bi, block) in func.blocks.iter().enumerate() {
            if let Terminator::Return(Some(op)) = &block.term {
                let s = gen.gstate(bi as u32, sched.blocks[bi].length - 1);
                let net = branch_operand_net(&mut gen, *op, s);
                let net = gen.adapt(net, rty.width, rty.signed);
                sources.push((s, net));
            }
        }
        if sources.is_empty() {
            None
        } else {
            // capture into a return register so the value persists after
            // done; during the returning state itself the output shows the
            // live value so `done` and the result are observable together
            let q = gen.nl.add_net("ret_hold", rty.width);
            let en_sts: Vec<NetId> = sources.iter().map(|&(s, _)| gen.st(s)).collect();
            let en = gen.or_all("ret_en", &en_sts);
            let muxed = gen.state_mux("ret_mux", &sources, rty.width);
            gen.nl.add_cell(
                "ret_reg",
                CellOp::Register {
                    has_enable: true,
                    has_reset: true,
                },
                &[muxed, en],
                &[q],
            )?;
            let out = gen.nl.add_net("ret_q", rty.width);
            gen.nl
                .add_cell("ret_out_mux", CellOp::Mux, &[en, q, muxed], &[out])?;
            gen.nl.mark_output(out);
            Some(out)
        }
    } else {
        None
    };

    // --- storage registers ---
    // in register order, so the emitted cells (and thus every downstream
    // net id) come out in the same order on every compile
    for (ri, info) in binding.regs.iter().enumerate() {
        let q = gen.reg_q[ri];
        let sources = std::mem::take(&mut gen.reg_writers[ri]);
        if sources.is_empty() {
            // nothing writes it: build no register, its output reads the
            // reset value
            gen.nl
                .add_cell(format!("{}_zero", info.name), CellOp::Const { value: 0 }, &[], &[q])?;
            continue;
        }
        let d = gen.state_mux(&format!("{}_wmux", info.name), &sources, info.width);
        let sts: Vec<NetId> = sources.iter().map(|&(s, _)| gen.st(s)).collect();
        let en = gen.or_all(&format!("{}_wen", info.name), &sts);
        gen.nl.add_cell(
            format!("{}_reg", info.name),
            CellOp::Register {
                has_enable: true,
                has_reset: true,
            },
            &[d, en],
            &[q],
        )?;
    }

    let state_count = total_states;
    let netlist = gen.nl;
    netlist.validate().map_err(HlsError::Rtl)?;
    Ok(DatapathNetlist {
        netlist,
        arg_inputs,
        done,
        ret,
        state_count,
    })
}

/// Resolve a terminator operand in the final state of a block: a variable
/// written in that very state reads the in-flight D value instead of the
/// stale register output.
fn branch_operand_net(gen: &mut Gen<'_>, op: Operand, state: u32) -> NetId {
    match op {
        Operand::Var(v) => {
            if let Some(&d) = gen.var_write_in_state.get(&(v, state)) {
                d
            } else {
                gen.reg_q[gen.binding.reg_of_var[v.0 as usize].0 as usize]
            }
        }
        Operand::Const(c) => gen.konst(c as u64, 64),
        Operand::Temp(_) => {
            let ty = match op {
                Operand::Temp(t) => gen.func.temp_types[t.0 as usize],
                _ => IntType::BOOL,
            };
            gen.operand_net(op, state, ty)
        }
    }
}

fn bin_cellop(op: BinOp, ty: IntType) -> CellOp {
    match op {
        BinOp::Add => CellOp::Add,
        BinOp::Sub => CellOp::Sub,
        BinOp::Mul => CellOp::Mul,
        BinOp::Div => CellOp::Div,
        BinOp::Mod => CellOp::Mod,
        BinOp::And | BinOp::LogAnd => CellOp::And,
        BinOp::Or | BinOp::LogOr => CellOp::Or,
        BinOp::Xor => CellOp::Xor,
        BinOp::Shl => CellOp::Shl,
        BinOp::Shr => {
            if ty.signed {
                CellOp::ShrA
            } else {
                CellOp::ShrL
            }
        }
        BinOp::Lt => CellOp::Cmp(if ty.signed {
            Comparison::LtS
        } else {
            Comparison::LtU
        }),
        BinOp::Ge => CellOp::Cmp(if ty.signed {
            Comparison::GeS
        } else {
            Comparison::GeU
        }),
        // callers swap operands for Gt/Le before instantiating these
        BinOp::Gt => CellOp::Cmp(if ty.signed {
            Comparison::LtS
        } else {
            Comparison::LtU
        }),
        BinOp::Le => CellOp::Cmp(if ty.signed {
            Comparison::GeS
        } else {
            Comparison::GeU
        }),
        BinOp::Eq => CellOp::Cmp(Comparison::Eq),
        BinOp::Ne => CellOp::Cmp(Comparison::Ne),
    }
}

fn addr_width(size: u32) -> u32 {
    (32 - (size.max(2) - 1).leading_zeros()).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    // Full co-simulation tests live in flow.rs where the whole pipeline is
    // assembled; here we only check helper behaviour.

    #[test]
    fn addr_width_covers_depth() {
        assert_eq!(addr_width(2), 1);
        assert_eq!(addr_width(16), 4);
        assert_eq!(addr_width(17), 5);
        assert_eq!(addr_width(1024), 10);
    }

    #[test]
    fn cellop_mapping_signedness() {
        let i32t = IntType::I32;
        let u32t = IntType::U32;
        assert_eq!(
            bin_cellop(BinOp::Shr, i32t),
            CellOp::ShrA
        );
        assert_eq!(bin_cellop(BinOp::Shr, u32t), CellOp::ShrL);
        assert!(matches!(
            bin_cellop(BinOp::Lt, i32t),
            CellOp::Cmp(Comparison::LtS)
        ));
        assert!(matches!(
            bin_cellop(BinOp::Lt, u32t),
            CellOp::Cmp(Comparison::LtU)
        ));
    }
}
