//! The settle oracle: a textbook two-phase netlist interpreter.
//!
//! Every settle walks the whole combinational cell list in topological
//! order and evaluates each cell straight from its [`CellOp`];
//! sequential state lives in hash maps keyed by cell id. Nothing here is
//! shared with `hermes_rtl::sim`: no compiled program, no fanout index,
//! and its own width, sign and comparison arithmetic. A bug
//! in the production settle program therefore cannot agree with itself
//! here. Included by path from the tests that run the production
//! `Simulator` in lockstep against it.

use hermes_rtl::component::Comparison;
use hermes_rtl::netlist::{CellId, CellOp, NetId, Netlist};
use std::collections::HashMap;

/// The low `width` bits of `v`.
fn low_bits(v: u64, width: u32) -> u64 {
    if width >= 64 {
        v
    } else {
        v & ((1u64 << width) - 1)
    }
}

/// The low `width` bits of `v` read as a two's-complement number.
fn signed(v: u64, width: u32) -> i64 {
    let v = low_bits(v, width);
    if width == 0 {
        0
    } else if width < 64 && v >> (width - 1) & 1 == 1 {
        // negative: fill every bit above the sign bit
        (v | u64::MAX << width) as i64
    } else {
        v as i64
    }
}

fn compare(c: Comparison, a: u64, b: u64, width: u32) -> bool {
    let (ua, ub) = (low_bits(a, width), low_bits(b, width));
    match c {
        Comparison::Eq => ua == ub,
        Comparison::Ne => ua != ub,
        Comparison::LtU => ua < ub,
        Comparison::GeU => ua >= ub,
        Comparison::LtS => signed(a, width) < signed(b, width),
        Comparison::GeS => signed(a, width) >= signed(b, width),
    }
}

/// Full-settle, hash-map-state interpreter with the production
/// simulator's observable interface.
pub struct ReferenceSimulator<'n> {
    netlist: &'n Netlist,
    values: Vec<u64>,
    reg_state: HashMap<CellId, u64>,
    ram_state: HashMap<CellId, Vec<u64>>,
    order: Vec<CellId>,
    cycle: u64,
    traced: Vec<NetId>,
    /// One `(cycle, values of traced nets)` row per step.
    pub rows: Vec<(u64, Vec<u64>)>,
}

impl<'n> ReferenceSimulator<'n> {
    /// Build and settle: registers at 0, RAMs at their init contents.
    pub fn new(netlist: &'n Netlist) -> Self {
        let order = netlist.combinational_order().expect("acyclic netlist");
        let mut reg_state = HashMap::new();
        let mut ram_state = HashMap::new();
        for (cid, cell) in netlist.cells() {
            match &cell.op {
                CellOp::Register { .. } => {
                    reg_state.insert(cid, 0);
                }
                CellOp::RamTdp { depth, init } => {
                    let mut mem = init.clone();
                    mem.resize(*depth as usize, 0);
                    ram_state.insert(cid, mem);
                }
                _ => {}
            }
        }
        let mut sim = ReferenceSimulator {
            netlist,
            values: vec![0; netlist.net_count()],
            reg_state,
            ram_state,
            order,
            cycle: 0,
            traced: Vec::new(),
            rows: Vec::new(),
        };
        sim.settle();
        sim
    }

    /// Record the given nets after every step (see `rows`).
    pub fn enable_trace(&mut self, nets: &[NetId]) {
        self.traced = nets.to_vec();
    }

    /// Drive a net by id and re-settle.
    pub fn poke_net(&mut self, id: NetId, value: u64) {
        self.values[id.0 as usize] = low_bits(value, self.netlist.net(id).width);
        self.settle();
    }

    /// A net's settled value.
    pub fn peek_net(&self, id: NetId) -> u64 {
        self.values[id.0 as usize]
    }

    /// A register cell's stored state; `None` for any other cell.
    pub fn register_state(&self, cell: CellId) -> Option<u64> {
        self.reg_state.get(&cell).copied()
    }

    /// Clear every register declared with reset and re-settle; RAM
    /// contents and RAM read ports keep their values.
    pub fn reset(&mut self) {
        for (cid, cell) in self.netlist.cells() {
            if let CellOp::Register { has_reset: true, .. } = cell.op {
                self.reg_state.insert(cid, 0);
            }
        }
        self.settle();
    }

    /// One clock edge: every register and RAM port samples the settled
    /// values at once (RAMs read before they write), then settle.
    pub fn step(&mut self) {
        let mut next_regs = Vec::new();
        let mut ram_writes = Vec::new();
        let mut ram_reads = Vec::new();
        for (cid, cell) in self.netlist.cells() {
            let input = |i: usize| self.values[cell.inputs[i].0 as usize];
            match &cell.op {
                CellOp::Register { has_enable, .. } if !*has_enable || input(1) & 1 == 1 => {
                    let w = self.netlist.net(cell.outputs[0]).width;
                    next_regs.push((cid, low_bits(input(0), w)));
                }
                CellOp::RamTdp { depth, .. } => {
                    let depth = u64::from((*depth).max(1));
                    let mem = &self.ram_state[&cid];
                    let (addr_a, addr_b) =
                        ((input(0) % depth) as usize, (input(3) % depth) as usize);
                    ram_reads.push((cid, mem[addr_a], mem[addr_b]));
                    if input(2) & 1 == 1 {
                        ram_writes.push((cid, addr_a, input(1)));
                    }
                    if input(5) & 1 == 1 {
                        ram_writes.push((cid, addr_b, input(4)));
                    }
                }
                _ => {}
            }
        }
        for (cid, v) in next_regs {
            self.reg_state.insert(cid, v);
        }
        for (cid, addr, v) in ram_writes {
            let w = self.netlist.net(self.netlist.cell(cid).outputs[0]).width;
            self.ram_state.get_mut(&cid).expect("ram state")[addr] = low_bits(v, w);
        }
        for (cid, ra, rb) in ram_reads {
            let cell = self.netlist.cell(cid);
            self.values[cell.outputs[0].0 as usize] = ra;
            self.values[cell.outputs[1].0 as usize] = rb;
        }
        self.settle();
        self.cycle += 1;
        if !self.traced.is_empty() {
            let row = self.traced.iter().map(|&n| self.peek_net(n)).collect();
            self.rows.push((self.cycle, row));
        }
    }

    /// Drive every register output, then evaluate every combinational
    /// cell in topological order.
    fn settle(&mut self) {
        for (cid, cell) in self.netlist.cells() {
            if let CellOp::Register { .. } = cell.op {
                self.values[cell.outputs[0].0 as usize] = self.reg_state[&cid];
            }
        }
        for &cid in &self.order {
            let cell = self.netlist.cell(cid);
            let get = |i: usize| self.values[cell.inputs[i].0 as usize];
            let width = |i: usize| self.netlist.net(cell.inputs[i]).width;
            let out = cell.outputs[0];
            let v = match &cell.op {
                CellOp::Add => get(0).wrapping_add(get(1)),
                CellOp::Sub => get(0).wrapping_sub(get(1)),
                CellOp::Mul => get(0).wrapping_mul(get(1)),
                CellOp::Div => match get(1) {
                    0 => u64::MAX,
                    d => get(0) / d,
                },
                CellOp::Mod => match get(1) {
                    0 => get(0),
                    d => get(0) % d,
                },
                CellOp::And => get(0) & get(1),
                CellOp::Or => get(0) | get(1),
                CellOp::Xor => get(0) ^ get(1),
                CellOp::Not => !get(0),
                CellOp::Shl => get(0) << get(1).min(63),
                CellOp::ShrL => get(0) >> get(1).min(63),
                CellOp::ShrA => (signed(get(0), width(0)) >> get(1).min(63)) as u64,
                CellOp::Cmp(c) => u64::from(compare(*c, get(0), get(1), width(0))),
                CellOp::Mux => {
                    if get(0) & 1 == 1 {
                        get(2)
                    } else {
                        get(1)
                    }
                }
                CellOp::Const { value } => *value,
                CellOp::Slice { lo, hi } => low_bits(get(0) >> lo, hi - lo + 1),
                CellOp::ZeroExtend => get(0),
                CellOp::SignExtend => signed(get(0), width(0)) as u64,
                CellOp::Register { .. } | CellOp::RamTdp { .. } => continue,
            };
            self.values[out.0 as usize] = low_bits(v, self.netlist.net(out).width);
        }
    }
}
