//! Cycle-accurate two-phase netlist simulator.
//!
//! Each [`Simulator::step`] performs one clock cycle:
//!
//! 1. **Clock edge** — the sequential cells sample the settled values
//!    simultaneously and update their state: every RAM port, and every
//!    register whose `d` or `en` net changed since it last sampled (a
//!    register whose inputs are unchanged would reload its own value).
//! 2. **Settle** — propagate the changed outputs through the
//!    combinational cells in topological order.
//!
//! This is the discipline a synchronous single-clock design obeys on real
//! hardware and is sufficient to validate HLS-generated FSM + datapath
//! structures cycle-by-cycle against a software reference.

use crate::component::Comparison;
use crate::netlist::{CellId, CellOp, Netlist, NetId};
use crate::{mask, sign_extend, RtlError};
use std::collections::BTreeMap;

/// Groups smaller than this stay scalar: packing pays a gather/scatter
/// tax per word, which only amortizes across enough lanes.
const MIN_PACK_LANES: usize = 8;

/// Cycle-accurate simulator over a validated [`Netlist`].
///
/// State is kept in dense vectors indexed by cell id (`reg_state`,
/// `ram_state` via `seq_slot`) rather than hash maps, and the settle loop
/// runs over a precompiled program of [`SettleOp`]s with all net widths
/// and indices resolved up front — the per-cycle hot path performs no
/// hashing, no allocation, and no netlist traversal.
///
/// Settling is **activity-gated (event-driven)**: per-net fanout lists are
/// precomputed into the compiled program at construction, a dirty bitmap
/// is seeded from the sequential outputs (and pokes) whose value actually
/// changed, and the bitmap is scanned in topological-rank order across a
/// `[lo, hi]` watermark window so each op is evaluated at most once per
/// pass and quiescent logic is skipped entirely (fanout edges only point
/// to higher ranks, so the scan never revisits an index). Construction
/// and [`Self::reset`] queue every op, so the same drain evaluates the
/// whole program once.
///
/// The **clock edge is gated the same way**: each register's `d` and
/// `en` nets carry fanout entries to the register's own bit in the dirty
/// bitmap (the words below the ops'), and [`Self::step`] samples only the
/// set register bits, in slot order. A register none of whose inputs
/// changed since it last sampled would compute `next = en ? d : q` equal
/// to its `q`, so skipping it is exact; [`Self::register_evals`] counts
/// the samples taken. Construction and [`Self::reset`] set every register bit. RAM
/// ports sample every cycle.
///
/// **Word-parallel lanes** layer on top of the event-driven scan (E16):
/// at build time, independent 1-bit ops of identical boolean form at the
/// same topological rank are bit-packed up to 64 to a `u64` word and
/// evaluated as one bitwise instruction (classic compiled-code
/// simulation). A group packs only once it reaches `MIN_PACK_LANES`. The
/// scalar `values` array stays authoritative — lanes scatter on change —
/// so peeks, traces, registers, and scalar consumers are untouched.
#[derive(Debug, Clone)]
pub struct Simulator<'n> {
    netlist: &'n Netlist,
    /// Settled net values.
    values: Vec<u64>,
    /// Dense register state, one slot per `Register` cell (see `seq_slot`).
    reg_state: Vec<u64>,
    /// Dense RAM state, one memory per `RamTdp` cell (see `seq_slot`).
    ram_state: Vec<Vec<u64>>,
    /// Cell id → slot in `reg_state`/`ram_state`; `u32::MAX` for
    /// combinational cells.
    seq_slot: Vec<u32>,
    /// Precomputed register descriptors, in cell order; index = slot in
    /// `reg_state`.
    regs: Vec<RegInfo>,
    /// Precomputed RAM descriptors, in cell order.
    rams: Vec<RamInfo>,
    /// Precompiled settle program in rank-major topological order (stable
    /// by compile order within a rank). Packed words sit at the rank of
    /// their lanes.
    ops: Vec<SettleOp>,
    /// Packed-word table; `packed_nets` holds each word's lane input net
    /// ids (slot-major) followed by its lane output net ids, and
    /// `packed_vals` mirrors the last computed output word so aligned
    /// consumers read one word instead of gathering 64 bits.
    packed: Vec<PackedWord>,
    packed_nets: Vec<u32>,
    packed_vals: Vec<u64>,
    /// Scalar-equivalent program weight: a packed word counts one per
    /// lane, so work metrics do not depend on how much of a design packs.
    program_weight: u64,
    /// Total lanes across all packed words (occupancy numerator).
    packed_lanes: u32,
    /// CSR fanout index: the readers of net `n` are the `dirty` bits
    /// `fanout[fanout_start[n]..fanout_start[n + 1]]` — ops as
    /// `op_base + op` (ascending), then register slots.
    fanout_start: Vec<u32>,
    fanout: Vec<u32>,
    /// "Queued" bitmap in 64-bit words: bit `slot` for each register
    /// (sample at the next edge), then bit `op_base + op` for each op
    /// (evaluate this pass). The event scan skips 64 clean ops per load
    /// instead of one.
    dirty: Vec<u64>,
    /// Bit index of op 0 in `dirty`: the register slots rounded up to
    /// whole words.
    op_base: u32,
    /// Watermark window of queued bit indices: the next event-driven pass
    /// scans `dirty[dirty_lo..=dirty_hi]`, starting no lower than
    /// `op_base` (register marks may lower `dirty_lo`; no register bit
    /// lies above an op bit, so `dirty_hi` is an op whenever one is
    /// queued). Empty when `lo > hi` (`u32::MAX`/`0` sentinels).
    dirty_lo: u32,
    dirty_hi: u32,
    /// Reusable per-step buffers of `(slot, next value)` for the sampled
    /// registers, and of RAM read data (`(port a, port b)` per RAM).
    reg_commits: Vec<(u32, u64)>,
    next_ram: Vec<(u64, u64)>,
    cycle: u64,
    /// Total settle passes executed (steps, pokes, resets).
    settle_passes: u64,
    /// Total settle ops *evaluated* across all passes (lane-weighted).
    settle_ops: u64,
    /// Total register samples across all clock edges.
    register_evals: u64,
    trace: Option<Trace>,
}

/// Precomputed per-register data for the clock-edge phase.
#[derive(Debug, Clone, Copy)]
struct RegInfo {
    /// Net index of the data input.
    d: u32,
    /// Net index of the enable input, or `u32::MAX` when always enabled.
    en: u32,
    /// Net index of the output.
    q: u32,
    /// Output width mask.
    mask: u64,
    /// Whether [`Simulator::reset`] clears this register.
    has_reset: bool,
}

/// Precomputed per-RAM data for the clock-edge phase.
#[derive(Debug, Clone, Copy)]
struct RamInfo {
    /// Slot in `ram_state`.
    slot: u32,
    /// Net indices: `[addr_a, wdata_a, we_a, addr_b, wdata_b, we_b]`.
    inputs: [u32; 6],
    /// Net indices of the read-data outputs.
    ra: u32,
    rb: u32,
    /// Word count.
    depth: u32,
    /// Data width mask.
    mask: u64,
}

/// One precompiled combinational evaluation: operation tag plus resolved
/// net indices and widths, so the settle loop touches nothing else.
#[derive(Debug, Clone, Copy)]
struct SettleOp {
    kind: SettleKind,
    /// Input net indices (unused slots are 0).
    a: u32,
    b: u32,
    c: u32,
    /// Output net index.
    out: u32,
    /// Output width mask.
    mask: u64,
    /// Operation payload: constant value, slice low bit, or input width.
    aux: u64,
}

/// Operation tag of a [`SettleOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SettleKind {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    And,
    Or,
    Xor,
    Not,
    Shl,
    ShrL,
    /// `aux` holds the input width for sign extension.
    ShrA,
    /// `aux` holds the comparison input width.
    Cmp(Comparison),
    Mux,
    /// `aux` holds the constant value.
    Const,
    /// `aux` holds the low bit index; `mask` is already the slice mask.
    Slice,
    ZeroExtend,
    /// `aux` holds the input width.
    SignExtend,
    /// A word-parallel evaluation of up to 64 packed 1-bit lanes: `a`
    /// holds the [`PackedWord`] index, `aux` the lane count. Fanout edges
    /// come from the lane input nets, not the `a`/`b`/`c` slots.
    Packed,
}

impl SettleOp {
    /// How many of the `a`/`b`/`c` slots are live inputs (unused slots
    /// hold 0 and must not contribute fanout edges).
    fn input_count(&self) -> usize {
        match self.kind {
            SettleKind::Const | SettleKind::Packed => 0,
            SettleKind::Not
            | SettleKind::Slice
            | SettleKind::ZeroExtend
            | SettleKind::SignExtend => 1,
            SettleKind::Mux => 3,
            _ => 2,
        }
    }
}

/// Boolean form of a [`PackedWord`]: every lane evaluates this op. Only
/// forms whose 1-bit semantics equal a word-wide bitwise expression are
/// packable; comparisons lower through [`Comparison::bit_apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PackKind {
    And,
    Or,
    Xor,
    Not,
    Mux,
    Cmp(Comparison),
}

impl PackKind {
    /// Live input slots per lane (sel/else/then for `Mux`).
    fn slots(self) -> usize {
        match self {
            PackKind::Not => 1,
            PackKind::Mux => 3,
            _ => 2,
        }
    }
}

/// One word of up to 64 bit-packed lanes, all evaluating the same
/// [`PackKind`] at the same topological rank. Lane `l` of input slot `s`
/// reads net `packed_nets[ins + s*lanes + l]`; lane `l` writes net
/// `packed_nets[outs + l]`. When a slot's lanes are exactly the output
/// lanes of one earlier word at matching bit positions (`src[s]`), the
/// evaluator reads that word's cached output directly — the aligned fast
/// path that makes a replicated design cost one ALU op per 64 instances.
#[derive(Debug, Clone, Copy)]
struct PackedWord {
    kind: PackKind,
    /// Lane count (1..=64).
    lanes: u32,
    /// Base of the slot-major lane input net ids in `packed_nets`.
    ins: u32,
    /// Base of the lane output net ids in `packed_nets`.
    outs: u32,
    /// Per-slot aligned source word index, or `u32::MAX` to gather.
    src: [u32; 3],
    /// Low `lanes` bits set.
    lane_mask: u64,
}

/// Output of [`Simulator::compile_program`]: the rank-major settle
/// program plus its packing tables.
struct CompiledProgram {
    ops: Vec<SettleOp>,
    packed: Vec<PackedWord>,
    packed_nets: Vec<u32>,
    program_weight: u64,
    packed_lanes: u32,
}

/// A recorded value-change trace (VCD-lite) of selected nets.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    nets: Vec<NetId>,
    /// One sample row `(cycle, values)` per simulated cycle.
    pub rows: Vec<(u64, Vec<u64>)>,
}

impl Trace {
    /// Render the trace as a VCD-style text dump.
    pub fn render(&self, netlist: &Netlist) -> String {
        let mut out = String::new();
        out.push_str("$timescale 1ns $end\n");
        for &nid in &self.nets {
            let n = netlist.net(nid);
            out.push_str(&format!("$var wire {} {} {} $end\n", n.width, nid, n.name));
        }
        out.push_str("$enddefinitions $end\n");
        for (cycle, vals) in &self.rows {
            out.push_str(&format!("#{cycle}\n"));
            for (i, &nid) in self.nets.iter().enumerate() {
                out.push_str(&format!("b{:b} {}\n", vals[i], nid));
            }
        }
        out
    }
}

impl<'n> Simulator<'n> {
    /// Build a simulator after validating the netlist.
    ///
    /// All registers start at 0 and RAMs at their declared init contents.
    ///
    /// # Errors
    ///
    /// Propagates any structural error from [`Netlist::validate`].
    pub fn new(netlist: &'n Netlist) -> Result<Self, RtlError> {
        netlist.validate()?;
        let order = netlist.combinational_order()?;
        let mut reg_state = Vec::new();
        let mut ram_state: Vec<Vec<u64>> = Vec::new();
        let mut seq_slot = vec![u32::MAX; netlist.cell_count()];
        let mut regs = Vec::new();
        let mut rams = Vec::new();
        for (cid, cell) in netlist.cells() {
            match &cell.op {
                CellOp::Register {
                    has_enable,
                    has_reset,
                } => {
                    seq_slot[cid.0 as usize] = reg_state.len() as u32;
                    reg_state.push(0);
                    regs.push(RegInfo {
                        d: cell.inputs[0].0,
                        en: if *has_enable {
                            cell.inputs[1].0
                        } else {
                            u32::MAX
                        },
                        q: cell.outputs[0].0,
                        mask: mask(u64::MAX, netlist.net(cell.outputs[0]).width),
                        has_reset: *has_reset,
                    });
                }
                CellOp::RamTdp { depth, init } => {
                    let slot = ram_state.len() as u32;
                    seq_slot[cid.0 as usize] = slot;
                    let mut mem = init.clone();
                    mem.resize(*depth as usize, 0);
                    ram_state.push(mem);
                    rams.push(RamInfo {
                        slot,
                        inputs: [
                            cell.inputs[0].0,
                            cell.inputs[1].0,
                            cell.inputs[2].0,
                            cell.inputs[3].0,
                            cell.inputs[4].0,
                            cell.inputs[5].0,
                        ],
                        ra: cell.outputs[0].0,
                        rb: cell.outputs[1].0,
                        depth: (*depth).max(1),
                        mask: mask(u64::MAX, netlist.net(cell.outputs[0]).width),
                    });
                }
                _ => {}
            }
        }
        let scalar_ops = Self::compile_settle_ops(netlist, &order);
        let prog = Self::compile_program(netlist, scalar_ops);
        let op_base = (regs.len().div_ceil(64) * 64) as u32;
        let (fanout_start, fanout) = Self::compile_fanout(
            netlist.net_count(),
            &prog.ops,
            &prog.packed,
            &prog.packed_nets,
            &regs,
            op_base,
        );
        let reg_commits = Vec::with_capacity(regs.len());
        let next_ram = vec![(0, 0); rams.len()];
        let dirty = vec![0; op_base as usize / 64 + prog.ops.len().div_ceil(64)];
        let packed_vals = vec![0; prog.packed.len()];
        let mut sim = Simulator {
            netlist,
            values: vec![0; netlist.net_count()],
            reg_state,
            ram_state,
            seq_slot,
            regs,
            rams,
            ops: prog.ops,
            packed: prog.packed,
            packed_nets: prog.packed_nets,
            packed_vals,
            program_weight: prog.program_weight,
            packed_lanes: prog.packed_lanes,
            fanout_start,
            fanout,
            dirty,
            dirty_lo: u32::MAX,
            dirty_hi: 0,
            op_base,
            reg_commits,
            next_ram,
            cycle: 0,
            settle_passes: 0,
            settle_ops: 0,
            register_evals: 0,
            trace: None,
        };
        sim.settle_all();
        Ok(sim)
    }

    /// Build the CSR net→reader fanout index over the compiled program:
    /// for every live input slot of every op, one edge from the input net
    /// to the op's bit `op_base + op`. A packed op contributes one edge
    /// per lane input net. After a net's op edges come its register
    /// edges: one to bit `slot` per register reading it as `d` or `en`.
    fn compile_fanout(
        net_count: usize,
        ops: &[SettleOp],
        packed: &[PackedWord],
        packed_nets: &[u32],
        regs: &[RegInfo],
        op_base: u32,
    ) -> (Vec<u32>, Vec<u32>) {
        let op_inputs = |op: &SettleOp| -> Vec<u32> {
            if op.kind == SettleKind::Packed {
                let pw = &packed[op.a as usize];
                let n = pw.kind.slots() * pw.lanes as usize;
                packed_nets[pw.ins as usize..pw.ins as usize + n].to_vec()
            } else {
                [op.a, op.b, op.c][..op.input_count()].to_vec()
            }
        };
        let reg_inputs = |r: &RegInfo| -> Vec<u32> {
            if r.en == u32::MAX || r.en == r.d {
                vec![r.d]
            } else {
                vec![r.d, r.en]
            }
        };
        let mut counts = vec![0u32; net_count + 1];
        for net in ops.iter().flat_map(op_inputs).chain(regs.iter().flat_map(reg_inputs)) {
            counts[net as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let fanout_start = counts.clone();
        let mut cursor = counts;
        let mut fanout = vec![0u32; *fanout_start.last().unwrap_or(&0) as usize];
        let op_edges = ops
            .iter()
            .enumerate()
            .map(|(i, op)| (i as u32 + op_base, op_inputs(op)));
        let reg_edges = regs
            .iter()
            .enumerate()
            .map(|(slot, r)| (slot as u32, reg_inputs(r)));
        for (entry, nets) in op_edges.chain(reg_edges) {
            for net in nets {
                fanout[cursor[net as usize] as usize] = entry;
                cursor[net as usize] += 1;
            }
        }
        (fanout_start, fanout)
    }

    /// Whether `op` may join a packed word, and under which group tag.
    /// Bitwise forms commute with the 1-bit output mask, so only the
    /// output must be 1 bit wide; comparisons additionally need 1-bit
    /// inputs (`aux == 1`) for [`Comparison::bit_apply`] to be exact.
    fn packable_tag(op: &SettleOp) -> Option<u8> {
        if op.mask != 1 {
            return None;
        }
        match op.kind {
            SettleKind::And => Some(0),
            SettleKind::Or => Some(1),
            SettleKind::Xor => Some(2),
            SettleKind::Not => Some(3),
            SettleKind::Mux => Some(4),
            SettleKind::Cmp(c) if op.aux == 1 => Some(match c {
                Comparison::Eq => 5,
                Comparison::Ne => 6,
                Comparison::LtU => 7,
                Comparison::LtS => 8,
                Comparison::GeU => 9,
                Comparison::GeS => 10,
            }),
            _ => None,
        }
    }

    /// Lower the topologically ordered scalar program into the final
    /// settle program: compute per-op ranks, bit-pack groups of at least
    /// `MIN_PACK_LANES` same-form 1-bit ops at equal rank into 64-lane
    /// words, and re-sort rank-major.
    fn compile_program(netlist: &Netlist, ops: Vec<SettleOp>) -> CompiledProgram {
        let program_weight = ops.len() as u64;
        // Rank of every op: 1 + max rank of its producers. `ops` is in
        // topological order, so producers always resolve first.
        let mut net_rank = vec![0u32; netlist.net_count()];
        let mut rank = vec![0u32; ops.len()];
        for (i, op) in ops.iter().enumerate() {
            let mut r = 0;
            for &net in &[op.a, op.b, op.c][..op.input_count()] {
                r = r.max(net_rank[net as usize]);
            }
            rank[i] = r;
            net_rank[op.out as usize] = r + 1;
        }

        // Group packable ops by (rank, boolean form) and carve 64-lane
        // words. BTreeMap iteration ascends by rank, so a word's input
        // words are always created first (inputs live at lower ranks) and
        // `lane_of` can resolve aligned slots.
        let mut packed: Vec<PackedWord> = Vec::new();
        let mut packed_nets: Vec<u32> = Vec::new();
        let mut packed_lanes = 0u32;
        let mut in_word = vec![false; ops.len()];
        // (rank, order key, op) triples to sort rank-major
        let mut emitted: Vec<(u32, u32, SettleOp)> = Vec::new();
        let mut groups: BTreeMap<(u32, u8), Vec<u32>> = BTreeMap::new();
        for (i, op) in ops.iter().enumerate() {
            if let Some(tag) = Self::packable_tag(op) {
                groups.entry((rank[i], tag)).or_default().push(i as u32);
            }
        }
        // net id -> (word index << 6) | lane bit, for output lanes
        let mut lane_of = vec![u64::MAX; netlist.net_count()];
        for ((r, _tag), members) in &groups {
            if members.len() < MIN_PACK_LANES {
                continue;
            }
            for chunk in members.chunks(64) {
                let lanes = chunk.len();
                let kind = match ops[chunk[0] as usize].kind {
                    SettleKind::And => PackKind::And,
                    SettleKind::Or => PackKind::Or,
                    SettleKind::Xor => PackKind::Xor,
                    SettleKind::Not => PackKind::Not,
                    SettleKind::Mux => PackKind::Mux,
                    SettleKind::Cmp(c) => PackKind::Cmp(c),
                    _ => unreachable!("packable_tag admits only boolean forms"),
                };
                let slots = kind.slots();
                let ins = packed_nets.len() as u32;
                let mut src = [u32::MAX; 3];
                for (s, slot_src) in src.iter_mut().enumerate().take(slots) {
                    let slot_net = |oi: u32| {
                        let op = &ops[oi as usize];
                        [op.a, op.b, op.c][s]
                    };
                    for &oi in chunk {
                        packed_nets.push(slot_net(oi));
                    }
                    // aligned iff every lane reads bit `l` of one word
                    let mut aligned = None;
                    for (l, &oi) in chunk.iter().enumerate() {
                        let lo = lane_of[slot_net(oi) as usize];
                        if lo == u64::MAX || (lo & 63) != l as u64 {
                            aligned = None;
                            break;
                        }
                        let word = (lo >> 6) as u32;
                        match aligned {
                            None if l == 0 => aligned = Some(word),
                            Some(w) if w == word => {}
                            _ => {
                                aligned = None;
                                break;
                            }
                        }
                    }
                    *slot_src = aligned.unwrap_or(u32::MAX);
                }
                let outs = packed_nets.len() as u32;
                let widx = packed.len() as u32;
                for (l, &oi) in chunk.iter().enumerate() {
                    let out = ops[oi as usize].out;
                    packed_nets.push(out);
                    lane_of[out as usize] = (u64::from(widx) << 6) | l as u64;
                    in_word[oi as usize] = true;
                }
                let lane_mask = mask(u64::MAX, lanes as u32);
                packed.push(PackedWord {
                    kind,
                    lanes: lanes as u32,
                    ins,
                    outs,
                    src,
                    lane_mask,
                });
                packed_lanes += lanes as u32;
                emitted.push((
                    *r,
                    chunk[0],
                    SettleOp {
                        kind: SettleKind::Packed,
                        a: widx,
                        b: 0,
                        c: 0,
                        out: ops[chunk[0] as usize].out,
                        mask: lane_mask,
                        aux: lanes as u64,
                    },
                ));
            }
        }
        for (i, op) in ops.into_iter().enumerate() {
            if !in_word[i] {
                emitted.push((rank[i], i as u32, op));
            }
        }
        emitted.sort_by_key(|&(r, key, _)| (r, key));

        CompiledProgram {
            ops: emitted.into_iter().map(|(_, _, op)| op).collect(),
            packed,
            packed_nets,
            program_weight,
            packed_lanes,
        }
    }

    /// Lower the topologically ordered combinational cells into the compact
    /// settle program (resolved net indices, widths, and payloads).
    fn compile_settle_ops(netlist: &Netlist, order: &[CellId]) -> Vec<SettleOp> {
        let mut ops = Vec::with_capacity(order.len());
        for &cid in order {
            let cell = netlist.cell(cid);
            let input = |i: usize| cell.inputs.get(i).map_or(0, |n| n.0);
            let out_net = cell.outputs[0];
            let ow = netlist.net(out_net).width;
            let iw = cell
                .inputs
                .first()
                .map(|&n| netlist.net(n).width)
                .unwrap_or(ow);
            let (kind, m, aux) = match &cell.op {
                CellOp::Add => (SettleKind::Add, mask(u64::MAX, ow), 0),
                CellOp::Sub => (SettleKind::Sub, mask(u64::MAX, ow), 0),
                CellOp::Mul => (SettleKind::Mul, mask(u64::MAX, ow), 0),
                CellOp::Div => (SettleKind::Div, mask(u64::MAX, ow), 0),
                CellOp::Mod => (SettleKind::Mod, mask(u64::MAX, ow), 0),
                CellOp::And => (SettleKind::And, mask(u64::MAX, ow), 0),
                CellOp::Or => (SettleKind::Or, mask(u64::MAX, ow), 0),
                CellOp::Xor => (SettleKind::Xor, mask(u64::MAX, ow), 0),
                CellOp::Not => (SettleKind::Not, mask(u64::MAX, ow), 0),
                CellOp::Shl => (SettleKind::Shl, mask(u64::MAX, ow), 0),
                CellOp::ShrL => (SettleKind::ShrL, mask(u64::MAX, ow), 0),
                CellOp::ShrA => (SettleKind::ShrA, mask(u64::MAX, ow), u64::from(iw)),
                CellOp::Cmp(c) => (
                    SettleKind::Cmp(*c),
                    mask(u64::MAX, ow),
                    u64::from(netlist.net(cell.inputs[0]).width),
                ),
                CellOp::Mux => (SettleKind::Mux, mask(u64::MAX, ow), 0),
                CellOp::Const { value } => (SettleKind::Const, mask(u64::MAX, ow), *value),
                CellOp::Slice { lo, hi } => (
                    SettleKind::Slice,
                    // slice width and output net width both bound the result
                    mask(mask(u64::MAX, hi - lo + 1), ow),
                    u64::from(*lo),
                ),
                CellOp::ZeroExtend => (SettleKind::ZeroExtend, mask(u64::MAX, ow), 0),
                CellOp::SignExtend => (
                    SettleKind::SignExtend,
                    mask(u64::MAX, ow),
                    u64::from(netlist.net(cell.inputs[0]).width),
                ),
                CellOp::Register { .. } | CellOp::RamTdp { .. } => continue,
            };
            ops.push(SettleOp {
                kind,
                a: input(0),
                b: input(1),
                c: input(2),
                out: out_net.0,
                mask: m,
                aux,
            });
        }
        ops
    }

    /// Enable tracing of the given nets; samples are appended on every step.
    pub fn enable_trace(&mut self, nets: &[NetId]) {
        self.trace = Some(Trace {
            nets: nets.to_vec(),
            rows: Vec::new(),
        });
    }

    /// Take the recorded trace, if tracing was enabled.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    /// Current cycle count (number of completed [`Self::step`] calls).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Total settle passes executed so far (steps, pokes, resets).
    pub fn settle_passes(&self) -> u64 {
        self.settle_passes
    }

    /// Total settle ops *evaluated* across all passes (the simulator's
    /// true work metric). With event-driven settling this is usually far
    /// below the full-evaluation baseline
    /// [`settle_passes`](Self::settle_passes) ×
    /// [`settle_program_len`](Self::settle_program_len); the quotient is
    /// the workload's activity factor.
    pub fn settle_ops(&self) -> u64 {
        self.settle_ops
    }

    /// Total register samples across all clock edges. Ungated, every edge
    /// would sample every register: the baseline is
    /// [`cycle`](Self::cycle) × [`register_count`](Self::register_count).
    pub fn register_evals(&self) -> u64 {
        self.register_evals
    }

    /// Number of `Register` cells.
    pub fn register_count(&self) -> usize {
        self.regs.len()
    }

    /// Length of the compiled combinational settle program in *scalar*
    /// ops (the per-pass op count a full, non-event-driven evaluation
    /// pays). Bit-packing folds lanes into shared words but each lane
    /// still counts as one op here, so this figure — and every
    /// `settle_ops` identity built on it — is packing-invariant.
    pub fn settle_program_len(&self) -> usize {
        self.program_weight as usize
    }

    /// Number of program *words* actually walked per full pass: scalar
    /// ops plus one entry per packed 64-lane word.
    pub fn settle_words(&self) -> usize {
        self.ops.len()
    }

    /// Number of packed 64-lane words in the compiled program.
    pub fn packed_words(&self) -> usize {
        self.packed.len()
    }

    /// Total 1-bit lanes folded into packed words.
    pub fn packed_lanes(&self) -> usize {
        self.packed_lanes as usize
    }

    /// Mean packed-word lane occupancy in permille (0 when nothing
    /// packed): 1000 means every packed word carries a full 64 lanes.
    pub fn lane_occupancy_permille(&self) -> u64 {
        if self.packed.is_empty() {
            0
        } else {
            self.packed_lanes as u64 * 1000 / (self.packed.len() as u64 * 64)
        }
    }

    /// Always 0: settling is serial. Kept for perfbench; delete with the
    /// next benchmark change.
    pub fn settle_parallel_passes(&self) -> u64 {
        0
    }

    /// Export the simulator's work counters into a flight recorder under
    /// subsystem `sub` (RTL clock domain). `settle_ops` counts evaluated
    /// ops; `settle_ops_full` is the full-evaluation baseline, so the
    /// activity factor is their quotient. `register_evals` and
    /// `register_evals_full` are the same pair for the clock edge.
    pub fn obs_export(&self, obs: &hermes_obs::Recorder, sub: &str) {
        obs.counter_add(sub, "cycles", self.cycle);
        obs.counter_add(sub, "settle_passes", self.settle_passes);
        obs.counter_add(sub, "settle_ops", self.settle_ops);
        obs.counter_add(sub, "settle_ops_full", self.settle_passes * self.program_weight);
        obs.counter_add(sub, "register_evals", self.register_evals);
        obs.counter_add(sub, "register_evals_full", self.cycle * self.regs.len() as u64);
        obs.gauge_set(sub, "settle_program_len", self.program_weight as i64);
        obs.gauge_set(sub, "settle_packed_words", self.packed.len() as i64);
        obs.gauge_set(sub, "settle_packed_lanes", self.packed_lanes as i64);
        obs.gauge_set(sub, "settle_lane_occupancy", self.lane_occupancy_permille() as i64);
        obs.gauge_set(sub, "nets", self.netlist.net_count() as i64);
        obs.instant(
            sub,
            "sim-state",
            hermes_obs::ClockDomain::Rtl,
            self.cycle,
            &[("settle_passes", self.settle_passes.to_string())],
        );
    }

    /// Drive a primary input by name.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::UnknownName`] if no such input exists.
    pub fn poke(&mut self, name: &str, value: u64) -> Result<(), RtlError> {
        let id = self
            .netlist
            .net_by_name(name)
            .filter(|id| self.netlist.inputs().contains(id))
            .ok_or_else(|| RtlError::UnknownName { name: name.into() })?;
        self.poke_net(id, value);
        Ok(())
    }

    /// Read any net's settled value by name.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::UnknownName`] if no such net exists.
    pub fn peek(&self, name: &str) -> Result<u64, RtlError> {
        let id = self
            .netlist
            .net_by_name(name)
            .ok_or_else(|| RtlError::UnknownName { name: name.into() })?;
        Ok(self.values[id.0 as usize])
    }

    /// Read a net's settled value by id.
    pub fn peek_net(&self, id: NetId) -> u64 {
        self.values[id.0 as usize]
    }

    /// Drive a primary input by id.
    ///
    /// `id` must be one of the netlist's primary inputs (checked in debug
    /// builds, as [`Self::poke`] checks names). Any other net is driven
    /// by a cell: a poked register output, say, would not be re-driven
    /// at the next clock edge unless the register loaded a new value.
    pub fn poke_net(&mut self, id: NetId, value: u64) {
        debug_assert!(
            self.netlist.inputs().contains(&id),
            "poke_net: net {id} is not a primary input"
        );
        let new = mask(value, self.netlist.net(id).width);
        if self.values[id.0 as usize] != new {
            self.values[id.0 as usize] = new;
            self.mark_net(id.0);
        }
        self.settle();
    }

    /// Synchronously reset: clears all registers (those declared with reset)
    /// and re-settles. RAM contents are preserved, as on real block RAM.
    /// The settle after a reset evaluates every op once, and the next
    /// clock edge samples every register.
    pub fn reset(&mut self) {
        for (r, state) in self.regs.iter().zip(&mut self.reg_state) {
            if r.has_reset {
                *state = 0;
            }
        }
        self.settle_all();
    }

    /// Advance one clock cycle: sample the sequential elements, then
    /// settle.
    ///
    /// # Errors
    ///
    /// Currently infallible but kept fallible for forward compatibility with
    /// X-propagation checks.
    pub fn step(&mut self) -> Result<(), RtlError> {
        // Phase 1: compute next state from the *currently settled* values
        // (simultaneous sampling), for the registers whose `d` or `en`
        // changed since they last sampled. Next values wait in the
        // persistent `reg_commits` buffer — the hot path allocates
        // nothing.
        for w in 0..self.op_base as usize / 64 {
            let mut word = self.dirty[w];
            if word == 0 {
                continue;
            }
            self.dirty[w] = 0;
            self.register_evals += u64::from(word.count_ones());
            while word != 0 {
                let slot = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let r = self.regs[slot];
                let load = r.en == u32::MAX || self.values[r.en as usize] & 1 == 1;
                let next = if load {
                    self.values[r.d as usize] & r.mask
                } else {
                    self.reg_state[slot]
                };
                self.reg_commits.push((slot as u32, next));
            }
        }
        // RAM ports sample the same settled values. Each memory is private
        // to its cell, so the read-first reads and the write commit fuse
        // per RAM; the read data waits in `next_ram` until every port has
        // sampled, since a port may read another RAM's output.
        for i in 0..self.rams.len() {
            let r = self.rams[i];
            let depth = r.depth as usize;
            let port = |n: u32| self.values[n as usize];
            let addr_a = port(r.inputs[0]) as usize % depth;
            let wd_a = port(r.inputs[1]);
            let we_a = port(r.inputs[2]) & 1 == 1;
            let addr_b = port(r.inputs[3]) as usize % depth;
            let wd_b = port(r.inputs[4]);
            let we_b = port(r.inputs[5]) & 1 == 1;
            let mem = &mut self.ram_state[r.slot as usize];
            // read-first semantics on both ports
            self.next_ram[i] = (mem[addr_a], mem[addr_b]);
            if we_a {
                mem[addr_a] = wd_a & r.mask;
            }
            if we_b {
                mem[addr_b] = wd_b & r.mask;
            }
        }
        // Phase 2: commit register state and drive RAM read data, seeding
        // the event worklist (and the next edge's register bits) from
        // every output whose value actually changed.
        for i in 0..self.reg_commits.len() {
            let (slot, v) = self.reg_commits[i];
            self.reg_state[slot as usize] = v;
            self.drive(self.regs[slot as usize].q, v);
        }
        self.reg_commits.clear();
        for i in 0..self.rams.len() {
            let (r, (ra, rb)) = (self.rams[i], self.next_ram[i]);
            self.drive(r.ra, ra);
            self.drive(r.rb, rb);
        }
        self.settle();
        self.cycle += 1;
        if let Some(trace) = &mut self.trace {
            let row = trace
                .nets
                .iter()
                .map(|&n| self.values[n.0 as usize])
                .collect();
            trace.rows.push((self.cycle, row));
        }
        Ok(())
    }

    /// Run `n` cycles.
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`Self::step`].
    pub fn run(&mut self, n: u64) -> Result<(), RtlError> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    /// Step until `predicate` returns true or `max_cycles` elapse; returns
    /// the number of cycles consumed, or `None` on timeout.
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`Self::step`].
    pub fn run_until(
        &mut self,
        max_cycles: u64,
        mut predicate: impl FnMut(&Self) -> bool,
    ) -> Result<Option<u64>, RtlError> {
        for i in 0..max_cycles {
            if predicate(self) {
                return Ok(Some(i));
            }
            self.step()?;
        }
        Ok(if predicate(self) { Some(max_cycles) } else { None })
    }

    /// Direct read of a register cell's stored state (testing/debug hook).
    pub fn register_state(&self, cell: CellId) -> Option<u64> {
        let slot = *self.seq_slot.get(cell.0 as usize)?;
        if slot == u32::MAX
            || !matches!(self.netlist.cell(cell).op, CellOp::Register { .. })
        {
            return None;
        }
        self.reg_state.get(slot as usize).copied()
    }

    /// Direct read of a RAM word (testing/debug hook).
    pub fn ram_word(&self, cell: CellId, addr: usize) -> Option<u64> {
        let slot = *self.seq_slot.get(cell.0 as usize)?;
        if slot == u32::MAX || !matches!(self.netlist.cell(cell).op, CellOp::RamTdp { .. }) {
            return None;
        }
        self.ram_state
            .get(slot as usize)
            .and_then(|m| m.get(addr))
            .copied()
    }

    /// Overwrite a RAM word directly (testbench backdoor load).
    pub fn load_ram_word(&mut self, cell: CellId, addr: usize, value: u64) {
        let Some(&slot) = self.seq_slot.get(cell.0 as usize) else {
            return;
        };
        if slot == u32::MAX || !matches!(self.netlist.cell(cell).op, CellOp::RamTdp { .. }) {
            return;
        }
        if let Some(mem) = self.ram_state.get_mut(slot as usize) {
            if let Some(word) = mem.get_mut(addr) {
                *word = value;
            }
        }
    }

    /// Set a sequential output net, queueing its fanout if it changed.
    #[inline]
    fn drive(&mut self, net: u32, value: u64) {
        if self.values[net as usize] != value {
            self.values[net as usize] = value;
            self.mark_net(net);
        }
    }

    /// Queue every op reading `net` for the next event-driven settle pass,
    /// and every register reading it for the next clock edge. The marks
    /// are branch-free: an op bit that is already set lies inside the
    /// window, so widening to it changes nothing; a register bit lies
    /// below every op bit, so it can lower `dirty_lo` (the settle scan
    /// starts no lower than `op_base`) and raise `dirty_hi` only while no
    /// op is queued.
    #[inline]
    fn mark_net(&mut self, net: u32) {
        let lo = self.fanout_start[net as usize] as usize;
        let hi = self.fanout_start[net as usize + 1] as usize;
        for k in lo..hi {
            let idx = self.fanout[k];
            self.dirty[idx as usize / 64] |= 1u64 << (idx % 64);
            self.dirty_lo = self.dirty_lo.min(idx);
            self.dirty_hi = self.dirty_hi.max(idx);
        }
    }

    /// Drive every register output, queue every op and every register,
    /// then settle: the drain evaluates the whole program exactly once,
    /// in rank order, and the next edge samples every register
    /// (construction and reset).
    fn settle_all(&mut self) {
        for (r, &state) in self.regs.iter().zip(&self.reg_state) {
            self.values[r.q as usize] = state;
        }
        let ob = self.op_base as usize / 64;
        set_first_bits(&mut self.dirty[..ob], self.regs.len());
        let n = self.ops.len();
        if n > 0 {
            set_first_bits(&mut self.dirty[ob..], n);
            self.dirty_lo = self.op_base;
            self.dirty_hi = self.op_base + n as u32 - 1;
        }
        self.settle();
    }

    /// Scan the op part of the dirty window in topological-rank order,
    /// leaving register bits for the next clock edge. Ranks only grow
    /// along fanout edges (the program is rank-major sorted), so a mark
    /// made during the scan always lands ahead of the cursor — raising
    /// `dirty_hi` at most — and each queued op is reached after all of its
    /// dirty predecessors. Every op is evaluated at most once per pass,
    /// and an op whose output does not change never wakes its fanout. A
    /// linear bitmap scan beats a priority queue here: the window is
    /// usually a small slice of the program, and the per-visited-op cost
    /// is one branch instead of heap maintenance.
    fn settle(&mut self) {
        self.settle_passes += 1;
        let mut wi = (self.dirty_lo as usize / 64).max(self.op_base as usize / 64);
        // `dirty_hi` is re-read every iteration: evaluated ops may extend
        // the window forward (never backward) by marking their fanout —
        // into higher bits of the current word or into later words.
        loop {
            if wi > self.dirty_hi as usize / 64 {
                break;
            }
            let word = self.dirty[wi];
            if word == 0 {
                wi += 1;
                continue;
            }
            let b = word.trailing_zeros();
            self.dirty[wi] = word & !(1u64 << b);
            let i = wi * 64 + b as usize - self.op_base as usize;
            let op = self.ops[i];
            if op.kind == SettleKind::Packed {
                let (pw, new, mut changed) = eval_packed(
                    op.a as usize,
                    &self.packed,
                    &self.packed_nets,
                    &mut self.packed_vals,
                    &self.values,
                );
                self.settle_ops += u64::from(pw.lanes);
                while changed != 0 {
                    let l = changed.trailing_zeros();
                    let net = self.packed_nets[(pw.outs + l) as usize];
                    self.values[net as usize] = (new >> l) & 1;
                    self.mark_net(net);
                    changed &= changed - 1;
                }
            } else {
                let v = eval_op_with(|n| self.values[n as usize], &op);
                self.settle_ops += 1;
                if self.values[op.out as usize] != v {
                    self.values[op.out as usize] = v;
                    self.mark_net(op.out);
                }
            }
        }
        self.dirty_lo = u32::MAX;
        self.dirty_hi = 0;
    }
}

/// Set bits `0..n` of `bitmap` (`n.div_ceil(64)` words) and keep the bits
/// past `n` clear: scans index ops and registers by bit.
fn set_first_bits(bitmap: &mut [u64], n: usize) {
    bitmap.fill(u64::MAX);
    if !n.is_multiple_of(64) {
        bitmap[n / 64] = mask(u64::MAX, (n % 64) as u32);
    }
}

/// Evaluate one packed word: read each input slot (aligned word read or
/// bit gather), apply the boolean form once across all lanes, and publish
/// the new output word. Returns the word descriptor, the new value, and
/// the changed-lane bitmask; the caller scatters changed lanes into
/// `values` and marks their fanout.
#[inline]
fn eval_packed(
    w: usize,
    packed: &[PackedWord],
    packed_nets: &[u32],
    packed_vals: &mut [u64],
    values: &[u64],
) -> (PackedWord, u64, u64) {
    let pw = packed[w];
    let lanes = pw.lanes as usize;
    let slot = |s: usize| -> u64 {
        if pw.src[s] != u32::MAX {
            // aligned fast path: the slot's lanes are bit 0..lanes of one
            // earlier word, whose cached output is always current
            packed_vals[pw.src[s] as usize]
        } else {
            let base = pw.ins as usize + s * lanes;
            let mut word = 0u64;
            for l in 0..lanes {
                word |= (values[packed_nets[base + l] as usize] & 1) << l;
            }
            word
        }
    };
    let v = match pw.kind {
        PackKind::And => slot(0) & slot(1),
        PackKind::Or => slot(0) | slot(1),
        PackKind::Xor => slot(0) ^ slot(1),
        PackKind::Not => !slot(0),
        PackKind::Mux => {
            let sel = slot(0);
            (sel & slot(2)) | (!sel & slot(1))
        }
        PackKind::Cmp(c) => c.bit_apply(slot(0), slot(1)),
    };
    let new = v & pw.lane_mask;
    let old = packed_vals[w];
    packed_vals[w] = new;
    (pw, new, old ^ new)
}

/// Evaluate one compiled scalar settle op, reading inputs through `read`.
#[inline]
fn eval_op_with<R: Fn(u32) -> u64>(read: R, op: &SettleOp) -> u64 {
    let a = read(op.a);
    let v = match op.kind {
        SettleKind::Add => a.wrapping_add(read(op.b)),
        SettleKind::Sub => a.wrapping_sub(read(op.b)),
        SettleKind::Mul => a.wrapping_mul(read(op.b)),
        // division by zero yields all-ones, matching the component model
        SettleKind::Div => a.checked_div(read(op.b)).unwrap_or(u64::MAX),
        SettleKind::Mod => {
            let d = read(op.b);
            if d == 0 {
                a
            } else {
                a % d
            }
        }
        SettleKind::And => a & read(op.b),
        SettleKind::Or => a | read(op.b),
        SettleKind::Xor => a ^ read(op.b),
        SettleKind::Not => !a,
        SettleKind::Shl => a << read(op.b).min(63),
        SettleKind::ShrL => a >> read(op.b).min(63),
        SettleKind::ShrA => (sign_extend(a, op.aux as u32) >> read(op.b).min(63)) as u64,
        SettleKind::Cmp(c) => c.apply(a, read(op.b), op.aux as u32) as u64,
        SettleKind::Mux => {
            if a & 1 == 1 {
                read(op.c)
            } else {
                read(op.b)
            }
        }
        SettleKind::Const => op.aux,
        SettleKind::Slice => a >> op.aux,
        SettleKind::ZeroExtend => a,
        SettleKind::SignExtend => sign_extend(a, op.aux as u32) as u64,
        SettleKind::Packed => unreachable!("packed ops route through eval_packed"),
    };
    v & op.mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{CellOp, Netlist};

    #[test]
    fn counter_counts() {
        // q' = q + 1
        let mut nl = Netlist::new("counter");
        let one = nl.add_net("one", 8);
        let q = nl.add_net("q", 8);
        let next = nl.add_net("next", 8);
        nl.add_cell("c1", CellOp::Const { value: 1 }, &[], &[one])
            .unwrap();
        nl.add_cell("add", CellOp::Add, &[q, one], &[next]).unwrap();
        nl.add_cell(
            "r",
            CellOp::Register {
                has_enable: false,
                has_reset: true,
            },
            &[next],
            &[q],
        )
        .unwrap();
        nl.mark_output(q);
        let mut sim = Simulator::new(&nl).unwrap();
        assert_eq!(sim.peek("q").unwrap(), 0);
        sim.run(5).unwrap();
        assert_eq!(sim.peek("q").unwrap(), 5);
        sim.run(300).unwrap();
        assert_eq!(sim.peek("q").unwrap(), (305u64) & 0xFF);
        sim.reset();
        assert_eq!(sim.peek("q").unwrap(), 0);
    }

    #[test]
    fn enable_gates_register() {
        let mut nl = Netlist::new("en");
        let d = nl.add_input("d", 8);
        let en = nl.add_input("en", 1);
        let q = nl.add_net("q", 8);
        nl.add_cell(
            "r",
            CellOp::Register {
                has_enable: true,
                has_reset: true,
            },
            &[d, en],
            &[q],
        )
        .unwrap();
        nl.mark_output(q);
        let mut sim = Simulator::new(&nl).unwrap();
        sim.poke("d", 42).unwrap();
        sim.poke("en", 0).unwrap();
        sim.step().unwrap();
        assert_eq!(sim.peek("q").unwrap(), 0, "disabled register holds");
        sim.poke("en", 1).unwrap();
        sim.step().unwrap();
        assert_eq!(sim.peek("q").unwrap(), 42);
    }

    #[test]
    fn ram_read_write_ports() {
        let mut nl = Netlist::new("ram");
        let addr_a = nl.add_input("addr_a", 4);
        let wdata_a = nl.add_input("wdata_a", 16);
        let we_a = nl.add_input("we_a", 1);
        let addr_b = nl.add_input("addr_b", 4);
        let wdata_b = nl.add_input("wdata_b", 16);
        let we_b = nl.add_input("we_b", 1);
        let ra = nl.add_net("rdata_a", 16);
        let rb = nl.add_net("rdata_b", 16);
        nl.add_cell(
            "m",
            CellOp::RamTdp {
                depth: 16,
                init: vec![],
            },
            &[addr_a, wdata_a, we_a, addr_b, wdata_b, we_b],
            &[ra, rb],
        )
        .unwrap();
        nl.mark_output(ra);
        nl.mark_output(rb);
        let mut sim = Simulator::new(&nl).unwrap();
        // write 0xBEEF at 3 via port A
        sim.poke("addr_a", 3).unwrap();
        sim.poke("wdata_a", 0xBEEF).unwrap();
        sim.poke("we_a", 1).unwrap();
        sim.step().unwrap();
        sim.poke("we_a", 0).unwrap();
        // read back via port B
        sim.poke("addr_b", 3).unwrap();
        sim.step().unwrap();
        assert_eq!(sim.peek("rdata_b").unwrap(), 0xBEEF);
    }

    #[test]
    fn ram_read_first_semantics() {
        let mut nl = Netlist::new("ram");
        let addr_a = nl.add_input("addr_a", 4);
        let wdata_a = nl.add_input("wdata_a", 8);
        let we_a = nl.add_input("we_a", 1);
        let addr_b = nl.add_input("addr_b", 4);
        let wdata_b = nl.add_input("wdata_b", 8);
        let we_b = nl.add_input("we_b", 1);
        let ra = nl.add_net("rdata_a", 8);
        let rb = nl.add_net("rdata_b", 8);
        nl.add_cell(
            "m",
            CellOp::RamTdp {
                depth: 16,
                init: vec![7; 16],
            },
            &[addr_a, wdata_a, we_a, addr_b, wdata_b, we_b],
            &[ra, rb],
        )
        .unwrap();
        nl.mark_output(ra);
        let mut sim = Simulator::new(&nl).unwrap();
        sim.poke("addr_a", 1).unwrap();
        sim.poke("wdata_a", 99).unwrap();
        sim.poke("we_a", 1).unwrap();
        sim.step().unwrap();
        // read-first: the read result is the OLD value
        assert_eq!(sim.peek("rdata_a").unwrap(), 7);
        sim.poke("we_a", 0).unwrap();
        sim.step().unwrap();
        assert_eq!(sim.peek("rdata_a").unwrap(), 99);
    }

    #[test]
    fn run_until_detects_condition() {
        let mut nl = Netlist::new("counter");
        let one = nl.add_net("one", 8);
        let q = nl.add_net("q", 8);
        let next = nl.add_net("next", 8);
        nl.add_cell("c1", CellOp::Const { value: 1 }, &[], &[one])
            .unwrap();
        nl.add_cell("add", CellOp::Add, &[q, one], &[next]).unwrap();
        nl.add_cell(
            "r",
            CellOp::Register {
                has_enable: false,
                has_reset: true,
            },
            &[next],
            &[q],
        )
        .unwrap();
        nl.mark_output(q);
        let mut sim = Simulator::new(&nl).unwrap();
        let cycles = sim
            .run_until(100, |s| s.peek("q").unwrap() == 10)
            .unwrap();
        assert_eq!(cycles, Some(10));
        let timeout = sim.run_until(5, |s| s.peek("q").unwrap() == 200).unwrap();
        assert_eq!(timeout, None);
    }

    #[test]
    fn trace_records_rows() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 8);
        let y = nl.add_net("y", 8);
        nl.add_cell("n", CellOp::Not, &[a], &[y]).unwrap();
        nl.mark_output(y);
        let mut sim = Simulator::new(&nl).unwrap();
        sim.enable_trace(&[y]);
        sim.poke("a", 0x0F).unwrap();
        sim.step().unwrap();
        sim.step().unwrap();
        let trace = sim.take_trace().unwrap();
        assert_eq!(trace.rows.len(), 2);
        assert_eq!(trace.rows[0].1[0], 0xF0);
        let text = trace.render(&nl);
        assert!(text.contains("$var wire 8"));
    }

    /// A counter next to a quiescent constant-fed subtree: event-driven
    /// settling must evaluate far fewer ops than a full pass per settle
    /// (the quiescent chain settles once and never again).
    #[test]
    fn event_driven_skips_quiescent_logic() {
        let mut nl = Netlist::new("mix");
        let one = nl.add_net("one", 8);
        let q = nl.add_net("q", 8);
        let next = nl.add_net("next", 8);
        nl.add_cell("c1", CellOp::Const { value: 1 }, &[], &[one])
            .unwrap();
        nl.add_cell("add", CellOp::Add, &[q, one], &[next]).unwrap();
        nl.add_cell(
            "r",
            CellOp::Register {
                has_enable: false,
                has_reset: true,
            },
            &[next],
            &[q],
        )
        .unwrap();
        // quiescent: a chain of NOTs hanging off the constant
        let mut cur = one;
        for i in 0..16 {
            let y = nl.add_net(format!("n{i}"), 8);
            nl.add_cell(format!("not{i}"), CellOp::Not, &[cur], &[y])
                .unwrap();
            cur = y;
        }
        nl.mark_output(q);
        nl.mark_output(cur);
        let mut sim = Simulator::new(&nl).unwrap();
        for cycle in 1..=50u64 {
            sim.step().unwrap();
            assert_eq!(sim.peek_net(q), cycle, "counter");
            // an even number of NOTs is the identity
            assert_eq!(sim.peek_net(cur), 1, "quiescent chain holds");
        }
        let full = sim.settle_passes() * sim.settle_program_len() as u64;
        assert!(
            sim.settle_ops() < full / 2,
            "event-driven must skip the quiescent chain: {} vs {full}",
            sim.settle_ops()
        );
    }

    /// Reset re-settles the combinational logic from the cleared state.
    #[test]
    fn event_driven_reset_matches_full() {
        let mut nl = Netlist::new("counter");
        let one = nl.add_net("one", 8);
        let q = nl.add_net("q", 8);
        let next = nl.add_net("next", 8);
        nl.add_cell("c1", CellOp::Const { value: 1 }, &[], &[one])
            .unwrap();
        nl.add_cell("add", CellOp::Add, &[q, one], &[next]).unwrap();
        nl.add_cell(
            "r",
            CellOp::Register {
                has_enable: false,
                has_reset: true,
            },
            &[next],
            &[q],
        )
        .unwrap();
        nl.mark_output(q);
        let mut sim = Simulator::new(&nl).unwrap();
        sim.run(7).unwrap();
        assert_eq!(sim.peek("q").unwrap(), 7);
        sim.reset();
        assert_eq!(sim.peek("q").unwrap(), 0);
        assert_eq!(sim.peek("next").unwrap(), 1, "comb logic re-settled");
        sim.run(3).unwrap();
        assert_eq!(sim.peek("q").unwrap(), 3);
    }

    /// Poking the same value twice must not change anything and must not
    /// re-evaluate the input's fanout.
    #[test]
    fn event_driven_identical_poke_is_free() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 8);
        let y = nl.add_net("y", 8);
        nl.add_cell("n", CellOp::Not, &[a], &[y]).unwrap();
        nl.mark_output(y);
        let mut sim = Simulator::new(&nl).unwrap();
        sim.poke("a", 5).unwrap();
        let ops_after_first = sim.settle_ops();
        sim.poke("a", 5).unwrap();
        assert_eq!(sim.settle_ops(), ops_after_first, "no-change poke is free");
        assert_eq!(sim.peek("y").unwrap(), 0xFA);

        // the same holds for packed lanes
        let nl = bit_fabric(64);
        let mut sim = Simulator::new(&nl).unwrap();
        sim.poke("a5", 1).unwrap();
        let (ops, passes) = (sim.settle_ops(), sim.settle_passes());
        sim.poke("a5", 1).unwrap();
        sim.poke("b9", 0).unwrap();
        assert_eq!(sim.settle_ops(), ops, "no-change pokes are free");
        assert_eq!(sim.settle_passes(), passes + 2, "each poke is one pass");
    }

    #[test]
    fn slice_and_extend() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 16);
        let hi = nl.add_net("hi", 8);
        let sx = nl.add_net("sx", 16);
        nl.add_cell("s", CellOp::Slice { lo: 8, hi: 15 }, &[a], &[hi])
            .unwrap();
        nl.add_cell("x", CellOp::SignExtend, &[hi], &[sx]).unwrap();
        nl.mark_output(sx);
        let mut sim = Simulator::new(&nl).unwrap();
        sim.poke("a", 0x8034).unwrap();
        assert_eq!(sim.peek("hi").unwrap(), 0x80);
        assert_eq!(sim.peek("sx").unwrap(), 0xFF80);
    }

    #[test]
    fn new_defaults_to_packed_event_settle() {
        let nl = bit_fabric(64);
        let mut sim = Simulator::new(&nl).unwrap();
        assert!(sim.packed_lanes() > 0, "a 64-lane fabric forms packed words");
        sim.poke("a0", 1).unwrap();
        sim.step().unwrap();
        let ops = sim.settle_ops();
        sim.step().unwrap();
        assert_eq!(sim.settle_ops(), ops, "a quiescent cycle evaluates nothing");
    }

    /// A bit-blasted fabric: `lanes` independent 1-bit slices, each with
    /// an identical mix of packable forms (Xor, Not, Mux, Cmp) plus a
    /// per-lane register. With `lanes >= 64` each form fills at least one
    /// full packed word.
    fn bit_fabric(lanes: usize) -> Netlist {
        let mut nl = Netlist::new("bits");
        for i in 0..lanes {
            let a = nl.add_input(format!("a{i}"), 1);
            let b = nl.add_input(format!("b{i}"), 1);
            let x = nl.add_net(format!("x{i}"), 1);
            let y = nl.add_net(format!("y{i}"), 1);
            let m = nl.add_net(format!("m{i}"), 1);
            let c = nl.add_net(format!("c{i}"), 1);
            let q = nl.add_net(format!("q{i}"), 1);
            nl.add_cell(format!("xor{i}"), CellOp::Xor, &[a, b], &[x])
                .unwrap();
            nl.add_cell(format!("not{i}"), CellOp::Not, &[x], &[y])
                .unwrap();
            nl.add_cell(format!("mux{i}"), CellOp::Mux, &[a, x, y], &[m])
                .unwrap();
            nl.add_cell(
                format!("cmp{i}"),
                CellOp::Cmp(Comparison::LtU),
                &[a, b],
                &[c],
            )
            .unwrap();
            nl.add_cell(
                format!("reg{i}"),
                CellOp::Register {
                    has_enable: false,
                    has_reset: true,
                },
                &[m],
                &[q],
            )
            .unwrap();
            nl.mark_output(q);
            nl.mark_output(c);
        }
        nl
    }

    /// Packing folds groups of identical 1-bit ops into 64-lane words:
    /// the walked program shrinks while the scalar-op weight (and every
    /// counter identity built on it) is preserved.
    #[test]
    fn packing_compiles_wide_one_bit_groups() {
        let nl = bit_fabric(80);
        let packed = Simulator::new(&nl).unwrap();
        assert_eq!(packed.settle_program_len(), 80 * 4);
        // 4 forms × 80 lanes → 4 full words + 4 remainder words of 16
        assert_eq!(packed.packed_words(), 8);
        assert_eq!(packed.packed_lanes(), 80 * 4);
        assert_eq!(packed.settle_words(), 8);
        // occupancy: 320 lanes over 8 words = 62.5%
        assert_eq!(packed.lane_occupancy_permille(), 625);
    }

    /// A group packs only once it reaches `MIN_PACK_LANES`: one lane
    /// short, every op stays scalar; at the threshold, each of the
    /// fabric's four boolean forms packs into one word.
    #[test]
    fn packing_starts_at_min_pack_lanes() {
        let nl = bit_fabric(MIN_PACK_LANES - 1);
        let sim = Simulator::new(&nl).unwrap();
        assert_eq!(sim.packed_words(), 0);
        assert_eq!(sim.settle_words(), sim.settle_program_len());
        let nl = bit_fabric(MIN_PACK_LANES);
        let sim = Simulator::new(&nl).unwrap();
        assert_eq!(sim.packed_words(), 4, "one word per form");
        assert_eq!(sim.packed_lanes(), MIN_PACK_LANES * 4);
        assert_eq!(sim.settle_words(), 4);
    }

    /// Construction and every reset evaluate the whole program exactly
    /// once: one pass of `settle_program_len()` ops. Checked on a packed
    /// program (8 words, a partial bitmap word) and a 300-op scalar chain
    /// (several bitmap words, the last one partial).
    #[test]
    fn construction_and_reset_cost_one_full_pass() {
        let fabric = bit_fabric(70);
        let mut chain = Netlist::new("chain");
        let mut cur = chain.add_input("a", 8);
        for i in 0..300 {
            let y = chain.add_net(format!("n{i}"), 8);
            chain
                .add_cell(format!("not{i}"), CellOp::Not, &[cur], &[y])
                .unwrap();
            cur = y;
        }
        chain.mark_output(cur);
        for (nl, input) in [(&fabric, "a3"), (&chain, "a")] {
            let mut sim = Simulator::new(nl).unwrap();
            let len = sim.settle_program_len() as u64;
            assert_eq!(sim.settle_passes(), 1, "{}: construction", nl.name());
            assert_eq!(sim.settle_ops(), len, "{}: construction", nl.name());
            let mut rng = crate::rng::DetRng::new(0xE16);
            for round in 0..3 {
                for _ in 0..20 {
                    sim.poke(input, rng.next_u64()).unwrap();
                    sim.step().unwrap();
                }
                let (ops, passes) = (sim.settle_ops(), sim.settle_passes());
                sim.reset();
                assert_eq!(sim.settle_passes(), passes + 1, "{} reset {round}", nl.name());
                assert_eq!(sim.settle_ops(), ops + len, "{} reset {round}", nl.name());
            }
        }
    }

    /// A deep scalar chain, one op per rank, settles in order on the
    /// event-driven path: a poke that flips every net costs exactly the
    /// full program, like a full settle.
    #[test]
    fn deep_chain_event_settle_matches_full_settle() {
        let mut nl = Netlist::new("chain");
        let a = nl.add_input("a", 8);
        let mut cur = a;
        for i in 0..300 {
            let y = nl.add_net(format!("n{i}"), 8);
            nl.add_cell(format!("not{i}"), CellOp::Not, &[cur], &[y])
                .unwrap();
            cur = y;
        }
        nl.mark_output(cur);
        let mut sim = Simulator::new(&nl).unwrap();
        assert_eq!(sim.settle_words(), 300);
        for v in [0x5A, 0x00, 0xFF] {
            let ops = sim.settle_ops();
            sim.poke("a", v).unwrap();
            // even number of NOTs → identity
            assert_eq!(sim.peek_net(cur), v);
            assert_eq!(sim.settle_ops() - ops, 300, "every op flips");
        }
        assert_eq!(sim.settle_parallel_passes(), 0, "settling is serial");
    }

    /// Simulator::clone preserves all state, including packed words and
    /// dirty bookkeeping.
    #[test]
    fn clone_preserves_packed_state() {
        let nl = bit_fabric(64);
        let mut sim = Simulator::new(&nl).unwrap();
        sim.poke("a3", 1).unwrap();
        sim.step().unwrap();
        let mut twin = sim.clone();
        sim.poke("b7", 1).unwrap();
        twin.poke("b7", 1).unwrap();
        sim.step().unwrap();
        twin.step().unwrap();
        for (nid, _) in nl.nets() {
            assert_eq!(sim.peek_net(nid), twin.peek_net(nid), "net {nid}");
        }
        assert_eq!(sim.settle_ops(), twin.settle_ops());
    }

    /// `n` independent 8-bit counters `q_i' = q_i + 1`, each loading only
    /// while its own input `en_i` is 1.
    fn enabled_counters(n: usize) -> Netlist {
        let mut nl = Netlist::new("counters");
        let one = nl.add_net("one", 8);
        nl.add_cell("c1", CellOp::Const { value: 1 }, &[], &[one])
            .unwrap();
        for i in 0..n {
            let en = nl.add_input(format!("en{i}"), 1);
            let q = nl.add_net(format!("q{i}"), 8);
            let next = nl.add_net(format!("next{i}"), 8);
            nl.add_cell(format!("add{i}"), CellOp::Add, &[q, one], &[next])
                .unwrap();
            nl.add_cell(
                format!("r{i}"),
                CellOp::Register {
                    has_enable: true,
                    has_reset: true,
                },
                &[next, en],
                &[q],
            )
            .unwrap();
            nl.mark_output(q);
        }
        nl
    }

    /// With one of 8 counters enabled, every edge after the first samples
    /// exactly that counter: the others' `d` and `en` never change.
    #[test]
    fn clock_edge_samples_only_registers_whose_inputs_changed() {
        let nl = enabled_counters(8);
        let mut sim = Simulator::new(&nl).unwrap();
        assert_eq!(sim.register_count(), 8);
        sim.poke("en3", 1).unwrap();
        sim.step().unwrap();
        assert_eq!(
            sim.register_evals(),
            8,
            "the first edge samples every register"
        );
        for cycle in 2..=20u64 {
            let evals = sim.register_evals();
            sim.step().unwrap();
            assert_eq!(sim.register_evals() - evals, 1, "cycle {cycle}");
            for i in 0..8 {
                let want = if i == 3 { cycle } else { 0 };
                assert_eq!(sim.peek(&format!("q{i}")).unwrap(), want, "q{i} at {cycle}");
            }
        }
    }

    /// A held register (en = 0, d ≠ q) is not sampled while nothing
    /// changes, and loads on the first edge after `en` rises.
    #[test]
    fn held_register_loads_on_the_edge_after_enable_rises() {
        let mut nl = Netlist::new("held");
        let d = nl.add_input("d", 8);
        let en = nl.add_input("en", 1);
        let q = nl.add_net("q", 8);
        nl.add_cell(
            "r",
            CellOp::Register {
                has_enable: true,
                has_reset: true,
            },
            &[d, en],
            &[q],
        )
        .unwrap();
        nl.mark_output(q);
        let mut sim = Simulator::new(&nl).unwrap();
        sim.poke("d", 42).unwrap();
        sim.run(5).unwrap();
        assert_eq!(sim.peek("q").unwrap(), 0, "disabled register holds");
        assert_eq!(sim.register_evals(), 1, "quiet edges sample nothing");
        sim.poke("en", 1).unwrap();
        sim.step().unwrap();
        assert_eq!(sim.peek("q").unwrap(), 42);
        assert_eq!(sim.register_evals(), 2);
    }

    /// A shift chain of registers with no logic between the stages moves
    /// a value one stage per edge: a register's commit marks the next
    /// stage for the following edge, never for the current one.
    #[test]
    fn register_shift_chain_advances_one_stage_per_cycle() {
        let mut nl = Netlist::new("shift");
        let mut cur = nl.add_input("in", 8);
        let mut stages = Vec::new();
        for i in 0..4 {
            let q = nl.add_net(format!("s{i}"), 8);
            nl.add_cell(
                format!("r{i}"),
                CellOp::Register {
                    has_enable: false,
                    has_reset: true,
                },
                &[cur],
                &[q],
            )
            .unwrap();
            stages.push(q);
            cur = q;
        }
        nl.mark_output(cur);
        let mut sim = Simulator::new(&nl).unwrap();
        sim.poke("in", 7).unwrap();
        for cycle in 0..4 {
            sim.step().unwrap();
            if cycle == 0 {
                sim.poke("in", 0).unwrap();
            }
            for (i, &q) in stages.iter().enumerate() {
                let want = if i == cycle { 7 } else { 0 };
                assert_eq!(sim.peek_net(q), want, "stage {i} after edge {cycle}");
            }
        }
    }

    /// `reset()` re-arms every register: the next edge samples all of
    /// them, even those whose inputs have not changed since.
    #[test]
    fn first_edge_after_reset_samples_every_register() {
        let nl = enabled_counters(70);
        let mut sim = Simulator::new(&nl).unwrap();
        sim.poke("en5", 1).unwrap();
        sim.run(10).unwrap();
        sim.reset();
        assert_eq!(sim.peek("q5").unwrap(), 0);
        let evals = sim.register_evals();
        sim.step().unwrap();
        assert_eq!(sim.register_evals() - evals, 70, "every register samples");
        assert_eq!(sim.peek("q5").unwrap(), 1);
        let evals = sim.register_evals();
        sim.step().unwrap();
        assert_eq!(sim.register_evals() - evals, 1, "then only the active one");
    }
}
