//! Cycle-accurate two-phase netlist simulator.
//!
//! Each [`Simulator::step`] performs one clock cycle:
//!
//! 1. **Settle** — propagate values through the combinational cells in
//!    topological order.
//! 2. **Clock edge** — every sequential cell (register, RAM) samples its
//!    inputs simultaneously and updates its state.
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
/// to higher ranks, so the scan never revisits an index). The first
/// settle after construction (and every settle after
/// [`Self::reset`]) falls back to a full-program evaluation, and
/// [`Self::set_event_driven`] forces the full path for A/B comparisons.
/// Both paths produce bit-identical `values`, register state, and traces.
///
/// **Word-parallel lanes** layer on top of the event-driven scan (E16):
/// at build time, independent 1-bit ops of identical boolean form at the
/// same topological rank are bit-packed up to 64 to a `u64` word and
/// evaluated as one bitwise instruction (classic compiled-code
/// simulation). The scalar `values` array stays authoritative — lanes
/// scatter on change — so peeks, traces, registers, and scalar consumers
/// are untouched. [`Self::new`] packs; [`Self::new_with_packing`] pins the
/// engine on or off.
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
    /// Precomputed register descriptors, in cell order.
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
    /// lane, so work metrics stay comparable across packing modes.
    program_weight: u64,
    /// Total lanes across all packed words (occupancy numerator).
    packed_lanes: u32,
    /// Whether the word-parallel engine was applied at compile time.
    packed_enabled: bool,
    /// CSR fanout index: ops reading net `n` are
    /// `fanout_ops[fanout_start[n]..fanout_start[n + 1]]` (ascending).
    fanout_start: Vec<u32>,
    fanout_ops: Vec<u32>,
    /// Per-op "queued this pass" bitmap, one bit per op in 64-op words
    /// (`dirty[op / 64]` bit `op % 64`): the event scan skips 64 clean
    /// ops per load instead of one.
    dirty: Vec<u64>,
    /// Watermark window of queued op indices: the next event-driven pass
    /// scans `dirty[dirty_lo..=dirty_hi]`. Empty when `lo > hi`
    /// (`u32::MAX`/`0` sentinels).
    dirty_lo: u32,
    dirty_hi: u32,
    /// Next settle must evaluate the full program (construction, reset).
    needs_full: bool,
    /// Event-driven settling enabled (see [`Self::set_event_driven`]).
    event_driven: bool,
    /// Reusable per-step buffer of next register values.
    next_regs: Vec<u64>,
    cycle: u64,
    /// Total settle passes executed (steps, pokes, resets).
    settle_passes: u64,
    /// Total settle ops *evaluated* across all passes (lane-weighted).
    settle_ops: u64,
    trace: Option<Trace>,
}

/// Precomputed per-register data for the clock-edge phase.
#[derive(Debug, Clone, Copy)]
struct RegInfo {
    /// Slot in `reg_state`.
    slot: u32,
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
    /// The word-parallel engine is on; use [`Self::new_with_packing`] to
    /// pin it explicitly.
    ///
    /// # Errors
    ///
    /// Propagates any structural error from [`Netlist::validate`].
    pub fn new(netlist: &'n Netlist) -> Result<Self, RtlError> {
        Self::new_with_packing(netlist, true)
    }

    /// Build a simulator with the word-parallel engine pinned on or off —
    /// the A/B hook for differential tests and experiments that compare
    /// engines.
    ///
    /// # Errors
    ///
    /// Propagates any structural error from [`Netlist::validate`].
    pub fn new_with_packing(netlist: &'n Netlist, packed: bool) -> Result<Self, RtlError> {
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
                    let slot = reg_state.len() as u32;
                    seq_slot[cid.0 as usize] = slot;
                    reg_state.push(0);
                    regs.push(RegInfo {
                        slot,
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
        let prog = Self::compile_program(netlist, scalar_ops, packed);
        let (fanout_start, fanout_ops) =
            Self::compile_fanout(netlist.net_count(), &prog.ops, &prog.packed, &prog.packed_nets);
        let next_regs = vec![0; regs.len()];
        let dirty = vec![0; prog.ops.len().div_ceil(64)];
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
            packed_enabled: packed,
            fanout_start,
            fanout_ops,
            dirty,
            dirty_lo: u32::MAX,
            dirty_hi: 0,
            needs_full: true,
            event_driven: true,
            next_regs,
            cycle: 0,
            settle_passes: 0,
            settle_ops: 0,
            trace: None,
        };
        sim.settle();
        Ok(sim)
    }

    /// Build the CSR net→op fanout index over the compiled program: for
    /// every live input slot of every op, one edge from the input net to
    /// the op. A packed op contributes one edge per lane input net.
    fn compile_fanout(
        net_count: usize,
        ops: &[SettleOp],
        packed: &[PackedWord],
        packed_nets: &[u32],
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
        let mut counts = vec![0u32; net_count + 1];
        for op in ops {
            for net in op_inputs(op) {
                counts[net as usize + 1] += 1;
            }
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let fanout_start = counts.clone();
        let mut cursor = counts;
        let mut fanout_ops = vec![0u32; *fanout_start.last().unwrap_or(&0) as usize];
        for (idx, op) in ops.iter().enumerate() {
            for net in op_inputs(op) {
                fanout_ops[cursor[net as usize] as usize] = idx as u32;
                cursor[net as usize] += 1;
            }
        }
        (fanout_start, fanout_ops)
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
    /// settle program: compute per-op ranks, bit-pack same-form 1-bit ops
    /// at equal rank into 64-lane words (when `pack`), and re-sort
    /// rank-major.
    fn compile_program(netlist: &Netlist, ops: Vec<SettleOp>, pack: bool) -> CompiledProgram {
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
        if pack {
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

    /// Whether word-parallel bit-packing was applied at compile time.
    pub fn packed(&self) -> bool {
        self.packed_enabled
    }

    /// Whether event-driven (activity-gated) settling is enabled.
    pub fn event_driven(&self) -> bool {
        self.event_driven
    }

    /// Force full-program settling (`false`) or activity-gated settling
    /// (`true`). Both produce bit-identical values and traces; the full
    /// path is kept for A/B measurement and differential testing.
    pub fn set_event_driven(&mut self, on: bool) {
        self.event_driven = on;
    }

    /// Export the simulator's work counters into a flight recorder under
    /// subsystem `sub` (RTL clock domain). `settle_ops` counts evaluated
    /// ops; `settle_ops_full` is the full-evaluation baseline, so the
    /// activity factor is their quotient.
    pub fn obs_export(&self, obs: &hermes_obs::Recorder, sub: &str) {
        obs.counter_add(sub, "cycles", self.cycle);
        obs.counter_add(sub, "settle_passes", self.settle_passes);
        obs.counter_add(sub, "settle_ops", self.settle_ops);
        obs.counter_add(sub, "settle_ops_full", self.settle_passes * self.program_weight);
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
    pub fn poke_net(&mut self, id: NetId, value: u64) {
        let new = mask(value, self.netlist.net(id).width);
        if self.values[id.0 as usize] != new {
            self.values[id.0 as usize] = new;
            self.mark_net(id.0);
        }
        self.settle();
    }

    /// Synchronously reset: clears all registers (those declared with reset)
    /// and re-settles. RAM contents are preserved, as on real block RAM.
    /// The settle after a reset is always a full-program pass.
    pub fn reset(&mut self) {
        for r in &self.regs {
            if r.has_reset {
                self.reg_state[r.slot as usize] = 0;
            }
        }
        self.needs_full = true;
        self.settle();
    }

    /// Advance one clock cycle: sample all sequential elements, then settle.
    ///
    /// # Errors
    ///
    /// Currently infallible but kept fallible for forward compatibility with
    /// X-propagation checks.
    pub fn step(&mut self) -> Result<(), RtlError> {
        // Phase 1: compute next state for every sequential cell from the
        // *currently settled* values (simultaneous sampling). Register
        // next-values go into the persistent scratch buffer — the hot path
        // allocates nothing.
        for r in &self.regs {
            let load = r.en == u32::MAX || self.values[r.en as usize] & 1 == 1;
            self.next_regs[r.slot as usize] = if load {
                self.values[r.d as usize] & r.mask
            } else {
                self.reg_state[r.slot as usize]
            };
        }
        // Phase 2: commit register state, seeding the event worklist from
        // every register output whose sampled value actually changed.
        self.reg_state.copy_from_slice(&self.next_regs);
        for i in 0..self.regs.len() {
            let r = self.regs[i];
            let q = self.reg_state[r.slot as usize];
            if self.values[r.q as usize] != q {
                self.values[r.q as usize] = q;
                self.mark_net(r.q);
            }
        }
        // RAMs: ports sample `values`, which no commit above touches, and
        // each memory is private to its cell — so read-first reads, the
        // write commit, and the output drive can be fused per RAM. Output
        // changes seed the worklist like register outputs.
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
            let (ra, rb) = (mem[addr_a], mem[addr_b]);
            if we_a {
                mem[addr_a] = wd_a & r.mask;
            }
            if we_b {
                mem[addr_b] = wd_b & r.mask;
            }
            if self.values[r.ra as usize] != ra {
                self.values[r.ra as usize] = ra;
                self.mark_net(r.ra);
            }
            if self.values[r.rb as usize] != rb {
                self.values[r.rb as usize] = rb;
                self.mark_net(r.rb);
            }
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

    /// Queue every op reading `net` for the next event-driven settle pass.
    #[inline]
    fn mark_net(&mut self, net: u32) {
        let lo = self.fanout_start[net as usize] as usize;
        let hi = self.fanout_start[net as usize + 1] as usize;
        for k in lo..hi {
            let op = self.fanout_ops[k];
            let (w, bit) = (op as usize / 64, 1u64 << (op % 64));
            let word = self.dirty[w];
            if word & bit == 0 {
                self.dirty[w] = word | bit;
                self.dirty_lo = self.dirty_lo.min(op);
                self.dirty_hi = self.dirty_hi.max(op);
            }
        }
    }

    /// One settle pass. Full-program evaluation on the first pass after
    /// construction/reset (and always when event-driven settling is
    /// disabled), otherwise an event-driven scan of the dirty window.
    fn settle(&mut self) {
        self.settle_passes += 1;
        if self.needs_full || !self.event_driven {
            self.needs_full = false;
            // a full pass covers every queued op — drop the marks
            if self.dirty_lo <= self.dirty_hi {
                for w in self.dirty_lo as usize / 64..=self.dirty_hi as usize / 64 {
                    self.dirty[w] = 0;
                }
                self.dirty_lo = u32::MAX;
                self.dirty_hi = 0;
            }
            self.settle_full();
        } else {
            self.settle_event();
        }
    }

    /// Evaluate the entire compiled program in rank-major order.
    fn settle_full(&mut self) {
        self.settle_ops += self.program_weight;
        // Sequential outputs first: registers continuously drive their state.
        for r in &self.regs {
            self.values[r.q as usize] = self.reg_state[r.slot as usize];
        }
        for op in &self.ops {
            if op.kind == SettleKind::Packed {
                let (pw, new, mut changed) = eval_packed(
                    op.a as usize,
                    &self.packed,
                    &self.packed_nets,
                    &mut self.packed_vals,
                    &self.values,
                );
                // scatter changed lanes; the full path never marks
                while changed != 0 {
                    let l = changed.trailing_zeros();
                    let net = self.packed_nets[(pw.outs + l) as usize];
                    self.values[net as usize] = (new >> l) & 1;
                    changed &= changed - 1;
                }
            } else {
                let v = eval_op_with(|n| self.values[n as usize], op);
                self.values[op.out as usize] = v;
            }
        }
    }

    /// Scan the dirty window in topological-rank order. Ranks only grow
    /// along fanout edges (the program is rank-major sorted), so a mark
    /// made during the scan always lands ahead of the cursor — raising
    /// `dirty_hi` at most — and each queued op is reached after all of its
    /// dirty predecessors. Every op is evaluated at most once per pass,
    /// and an op whose output does not change never wakes its fanout. A
    /// linear bitmap scan beats a priority queue here: the window is
    /// usually a small slice of the program, and the per-visited-op cost
    /// is one branch instead of heap maintenance.
    fn settle_event(&mut self) {
        let mut wi = self.dirty_lo as usize / 64;
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
            let i = wi * 64 + b as usize;
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

/// Evaluate one packed word: read each input slot (aligned word read or
/// bit gather), apply the boolean form once across all lanes, and publish
/// the new output word. Returns the word descriptor, the new value, and
/// the changed-lane bitmask; the caller scatters changed lanes into
/// `values` (and marks fanout on event-driven paths).
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

/// Convenience helper implementing [`Comparison`] lookup for simulator users.
pub fn comparison_result(c: Comparison, a: u64, b: u64, width: u32) -> bool {
    c.apply(a, b, width)
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
    /// settling must produce bit-identical values while evaluating far
    /// fewer ops (the quiescent chain settles once and never again).
    #[test]
    fn event_driven_skips_quiescent_logic() {
        let build = || {
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
            nl
        };
        let nl_e = build();
        let nl_f = build();
        let mut ev = Simulator::new(&nl_e).unwrap();
        let mut full = Simulator::new(&nl_f).unwrap();
        full.set_event_driven(false);
        assert!(ev.event_driven());
        assert!(!full.event_driven());
        for _ in 0..50 {
            ev.step().unwrap();
            full.step().unwrap();
            for (nid, _) in nl_e.nets() {
                assert_eq!(ev.peek_net(nid), full.peek_net(nid), "net {nid}");
            }
        }
        assert_eq!(ev.settle_passes(), full.settle_passes());
        assert_eq!(
            full.settle_ops(),
            full.settle_passes() * full.settle_program_len() as u64,
            "full path evaluates the whole program every pass"
        );
        assert!(
            ev.settle_ops() < full.settle_ops() / 2,
            "event-driven must skip the quiescent chain: {} vs {}",
            ev.settle_ops(),
            full.settle_ops()
        );
    }

    /// Reset falls back to a full pass and stays bit-identical.
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
        let sim = Simulator::new(&nl).unwrap();
        assert!(sim.packed(), "new() packs");
        assert!(sim.packed_lanes() > 0, "a 64-lane fabric forms packed words");
        assert!(sim.event_driven(), "new() settles event-driven");
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
        let packed = Simulator::new_with_packing(&nl, true).unwrap();
        let scalar = Simulator::new_with_packing(&nl, false).unwrap();
        assert!(packed.packed());
        assert!(!scalar.packed());
        assert_eq!(packed.settle_program_len(), scalar.settle_program_len());
        assert_eq!(packed.settle_program_len(), 80 * 4);
        // 4 forms × 80 lanes → 4 full words + 4 remainder words of 16
        assert_eq!(packed.packed_words(), 8);
        assert_eq!(packed.packed_lanes(), 80 * 4);
        assert_eq!(packed.settle_words(), 8);
        assert_eq!(scalar.packed_words(), 0);
        assert_eq!(scalar.settle_words(), 80 * 4);
        // occupancy: 320 lanes over 8 words = 62.5%
        assert_eq!(packed.lane_occupancy_permille(), 625);
    }

    /// Packed, scalar, and full-settle evaluation stay bit-identical
    /// through pokes, steps, and resets; the full path's op counter keeps
    /// the packing-invariant `passes × program_len` identity.
    #[test]
    fn packed_matches_scalar_and_full() {
        let nl = bit_fabric(70);
        let mut packed = Simulator::new_with_packing(&nl, true).unwrap();
        let mut scalar = Simulator::new_with_packing(&nl, false).unwrap();
        let mut full = Simulator::new_with_packing(&nl, true).unwrap();
        full.set_event_driven(false);
        let mut rng = crate::rng::DetRng::new(0xE16);
        for cycle in 0..200u32 {
            if cycle % 3 == 0 {
                let i = (rng.next_u64() % 70) as usize;
                let v = rng.next_u64() & 1;
                for s in [&mut packed, &mut scalar, &mut full] {
                    s.poke(&format!("a{i}"), v).unwrap();
                    s.poke(&format!("b{i}"), v ^ 1).unwrap();
                }
            }
            if cycle == 97 {
                for s in [&mut packed, &mut scalar, &mut full] {
                    s.reset();
                }
            }
            for s in [&mut packed, &mut scalar, &mut full] {
                s.step().unwrap();
            }
            for (nid, _) in nl.nets() {
                let v = packed.peek_net(nid);
                assert_eq!(v, scalar.peek_net(nid), "net {nid} vs scalar");
                assert_eq!(v, full.peek_net(nid), "net {nid} vs full");
            }
        }
        assert_eq!(packed.settle_passes(), scalar.settle_passes());
        assert_eq!(
            full.settle_ops(),
            full.settle_passes() * full.settle_program_len() as u64,
            "lane-weighted counting keeps the full-pass identity"
        );
    }

    /// A deep scalar chain, one op per rank, settles in order on the
    /// event-driven path and agrees with full settling.
    #[test]
    fn partitioned_deep_chain_is_correct() {
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
        let mut sim = Simulator::new_with_packing(&nl, true).unwrap();
        let mut full = Simulator::new_with_packing(&nl, true).unwrap();
        full.set_event_driven(false);
        assert_eq!(sim.settle_words(), 300);
        for v in [0x5A, 0x00, 0xFF] {
            sim.poke("a", v).unwrap();
            full.poke("a", v).unwrap();
            // even number of NOTs → identity
            assert_eq!(sim.peek_net(cur), v);
            assert_eq!(full.peek_net(cur), v);
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
}
