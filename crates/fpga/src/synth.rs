//! Logic synthesis: technology mapping of coarse netlists to fabric
//! primitives.
//!
//! Every word-level cell is expanded into the primitives a NanoXplore-style
//! fabric provides, with real per-bit connectivity so that placement and
//! timing operate on an honest graph:
//!
//! * add/sub/compare → hard carry chains (one [`Primitive::Carry`] per bit),
//! * bitwise logic and muxes → LUT4s,
//! * constant operands → folded into their readers' LUTs: an equality
//!   against a constant is one LUT4 per nibble, a mux bit with a constant
//!   data input a LUT of at most two inputs, and a constant's own per-bit
//!   LUTs are emitted only for readers that still need its bits,
//! * variable shifts → log-depth barrel-shifter stages of mux LUTs,
//! * multiply → DSP blocks (tiled when wider than the DSP operand width),
//! * divide/modulo → an unrolled restoring-divider array,
//! * registers → DFFs, memories → block RAMs sized by the device model.

use crate::device::DeviceProfile;
use crate::primitives::{truth, CellName, PNetId, PrimNetlist, Primitive, Utilization};
use crate::FpgaError;
use hermes_rtl::component::Comparison;
use hermes_rtl::mask;
use hermes_rtl::netlist::{CellOp, Netlist, NetId};

/// Outcome of technology mapping.
#[derive(Debug, Clone)]
pub struct SynthResult {
    /// The mapped primitive netlist.
    pub prim: PrimNetlist,
    /// Synthesis report.
    pub report: SynthReport,
}

/// Per-design synthesis metrics (the "synthesis" row of an NXmap-style
/// flow report).
#[derive(Debug, Clone, Default)]
pub struct SynthReport {
    /// Resource totals after mapping.
    pub utilization: Utilization,
    /// Coarse cells mapped.
    pub coarse_cells: usize,
    /// Primitive cells emitted.
    pub prim_cells: usize,
    /// Per-coarse-cell primitive counts, for the hierarchy report.
    pub per_cell: Vec<(String, usize)>,
}

/// Technology mapper for a given device.
#[derive(Debug, Clone)]
pub struct Synthesizer {
    device: DeviceProfile,
}

struct MapCtx {
    prim: PrimNetlist,
    /// Coarse net `n`'s bits are the primitive nets
    /// `first[n]..first[n + 1]`, allocated contiguously before mapping.
    first: Vec<u32>,
    /// The string `const`, base of the shared constant drivers' names.
    const_name: u32,
    /// The source `<const>` of the shared constant drivers.
    const_src: u32,
    zero: Option<PNetId>,
    one: Option<PNetId>,
    /// Value of every coarse net a `Const` cell drives, by net id.
    konst: Vec<Option<u64>>,
    /// Whether coarse net `n` has a reader that needs its bits, by net id:
    /// a primary output, or an input pin the mapper does not fold.
    read_bits: Vec<bool>,
}

impl MapCtx {
    fn bit(&self, net: NetId, i: usize) -> PNetId {
        PNetId(self.first[net.0 as usize] + i as u32)
    }

    fn bits(&self, net: NetId) -> Vec<PNetId> {
        let n = net.0 as usize;
        (self.first[n]..self.first[n + 1]).map(PNetId).collect()
    }

    /// The value of `net` if a `Const` cell drives it.
    fn konst(&self, net: NetId) -> Option<u64> {
        self.konst[net.0 as usize]
    }

    fn const_bit(&mut self, value: bool) -> PNetId {
        let cached = if value { self.one } else { self.zero };
        if let Some(n) = cached {
            return n;
        }
        let name = CellName::of(self.const_name).at("_", u32::from(value));
        let truth = if value { 0xFFFF } else { 0x0000 };
        let n = self.lut(name, truth, 0, &[], self.const_src);
        if value {
            self.one = Some(n);
        } else {
            self.zero = Some(n);
        }
        n
    }

    /// A LUT driving `out`.
    fn lut_into(&mut self, name: CellName, truth: u16, used: u8, inputs: &[PNetId], out: PNetId, source: u32) {
        let lut = Primitive::Lut4 {
            truth,
            used_inputs: used,
        };
        self.prim.add(name, lut, inputs, &[out], source);
    }

    /// A LUT driving a fresh net, which it returns.
    fn lut(&mut self, name: CellName, truth: u16, used: u8, inputs: &[PNetId], source: u32) -> PNetId {
        let out = self.prim.new_net();
        self.lut_into(name, truth, used, inputs, out, source);
        out
    }

    /// Carry element: inputs `[a, b, cin]`, outputs `[sum, cout]`.
    fn carry(&mut self, name: CellName, a: PNetId, b: PNetId, cin: PNetId, source: u32) -> (PNetId, PNetId) {
        let sum = self.prim.new_net();
        let cout = self.prim.new_net();
        self.prim
            .add(name, Primitive::Carry, &[a, b, cin], &[sum, cout], source);
        (sum, cout)
    }

    /// Ripple add of two bit vectors; returns (sum bits, carry out). Bit
    /// `i`'s carry element is named `{name}_c{i}`.
    fn ripple_add(
        &mut self,
        name: CellName,
        a: &[PNetId],
        b: &[PNetId],
        cin: PNetId,
        source: u32,
    ) -> (Vec<PNetId>, PNetId) {
        let mut carry = cin;
        let mut sums = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let (s, c) = self.carry(name.at("_c", i as u32), a[i], b[i], carry, source);
            sums.push(s);
            carry = c;
        }
        (sums, carry)
    }

    /// Invert every bit; bit `i`'s inverter is named `{name}_n{i}`.
    fn invert_all(&mut self, name: CellName, bits: &[PNetId], source: u32) -> Vec<PNetId> {
        bits.iter()
            .enumerate()
            .map(|(i, &b)| self.lut(name.at("_n", i as u32), truth::NOT1, 1, &[b], source))
            .collect()
    }

    /// OR-reduce a set of bits with a balanced LUT tree; LUT `i` of layer
    /// `d` is named `{name}_or{d}_{i}`.
    fn or_reduce(&mut self, name: CellName, bits: &[PNetId], source: u32) -> PNetId {
        assert!(!bits.is_empty());
        let mut layer: Vec<PNetId> = bits.to_vec();
        let mut depth = 0;
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for (i, pair) in layer.chunks(2).enumerate() {
                if pair.len() == 2 {
                    next.push(self.lut(
                        name.at("_or", depth).at("_", i as u32),
                        truth::OR2,
                        2,
                        pair,
                        source,
                    ));
                } else {
                    next.push(pair[0]);
                }
            }
            layer = next;
            depth += 1;
        }
        layer[0]
    }

    /// Unsigned `a >= b` via a borrow chain; returns the carry-out of
    /// `a + !b + 1`.
    fn geu(&mut self, name: CellName, a: &[PNetId], b: &[PNetId], source: u32) -> PNetId {
        let nb = self.invert_all(name.tag("_nb"), b, source);
        let one = self.const_bit(true);
        let (_, cout) = self.ripple_add(name.tag("_sub"), a, &nb, one, source);
        cout
    }

    /// 1 when the first `width` bits of `other` (zero-extended) differ
    /// from those of `value`: one LUT4 per nibble, each comparing up to
    /// four bits of `other` with the constant's bits, named
    /// `{name}_k{j}`, then the OR-reduce.
    fn differs_from(
        &mut self,
        name: CellName,
        width: usize,
        other: &[PNetId],
        value: u64,
        source: u32,
    ) -> PNetId {
        let mut diffs = Vec::with_capacity(width.div_ceil(4));
        for (j, lo) in (0..width).step_by(4).enumerate() {
            let mut inputs = Vec::with_capacity(4);
            let mut pattern = 0usize;
            let mut never_equal = false;
            for i in lo..width.min(lo + 4) {
                let want = bit_of(value, i);
                match other.get(i) {
                    Some(&b) => {
                        pattern |= usize::from(want) << inputs.len();
                        inputs.push(b);
                    }
                    // above `other`'s width its bits read 0
                    None => never_equal |= want,
                }
            }
            if never_equal {
                diffs.push(self.const_bit(true));
            } else if !inputs.is_empty() {
                // 1 off the one pattern that matches; unused inputs are
                // don't-cares, as in the other truth tables
                let used = (1usize << inputs.len()) - 1;
                let truth = (0..16).fold(0u16, |t, p| t | u16::from(p & used != pattern) << p);
                let k = name.at("_k", j as u32);
                diffs.push(self.lut(k, truth, inputs.len() as u8, &inputs, source));
            }
        }
        self.or_reduce(name, &diffs, source)
    }
}

/// Bit `i` of `value`.
fn bit_of(value: u64, i: usize) -> bool {
    i < 64 && (value >> i) & 1 == 1
}

/// Which operand of an `Eq`/`Ne` cell the mapper folds as a constant: the
/// second when a `Const` drives it, else the first when one drives that.
fn folded_side(inputs: &[NetId], konst: &[Option<u64>]) -> Option<usize> {
    [1, 0].into_iter().find(|&k| konst[inputs[k].0 as usize].is_some())
}

/// Whether the mapper folds input `pin` of `cell` as a constant instead
/// of reading its bits: the folded side of an `Eq`/`Ne`, and a mux data
/// input that a `Const` drives.
fn folds(cell: &hermes_rtl::netlist::Cell, pin: usize, konst: &[Option<u64>]) -> bool {
    match cell.op {
        CellOp::Cmp(Comparison::Eq | Comparison::Ne) => {
            folded_side(&cell.inputs, konst) == Some(pin)
        }
        CellOp::Mux => pin > 0 && konst[cell.inputs[pin].0 as usize].is_some(),
        _ => false,
    }
}

impl Synthesizer {
    /// Create a mapper targeting `device`.
    pub fn new(device: DeviceProfile) -> Self {
        Synthesizer { device }
    }

    /// The target device.
    pub fn device(&self) -> &DeviceProfile {
        &self.device
    }

    /// Map a validated coarse netlist to primitives.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::Netlist`] for structural problems in the input
    /// and [`FpgaError::ResourceOverflow`] if the mapped design exceeds the
    /// device capacity.
    pub fn synthesize(&self, netlist: &Netlist) -> Result<SynthResult, FpgaError> {
        netlist.validate()?;
        let mut prim = PrimNetlist::new(netlist.name());
        let const_name = prim.add_string("const");
        let const_src = prim.add_string("<const>");
        let io_src = prim.add_string("<io>");

        // Pre-allocate per-bit nets for every coarse net, contiguously.
        let mut first = Vec::with_capacity(netlist.net_count() + 1);
        first.push(0);
        for (_, net) in netlist.nets() {
            for _ in 0..net.width {
                prim.new_net();
            }
            first.push(prim.net_count());
        }
        let mut konst = vec![None; netlist.net_count()];
        for (_, cell) in netlist.cells() {
            if let CellOp::Const { value } = cell.op {
                let out = cell.outputs[0];
                konst[out.0 as usize] = Some(mask(value, netlist.net(out).width));
            }
        }
        let mut read_bits = vec![false; netlist.net_count()];
        for &out in netlist.outputs() {
            read_bits[out.0 as usize] = true;
        }
        for (_, cell) in netlist.cells() {
            for (pin, &n) in cell.inputs.iter().enumerate() {
                if !folds(cell, pin, &konst) {
                    read_bits[n.0 as usize] = true;
                }
            }
        }
        let mut ctx = MapCtx {
            prim,
            first,
            const_name,
            const_src,
            zero: None,
            one: None,
            konst,
            read_bits,
        };

        // I/O pads.
        for (ports, is_input) in [(netlist.inputs(), true), (netlist.outputs(), false)] {
            for &port in ports {
                let net = netlist.net(port);
                let base = ctx.prim.add_string(&net.name);
                for i in 0..net.width {
                    let b = ctx.bit(port, i as usize);
                    let (ins, outs) = if is_input { (&[][..], &[b][..]) } else { (&[b][..], &[][..]) };
                    ctx.prim.add(
                        CellName::of(base).at("_pad", i),
                        Primitive::IoPad { is_input },
                        ins,
                        outs,
                        io_src,
                    );
                }
            }
        }

        let mut per_cell = Vec::new();
        for (_, cell) in netlist.cells() {
            let before = ctx.prim.cell_count();
            self.map_cell(&mut ctx, netlist, cell)?;
            per_cell.push((cell.name.clone(), ctx.prim.cell_count() - before));
        }

        let utilization = ctx.prim.utilization();
        self.check_capacity(&utilization)?;
        let report = SynthReport {
            utilization,
            coarse_cells: netlist.cell_count(),
            prim_cells: ctx.prim.cell_count(),
            per_cell,
        };
        Ok(SynthResult {
            prim: ctx.prim,
            report,
        })
    }

    fn check_capacity(&self, u: &Utilization) -> Result<(), FpgaError> {
        let checks = [
            ("LUT4", u.luts, self.device.total_luts()),
            ("DFF", u.ffs, self.device.total_ffs()),
            ("DSP", u.dsps, self.device.total_dsps()),
            ("RAMB", u.rams, self.device.total_rams()),
        ];
        for (name, req, avail) in checks {
            if req > avail {
                return Err(FpgaError::ResourceOverflow {
                    resource: name.into(),
                    required: req,
                    available: avail,
                });
            }
        }
        Ok(())
    }

    fn map_cell(
        &self,
        ctx: &mut MapCtx,
        netlist: &Netlist,
        cell: &hermes_rtl::netlist::Cell,
    ) -> Result<(), FpgaError> {
        let src = ctx.prim.add_string(&cell.name);
        let name = CellName::of(src);
        let in_bits: Vec<Vec<PNetId>> = cell.inputs.iter().map(|&n| ctx.bits(n)).collect();
        let out_w = cell
            .outputs
            .first()
            .map(|&n| netlist.net(n).width as usize)
            .unwrap_or(0);

        // Helper: alias computed bits onto the pre-allocated output bit nets
        // with buffer LUTs (keeps pre-allocation simple and uniform; buffers
        // model the fabric's output muxing and are counted as LUTs, which
        // slightly over-approximates area — acceptable and conservative).
        let drive_out = |ctx: &mut MapCtx, outs: &[PNetId], computed: &[PNetId]| {
            for (i, (&o, &c)) in outs.iter().zip(computed.iter()).enumerate() {
                ctx.lut_into(name.at("_buf", i as u32), truth::BUF1, 1, &[c], o, src);
            }
        };

        match &cell.op {
            CellOp::Add | CellOp::Sub => {
                // both operands zero-extended (or truncated) to the output;
                // a subtrahend's extension inverts to ones
                let sub = matches!(cell.op, CellOp::Sub);
                let b = &in_bits[1][..in_bits[1].len().min(out_w)];
                let b = if sub { ctx.invert_all(name.tag("_nb"), b, src) } else { b.to_vec() };
                let cin = ctx.const_bit(sub);
                let mut fit = |bits: &[PNetId], fill: bool| -> Vec<PNetId> {
                    (0..out_w)
                        .map(|i| bits.get(i).copied().unwrap_or_else(|| ctx.const_bit(fill)))
                        .collect()
                };
                let b = fit(&b, sub);
                let a = fit(&in_bits[0], false);
                let (sums, _) = ctx.ripple_add(name, &a, &b, cin, src);
                let outs = ctx.bits(cell.outputs[0]);
                drive_out(ctx, &outs, &sums);
            }
            CellOp::And | CellOp::Or | CellOp::Xor => {
                let tt = match cell.op {
                    CellOp::And => truth::AND2,
                    CellOp::Or => truth::OR2,
                    _ => truth::XOR2,
                };
                let pairs = in_bits[0].iter().zip(&in_bits[1]).take(out_w);
                for (i, (&a, &b)) in pairs.enumerate() {
                    let out = ctx.bit(cell.outputs[0], i);
                    ctx.lut_into(name.at("_l", i as u32), tt, 2, &[a, b], out, src);
                }
            }
            CellOp::Not => {
                for (i, &a) in in_bits[0].iter().take(out_w).enumerate() {
                    let out = ctx.bit(cell.outputs[0], i);
                    ctx.lut_into(name.at("_l", i as u32), truth::NOT1, 1, &[a], out, src);
                }
            }
            CellOp::Mux => {
                let sel = in_bits[0][0];
                let (ka, kb) = (ctx.konst(cell.inputs[1]), ctx.konst(cell.inputs[2]));
                for i in 0..out_w {
                    let mut data = |k: usize| {
                        in_bits[k].get(i).copied().unwrap_or_else(|| ctx.const_bit(false))
                    };
                    // `sel ? b : a`, with a constant side folded into the LUT
                    let known = |v: Option<u64>| v.map(|v| bit_of(v, i));
                    let (tt, inputs) = match (known(ka), known(kb)) {
                        (None, None) => (truth::MUX21, vec![data(1), data(2), sel]),
                        (Some(false), None) => (truth::AND2, vec![data(2), sel]),
                        (Some(true), None) => (truth::OR_NOT2, vec![data(2), sel]),
                        (None, Some(false)) => (truth::AND_NOT2, vec![data(1), sel]),
                        (None, Some(true)) => (truth::OR2, vec![data(1), sel]),
                        (Some(false), Some(true)) => (truth::BUF1, vec![sel]),
                        (Some(true), Some(false)) => (truth::NOT1, vec![sel]),
                        (Some(x), Some(_)) => (if x { 0xFFFF } else { 0x0000 }, vec![]),
                    };
                    let out = ctx.bit(cell.outputs[0], i);
                    let used = inputs.len() as u8;
                    ctx.lut_into(name.at("_m", i as u32), tt, used, &inputs, out, src);
                }
            }
            CellOp::Cmp(c) => {
                let (a, b) = (&in_bits[0], &in_bits[1]);
                let result = match c {
                    Comparison::Eq | Comparison::Ne => {
                        // the RTL compares over the first operand's width
                        let any = match folded_side(&cell.inputs, &ctx.konst) {
                            Some(k) => {
                                let value = ctx.konst(cell.inputs[k]).expect("a constant side");
                                ctx.differs_from(name, a.len(), &in_bits[1 - k], value, src)
                            }
                            None => {
                                let diffs: Vec<PNetId> = (0..a.len())
                                    .map(|i| {
                                        let x = name.at("_x", i as u32);
                                        ctx.lut(x, truth::XOR2, 2, &[a[i], b[i]], src)
                                    })
                                    .collect();
                                ctx.or_reduce(name, &diffs, src)
                            }
                        };
                        if matches!(c, Comparison::Eq) {
                            ctx.lut(name.tag("_inv"), truth::NOT1, 1, &[any], src)
                        } else {
                            any
                        }
                    }
                    Comparison::GeU | Comparison::LtU => {
                        let ge = ctx.geu(name, a, b, src);
                        if matches!(c, Comparison::GeU) {
                            ge
                        } else {
                            ctx.lut(name.tag("_inv"), truth::NOT1, 1, &[ge], src)
                        }
                    }
                    Comparison::GeS | Comparison::LtS => {
                        // Bias trick: flip both MSBs, then compare unsigned.
                        let mut ab = a.clone();
                        let mut bb = b.clone();
                        let msb = a.len() - 1;
                        ab[msb] = ctx.lut(name.tag("_fa"), truth::NOT1, 1, &[a[msb]], src);
                        bb[msb] = ctx.lut(name.tag("_fb"), truth::NOT1, 1, &[b[msb]], src);
                        let ge = ctx.geu(name, &ab, &bb, src);
                        if matches!(c, Comparison::GeS) {
                            ge
                        } else {
                            ctx.lut(name.tag("_inv"), truth::NOT1, 1, &[ge], src)
                        }
                    }
                };
                let out = ctx.bit(cell.outputs[0], 0);
                drive_out(ctx, &[out], &[result]);
            }
            CellOp::Shl | CellOp::ShrL | CellOp::ShrA => {
                let a = in_bits[0].clone();
                let sh = &in_bits[1];
                let w = a.len();
                let stages = (usize::BITS - (w.max(2) - 1).leading_zeros()) as usize;
                let fill = match cell.op {
                    CellOp::ShrA => a[w - 1],
                    _ => ctx.const_bit(false),
                };
                let mut cur = a;
                for s in 0..stages {
                    let amount = 1usize << s;
                    let sel = sh.get(s).copied().unwrap_or_else(|| ctx.const_bit(false));
                    let mut next = Vec::with_capacity(w);
                    for i in 0..w {
                        let shifted = match cell.op {
                            CellOp::Shl => {
                                if i >= amount {
                                    cur[i - amount]
                                } else {
                                    fill
                                }
                            }
                            _ => {
                                if i + amount < w {
                                    cur[i + amount]
                                } else {
                                    fill
                                }
                            }
                        };
                        next.push(ctx.lut(
                            name.at("_s", s as u32).at("_", i as u32),
                            truth::MUX21,
                            3,
                            &[cur[i], shifted, sel],
                            src,
                        ));
                    }
                    cur = next;
                }
                let outs = ctx.bits(cell.outputs[0]);
                let n = out_w.min(cur.len());
                drive_out(ctx, &outs[..n], &cur[..n]);
            }
            CellOp::Mul => {
                let w = in_bits[0].len() as u32;
                let dsps = self.device.dsps_for_multiplier(w);
                let outs = ctx.bits(cell.outputs[0]);
                if dsps == 1 {
                    let inputs = [in_bits[0].as_slice(), in_bits[1].as_slice()].concat();
                    ctx.prim.add(
                        name.tag("_dsp"),
                        Primitive::Dsp {
                            width: w as u8,
                            pipelined: false,
                        },
                        &inputs,
                        &outs,
                        src,
                    );
                } else {
                    // Tile into dsp_width x dsp_width partial products and
                    // combine with carry-chain adders.
                    let dw = self.device.dsp_width as usize;
                    let n = (w as usize).div_ceil(dw);
                    let mut partials: Vec<Vec<PNetId>> = Vec::new();
                    for ia in 0..n {
                        for ib in 0..n {
                            let a_sl = &in_bits[0][ia * dw..((ia + 1) * dw).min(w as usize)];
                            let b_sl = &in_bits[1][ib * dw..((ib + 1) * dw).min(w as usize)];
                            let p: Vec<PNetId> =
                                (0..out_w).map(|_| ctx.prim.new_net()).collect();
                            ctx.prim.add(
                                name.at("_dsp", ia as u32).at("_", ib as u32),
                                Primitive::Dsp {
                                    width: dw as u8,
                                    pipelined: false,
                                },
                                &[a_sl, b_sl].concat(),
                                &p,
                                src,
                            );
                            partials.push(p);
                        }
                    }
                    let mut acc = partials[0].clone();
                    for (k, p) in partials.iter().enumerate().skip(1) {
                        let cin = ctx.const_bit(false);
                        let (sum, _) = ctx.ripple_add(name.at("_acc", k as u32), &acc, p, cin, src);
                        acc = sum;
                    }
                    drive_out(ctx, &outs[..acc.len().min(out_w)], &acc);
                }
            }
            CellOp::Div | CellOp::Mod => {
                // Unrolled restoring divider: `w` stages, each a conditional
                // subtract (carry chain + mux row).
                let w = in_bits[0].len();
                let a = &in_bits[0];
                let b = &in_bits[1];
                let zero = ctx.const_bit(false);
                let one = ctx.const_bit(true);
                let mut rem: Vec<PNetId> = vec![zero; w];
                let mut quot: Vec<PNetId> = Vec::with_capacity(w);
                for s in (0..w).rev() {
                    let stage = name.at("_st", s as u32);
                    // shift remainder left, bring in bit a[s]
                    let mut shifted = Vec::with_capacity(w);
                    shifted.push(a[s]);
                    shifted.extend_from_slice(&rem[..w - 1]);
                    // trial subtract: shifted - b
                    let nb = ctx.invert_all(stage.tag("_nb"), b, src);
                    let (diff, cout) = ctx.ripple_add(stage, &shifted, &nb, one, src);
                    // if cout==1 (no borrow) keep diff, else keep shifted
                    let mut nrem = Vec::with_capacity(w);
                    for i in 0..w {
                        nrem.push(ctx.lut(
                            stage.at("_m", i as u32),
                            truth::MUX21,
                            3,
                            &[shifted[i], diff[i], cout],
                            src,
                        ));
                    }
                    rem = nrem;
                    quot.push(cout);
                }
                quot.reverse();
                let outs = ctx.bits(cell.outputs[0]);
                let chosen = if matches!(cell.op, CellOp::Div) {
                    quot
                } else {
                    rem
                };
                let n = out_w.min(chosen.len());
                drive_out(ctx, &outs[..n], &chosen[..n]);
            }
            // only a reader that does not fold the value needs its bits
            CellOp::Const { value } if ctx.read_bits[cell.outputs[0].0 as usize] => {
                for i in 0..out_w {
                    let bit = (*value >> i) & 1 == 1;
                    let out = ctx.bit(cell.outputs[0], i);
                    let tt = if bit { 0xFFFF } else { 0x0000 };
                    ctx.lut_into(name.at("_c", i as u32), tt, 0, &[], out, src);
                }
            }
            CellOp::Const { .. } => {}
            CellOp::Slice { lo, .. } => {
                for i in 0..out_w {
                    let src_i = *lo as usize + i;
                    let from = in_bits[0]
                        .get(src_i)
                        .copied()
                        .unwrap_or_else(|| ctx.const_bit(false));
                    let out = ctx.bit(cell.outputs[0], i);
                    ctx.lut_into(name.at("_b", i as u32), truth::BUF1, 1, &[from], out, src);
                }
            }
            CellOp::ZeroExtend | CellOp::SignExtend => {
                let iw = in_bits[0].len();
                let fill = if matches!(cell.op, CellOp::SignExtend) {
                    in_bits[0][iw - 1]
                } else {
                    ctx.const_bit(false)
                };
                for i in 0..out_w {
                    let from = in_bits[0].get(i).copied().unwrap_or(fill);
                    let out = ctx.bit(cell.outputs[0], i);
                    ctx.lut_into(name.at("_b", i as u32), truth::BUF1, 1, &[from], out, src);
                }
            }
            CellOp::Register { has_enable, .. } => {
                let en = if *has_enable {
                    Some(in_bits[1][0])
                } else {
                    None
                };
                for i in 0..out_w {
                    let d = in_bits[0]
                        .get(i)
                        .copied()
                        .unwrap_or_else(|| ctx.const_bit(false));
                    let inputs = [d, en.unwrap_or(d)];
                    let n_in = if en.is_some() { 2 } else { 1 };
                    let out = ctx.bit(cell.outputs[0], i);
                    ctx.prim.add(
                        name.at("_ff", i as u32),
                        Primitive::Dff {
                            has_enable: en.is_some(),
                        },
                        &inputs[..n_in],
                        &[out],
                        src,
                    );
                }
            }
            CellOp::RamTdp { depth, .. } => {
                let w = netlist.net(cell.outputs[0]).width;
                let count = self.device.rams_for(*depth, w);
                let all_inputs = in_bits.concat();
                let ports = [ctx.bits(cell.outputs[0]), ctx.bits(cell.outputs[1])].concat();
                for k in 0..count {
                    let outs: Vec<PNetId> = if k == 0 {
                        ports.clone()
                    } else {
                        (0..ports.len()).map(|_| ctx.prim.new_net()).collect()
                    };
                    ctx.prim.add(
                        name.at("_ramb", k),
                        Primitive::Ramb {
                            depth: *depth,
                            width: w.min(64) as u8,
                        },
                        &all_inputs,
                        &outs,
                        src,
                    );
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_rtl::netlist::{CellOp, Netlist};

    fn synth(nl: &Netlist) -> SynthResult {
        Synthesizer::new(DeviceProfile::ng_medium_like())
            .synthesize(nl)
            .expect("synthesis succeeds")
    }

    fn two_op(op: CellOp, w: u32) -> Netlist {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", w);
        let b = nl.add_input("b", w);
        let y = nl.add_net("y", w);
        nl.add_cell("op", op, &[a, b], &[y]).unwrap();
        nl.mark_output(y);
        nl
    }

    #[test]
    fn adder_uses_carry_chain() {
        let r = synth(&two_op(CellOp::Add, 16));
        assert_eq!(r.report.utilization.carries, 16);
        // buffers + carries + io pads
        assert!(r.report.utilization.luts >= 32);
    }

    #[test]
    fn sub_adds_inverters() {
        let add = synth(&two_op(CellOp::Add, 16));
        let sub = synth(&two_op(CellOp::Sub, 16));
        assert!(sub.report.utilization.luts > add.report.utilization.luts);
        assert_eq!(sub.report.utilization.carries, 16);
    }

    #[test]
    fn narrow_multiplier_is_one_dsp() {
        let r = synth(&two_op(CellOp::Mul, 16));
        assert_eq!(r.report.utilization.dsps, 1);
    }

    #[test]
    fn wide_multiplier_tiles_dsps() {
        let r = synth(&two_op(CellOp::Mul, 32));
        assert_eq!(r.report.utilization.dsps, 4);
        // combiner adders appear
        assert!(r.report.utilization.carries > 0);
    }

    #[test]
    fn divider_is_quadratic_ish() {
        let d8 = synth(&two_op(CellOp::Div, 8)).report.utilization.luts;
        let d16 = synth(&two_op(CellOp::Div, 16)).report.utilization.luts;
        assert!(
            d16 as f64 > 3.0 * d8 as f64,
            "divider area should grow super-linearly: {d8} -> {d16}"
        );
    }

    #[test]
    fn barrel_shifter_log_stages() {
        let r = synth(&two_op(CellOp::Shl, 32));
        // 5 stages x 32 muxes = 160 LUTs + 32 buffers + pads
        let u = r.report.utilization;
        assert!(u.luts >= 160 && u.luts <= 320, "got {}", u.luts);
    }

    #[test]
    fn register_maps_to_ffs() {
        let mut nl = Netlist::new("t");
        let d = nl.add_input("d", 24);
        let q = nl.add_net("q", 24);
        nl.add_cell(
            "r",
            CellOp::Register {
                has_enable: false,
                has_reset: true,
            },
            &[d],
            &[q],
        )
        .unwrap();
        nl.mark_output(q);
        let r = synth(&nl);
        assert_eq!(r.report.utilization.ffs, 24);
    }

    #[test]
    fn ram_maps_to_ramb() {
        let mut nl = Netlist::new("t");
        let aa = nl.add_input("aa", 10);
        let da = nl.add_input("da", 32);
        let wa = nl.add_input("wa", 1);
        let ab = nl.add_input("ab", 10);
        let db = nl.add_input("db", 32);
        let wb = nl.add_input("wb", 1);
        let ra = nl.add_net("ra", 32);
        let rb = nl.add_net("rb", 32);
        nl.add_cell(
            "m",
            CellOp::RamTdp {
                depth: 1024,
                init: vec![],
            },
            &[aa, da, wa, ab, db, wb],
            &[ra, rb],
        )
        .unwrap();
        nl.mark_output(ra);
        nl.mark_output(rb);
        let r = synth(&nl);
        assert_eq!(r.report.utilization.rams, 1);
    }

    #[test]
    fn capacity_overflow_detected() {
        // A multiplier too wide for the medium device's DSP budget would be
        // hard to build; instead synthesize a huge register file.
        let mut nl = Netlist::new("t");
        let d = nl.add_input("d", 64);
        let mut prev = d;
        for i in 0..200 {
            let q = nl.add_net(format!("q{i}"), 64);
            nl.add_cell(
                format!("r{i}"),
                CellOp::Register {
                    has_enable: false,
                    has_reset: true,
                },
                &[prev],
                &[q],
            )
            .unwrap();
            prev = q;
        }
        nl.mark_output(prev);
        // 200 x 64 = 12800 FFs fits NG-MEDIUM (28k); force a tiny device.
        let mut tiny = DeviceProfile::ng_medium_like();
        tiny.grid_cols = 8;
        tiny.grid_rows = 8;
        tiny.dsp_columns = vec![1];
        tiny.ram_columns = vec![2];
        let err = Synthesizer::new(tiny).synthesize(&nl).unwrap_err();
        assert!(matches!(err, FpgaError::ResourceOverflow { .. }));
    }

    #[test]
    fn comparator_produces_single_bit() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 16);
        let b = nl.add_input("b", 16);
        let y = nl.add_net("y", 1);
        nl.add_cell("c", CellOp::Cmp(Comparison::LtS), &[a, b], &[y])
            .unwrap();
        nl.mark_output(y);
        let r = synth(&nl);
        assert_eq!(r.report.utilization.carries, 16);
        assert!(r.report.utilization.luts > 16);
    }

    /// `x == k` (or `x != k`) for a `w`-bit input and constant `k`; the
    /// constant is the first operand when `const_first`.
    fn eq_const(cmp: Comparison, w: u32, value: u64, const_first: bool) -> Netlist {
        let mut nl = Netlist::new("t");
        let x = nl.add_input("x", w);
        let k = nl.add_net("k", w);
        nl.add_cell("kc", CellOp::Const { value }, &[], &[k]).unwrap();
        let y = nl.add_net("y", 1);
        let ops = if const_first { [k, x] } else { [x, k] };
        nl.add_cell("c", CellOp::Cmp(cmp), &ops, &[y]).unwrap();
        nl.mark_output(y);
        nl
    }

    #[test]
    fn equality_against_a_constant_is_one_lut_per_nibble() {
        for (cmp, const_first) in [(Comparison::Eq, false), (Comparison::Ne, true)] {
            let r = synth(&eq_const(cmp, 32, 0xDEAD_BEEF, const_first));
            let per_cell: Vec<(&str, usize)> =
                r.report.per_cell.iter().map(|(n, c)| (n.as_str(), *c)).collect();
            // 8 nibble LUTs, a 7-LUT OR tree, the inverter (Eq only) and
            // the output buffer; the constant itself maps to nothing
            let inv = usize::from(matches!(cmp, Comparison::Eq));
            assert_eq!(per_cell, [("kc", 0), ("c", 8 + 7 + inv + 1)], "{cmp:?}");
            assert_eq!(r.report.utilization.carries, 0);
        }
    }

    #[test]
    fn mux_with_a_constant_side_is_two_input_luts() {
        let mut nl = Netlist::new("t");
        let sel = nl.add_input("sel", 1);
        let d = nl.add_input("d", 16);
        let k = nl.add_net("k", 16);
        nl.add_cell("kc", CellOp::Const { value: 0x00FF }, &[], &[k]).unwrap();
        let y = nl.add_net("y", 16);
        nl.add_cell("m", CellOp::Mux, &[sel, k, d], &[y]).unwrap();
        nl.mark_output(y);
        let p = synth(&nl).prim;
        let luts: Vec<u8> = p
            .cells()
            .filter_map(|(_, c)| match c.prim {
                Primitive::Lut4 { used_inputs, .. } => Some(used_inputs),
                _ => None,
            })
            .collect();
        assert_eq!(luts, [2; 16], "one 2-input LUT per bit and no constant LUTs");
    }

    #[test]
    fn constants_map_only_for_readers_that_need_their_bits() {
        let mut nl = Netlist::new("t");
        let x = nl.add_input("x", 8);
        let unread = nl.add_net("unread", 8);
        nl.add_cell("z", CellOp::Const { value: 0 }, &[], &[unread]).unwrap();
        let one = nl.add_net("one", 8);
        nl.add_cell("k1", CellOp::Const { value: 1 }, &[], &[one]).unwrap();
        let y = nl.add_net("y", 8);
        nl.add_cell("inc", CellOp::Add, &[x, one], &[y]).unwrap();
        nl.mark_output(y);
        let r = synth(&nl);
        let count = |cell: &str| r.report.per_cell.iter().find(|(n, _)| n == cell).unwrap().1;
        assert_eq!((count("z"), count("k1")), (0, 8));
    }

    #[test]
    fn per_cell_report_covers_all_cells() {
        let nl = two_op(CellOp::Add, 8);
        let r = synth(&nl);
        assert_eq!(r.report.per_cell.len(), 1);
        assert_eq!(r.report.per_cell[0].0, "op");
        assert!(r.report.per_cell[0].1 > 0);
    }

    /// Every instance name the mapper emits, in cell order.
    fn names(nl: &Netlist) -> Vec<String> {
        let p = synth(nl).prim;
        p.cells().map(|(id, _)| p.cell_name(id)).collect()
    }

    fn assert_names(nl: &Netlist, expected: &[String]) {
        let got = names(nl);
        for e in expected {
            assert!(got.contains(e), "{e} missing from {got:?}");
        }
    }

    #[test]
    fn keyed_names_render_as_the_format_strings() {
        let (name, i, s, d) = ("op", 3, 2, 1);
        assert_names(
            &two_op(CellOp::Add, 4),
            &[
                format!("{}_pad{}", "a", i),
                format!("{}_pad{}", "y", i),
                format!("const_{}", 0),
                format!("{name}_c{i}"),
                format!("{name}_buf{i}"),
            ],
        );
        assert_names(
            &two_op(CellOp::Sub, 4),
            &[format!("{name}_nb_n{i}"), format!("const_{}", 1)],
        );
        assert_names(&two_op(CellOp::Shl, 8), &[format!("{name}_s{s}_{i}")]);
        assert_names(&two_op(CellOp::Mul, 16), &[format!("{name}_dsp")]);
        let (a, b, k) = (1, 0, 2);
        assert_names(
            &two_op(CellOp::Mul, 32),
            &[format!("{name}_dsp{a}_{b}"), format!("{name}_acc{k}_c{i}")],
        );
        assert_names(
            &two_op(CellOp::Div, 4),
            &[
                format!("{name}_st{s}_nb_n{i}"),
                format!("{name}_st{s}_c{i}"),
                format!("{name}_st{s}_m{i}"),
            ],
        );
        for (cmp, expected) in [
            (
                Comparison::Eq,
                vec![format!("{name}_x{i}"), format!("{name}_or{d}_{}", 0), format!("{name}_inv")],
            ),
            (
                Comparison::LtU,
                vec![format!("{name}_nb_n{i}"), format!("{name}_sub_c{i}")],
            ),
            (Comparison::GeS, vec![format!("{name}_fa"), format!("{name}_fb")]),
        ] {
            let mut nl = Netlist::new("t");
            let x = nl.add_input("a", 4);
            let y = nl.add_input("b", 4);
            let z = nl.add_net("y", 1);
            nl.add_cell(name, CellOp::Cmp(cmp), &[x, y], &[z]).unwrap();
            nl.mark_output(z);
            assert_names(&nl, &expected);
        }
        let (j, k) = (1, "k");
        let mut nl = Netlist::new("t");
        let x = nl.add_input("a", 8);
        let c = nl.add_net("c", 8);
        nl.add_cell(k, CellOp::Const { value: 0x5A }, &[], &[c]).unwrap();
        let z = nl.add_net("y", 1);
        nl.add_cell(name, CellOp::Cmp(Comparison::Ne), &[x, c], &[z]).unwrap();
        let m = nl.add_net("m", 8);
        nl.add_cell("mx", CellOp::Mux, &[z, c, x], &[m]).unwrap();
        let sum = nl.add_net("sum", 8);
        nl.add_cell("add", CellOp::Add, &[m, c], &[sum]).unwrap();
        nl.mark_output(sum);
        assert_names(
            &nl,
            &[format!("{name}_k{j}"), format!("{}_m{i}", "mx"), format!("{k}_c{i}")],
        );
        let mut nl = Netlist::new("t");
        let x = nl.add_input("d", 4);
        let q = nl.add_net("q", 4);
        let reg = CellOp::Register {
            has_enable: false,
            has_reset: true,
        };
        nl.add_cell(name, reg, &[x], &[q]).unwrap();
        nl.mark_output(q);
        assert_names(&nl, &[format!("{name}_ff{i}")]);
    }

    #[test]
    fn ram_names_and_sources_follow_the_coarse_cell() {
        let mut nl = Netlist::new("t");
        let ports: Vec<_> = [("aa", 10), ("da", 32), ("wa", 1), ("ab", 10), ("db", 32), ("wb", 1)]
            .into_iter()
            .map(|(n, w)| nl.add_input(n, w))
            .collect();
        let ra = nl.add_net("ra", 32);
        let rb = nl.add_net("rb", 32);
        let ram = CellOp::RamTdp {
            depth: 1024,
            init: vec![],
        };
        nl.add_cell("m", ram, &ports, &[ra, rb]).unwrap();
        nl.mark_output(ra);
        nl.mark_output(rb);
        let p = synth(&nl).prim;
        let (id, cell) = p
            .cells()
            .find(|(_, c)| matches!(c.prim, Primitive::Ramb { .. }))
            .expect("a block RAM");
        assert_eq!(p.cell_name(id), format!("{}_ramb{}", "m", 0));
        assert_eq!(p.string(cell.source), "m");
        assert_eq!((cell.inputs.len(), cell.outputs.len()), (86, 64));
        for (id, cell) in p.cells() {
            if matches!(cell.prim, Primitive::IoPad { .. }) {
                assert_eq!(p.string(cell.source), "<io>", "{}", p.cell_name(id));
            }
        }
    }
}
