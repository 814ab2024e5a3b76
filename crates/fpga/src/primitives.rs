//! Post-synthesis primitive netlist.
//!
//! Technology mapping lowers a coarse word-level netlist to the primitives a
//! NanoXplore-style fabric actually provides: 4-input LUTs, D flip-flops,
//! carry-chain elements, DSP blocks, and true dual-port block RAMs. Nets at
//! this level are single-bit (except DSP/RAM bus stubs, which stay bundled —
//! placement treats each bundle as one net).

use std::fmt;

/// Identifier of a primitive-level net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PNetId(pub u32);

/// Identifier of a primitive cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PCellId(pub u32);

impl fmt::Display for PNetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pn{}", self.0)
    }
}

impl fmt::Display for PCellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pc{}", self.0)
    }
}

/// A fabric primitive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Primitive {
    /// 4-input lookup table. `truth` bit `i` gives the output for input
    /// pattern `i` (input 0 is the LSB of the pattern).
    Lut4 {
        /// 16-bit truth table.
        truth: u16,
        /// Number of used inputs (1..=4).
        used_inputs: u8,
    },
    /// Carry-chain element: one position of a hard ripple chain. Treated as
    /// a LUT site with a fast cascade path during timing analysis.
    Carry,
    /// D flip-flop (with synchronous reset and optional enable).
    Dff {
        /// Whether an enable input is connected.
        has_enable: bool,
    },
    /// DSP block configured as a `width x width` multiplier slice.
    Dsp {
        /// Operand width handled by this block.
        width: u8,
        /// Internal pipeline registers enabled.
        pipelined: bool,
    },
    /// Block RAM configured as true dual-port memory.
    Ramb {
        /// Words stored.
        depth: u32,
        /// Word width.
        width: u8,
    },
    /// I/O pad (one per top-level port bit).
    IoPad {
        /// True for an input pad.
        is_input: bool,
    },
}

impl Primitive {
    /// Short mnemonic for reports.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Primitive::Lut4 { .. } => "LUT4",
            Primitive::Carry => "CARRY",
            Primitive::Dff { .. } => "DFF",
            Primitive::Dsp { .. } => "DSP",
            Primitive::Ramb { .. } => "RAMB",
            Primitive::IoPad { .. } => "IOPAD",
        }
    }

    /// Whether the primitive holds clocked state.
    pub fn is_sequential(&self) -> bool {
        matches!(
            self,
            Primitive::Dff { .. } | Primitive::Ramb { .. } | Primitive::Dsp { pipelined: true, .. }
        )
    }
}

/// An instantiated primitive with its connectivity: a borrowed view of one
/// record of a [`PrimNetlist`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PCell<'a> {
    /// The primitive kind and configuration.
    pub prim: Primitive,
    /// Input nets.
    pub inputs: &'a [PNetId],
    /// Output nets.
    pub outputs: &'a [PNetId],
    /// The coarse cell this primitive was expanded from, as an index into
    /// [`PrimNetlist::string`] (`<io>` for pads, `<const>` for the shared
    /// constant drivers).
    pub source: u32,
}

/// A keyed instance name: a base string of the netlist (see
/// [`PrimNetlist::add_string`]) followed by up to three parts, each a
/// static suffix and an optional index. The `{cell}_st{s}_nb_n{i}`
/// name of a divider stage inverter is
/// `CellName::of(cell).at("_st", s).tag("_nb").at("_n", i)`. Names are kept
/// in this form and rendered only on demand ([`PrimNetlist::cell_name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellName {
    base: u32,
    parts: [(&'static str, u32); 3],
}

/// Index of a part that carries no number.
const NO_INDEX: u32 = u32::MAX;

impl CellName {
    /// A name that is just the netlist string `base`.
    pub fn of(base: u32) -> Self {
        CellName {
            base,
            parts: [("", NO_INDEX); 3],
        }
    }

    /// Append `suffix` followed by the decimal `index`.
    ///
    /// # Panics
    ///
    /// Panics if the name already has three parts.
    pub fn at(self, suffix: &'static str, index: u32) -> Self {
        self.push(suffix, index)
    }

    /// Append `suffix` alone.
    ///
    /// # Panics
    ///
    /// Panics if the name already has three parts.
    pub fn tag(self, suffix: &'static str) -> Self {
        self.push(suffix, NO_INDEX)
    }

    fn push(mut self, suffix: &'static str, index: u32) -> Self {
        let free = self
            .parts
            .iter()
            .position(|&p| p == ("", NO_INDEX))
            .expect("a cell name has at most three parts");
        self.parts[free] = (suffix, index);
        self
    }
}

/// One cell's record: its pins are `pins[start..start + n_in]` (inputs)
/// followed by `n_out` outputs.
#[derive(Debug, Clone, Copy)]
struct CellRec {
    prim: Primitive,
    start: u32,
    n_in: u32,
    n_out: u32,
    source: u32,
}

/// Resource totals of a primitive netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Utilization {
    /// LUT4 count (including carry elements, which occupy LUT sites).
    pub luts: u64,
    /// Flip-flop count.
    pub ffs: u64,
    /// Carry elements (subset of `luts`).
    pub carries: u64,
    /// DSP blocks.
    pub dsps: u64,
    /// Block RAMs.
    pub rams: u64,
    /// I/O pads.
    pub io_pads: u64,
}

impl fmt::Display for Utilization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} LUTs ({} carry), {} FFs, {} DSPs, {} RAMBs, {} IOs",
            self.luts, self.carries, self.ffs, self.dsps, self.rams, self.io_pads
        )
    }
}

/// A netlist of fabric primitives.
///
/// Adding a cell allocates nothing per cell beyond amortized growth of
/// flat tables: every cell's pins live in one shared `pins` vector, its
/// name is a [`CellName`] key in a side table, and its source is an index
/// into `strings`, which holds one entry per coarse cell, port and
/// constant driver rather than one per primitive.
#[derive(Debug, Clone, Default)]
pub struct PrimNetlist {
    /// Module name carried over from the coarse netlist.
    pub name: String,
    cells: Vec<CellRec>,
    names: Vec<CellName>,
    pins: Vec<PNetId>,
    strings: Vec<String>,
    net_count: u32,
}

impl PrimNetlist {
    /// Create an empty primitive netlist.
    pub fn new(name: impl Into<String>) -> Self {
        PrimNetlist {
            name: name.into(),
            ..PrimNetlist::default()
        }
    }

    /// Allocate a fresh net.
    pub fn new_net(&mut self) -> PNetId {
        let id = PNetId(self.net_count);
        self.net_count += 1;
        id
    }

    /// Store a string (a source or the base of cell names) and return its
    /// index. Strings are not deduplicated: two coarse cells that share a
    /// name get two indices with equal text.
    pub fn add_string(&mut self, s: &str) -> u32 {
        self.strings.push(s.to_owned());
        (self.strings.len() - 1) as u32
    }

    /// The string behind an index from [`add_string`](Self::add_string).
    ///
    /// # Panics
    ///
    /// Panics if the index does not belong to this netlist.
    pub fn string(&self, id: u32) -> &str {
        &self.strings[id as usize]
    }

    /// Every stored string, indexed as [`PCell::source`] indexes them.
    pub fn strings(&self) -> &[String] {
        &self.strings
    }

    /// Add a primitive cell.
    pub fn add(
        &mut self,
        name: CellName,
        prim: Primitive,
        inputs: &[PNetId],
        outputs: &[PNetId],
        source: u32,
    ) -> PCellId {
        let id = PCellId(self.cells.len() as u32);
        self.cells.push(CellRec {
            prim,
            start: self.pins.len() as u32,
            n_in: inputs.len() as u32,
            n_out: outputs.len() as u32,
            source,
        });
        self.names.push(name);
        self.pins.extend_from_slice(inputs);
        self.pins.extend_from_slice(outputs);
        id
    }

    fn view(&self, rec: &CellRec) -> PCell<'_> {
        let start = rec.start as usize;
        let mid = start + rec.n_in as usize;
        PCell {
            prim: rec.prim,
            inputs: &self.pins[start..mid],
            outputs: &self.pins[mid..mid + rec.n_out as usize],
            source: rec.source,
        }
    }

    /// All cells with ids.
    pub fn cells(&self) -> impl Iterator<Item = (PCellId, PCell<'_>)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (PCellId(i as u32), self.view(c)))
    }

    /// The cell behind an id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this netlist.
    pub fn cell(&self, id: PCellId) -> PCell<'_> {
        self.view(&self.cells[id.0 as usize])
    }

    /// Render the instance name of a cell (derived from its source coarse
    /// cell, e.g. `add_c3` for bit 3 of the carry chain of `add`).
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this netlist.
    pub fn cell_name(&self, id: PCellId) -> String {
        use fmt::Write as _;
        let name = &self.names[id.0 as usize];
        let mut out = self.strings[name.base as usize].clone();
        for &(suffix, index) in &name.parts {
            out.push_str(suffix);
            if index != NO_INDEX {
                let _ = write!(out, "{index}");
            }
        }
        out
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Total number of nets allocated.
    pub fn net_count(&self) -> u32 {
        self.net_count
    }

    /// Compute resource totals.
    pub fn utilization(&self) -> Utilization {
        let mut u = Utilization::default();
        for c in &self.cells {
            match c.prim {
                Primitive::Lut4 { .. } => u.luts += 1,
                Primitive::Carry => {
                    u.luts += 1;
                    u.carries += 1;
                }
                Primitive::Dff { .. } => u.ffs += 1,
                Primitive::Dsp { .. } => u.dsps += 1,
                Primitive::Ramb { .. } => u.rams += 1,
                Primitive::IoPad { .. } => u.io_pads += 1,
            }
        }
        u
    }

    /// Net → pin index: row `n` lists the cells with a pin on net `n`,
    /// built in one counting pass in cell order, inputs before outputs.
    /// A cell appears once per pin, so a net it reads twice lists it twice.
    pub fn net_pins(&self) -> Csr<PCellId> {
        let pins = self.cells.iter().enumerate().flat_map(|(i, c)| {
            let cid = PCellId(i as u32);
            let start = c.start as usize;
            let end = start + (c.n_in + c.n_out) as usize;
            self.pins[start..end].iter().map(move |n| (n.0 as usize, cid))
        });
        Csr::from_pairs(self.net_count as usize, pins)
    }
}

/// A compressed-sparse-row table: row `r` holds
/// `values[offsets[r]..offsets[r + 1]]`. Dense ids index it directly, so
/// flow hot paths never hash a `PNetId` or `PCellId`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr<T> {
    offsets: Vec<u32>,
    values: Vec<T>,
}

impl<T: Copy + Default> Csr<T> {
    /// Build from `(row, value)` pairs; every row keeps its values in
    /// the order the pairs arrive. The iterator runs twice (count, fill).
    ///
    /// # Panics
    ///
    /// Panics if a pair names a row `>= rows`.
    pub fn from_pairs<I>(rows: usize, pairs: I) -> Self
    where
        I: Iterator<Item = (usize, T)> + Clone,
    {
        let mut offsets = vec![0u32; rows + 1];
        for (r, _) in pairs.clone() {
            offsets[r + 1] += 1;
        }
        for r in 0..rows {
            offsets[r + 1] += offsets[r];
        }
        let mut next = offsets.clone();
        let mut values = vec![T::default(); offsets[rows] as usize];
        for (r, v) in pairs {
            values[next[r] as usize] = v;
            next[r] += 1;
        }
        Csr { offsets, values }
    }
}

impl<T> Csr<T> {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The values of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[T] {
        &self.values[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }

    /// Every row in order.
    pub fn iter(&self) -> impl Iterator<Item = &[T]> + Clone {
        (0..self.rows()).map(|r| self.row(r))
    }
}

/// Common LUT truth tables for 2-input functions placed in a LUT4
/// (inputs 0 and 1 used; the packing convention fixes unused inputs at 0).
pub mod truth {
    /// AND of inputs 0 and 1.
    pub const AND2: u16 = 0x8888;
    /// OR of inputs 0 and 1.
    pub const OR2: u16 = 0xEEEE;
    /// XOR of inputs 0 and 1.
    pub const XOR2: u16 = 0x6666;
    /// Input 0 AND NOT input 1.
    pub const AND_NOT2: u16 = 0x2222;
    /// Input 0 OR NOT input 1.
    pub const OR_NOT2: u16 = 0xBBBB;
    /// NOT of input 0.
    pub const NOT1: u16 = 0x5555;
    /// Buffer of input 0.
    pub const BUF1: u16 = 0xAAAA;
    /// Full-adder sum: in0 ^ in1 ^ in2.
    pub const SUM3: u16 = 0x9696;
    /// Full-adder carry: majority(in0, in1, in2).
    pub const MAJ3: u16 = 0xE8E8;
    /// 2:1 mux: in2 ? in1 : in0.
    pub const MUX21: u16 = 0xCACA;

    /// Evaluate a LUT4 truth table on up to 4 input bits.
    pub fn eval(truth: u16, bits: &[bool]) -> bool {
        let mut idx = 0usize;
        for (i, &b) in bits.iter().take(4).enumerate() {
            if b {
                idx |= 1 << i;
            }
        }
        (truth >> idx) & 1 == 1
    }
}

/// Add a cell whose name and source are both the plain string `name`:
/// the hand-built netlists of unit tests.
#[cfg(test)]
pub(crate) fn add_plain(
    p: &mut PrimNetlist,
    name: &str,
    prim: Primitive,
    inputs: &[PNetId],
    outputs: &[PNetId],
) -> PCellId {
    let s = p.add_string(name);
    p.add(CellName::of(s), prim, inputs, outputs, s)
}

#[cfg(test)]
mod tests {
    use super::truth::*;
    use super::*;

    #[test]
    fn truth_tables_are_correct() {
        for a in [false, true] {
            for b in [false, true] {
                assert_eq!(eval(AND2, &[a, b]), a && b);
                assert_eq!(eval(OR2, &[a, b]), a || b);
                assert_eq!(eval(XOR2, &[a, b]), a ^ b);
                assert_eq!(eval(AND_NOT2, &[a, b]), a && !b);
                assert_eq!(eval(OR_NOT2, &[a, b]), a || !b);
                for c in [false, true] {
                    assert_eq!(eval(SUM3, &[a, b, c]), a ^ b ^ c);
                    assert_eq!(
                        eval(MAJ3, &[a, b, c]),
                        (c || b) && a || (b && c),
                        "maj({a},{b},{c})"
                    );
                    assert_eq!(eval(MUX21, &[a, b, c]), if c { b } else { a });
                }
            }
            assert_eq!(eval(NOT1, &[a]), !a);
            assert_eq!(eval(BUF1, &[a]), a);
        }
    }

    #[test]
    fn utilization_counts_primitives() {
        let mut p = PrimNetlist::new("t");
        let n0 = p.new_net();
        let n1 = p.new_net();
        let n2 = p.new_net();
        let lut = Primitive::Lut4 {
            truth: AND2,
            used_inputs: 2,
        };
        add_plain(&mut p, "l0", lut, &[n0, n1], &[n2]);
        add_plain(&mut p, "c0", Primitive::Carry, &[n0, n1], &[n2]);
        add_plain(&mut p, "f0", Primitive::Dff { has_enable: false }, &[n2], &[n0]);
        let u = p.utilization();
        assert_eq!(u.luts, 2);
        assert_eq!(u.carries, 1);
        assert_eq!(u.ffs, 1);
        assert!(u.to_string().contains("2 LUTs"));
    }

    #[test]
    fn net_pins_list_inputs_then_outputs_in_cell_order() {
        let mut p = PrimNetlist::new("t");
        let a = p.new_net();
        let y = p.new_net();
        let unused = p.new_net();
        let lut = Primitive::Lut4 {
            truth: AND2,
            used_inputs: 2,
        };
        let l = add_plain(&mut p, "l", lut, &[a, a], &[y]);
        let f = add_plain(&mut p, "f", Primitive::Dff { has_enable: false }, &[y], &[a]);
        let pins = p.net_pins();
        assert_eq!(pins.rows(), 3);
        assert_eq!(pins.row(a.0 as usize), &[l, l, f]);
        assert_eq!(pins.row(y.0 as usize), &[l, f]);
        assert!(pins.row(unused.0 as usize).is_empty());
    }

    #[test]
    fn cells_view_flat_pins_and_names_render_from_parts() {
        let mut p = PrimNetlist::new("t");
        let (a, b, y) = (p.new_net(), p.new_net(), p.new_net());
        let base = p.add_string("div");
        let src = p.add_string("<io>");
        let name = CellName::of(base).at("_st", 7).tag("_nb").at("_n", 12);
        let first = p.add(name, Primitive::Carry, &[a, b], &[y], base);
        let pad = p.add(
            CellName::of(base).at("_pad", 0),
            Primitive::IoPad { is_input: false },
            &[y],
            &[],
            src,
        );
        assert_eq!(p.cell_name(first), "div_st7_nb_n12");
        assert_eq!(p.cell_name(pad), "div_pad0");
        let c = p.cell(first);
        assert_eq!((c.inputs, c.outputs), (&[a, b][..], &[y][..]));
        assert_eq!(p.string(c.source), "div");
        let c = p.cell(pad);
        assert_eq!((c.inputs, c.outputs), (&[y][..], &[][..]));
        assert_eq!(p.string(c.source), "<io>");
    }

    #[test]
    #[should_panic(expected = "at most three parts")]
    fn a_fourth_name_part_panics() {
        let _ = CellName::of(0).tag("_a").tag("_b").tag("_c").tag("_d");
    }
}
