//! Post-synthesis primitive netlist.
//!
//! Technology mapping lowers a coarse word-level netlist to the primitives a
//! NanoXplore-style fabric actually provides: 4-input LUTs, D flip-flops,
//! carry-chain elements, DSP blocks, and true dual-port block RAMs. Nets at
//! this level are single-bit (except DSP/RAM bus stubs, which stay bundled —
//! placement treats each bundle as one net).

use std::collections::HashMap;
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
#[derive(Debug, Clone, PartialEq)]
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

/// An instantiated primitive with its connectivity.
#[derive(Debug, Clone, PartialEq)]
pub struct PCell {
    /// Instance name (derived from the source coarse cell).
    pub name: String,
    /// The primitive kind and configuration.
    pub prim: Primitive,
    /// Input nets.
    pub inputs: Vec<PNetId>,
    /// Output nets.
    pub outputs: Vec<PNetId>,
    /// Name of the coarse cell this primitive was expanded from.
    pub source: String,
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
#[derive(Debug, Clone, Default)]
pub struct PrimNetlist {
    /// Module name carried over from the coarse netlist.
    pub name: String,
    cells: Vec<PCell>,
    net_count: u32,
    net_names: HashMap<u32, String>,
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

    /// Allocate a fresh named net (names kept only for debugging).
    pub fn new_named_net(&mut self, name: impl Into<String>) -> PNetId {
        let id = self.new_net();
        self.net_names.insert(id.0, name.into());
        id
    }

    /// Add a primitive cell.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        prim: Primitive,
        inputs: Vec<PNetId>,
        outputs: Vec<PNetId>,
        source: impl Into<String>,
    ) -> PCellId {
        let id = PCellId(self.cells.len() as u32);
        self.cells.push(PCell {
            name: name.into(),
            prim,
            inputs,
            outputs,
            source: source.into(),
        });
        id
    }

    /// All cells with ids.
    pub fn cells(&self) -> impl Iterator<Item = (PCellId, &PCell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (PCellId(i as u32), c))
    }

    /// The cell behind an id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this netlist.
    pub fn cell(&self, id: PCellId) -> &PCell {
        &self.cells[id.0 as usize]
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Total number of nets allocated.
    pub fn net_count(&self) -> u32 {
        self.net_count
    }

    /// Debug name of a net, if it was given one.
    pub fn net_name(&self, id: PNetId) -> Option<&str> {
        self.net_names.get(&id.0).map(String::as_str)
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
            c.inputs
                .iter()
                .chain(&c.outputs)
                .map(move |n| (n.0 as usize, cid))
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
        p.add(
            "l0",
            Primitive::Lut4 {
                truth: AND2,
                used_inputs: 2,
            },
            vec![n0, n1],
            vec![n2],
            "src",
        );
        p.add("c0", Primitive::Carry, vec![n0, n1], vec![n2], "src");
        p.add(
            "f0",
            Primitive::Dff { has_enable: false },
            vec![n2],
            vec![n0],
            "src",
        );
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
        let l = p.add(
            "l",
            Primitive::Lut4 {
                truth: AND2,
                used_inputs: 2,
            },
            vec![a, a],
            vec![y],
            "s",
        );
        let f = p.add(
            "f",
            Primitive::Dff { has_enable: false },
            vec![y],
            vec![a],
            "s",
        );
        let pins = p.net_pins();
        assert_eq!(pins.rows(), 3);
        assert_eq!(pins.row(a.0 as usize), &[l, l, f]);
        assert_eq!(pins.row(y.0 as usize), &[l, f]);
        assert!(pins.row(unused.0 as usize).is_empty());
    }
}
