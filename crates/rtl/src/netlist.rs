//! Coarse-cell netlist representation.
//!
//! A [`Netlist`] is a directed graph of [`Cell`]s connected by [`Net`]s. Cells
//! are word-level ("coarse") operators — the granularity at which the HLS
//! back-end assembles datapaths — rather than gates; logic synthesis in
//! `hermes-fpga` later decomposes them into device primitives.

use crate::component::Comparison;
use crate::RtlError;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a net within its owning [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// Identifier of a cell within its owning [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A single wire bundle carrying a value of a fixed bit width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    /// Human-readable name (unique within the netlist).
    pub name: String,
    /// Bit width (1..=64).
    pub width: u32,
}

/// The operation performed by a [`Cell`].
#[derive(Debug, Clone, PartialEq)]
pub enum CellOp {
    /// Two's-complement addition: `[a, b] -> [y]`.
    Add,
    /// Two's-complement subtraction: `[a, b] -> [y]`.
    Sub,
    /// Multiplication, low word: `[a, b] -> [y]`.
    Mul,
    /// Unsigned division (x/0 = all-ones): `[a, b] -> [y]`.
    Div,
    /// Unsigned remainder (x%0 = x): `[a, b] -> [y]`.
    Mod,
    /// Bitwise AND: `[a, b] -> [y]`.
    And,
    /// Bitwise OR: `[a, b] -> [y]`.
    Or,
    /// Bitwise XOR: `[a, b] -> [y]`.
    Xor,
    /// Bitwise NOT: `[a] -> [y]`.
    Not,
    /// Logical shift left: `[a, sh] -> [y]`.
    Shl,
    /// Logical shift right: `[a, sh] -> [y]`.
    ShrL,
    /// Arithmetic shift right: `[a, sh] -> [y]`.
    ShrA,
    /// Comparison producing a 1-bit net: `[a, b] -> [y]`.
    Cmp(Comparison),
    /// Two-way multiplexer: `[sel, a, b] -> [y]` (`sel=1` picks `b`).
    Mux,
    /// Constant driver: `[] -> [y]`.
    Const {
        /// Value driven (masked to the output width).
        value: u64,
    },
    /// Bit slice `[hi:lo]` of the input: `[a] -> [y]`.
    Slice {
        /// Low bit index (inclusive).
        lo: u32,
        /// High bit index (inclusive).
        hi: u32,
    },
    /// Zero-extension: `[a] -> [y]`.
    ZeroExtend,
    /// Sign-extension: `[a] -> [y]`.
    SignExtend,
    /// Clocked D register: `[d]` or `[d, en]` `-> [q]`.
    Register {
        /// If true, a second input net gates the load.
        has_enable: bool,
        /// If true, the simulator's reset clears the register to zero.
        has_reset: bool,
    },
    /// Synchronous true dual-port RAM:
    /// `[addr_a, wdata_a, we_a, addr_b, wdata_b, we_b] -> [rdata_a, rdata_b]`.
    ///
    /// Reads are synchronous (data valid the cycle after the address is
    /// presented), matching the NG-ULTRA block RAM discipline.
    RamTdp {
        /// Number of words.
        depth: u32,
        /// Optional initial contents (shorter than `depth` is zero-padded).
        init: Vec<u64>,
    },
}

impl CellOp {
    /// `(inputs, outputs)` arity of the operation.
    pub fn arity(&self) -> (usize, usize) {
        use CellOp::*;
        match self {
            Add | Sub | Mul | Div | Mod | And | Or | Xor | Shl | ShrL | ShrA | Cmp(_) => (2, 1),
            Not | Slice { .. } | ZeroExtend | SignExtend => (1, 1),
            Mux => (3, 1),
            Const { .. } => (0, 1),
            Register { has_enable, .. } => (if *has_enable { 2 } else { 1 }, 1),
            RamTdp { .. } => (6, 2),
        }
    }

    /// Whether the cell has state updated on the clock edge.
    pub fn is_sequential(&self) -> bool {
        matches!(self, CellOp::Register { .. } | CellOp::RamTdp { .. })
    }

    /// Short mnemonic used in reports and generated HDL.
    pub fn mnemonic(&self) -> &'static str {
        use CellOp::*;
        match self {
            Add => "add",
            Sub => "sub",
            Mul => "mul",
            Div => "div",
            Mod => "mod",
            And => "and",
            Or => "or",
            Xor => "xor",
            Not => "not",
            Shl => "shl",
            ShrL => "shrl",
            ShrA => "shra",
            Cmp(_) => "cmp",
            Mux => "mux",
            Const { .. } => "const",
            Slice { .. } => "slice",
            ZeroExtend => "zext",
            SignExtend => "sext",
            Register { .. } => "reg",
            RamTdp { .. } => "ram",
        }
    }
}

/// An instantiated operator in the netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Instance name (unique within the netlist).
    pub name: String,
    /// The operation performed.
    pub op: CellOp,
    /// Input nets, in operation-defined order.
    pub inputs: Vec<NetId>,
    /// Output nets, in operation-defined order.
    pub outputs: Vec<NetId>,
}

/// Summary statistics of a netlist, used in flow reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetlistStats {
    /// Total cell count.
    pub cells: usize,
    /// Total net count.
    pub nets: usize,
    /// Number of sequential cells (registers + memories).
    pub sequential: usize,
    /// Number of multiplier/divider cells (DSP candidates).
    pub dsp_candidates: usize,
    /// Number of memory cells (block-RAM candidates).
    pub memories: usize,
    /// Sum of all register bit widths.
    pub register_bits: u64,
}

/// A named module-level netlist of coarse cells.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    name: String,
    nets: Vec<Net>,
    cells: Vec<Cell>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    net_names: HashMap<String, NetId>,
}

impl Netlist {
    /// Create an empty netlist with the given module name.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            ..Netlist::default()
        }
    }

    /// The module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add an internal net. Duplicate names are disambiguated with a suffix.
    pub fn add_net(&mut self, name: impl Into<String>, width: u32) -> NetId {
        let name = self.unique_name(name.into());
        let id = NetId(self.nets.len() as u32);
        self.net_names.insert(name.clone(), id);
        self.nets.push(Net { name, width });
        id
    }

    /// Rename a net; a name already taken is disambiguated as in
    /// [`Netlist::add_net`].
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this netlist.
    pub fn rename_net(&mut self, id: NetId, name: impl Into<String>) {
        let old = std::mem::take(&mut self.nets[id.0 as usize].name);
        self.net_names.remove(&old);
        let name = self.unique_name(name.into());
        self.net_names.insert(name.clone(), id);
        self.nets[id.0 as usize].name = name;
    }

    fn unique_name(&self, name: String) -> String {
        if !self.net_names.contains_key(&name) {
            return name;
        }
        let mut i = 1;
        while self.net_names.contains_key(&format!("{name}_{i}")) {
            i += 1;
        }
        format!("{name}_{i}")
    }

    /// Add a primary input net.
    pub fn add_input(&mut self, name: impl Into<String>, width: u32) -> NetId {
        let id = self.add_net(name, width);
        self.inputs.push(id);
        id
    }

    /// Mark an existing net as a primary output.
    pub fn mark_output(&mut self, net: NetId) {
        if !self.outputs.contains(&net) {
            self.outputs.push(net);
        }
    }

    /// Instantiate a cell.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::ArityMismatch`] if the connection counts do not
    /// match [`CellOp::arity`].
    pub fn add_cell(
        &mut self,
        name: impl Into<String>,
        op: CellOp,
        inputs: &[NetId],
        outputs: &[NetId],
    ) -> Result<CellId, RtlError> {
        let name = name.into();
        let (ni, no) = op.arity();
        if inputs.len() != ni || outputs.len() != no {
            return Err(RtlError::ArityMismatch {
                cell: name,
                expected: format!("{ni} in / {no} out"),
                got: format!("{} in / {} out", inputs.len(), outputs.len()),
            });
        }
        let id = CellId(self.cells.len() as u32);
        self.cells.push(Cell {
            name,
            op,
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
        });
        Ok(id)
    }

    /// Build a netlist containing `copies` independent instances of this
    /// module side by side, every net and cell of copy `k` prefixed
    /// `u<k>_`. Each copy's primary inputs and outputs stay primary, so a
    /// single simulator steps all instances in lock-step. This is how E16
    /// builds its SoC-scale workloads: replicated kernel netlists large
    /// enough to exercise the event-driven settle and the gated clock
    /// edge beyond what any single HLS kernel reaches.
    pub fn tiled(&self, copies: usize) -> Netlist {
        let mut out = Netlist::new(format!("{}_x{copies}", self.name));
        let mut is_input = vec![false; self.nets.len()];
        for id in &self.inputs {
            is_input[id.0 as usize] = true;
        }
        for k in 0..copies {
            let map: Vec<NetId> = self
                .nets
                .iter()
                .enumerate()
                .map(|(i, net)| {
                    let name = format!("u{k}_{}", net.name);
                    if is_input[i] {
                        out.add_input(name, net.width)
                    } else {
                        out.add_net(name, net.width)
                    }
                })
                .collect();
            for cell in &self.cells {
                let ins: Vec<NetId> = cell.inputs.iter().map(|n| map[n.0 as usize]).collect();
                let outs: Vec<NetId> = cell.outputs.iter().map(|n| map[n.0 as usize]).collect();
                out.add_cell(format!("u{k}_{}", cell.name), cell.op.clone(), &ins, &outs)
                    .expect("tiled cell mirrors an already-validated arity");
            }
            for n in &self.outputs {
                out.mark_output(map[n.0 as usize]);
            }
        }
        out
    }

    /// Look up a net by name.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.net_names.get(name).copied()
    }

    /// The net record behind an id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this netlist.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.0 as usize]
    }

    /// The cell record behind an id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this netlist.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.0 as usize]
    }

    /// Iterate over all nets with their ids.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId(i as u32), n))
    }

    /// Iterate over all cells with their ids.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId(i as u32), c))
    }

    /// Primary input nets in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary output nets in declaration order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Compute summary statistics.
    pub fn stats(&self) -> NetlistStats {
        let mut s = NetlistStats {
            cells: self.cells.len(),
            nets: self.nets.len(),
            ..NetlistStats::default()
        };
        for c in &self.cells {
            if c.op.is_sequential() {
                s.sequential += 1;
            }
            match &c.op {
                CellOp::Mul | CellOp::Div | CellOp::Mod => s.dsp_candidates += 1,
                CellOp::RamTdp { .. } => s.memories += 1,
                CellOp::Register { .. } => {
                    s.register_bits += u64::from(self.net(c.outputs[0]).width);
                }
                _ => {}
            }
        }
        s
    }

    /// Net-indexed driver table: entry `n` is the cell driving net `n`,
    /// or `None` for a primary input or an undriven net.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::MultipleDrivers`] naming the first net, in cell
    /// order and then primary-input order, that has a second source.
    pub fn driver_map(&self) -> Result<Vec<Option<CellId>>, RtlError> {
        let mut drivers = vec![None; self.nets.len()];
        for (cid, cell) in self.cells() {
            for &out in &cell.outputs {
                let slot = &mut drivers[out.0 as usize];
                if slot.is_some() {
                    return Err(RtlError::MultipleDrivers {
                        net: self.net(out).name.clone(),
                    });
                }
                *slot = Some(cid);
            }
        }
        for &inp in &self.inputs {
            if drivers[inp.0 as usize].is_some() {
                return Err(RtlError::MultipleDrivers {
                    net: self.net(inp).name.clone(),
                });
            }
        }
        Ok(drivers)
    }

    /// Validate structural sanity: single drivers, no floating nets read by
    /// cells, and no combinational cycles. Returns the topological order of
    /// the combinational cells (the same as [`Netlist::combinational_order`]),
    /// so a caller that needs both pays for one driver table.
    ///
    /// # Errors
    ///
    /// Returns the first [`RtlError`] found, checked in that order.
    pub fn validate(&self) -> Result<Vec<CellId>, RtlError> {
        let drivers = self.driver_map()?;
        let mut is_input = vec![false; self.nets.len()];
        for &inp in &self.inputs {
            is_input[inp.0 as usize] = true;
        }
        for cell in &self.cells {
            for &inp in &cell.inputs {
                if drivers[inp.0 as usize].is_none() && !is_input[inp.0 as usize] {
                    return Err(RtlError::UndrivenNet {
                        net: self.net(inp).name.clone(),
                    });
                }
            }
        }
        self.order_with(&drivers)
    }

    /// Topological order of the combinational cells (sequential cell outputs
    /// are treated as sources).
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::MultipleDrivers`] as [`Netlist::driver_map`] does,
    /// and [`RtlError::CombinationalLoop`] if a cycle exists.
    pub fn combinational_order(&self) -> Result<Vec<CellId>, RtlError> {
        self.order_with(&self.driver_map()?)
    }

    /// Kahn's algorithm over a CSR consumer table. Each driver's consumers
    /// sit in cell order, one entry per read (a cell reading a net twice
    /// appears twice), and the ready list is a LIFO seeded in cell order:
    /// that push/pop order fixes the returned order.
    fn order_with(&self, drivers: &[Option<CellId>]) -> Result<Vec<CellId>, RtlError> {
        let n = self.cells.len();
        let comb_driver = |net: &NetId| {
            drivers[net.0 as usize].filter(|&src| !self.cell(src).op.is_sequential())
        };
        let comb_cells = || self.cells().filter(|(_, c)| !c.op.is_sequential());
        let mut indeg = vec![0u32; n];
        let mut start = vec![0u32; n + 1];
        for (cid, cell) in comb_cells() {
            for src in cell.inputs.iter().filter_map(comb_driver) {
                indeg[cid.0 as usize] += 1;
                start[src.0 as usize + 1] += 1;
            }
        }
        for i in 1..=n {
            start[i] += start[i - 1];
        }
        let mut cursor = start.clone();
        let mut consumers = vec![CellId(0); start[n] as usize];
        for (cid, cell) in comb_cells() {
            for src in cell.inputs.iter().filter_map(comb_driver) {
                consumers[cursor[src.0 as usize] as usize] = cid;
                cursor[src.0 as usize] += 1;
            }
        }
        let mut queue: Vec<CellId> = comb_cells()
            .filter(|(cid, _)| indeg[cid.0 as usize] == 0)
            .map(|(cid, _)| cid)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(cid) = queue.pop() {
            order.push(cid);
            let c = cid.0 as usize;
            for &next in &consumers[start[c] as usize..start[c + 1] as usize] {
                indeg[next.0 as usize] -= 1;
                if indeg[next.0 as usize] == 0 {
                    queue.push(next);
                }
            }
        }
        if order.len() != comb_cells().count() {
            // find a net on the cycle for the error message
            let on_cycle = comb_cells()
                .find(|(cid, _)| indeg[cid.0 as usize] > 0)
                .map(|(_, c)| self.net(c.outputs[0]).name.clone())
                .unwrap_or_default();
            return Err(RtlError::CombinationalLoop { net: on_cycle });
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adder_reg() -> Netlist {
        let mut nl = Netlist::new("t");
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
    fn validates_clean_netlist() {
        adder_reg().validate().expect("clean netlist validates");
    }

    #[test]
    fn tiled_replicates_structure() {
        let base = adder_reg();
        let tiled = base.tiled(5);
        assert_eq!(tiled.net_count(), 5 * base.net_count());
        assert_eq!(tiled.cell_count(), 5 * base.cell_count());
        assert_eq!(tiled.inputs().len(), 5 * base.inputs().len());
        assert_eq!(tiled.outputs().len(), 5 * base.outputs().len());
        tiled.validate().expect("tiled netlist stays structurally valid");
        // instance prefixes resolve to distinct nets
        let a0 = tiled.net_by_name("u0_a").expect("copy 0 input exists");
        let a4 = tiled.net_by_name("u4_a").expect("copy 4 input exists");
        assert_ne!(a0, a4);
        assert_eq!(tiled.net(a0).width, 8);
    }

    #[test]
    fn tiled_zero_copies_is_empty() {
        let tiled = adder_reg().tiled(0);
        assert_eq!(tiled.net_count(), 0);
        assert_eq!(tiled.cell_count(), 0);
    }

    #[test]
    fn detects_multiple_drivers() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 8);
        let y = nl.add_net("y", 8);
        nl.add_cell("c1", CellOp::Not, &[a], &[y]).unwrap();
        nl.add_cell("c2", CellOp::Not, &[a], &[y]).unwrap();
        let err = Err(RtlError::MultipleDrivers { net: "y".into() });
        assert_eq!(nl.validate(), err);
        assert_eq!(nl.combinational_order(), err);
    }

    #[test]
    fn detects_undriven_net() {
        let mut nl = Netlist::new("t");
        let ghost = nl.add_net("ghost", 8);
        let y = nl.add_net("y", 8);
        nl.add_cell("c", CellOp::Not, &[ghost], &[y]).unwrap();
        assert_eq!(nl.validate(), Err(RtlError::UndrivenNet { net: "ghost".into() }));
    }

    #[test]
    fn detects_combinational_loop() {
        let mut nl = Netlist::new("t");
        let x = nl.add_net("x", 8);
        let y = nl.add_net("y", 8);
        nl.add_cell("c1", CellOp::Not, &[x], &[y]).unwrap();
        nl.add_cell("c2", CellOp::Not, &[y], &[x]).unwrap();
        // the first cell left on the cycle names its output
        let err = Err(RtlError::CombinationalLoop { net: "y".into() });
        assert_eq!(nl.validate(), err);
        assert_eq!(nl.combinational_order(), err);
    }

    #[test]
    fn detects_driven_primary_input() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 8);
        let b = nl.add_input("b", 8);
        nl.add_cell("c", CellOp::Not, &[b], &[a]).unwrap();
        assert_eq!(nl.validate(), Err(RtlError::MultipleDrivers { net: "a".into() }));
    }

    #[test]
    fn error_precedence_is_drivers_then_undriven_then_loop() {
        // an undriven read, a combinational loop, a driven input (cell 0)
        // and a net driven twice (cells 1 and 2): every cell output is
        // checked before any input, so `y` is named, not `a`
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 8);
        let ghost = nl.add_net("ghost", 8);
        let (x, y, z) = (nl.add_net("x", 8), nl.add_net("y", 8), nl.add_net("z", 8));
        nl.add_cell("drive_a", CellOp::Not, &[ghost], &[a]).unwrap();
        nl.add_cell("y1", CellOp::Not, &[x], &[y]).unwrap();
        nl.add_cell("y2", CellOp::Not, &[x], &[y]).unwrap();
        nl.add_cell("loop", CellOp::Not, &[y], &[x]).unwrap();
        nl.add_cell("z", CellOp::Not, &[z], &[z]).unwrap();
        assert_eq!(nl.validate(), Err(RtlError::MultipleDrivers { net: "y".into() }));

        // both driver faults fixed: the undriven read comes before the loops
        let mut nl = Netlist::new("t");
        let ghost = nl.add_net("ghost", 8);
        let (x, y, u) = (nl.add_net("x", 8), nl.add_net("y", 8), nl.add_net("u", 8));
        nl.add_cell("loop1", CellOp::Not, &[x], &[y]).unwrap();
        nl.add_cell("loop2", CellOp::Not, &[y], &[x]).unwrap();
        nl.add_cell("float", CellOp::Not, &[ghost], &[u]).unwrap();
        assert_eq!(nl.validate(), Err(RtlError::UndrivenNet { net: "ghost".into() }));
        assert_eq!(
            nl.combinational_order(),
            Err(RtlError::CombinationalLoop { net: "y".into() }),
            "the order alone does not check undriven reads"
        );
    }

    #[test]
    fn register_breaks_loop() {
        // x -> not -> y -> reg -> x is a legal sequential loop
        let mut nl = Netlist::new("t");
        let x = nl.add_net("x", 8);
        let y = nl.add_net("y", 8);
        nl.add_cell("c1", CellOp::Not, &[x], &[y]).unwrap();
        nl.add_cell(
            "r",
            CellOp::Register {
                has_enable: false,
                has_reset: true,
            },
            &[y],
            &[x],
        )
        .unwrap();
        nl.validate().expect("sequential loop is legal");
    }

    #[test]
    fn arity_checked() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 8);
        let y = nl.add_net("y", 8);
        let r = nl.add_cell("bad", CellOp::Add, &[a], &[y]);
        assert!(matches!(r, Err(RtlError::ArityMismatch { .. })));
    }

    #[test]
    fn duplicate_net_names_disambiguated() {
        let mut nl = Netlist::new("t");
        let a = nl.add_net("x", 8);
        let b = nl.add_net("x", 8);
        assert_ne!(a, b);
        assert_ne!(nl.net(a).name, nl.net(b).name);
    }

    #[test]
    fn rename_net_moves_the_name() {
        let mut nl = Netlist::new("t");
        let a = nl.add_net("a", 8);
        let b = nl.add_net("b", 8);
        nl.rename_net(a, "y");
        assert_eq!(nl.net_by_name("y"), Some(a));
        assert_eq!(nl.net_by_name("a"), None);
        nl.rename_net(b, "y");
        assert_eq!(nl.net(b).name, "y_1", "a taken name gets a suffix");
    }

    #[test]
    fn stats_counts() {
        let nl = adder_reg();
        let s = nl.stats();
        assert_eq!(s.cells, 2);
        assert_eq!(s.sequential, 1);
        assert_eq!(s.register_bits, 8);
        assert_eq!(s.dsp_candidates, 0);
    }

    #[test]
    fn topo_order_respects_deps() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 8);
        let m1 = nl.add_net("m1", 8);
        let m2 = nl.add_net("m2", 8);
        nl.add_cell("c1", CellOp::Not, &[a], &[m1]).unwrap();
        nl.add_cell("c2", CellOp::Not, &[m1], &[m2]).unwrap();
        let order = nl.combinational_order().unwrap();
        let pos = |cid: CellId| order.iter().position(|&c| c == cid).unwrap();
        assert!(pos(CellId(0)) < pos(CellId(1)));
    }
}
