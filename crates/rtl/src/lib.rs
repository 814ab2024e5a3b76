//! # hermes-rtl
//!
//! Register-transfer-level substrate for the HERMES ecosystem: a library of
//! parameterizable hardware component templates, a coarse-cell netlist
//! representation, a cycle-accurate two-phase simulator, and Verilog/VHDL
//! text-emission helpers.
//!
//! This crate plays the role of the RTL component library that the paper's
//! Bambu HLS flow draws its functional, storage, and communication units
//! from, and of the RTL simulation environment used to validate generated
//! designs before logic synthesis.
//!
//! ## Example
//!
//! Build a 2-cell netlist (an adder feeding a register) and simulate it:
//!
//! ```
//! use hermes_rtl::netlist::{Netlist, CellOp};
//! use hermes_rtl::sim::Simulator;
//!
//! # fn main() -> Result<(), hermes_rtl::RtlError> {
//! let mut nl = Netlist::new("accumulate");
//! let a = nl.add_input("a", 8);
//! let b = nl.add_input("b", 8);
//! let sum = nl.add_net("sum", 8);
//! let q = nl.add_net("q", 8);
//! nl.add_cell("add0", CellOp::Add, &[a, b], &[sum])?;
//! nl.add_cell("reg0", CellOp::Register { has_enable: false, has_reset: true },
//!             &[sum], &[q])?;
//! nl.mark_output(q);
//! let mut sim = Simulator::new(&nl)?;
//! sim.poke("a", 3)?;
//! sim.poke("b", 4)?;
//! sim.step()?; // clock edge: register captures 7
//! assert_eq!(sim.peek("q")?, 7);
//! # Ok(())
//! # }
//! ```

pub mod component;
pub mod netlist;
pub mod rng;
pub mod sim;
pub mod verilog;
pub mod vhdl;

use std::fmt;

/// Errors produced by netlist construction, validation, and simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtlError {
    /// A cell was connected to the wrong number of input or output nets.
    ArityMismatch {
        /// Name of the offending cell.
        cell: String,
        /// What the cell operation expected.
        expected: String,
        /// What was provided.
        got: String,
    },
    /// Two cells (or a cell and a primary input) drive the same net.
    MultipleDrivers {
        /// Name of the multiply-driven net.
        net: String,
    },
    /// Two cells share an instance name.
    DuplicateName {
        /// The repeated cell name.
        cell: String,
    },
    /// A net is read but never driven.
    UndrivenNet {
        /// Name of the floating net.
        net: String,
    },
    /// The combinational portion of the netlist contains a cycle.
    CombinationalLoop {
        /// Name of a net on the cycle.
        net: String,
    },
    /// A name lookup failed.
    UnknownName {
        /// The name that could not be resolved.
        name: String,
    },
    /// A cell's pin widths break [`CellOp::check`](netlist::CellOp::check).
    WidthMismatch {
        /// Name of the offending cell.
        cell: String,
        /// The operation's mnemonic.
        op: &'static str,
        /// Input pin widths, in pin order.
        inputs: Vec<u32>,
        /// Output pin widths, in pin order.
        outputs: Vec<u32>,
    },
    /// An operand width above 64 bits was requested.
    UnsupportedWidth {
        /// The requested width.
        width: u32,
    },
}

impl fmt::Display for RtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtlError::ArityMismatch { cell, expected, got } => {
                write!(f, "cell `{cell}` arity mismatch: expected {expected}, got {got}")
            }
            RtlError::MultipleDrivers { net } => write!(f, "net `{net}` has multiple drivers"),
            RtlError::DuplicateName { cell } => write!(f, "cell name `{cell}` is used twice"),
            RtlError::UndrivenNet { net } => write!(f, "net `{net}` is read but never driven"),
            RtlError::CombinationalLoop { net } => {
                write!(f, "combinational loop through net `{net}`")
            }
            RtlError::UnknownName { name } => write!(f, "unknown name `{name}`"),
            RtlError::WidthMismatch { cell, op, inputs, outputs } => write!(
                f,
                "cell `{cell}` ({op}) width mismatch: inputs {inputs:?}, outputs {outputs:?}"
            ),
            RtlError::UnsupportedWidth { width } => {
                write!(f, "unsupported width {width} (maximum is 64)")
            }
        }
    }
}

impl std::error::Error for RtlError {}

/// Mask `value` to the low `width` bits.
///
/// Widths of 64 and above return the value unchanged; width 0 returns 0.
#[inline]
pub fn mask(value: u64, width: u32) -> u64 {
    match width {
        0 => 0,
        w if w >= 64 => value,
        w => value & ((1u64 << w) - 1),
    }
}

/// Sign-extend the low `width` bits of `value` to an `i64`.
#[inline]
pub fn sign_extend(value: u64, width: u32) -> i64 {
    if width == 0 {
        return 0;
    }
    if width >= 64 {
        return value as i64;
    }
    let shift = 64 - width;
    ((value << shift) as i64) >> shift
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_basic() {
        assert_eq!(mask(0xFF, 4), 0xF);
        assert_eq!(mask(0x1234, 8), 0x34);
        assert_eq!(mask(u64::MAX, 64), u64::MAX);
        assert_eq!(mask(5, 0), 0);
    }

    #[test]
    fn sign_extend_basic() {
        assert_eq!(sign_extend(0xF, 4), -1);
        assert_eq!(sign_extend(0x7, 4), 7);
        assert_eq!(sign_extend(0x80, 8), -128);
        assert_eq!(sign_extend(u64::MAX, 64), -1);
        assert_eq!(sign_extend(0, 0), 0);
    }

    #[test]
    fn error_display_is_nonempty() {
        let errs = [
            RtlError::MultipleDrivers { net: "x".into() },
            RtlError::UndrivenNet { net: "y".into() },
            RtlError::UnknownName { name: "z".into() },
            RtlError::UnsupportedWidth { width: 128 },
            RtlError::DuplicateName { cell: "c".into() },
            RtlError::WidthMismatch {
                cell: "c".into(),
                op: "add",
                inputs: vec![4, 8],
                outputs: vec![8],
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
