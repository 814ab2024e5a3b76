//! # hermes-fpga
//!
//! NG-ULTRA device model and NXmap-analogue implementation flow for the
//! HERMES ecosystem: logic synthesis (technology mapping of coarse netlists
//! to LUT4/FF/DSP/RAMB primitives), greedy-descent placement, routing
//! estimation, static timing analysis, and synthetic bitstream generation.
//!
//! The real NG-ULTRA fabric and the NXmap design suite are proprietary; this
//! crate reproduces their observable pipeline (Fig. 3 of the paper:
//! synthesis → place → route → STA → bitstream) against a parametric device
//! model whose headline numbers match the published NG-ULTRA figures
//! (28 nm FD-SOI, ~550k LUTs, DSP blocks, true dual-port block RAM).
//!
//! ## Example
//!
//! Run the full flow on a small netlist:
//!
//! ```
//! use hermes_rtl::netlist::{Netlist, CellOp};
//! use hermes_fpga::device::DeviceProfile;
//! use hermes_fpga::flow::{FlowOptions, NxFlow};
//! use hermes_obs::Recorder;
//!
//! # fn main() -> Result<(), hermes_fpga::FpgaError> {
//! let mut nl = Netlist::new("adder");
//! let a = nl.add_input("a", 8);
//! let b = nl.add_input("b", 8);
//! let y = nl.add_net("y", 8);
//! nl.add_cell("add", CellOp::Add, &[a, b], &[y])?;
//! nl.mark_output(y);
//!
//! let device = DeviceProfile::ng_medium_like();
//! let flow = NxFlow::new(device, FlowOptions::default());
//! let report = flow.run(&nl, &Recorder::disabled())?;
//! assert!(report.timing.fmax_mhz > 0.0);
//! assert!(report.utilization.luts > 0);
//! # Ok(())
//! # }
//! ```

pub mod bitstream;
pub mod device;
pub mod flow;
pub mod place;
pub mod primitives;
pub mod route;
pub mod synth;
pub mod timing;

use std::fmt;

/// Errors produced by the FPGA implementation flow.
#[derive(Debug, Clone, PartialEq)]
pub enum FpgaError {
    /// The design does not fit the selected device.
    ResourceOverflow {
        /// Which resource ran out.
        resource: String,
        /// How many the design needs.
        required: u64,
        /// How many the device offers.
        available: u64,
    },
    /// The input netlist is structurally invalid.
    Netlist(hermes_rtl::RtlError),
    /// A coarse cell kind could not be mapped to primitives.
    Unmappable {
        /// Cell name.
        cell: String,
        /// Reason mapping failed.
        reason: String,
    },
    /// Routing failed to converge below the congestion limit.
    Unroutable {
        /// Worst channel overflow.
        overflow: u32,
    },
    /// Bitstream integrity failure.
    BitstreamCorrupt {
        /// Index of the first corrupted frame.
        frame: usize,
    },
    /// Bitstream is malformed (bad magic, truncated, wrong device).
    BitstreamMalformed {
        /// Human-readable detail.
        detail: String,
    },
    /// Timing closure failed and the flow was asked to treat that as fatal.
    TimingNotMet {
        /// Achieved maximum frequency in MHz.
        achieved_mhz: f64,
        /// Requested frequency in MHz.
        requested_mhz: f64,
    },
    /// An internal engine failure (e.g. a parallel placement worker died).
    Internal {
        /// Human-readable detail.
        message: String,
    },
}

impl fmt::Display for FpgaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FpgaError::ResourceOverflow {
                resource,
                required,
                available,
            } => write!(
                f,
                "design needs {required} {resource} but device has {available}"
            ),
            FpgaError::Netlist(e) => write!(f, "invalid netlist: {e}"),
            FpgaError::Unmappable { cell, reason } => {
                write!(f, "cannot map cell `{cell}`: {reason}")
            }
            FpgaError::Unroutable { overflow } => {
                write!(f, "routing congestion overflow of {overflow} tracks")
            }
            FpgaError::BitstreamCorrupt { frame } => {
                write!(f, "bitstream frame {frame} failed its CRC check")
            }
            FpgaError::BitstreamMalformed { detail } => {
                write!(f, "malformed bitstream: {detail}")
            }
            FpgaError::TimingNotMet {
                achieved_mhz,
                requested_mhz,
            } => write!(
                f,
                "timing not met: achieved {achieved_mhz:.1} MHz < requested {requested_mhz:.1} MHz"
            ),
            FpgaError::Internal { message } => write!(f, "internal flow error: {message}"),
        }
    }
}

impl std::error::Error for FpgaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FpgaError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<hermes_rtl::RtlError> for FpgaError {
    fn from(e: hermes_rtl::RtlError) -> Self {
        FpgaError::Netlist(e)
    }
}
