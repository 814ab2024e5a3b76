//! # hermes-eucalyptus
//!
//! Component pre-characterization for the HLS library — the analogue of the
//! Eucalyptus tool the paper describes: "a characterization tool … to
//! synthesize different configurations of library components and collect the
//! resulting latency and resource consumption metrics as XML files in the
//! Bambu library. The configurations are obtained by specializing a generic
//! template of the resource component … according to the bit widths of its
//! input and output arguments, and to the number of pipeline stages."
//!
//! [`Eucalyptus::characterize`] sweeps every component kind over the
//! requested widths and pipeline depths, pushes the combinational core of
//! each specialization through the `hermes-fpga` synthesis + timing engine,
//! and records delay/area entries in a [`CharacterizationLibrary`] that the
//! HLS scheduler consumes and that round-trips through an XML file format.
//!
//! ## Example
//!
//! ```
//! use hermes_eucalyptus::{Eucalyptus, SweepConfig};
//! use hermes_fpga::device::DeviceProfile;
//!
//! # fn main() -> Result<(), hermes_eucalyptus::CharError> {
//! let sweep = SweepConfig { widths: vec![8, 16], pipeline_stages: vec![0, 1] };
//! let lib = Eucalyptus::new(DeviceProfile::ng_medium_like()).characterize(&sweep)?;
//! let add16 = lib.lookup("add", 16, 0).expect("characterized");
//! assert!(add16.delay_ns > 0.0);
//! let xml = lib.to_xml();
//! let back = hermes_eucalyptus::CharacterizationLibrary::from_xml(&xml)?;
//! assert_eq!(back.len(), lib.len());
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod library;
pub mod sweep;
pub mod templates;

pub use cache::characterize_shared;
pub use library::{CharEntry, CharacterizationLibrary};
pub use sweep::{Eucalyptus, SweepConfig};

use std::fmt;

/// Errors produced during characterization or library I/O.
#[derive(Debug, Clone, PartialEq)]
pub enum CharError {
    /// The underlying synthesis flow failed.
    Flow(hermes_fpga::FpgaError),
    /// A template could not be constructed.
    Template(hermes_rtl::RtlError),
    /// XML parse failure.
    Parse {
        /// Line number (1-based) of the failure.
        line: usize,
        /// Detail message.
        detail: String,
    },
}

impl fmt::Display for CharError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CharError::Flow(e) => write!(f, "characterization flow failed: {e}"),
            CharError::Template(e) => write!(f, "template construction failed: {e}"),
            CharError::Parse { line, detail } => {
                write!(f, "library XML parse error at line {line}: {detail}")
            }
        }
    }
}

impl std::error::Error for CharError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CharError::Flow(e) => Some(e),
            CharError::Template(e) => Some(e),
            CharError::Parse { .. } => None,
        }
    }
}

impl From<hermes_fpga::FpgaError> for CharError {
    fn from(e: hermes_fpga::FpgaError) -> Self {
        CharError::Flow(e)
    }
}

impl From<hermes_rtl::RtlError> for CharError {
    fn from(e: hermes_rtl::RtlError) -> Self {
        CharError::Template(e)
    }
}
