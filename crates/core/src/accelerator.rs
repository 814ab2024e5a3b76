//! The C-to-bitstream accelerator flow (Bambu + NXmap integration,
//! Section II): HLS, logic synthesis, place & route, timing, bitstream,
//! and HDL emission in one call.

use crate::CoreError;
use hermes_fpga::bitstream::Bitstream;
use hermes_fpga::device::DeviceProfile;
use hermes_fpga::flow::{FlowOptions, FlowReport, NxFlow};
use hermes_fpga::place::Effort;
use hermes_hls::interface::InterfaceSpec;
use hermes_hls::{Design, HlsFlow};

/// Everything the flow produced for one accelerator.
#[derive(Debug)]
pub struct AcceleratorArtifact {
    /// The synthesized HLS design (simulatable).
    pub design: Design,
    /// FPGA implementation report (utilization / timing / power).
    pub flow_report: FlowReport,
    /// The configuration bitstream.
    pub bitstream: Bitstream,
    /// Generated Verilog.
    pub verilog: String,
    /// Generated VHDL.
    pub vhdl: String,
    /// AXI interface description of the accelerator.
    pub interface: InterfaceSpec,
}

impl AcceleratorArtifact {
    /// The NXmap backend synthesis script for this accelerator (the script
    /// hand-off artifact of the paper's Bambu/NXmap integration).
    pub fn nxmap_script(&self, device: &DeviceProfile) -> String {
        let options = FlowOptions {
            target_period_ns: self.design.clock_ns(),
            multicycle: self.design.multicycle_hints(),
            ..FlowOptions::default()
        };
        hermes_fpga::flow::nxmap_script(
            self.design.name(),
            &format!("{}.v", self.design.name()),
            device,
            &options,
        )
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} states, {} LUTs, {} DSPs, {:.1} MHz, {} bitstream bytes",
            self.design.name(),
            self.design.fsm.state_count(),
            self.flow_report.utilization.luts,
            self.flow_report.utilization.dsps,
            self.flow_report.timing.fmax_mhz,
            self.bitstream.size_bytes()
        )
    }
}

/// The combined HLS + implementation flow.
#[derive(Debug, Clone)]
pub struct AcceleratorFlow {
    hls: HlsFlow,
    fpga_options: FlowOptions,
}

impl Default for AcceleratorFlow {
    fn default() -> Self {
        AcceleratorFlow::new()
    }
}

impl AcceleratorFlow {
    /// Default flow: 10 ns clock, NG-MEDIUM-like device, constructive
    /// placement only ([`Effort::Zero`]).
    pub fn new() -> Self {
        AcceleratorFlow {
            hls: HlsFlow::new(),
            fpga_options: FlowOptions {
                effort: Effort::Zero,
                ..FlowOptions::default()
            },
        }
    }

    /// Set the clock constraint (applied to both HLS and implementation).
    pub fn clock_ns(mut self, ns: f64) -> Self {
        self.hls = self.hls.clock_ns(ns);
        self.fpga_options.target_period_ns = ns;
        self
    }

    /// Run the full flow on C-subset source, implemented on the
    /// NG-MEDIUM-like device the default HLS library characterizes.
    ///
    /// # Errors
    ///
    /// Propagates HLS and implementation failures.
    pub fn build(&self, source: &str) -> Result<AcceleratorArtifact, CoreError> {
        let design = self.hls.compile(source)?;
        let mut options = self.fpga_options.clone();
        options.multicycle = design.multicycle_hints();
        let (flow_report, artifacts) =
            NxFlow::new(DeviceProfile::ng_medium_like(), options).run_with_artifacts(design.netlist())?;
        Ok(AcceleratorArtifact {
            verilog: design.emit_verilog(),
            vhdl: design.emit_vhdl(),
            interface: design.interface_spec(),
            design,
            flow_report,
            bitstream: artifacts.bitstream,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c_to_bitstream_roundtrip() {
        let artifact = AcceleratorFlow::new()
            .build("int mac(int a, int b, int c) { return a * b + c; }")
            .unwrap();
        artifact.bitstream.verify().unwrap();
        assert!(artifact.flow_report.utilization.dsps >= 1);
        assert!(artifact.verilog.contains("module mac"));
        assert!(artifact.vhdl.contains("entity mac"));
        assert_eq!(
            artifact.design.simulate(&[3, 4, 5]).unwrap().return_value,
            Some(17)
        );
        assert!(artifact.summary().contains("mac"));
    }

    #[test]
    fn clock_propagates_to_both_halves() {
        let fast = AcceleratorFlow::new()
            .clock_ns(2.5)
            .build("int f(int a, int b) { return a / (b + 1); }")
            .unwrap();
        let slow = AcceleratorFlow::new()
            .clock_ns(40.0)
            .build("int f(int a, int b) { return a / (b + 1); }")
            .unwrap();
        assert!(fast.design.fsm.state_count() > slow.design.fsm.state_count());
        assert!((fast.flow_report.timing.target_period_ns - 2.5).abs() < 1e-9);
    }
}
