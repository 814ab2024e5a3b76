//! The characterization sweep engine.
//!
//! For every component kind × width × pipeline depth, [`Eucalyptus`] builds
//! the template netlist, synthesizes it for the target device, runs static
//! timing, and records a [`CharEntry`]. Pipelined variants are derived from
//! the combinational measurement with the standard retiming model: an
//! `s`-stage unit splits the combinational path into `s + 1` balanced
//! segments (plus register overhead) and adds `s × width` flip-flops.

use crate::library::{CharEntry, CharacterizationLibrary};
use crate::templates;
use crate::CharError;
use hermes_fpga::device::DeviceProfile;
use hermes_fpga::synth::Synthesizer;
use hermes_fpga::timing::Analyzer;
use hermes_rtl::component::{ComponentKind, ComponentTemplate};

/// Which specializations to characterize.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Operand widths to sweep.
    pub widths: Vec<u32>,
    /// Pipeline depths to sweep (0 = combinational).
    pub pipeline_stages: Vec<u32>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            widths: vec![8, 16, 24, 32, 48, 64],
            pipeline_stages: vec![0, 1, 2],
        }
    }
}

impl SweepConfig {
    /// A minimal sweep for fast tests.
    pub fn quick() -> Self {
        SweepConfig {
            widths: vec![8, 32],
            pipeline_stages: vec![0, 1],
        }
    }
}

/// The characterization engine.
#[derive(Debug, Clone)]
pub struct Eucalyptus {
    device: DeviceProfile,
    /// Kinds to characterize; defaults to every kind.
    pub kinds: Vec<ComponentKind>,
}

impl Eucalyptus {
    /// Create a characterizer for a device covering all component kinds.
    pub fn new(device: DeviceProfile) -> Self {
        Eucalyptus {
            device,
            kinds: ComponentKind::all().to_vec(),
        }
    }

    /// Restrict to a subset of kinds (useful for focused sweeps).
    pub fn with_kinds(mut self, kinds: Vec<ComponentKind>) -> Self {
        self.kinds = kinds;
        self
    }

    /// Run the sweep and produce a library, characterizing the independent
    /// kind × width units in parallel across the default worker count.
    ///
    /// # Errors
    ///
    /// Propagates template-construction and synthesis failures.
    pub fn characterize(&self, sweep: &SweepConfig) -> Result<CharacterizationLibrary, CharError> {
        self.characterize_jobs(sweep, hermes_par::jobs())
    }

    /// [`Self::characterize`] with an explicit worker count.
    ///
    /// Each kind × width specialization is an independent synthesis + STA
    /// unit; results are merged back in sweep order, so the library is
    /// identical for every `jobs` value (the serial path is `jobs = 1`).
    ///
    /// # Errors
    ///
    /// Propagates template-construction and synthesis failures; the
    /// lowest-indexed failing unit wins.
    pub fn characterize_jobs(
        &self,
        sweep: &SweepConfig,
        jobs: usize,
    ) -> Result<CharacterizationLibrary, CharError> {
        let units: Vec<(ComponentKind, u32)> = self
            .kinds
            .iter()
            .flat_map(|&kind| sweep.widths.iter().map(move |&width| (kind, width)))
            .collect();
        let measured = hermes_par::par_map_jobs(jobs, &units, |&(kind, width)| {
            self.characterize_unit(kind, width, sweep)
        })
        .map_err(|e| {
            CharError::Flow(hermes_fpga::FpgaError::Internal {
                message: format!("parallel characterization worker failed: {e}"),
            })
        })?;
        let mut lib = CharacterizationLibrary::new(self.device.name.clone());
        for unit in measured {
            for (mnemonic, width, stages, entry) in unit? {
                lib.insert(mnemonic, width, stages, entry);
            }
        }
        Ok(lib)
    }

    /// Characterize one kind × width specialization across all pipeline
    /// depths: build the template, synthesize, run STA, derive pipelined
    /// variants with the standard retiming model.
    #[allow(clippy::type_complexity)]
    fn characterize_unit(
        &self,
        kind: ComponentKind,
        width: u32,
        sweep: &SweepConfig,
    ) -> Result<Vec<(&'static str, u32, u32, CharEntry)>, CharError> {
        let synth = Synthesizer::new(self.device.clone());
        let analyzer = Analyzer::new(self.device.clone());
        let template = ComponentTemplate::with_widths(kind, width, width, 0)?;
        let netlist = templates::build(&template)?;
        let result = synth.synthesize(&netlist)?;
        // Large target period: we want the raw combinational delay.
        let timing = analyzer.analyze(&result.prim, None, 1000.0)?;
        // Strip the template's register overhead from the measured
        // path to get the core's own delay.
        let t = &self.device.timing;
        let overhead = t.ff_clk_to_q_ns + t.ff_setup_ns + t.net_base_ns;
        let core_delay = (timing.critical_path_ns - overhead).max(t.lut_delay_ns);
        let u = result.report.utilization;
        // Remove the template's scaffolding from the area figures:
        // the in/out registers (up to 3 x width flip-flops) are not
        // part of the component. I/O pads are tracked separately by
        // the utilization struct and never counted as LUTs.
        let scaffold_ffs = u.ffs.min(3 * u64::from(width));
        let base = CharEntry {
            delay_ns: core_delay,
            latency_cycles: 0,
            luts: u.luts,
            ffs: u.ffs - scaffold_ffs,
            dsps: u.dsps,
            rams: u.rams,
        };
        let mut out = Vec::with_capacity(sweep.pipeline_stages.len());
        for &stages in &sweep.pipeline_stages {
            let entry = if stages == 0 {
                base
            } else {
                CharEntry {
                    delay_ns: core_delay / f64::from(stages + 1)
                        + t.ff_clk_to_q_ns
                        + t.ff_setup_ns,
                    latency_cycles: stages,
                    luts: base.luts,
                    ffs: base.ffs + u64::from(stages) * u64::from(width),
                    dsps: base.dsps,
                    rams: base.rams,
                }
            };
            out.push((template.kind.mnemonic(), width, stages, entry));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_rtl::component::Comparison;

    fn quick_lib(kinds: Vec<ComponentKind>) -> CharacterizationLibrary {
        Eucalyptus::new(DeviceProfile::ng_medium_like())
            .with_kinds(kinds)
            .characterize(&SweepConfig::quick())
            .expect("characterization succeeds")
    }

    #[test]
    fn adder_delay_grows_with_width() {
        let lib = quick_lib(vec![ComponentKind::Adder]);
        let d8 = lib.lookup("add", 8, 0).unwrap().delay_ns;
        let d32 = lib.lookup("add", 32, 0).unwrap().delay_ns;
        assert!(d32 > d8, "32-bit adder slower than 8-bit: {d8} vs {d32}");
    }

    #[test]
    fn pipelining_cuts_delay_and_adds_ffs() {
        let lib = quick_lib(vec![ComponentKind::Multiplier]);
        let c = lib.lookup("mul", 32, 0).unwrap();
        let p = lib.lookup("mul", 32, 1).unwrap();
        assert!(p.delay_ns < c.delay_ns);
        assert_eq!(p.latency_cycles, 1);
        assert!(p.ffs > c.ffs);
    }

    #[test]
    fn multiplier_uses_dsps() {
        let lib = quick_lib(vec![ComponentKind::Multiplier]);
        assert!(lib.lookup("mul", 32, 0).unwrap().dsps >= 1);
    }

    #[test]
    fn divider_is_slowest_arith() {
        let lib = quick_lib(vec![ComponentKind::Adder, ComponentKind::Divider]);
        let add = lib.lookup("add", 32, 0).unwrap().delay_ns;
        let div = lib.lookup("div", 32, 0).unwrap().delay_ns;
        assert!(div > 3.0 * add);
    }

    #[test]
    fn full_sweep_covers_all_kinds() {
        let lib = Eucalyptus::new(DeviceProfile::ng_medium_like())
            .characterize(&SweepConfig::quick())
            .unwrap();
        // every kind x 2 widths x 2 stage counts
        let kinds = ComponentKind::all().len();
        assert_eq!(lib.len(), kinds * 2 * 2);
        // spot-check a comparator entry exists under its mnemonic
        assert!(lib
            .lookup(
                ComponentKind::Comparator(Comparison::LtS).mnemonic(),
                32,
                0
            )
            .is_some());
    }

    #[test]
    fn xml_roundtrip_of_real_sweep() {
        let lib = quick_lib(vec![ComponentKind::Adder, ComponentKind::RamTdp]);
        let back = CharacterizationLibrary::from_xml(&lib.to_xml()).unwrap();
        assert_eq!(back.len(), lib.len());
    }
}
