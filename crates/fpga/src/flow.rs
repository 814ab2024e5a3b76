//! The NXmap-analogue implementation flow (Fig. 3 of the paper):
//! synthesis → placement → routing → static timing analysis → bitstream.

use crate::bitstream::Bitstream;
use crate::device::DeviceProfile;
use crate::place::{Effort, Placement, Placer};
use crate::primitives::{PrimNetlist, Utilization};
use crate::route::{RouteReport, Router};
use crate::synth::{SynthReport, Synthesizer};
use crate::timing::{Analyzer, MulticycleHints, TimingReport};
use crate::FpgaError;
use hermes_obs::{ClockDomain, Recorder};
use hermes_rtl::netlist::Netlist;
use std::time::Instant;

/// Options controlling a flow run.
#[derive(Debug, Clone)]
pub struct FlowOptions {
    /// Requested clock period in nanoseconds (the user-chosen constraint the
    /// paper notes FPGAs require).
    pub target_period_ns: f64,
    /// Placement effort.
    pub effort: Effort,
    /// Deterministic seed for placement.
    pub seed: u64,
    /// If true, a timing violation aborts the flow with
    /// [`FpgaError::TimingNotMet`]; if false it is only reported.
    pub fail_on_timing: bool,
    /// Multicycle path exceptions from the HLS schedule (coarse cell name
    /// → allowed settle cycles); see [`crate::timing::MulticycleHints`].
    pub multicycle: MulticycleHints,
    /// Number of independent placement starts; the best (lowest-HPWL)
    /// result wins. Starts run in parallel across [`hermes_par::jobs`]
    /// workers; `1` keeps the classic single-start flow.
    pub place_starts: u32,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            target_period_ns: 10.0, // 100 MHz
            effort: Effort::Low,
            seed: 1,
            fail_on_timing: false,
            multicycle: MulticycleHints::new(),
            place_starts: 1,
        }
    }
}

/// Estimated power of the implemented design at the achieved frequency.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerEstimate {
    /// Static power, mW.
    pub static_mw: f64,
    /// Dynamic power at the target clock, mW.
    pub dynamic_mw: f64,
}

impl PowerEstimate {
    /// Total power, mW.
    pub fn total_mw(&self) -> f64 {
        self.static_mw + self.dynamic_mw
    }
}

/// Complete results of one flow run.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Design name.
    pub design: String,
    /// Device name.
    pub device: String,
    /// Synthesis metrics.
    pub synth: SynthReport,
    /// Resource utilization (copy of `synth.utilization` for convenience).
    pub utilization: Utilization,
    /// Placement result.
    pub placement: PlacementSummary,
    /// Routing result.
    pub route: RouteSummary,
    /// Timing result.
    pub timing: TimingReport,
    /// Power estimate.
    pub power: PowerEstimate,
    /// Bitstream size in bytes.
    pub bitstream_bytes: usize,
    /// Wall-clock time of each stage in microseconds:
    /// (synth, place, route, sta, bitgen).
    pub stage_us: [u128; 5],
}

/// Condensed placement metrics for the report.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlacementSummary {
    /// Final HPWL.
    pub hpwl: f64,
    /// HPWL of the constructive placement the descent starts from.
    pub initial_hpwl: f64,
    /// Accepted / tried move counts.
    pub moves: (u64, u64),
}

/// Condensed routing metrics for the report.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RouteSummary {
    /// Total wirelength in tile units.
    pub wirelength: f64,
    /// Peak channel utilization.
    pub peak_utilization: f64,
    /// Channels over capacity.
    pub overflowed: u32,
}

impl FlowReport {
    /// Render a human-readable multi-line report (the flow log a user of
    /// NXmap would read).
    pub fn render(&self) -> String {
        format!(
            "design {d} on {dev}\n\
             \x20 synth : {cc} coarse cells -> {pc} primitives ({util})\n\
             \x20 place : HPWL {hp:.0} (initial {ih:.0}), {acc}/{tried} moves\n\
             \x20 route : wirelength {wl:.0}, peak util {pu:.2}, {ov} overflow\n\
             \x20 timing: {cp:.2} ns critical ({lv} levels) -> {fm:.1} MHz, slack {sl:.2} ns\n\
             \x20 power : {pw:.1} mW\n\
             \x20 bitgen: {bb} bytes",
            d = self.design,
            dev = self.device,
            cc = self.synth.coarse_cells,
            pc = self.synth.prim_cells,
            util = self.utilization,
            hp = self.placement.hpwl,
            ih = self.placement.initial_hpwl,
            acc = self.placement.moves.0,
            tried = self.placement.moves.1,
            wl = self.route.wirelength,
            pu = self.route.peak_utilization,
            ov = self.route.overflowed,
            cp = self.timing.critical_path_ns,
            lv = self.timing.logic_levels,
            fm = self.timing.fmax_mhz,
            sl = self.timing.worst_slack_ns,
            pw = self.power.total_mw(),
            bb = self.bitstream_bytes,
        )
    }
}

/// Artifacts of a flow run that downstream stages consume.
#[derive(Debug, Clone)]
pub struct FlowArtifacts {
    /// The mapped primitive netlist.
    pub prim: PrimNetlist,
    /// The placement.
    pub placement: Placement,
    /// The routing report (with per-net delays).
    pub route: RouteReport,
    /// The configuration bitstream.
    pub bitstream: Bitstream,
}

/// The implementation flow driver.
#[derive(Debug, Clone)]
pub struct NxFlow {
    device: DeviceProfile,
    options: FlowOptions,
}

impl NxFlow {
    /// Create a flow for a device with the given options.
    pub fn new(device: DeviceProfile, options: FlowOptions) -> Self {
        NxFlow { device, options }
    }

    /// The target device.
    pub fn device(&self) -> &DeviceProfile {
        &self.device
    }

    /// Run the full flow, returning only the report; traces into `obs`
    /// as [`run_with_artifacts_traced`](NxFlow::run_with_artifacts_traced)
    /// does.
    ///
    /// # Errors
    ///
    /// Propagates any stage failure; see [`FpgaError`].
    pub fn run(&self, netlist: &Netlist, obs: &Recorder) -> Result<FlowReport, FpgaError> {
        self.run_with_artifacts_traced(netlist, obs).map(|(r, _)| r)
    }

    /// Run the full flow, returning the report plus reusable artifacts
    /// (primitive netlist, placement, routed delays, bitstream).
    ///
    /// # Errors
    ///
    /// Propagates any stage failure; see [`FpgaError`].
    pub fn run_with_artifacts(
        &self,
        netlist: &Netlist,
    ) -> Result<(FlowReport, FlowArtifacts), FpgaError> {
        self.run_with_artifacts_traced(netlist, &Recorder::disabled())
    }

    /// [`run_with_artifacts`](NxFlow::run_with_artifacts) with
    /// flight-recorder output: one `Seq`-clocked span per NXmap stage
    /// (synth → place → route → sta → bitgen, ts = stage index) with the
    /// stage's headline metric, plus per-sweep placer samples
    /// via [`Placer::place`].
    ///
    /// # Errors
    ///
    /// Propagates any stage failure; see [`FpgaError`].
    pub fn run_with_artifacts_traced(
        &self,
        netlist: &Netlist,
        obs: &Recorder,
    ) -> Result<(FlowReport, FlowArtifacts), FpgaError> {
        const SUB: &str = "fpga";
        let m0 = obs.mark();
        let t0 = Instant::now();
        let synth = Synthesizer::new(self.device.clone()).synthesize(netlist)?;
        obs.span(
            SUB,
            "synth",
            ClockDomain::Seq,
            0,
            1,
            &[
                ("coarse_cells", synth.report.coarse_cells.to_string()),
                ("prim_cells", synth.report.prim_cells.to_string()),
            ],
            m0,
        );
        let m1 = obs.mark();
        let t1 = Instant::now();
        let placement = Placer::new(self.device.clone(), self.options.effort, self.options.seed)
            .place(
                &synth.prim,
                self.options.place_starts,
                hermes_par::jobs(),
                obs,
            )?;
        obs.span(
            SUB,
            "place",
            ClockDomain::Seq,
            1,
            1,
            &[
                ("hpwl", format!("{:.1}", placement.hpwl)),
                ("starts", self.options.place_starts.max(1).to_string()),
            ],
            m1,
        );
        let m2 = obs.mark();
        let t2 = Instant::now();
        let route = Router::new(self.device.clone()).route(&synth.prim, &placement)?;
        obs.span(
            SUB,
            "route",
            ClockDomain::Seq,
            2,
            1,
            &[
                ("wirelength", format!("{:.1}", route.total_wirelength)),
                ("overflowed", route.overflowed_channels.to_string()),
            ],
            m2,
        );
        let m3 = obs.mark();
        let t3 = Instant::now();
        let timing = Analyzer::new(self.device.clone())
            .with_multicycle(self.options.multicycle.clone())
            .analyze(&synth.prim, Some(&route), self.options.target_period_ns);
        obs.span(
            SUB,
            "sta",
            ClockDomain::Seq,
            3,
            1,
            &[
                ("fmax_mhz", format!("{:.1}", timing.fmax_mhz)),
                ("met", timing.met().to_string()),
            ],
            m3,
        );
        let m4 = obs.mark();
        let t4 = Instant::now();
        if self.options.fail_on_timing && !timing.met() {
            return Err(FpgaError::TimingNotMet {
                achieved_mhz: timing.fmax_mhz,
                requested_mhz: 1000.0 / self.options.target_period_ns,
            });
        }
        let bitstream = Bitstream::generate(&synth.prim, &placement, &self.device);
        obs.span(
            SUB,
            "bitgen",
            ClockDomain::Seq,
            4,
            1,
            &[("bytes", bitstream.size_bytes().to_string())],
            m4,
        );
        obs.counter_add(SUB, "flows", 1);
        let t5 = Instant::now();

        let u = synth.report.utilization;
        let p = &self.device.power;
        let clock_mhz = 1000.0 / self.options.target_period_ns;
        let power = PowerEstimate {
            static_mw: (u.luts as f64 * p.lut_static_uw
                + u.dsps as f64 * p.dsp_static_uw
                + u.rams as f64 * p.ram_static_uw)
                / 1000.0,
            dynamic_mw: u.luts as f64 * p.lut_dynamic_uw_per_100mhz * (clock_mhz / 100.0)
                / 1000.0,
        };

        let report = FlowReport {
            design: netlist.name().to_string(),
            device: self.device.name.clone(),
            utilization: u,
            placement: PlacementSummary {
                hpwl: placement.hpwl,
                initial_hpwl: placement.initial_hpwl,
                moves: (placement.moves_accepted, placement.moves_tried),
            },
            route: RouteSummary {
                wirelength: route.total_wirelength,
                peak_utilization: route.peak_utilization,
                overflowed: route.overflowed_channels,
            },
            timing,
            power,
            bitstream_bytes: bitstream.size_bytes(),
            stage_us: [
                (t1 - t0).as_micros(),
                (t2 - t1).as_micros(),
                (t3 - t2).as_micros(),
                (t4 - t3).as_micros(),
                (t5 - t4).as_micros(),
            ],
            synth: synth.report,
        };
        let artifacts = FlowArtifacts {
            prim: synth.prim,
            placement,
            route,
            bitstream,
        };
        Ok((report, artifacts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_rtl::netlist::{CellOp, Netlist};

    fn mac_design() -> Netlist {
        let mut nl = Netlist::new("mac16");
        let a = nl.add_input("a", 16);
        let b = nl.add_input("b", 16);
        let p = nl.add_net("p", 16);
        let acc_in = nl.add_net("acc", 16);
        let sum = nl.add_net("sum", 16);
        nl.add_cell("mul", CellOp::Mul, &[a, b], &[p]).unwrap();
        nl.add_cell("add", CellOp::Add, &[p, acc_in], &[sum]).unwrap();
        nl.add_cell(
            "accreg",
            CellOp::Register {
                has_enable: false,
                has_reset: true,
            },
            &[sum],
            &[acc_in],
        )
        .unwrap();
        nl.mark_output(acc_in);
        nl
    }

    #[test]
    fn full_flow_on_mac() {
        let report = NxFlow::new(DeviceProfile::ng_medium_like(), FlowOptions::default())
            .run(&mac_design(), &Recorder::disabled())
            .unwrap();
        assert!(report.utilization.dsps >= 1);
        assert!(report.utilization.ffs >= 16);
        assert!(report.timing.fmax_mhz > 10.0);
        assert!(report.bitstream_bytes > 0);
        assert!(report.power.total_mw() > 0.0);
        let text = report.render();
        assert!(text.contains("timing:"));
        assert!(text.contains("bitgen:"));
    }

    #[test]
    fn artifacts_bitstream_verifies() {
        let (_, art) = NxFlow::new(DeviceProfile::ng_medium_like(), FlowOptions::default())
            .run_with_artifacts(&mac_design())
            .unwrap();
        art.bitstream.verify().unwrap();
        assert_eq!(art.placement.locations.len(), art.prim.cell_count());
    }

    #[test]
    fn fail_on_timing_errors_out() {
        let opts = FlowOptions {
            target_period_ns: 0.01, // 100 GHz: impossible
            fail_on_timing: true,
            ..FlowOptions::default()
        };
        let err = NxFlow::new(DeviceProfile::ng_medium_like(), opts)
            .run(&mac_design(), &Recorder::disabled())
            .unwrap_err();
        assert!(matches!(err, FpgaError::TimingNotMet { .. }));
    }

    #[test]
    fn flow_deterministic() {
        let f = NxFlow::new(DeviceProfile::ng_medium_like(), FlowOptions::default());
        let r1 = f.run(&mac_design(), &Recorder::disabled()).unwrap();
        let r2 = f.run(&mac_design(), &Recorder::disabled()).unwrap();
        assert_eq!(r1.placement.hpwl, r2.placement.hpwl);
        assert_eq!(r1.timing.critical_path_ns, r2.timing.critical_path_ns);
    }
}

/// Generate the NXmap-style backend synthesis script for a design — the
/// "seamless integration between Bambu and NXmap through the automatic
/// generation of backend synthesis scripts" of Section II. The script is
/// the Python dialect NXmap consumes; this flow executes the same steps
/// natively, and the text serves as the exchange artifact.
pub fn nxmap_script(design: &str, top_hdl_file: &str, device: &DeviceProfile, options: &FlowOptions) -> String {
    let mhz = 1000.0 / options.target_period_ns;
    let mut s = String::new();
    s.push_str("# Generated by hermes-fpga (NXmap backend script)\n");
    s.push_str("from nxmap import *\n\n");
    s.push_str(&format!("p = createProject('{design}_impl')\n"));
    s.push_str(&format!("p.setVariantName('{}')\n", device.name));
    s.push_str(&format!("p.addFile('rtl', '{top_hdl_file}')\n"));
    s.push_str(&format!("p.setTopCellName('{design}')\n"));
    s.push_str(&format!(
        "p.createClock(getClockNet('clk'), 'clk', {:.0})  # {:.1} MHz\n",
        options.target_period_ns * 1000.0,
        mhz
    ));
    for (cell, factor) in {
        let mut v: Vec<_> = options.multicycle.iter().collect();
        v.sort();
        v
    } {
        s.push_str(&format!(
            "p.addMulticyclePath('{cell}', {factor})\n"
        ));
    }
    s.push_str("\np.synthesize()\np.place()\np.route()\n");
    s.push_str(&format!(
        "p.reportInstances()\np.generateBitstream('{design}.nxb')\n"
    ));
    s.push_str("p.save()\n");
    s
}

#[cfg(test)]
mod script_tests {
    use super::*;

    #[test]
    fn script_contains_flow_steps() {
        let dev = DeviceProfile::ng_medium_like();
        let mut opts = FlowOptions::default();
        opts.multicycle.insert("b0_i3".into(), 28);
        let s = nxmap_script("sobel", "sobel.v", &dev, &opts);
        for needle in [
            "createProject('sobel_impl')",
            "setVariantName('NG-MEDIUM-like')",
            "createClock",
            "addMulticyclePath('b0_i3', 28)",
            "synthesize()",
            "place()",
            "route()",
            "generateBitstream('sobel.nxb')",
        ] {
            assert!(s.contains(needle), "missing `{needle}` in:\n{s}");
        }
    }
}
