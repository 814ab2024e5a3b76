//! Static timing analysis.
//!
//! Computes the longest register-to-register / pad-to-pad combinational
//! path of a mapped (and optionally placed + routed) design, yielding the
//! maximum operating frequency. This mirrors the STA step of the NXmap
//! suite that the paper's Bambu back-end integration relies on for its
//! clock-constraint-aware optimization.

use crate::device::DeviceProfile;
use crate::primitives::{Csr, PCellId, PNetId, PrimNetlist, Primitive};
use crate::route::RouteReport;
use crate::FpgaError;
use std::collections::HashMap;

/// Multicycle exceptions: combinational cells expanded from the named
/// source (coarse) cells have `factor` clock cycles to settle, so their
/// per-cycle contribution to the critical path is `delay / factor` — the
/// STA counterpart of an SDC `set_multicycle_path`, with the hints coming
/// from the HLS schedule exactly as the paper's Bambu/NXmap integration
/// passes timing knowledge downstream.
pub type MulticycleHints = HashMap<String, u32>;

/// Result of static timing analysis.
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// Delay of the critical path in nanoseconds (including setup).
    pub critical_path_ns: f64,
    /// Maximum clock frequency in MHz.
    pub fmax_mhz: f64,
    /// Worst slack against the requested clock (ns); negative = violated.
    pub worst_slack_ns: f64,
    /// The requested clock period used for slack, ns.
    pub target_period_ns: f64,
    /// Cells on the critical path, source to sink (render a name with
    /// [`PrimNetlist::cell_name`]).
    pub critical_path: Vec<PCellId>,
    /// Combinational logic levels on the critical path.
    pub logic_levels: u32,
}

impl TimingReport {
    /// Whether the design meets the requested clock.
    pub fn met(&self) -> bool {
        self.worst_slack_ns >= 0.0
    }
}

/// Timing class of a cell: a combinational cell propagates arrivals, an
/// input pad launches them, a sequential cell launches and captures them,
/// an output pad captures them.
const COMB: u8 = 0;
const LAUNCH: u8 = 1;
const REG: u8 = 2;
const CAPTURE: u8 = 3;

/// No cell: an undriven net, an unset arrival or a missing predecessor.
const NONE: u32 = u32::MAX;

/// The timing analyzer.
#[derive(Debug, Clone)]
pub struct Analyzer {
    device: DeviceProfile,
    multicycle: MulticycleHints,
}

impl Analyzer {
    /// Create an analyzer using the device's timing model.
    pub fn new(device: DeviceProfile) -> Self {
        Analyzer {
            device,
            multicycle: MulticycleHints::new(),
        }
    }

    /// Install multicycle exceptions (keyed by the source coarse-cell name
    /// recorded during technology mapping).
    pub fn with_multicycle(mut self, hints: MulticycleHints) -> Self {
        self.multicycle = hints;
        self
    }

    /// Cell propagation delay in ns.
    fn cell_delay(&self, prim: &Primitive) -> f64 {
        let t = &self.device.timing;
        match prim {
            Primitive::Lut4 { .. } => t.lut_delay_ns,
            Primitive::Carry => t.carry_delay_ns,
            Primitive::Dff { .. } => t.ff_clk_to_q_ns,
            Primitive::Dsp { pipelined, .. } => {
                if *pipelined {
                    t.ff_clk_to_q_ns
                } else {
                    t.dsp_delay_ns
                }
            }
            Primitive::Ramb { .. } => t.ram_clk_to_out_ns,
            Primitive::IoPad { .. } => 0.0,
        }
    }

    /// Setup requirement at a sequential sink in ns.
    fn sink_setup(&self, prim: &Primitive) -> f64 {
        let t = &self.device.timing;
        match prim {
            Primitive::Dff { .. } | Primitive::Dsp { pipelined: true, .. } => t.ff_setup_ns,
            Primitive::Ramb { .. } => t.ram_setup_ns,
            _ => 0.0,
        }
    }

    /// Analyze a design. If `route` is provided, per-net routed delays are
    /// used; otherwise a fanout-based pre-route estimate applies.
    ///
    /// The analysis propagates arrival times through the combinational
    /// subgraph (sequential outputs are launch points; sequential inputs and
    /// output pads are capture points).
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::CombinationalLoop`] if the combinational cells
    /// form a cycle: no path through it has a finite arrival time.
    pub fn analyze(
        &self,
        prim: &PrimNetlist,
        route: Option<&RouteReport>,
        target_period_ns: f64,
    ) -> Result<TimingReport, FpgaError> {
        let t = &self.device.timing;
        let (cells, nets) = (prim.cell_count(), prim.net_count() as usize);
        // Set-up pass: each cell's class, each net's fanout and driver (the
        // last cell in cell order that lists it as an output, so a
        // multiply-driven net resolves to its last writer).
        let mut class = Vec::with_capacity(cells);
        let mut driver = vec![NONE; nets];
        let mut fanout = vec![0u32; nets];
        let (mut comb_cells, mut comb_pins) = (0usize, 0usize);
        for (cid, c) in prim.cells() {
            let k = match c.prim {
                Primitive::IoPad { is_input: true } => LAUNCH,
                Primitive::IoPad { is_input: false } => CAPTURE,
                p if p.is_sequential() => REG,
                _ => COMB,
            };
            if k == COMB {
                comb_cells += 1;
                comb_pins += c.inputs.len();
            }
            class.push(k);
            for &o in c.outputs {
                driver[o.0 as usize] = cid.0;
            }
            for &i in c.inputs {
                fanout[i.0 as usize] += 1;
            }
        }
        let wire: Vec<f64> = match route {
            Some(r) => (0..nets as u32)
                .map(|n| r.delay_of(PNetId(n), &self.device))
                .collect(),
            None => fanout
                .iter()
                .map(|&f| t.net_base_ns + t.net_per_fanout_ns * (f64::from(f) - 1.0).max(0.0))
                .collect(),
        };

        // Arrival time per net and the cell that set it (for path
        // recovery); `setter` is `NONE` until some cell drives the net, and
        // an undriven net's time stays 0.0, which no arrival read beats.
        let mut time = vec![0.0f64; nets];
        let mut setter = vec![NONE; nets];

        // Edge pass: launch points (sequential outputs and input pads) seed
        // their arrivals, and each combinational cell gets one edge per
        // input pin driven by another combinational cell. A cell's
        // in-degree is final once its own pins are done, so the ready list
        // is seeded in cell order.
        let mut edges: Vec<(u32, PCellId)> = Vec::with_capacity(comb_pins);
        let mut indeg = vec![0u32; cells];
        let mut ready: Vec<u32> = Vec::with_capacity(comb_cells);
        for (cid, c) in prim.cells() {
            match class[cid.0 as usize] {
                COMB => {
                    for &i in c.inputs {
                        let src = driver[i.0 as usize];
                        if src != NONE && class[src as usize] == COMB {
                            edges.push((src, cid));
                            indeg[cid.0 as usize] += 1;
                        }
                    }
                    if indeg[cid.0 as usize] == 0 {
                        ready.push(cid.0);
                    }
                }
                LAUNCH | REG => {
                    let launch = self.cell_delay(&c.prim);
                    for &o in c.outputs {
                        let (o, a) = (o.0 as usize, launch + wire[o.0 as usize]);
                        if setter[o] == NONE || a > time[o] {
                            (time[o], setter[o]) = (a, cid.0);
                        }
                    }
                }
                _ => {}
            }
        }
        // counting sort into successor rows, each in edge (pin) order
        let succ = Csr::from_pairs(cells, edges.iter().map(|&(src, dst)| (src as usize, dst)));

        // multicycle exception: cell and interconnect delay inside the
        // excepted cone are amortized over the allowed settle cycles; one
        // scale per source string, looked up once
        let scale: Vec<f64> = prim
            .strings()
            .iter()
            .map(|s| self.multicycle.get(s).map_or(1.0, |&f| f64::from(f.max(1))))
            .collect();

        // Kahn's algorithm with a LIFO ready list. Launch arrivals win on
        // `>` (first writer keeps a tie), combinational ones on `>=` (last
        // writer takes it); with the pop order this fixes which writer sets
        // a multiply-driven net.
        let mut pred = vec![NONE; cells];
        let mut reached = 0usize;
        while let Some(cid) = ready.pop() {
            reached += 1;
            let c = prim.cell(PCellId(cid));
            let mut best = 0.0f64;
            for &i in c.inputs {
                let i = i.0 as usize;
                if time[i] > best {
                    best = time[i];
                    pred[cid as usize] = setter[i];
                }
            }
            let d = self.cell_delay(&c.prim);
            let scale = scale[c.source as usize];
            for &o in c.outputs {
                let (o, a) = (o.0 as usize, best + (d + wire[o.0 as usize]) / scale);
                if setter[o] == NONE || a >= time[o] {
                    (time[o], setter[o]) = (a, cid);
                }
            }
            for &n in succ.row(cid as usize) {
                let deg = &mut indeg[n.0 as usize];
                *deg -= 1;
                if *deg == 0 {
                    ready.push(n.0);
                }
            }
        }
        if reached < comb_cells {
            return Err(FpgaError::CombinationalLoop {
                cell: prim.cell_name(cell_on_loop(prim, &driver, &indeg)),
            });
        }

        // Capture: worst arrival + setup at sequential inputs / output pads.
        let mut critical = 0.0f64;
        let mut critical_end = None;
        for (cid, c) in prim.cells() {
            if !matches!(class[cid.0 as usize], REG | CAPTURE) {
                continue;
            }
            let setup = self.sink_setup(&c.prim);
            for &i in c.inputs {
                let i = i.0 as usize;
                if setter[i] != NONE && time[i] + setup > critical {
                    critical = time[i] + setup;
                    critical_end = Some(cid);
                }
            }
        }
        // Guard: a purely sequential design still pays clk-to-q + setup.
        let floor = t.ff_clk_to_q_ns + t.ff_setup_ns + t.net_base_ns;
        let critical = critical.max(floor);

        // Recover the path backwards: from the capture cell through its
        // worst input (the first timed input keeps a tie), then through
        // each combinational cell's recorded predecessor, ending at the
        // launch point (a sequential cell or an input pad) or at a cell
        // with no timed input (a constant).
        let mut critical_path = Vec::new();
        if let Some(end) = critical_end {
            critical_path.push(end);
            let mut worst: Option<(f64, u32)> = None;
            for &i in prim.cell(end).inputs {
                let i = i.0 as usize;
                if setter[i] != NONE && worst.is_none_or(|(b, _)| time[i] > b) {
                    worst = Some((time[i], setter[i]));
                }
            }
            let mut cur = worst.map_or(NONE, |(_, s)| s);
            while cur != NONE {
                critical_path.push(PCellId(cur));
                cur = if class[cur as usize] == COMB {
                    pred[cur as usize]
                } else {
                    NONE
                };
            }
            critical_path.reverse();
        }
        let is_logic = |&&cid: &&PCellId| {
            matches!(prim.cell(cid).prim, Primitive::Lut4 { .. } | Primitive::Carry)
        };
        let logic_levels = critical_path.iter().filter(is_logic).count() as u32;

        Ok(TimingReport {
            critical_path_ns: critical,
            fmax_mhz: 1000.0 / critical,
            worst_slack_ns: target_period_ns - critical,
            target_period_ns,
            critical_path,
            logic_levels,
        })
    }
}

/// A combinational cell on a loop, given Kahn's leftover in-degrees
/// (every cell it never reached still has one). Each such cell has an
/// unreached combinational driver, so walking from the first one to a
/// driver as many steps as there are unreached cells ends on the loop.
fn cell_on_loop(prim: &PrimNetlist, driver: &[u32], indeg: &[u32]) -> PCellId {
    let unreached = |c: u32| c != NONE && indeg[c as usize] > 0;
    let left = (0..prim.cell_count() as u32).filter(|&c| unreached(c));
    let steps = left.clone().count();
    let mut cur = left.clone().next().expect("a loop leaves a cell unreached");
    for _ in 0..steps {
        cur = prim
            .cell(PCellId(cur))
            .inputs
            .iter()
            .map(|i| driver[i.0 as usize])
            .find(|&src| unreached(src))
            .expect("an unreached cell has an unreached driver");
    }
    PCellId(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceProfile;
    use crate::synth::Synthesizer;
    use hermes_rtl::netlist::{CellOp, Netlist};

    fn analyze(nl: &Netlist) -> TimingReport {
        let dev = DeviceProfile::ng_medium_like();
        let prim = Synthesizer::new(dev.clone()).synthesize(nl).unwrap().prim;
        Analyzer::new(dev).analyze(&prim, None, 10.0).unwrap()
    }

    fn adder(w: u32) -> Netlist {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", w);
        let b = nl.add_input("b", w);
        let y = nl.add_net("y", w);
        nl.add_cell("add", CellOp::Add, &[a, b], &[y]).unwrap();
        nl.mark_output(y);
        nl
    }

    #[test]
    fn wider_adder_is_slower() {
        let t8 = analyze(&adder(8));
        let t32 = analyze(&adder(32));
        assert!(t32.critical_path_ns > t8.critical_path_ns);
        assert!(t32.fmax_mhz < t8.fmax_mhz);
    }

    #[test]
    fn divider_much_slower_than_adder() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 16);
        let b = nl.add_input("b", 16);
        let y = nl.add_net("y", 16);
        nl.add_cell("div", CellOp::Div, &[a, b], &[y]).unwrap();
        nl.mark_output(y);
        let td = analyze(&nl);
        let ta = analyze(&adder(16));
        assert!(td.critical_path_ns > 4.0 * ta.critical_path_ns);
    }

    #[test]
    fn slack_sign_tracks_target() {
        let r = analyze(&adder(16));
        assert!(r.met(), "16-bit add should close 100 MHz: {r:?}");
        let dev = DeviceProfile::ng_medium_like();
        let prim = Synthesizer::new(dev.clone())
            .synthesize(&adder(16))
            .unwrap()
            .prim;
        let tight = Analyzer::new(dev).analyze(&prim, None, 0.1).unwrap();
        assert!(!tight.met());
        assert!(tight.worst_slack_ns < 0.0);
    }

    #[test]
    fn registered_design_has_floor_delay() {
        let mut nl = Netlist::new("t");
        let d = nl.add_input("d", 8);
        let q = nl.add_net("q", 8);
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
        let r = analyze(&nl);
        assert!(r.critical_path_ns > 0.0);
        assert!(r.fmax_mhz.is_finite());
    }

    #[test]
    fn critical_path_nonempty_for_logic() {
        let r = analyze(&adder(16));
        assert!(!r.critical_path.is_empty());
        assert!(r.logic_levels > 0);
    }

    #[test]
    fn multiply_driven_net_resolves_to_its_last_writer() {
        use crate::primitives::{add_plain, truth, PrimNetlist};
        let lut = Primitive::Lut4 {
            truth: truth::BUF1,
            used_inputs: 1,
        };
        let mut p = PrimNetlist::new("t");
        let (a, b, n, y) = (p.new_net(), p.new_net(), p.new_net(), p.new_net());
        add_plain(&mut p, "pad_a", Primitive::IoPad { is_input: true }, &[], &[a]);
        add_plain(&mut p, "pad_b", Primitive::IoPad { is_input: true }, &[], &[b]);
        add_plain(&mut p, "first", lut, &[a], &[n]);
        add_plain(&mut p, "last", lut, &[b], &[n]);
        add_plain(&mut p, "sink", lut, &[n], &[y]);
        add_plain(&mut p, "pad_y", Primitive::IoPad { is_input: false }, &[y], &[]);
        let r = Analyzer::new(DeviceProfile::ng_medium_like())
            .analyze(&p, None, 10.0)
            .unwrap();
        let names: Vec<String> = r.critical_path.iter().map(|&c| p.cell_name(c)).collect();
        assert_eq!(names, ["pad_b", "last", "sink", "pad_y"]);
    }

    /// Input pad → LUT `a` ⇄ LUT `b` → output pad: the two LUTs never
    /// leave Kahn's queue, so no path through them can be timed.
    #[test]
    fn combinational_loop_is_an_error() {
        use crate::primitives::{add_plain, truth, PrimNetlist};
        let mut p = PrimNetlist::new("t");
        let (x, na, nb) = (p.new_net(), p.new_net(), p.new_net());
        add_plain(&mut p, "pad_x", Primitive::IoPad { is_input: true }, &[], &[x]);
        let and2 = Primitive::Lut4 {
            truth: truth::AND2,
            used_inputs: 2,
        };
        add_plain(&mut p, "a", and2, &[x, nb], &[na]);
        let buf = Primitive::Lut4 {
            truth: truth::BUF1,
            used_inputs: 1,
        };
        add_plain(&mut p, "b", buf, &[na], &[nb]);
        add_plain(&mut p, "pad_y", Primitive::IoPad { is_input: false }, &[nb], &[]);
        let r = Analyzer::new(DeviceProfile::ng_medium_like()).analyze(&p, None, 10.0);
        assert_eq!(r.unwrap_err(), FpgaError::CombinationalLoop { cell: "a".into() });
    }

    /// Two independent adders, `slow` (32 bits) and `fast` (8 bits): a
    /// hint scales exactly the primitives of the coarse cell it names. The
    /// pinned critical paths were recorded with a `String`-keyed hint
    /// lookup, so they also hold the `u32` source index to its results.
    #[test]
    fn multicycle_hint_scales_exactly_the_named_cell() {
        let mut nl = Netlist::new("t");
        for (name, w) in [("slow", 32), ("fast", 8)] {
            let a = nl.add_input(format!("{name}_a"), w);
            let b = nl.add_input(format!("{name}_b"), w);
            let y = nl.add_net(format!("{name}_y"), w);
            nl.add_cell(name, CellOp::Add, &[a, b], &[y]).unwrap();
            nl.mark_output(y);
        }
        let dev = DeviceProfile::ng_medium_like();
        let prim = Synthesizer::new(dev.clone()).synthesize(&nl).unwrap().prim;
        let critical = |hints: &[(&str, u32)]| {
            let hints = hints.iter().map(|&(n, f)| (n.to_string(), f)).collect();
            let r = Analyzer::new(dev.clone())
                .with_multicycle(hints)
                .analyze(&prim, None, 10.0)
                .unwrap();
            r.critical_path_ns.to_bits()
        };
        let none = 0x4020_4ccc_cccc_ccca; // 8.15 ns through `slow`
        for hints in [&[][..], &[("fast", 4)], &[("slow", 1)], &[("absent", 4)]] {
            assert_eq!(critical(hints), none, "{hints:?}");
        }
        assert_eq!(critical(&[("slow", 2)]), 0x4011_47ae_147a_e145); // 4.32 ns
        // `slow` at 1/8 leaves `fast` critical, which its own hint then cuts
        assert_eq!(critical(&[("slow", 8)]), 0x4006_0000_0000_0001); // 2.75 ns
        assert_eq!(critical(&[("slow", 8), ("fast", 4)]), 0x3ff7_28f5_c28f_5c23); // 1.45 ns
    }

    #[test]
    fn legacy_device_halves_fmax() {
        let nl = adder(32);
        let m = DeviceProfile::ng_medium_like();
        let l = DeviceProfile::legacy_radhard_like();
        let pm = Synthesizer::new(m.clone()).synthesize(&nl).unwrap().prim;
        let pl = Synthesizer::new(l.clone()).synthesize(&nl).unwrap().prim;
        let tm = Analyzer::new(m).analyze(&pm, None, 10.0).unwrap();
        let tl = Analyzer::new(l).analyze(&pl, None, 10.0).unwrap();
        let ratio = tm.fmax_mhz / tl.fmax_mhz;
        assert!(
            (1.8..=2.2).contains(&ratio),
            "28nm should be ~2x faster, got {ratio:.2}"
        );
    }
}
