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
    /// Cells on the critical path, source to sink.
    pub critical_cells: Vec<String>,
    /// Combinational logic levels on the critical path.
    pub logic_levels: u32,
}

impl TimingReport {
    /// Whether the design meets the requested clock.
    pub fn met(&self) -> bool {
        self.worst_slack_ns >= 0.0
    }
}

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
    pub fn analyze(
        &self,
        prim: &PrimNetlist,
        route: Option<&RouteReport>,
        target_period_ns: f64,
    ) -> TimingReport {
        let t = &self.device.timing;
        let nets = prim.net_count() as usize;
        // Wire delay of every net, and each net's driver: the last cell in
        // cell order that lists it as an output (a multiply-driven net
        // resolves to its last writer).
        let mut driver: Vec<Option<PCellId>> = vec![None; nets];
        let mut fanout = vec![0u32; nets];
        for (cid, c) in prim.cells() {
            for &o in &c.outputs {
                driver[o.0 as usize] = Some(cid);
            }
            for &i in &c.inputs {
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

        // Arrival time per net, plus the cell that set it (for path
        // recovery); `None` until some cell drives the net.
        let mut arrival: Vec<Option<(f64, PCellId)>> = vec![None; nets];

        // Launch points: sequential outputs and input pads.
        let is_comb = |p: &Primitive| !p.is_sequential() && !matches!(p, Primitive::IoPad { .. });
        let mut comb_cells: Vec<PCellId> = Vec::new();
        for (cid, c) in prim.cells() {
            if c.prim.is_sequential() || matches!(c.prim, Primitive::IoPad { is_input: true }) {
                let launch = self.cell_delay(&c.prim);
                for &o in &c.outputs {
                    let a = launch + wire[o.0 as usize];
                    let e = &mut arrival[o.0 as usize];
                    if e.is_none_or(|(old, _)| a > old) {
                        *e = Some((a, cid));
                    }
                }
            } else if !matches!(c.prim, Primitive::IoPad { .. }) {
                comb_cells.push(cid);
            }
        }

        // Topological propagation via Kahn's algorithm over combinational
        // cells: one edge per input pin driven by another combinational cell.
        let driver = &driver;
        let edges = comb_cells.iter().flat_map(|&cid| {
            prim.cell(cid).inputs.iter().filter_map(move |i| {
                driver[i.0 as usize]
                    .filter(|&src| is_comb(&prim.cell(src).prim))
                    .map(|src| (src, cid))
            })
        });
        let mut indeg = vec![0u32; prim.cell_count()];
        for (_, dst) in edges.clone() {
            indeg[dst.0 as usize] += 1;
        }
        let succ = Csr::from_pairs(
            prim.cell_count(),
            edges.map(|(src, dst)| (src.0 as usize, dst)),
        );
        let mut queue: Vec<PCellId> = comb_cells
            .iter()
            .copied()
            .filter(|c| indeg[c.0 as usize] == 0)
            .collect();
        let mut pred_of: Vec<Option<PCellId>> = vec![None; prim.cell_count()];
        while let Some(cid) = queue.pop() {
            let c = prim.cell(cid);
            let mut best = 0.0f64;
            let mut best_pred = None;
            for &i in &c.inputs {
                if let Some((a, src)) = arrival[i.0 as usize] {
                    if a > best {
                        best = a;
                        best_pred = Some(src);
                    }
                }
            }
            pred_of[cid.0 as usize] = best_pred;
            let d = self.cell_delay(&c.prim);
            // multicycle exception: cell and interconnect delay inside the
            // excepted cone are amortized over the allowed settle cycles
            let scale = self
                .multicycle
                .get(&c.source)
                .map(|&f| f64::from(f.max(1)))
                .unwrap_or(1.0);
            for &o in &c.outputs {
                let a = best + (d + wire[o.0 as usize]) / scale;
                let e = &mut arrival[o.0 as usize];
                if e.is_none_or(|(old, _)| a >= old) {
                    *e = Some((a, cid));
                }
            }
            for &n in succ.row(cid.0 as usize) {
                let deg = &mut indeg[n.0 as usize];
                *deg -= 1;
                if *deg == 0 {
                    queue.push(n);
                }
            }
        }

        // Capture: worst arrival + setup at sequential inputs / output pads.
        let mut critical = 0.0f64;
        let mut critical_end: Option<PCellId> = None;
        for (cid, c) in prim.cells() {
            let is_capture = c.prim.is_sequential()
                || matches!(c.prim, Primitive::IoPad { is_input: false });
            if !is_capture {
                continue;
            }
            let setup = self.sink_setup(&c.prim);
            for &i in &c.inputs {
                if let Some((a, _)) = arrival[i.0 as usize] {
                    let total = a + setup;
                    if total > critical {
                        critical = total;
                        critical_end = Some(cid);
                    }
                }
            }
        }
        // Guard: a purely sequential design still pays clk-to-q + setup.
        let floor = t.ff_clk_to_q_ns + t.ff_setup_ns + t.net_base_ns;
        let critical = critical.max(floor);

        // Recover path.
        let mut critical_cells = Vec::new();
        let mut logic_levels = 0u32;
        let mut cur = critical_end;
        let mut guard = 0;
        while let Some(cid) = cur {
            let c = prim.cell(cid);
            critical_cells.push(c.name.clone());
            if matches!(c.prim, Primitive::Lut4 { .. } | Primitive::Carry) {
                logic_levels += 1;
            }
            // predecessor through worst input
            cur = pred_of[cid.0 as usize].or_else(|| {
                let mut best: Option<(f64, PCellId)> = None;
                for &i in &c.inputs {
                    if let Some((a, src)) = arrival[i.0 as usize] {
                        if best.map(|(b, _)| a > b).unwrap_or(true) {
                            best = Some((a, src));
                        }
                    }
                }
                best.map(|(_, s)| s)
            });
            guard += 1;
            if guard > prim.cell_count() {
                break;
            }
        }
        critical_cells.reverse();

        let fmax_mhz = 1000.0 / critical;
        TimingReport {
            critical_path_ns: critical,
            fmax_mhz,
            worst_slack_ns: target_period_ns - critical,
            target_period_ns,
            critical_cells,
            logic_levels,
        }
    }
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
        Analyzer::new(dev).analyze(&prim, None, 10.0)
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
        let tight = Analyzer::new(dev).analyze(&prim, None, 0.1);
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
        assert!(!r.critical_cells.is_empty());
        assert!(r.logic_levels > 0);
    }

    #[test]
    fn multiply_driven_net_resolves_to_its_last_writer() {
        use crate::primitives::{truth, PrimNetlist};
        let lut = Primitive::Lut4 {
            truth: truth::BUF1,
            used_inputs: 1,
        };
        let mut p = PrimNetlist::new("t");
        let (a, b, n, y) = (p.new_net(), p.new_net(), p.new_net(), p.new_net());
        p.add(
            "pad_a",
            Primitive::IoPad { is_input: true },
            vec![],
            vec![a],
            "s",
        );
        p.add(
            "pad_b",
            Primitive::IoPad { is_input: true },
            vec![],
            vec![b],
            "s",
        );
        p.add("first", lut.clone(), vec![a], vec![n], "s");
        p.add("last", lut.clone(), vec![b], vec![n], "s");
        p.add("sink", lut, vec![n], vec![y], "s");
        p.add(
            "pad_y",
            Primitive::IoPad { is_input: false },
            vec![y],
            vec![],
            "s",
        );
        let r = Analyzer::new(DeviceProfile::ng_medium_like()).analyze(&p, None, 10.0);
        assert_eq!(r.critical_cells, ["pad_b", "last", "sink", "pad_y"]);
    }

    #[test]
    fn legacy_device_halves_fmax() {
        let nl = adder(32);
        let m = DeviceProfile::ng_medium_like();
        let l = DeviceProfile::legacy_radhard_like();
        let pm = Synthesizer::new(m.clone()).synthesize(&nl).unwrap().prim;
        let pl = Synthesizer::new(l.clone()).synthesize(&nl).unwrap().prim;
        let tm = Analyzer::new(m).analyze(&pm, None, 10.0);
        let tl = Analyzer::new(l).analyze(&pl, None, 10.0);
        let ratio = tm.fmax_mhz / tl.fmax_mhz;
        assert!(
            (1.8..=2.2).contains(&ratio),
            "28nm should be ~2x faster, got {ratio:.2}"
        );
    }
}
