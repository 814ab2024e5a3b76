//! Static timing analysis runs on flat tables: a class byte per cell, a
//! `u32` driver per net, one edge pass and `f64`/`u32` arrival arrays.
//! The reference below is the analysis those tables replaced, kept
//! unchanged apart from taking the device and hints as arguments and
//! recording path cells by id. The production STA must match it bit for
//! bit: the critical path's delay (`to_bits`), its logic levels and its
//! cells, on
//!
//! * every template of the default characterization sweep (every
//!   `ComponentKind` at 8, 16, 32 and 64 bits, unrouted, 1000 ns), and
//! * every suite kernel after place and route, at default options and at
//!   E2's (`unroll_limit(0)` plus the schedule's multicycle hints).

use hermes_bench::kernels;
use hermes_eucalyptus::templates;
use hermes_fpga::device::DeviceProfile;
use hermes_fpga::flow::{FlowOptions, NxFlow};
use hermes_fpga::primitives::{Csr, PCellId, PNetId, PrimNetlist, Primitive};
use hermes_fpga::route::RouteReport;
use hermes_fpga::synth::Synthesizer;
use hermes_fpga::timing::{Analyzer, MulticycleHints, TimingReport};
use hermes_hls::HlsFlow;
use hermes_obs::Recorder;
use hermes_rtl::component::{ComponentKind, ComponentTemplate};

/// The reference's result: delay, logic levels and path cells.
#[derive(Debug, PartialEq)]
struct Reference {
    critical_bits: u64,
    logic_levels: u32,
    path: Vec<PCellId>,
}

fn cell_delay(device: &DeviceProfile, prim: &Primitive) -> f64 {
    let t = &device.timing;
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

fn sink_setup(device: &DeviceProfile, prim: &Primitive) -> f64 {
    let t = &device.timing;
    match prim {
        Primitive::Dff { .. } | Primitive::Dsp { pipelined: true, .. } => t.ff_setup_ns,
        Primitive::Ramb { .. } => t.ram_setup_ns,
        _ => 0.0,
    }
}

/// Kahn's algorithm over `Option<(arrival, setter)>` per net, with the
/// edge table rebuilt from `prim.cell` views on every pass over it.
fn reference(
    device: &DeviceProfile,
    multicycle: &MulticycleHints,
    prim: &PrimNetlist,
    route: Option<&RouteReport>,
) -> Reference {
    let t = &device.timing;
    let nets = prim.net_count() as usize;
    let mut driver: Vec<Option<PCellId>> = vec![None; nets];
    let mut fanout = vec![0u32; nets];
    for (cid, c) in prim.cells() {
        for &o in c.outputs {
            driver[o.0 as usize] = Some(cid);
        }
        for &i in c.inputs {
            fanout[i.0 as usize] += 1;
        }
    }
    let wire: Vec<f64> = match route {
        Some(r) => (0..nets as u32)
            .map(|n| r.delay_of(PNetId(n), device))
            .collect(),
        None => fanout
            .iter()
            .map(|&f| t.net_base_ns + t.net_per_fanout_ns * (f64::from(f) - 1.0).max(0.0))
            .collect(),
    };

    let mut arrival: Vec<Option<(f64, PCellId)>> = vec![None; nets];

    let is_comb = |p: &Primitive| !p.is_sequential() && !matches!(p, Primitive::IoPad { .. });
    let mut comb_cells: Vec<PCellId> = Vec::new();
    for (cid, c) in prim.cells() {
        if c.prim.is_sequential() || matches!(c.prim, Primitive::IoPad { is_input: true }) {
            let launch = cell_delay(device, &c.prim);
            for &o in c.outputs {
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
    let scale: Vec<f64> = prim
        .strings()
        .iter()
        .map(|s| multicycle.get(s).map_or(1.0, |&f| f64::from(f.max(1))))
        .collect();
    let mut pred_of: Vec<Option<PCellId>> = vec![None; prim.cell_count()];
    while let Some(cid) = queue.pop() {
        let c = prim.cell(cid);
        let mut best = 0.0f64;
        let mut best_pred = None;
        for &i in c.inputs {
            if let Some((a, src)) = arrival[i.0 as usize] {
                if a > best {
                    best = a;
                    best_pred = Some(src);
                }
            }
        }
        pred_of[cid.0 as usize] = best_pred;
        let d = cell_delay(device, &c.prim);
        let scale = scale[c.source as usize];
        for &o in c.outputs {
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

    let mut critical = 0.0f64;
    let mut critical_end: Option<PCellId> = None;
    for (cid, c) in prim.cells() {
        let is_capture =
            c.prim.is_sequential() || matches!(c.prim, Primitive::IoPad { is_input: false });
        if !is_capture {
            continue;
        }
        let setup = sink_setup(device, &c.prim);
        for &i in c.inputs {
            if let Some((a, _)) = arrival[i.0 as usize] {
                let total = a + setup;
                if total > critical {
                    critical = total;
                    critical_end = Some(cid);
                }
            }
        }
    }
    let floor = t.ff_clk_to_q_ns + t.ff_setup_ns + t.net_base_ns;
    let critical = critical.max(floor);

    let mut path = Vec::new();
    let mut logic_levels = 0u32;
    let mut cur = critical_end;
    while let Some(cid) = cur {
        let c = prim.cell(cid);
        path.push(cid);
        if matches!(c.prim, Primitive::Lut4 { .. } | Primitive::Carry) {
            logic_levels += 1;
        }
        cur = if path.len() == 1 {
            let mut best: Option<(f64, PCellId)> = None;
            for &i in c.inputs {
                if let Some((a, src)) = arrival[i.0 as usize] {
                    if best.is_none_or(|(b, _)| a > b) {
                        best = Some((a, src));
                    }
                }
            }
            best.map(|(_, s)| s)
        } else if is_comb(&c.prim) {
            pred_of[cid.0 as usize]
        } else {
            None
        };
    }
    path.reverse();
    Reference {
        critical_bits: critical.to_bits(),
        logic_levels,
        path,
    }
}

fn observed(r: &TimingReport) -> Reference {
    Reference {
        critical_bits: r.critical_path_ns.to_bits(),
        logic_levels: r.logic_levels,
        path: r.critical_path.clone(),
    }
}

#[test]
fn default_sweep_templates_time_as_the_reference_does() {
    let device = DeviceProfile::ng_medium_like();
    let synth = Synthesizer::new(device.clone());
    let analyzer = Analyzer::new(device.clone());
    let none = MulticycleHints::new();
    for &kind in ComponentKind::all() {
        for width in [8, 16, 32, 64] {
            let template = ComponentTemplate::with_widths(kind, width, width, 0)
                .unwrap_or_else(|e| panic!("{kind:?}/{width}: {e}"));
            let netlist = templates::build(&template).expect("template builds");
            let prim = synth.synthesize(&netlist).expect("template maps").prim;
            let report = analyzer
                .analyze(&prim, None, 1000.0)
                .unwrap_or_else(|e| panic!("{kind:?}/{width}: {e}"));
            assert_eq!(
                observed(&report),
                reference(&device, &none, &prim, None),
                "{kind:?}/{width}"
            );
        }
    }
}

#[test]
fn routed_suite_kernels_time_as_the_reference_does() {
    let device = DeviceProfile::ng_medium_like();
    for unroll_limit in [None, Some(0)] {
        let hls = match unroll_limit {
            Some(n) => HlsFlow::new().unroll_limit(n),
            None => HlsFlow::new(),
        };
        for kernel in kernels::suite() {
            let design = kernel.compile(&hls, &Recorder::disabled());
            let mut opts = FlowOptions::default();
            if unroll_limit.is_some() {
                opts.multicycle = design.multicycle_hints();
            }
            let hints = opts.multicycle.clone();
            let (report, art) = NxFlow::new(device.clone(), opts)
                .run_with_artifacts(design.netlist())
                .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
            assert_eq!(
                observed(&report.timing),
                reference(&device, &hints, &art.prim, Some(&art.route)),
                "{} at unroll limit {unroll_limit:?}",
                kernel.name
            );
        }
    }
}
