//! The NXmap-analogue flow is a pure function of its input: speeding up
//! placement, routing or timing analysis must not move a single bit of
//! their results. This test runs every suite kernel through HLS and the
//! full implementation flow at default options and pins one digest over
//! everything the flow produces: the rendered report, the critical path,
//! every cell's site, every net's routed delay and every bitstream frame.
//! The same runs also hold the placer to its contract: at the default
//! effort it strictly improves on its constructive start, and it leaves
//! every cell on a legal site of its own class.

use hermes_bench::kernels;
use hermes_fpga::device::DeviceProfile;
use hermes_fpga::flow::{FlowArtifacts, FlowOptions, FlowReport, NxFlow};
use hermes_fpga::primitives::{PNetId, Primitive};
use hermes_hls::HlsFlow;
use hermes_obs::Recorder;
use hermes_obs::hash::fnv1a_words;
use std::sync::OnceLock;

/// Digest of the suite's flow results, recorded when placement became a
/// capacity-legal greedy descent from a serpentine constructive start.
const EXPECTED: u64 = 0xa5e3_7c08_4209_f1d9;

/// One suite kernel through the flow at default options.
struct Run {
    name: &'static str,
    report: FlowReport,
    art: FlowArtifacts,
}

/// The suite's flow runs, computed once and shared by every test here.
fn suite_runs() -> &'static [Run] {
    static RUNS: OnceLock<Vec<Run>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let hls = HlsFlow::new();
        let flow = NxFlow::new(DeviceProfile::ng_medium_like(), FlowOptions::default());
        kernels::suite()
            .into_iter()
            .map(|kernel| {
                let design = kernel.compile(&hls, &Recorder::disabled());
                let (report, art) = flow
                    .run_with_artifacts(design.netlist())
                    .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
                Run {
                    name: kernel.name,
                    report,
                    art,
                }
            })
            .collect()
    })
}

fn mix_bytes(h: u64, bytes: &[u8]) -> u64 {
    let words: Vec<i64> = bytes.iter().map(|&b| i64::from(b)).collect();
    fnv1a_words(h, &words)
}

#[test]
fn suite_flow_results_are_bit_identical() {
    let device = DeviceProfile::ng_medium_like();
    let mut h = 0u64;
    for Run { name, report, art } in suite_runs() {
        h = mix_bytes(h, name.as_bytes());
        h = mix_bytes(h, report.render().as_bytes());
        for cell in &report.timing.critical_cells {
            h = mix_bytes(h, cell.as_bytes());
        }
        let sites: Vec<i64> = art
            .placement
            .locations
            .iter()
            .map(|&(x, y)| (i64::from(x) << 16) | i64::from(y))
            .collect();
        h = fnv1a_words(h, &sites);
        let delays: Vec<i64> = (0..art.prim.net_count())
            .map(|n| art.route.delay_of(PNetId(n), &device).to_bits() as i64)
            .collect();
        h = fnv1a_words(h, &delays);
        for frame in &art.bitstream.frames {
            h = mix_bytes(h, &frame.payload);
            h = fnv1a_words(h, &[i64::from(frame.crc)]);
        }
    }
    assert_eq!(h, EXPECTED, "flow digest moved: {h:#018x}");
}

#[test]
fn default_effort_strictly_improves_every_suite_kernel() {
    for Run { name, report, .. } in suite_runs() {
        let p = &report.placement;
        assert!(
            p.hpwl < p.initial_hpwl,
            "{name}: placement HPWL {} not below its constructive start {}",
            p.hpwl,
            p.initial_hpwl
        );
    }
}

#[test]
fn placement_is_legal_for_every_suite_kernel() {
    let device = DeviceProfile::ng_medium_like();
    let (cols, rows) = (device.grid_cols as usize, device.grid_rows as usize);
    let cap = 2 * device.luts_per_tile as usize;
    for Run { name, art, .. } in suite_runs() {
        let mut occupancy = vec![0usize; cols * rows];
        for (cid, cell) in art.prim.cells() {
            let (x, y) = art.placement.site(cid);
            let (x, y) = (u32::from(x), u32::from(y));
            let dsp_col = device.is_dsp_column(x);
            let ram_col = device.is_ram_column(x);
            let perimeter =
                x == 0 || y == 0 || x + 1 == device.grid_cols || y + 1 == device.grid_rows;
            let legal = match cell.prim {
                Primitive::Dsp { .. } => dsp_col,
                Primitive::Ramb { .. } => ram_col,
                Primitive::IoPad { .. } => perimeter,
                _ => {
                    occupancy[y as usize * cols + x as usize] += 1;
                    !dsp_col && !ram_col && !perimeter
                }
            };
            assert!(
                legal,
                "{name}: {:?} cell {} on site ({x}, {y})",
                cell.prim, cid.0
            );
        }
        let full = occupancy.iter().max().copied().unwrap_or(0);
        assert!(full <= cap, "{name}: a logic tile holds {full} cells, capacity {cap}");
    }
}
