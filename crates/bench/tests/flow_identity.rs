//! The NXmap-analogue flow is a pure function of its input: speeding up
//! placement, routing or timing analysis must not move a single bit of
//! their results. This test runs every suite kernel through HLS and the
//! full implementation flow at default options and pins one digest over
//! everything the flow produces: the rendered report, the critical path,
//! every cell's site, every net's routed delay and every bitstream frame.

use hermes_bench::kernels;
use hermes_fpga::device::DeviceProfile;
use hermes_fpga::flow::{FlowOptions, NxFlow};
use hermes_fpga::primitives::PNetId;
use hermes_hls::HlsFlow;
use hermes_obs::Recorder;
use hermes_obs::hash::fnv1a_words;

/// Digest of the suite's flow results, recorded before the flow's
/// net/pin bookkeeping moved from hash maps to dense indices.
const EXPECTED: u64 = 0x8eda_1a64_1dea_16ed;

fn mix_bytes(h: u64, bytes: &[u8]) -> u64 {
    let words: Vec<i64> = bytes.iter().map(|&b| i64::from(b)).collect();
    fnv1a_words(h, &words)
}

#[test]
fn suite_flow_results_are_bit_identical() {
    let hls = HlsFlow::new();
    let device = DeviceProfile::ng_medium_like();
    let flow = NxFlow::new(device.clone(), FlowOptions::default());
    let mut h = 0u64;
    for kernel in kernels::suite() {
        let design = kernel.compile(&hls, &Recorder::disabled());
        let (report, art) = flow
            .run_with_artifacts(design.netlist())
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
        h = mix_bytes(h, kernel.name.as_bytes());
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
