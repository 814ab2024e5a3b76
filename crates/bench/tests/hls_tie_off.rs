//! HLS emit ties off exactly the storage registers that have no writer:
//! a `{reg}_d_tie` and a `{reg}_en_tie` cell each, holding the register
//! at its reset value. The per-kernel sets below were recorded when emit
//! still found those registers by rebuilding the netlist's driver map per
//! register, so the writer-set rule that replaced it must tie the same
//! registers on every suite kernel.

use hermes_bench::kernels;
use hermes_hls::HlsFlow;
use hermes_obs::Recorder;

/// Tie-off cells per suite kernel, in netlist order. conv3 fully unrolls
/// its 3×3 kernel loops; their counters (`ky` and three copies of `kx`)
/// keep registers that nothing writes.
const EXPECTED: [(&str, &[&str]); 8] = [
    ("sobel", &[]),
    (
        "conv3",
        &[
            "r5_ky_d_tie",
            "r5_ky_en_tie",
            "r6_kx_d_tie",
            "r6_kx_en_tie",
            "r7_kx_d_tie",
            "r7_kx_en_tie",
            "r8_kx_d_tie",
            "r8_kx_en_tie",
        ],
    ),
    ("histogram", &[]),
    ("fir", &[]),
    ("correlate", &[]),
    ("dft", &[]),
    ("centroid", &[]),
    ("mlp", &[]),
];

#[test]
fn suite_kernels_tie_off_the_same_registers() {
    let hls = HlsFlow::new();
    let suite = kernels::suite();
    assert_eq!(suite.len(), EXPECTED.len());
    for (kernel, (name, want)) in suite.iter().zip(EXPECTED) {
        assert_eq!(kernel.name, name);
        let design = kernel.compile(&hls, &Recorder::disabled());
        let ties: Vec<&str> = design
            .netlist()
            .cells()
            .map(|(_, c)| c.name.as_str())
            .filter(|n| n.ends_with("_d_tie") || n.ends_with("_en_tie"))
            .collect();
        assert_eq!(ties, want, "{name}");
    }
}
