//! The characterization library is the device as HLS sees it: every
//! schedule, every chained path and every area estimate reads it. A
//! mapper change that moves a template's LUT count or delay moves every
//! HLS result with it. This test pins a digest of the default sweep's
//! XML, the sweep an `HlsFlow` runs on its first compile when no library
//! was handed over, so such a change has to re-pin it on purpose.

use hermes_eucalyptus::{Eucalyptus, SweepConfig};
use hermes_fpga::device::DeviceProfile;
use hermes_obs::hash::Fnv1a;

/// Digest of the default library's `to_xml()`, recorded before constant
/// operands were folded into their readers' LUTs (no template has one).
const EXPECTED: u64 = 0x07ad_22c1_bed2_6afb;

#[test]
fn default_library_xml_is_byte_identical() {
    // the sweep of `hermes_hls::flow::library_for`
    let lib = Eucalyptus::new(DeviceProfile::ng_medium_like())
        .characterize(&SweepConfig {
            widths: vec![8, 16, 32, 64],
            pipeline_stages: vec![0],
        })
        .expect("the default sweep characterizes");
    let mut h = Fnv1a::new();
    h.bytes(lib.to_xml().as_bytes());
    let digest = h.finish();
    assert_eq!(digest, EXPECTED, "library digest moved: {digest:#018x}");
}
