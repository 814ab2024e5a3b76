//! E3 — Eucalyptus component characterization (Section II).
//!
//! The library-annotation table the HLS scheduler consumes: latency and
//! resources of adder/multiplier/divider/RAM templates across bit widths
//! and pipeline depths, per device generation.

use crate::cells;
use crate::table::Table;
use crate::ExperimentOutput;
use hermes_eucalyptus::{Eucalyptus, SweepConfig};
use hermes_fpga::device::DeviceProfile;
use hermes_rtl::component::ComponentKind;

/// Run E3 on `jobs` workers for the kind × width sweep; the library (and
/// hence the table) is identical for every count. E3 has no instrumented
/// layers yet, so the recorder is unused.
pub fn run(jobs: usize, _obs: &hermes_obs::Recorder) -> ExperimentOutput {
    let sweep = SweepConfig {
        widths: vec![8, 16, 32, 64],
        pipeline_stages: vec![0, 1, 2],
    };
    let lib = Eucalyptus::new(DeviceProfile::ng_medium_like())
        .with_kinds(vec![
            ComponentKind::Adder,
            ComponentKind::Multiplier,
            ComponentKind::Divider,
            ComponentKind::RamTdp,
        ])
        .characterize_jobs(&sweep, jobs)
        .expect("characterization");
    let mut t = Table::new(&["component", "width", "stages", "delay_ns", "luts", "ffs", "dsps", "rams"]);
    for (key, e) in lib.iter() {
        t.row(cells![
            key.kind,
            key.width,
            key.stages,
            format!("{:.2}", e.delay_ns),
            e.luts,
            e.ffs,
            e.dsps,
            e.rams,
        ]);
    }
    let xml_lines = lib.to_xml().lines().count();
    let text = format!(
        "E3: Eucalyptus characterization of {} ({} entries, {} XML lines)\n{}",
        lib.device_name,
        lib.len(),
        xml_lines,
        t.render()
    );
    ExperimentOutput::new(text).with("e3", "Eucalyptus characterization", t)
}

#[cfg(test)]
mod tests {
    #[test]
    fn e3_covers_widths_and_stages() {
        let out = super::run(hermes_par::jobs(), &hermes_obs::Recorder::disabled()).text;
        assert!(out.contains("mul"));
        assert!(out.contains("div"));
        assert!(out.contains("64"));
    }
}
