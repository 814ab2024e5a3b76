//! E2 — FPGA implementation flow (Fig. 3 of the paper).
//!
//! Every suite kernel through synthesis → place → route → STA → bitstream
//! on the NG-MEDIUM-like device, plus the device-generation ablation
//! behind the paper's headline claim that NG-ULTRA's 28 nm FD-SOI runs
//! "twice as fast as current rad-hard FPGAs with a power consumption four
//! times smaller".

use crate::cells;
use crate::kernels::suite;
use crate::table::Table;
use crate::ExperimentOutput;
use hermes_fpga::device::DeviceProfile;
use hermes_fpga::flow::{FlowOptions, NxFlow};
use hermes_fpga::place::Effort;
use hermes_hls::HlsFlow;

/// Run E2 on `jobs` workers, tracing into `obs`: each kernel's HLS→FPGA
/// flow traces into its own child recorder, absorbed back in suite
/// order, so every worker count renders the same tables and trace.
pub fn run(jobs: usize, obs: &hermes_obs::Recorder) -> ExperimentOutput {
    let hls = HlsFlow::new().unroll_limit(0);
    let device = DeviceProfile::ng_medium_like();
    let opts = FlowOptions {
        effort: Effort::Low,
        ..FlowOptions::default()
    };
    let mut t = Table::new(&[
        "kernel", "luts", "ffs", "dsps", "rams", "wirelen", "fmax_mhz", "power_mw",
        "bitstream_B",
    ]);
    let rows = hermes_par::par_map_jobs(jobs, &suite(), |k| {
        let child = obs.child();
        let d = k.compile(&hls, &child);
        let mut kopts = opts.clone();
        kopts.multicycle = d.multicycle_hints();
        let report = NxFlow::new(device.clone(), kopts)
            .run(d.netlist(), &child)
            .unwrap_or_else(|e| panic!("{}: {e}", k.name));
        let row = cells![
            k.name,
            report.utilization.luts,
            report.utilization.ffs,
            report.utilization.dsps,
            report.utilization.rams,
            format!("{:.0}", report.route.wirelength),
            format!("{:.1}", report.timing.fmax_mhz),
            format!("{:.1}", report.power.total_mw()),
            report.bitstream_bytes,
        ];
        (row, child)
    })
    .expect("suite kernels implement");
    for (row, child) in rows {
        obs.absorb(&child);
        t.row(row);
    }

    // device-generation ablation on a representative kernel
    let untraced = hermes_obs::Recorder::disabled();
    let d = suite().remove(3).compile(&hls, &untraced); // fir
    let mut gen = Table::new(&["device", "fmax_mhz", "power_mw", "ratio_vs_legacy"]);
    let mut results = Vec::new();
    for device in [
        DeviceProfile::ng_medium_like(),
        DeviceProfile::legacy_radhard_like(),
    ] {
        let report = NxFlow::new(device.clone(), opts.clone())
            .run(d.netlist(), &untraced)
            .expect("fir implements");
        results.push((device.name.clone(), report.timing.fmax_mhz, report.power.total_mw()));
    }
    let legacy = results[1].clone();
    for (name, fmax, power) in &results {
        gen.row(cells![
            name,
            format!("{fmax:.1}"),
            format!("{power:.1}"),
            format!(
                "{:.2}x speed, {:.2}x power",
                fmax / legacy.1,
                power / legacy.2
            ),
        ]);
    }
    let text = format!(
        "E2: implementation results on {} @ 100 MHz constraint\n{}\n\
         E2b: device-generation ablation (paper claim: 2x faster, 4x lower power)\n{}",
        device.name,
        t.render(),
        gen.render()
    );
    ExperimentOutput::new(text)
        .with("e2", "implementation results", t)
        .with("e2b", "device-generation ablation", gen)
}

#[cfg(test)]
mod tests {
    #[test]
    fn e2_reports_generation_gap() {
        let out = super::run(hermes_par::jobs(), &hermes_obs::Recorder::disabled()).text;
        assert!(out.contains("NG-MEDIUM-like"));
        assert!(out.contains("Legacy-65nm-like"));
        // speed ratio ~2x must appear on the modern device row
        assert!(out.contains("x speed"));
    }
}
