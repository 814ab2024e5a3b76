//! E11 — Throughput baseline: wall-clock of the heavy engines, serial vs
//! parallel at 1/2/4 workers, and multi-start placement against the
//! single start.
//!
//! Timings are wall-clock on the build host and vary run to run; the
//! structural facts the tables also record — bit-identical output across
//! worker counts and multi-start placement never worse than single-start
//! — are asserted, not just printed. `BENCH_hermes.json` is regenerated
//! from this experiment.

use crate::cells;
use crate::kernels::suite;
use crate::table::Table;
use crate::ExperimentOutput;
use hermes_fpga::device::DeviceProfile;
use hermes_fpga::place::{Effort, Placer};
use hermes_fpga::synth::Synthesizer;
use hermes_hls::HlsFlow;
use std::time::Instant;

/// Run E11. `jobs` is the worker count E11a reports; the engine and
/// placement sweeps pin their own counts and record nothing in the
/// flight recorder.
pub fn run(jobs: usize, _obs: &hermes_obs::Recorder) -> ExperimentOutput {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut host = Table::new(&["metric", "value"]);
    host.row(cells!["host cores available", cores]);
    host.row(cells!["default worker count", jobs]);

    // parallel engines at 1/2/4 workers; output must be bit-identical
    type Engine = (&'static str, crate::Runner);
    let engines: &[Engine] = &[
        ("HLS->FPGA flow suite (E2)", crate::e2_fpga_flow::run),
        ("chaos campaigns (E10)", crate::e10_chaos::run),
    ];
    let untraced = hermes_obs::Recorder::disabled();
    let mut par = Table::new(&["engine", "jobs", "wall_ms", "speedup", "identical"]);
    for (name, runner) in engines {
        let mut serial_ms = 0.0;
        let mut serial_text = String::new();
        for jobs in [1usize, 2, 4] {
            let start = Instant::now();
            let out = runner(jobs, &untraced);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            if jobs == 1 {
                serial_ms = ms;
                serial_text = out.text.clone();
            }
            assert_eq!(out.text, serial_text, "{name} diverged at jobs={jobs}");
            par.row(cells![
                name,
                jobs,
                format!("{ms:.0}"),
                format!("{:.2}x", serial_ms / ms),
                "yes",
            ]);
        }
    }

    // multi-start placement: quality and cost vs the single start
    let hls = HlsFlow::new().unroll_limit(0);
    let design = suite().remove(3).compile(&hls, &untraced); // fir
    let device = DeviceProfile::ng_medium_like();
    let synth = Synthesizer::new(device.clone())
        .synthesize(design.netlist())
        .expect("fir synthesizes");
    let placer = Placer::new(device, Effort::Low, 0xC0FFEE);
    let mut place = Table::new(&["starts", "jobs", "wall_ms", "best_hpwl", "vs_single"]);
    let start = Instant::now();
    let single = placer.place(&synth.prim, 1, 1, &untraced).expect("places");
    let single_ms = start.elapsed().as_secs_f64() * 1e3;
    place.row(cells![1, 1, format!("{single_ms:.0}"), format!("{:.0}", single.hpwl), "1.000"]);
    let mut last_hpwl: Option<f64> = None;
    for jobs in [1usize, 4] {
        let start = Instant::now();
        let multi = placer.place(&synth.prim, 4, jobs, &untraced).expect("places");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert!(multi.hpwl <= single.hpwl, "best-of-4 can never be worse");
        if let Some(prev) = last_hpwl {
            assert!((multi.hpwl - prev).abs() < f64::EPSILON, "jobs must not change the result");
        }
        last_hpwl = Some(multi.hpwl);
        place.row(cells![
            4,
            jobs,
            format!("{ms:.0}"),
            format!("{:.0}", multi.hpwl),
            format!("{:.3}", multi.hpwl / single.hpwl),
        ]);
    }

    let text = format!(
        "E11a: build-host parallel capacity\n{}\n\
         E11c: parallel engines, serial vs 2 and 4 workers (bit-identical output asserted)\n{}\n\
         E11d: multi-start placement (fir), best-of-4 vs single start\n{}",
        host.render(),
        par.render(),
        place.render(),
    );
    ExperimentOutput::new(text)
        .with("e11a", "host parallel capacity", host)
        .with("e11c", "parallel engine scaling", par)
        .with("e11d", "multi-start placement", place)
}
