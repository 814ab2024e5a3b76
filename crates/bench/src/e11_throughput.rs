//! E11 — Throughput baseline: wall-clock of the heavy engines, serial vs
//! parallel at 1/2/4 workers.
//!
//! Timings are wall-clock on the build host and vary run to run; the
//! structural fact the table also records — bit-identical output across
//! worker counts — is asserted, not just printed. `BENCH_hermes.json` is
//! regenerated from this experiment.

use crate::cells;
use crate::table::Table;
use crate::ExperimentOutput;
use std::time::Instant;

/// Run E11. `jobs` is the worker count E11a reports; the engine sweep
/// pins its own counts and records nothing in the flight recorder.
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

    let text = format!(
        "E11a: build-host parallel capacity\n{}\n\
         E11c: parallel engines, serial vs 2 and 4 workers (bit-identical output asserted)\n{}",
        host.render(),
        par.render(),
    );
    ExperimentOutput::new(text)
        .with("e11a", "host parallel capacity", host)
        .with("e11c", "parallel engine scaling", par)
}
