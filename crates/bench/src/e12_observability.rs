//! E12 — Observability overhead: the flight recorder must be close to
//! free when enabled and strictly behavior-preserving.
//!
//! Each instrumented experiment (E1/E2/E7/E10) runs twice — once against
//! [`Recorder::disabled`] (every recording call returns after one
//! branch) and once against a fresh enabled [`Recorder::new`] — taking
//! the best of three wall-clock measurements per side. Two properties are
//! checked:
//!
//! * **zero behavioral diff** — the rendered text of the traced run must
//!   equal the untraced run byte for byte (asserted; a mismatch panics);
//! * **<5% wall-clock overhead** — reported as a verdict column rather
//!   than asserted, because wall-clock on a shared build host is noisy;
//!   `BENCH_hermes.json` records the measured figure.

use crate::cells;
use crate::table::Table;
use crate::{ExperimentOutput, Runner};
use hermes_obs::Recorder;
use std::time::Instant;

const BEST_OF: u32 = 5;

/// One overhead target: id plus its runner.
type Target = (&'static str, Runner);

fn targets() -> Vec<Target> {
    vec![
        ("e1", crate::e1_hls_flow::run),
        ("e2", crate::e2_fpga_flow::run),
        ("e7", crate::e7_usecases::run),
        ("e10", crate::e10_chaos::run),
    ]
}

/// One timed repetition of `runner` on `jobs` workers against a recorder
/// built by `make`; returns `(secs, text, events_recorded)`.
fn rep(runner: Runner, jobs: usize, make: fn() -> Recorder) -> (f64, String, u64) {
    let obs = make();
    let start = Instant::now();
    let out = runner(jobs, &obs);
    (start.elapsed().as_secs_f64(), out.text, obs.event_count())
}

/// Best-of-N wall time for the disabled and the enabled recorder, with
/// the repetitions **interleaved** (off/on pairs) so clock-frequency and
/// cache drift across the measurement window cancels instead of landing
/// on one side; returns `(off_best, on_best, off_text, on_text, events)`.
fn measure(runner: Runner, jobs: usize) -> (f64, f64, String, String, u64) {
    // untimed warm-up so neither side pays first-touch costs
    let _ = rep(runner, jobs, Recorder::disabled);
    let (mut off_best, mut on_best) = (f64::MAX, f64::MAX);
    let (mut off_text, mut on_text) = (String::new(), String::new());
    let mut events = 0u64;
    for _ in 0..BEST_OF {
        let (secs, text, _) = rep(runner, jobs, Recorder::disabled);
        off_best = off_best.min(secs);
        off_text = text;
        let (secs, text, ev) = rep(runner, jobs, Recorder::new);
        on_best = on_best.min(secs);
        on_text = text;
        events = ev;
    }
    (off_best, on_best, off_text, on_text, events)
}

/// Run E12, each target on `jobs` workers; the session recorder only
/// receives the (deterministic) per-target event counts, never the
/// wall-clock measurements.
pub fn run(jobs: usize, session: &Recorder) -> ExperimentOutput {
    let mut t = Table::new(&[
        "experiment",
        "off_ms",
        "on_ms",
        "overhead_pct",
        "events",
        "identical",
        "under_5pct",
    ]);
    let mut worst = f64::MIN;
    for (id, runner) in targets() {
        let (off_secs, on_secs, off_text, on_text, events) = measure(runner, jobs);
        assert_eq!(
            off_text, on_text,
            "{id}: tracing must not change experiment output"
        );
        assert!(events > 0, "{id}: instrumented run recorded no events");
        let overhead = (on_secs / off_secs - 1.0) * 100.0;
        worst = worst.max(overhead);
        session.counter_add("bench.e12", &format!("{id}_events"), events);
        t.row(cells![
            id,
            format!("{:.1}", off_secs * 1e3),
            format!("{:.1}", on_secs * 1e3),
            format!("{overhead:.2}"),
            events,
            "yes",
            if overhead < 5.0 { "yes" } else { "no" },
        ]);
    }
    let text = format!(
        "E12: flight-recorder overhead, instrumented (Recorder::new) vs \
         disabled (Recorder::disabled), best of {BEST_OF}\n{}\n\
         worst-case overhead: {worst:.2}% (target < 5%); traced and \
         untraced outputs byte-identical (asserted)",
        t.render()
    );
    ExperimentOutput::new(text).with("e12", "observability overhead", t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_traced_output_matches_untraced_and_records_events() {
        let obs = Recorder::new();
        let traced = crate::e1_hls_flow::run(hermes_par::jobs(), &obs);
        let plain = crate::e1_hls_flow::run(hermes_par::jobs(), &Recorder::disabled());
        assert_eq!(traced.text, plain.text);
        assert!(obs.event_count() > 0);
        assert_eq!(obs.snapshot().dropped_total(), 0, "ring overflow truncated the trace");
    }
}
