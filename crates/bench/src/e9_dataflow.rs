//! E9 — Dynamically-controlled (dataflow) accelerators vs monolithic FSM
//! synthesis (Section II).
//!
//! The paper: "when synthesized through an HLS tool, the complexity of the
//! finite state machine controllers for such applications grows
//! exponentially … Bambu has been extended to efficiently synthesize
//! dynamically controlled accelerators". This experiment builds task
//! graphs of real compiled kernels with N parallel flows and compares
//! controller size and stream throughput of the two synthesis styles.

use crate::cells;
use crate::table::Table;
use crate::ExperimentOutput;
use hermes_hls::dataflow::{synthesize_dataflow, synthesize_monolithic, Task, TaskGraph};
use hermes_hls::HlsFlow;

fn pipeline_tasks() -> (Task, Task) {
    let flow = HlsFlow::new().unroll_limit(0);
    let producer = flow
        .compile(
            "int stage_a(int x) { int s = 0; for (int i = 0; i < 8; i += 1) { s += x * i; } return s; }",
        )
        .expect("stage_a compiles");
    let consumer = flow
        .compile(
            "int stage_b(int x) { int s = x; for (int i = 0; i < 6; i += 1) { s = s + (s >> 1); } return s; }",
        )
        .expect("stage_b compiles");
    (
        Task::from_design(&producer, &[3]).expect("measure a"),
        Task::from_design(&consumer, &[3]).expect("measure b"),
    )
}

/// Build a graph of `n` parallel producer→consumer flows.
fn flows(n: usize, a: &Task, b: &Task) -> TaskGraph {
    let mut g = TaskGraph::new();
    for i in 0..n {
        let mut ta = a.clone();
        ta.name = format!("prod{i}");
        let mut tb = b.clone();
        tb.name = format!("cons{i}");
        let pa = g.add_task(ta);
        let pb = g.add_task(tb);
        g.connect(pa, pb, 4);
    }
    g
}

/// Run E9 and render its table. E9 runs serially and has no
/// instrumented layers yet, so `jobs` and the recorder are unused.
pub fn run(_jobs: usize, _obs: &hermes_obs::Recorder) -> ExperimentOutput {
    let (a, b) = pipeline_tasks();
    let items = 200u64;
    let mut t = Table::new(&[
        "parallel_flows",
        "mono_states",
        "df_states",
        "mono_bits",
        "df_bits",
        "mono_cycles",
        "df_cycles",
        "df_speedup",
    ]);
    for n in 1..=6 {
        let g = flows(n, &a, &b);
        let mono = synthesize_monolithic(&g, items);
        let df = synthesize_dataflow(&g, items);
        t.row(cells![
            n,
            mono.controller_states,
            df.controller_states,
            mono.state_bits,
            df.state_bits,
            mono.total_cycles,
            df.total_cycles,
            format!("{:.2}x", mono.total_cycles as f64 / df.total_cycles as f64),
        ]);
    }
    let text = format!(
        "E9: monolithic vs dataflow controller synthesis \
         ({} items streamed; task FSMs: {} and {} states)\n{}",
        items, a.states, b.states, t.render()
    );
    ExperimentOutput::new(text).with("e9", "monolithic vs dataflow", t)
}

#[cfg(test)]
mod tests {
    #[test]
    fn e9_controller_explosion_visible() {
        let out = super::run(hermes_par::jobs(), &hermes_obs::Recorder::disabled()).text;
        let rows: Vec<Vec<u64>> = out
            .lines()
            .filter(|l| l.trim().starts_with(|c: char| c.is_ascii_digit()))
            .map(|l| {
                l.split_whitespace()
                    .take(7)
                    .filter_map(|w| w.parse().ok())
                    .collect()
            })
            .collect();
        assert!(rows.len() >= 6);
        let (mono1, df1) = (rows[0][1], rows[0][2]);
        let (mono6, df6) = (rows[5][1], rows[5][2]);
        // monolithic grows super-linearly, dataflow linearly
        assert!(
            mono6 > mono1 * 100,
            "monolithic explosion: {mono1} -> {mono6}"
        );
        assert!(df6 <= df1 * 8, "dataflow stays near-linear: {df1} -> {df6}");
    }
}
