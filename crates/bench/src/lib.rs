//! # hermes-bench
//!
//! The experiment harness: one module per experiment of EXPERIMENTS.md
//! (E1–E19), each regenerating the corresponding table. The paper itself is
//! a project report with architecture figures rather than result tables;
//! each experiment therefore reproduces the *measurable claim* behind a
//! figure or section, as mapped in DESIGN.md.
//!
//! Run all experiments:
//!
//! ```sh
//! cargo run --release -p hermes-bench --bin experiments
//! ```
//!
//! or one of them: `cargo run --release -p hermes-bench --bin experiments e5`.
//! Pass `--json <path>` to also write the tables as structured JSON (this
//! is how `BENCH_hermes.json`, the perf trajectory baseline, is produced
//! from E11), and pass `--jobs <n>` to pin the worker count of the
//! parallel experiments (E1/E2/E3/E7/E10 fan their independent units over
//! `hermes-par`; any worker count renders bit-identical tables).
//!
//! No library crate reads the process environment: every engine runs its
//! default, and the alternates (the oracles E13/E16/E18/E19 compare
//! against) are reachable only through typed hooks —
//! `Simulator::new_with_packing`, `Simulator::set_event_driven`,
//! `with_event_kernel`/`set_event_kernel`, `cache::set_bypass` and
//! `par::set_jobs_override`. DESIGN.md's "Engine selection" table names
//! the test that pins each one.

pub mod e1_hls_flow;
pub mod e2_fpga_flow;
pub mod e3_characterization;
pub mod e4_axi;
pub mod e5_hypervisor;
pub mod e6_boot;
pub mod e7_usecases;
pub mod e8_radiation;
pub mod e9_dataflow;
pub mod e10_chaos;
pub mod e11_throughput;
pub mod e12_observability;
pub mod e13_eventdriven;
pub mod e14_serving;
pub mod e15_isolation;
pub mod e16_wordparallel;
pub mod e17_tracing;
pub mod e18_eventkernel;
pub mod e19_fleet;
pub mod hdl_check;
pub mod json;
pub mod kernels;
pub mod profile_export;
pub mod table;
pub mod trace;

use json::Json;
use table::Table;

/// The result of one experiment run: the rendered text plus the underlying
/// tables for machine-readable output.
#[derive(Debug, Clone, Default)]
pub struct ExperimentOutput {
    /// Human-readable rendering (what EXPERIMENTS.md records).
    pub text: String,
    /// The tables behind the text: `(table id, title, table)`.
    pub tables: Vec<(String, String, Table)>,
}

impl ExperimentOutput {
    /// Output with rendered text and no tables yet.
    pub fn new(text: impl Into<String>) -> Self {
        ExperimentOutput {
            text: text.into(),
            tables: Vec::new(),
        }
    }

    /// Attach a named table (builder-style).
    #[must_use]
    pub fn with(mut self, id: &str, title: &str, table: Table) -> Self {
        self.tables.push((id.to_string(), title.to_string(), table));
        self
    }

    /// The tables as a JSON array.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.tables
                .iter()
                .map(|(id, title, t)| {
                    Json::obj(vec![
                        ("id", Json::Str(id.clone())),
                        ("title", Json::Str(title.clone())),
                        ("rows", t.to_json()),
                    ])
                })
                .collect(),
        )
    }
}

/// One experiment: `(id, title, runner)`. The runner records spans,
/// events, and metrics into the supplied flight recorder; pass
/// [`hermes_obs::Recorder::disabled`] for an untraced run.
pub type Experiment = (
    &'static str,
    &'static str,
    fn(&hermes_obs::Recorder) -> ExperimentOutput,
);

/// Every experiment.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        (
            "e1",
            "HLS flow metrics (Fig. 2)",
            e1_hls_flow::run_traced as fn(&hermes_obs::Recorder) -> ExperimentOutput,
        ),
        ("e2", "FPGA implementation flow (Fig. 3)", e2_fpga_flow::run_traced),
        ("e3", "Eucalyptus characterization (§II)", e3_characterization::run_traced),
        ("e4", "AXI memory-delay sensitivity (§II)", e4_axi::run_traced),
        ("e5", "Hypervisor TSP guarantees (Fig. 4, §III)", e5_hypervisor::run_traced),
        ("e6", "Boot sequence (Fig. 5, §IV)", e6_boot::run_traced),
        ("e7", "Use-case speedups (§V)", e7_usecases::run_traced),
        ("e8", "Radiation hardening (§I)", e8_radiation::run_traced),
        ("e9", "Dataflow vs monolithic FSM (§II)", e9_dataflow::run_traced),
        ("e10", "Cross-layer chaos campaigns (§III-IV)", e10_chaos::run_traced),
        ("e11", "Throughput: serial vs parallel, hot-path gains", e11_throughput::run_traced),
        ("e12", "Observability overhead (tracing on vs off)", e12_observability::run_traced),
        (
            "e13",
            "Event-driven settle + shared characterization cache",
            e13_eventdriven::run_traced,
        ),
        (
            "e14",
            "Deadline-aware accelerator serving (admission, batching, shedding)",
            e14_serving::run_traced,
        ),
        (
            "e15",
            "Adversarial spatial isolation (zero-silent-leak gate)",
            e15_isolation::run_traced,
        ),
        (
            "e16",
            "Word-parallel bit-packed settle + rank-partitioned parallel simulation",
            e16_wordparallel::run_traced,
        ),
        (
            "e17",
            "Causal tracing, critical-path profiling, SLO burn-rate alerting",
            e17_tracing::run_traced,
        ),
        (
            "e18",
            "Unified event kernel: cross-layer fast-forward (polled-tick reduction)",
            e18_eventkernel::run_traced,
        ),
        (
            "e19",
            "Sharded serving fleet (routing, autoscaling, cross-shard failover)",
            e19_fleet::run_traced,
        ),
    ]
}
