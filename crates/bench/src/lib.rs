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
//! from E11), and pass `--jobs <n>` to pin the worker count.
//!
//! Every experiment module exposes exactly one entry point,
//! `run(jobs: usize, obs: &Recorder) -> ExperimentOutput` (the [`Runner`]
//! type). `jobs` is the worker count: E1/E2/E3/E7/E10 fan their
//! coarse, independent units (suite kernels, seeds, the Eucalyptus
//! sweep, placement starts) over `hermes-par`, E11 reports it and
//! E12 passes it on to the experiments it times; the others, E13 and
//! E15–E19 included, run serially and ignore it. Any worker count renders
//! bit-identical tables. `obs` is the
//! flight recorder; callers that do not trace pass
//! [`hermes_obs::Recorder::disabled`], which costs one branch per
//! recording call.
//!
//! No library crate reads the process environment: every engine runs its
//! default, and the one alternate, the worker count, is reachable only
//! through a typed hook, `par::set_jobs_override`. DESIGN.md's "Engine
//! selection" table names the test that pins it. The RTL settle
//! engine and the fast-forward wake rules have no alternate: their
//! oracles (the reference interpreter, the per-tick polling loops) live
//! in tests.

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

/// An experiment's one entry point, `run(jobs, obs)`: fan independent
/// units over `jobs` workers (experiments that run serially ignore it)
/// and record spans, events, and metrics into `obs`; pass
/// [`hermes_obs::Recorder::disabled`] for an untraced run.
pub type Runner = fn(usize, &hermes_obs::Recorder) -> ExperimentOutput;

/// One experiment: `(id, title, runner)`.
pub type Experiment = (&'static str, &'static str, Runner);

/// Every experiment.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("e1", "HLS flow metrics (Fig. 2)", e1_hls_flow::run as Runner),
        ("e2", "FPGA implementation flow (Fig. 3)", e2_fpga_flow::run),
        ("e3", "Eucalyptus characterization (§II)", e3_characterization::run),
        ("e4", "AXI memory-delay sensitivity (§II)", e4_axi::run),
        ("e5", "Hypervisor TSP guarantees (Fig. 4, §III)", e5_hypervisor::run),
        ("e6", "Boot sequence (Fig. 5, §IV)", e6_boot::run),
        ("e7", "Use-case speedups (§V)", e7_usecases::run),
        ("e8", "Radiation hardening (§I)", e8_radiation::run),
        ("e9", "Dataflow vs monolithic FSM (§II)", e9_dataflow::run),
        ("e10", "Cross-layer chaos campaigns (§III-IV)", e10_chaos::run),
        ("e11", "Throughput: serial vs parallel, multi-start placement", e11_throughput::run),
        ("e12", "Observability overhead (tracing on vs off)", e12_observability::run),
        (
            "e13",
            "Event-driven settle: activity factor per kernel",
            e13_eventdriven::run,
        ),
        (
            "e14",
            "Deadline-aware accelerator serving (admission, batching, shedding)",
            e14_serving::run,
        ),
        (
            "e15",
            "Adversarial spatial isolation (zero-silent-leak gate)",
            e15_isolation::run,
        ),
        (
            "e16",
            "Activity-gated settle on a tiled SoC fabric",
            e16_wordparallel::run,
        ),
        (
            "e17",
            "Causal tracing, critical-path profiling, SLO burn-rate alerting",
            e17_tracing::run,
        ),
        (
            "e18",
            "Unified event kernel: cross-layer fast-forward (polled-tick reduction)",
            e18_eventkernel::run,
        ),
        (
            "e19",
            "Sharded serving fleet (routing, autoscaling, cross-shard failover)",
            e19_fleet::run,
        ),
    ]
}
