//! # hermes-serve
//!
//! The deadline-aware accelerator serving runtime of the HERMES workspace:
//! the layer that turns a pool of compiled HLS accelerators into sustained,
//! bounded-latency throughput under a stream of requests.
//!
//! The paper's Section II extends Bambu to synthesize dynamically
//! controlled (dataflow) accelerators precisely so coarse-grained-parallel
//! ML workloads can run as streaming services on the NG-ULTRA fabric; this
//! crate supplies the missing host side of that story — the runtime that
//! admits, batches, dispatches, and (when it must) sheds requests:
//!
//! * [`request`] — requests, priority classes, and the accounted
//!   [`Verdict`](request::Verdict) every request ends in;
//! * [`queue`] — the admission [`Backlog`](queue::Backlog): bounded total
//!   depth, per-tenant quotas, EDF order within each priority class;
//! * [`model`] — the [`AcceleratorModel`](model::AcceleratorModel):
//!   batch/item/DMA service-time model measured from a compiled design and
//!   the AXI bus model, plus the pure compute function that produces
//!   response payloads;
//! * [`pool`] — N simulated accelerator instances with busy/down
//!   accounting;
//! * [`workload`] — the open-loop seeded arrival process;
//! * [`engine`] — the event-stepped [`ServeEngine`](engine::ServeEngine)
//!   tying it all together, and the [`ServeReport`](engine::ServeReport).
//!
//! ## Determinism contract
//!
//! The engine runs on a simulated serve clock (ticks). Every scheduling
//! decision — admission, batch formation, shedding, fault application —
//! is a function of tick arithmetic and seeded [`hermes_rtl::rng::DetRng`]
//! draws, never of wall-clock time or thread interleaving. Batch payloads
//! are evaluated through [`hermes_par::par_map_bounded`], whose results
//! come back in input order, so reports and traces are byte-identical
//! across `--jobs` settings.
//!
//! ## Accounting invariant
//!
//! Every offered request ends in exactly one verdict:
//! `served + shed + rejected == offered`, including under a chaos campaign
//! that kills a pool instance mid-batch (its in-flight requests are
//! re-queued, never dropped). [`ServeReport::accounted`] checks it;
//! the E14 experiment and `ci.sh` gate on it.
//!
//! [`ServeReport::accounted`]: engine::ServeReport::accounted
//!
//! ## Example
//!
//! ```
//! use hermes_serve::engine::{ServeConfig, ServeEngine};
//! use hermes_serve::model::AcceleratorModel;
//! use hermes_serve::workload::{self, WorkloadConfig};
//!
//! // a toy accelerator: 40 cycles per item, doubles its input
//! let model = AcceleratorModel::new("double", 20, 40, |xs| {
//!     xs.iter().map(|&x| x * 2).collect()
//! });
//! let arrivals = workload::generate(7, &WorkloadConfig::default());
//! let offered = arrivals.len() as u64;
//! let mut engine = ServeEngine::new(ServeConfig::default(), model, arrivals);
//! let report = engine.run();
//! assert!(report.accounted(), "{report:?}");
//! assert_eq!(report.offered, offered);
//! assert!(report.served > 0);
//! ```

pub mod engine;
pub mod model;
pub mod pool;
pub mod queue;
pub mod request;
pub mod workload;

/// A tick of the simulated serve clock.
pub type Tick = u64;

