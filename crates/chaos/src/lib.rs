//! # hermes-chaos
//!
//! Cross-layer fault-injection plane and staged-recovery chaos campaigns.
//!
//! The paper's central robustness claim is that the NG-ULTRA ecosystem
//! survives faults *transparently to the application*: TMR flash redundancy
//! and integrity checks in BL1 (Section IV), health-monitor containment in
//! XtratuM-NG (Section III). Every other crate exercises its own mechanism
//! in isolation; this crate injects **correlated faults across every layer
//! at once** — flash bit-rot, SpaceWire packet corruption, AXI SLVERR and
//! bus stalls, SEUs in partition memory, native-task panics — from one
//! deterministic seeded schedule, and measures that the stack degrades
//! gracefully instead of crashing.
//!
//! * [`plan`] — the [`FaultPlan`](plan::FaultPlan): a seeded schedule of
//!   faults keyed by cycle and subsystem;
//! * [`hostile`] — adversarial spatial-isolation campaigns: a seeded
//!   hostile guest probes its neighbors' memory, ports, and privileged
//!   services, under a zero-silent-leak invariant;
//! * [`report`] — the [`ChaosReport`](report::ChaosReport): injected-fault
//!   and recovery-stage accounting, availability and MTTR;
//! * [`scenario`] — end-to-end campaigns (boot under flash rot, mission
//!   run under SEU flux and bus errors) spanning `boot`, `axi`, `xng`, and
//!   `rad`.
//!
//! ## Example
//!
//! ```
//! use hermes_chaos::scenario;
//!
//! let outcome = scenario::full_campaign(42, &hermes_obs::Recorder::disabled());
//! assert!(outcome.report.boot_succeeded);
//! assert_eq!(outcome.report.silent_corruptions, 0);
//! assert!(outcome.report.availability() > 0.5);
//! ```

pub mod hostile;
pub mod plan;
pub mod report;
pub mod scenario;
