//! # hermes-kernel
//!
//! The unified discrete-event kernel: one hierarchical timer wheel every
//! layer of the co-simulation posts into, instead of each crate running
//! its own lock-step polling loop (ROADMAP item 2, DESIGN.md §14).
//!
//! The wheel is a power-of-two slot array covering the window
//! `[now, now + slots)` plus an overflow calendar for events beyond it.
//! Posting and popping inside the window are O(1) (an occupancy bitmap
//! skips empty slots); far-future events cascade lazily from the calendar
//! as the hand advances. Pop order is **total and deterministic**:
//! `(time, domain, seq)` — time first, then the posting [`DomainId`],
//! then the monotone per-wheel sequence number, so two events on the same
//! tick always replay in the same order regardless of post order.
//!
//! Determinism is the contract: the wheel is a speed structure, never a
//! results structure. [`ReferenceQueue`] implements the identical API by
//! linear min-scan over a flat vector; [`Scheduler`] selects between the
//! two. Engines default to the wheel; their typed `with_event_kernel` /
//! `set_event_kernel` hooks select the reference, and the identity tests
//! require byte-identical output from both paths.

pub mod wheel;

pub use wheel::{
    DomainId, DomainRegistry, Event, EventSink, PostError, ReferenceQueue, Scheduler, Time,
    TimerWheel, WheelStats,
};
