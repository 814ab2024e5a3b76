//! # hermes-kernel
//!
//! The unified discrete-event kernel: one hierarchical timer wheel every
//! layer of the co-simulation posts into, instead of each crate running
//! its own lock-step polling loop (DESIGN.md §14).
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
//! [`TimerWheel`] is the only event queue: the serve, fleet, XNG and AXI
//! engines each hold one directly. Its test module keeps a sorted
//! min-scan queue as the oracle the wheel's pop order is checked against.

pub mod wheel;

pub use wheel::{
    DomainId, DomainRegistry, Event, EventSink, PostError, Time, TimerWheel, WheelStats,
};
