//! The hierarchical timer wheel: the one event queue every engine
//! schedules on.
//!
//! Layout (DESIGN.md §14): a power-of-two array of slots covers the
//! window `[now, now + slots)`; slot `time & (slots - 1)` holds exactly
//! the events due at `time`, so posting inside the window is a push and
//! popping is a bitmap skip to the first occupied slot. Events beyond
//! the window wait in the **overflow calendar** and cascade into slots
//! lazily as the hand advances. The pop order is the total order
//! `(time, domain, seq)`; `seq` is the per-wheel monotone post counter,
//! which doubles as the cancellation token.

use hermes_obs::Recorder;
use std::collections::HashMap;
use std::fmt;

/// Simulated time (ticks/cycles — the poster's clock domain).
pub type Time = u64;

/// Default slot count: covers 256 ticks around the hand, which holds the
/// near-term timers of every current subsystem; longer timers cascade.
const DEFAULT_SLOTS: usize = 256;

/// A registered event domain — the middle key of the `(time, domain,
/// seq)` tie-break, so subsystems have a stable, named priority among
/// same-tick events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainId(pub u16);

/// Name registry for [`DomainId`]s. Registration order fixes the
/// same-tick priority; re-registering a name returns the existing id.
#[derive(Debug, Clone, Default)]
pub struct DomainRegistry {
    names: Vec<String>,
}

impl DomainRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        DomainRegistry::default()
    }

    /// Register `name` (idempotent), returning its id.
    ///
    /// # Panics
    ///
    /// Panics past 65 536 domains.
    pub fn register(&mut self, name: &str) -> DomainId {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return DomainId(i as u16);
        }
        let id = u16::try_from(self.names.len()).expect("domain registry full");
        self.names.push(name.to_string());
        DomainId(id)
    }

    /// The name behind an id, if registered.
    pub fn name(&self, id: DomainId) -> Option<&str> {
        self.names.get(usize::from(id.0)).map(String::as_str)
    }

    /// Number of registered domains.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no domain is registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// One scheduled event, as returned by `pop_next`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event<P> {
    /// Due time.
    pub time: Time,
    /// Posting domain.
    pub domain: DomainId,
    /// Monotone post sequence (also the cancellation token).
    pub seq: u64,
    /// The poster's payload.
    pub payload: P,
}

/// A subsystem that consumes due events from the kernel.
pub trait EventSink<P> {
    /// Handle one due event (events arrive in `(time, domain, seq)`
    /// order).
    fn deliver(&mut self, ev: Event<P>);
}

/// Why a post or reschedule was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostError {
    /// The requested time is behind the hand — the wheel never runs
    /// backwards.
    InPast {
        /// Requested due time.
        time: Time,
        /// Current hand position.
        now: Time,
    },
    /// The token does not name a pending event (already popped,
    /// cancelled, or never posted).
    UnknownToken(u64),
}

impl fmt::Display for PostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PostError::InPast { time, now } => {
                write!(f, "event time {time} is behind the wheel hand {now}")
            }
            PostError::UnknownToken(t) => write!(f, "token {t} names no pending event"),
        }
    }
}

impl std::error::Error for PostError {}

/// Wheel health counters — exported through `hermes-obs` so E18 can
/// gate occupancy and cascade behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WheelStats {
    /// Events accepted by `post` (including reschedules).
    pub posted: u64,
    /// Events returned by `pop_next`.
    pub popped: u64,
    /// Events removed by `cancel` (and the removal half of reschedule).
    pub cancelled: u64,
    /// Cascade sweeps that moved at least one event overflow → slots.
    pub cascades: u64,
    /// Events moved overflow → slots across all cascades.
    pub cascaded_events: u64,
    /// Peak events resident in the slot window.
    pub max_occupancy: u64,
    /// Peak events resident in the overflow calendar.
    pub max_overflow: u64,
}

impl WheelStats {
    /// Export the counters and peaks under `sub` (E18's `kernel` sub).
    pub fn export(&self, obs: &Recorder, sub: &str) {
        for (name, v) in [
            ("posted", self.posted),
            ("popped", self.popped),
            ("cancelled", self.cancelled),
            ("cascades", self.cascades),
            ("cascaded_events", self.cascaded_events),
        ] {
            obs.counter_add(sub, name, v);
        }
        obs.gauge_set(sub, "max_occupancy", self.max_occupancy as i64);
        obs.gauge_set(sub, "max_overflow", self.max_overflow as i64);
    }
}

#[derive(Debug, Clone)]
struct Entry<P> {
    time: Time,
    domain: DomainId,
    seq: u64,
    payload: P,
}

impl<P> Entry<P> {
    fn key(&self) -> (Time, DomainId, u64) {
        (self.time, self.domain, self.seq)
    }
}

/// The hierarchical timer wheel.
#[derive(Debug, Clone)]
pub struct TimerWheel<P> {
    now: Time,
    slots: Vec<Vec<Entry<P>>>,
    /// Occupancy bitmap over the slots (one bit per slot).
    occupied: Vec<u64>,
    /// Live events in the slot window.
    in_window: usize,
    /// Far-future events, unordered; scanned on cascade/peek (small by
    /// construction — only timers beyond the window land here).
    overflow: Vec<Entry<P>>,
    /// token -> due time, for O(1)-ish cancel routing.
    pending: HashMap<u64, Time>,
    next_seq: u64,
    stats: WheelStats,
}

impl<P> Default for TimerWheel<P> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<P> TimerWheel<P> {
    /// A wheel with the default window ([`DEFAULT_SLOTS`] ticks).
    pub fn new() -> Self {
        TimerWheel::with_slots(DEFAULT_SLOTS)
    }

    /// A wheel with a custom window.
    ///
    /// # Panics
    ///
    /// Panics unless `slots` is a power of two ≥ 64.
    pub fn with_slots(slots: usize) -> Self {
        assert!(
            slots.is_power_of_two() && slots >= 64,
            "slot count must be a power of two >= 64"
        );
        TimerWheel {
            now: 0,
            slots: (0..slots).map(|_| Vec::new()).collect(),
            occupied: vec![0; slots / 64],
            in_window: 0,
            overflow: Vec::new(),
            pending: HashMap::new(),
            next_seq: 0,
            stats: WheelStats::default(),
        }
    }

    /// The hand position (time of the last popped event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Pending events (window + overflow).
    pub fn len(&self) -> usize {
        self.in_window + self.overflow.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Health counters.
    pub fn stats(&self) -> &WheelStats {
        &self.stats
    }

    fn mask(&self) -> u64 {
        self.slots.len() as u64 - 1
    }

    fn set_bit(&mut self, idx: usize) {
        self.occupied[idx >> 6] |= 1 << (idx & 63);
    }

    fn clear_bit(&mut self, idx: usize) {
        self.occupied[idx >> 6] &= !(1 << (idx & 63));
    }

    /// Smallest set bit index in `[lo, hi)`, word-skipped.
    fn first_set_in(&self, lo: usize, hi: usize) -> Option<usize> {
        let mut w = lo >> 6;
        let end_w = (hi + 63) >> 6;
        while w < end_w {
            let base = w << 6;
            let mut word = self.occupied[w];
            if base < lo {
                word &= !0u64 << (lo - base);
            }
            if base + 64 > hi {
                word &= !0u64 >> (base + 64 - hi);
            }
            if word != 0 {
                return Some(base + word.trailing_zeros() as usize);
            }
            w += 1;
        }
        None
    }

    /// First occupied slot at or after the hand, in ring order.
    fn next_occupied(&self) -> Option<usize> {
        let start = (self.now & self.mask()) as usize;
        self.first_set_in(start, self.slots.len())
            .or_else(|| self.first_set_in(0, start))
    }

    /// Schedule `payload` at `time` (≥ the hand), returning the token.
    ///
    /// # Errors
    ///
    /// [`PostError::InPast`] when `time` is behind the hand.
    pub fn post(&mut self, time: Time, domain: DomainId, payload: P) -> Result<u64, PostError> {
        if time < self.now {
            return Err(PostError::InPast { time, now: self.now });
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry { time, domain, seq, payload };
        self.pending.insert(seq, time);
        self.stats.posted += 1;
        if time - self.now < self.slots.len() as u64 {
            let idx = (time & self.mask()) as usize;
            self.slots[idx].push(entry);
            self.set_bit(idx);
            self.in_window += 1;
            self.stats.max_occupancy = self.stats.max_occupancy.max(self.in_window as u64);
        } else {
            self.overflow.push(entry);
            self.stats.max_overflow = self.stats.max_overflow.max(self.overflow.len() as u64);
        }
        Ok(seq)
    }

    /// Pull every overflow event now inside the window into its slot.
    fn cascade(&mut self) {
        let horizon = self.now + self.slots.len() as u64;
        let mut moved = 0u64;
        let mut i = 0;
        while i < self.overflow.len() {
            if self.overflow[i].time < horizon {
                let entry = self.overflow.swap_remove(i);
                let idx = (entry.time & self.mask()) as usize;
                self.slots[idx].push(entry);
                self.set_bit(idx);
                self.in_window += 1;
                moved += 1;
            } else {
                i += 1;
            }
        }
        if moved > 0 {
            self.stats.cascades += 1;
            self.stats.cascaded_events += moved;
            self.stats.max_occupancy = self.stats.max_occupancy.max(self.in_window as u64);
        }
    }

    /// Due time of the earliest pending event, without popping.
    pub fn peek_time(&self) -> Option<Time> {
        if self.in_window > 0 {
            let idx = self.next_occupied().expect("window occupancy tracked");
            let start = (self.now & self.mask()) as usize;
            let n = self.slots.len();
            let offset = (idx + n - start) % n;
            return Some(self.now + offset as u64);
        }
        self.overflow.iter().map(|e| e.time).min()
    }

    /// Pop the earliest pending event — minimum `(time, domain, seq)` —
    /// advancing the hand to its time.
    pub fn pop_next(&mut self) -> Option<Event<P>> {
        if self.in_window == 0 {
            // jump the hand to the overflow minimum and cascade
            let t = self.overflow.iter().map(|e| e.time).min()?;
            self.now = t;
            self.cascade();
        }
        let idx = self.next_occupied().expect("window occupancy tracked");
        let start = (self.now & self.mask()) as usize;
        let n = self.slots.len();
        let offset = (idx + n - start) % n;
        let time = self.now + offset as u64;
        let slot = &mut self.slots[idx];
        debug_assert!(slot.iter().all(|e| e.time == time), "window invariant");
        let best = (1..slot.len()).fold(0, |b, i| if slot[i].key() < slot[b].key() { i } else { b });
        let entry = slot.swap_remove(best);
        if slot.is_empty() {
            self.clear_bit(idx);
        }
        self.in_window -= 1;
        self.pending.remove(&entry.seq);
        self.now = time;
        self.cascade();
        self.stats.popped += 1;
        Some(Event {
            time: entry.time,
            domain: entry.domain,
            seq: entry.seq,
            payload: entry.payload,
        })
    }

    /// Remove a pending event by its slot/overflow location.
    fn take(&mut self, token: u64, time: Time) -> Entry<P> {
        if time.saturating_sub(self.now) < self.slots.len() as u64 && time >= self.now {
            let idx = (time & self.mask()) as usize;
            let pos = self.slots[idx]
                .iter()
                .position(|e| e.seq == token)
                .expect("pending index points into window");
            let entry = self.slots[idx].swap_remove(pos);
            if self.slots[idx].is_empty() {
                self.clear_bit(idx);
            }
            self.in_window -= 1;
            entry
        } else {
            let pos = self.overflow
                .iter()
                .position(|e| e.seq == token)
                .expect("pending index points into overflow");
            self.overflow.swap_remove(pos)
        }
    }

    /// Cancel a pending event. Returns whether the token was pending.
    pub fn cancel(&mut self, token: u64) -> bool {
        let Some(time) = self.pending.remove(&token) else {
            return false;
        };
        self.take(token, time);
        self.stats.cancelled += 1;
        true
    }

    /// Move a pending event to `new_time`, returning the fresh token
    /// (reschedule re-enters the `(time, domain, seq)` order with a new
    /// sequence number).
    ///
    /// # Errors
    ///
    /// [`PostError::UnknownToken`] if nothing pends under `token`;
    /// [`PostError::InPast`] if `new_time` is behind the hand (the event
    /// stays pending at its old time).
    pub fn reschedule(&mut self, token: u64, new_time: Time) -> Result<u64, PostError> {
        let Some(&time) = self.pending.get(&token) else {
            return Err(PostError::UnknownToken(token));
        };
        if new_time < self.now {
            return Err(PostError::InPast { time: new_time, now: self.now });
        }
        self.pending.remove(&token);
        let entry = self.take(token, time);
        self.stats.cancelled += 1;
        self.post(new_time, entry.domain, entry.payload)
    }

    /// Pop-and-deliver every event due at or before `until`, in kernel
    /// order; returns how many were delivered.
    pub fn drain_due(&mut self, until: Time, sink: &mut impl EventSink<P>) -> usize {
        let mut n = 0;
        while self.peek_time().is_some_and(|t| t <= until) {
            let ev = self.pop_next().expect("peeked event pops");
            sink.deliver(ev);
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_rtl::rng::DetRng;

    /// The sorted reference scheduler: the wheel's API and pop order,
    /// implemented as a flat min-scan. It is the oracle the wheel is
    /// checked against, never a production path.
    struct ReferenceQueue<P> {
        now: Time,
        entries: Vec<Entry<P>>,
        next_seq: u64,
        stats: WheelStats,
    }

    impl<P> ReferenceQueue<P> {
        fn new() -> Self {
            ReferenceQueue { now: 0, entries: Vec::new(), next_seq: 0, stats: WheelStats::default() }
        }

        fn len(&self) -> usize {
            self.entries.len()
        }

        fn post(&mut self, time: Time, domain: DomainId, payload: P) -> Result<u64, PostError> {
            if time < self.now {
                return Err(PostError::InPast { time, now: self.now });
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            self.entries.push(Entry { time, domain, seq, payload });
            self.stats.posted += 1;
            Ok(seq)
        }

        fn peek_time(&self) -> Option<Time> {
            self.entries.iter().map(|e| e.time).min()
        }

        fn pop_next(&mut self) -> Option<Event<P>> {
            if self.entries.is_empty() {
                return None;
            }
            let best = (1..self.entries.len())
                .fold(0, |b, i| if self.entries[i].key() < self.entries[b].key() { i } else { b });
            let entry = self.entries.swap_remove(best);
            self.now = entry.time;
            self.stats.popped += 1;
            Some(Event {
                time: entry.time,
                domain: entry.domain,
                seq: entry.seq,
                payload: entry.payload,
            })
        }

        fn cancel(&mut self, token: u64) -> bool {
            match self.entries.iter().position(|e| e.seq == token) {
                Some(pos) => {
                    self.entries.swap_remove(pos);
                    self.stats.cancelled += 1;
                    true
                }
                None => false,
            }
        }

        fn reschedule(&mut self, token: u64, new_time: Time) -> Result<u64, PostError> {
            let Some(pos) = self.entries.iter().position(|e| e.seq == token) else {
                return Err(PostError::UnknownToken(token));
            };
            if new_time < self.now {
                return Err(PostError::InPast { time: new_time, now: self.now });
            }
            let entry = self.entries.swap_remove(pos);
            self.stats.cancelled += 1;
            self.post(new_time, entry.domain, entry.payload)
        }
    }

    fn ids() -> (DomainId, DomainId, DomainId) {
        let mut reg = DomainRegistry::new();
        let a = reg.register("alpha");
        let b = reg.register("beta");
        let c = reg.register("gamma");
        assert_eq!(reg.register("beta"), b, "registration is idempotent");
        assert_eq!(reg.name(a), Some("alpha"));
        assert_eq!(reg.len(), 3);
        (a, b, c)
    }

    #[test]
    fn same_tick_orders_by_domain_then_seq() {
        let (a, b, _) = ids();
        let mut w = TimerWheel::new();
        // post in scrambled order; all due at tick 7
        w.post(7, b, "b0").unwrap();
        w.post(7, a, "a0").unwrap();
        w.post(7, b, "b1").unwrap();
        w.post(7, a, "a1").unwrap();
        let order: Vec<&str> = std::iter::from_fn(|| w.pop_next().map(|e| e.payload)).collect();
        assert_eq!(order, ["a0", "a1", "b0", "b1"], "domain first, then seq");
        assert_eq!(w.now(), 7);
    }

    #[test]
    fn far_future_events_cascade_from_overflow() {
        let (a, _, _) = ids();
        let mut w = TimerWheel::with_slots(64);
        w.post(3, a, 3u64).unwrap();
        w.post(1_000, a, 1_000).unwrap(); // far outside the 64-slot window
        w.post(70, a, 70).unwrap();
        w.post(1_001, a, 1_001).unwrap();
        assert_eq!(w.stats().max_overflow, 3, "beyond-window posts wait in overflow");
        let popped: Vec<u64> = std::iter::from_fn(|| w.pop_next().map(|e| e.payload)).collect();
        assert_eq!(popped, [3, 70, 1_000, 1_001]);
        assert!(w.stats().cascades >= 1, "hand advance must cascade");
        assert_eq!(w.stats().cascaded_events, 3);
        assert!(w.is_empty());
    }

    #[test]
    fn cancel_and_reschedule_pending_events() {
        let (a, b, _) = ids();
        let mut w = TimerWheel::with_slots(64);
        let dead = w.post(10, a, "dead").unwrap();
        let keep = w.post(20, a, "keep").unwrap();
        let far = w.post(500, b, "far").unwrap(); // overflow resident
        assert!(w.cancel(dead));
        assert!(!w.cancel(dead), "double cancel is a no-op");
        let moved = w.reschedule(far, 15).unwrap(); // overflow → window, ahead of `keep`
        assert_ne!(moved, far, "reschedule mints a fresh token");
        assert_eq!(w.reschedule(9_999, 30), Err(PostError::UnknownToken(9_999)));
        let order: Vec<&str> = std::iter::from_fn(|| w.pop_next().map(|e| e.payload)).collect();
        assert_eq!(order, ["far", "keep"]);
        assert!(!w.cancel(keep), "popped events are no longer pending");
        assert_eq!(w.stats().cancelled, 2, "cancel + the removal half of reschedule");
    }

    #[test]
    fn post_in_the_past_is_rejected() {
        let (a, _, _) = ids();
        let mut w = TimerWheel::new();
        w.post(50, a, ()).unwrap();
        w.pop_next().unwrap();
        assert_eq!(w.now(), 50);
        assert_eq!(w.post(49, a, ()), Err(PostError::InPast { time: 49, now: 50 }));
        w.post(50, a, ()).unwrap(); // the hand's own tick is still postable
        let tok = w.post(60, a, ()).unwrap();
        assert_eq!(
            w.reschedule(tok, 10),
            Err(PostError::InPast { time: 10, now: 50 }),
        );
        assert_eq!(w.len(), 2, "failed reschedule leaves the event pending");
    }

    #[test]
    fn seeded_wheel_matches_sorted_reference() {
        // property-style: a seeded op stream (posts across the whole
        // horizon, interleaved pops and cancels) must pop in exactly the
        // reference order, tokens and all metadata included.
        let mut rng = DetRng::new(0xE18);
        let mut wheel = TimerWheel::with_slots(128);
        let mut reference = ReferenceQueue::new();
        let mut live = Vec::new(); // parallel (wheel_token, ref_token)
        for round in 0..2_000u64 {
            match rng.below(10) {
                // mostly posts: near-term, far-future, and same-tick ties
                0..=5 => {
                    let t = wheel.now() + rng.below(400);
                    let d = DomainId(rng.below(4) as u16);
                    let wt = wheel.post(t, d, round).unwrap();
                    let rt = reference.post(t, d, round).unwrap();
                    assert_eq!(wt, rt, "token streams stay aligned");
                    live.push(wt);
                }
                6 => {
                    if !live.is_empty() {
                        let tok = live.swap_remove(rng.below(live.len() as u64) as usize);
                        assert_eq!(wheel.cancel(tok), reference.cancel(tok));
                    }
                }
                7 => {
                    if !live.is_empty() {
                        let i = rng.below(live.len() as u64) as usize;
                        let t = wheel.now() + rng.below(600);
                        let wr = wheel.reschedule(live[i], t);
                        let rr = reference.reschedule(live[i], t);
                        assert_eq!(wr, rr);
                        if let Ok(tok) = wr {
                            live[i] = tok;
                        }
                    }
                }
                _ => {
                    let we = wheel.pop_next();
                    let re = reference.pop_next();
                    assert_eq!(we, re, "pop order must match the sorted reference");
                    if let Some(e) = we {
                        live.retain(|&t| t != e.seq);
                    }
                }
            }
            assert_eq!(wheel.len(), reference.len());
            assert_eq!(wheel.peek_time(), reference.peek_time());
        }
        // drain both fully
        loop {
            let (we, re) = (wheel.pop_next(), reference.pop_next());
            assert_eq!(we, re);
            if we.is_none() {
                break;
            }
        }
        assert_eq!(wheel.stats().posted, reference.stats.posted);
        assert_eq!(wheel.stats().popped, reference.stats.popped);
        assert_eq!(wheel.stats().cancelled, reference.stats.cancelled);
        assert!(wheel.stats().cascades > 0, "the op stream must exercise the calendar");
    }

    #[test]
    fn event_sink_drains_in_order() {
        struct Log(Vec<(Time, u16, u64)>);
        impl EventSink<u64> for Log {
            fn deliver(&mut self, ev: Event<u64>) {
                self.0.push((ev.time, ev.domain.0, ev.payload));
            }
        }
        let (a, b, _) = ids();
        let mut w = TimerWheel::new();
        w.post(5, b, 50).unwrap();
        w.post(2, a, 20).unwrap();
        w.post(5, a, 51).unwrap();
        w.post(9, a, 90).unwrap();
        let mut log = Log(Vec::new());
        assert_eq!(w.drain_due(5, &mut log), 3);
        assert_eq!(log.0, [(2, 0, 20), (5, 0, 51), (5, 1, 50)]);
        assert_eq!(w.len(), 1, "the tick-9 event stays pending");
        assert_eq!(w.peek_time(), Some(9));
    }
}
