//! # hermes-obs
//!
//! The deterministic flight recorder of the HERMES workspace: cross-layer
//! span/event tracing, a metrics registry, and bounded per-subsystem ring
//! buffers — std-only, no external dependencies.
//!
//! ## Determinism contract
//!
//! Every event timestamp comes from a **simulated clock domain**
//! ([`ClockDomain`]): RTL cycles, CPU cycles, hypervisor cycles, boot
//! microsteps, or a plain deterministic sequence number. Wall-clock time is
//! an *optional side channel* ([`Recorder::with_wall`]): it rides along on
//! each event as `wall_ns` and is stripped from deterministic output, so a
//! trace taken at `--jobs 1` is bit-identical to one taken at `--jobs 4`
//! once the wall channel is removed.
//!
//! Parallel fan-outs keep the contract by giving each independent unit of
//! work its own [`Recorder::child`] and merging the children back **in
//! input order** with [`Recorder::absorb`] — the same discipline
//! `hermes_par::par_map_jobs` applies to its result vector.
//!
//! ## Flight-recorder semantics
//!
//! Events are stored per subsystem in a bounded ring: once a subsystem
//! holds `capacity` events, recording a new one drops the oldest at O(1)
//! cost and bumps the subsystem's `dropped` counter. Long campaigns
//! therefore keep the *last N* events per subsystem — the black-box
//! behaviour a post-mortem wants — while metrics (counters, gauges,
//! histograms) aggregate over the whole run and never drop.
//!
//! A disabled recorder ([`Recorder::disabled`]) early-returns from every
//! recording call after a single branch, so instrumentation can stay in
//! hot paths unconditionally.

pub mod hash;
pub mod profile;
pub mod slo;

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default per-subsystem ring capacity.
pub const DEFAULT_RING_CAPACITY: usize = 8192;

/// The simulated clock domain an event timestamp belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockDomain {
    /// RTL simulator clock cycles.
    Rtl,
    /// CPU cluster cycles.
    Cpu,
    /// Hypervisor cycles (minor-frame time base).
    Hv,
    /// Boot-chain microsteps (cumulative BL1 stage cycles).
    Boot,
    /// A plain deterministic sequence (stage index, epoch index, …).
    Seq,
}

impl ClockDomain {
    /// Stable short name used in trace documents.
    pub fn as_str(self) -> &'static str {
        match self {
            ClockDomain::Rtl => "rtl",
            ClockDomain::Cpu => "cpu",
            ClockDomain::Hv => "hv",
            ClockDomain::Boot => "boot",
            ClockDomain::Seq => "seq",
        }
    }
}

/// What kind of record an [`Event`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An interval: starts at `ts`, lasts `dur` ticks of its clock domain.
    Span {
        /// Duration in ticks of the event's clock domain.
        dur: u64,
    },
    /// A point event.
    Instant,
    /// A point event flagging an anomaly worth surfacing.
    Warning,
}

impl EventKind {
    /// Stable short name used in trace documents.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Span { .. } => "span",
            EventKind::Instant => "instant",
            EventKind::Warning => "warning",
        }
    }
}

/// Salt folded into span-id sequences so span ids and trace ids minted
/// from the same recorder domain never collide numerically.
const SPAN_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// FNV-1a over two words, pinned away from zero (`0` is the "untraced"
/// sentinel everywhere). Used to mix a recorder's domain number with a
/// per-recorder sequence so ids minted by different children are unique
/// while staying a pure function of construction order — the property
/// that keeps traces byte-identical across worker counts.
fn fnv_mix(domain: u64, seq: u64) -> u64 {
    let mut h = hash::Fnv1a::new();
    h.u64(domain);
    h.u64(seq);
    h.finish().max(1)
}

/// Causal trace identity minted at a request boundary (admission, a
/// measurement campaign, a partition activation) and propagated through
/// every layer the work touches. Copy it freely — it is two words.
///
/// `trace_id == 0` means "untraced": recording calls taking a `TraceCtx`
/// degrade to their plain equivalents, so call sites stay unconditional.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// The request-scoped trace id (`0` = untraced).
    pub trace_id: u64,
    /// The span this work is causally nested under (`0` = trace root).
    pub parent_span: u64,
}

impl TraceCtx {
    /// The inert context: recording with it is a plain (untraced) record.
    pub const fn untraced() -> Self {
        TraceCtx { trace_id: 0, parent_span: 0 }
    }

    /// Whether this context carries a real trace id.
    pub fn is_traced(&self) -> bool {
        self.trace_id != 0
    }

    /// The same trace, nested under `span_id` (as returned by
    /// [`Recorder::trace_span`]).
    #[must_use]
    pub fn child(&self, span_id: u64) -> TraceCtx {
        TraceCtx { trace_id: self.trace_id, parent_span: span_id }
    }

    /// Deterministic sampling decision: whether this trace falls inside a
    /// `permille`-per-1000 sample. Keyed on a hash of the trace id — not
    /// on any counter — so the sampled subset is identical at any worker
    /// count and any interleaving. Untraced contexts never sample in.
    pub fn sampled(&self, permille: u64) -> bool {
        if self.trace_id == 0 {
            return false;
        }
        if permille >= 1000 {
            return true;
        }
        fnv_mix(self.trace_id, 0x5a) % 1000 < permille
    }
}

/// The causal-trace linkage carried by a traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceLink {
    /// The trace this event belongs to (never `0` on a stored link).
    pub trace_id: u64,
    /// This event's own span id (`0` for instants, which are leaves).
    pub span_id: u64,
    /// The enclosing span (`0` = this event is a trace root).
    pub parent_span: u64,
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Global sequence number (total order across all subsystems of one
    /// recorder, assigned at record/merge time).
    pub seq: u64,
    /// Event name.
    pub name: String,
    /// Span / instant / warning.
    pub kind: EventKind,
    /// Clock domain of `ts`.
    pub clock: ClockDomain,
    /// Timestamp in ticks of `clock` — always deterministic.
    pub ts: u64,
    /// Key/value payload (values pre-rendered to strings by the caller).
    pub args: Vec<(String, String)>,
    /// Causal-trace linkage (`None` for untraced events).
    pub trace: Option<TraceLink>,
    /// Wall-clock side channel: span duration (spans) or nanoseconds since
    /// the recorder's epoch (instants). `None` unless the recorder was
    /// built with [`Recorder::with_wall`]. Stripped from deterministic
    /// output.
    pub wall_ns: Option<u64>,
}

/// A wall-clock measurement started by [`Recorder::mark`]; pass it back to
/// [`Recorder::span`] to attach the elapsed time to the wall channel.
/// Zero-cost (`None` inside) when the wall channel is off.
#[derive(Debug, Clone, Copy)]
pub struct WallMark(Option<Instant>);

impl WallMark {
    /// A mark that records nothing (for call sites without timing).
    pub fn none() -> Self {
        WallMark(None)
    }
}

/// A fixed-bucket histogram: `counts[i]` holds observations `<= bounds[i]`,
/// with one extra overflow bucket at the end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Upper bucket bounds, ascending.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value (0 when empty); bounds the overflow bucket
    /// so percentile readouts stay finite.
    pub max: u64,
}

impl Histogram {
    /// An empty histogram over the given ascending upper bucket bounds
    /// (plus the implicit overflow bucket) — public so subsystems that
    /// need local percentile readouts (e.g. per-class serving latency)
    /// can aggregate with the same deterministic geometry the recorder
    /// uses.
    pub fn new(bounds: &[u64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Fold another histogram's observations into this one (bucket-wise
    /// when the geometries match, into the overflow bucket otherwise).
    pub fn merge(&mut self, other: &Histogram) {
        if self.bounds == other.bounds {
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += b;
            }
        } else {
            // mismatched geometry: fold the other side's observations into
            // the overflow bucket rather than losing them silently
            if let Some(last) = self.counts.last_mut() {
                *last += other.count;
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Merge a whole set of histograms into one (fleet-level aggregation:
    /// per-shard latency histograms fold into a single distribution the
    /// autoscaler reads p99 from). Geometry comes from the first
    /// histogram; later mismatched geometries fold into the overflow
    /// bucket exactly as [`Histogram::merge`] does. An empty slice yields
    /// an empty zero-bucket histogram.
    pub fn merge_all(hists: &[&Histogram]) -> Histogram {
        let Some((first, rest)) = hists.split_first() else {
            return Histogram::new(&[]);
        };
        let mut out = (*first).clone();
        for h in rest {
            out.merge(h);
        }
        out
    }

    /// Deterministic percentile readout from the fixed buckets.
    ///
    /// Locates the rank-`ceil(q · count)` observation (`q` clamped to
    /// `(0, 1]`) and linearly interpolates its value between the enclosing
    /// bucket's lower and upper bounds in pure integer arithmetic, so two
    /// histograms with equal bucket counts answer byte-identically on any
    /// worker count or platform. The open-ended overflow bucket
    /// interpolates between the last bound and the observed
    /// [`max`](Self::max), which keeps tail percentiles finite. Returns
    /// `None` on an empty histogram.
    ///
    /// Total observations (same value as the public `count` field, as a
    /// readout for generic metric consumers).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values (readout form of the public `sum` field).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observed value in fixed-point thousandths (`sum * 1000 /
    /// count`), or `None` on an empty histogram. Integer arithmetic so the
    /// readout is byte-stable across platforms.
    pub fn mean_x1000(&self) -> Option<u64> {
        self.sum.saturating_mul(1000).checked_div(self.count)
    }

    /// [`max`]: Histogram::max
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        // clamp out-of-range (and NaN, which fails every comparison)
        // quantiles instead of silently misbehaving: q <= 0 reads the
        // first observation, q >= 1 the max, NaN behaves like 0
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && cum + c >= rank {
                let lower = if i == 0 { 0 } else { self.bounds[i - 1] };
                let upper = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                };
                // the topmost non-empty bucket cannot hold anything above
                // the observed max, so tighten its upper edge to it
                let upper = upper.min(self.max).max(lower);
                let pos = rank - cum; // 1..=c within this bucket
                return Some(lower + (upper - lower).saturating_mul(pos) / c);
            }
            cum += c;
        }
        Some(self.max) // unreachable: rank <= count
    }
}

/// Bounded per-subsystem event buffer.
#[derive(Debug, Default)]
struct SubBuf {
    events: VecDeque<Event>,
    dropped: u64,
}

#[derive(Debug, Default)]
struct Metrics {
    counters: Vec<(String, String, u64)>,
    counter_idx: HashMap<String, usize>,
    gauges: Vec<(String, String, i64)>,
    gauge_idx: HashMap<String, usize>,
    hists: Vec<(String, String, Histogram)>,
    hist_idx: HashMap<String, usize>,
    /// Reusable composite-key buffer for index lookups: steady-state
    /// metric updates (the serving hot path observes a histogram per
    /// served request) allocate nothing — the key is only cloned out on
    /// a metric's first touch.
    scratch: String,
}

impl Metrics {
    /// Build the `sub`/`name` composite key in the scratch buffer.
    fn fill_key(&mut self, sub: &str, name: &str) {
        self.scratch.clear();
        self.scratch.push_str(sub);
        self.scratch.push('\u{1f}');
        self.scratch.push_str(name);
    }
}

#[derive(Debug, Default)]
struct State {
    /// Subsystem names in first-seen order (deterministic registration).
    order: Vec<String>,
    subs: HashMap<String, SubBuf>,
    metrics: Metrics,
    next_seq: u64,
    /// Total events ever recorded (including ones since dropped).
    total_events: u64,
    /// Trace ids minted so far ([`Recorder::mint_trace`]).
    next_trace_seq: u64,
    /// Span ids minted so far ([`Recorder::trace_span`]).
    next_span_seq: u64,
    /// Child domains allocated so far ([`Recorder::child`]).
    next_child_domain: u64,
}

#[derive(Debug)]
struct Inner {
    enabled: bool,
    wall: bool,
    capacity: usize,
    /// Trace-id domain: `0` for a root recorder, a deterministic mix of
    /// the parent's domain and the child index for children — so ids
    /// minted by independent children never collide yet depend only on
    /// construction order, never on scheduling.
    domain: u64,
    /// Subsystem-name namespace: every recorded subsystem is stored as
    /// `"<ns>/<sub>"` when non-empty ([`Recorder::child_named`]), so a
    /// fleet of shard recorders absorbs into one snapshot without name
    /// collisions. Names are fully qualified at record time; absorbing
    /// never re-prefixes.
    ns: String,
    epoch: Instant,
    state: Mutex<State>,
}

/// The flight recorder. Cheap to clone (`Arc` inside); clones share the
/// same buffers. Use [`Recorder::child`] for an *independent* recorder to
/// hand to a parallel work unit, then [`Recorder::absorb`] the children in
/// input order.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.inner.enabled)
            .field("wall", &self.inner.wall)
            .field("capacity", &self.inner.capacity)
            .finish()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::disabled()
    }
}

impl Recorder {
    fn build(enabled: bool, wall: bool, capacity: usize, domain: u64, ns: String) -> Self {
        Recorder {
            inner: Arc::new(Inner {
                enabled,
                wall,
                capacity,
                domain,
                ns,
                epoch: Instant::now(),
                state: Mutex::new(State::default()),
            }),
        }
    }

    /// An enabled recorder with the deterministic channels only.
    pub fn new() -> Self {
        Recorder::build(true, false, DEFAULT_RING_CAPACITY, 0, String::new())
    }

    /// An enabled recorder that additionally captures the wall-clock side
    /// channel (`wall_ns` on every event).
    pub fn with_wall() -> Self {
        Recorder::build(true, true, DEFAULT_RING_CAPACITY, 0, String::new())
    }

    /// A recorder whose every recording call is a no-op after one branch.
    pub fn disabled() -> Self {
        Recorder::build(false, false, DEFAULT_RING_CAPACITY, 0, String::new())
    }

    /// Same configuration, different ring capacity (events per subsystem).
    #[must_use]
    pub fn with_capacity(self, capacity: usize) -> Self {
        Recorder::build(
            self.inner.enabled,
            self.inner.wall,
            capacity.max(1),
            self.inner.domain,
            self.inner.ns.clone(),
        )
    }

    /// The subsystem name as this recorder stores it: prefixed with the
    /// namespace when one is set, borrowed untouched otherwise (the hot
    /// path of un-namespaced recorders allocates nothing here).
    fn scoped<'a>(&self, sub: &'a str) -> std::borrow::Cow<'a, str> {
        if self.inner.ns.is_empty() {
            std::borrow::Cow::Borrowed(sub)
        } else {
            std::borrow::Cow::Owned(format!("{}/{sub}", self.inner.ns))
        }
    }

    /// Whether recording calls store anything.
    pub fn enabled(&self) -> bool {
        self.inner.enabled
    }

    /// Whether the wall-clock side channel is captured.
    pub fn wall_enabled(&self) -> bool {
        self.inner.wall
    }

    /// An independent recorder with this one's configuration and empty
    /// state — hand one to each parallel work unit, then [`absorb`] them
    /// in input order. A child of a disabled recorder is disabled.
    ///
    /// [`absorb`]: Recorder::absorb
    ///
    /// Each child gets its own trace-id domain, allocated from the
    /// parent's deterministic sequence: the k-th child of a given
    /// recorder always mints the same trace/span ids, no matter how the
    /// children are scheduled.
    pub fn child(&self) -> Recorder {
        self.child_scoped(self.inner.ns.clone())
    }

    /// A [`child`](Recorder::child) whose recorded subsystem names are
    /// prefixed `"<name>/"` (nested under this recorder's own namespace,
    /// if any) — the fleet pattern: give each shard
    /// `fleet_obs.child_named("shard3")`, let its engine record plain
    /// `"serve"` metrics, and absorb every shard into one snapshot whose
    /// `shard3/serve` entries never collide. Namespacing happens at
    /// record time, so absorbing is the same in-input-order merge as for
    /// unnamed children.
    pub fn child_named(&self, name: &str) -> Recorder {
        let ns = if self.inner.ns.is_empty() {
            name.to_string()
        } else {
            format!("{}/{name}", self.inner.ns)
        };
        self.child_scoped(ns)
    }

    fn child_scoped(&self, ns: String) -> Recorder {
        if !self.inner.enabled {
            return Recorder::build(false, false, self.inner.capacity, 0, String::new());
        }
        let n = {
            let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            st.next_child_domain += 1;
            st.next_child_domain
        };
        let domain = fnv_mix(self.inner.domain, n);
        Recorder::build(self.inner.enabled, self.inner.wall, self.inner.capacity, domain, ns)
    }

    /// Mint a fresh [`TraceCtx`] rooted at this recorder. Ids come from a
    /// per-recorder sequence mixed with the recorder's domain, so the n-th
    /// mint of the k-th child is a pure function of (k, n) — stable under
    /// [`Recorder::child`]/[`Recorder::absorb`] and therefore identical at
    /// any worker count. A disabled recorder mints the untraced context.
    pub fn mint_trace(&self) -> TraceCtx {
        if !self.inner.enabled {
            return TraceCtx::untraced();
        }
        let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        st.next_trace_seq += 1;
        TraceCtx { trace_id: fnv_mix(self.inner.domain, st.next_trace_seq), parent_span: 0 }
    }

    /// Start a wall-clock measurement for a later [`Recorder::span`].
    /// Returns an inert mark when the wall channel is off.
    pub fn mark(&self) -> WallMark {
        if self.inner.enabled && self.inner.wall {
            WallMark(Some(Instant::now()))
        } else {
            WallMark(None)
        }
    }

    fn now_wall(&self) -> Option<u64> {
        if self.inner.wall {
            Some(u64::try_from(self.inner.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX))
        } else {
            None
        }
    }

    fn push(&self, sub: &str, ev: Event) {
        self.push_alloc(sub, ev, false);
    }

    /// Append one event under a single lock acquisition; when
    /// `alloc_span` is set, also allocate the next span id (stamped into
    /// the event's trace link) so span-id order always matches event
    /// order. Returns the allocated span id (`0` otherwise).
    fn push_alloc(&self, sub: &str, mut ev: Event, alloc_span: bool) -> u64 {
        let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        let span_id = if alloc_span {
            st.next_span_seq += 1;
            let id = fnv_mix(self.inner.domain ^ SPAN_SALT, st.next_span_seq);
            if let Some(link) = ev.trace.as_mut() {
                link.span_id = id;
            }
            id
        } else {
            0
        };
        ev.seq = st.next_seq;
        st.next_seq += 1;
        st.total_events += 1;
        if !st.subs.contains_key(sub) {
            st.order.push(sub.to_string());
            st.subs.insert(sub.to_string(), SubBuf::default());
        }
        let cap = self.inner.capacity;
        let buf = st.subs.get_mut(sub).expect("just inserted");
        if buf.events.len() >= cap {
            buf.events.pop_front();
            buf.dropped += 1;
        }
        buf.events.push_back(ev);
        span_id
    }

    /// Record a span: an interval starting at `ts` lasting `dur` ticks of
    /// `clock`. `mark` (from [`Recorder::mark`]) attaches the elapsed wall
    /// time to the wall channel.
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &self,
        sub: &str,
        name: &str,
        clock: ClockDomain,
        ts: u64,
        dur: u64,
        args: &[(&str, String)],
        mark: WallMark,
    ) {
        if !self.inner.enabled {
            return;
        }
        let wall_ns = mark
            .0
            .map(|t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        self.push(
            &self.scoped(sub),
            Event {
                seq: 0,
                name: name.to_string(),
                kind: EventKind::Span { dur },
                clock,
                ts,
                args: args.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
                trace: None,
                wall_ns,
            },
        );
    }

    /// Record a span carrying causal-trace linkage from `ctx`; returns the
    /// span's freshly allocated id (hand `ctx.child(id)` to nested work).
    /// With an untraced `ctx` this records a plain span and returns `0`.
    #[allow(clippy::too_many_arguments)]
    pub fn trace_span(
        &self,
        sub: &str,
        name: &str,
        clock: ClockDomain,
        ts: u64,
        dur: u64,
        args: &[(&str, String)],
        mark: WallMark,
        ctx: TraceCtx,
    ) -> u64 {
        if !self.inner.enabled {
            return 0;
        }
        if !ctx.is_traced() {
            self.span(sub, name, clock, ts, dur, args, mark);
            return 0;
        }
        let wall_ns = mark
            .0
            .map(|t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        self.push_alloc(
            &self.scoped(sub),
            Event {
                seq: 0,
                name: name.to_string(),
                kind: EventKind::Span { dur },
                clock,
                ts,
                args: args.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
                trace: Some(TraceLink {
                    trace_id: ctx.trace_id,
                    span_id: 0, // stamped by push_alloc
                    parent_span: ctx.parent_span,
                }),
                wall_ns,
            },
            true,
        )
    }

    /// Record a point event at `ts` in `clock`.
    pub fn instant(&self, sub: &str, name: &str, clock: ClockDomain, ts: u64, args: &[(&str, String)]) {
        if !self.inner.enabled {
            return;
        }
        let wall_ns = self.now_wall();
        self.push(
            &self.scoped(sub),
            Event {
                seq: 0,
                name: name.to_string(),
                kind: EventKind::Instant,
                clock,
                ts,
                args: args.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
                trace: None,
                wall_ns,
            },
        );
    }

    /// Record a point event carrying causal-trace linkage from `ctx`
    /// (a leaf: instants get no span id). With an untraced `ctx` this
    /// records a plain instant.
    pub fn trace_instant(
        &self,
        sub: &str,
        name: &str,
        clock: ClockDomain,
        ts: u64,
        args: &[(&str, String)],
        ctx: TraceCtx,
    ) {
        if !self.inner.enabled {
            return;
        }
        if !ctx.is_traced() {
            self.instant(sub, name, clock, ts, args);
            return;
        }
        let wall_ns = self.now_wall();
        self.push(
            &self.scoped(sub),
            Event {
                seq: 0,
                name: name.to_string(),
                kind: EventKind::Instant,
                clock,
                ts,
                args: args.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
                trace: Some(TraceLink {
                    trace_id: ctx.trace_id,
                    span_id: 0,
                    parent_span: ctx.parent_span,
                }),
                wall_ns,
            },
        );
    }

    /// Record a warning event (sequence-clocked, message in the args).
    pub fn warning(&self, sub: &str, message: &str) {
        if !self.inner.enabled {
            return;
        }
        let wall_ns = self.now_wall();
        self.push(
            &self.scoped(sub),
            Event {
                seq: 0,
                name: "warning".to_string(),
                kind: EventKind::Warning,
                clock: ClockDomain::Seq,
                ts: 0,
                args: vec![("message".to_string(), message.to_string())],
                trace: None,
                wall_ns,
            },
        );
    }

    /// Add `delta` to a counter, registering it on first touch.
    pub fn counter_add(&self, sub: &str, name: &str, delta: u64) {
        if !self.inner.enabled {
            return;
        }
        let sub = self.scoped(sub);
        let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        let m = &mut st.metrics;
        m.fill_key(&sub, name);
        match m.counter_idx.get(&m.scratch) {
            Some(&i) => m.counters[i].2 += delta,
            None => {
                let key = m.scratch.clone();
                m.counter_idx.insert(key, m.counters.len());
                m.counters.push((sub.into_owned(), name.to_string(), delta));
            }
        }
    }

    /// Set a gauge to `v`, registering it on first touch.
    pub fn gauge_set(&self, sub: &str, name: &str, v: i64) {
        if !self.inner.enabled {
            return;
        }
        let sub = self.scoped(sub);
        let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        let m = &mut st.metrics;
        m.fill_key(&sub, name);
        match m.gauge_idx.get(&m.scratch) {
            Some(&i) => m.gauges[i].2 = v,
            None => {
                let key = m.scratch.clone();
                m.gauge_idx.insert(key, m.gauges.len());
                m.gauges.push((sub.into_owned(), name.to_string(), v));
            }
        }
    }

    /// Observe `v` in a fixed-bucket histogram (bounds fixed at first
    /// touch), registering it on first touch.
    pub fn observe(&self, sub: &str, name: &str, bounds: &[u64], v: u64) {
        if !self.inner.enabled {
            return;
        }
        let sub = self.scoped(sub);
        let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        let m = &mut st.metrics;
        m.fill_key(&sub, name);
        match m.hist_idx.get(&m.scratch) {
            Some(&i) => m.hists[i].2.observe(v),
            None => {
                let mut h = Histogram::new(bounds);
                h.observe(v);
                let key = m.scratch.clone();
                m.hist_idx.insert(key, m.hists.len());
                m.hists.push((sub.into_owned(), name.to_string(), h));
            }
        }
    }

    /// Merge a child's state into this recorder, draining the child.
    /// Events append in the child's order (re-sequenced); counters and
    /// histograms add; gauges take the child's latest value. Calling
    /// `absorb` on children **in input order** keeps the merged stream
    /// deterministic regardless of how the children ran.
    pub fn absorb(&self, child: &Recorder) {
        if !self.inner.enabled || !child.inner.enabled {
            return;
        }
        let mut taken = {
            let mut cst = child.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *cst)
        };
        // gather the child's events in global seq order so interleavings
        // across its subsystems are preserved
        let mut all: Vec<(String, Event)> = Vec::new();
        for sub in &taken.order {
            if let Some(buf) = taken.subs.get_mut(sub) {
                for ev in buf.events.drain(..) {
                    all.push((sub.clone(), ev));
                }
            }
        }
        all.sort_by_key(|(_, ev)| ev.seq);
        for (sub, ev) in all {
            self.push(&sub, ev);
        }
        // carry dropped counts across the merge
        {
            let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            for sub in &taken.order {
                let dropped = taken.subs.get(sub).map_or(0, |b| b.dropped);
                if dropped > 0 {
                    if !st.subs.contains_key(sub) {
                        st.order.push(sub.clone());
                        st.subs.insert(sub.clone(), SubBuf::default());
                    }
                    st.subs.get_mut(sub).expect("present").dropped += dropped;
                }
            }
        }
        // metric names were fully qualified when the child recorded them
        // (child_named prefixes at record time), so the merge is raw —
        // never re-scoped through this recorder's own namespace
        {
            let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            let m = &mut st.metrics;
            for (sub, name, v) in &taken.metrics.counters {
                m.fill_key(sub, name);
                match m.counter_idx.get(&m.scratch) {
                    Some(&i) => m.counters[i].2 += v,
                    None => {
                        let key = m.scratch.clone();
                        m.counter_idx.insert(key, m.counters.len());
                        m.counters.push((sub.clone(), name.clone(), *v));
                    }
                }
            }
            for (sub, name, v) in &taken.metrics.gauges {
                m.fill_key(sub, name);
                match m.gauge_idx.get(&m.scratch) {
                    Some(&i) => m.gauges[i].2 = *v,
                    None => {
                        let key = m.scratch.clone();
                        m.gauge_idx.insert(key, m.gauges.len());
                        m.gauges.push((sub.clone(), name.clone(), *v));
                    }
                }
            }
            for (sub, name, h) in &taken.metrics.hists {
                m.fill_key(sub, name);
                match m.hist_idx.get(&m.scratch) {
                    Some(&i) => m.hists[i].2.merge(h),
                    None => {
                        let key = m.scratch.clone();
                        m.hist_idx.insert(key, m.hists.len());
                        m.hists.push((sub.clone(), name.clone(), h.clone()));
                    }
                }
            }
        }
    }

    /// Total events ever recorded (including ones dropped from rings).
    pub fn event_count(&self) -> u64 {
        self.inner
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .total_events
    }

    /// A consistent copy of everything recorded so far, ordered
    /// deterministically (subsystems in first-seen order, events in ring
    /// order, metrics in registration order).
    pub fn snapshot(&self) -> Snapshot {
        let st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        let subsystems = st
            .order
            .iter()
            .map(|name| {
                let buf = &st.subs[name];
                SubsystemSnapshot {
                    name: name.clone(),
                    dropped: buf.dropped,
                    events: buf.events.iter().cloned().collect(),
                }
            })
            .collect();
        Snapshot {
            subsystems,
            counters: st.metrics.counters.clone(),
            gauges: st.metrics.gauges.clone(),
            histograms: st.metrics.hists.clone(),
        }
    }
}

/// Snapshot of one subsystem's ring.
#[derive(Debug, Clone)]
pub struct SubsystemSnapshot {
    /// Subsystem name.
    pub name: String,
    /// Events dropped from the ring (oldest-first eviction).
    pub dropped: u64,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
}

/// A deterministic copy of a recorder's state (see [`Recorder::snapshot`]).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Subsystems in first-seen order.
    pub subsystems: Vec<SubsystemSnapshot>,
    /// Counters `(subsystem, name, value)` in registration order.
    pub counters: Vec<(String, String, u64)>,
    /// Gauges `(subsystem, name, value)` in registration order.
    pub gauges: Vec<(String, String, i64)>,
    /// Histograms `(subsystem, name, histogram)` in registration order.
    pub histograms: Vec<(String, String, Histogram)>,
}

impl Snapshot {
    /// Total retained events across all subsystems.
    pub fn event_count(&self) -> usize {
        self.subsystems.iter().map(|s| s.events.len()).sum()
    }

    /// Total registered metrics (counters + gauges + histograms).
    pub fn metric_count(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Total events dropped from rings across all subsystems — non-zero
    /// means the event streams (and anything derived from them, like a
    /// profile) are truncated.
    pub fn dropped_total(&self) -> u64 {
        self.subsystems.iter().map(|s| s.dropped).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let r = Recorder::disabled();
        r.span("s", "x", ClockDomain::Seq, 0, 1, &[], r.mark());
        r.instant("s", "y", ClockDomain::Seq, 1, &[]);
        r.counter_add("s", "c", 5);
        assert_eq!(r.event_count(), 0);
        assert_eq!(r.snapshot().metric_count(), 0);
        assert!(!r.enabled());
    }

    #[test]
    fn events_keep_order_and_seq() {
        let r = Recorder::new();
        r.instant("a", "first", ClockDomain::Seq, 0, &[]);
        r.instant("b", "second", ClockDomain::Seq, 1, &[]);
        r.instant("a", "third", ClockDomain::Seq, 2, &[]);
        let s = r.snapshot();
        assert_eq!(s.subsystems.len(), 2);
        assert_eq!(s.subsystems[0].name, "a");
        assert_eq!(s.subsystems[0].events.len(), 2);
        assert_eq!(s.subsystems[0].events[0].seq, 0);
        assert_eq!(s.subsystems[0].events[1].seq, 2);
        assert_eq!(s.subsystems[1].events[0].seq, 1);
    }

    #[test]
    fn ring_drops_oldest_at_capacity() {
        let r = Recorder::new().with_capacity(3);
        for i in 0..10u64 {
            r.instant("s", &format!("e{i}"), ClockDomain::Seq, i, &[]);
        }
        let s = r.snapshot();
        assert_eq!(s.subsystems[0].events.len(), 3);
        assert_eq!(s.subsystems[0].dropped, 7);
        assert_eq!(s.subsystems[0].events[0].name, "e7");
        assert_eq!(r.event_count(), 10, "total count survives eviction");
    }

    #[test]
    fn metrics_register_in_first_touch_order() {
        let r = Recorder::new();
        r.counter_add("x", "b", 1);
        r.counter_add("x", "a", 2);
        r.counter_add("x", "b", 3);
        r.gauge_set("x", "g", -7);
        r.gauge_set("x", "g", 9);
        r.observe("x", "h", &[10, 100], 5);
        r.observe("x", "h", &[10, 100], 50);
        r.observe("x", "h", &[10, 100], 5000);
        let s = r.snapshot();
        assert_eq!(s.counters[0].1, "b");
        assert_eq!(s.counters[0].2, 4);
        assert_eq!(s.counters[1].1, "a");
        assert_eq!(s.gauges[0].2, 9);
        let h = &s.histograms[0].2;
        assert_eq!(h.counts, vec![1, 1, 1]);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 5055);
    }

    #[test]
    fn absorb_merges_in_call_order() {
        let parent = Recorder::new();
        let c1 = parent.child();
        let c2 = parent.child();
        // children record "concurrently"; merge order decides the stream
        c2.instant("s", "from-c2", ClockDomain::Seq, 0, &[]);
        c1.instant("s", "from-c1", ClockDomain::Seq, 0, &[]);
        c1.counter_add("s", "n", 1);
        c2.counter_add("s", "n", 10);
        parent.absorb(&c1);
        parent.absorb(&c2);
        let s = parent.snapshot();
        assert_eq!(s.subsystems[0].events[0].name, "from-c1");
        assert_eq!(s.subsystems[0].events[1].name, "from-c2");
        assert_eq!(s.counters[0].2, 11);
        // the child is drained
        assert_eq!(c1.snapshot().event_count(), 0);
    }

    #[test]
    fn absorb_preserves_cross_subsystem_interleaving() {
        let parent = Recorder::new();
        let c = parent.child();
        c.instant("a", "1", ClockDomain::Seq, 0, &[]);
        c.instant("b", "2", ClockDomain::Seq, 0, &[]);
        c.instant("a", "3", ClockDomain::Seq, 0, &[]);
        parent.absorb(&c);
        let s = parent.snapshot();
        let seqs: Vec<(String, u64)> = s
            .subsystems
            .iter()
            .flat_map(|sub| sub.events.iter().map(|e| (e.name.clone(), e.seq)))
            .collect();
        let mut sorted = seqs.clone();
        sorted.sort_by_key(|(_, s)| *s);
        assert_eq!(
            sorted.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            vec!["1", "2", "3"]
        );
    }

    #[test]
    fn wall_channel_only_when_enabled() {
        let dry = Recorder::new();
        dry.instant("s", "x", ClockDomain::Seq, 0, &[]);
        assert!(dry.snapshot().subsystems[0].events[0].wall_ns.is_none());

        let wet = Recorder::with_wall();
        let m = wet.mark();
        wet.span("s", "x", ClockDomain::Seq, 0, 1, &[], m);
        wet.instant("s", "y", ClockDomain::Seq, 1, &[]);
        let s = wet.snapshot();
        assert!(s.subsystems[0].events[0].wall_ns.is_some());
        assert!(s.subsystems[0].events[1].wall_ns.is_some());
    }

    #[test]
    fn child_of_disabled_is_disabled() {
        let r = Recorder::disabled();
        let c = r.child();
        c.instant("s", "x", ClockDomain::Seq, 0, &[]);
        r.absorb(&c);
        assert_eq!(r.event_count(), 0);
    }

    #[test]
    fn percentile_hand_computed_values() {
        // uniform 1..=100 over quartile buckets: percentiles land exactly
        let mut h = Histogram::new(&[25, 50, 75, 100]);
        for v in 1..=100 {
            h.observe(v);
        }
        assert_eq!(h.percentile(0.50), Some(50));
        assert_eq!(h.percentile(0.95), Some(95));
        assert_eq!(h.percentile(0.99), Some(99));
        assert_eq!(h.percentile(0.01), Some(1));
        assert_eq!(h.percentile(1.0), Some(100));

        // skewed set with an overflow observation: p50 interpolates inside
        // bucket (10,20], the tail reads up to the observed max
        let mut h = Histogram::new(&[10, 20, 30]);
        for v in [5u64, 10, 15, 25, 100] {
            h.observe(v);
        }
        assert_eq!(h.max, 100);
        // rank ceil(0.5*5)=3 -> 3rd observation, bucket (10,20], pos 1 of 1
        assert_eq!(h.percentile(0.50), Some(20));
        // rank 5 -> overflow bucket, interpolated to max
        assert_eq!(h.percentile(0.95), Some(100));
        assert_eq!(h.percentile(0.99), Some(100));
    }

    #[test]
    fn percentile_empty_and_single() {
        let h = Histogram::new(&[10]);
        assert_eq!(h.percentile(0.5), None, "empty histogram has no rank");
        let mut h = Histogram::new(&[10]);
        h.observe(7);
        // a single observation answers every quantile with itself: the
        // bucket's upper edge is tightened to the observed max
        assert_eq!(h.percentile(0.01), Some(7));
        assert_eq!(h.percentile(0.5), Some(7));
        assert_eq!(h.percentile(0.99), Some(7));
    }

    #[test]
    fn percentile_survives_merge() {
        let mut a = Histogram::new(&[100, 200]);
        let mut b = Histogram::new(&[100, 200]);
        for v in 1..=50 {
            a.observe(v * 2); // 2..=100
            b.observe(100 + v * 2); // 102..=200
        }
        a.merge(&b);
        assert_eq!(a.count, 100);
        assert_eq!(a.percentile(0.50), Some(100));
        assert_eq!(a.percentile(0.95), Some(100 + 100 * 45 / 50));
        assert_eq!(a.max, 200);
    }

    #[test]
    fn percentile_clamps_out_of_range_quantiles() {
        let mut h = Histogram::new(&[25, 50, 75, 100]);
        for v in 1..=100 {
            h.observe(v);
        }
        // out-of-range and non-finite quantiles clamp instead of
        // misbehaving: below 0 reads like the smallest rank, above 1 the max
        assert_eq!(h.percentile(-3.0), h.percentile(0.0));
        assert_eq!(h.percentile(42.0), h.percentile(1.0));
        assert_eq!(h.percentile(f64::INFINITY), Some(100));
        assert_eq!(h.percentile(f64::NEG_INFINITY), h.percentile(0.0));
        assert_eq!(h.percentile(f64::NAN), h.percentile(0.0));
        // and the empty histogram still answers None for every input
        let empty = Histogram::new(&[10]);
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0, f64::NAN] {
            assert_eq!(empty.percentile(q), None);
        }
    }

    #[test]
    fn histogram_readouts() {
        let empty = Histogram::new(&[10]);
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.sum(), 0);
        assert_eq!(empty.mean_x1000(), None);
        let mut h = Histogram::new(&[10, 100]);
        h.observe(4);
        h.observe(5);
        h.observe(6);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 15);
        assert_eq!(h.mean_x1000(), Some(5000));
    }

    #[test]
    fn ring_drop_is_counted_per_subsystem_in_snapshot() {
        let r = Recorder::new().with_capacity(2);
        r.instant("droppy-sub", "a", ClockDomain::Seq, 0, &[]);
        r.instant("droppy-sub", "b", ClockDomain::Seq, 1, &[]);
        r.instant("quiet-sub", "a", ClockDomain::Seq, 0, &[]);
        assert_eq!(r.snapshot().dropped_total(), 0);
        r.instant("droppy-sub", "c", ClockDomain::Seq, 2, &[]);
        r.instant("droppy-sub", "d", ClockDomain::Seq, 3, &[]);
        let snap = r.snapshot();
        let dropped: Vec<(&str, u64)> =
            snap.subsystems.iter().map(|s| (s.name.as_str(), s.dropped)).collect();
        assert_eq!(dropped, [("droppy-sub", 2), ("quiet-sub", 0)]);
        assert_eq!(snap.dropped_total(), 2);
    }

    #[test]
    fn mint_trace_ids_are_stable_and_domain_unique() {
        let mk = || {
            let parent = Recorder::new();
            let c1 = parent.child();
            let c2 = parent.child();
            (parent.mint_trace(), c1.mint_trace(), c1.mint_trace(), c2.mint_trace())
        };
        let (p, a1, a2, b1) = mk();
        // stable: rebuilding the same recorder tree re-mints the same ids
        assert_eq!((p, a1, a2, b1), mk());
        // unique: ids from distinct domains/sequences never collide
        let ids = [p.trace_id, a1.trace_id, a2.trace_id, b1.trace_id];
        let mut dedup = ids.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "{ids:?}");
        assert!(ids.iter().all(|&id| id != 0));
        // disabled recorders mint the untraced context
        assert_eq!(Recorder::disabled().mint_trace(), TraceCtx::untraced());
    }

    #[test]
    fn trace_spans_link_parent_and_child() {
        let r = Recorder::new();
        let ctx = r.mint_trace();
        let root = r.trace_span("s", "request", ClockDomain::Cpu, 0, 10, &[], WallMark::none(), ctx);
        assert_ne!(root, 0);
        let leaf =
            r.trace_span("s", "service", ClockDomain::Cpu, 2, 5, &[], WallMark::none(), ctx.child(root));
        r.trace_instant("s", "done", ClockDomain::Cpu, 10, &[], ctx.child(leaf));
        let snap = r.snapshot();
        let evs = &snap.subsystems[0].events;
        let l0 = evs[0].trace.expect("root linked");
        let l1 = evs[1].trace.expect("child linked");
        let l2 = evs[2].trace.expect("instant linked");
        assert_eq!(l0.parent_span, 0);
        assert_eq!(l0.span_id, root);
        assert_eq!(l1.parent_span, root);
        assert_eq!(l1.span_id, leaf);
        assert_eq!((l2.parent_span, l2.span_id), (leaf, 0));
        assert!([l0, l1, l2].iter().all(|l| l.trace_id == ctx.trace_id));
        // untraced ctx degrades to a plain event and returns no span id
        let r2 = Recorder::new();
        let none = r2.trace_span(
            "s",
            "x",
            ClockDomain::Seq,
            0,
            1,
            &[],
            WallMark::none(),
            TraceCtx::untraced(),
        );
        assert_eq!(none, 0);
        assert!(r2.snapshot().subsystems[0].events[0].trace.is_none());
    }

    #[test]
    fn sampling_is_a_pure_function_of_the_trace_id() {
        let r = Recorder::new();
        let ctxs: Vec<TraceCtx> = (0..200).map(|_| r.mint_trace()).collect();
        for permille in [0u64, 125, 500, 1000] {
            let picked: Vec<bool> = ctxs.iter().map(|c| c.sampled(permille)).collect();
            let again: Vec<bool> = ctxs.iter().map(|c| c.sampled(permille)).collect();
            assert_eq!(picked, again);
            let n = picked.iter().filter(|&&b| b).count();
            match permille {
                0 => assert_eq!(n, 0),
                1000 => assert_eq!(n, ctxs.len()),
                _ => assert!(n > 0 && n < ctxs.len(), "permille {permille} picked {n}"),
            }
        }
        assert!(!TraceCtx::untraced().sampled(1000), "untraced never samples in");
    }

    #[test]
    fn merge_all_folds_a_fleet_of_histograms() {
        assert_eq!(Histogram::merge_all(&[]).count, 0);
        let mut shards: Vec<Histogram> = (0..4).map(|_| Histogram::new(&[100, 200])).collect();
        for (i, h) in shards.iter_mut().enumerate() {
            for v in 1..=50u64 {
                h.observe(v + 50 * i as u64);
            }
        }
        let refs: Vec<&Histogram> = shards.iter().collect();
        let merged = Histogram::merge_all(&refs);
        assert_eq!(merged.count, 200);
        assert_eq!(merged.max, 200);
        // identical to the pairwise merge in any grouping
        let mut pairwise = shards[0].clone();
        for h in &shards[1..] {
            pairwise.merge(h);
        }
        assert_eq!(merged, pairwise);
        assert_eq!(merged.percentile(0.50), pairwise.percentile(0.50));
    }

    #[test]
    fn child_named_namespaces_events_and_metrics() {
        let fleet = Recorder::new();
        let s0 = fleet.child_named("shard0");
        let s1 = fleet.child_named("shard1");
        s0.instant("serve", "arrive", ClockDomain::Cpu, 1, &[]);
        s0.counter_add("serve", "served", 5);
        s0.observe("serve", "latency", &[10, 100], 42);
        s1.counter_add("serve", "served", 7);
        // absorb order is the deterministic merge order
        fleet.absorb(&s0);
        fleet.absorb(&s1);
        let snap = fleet.snapshot();
        assert_eq!(snap.subsystems[0].name, "shard0/serve");
        let counters: Vec<_> = snap
            .counters
            .iter()
            .map(|(s, n, v)| (s.as_str(), n.as_str(), *v))
            .collect();
        assert_eq!(
            counters,
            vec![("shard0/serve", "served", 5), ("shard1/serve", "served", 7)],
            "per-shard counters never collide"
        );
        assert_eq!(snap.histograms[0].0, "shard0/serve");
        // nesting composes namespaces
        let nested = s1.child_named("pool");
        nested.counter_add("slots", "busy", 1);
        fleet.absorb(&nested);
        let snap = fleet.snapshot();
        assert!(snap
            .counters
            .iter()
            .any(|(s, n, _)| s == "shard1/pool/slots" && n == "busy"));
        // a plain child of a named child inherits the namespace
        let sibling = s0.child();
        sibling.counter_add("serve", "served", 1);
        fleet.absorb(&sibling);
        let snap = fleet.snapshot();
        let served0: u64 = snap
            .counters
            .iter()
            .filter(|(s, n, _)| s == "shard0/serve" && n == "served")
            .map(|&(_, _, v)| v)
            .sum();
        assert_eq!(served0, 6);
    }

    #[test]
    fn child_named_snapshot_is_independent_of_recording_interleave() {
        // the fleet discipline: shards record "concurrently" in any
        // interleave; absorbing in shard order yields one deterministic
        // snapshot — the jobs=1 ≡ jobs=4 identity at the recorder level
        let run = |flip: bool| {
            let fleet = Recorder::new();
            let shards: Vec<Recorder> =
                (0..4).map(|i| fleet.child_named(&format!("shard{i}"))).collect();
            let record = |i: usize| {
                let s = &shards[i];
                let ctx = s.mint_trace();
                s.trace_instant("serve", "arrive", ClockDomain::Cpu, i as u64, &[], ctx);
                s.counter_add("serve", "served", i as u64 + 1);
                s.observe("serve", "latency", &[10, 100], 7 * (i as u64 + 1));
            };
            if flip {
                for i in (0..4).rev() {
                    record(i);
                }
            } else {
                for i in 0..4 {
                    record(i);
                }
            }
            for s in &shards {
                fleet.absorb(s);
            }
            format!("{:?}", fleet.snapshot())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn histogram_mismatched_bounds_fold_into_overflow() {
        let mut a = Histogram::new(&[10]);
        a.observe(1);
        let mut b = Histogram::new(&[99]);
        b.observe(1);
        b.observe(2);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.counts, vec![1, 2]);
    }
}
