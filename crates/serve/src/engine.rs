//! The event-stepped serving engine: admission, dynamic batching,
//! deadline-aware dispatch, load shedding, and chaos-tolerant pools.
//!
//! The engine advances a simulated serve clock from event to event (next
//! arrival, batch completion, instance recovery, scheduled fault, deadline
//! expiry, batch-window trigger) instead of polling every tick. Within a
//! tick the phase order is fixed — recover, complete, faults, arrivals,
//! shed-expired, dispatch — so the whole simulation is a pure function of
//! the configuration, the arrival stream, and the fault plan. A batch's
//! payloads are evaluated inline on the calling thread, in batch order.
//!
//! Wake times come from the unified event kernel (`hermes-kernel`,
//! DESIGN.md §14): every phase posts its next due tick as a timer, the
//! chaos [`FaultPlan`] posts its whole timeline up front, and the run
//! loop pops the earliest timer that still matches the current state
//! (timers are validated at pop, so superseded ones are skipped, never
//! acted on). The timer wheel pops in the total `(time, domain, seq)`
//! order, so a run is a replayable function of its inputs.

use crate::model::AcceleratorModel;
use crate::pool::{Batch, Pool};
use crate::queue::Backlog;
use crate::request::{RejectReason, Request, ShedReason, Verdict};
use crate::Tick;
use hermes_chaos::plan::{FaultKind, FaultPlan};
use hermes_kernel::{DomainId, DomainRegistry, TimerWheel, WheelStats};
use hermes_obs::hash::fnv1a_words;
use hermes_obs::slo::{RequestOutcome, SloEngine};
use hermes_obs::{ClockDomain, Histogram, Recorder, TraceCtx, WallMark};
use std::cell::Cell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Batch-size histogram bounds (items).
const BATCH_BOUNDS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];
/// Latency histogram bounds (ticks, powers of two).
const LATENCY_BOUNDS: [u64; 12] = [
    16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768,
];

/// Serving-runtime configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Total backlog depth bound (admission rejects past it).
    pub queue_depth: usize,
    /// Max queued requests per tenant.
    pub tenant_quota: usize,
    /// Number of priority classes (requests beyond the range fold into the
    /// lowest class).
    pub classes: usize,
    /// Max requests coalesced into one batch.
    pub batch_max: usize,
    /// Ticks a queued class may age before it is dispatched even
    /// under-filled (bounds added queueing delay).
    pub batch_window: u64,
    /// Accelerator instances in the pool.
    pub instances: usize,
    /// Not read by the engine, which evaluates each batch inline. Kept
    /// for perfbench; delete with the next benchmark change.
    pub compute_bound: usize,
    /// Permille of minted traces whose events are recorded. A trace
    /// context is minted for *every*
    /// arrival regardless — sampling decides recording, never identity —
    /// so trace ids are byte-identical across sample rates.
    pub trace_sample_permille: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_depth: 64,
            tenant_quota: 32,
            classes: 2,
            batch_max: 8,
            batch_window: 100,
            instances: 2,
            compute_bound: 4,
            trace_sample_permille: 1000,
        }
    }
}

/// Per-class outcome statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassStats {
    /// Priority class index.
    pub class: usize,
    /// Requests served by deadline.
    pub served: u64,
    /// Requests shed (all reasons).
    pub shed: u64,
    /// Median served latency in ticks.
    pub p50: u64,
    /// 95th-percentile served latency in ticks.
    pub p95: u64,
    /// 99th-percentile served latency in ticks.
    pub p99: u64,
}

/// The accounted outcome of one serving run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeReport {
    /// Requests offered (the whole arrival stream).
    pub offered: u64,
    /// Requests completed by their deadline.
    pub served: u64,
    /// Shed: deadline passed while queued.
    pub shed_expired: u64,
    /// Shed at dispatch: could not finish by deadline even solo.
    pub shed_would_miss: u64,
    /// Shed after completion: a stall pushed the batch past the deadline.
    pub shed_late: u64,
    /// Shed because the compute model failed (panicked) on the batch.
    pub shed_compute: u64,
    /// Rejected at admission: backlog depth bound.
    pub rejected_queue_full: u64,
    /// Rejected at admission: tenant quota.
    pub rejected_quota: u64,
    /// Rejected at admission: the engine was draining.
    pub rejected_draining: u64,
    /// Requests re-queued out of killed batches (still accounted once).
    pub requeued: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Total items across dispatched batches.
    pub batch_items: u64,
    /// Tick of the last processed event.
    pub makespan: Tick,
    /// Per-class served/shed/latency statistics.
    pub per_class: Vec<ClassStats>,
    /// Per-instance busy ticks.
    pub instance_busy: Vec<u64>,
    /// Per-instance down ticks.
    pub instance_down: Vec<u64>,
    /// Pool-kill fault events applied.
    pub kills: u64,
    /// Pool-stall fault events applied.
    pub stalls: u64,
    /// FNV-1a digest of all served outputs in completion order — the
    /// witness that results are identical across worker counts.
    pub output_checksum: u64,
}

impl ServeReport {
    /// Total shed requests.
    pub fn shed(&self) -> u64 {
        self.shed_expired + self.shed_would_miss + self.shed_late + self.shed_compute
    }

    /// Total rejected requests.
    pub fn rejected(&self) -> u64 {
        self.rejected_queue_full + self.rejected_quota + self.rejected_draining
    }

    /// The accounting invariant: every offered request ended in exactly
    /// one verdict.
    pub fn accounted(&self) -> bool {
        self.served + self.shed() + self.rejected() == self.offered
    }

    /// Pool availability in permille: `1000 * (1 - down / capacity)` where
    /// capacity is `instances * makespan` ticks.
    pub fn availability_permille(&self) -> u64 {
        let capacity = self.makespan * self.instance_down.len() as u64;
        if capacity == 0 {
            return 1000;
        }
        let down: u64 = self.instance_down.iter().sum();
        1000 - (1000 * down.min(capacity)) / capacity
    }

    /// Deterministic multi-line rendering (integer arithmetic only) — the
    /// byte-identity artifact the CI jobs gate diffs.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "serve: offered {} served {} shed {} (expired {}, would-miss {}, late {}, compute {}) \
             rejected {} (queue-full {}, quota {}, draining {})\n",
            self.offered,
            self.served,
            self.shed(),
            self.shed_expired,
            self.shed_would_miss,
            self.shed_late,
            self.shed_compute,
            self.rejected(),
            self.rejected_queue_full,
            self.rejected_quota,
            self.rejected_draining,
        ));
        let mean_batch_x100 = (self.batch_items * 100).checked_div(self.batches).unwrap_or(0);
        s.push_str(&format!(
            "batches {} items {} mean-batch-x100 {} requeued {} makespan {}\n",
            self.batches, self.batch_items, mean_batch_x100, self.requeued, self.makespan,
        ));
        for c in &self.per_class {
            s.push_str(&format!(
                "class {}: served {} shed {} p50 {} p95 {} p99 {}\n",
                c.class, c.served, c.shed, c.p50, c.p95, c.p99,
            ));
        }
        s.push_str(&format!(
            "pool: busy {:?} down {:?} kills {} stalls {} availability-permille {}\n",
            self.instance_busy,
            self.instance_down,
            self.kills,
            self.stalls,
            self.availability_permille(),
        ));
        s.push_str(&format!("output-checksum {:#018x}\n", self.output_checksum));
        s
    }
}

/// What an engine still held when [`ServeEngine::drain`] was called:
/// the residue it must finish before it can be retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainResidue {
    /// Requests still queued in the backlog.
    pub queued: usize,
    /// Requests in flight on pool instances.
    pub in_flight: usize,
}

/// The serve-clock timers the engine posts into the event kernel. Each
/// is validated against the live state at pop time: a popped timer whose
/// kind no longer predicts that tick is superseded and skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServeTimer {
    /// Next request arrival (always fires: arrivals never move).
    Arrival,
    /// Next pool transition: batch completion or instance recovery.
    Pool,
    /// A scheduled chaos fault (the whole plan posts up front).
    Chaos,
    /// Earliest queued deadline expires (sheds at deadline + 1).
    Expiry,
    /// A class's batch window ages out.
    Window(usize),
    /// A class head's last safe dispatch tick.
    Safe(usize),
}

/// Last posted due time per timer kind — a timer already pending for
/// the same tick is not re-posted (pending is guaranteed: the kernel
/// hand trails the serve clock, so a memoized future tick is unpopped).
#[derive(Debug, Clone, Default)]
struct TimerMemo {
    arrival: Option<Tick>,
    pool: Option<Tick>,
    expiry: Option<Tick>,
    window: Vec<Option<Tick>>,
    safe: Vec<Option<Tick>>,
}

/// The kernel domains of the serve clock, in same-tick priority order.
struct ServeDomains {
    arrival: DomainId,
    pool: DomainId,
    chaos: DomainId,
    expiry: DomainId,
    batch: DomainId,
}

impl ServeDomains {
    fn register() -> Self {
        let mut reg = DomainRegistry::new();
        ServeDomains {
            arrival: reg.register("arrival"),
            pool: reg.register("pool"),
            chaos: reg.register("chaos"),
            expiry: reg.register("expiry"),
            batch: reg.register("batch"),
        }
    }
}

/// The deadline-aware serving engine.
pub struct ServeEngine {
    cfg: ServeConfig,
    model: AcceleratorModel,
    arrivals: Vec<Request>,
    cursor: usize,
    /// Externally submitted requests (fleet routing) waiting for the next
    /// step's admission phase — admitted through the exact same path as
    /// internal arrivals so an externally stepped engine is byte-identical
    /// to `run`.
    incoming: Vec<Request>,
    /// Draining: admit nothing new, finish what is held.
    draining: bool,
    backlog: Backlog,
    pool: Pool,
    plan: Option<FaultPlan>,
    obs: Recorder,
    slo: Option<SloEngine>,
    /// Trace contexts of in-flight *sampled* requests, keyed by request
    /// id. Contexts are minted for every arrival (identity is sampling-
    /// independent) but only sampled ones are kept and recorded.
    traces: HashMap<u64, TraceCtx>,
    now: Tick,
    memo: TimerMemo,
    /// [`Self::next_due`]'s last answer; `None` once the state has moved.
    next_due: Cell<Option<Option<Tick>>>,
    /// Ticks the engine actually woke on (== processed steps).
    wakes: u64,
    /// Scheduler counters of the last `run` (E18 exports these).
    kernel_stats: WheelStats,
    // accounting
    verdicts: Vec<(u64, Verdict)>,
    /// Requests this engine is accountable for: every admission-phase
    /// entry increments it, a failover evacuation (the request moves to
    /// another shard) decrements it. Equal to `arrivals.len()` for a
    /// plain `run`.
    offered: u64,
    served: u64,
    shed_expired: u64,
    shed_would_miss: u64,
    shed_late: u64,
    shed_compute: u64,
    rejected_queue_full: u64,
    rejected_quota: u64,
    rejected_draining: u64,
    requeued: u64,
    batches: u64,
    batch_items: u64,
    kills: u64,
    stalls: u64,
    checksum: u64,
    class_served: Vec<u64>,
    class_shed: Vec<u64>,
    class_latency: Vec<Histogram>,
}

impl ServeEngine {
    /// An engine over `arrivals` (any order; they are sorted by
    /// `(arrival, id)` internally).
    pub fn new(cfg: ServeConfig, model: AcceleratorModel, mut arrivals: Vec<Request>) -> Self {
        arrivals.sort_by_key(|r| (r.arrival, r.id));
        let classes = cfg.classes.max(1);
        ServeEngine {
            backlog: Backlog::new(classes, cfg.queue_depth, cfg.tenant_quota),
            pool: Pool::new(cfg.instances),
            plan: None,
            obs: Recorder::disabled(),
            slo: None,
            traces: HashMap::new(),
            now: 0,
            memo: TimerMemo {
                window: vec![None; classes],
                safe: vec![None; classes],
                ..TimerMemo::default()
            },
            next_due: Cell::new(None),
            wakes: 0,
            kernel_stats: WheelStats::default(),
            cursor: 0,
            incoming: Vec::new(),
            draining: false,
            verdicts: Vec::with_capacity(arrivals.len()),
            offered: 0,
            served: 0,
            shed_expired: 0,
            shed_would_miss: 0,
            shed_late: 0,
            shed_compute: 0,
            rejected_queue_full: 0,
            rejected_quota: 0,
            rejected_draining: 0,
            requeued: 0,
            batches: 0,
            batch_items: 0,
            kills: 0,
            stalls: 0,
            checksum: 0,
            class_served: vec![0; classes],
            class_shed: vec![0; classes],
            class_latency: (0..classes).map(|_| Histogram::new(&LATENCY_BOUNDS)).collect(),
            cfg,
            model,
            arrivals,
        }
    }

    /// Attach a chaos fault plan; `PoolKill`/`PoolStall` events are
    /// applied at their scheduled tick, other subsystems' events are
    /// ignored (they target the boot/bus campaigns).
    #[must_use]
    pub fn with_chaos(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self.next_due.set(None);
        self
    }

    /// Attach a recorder (usually a child of the caller's) that receives
    /// serve metrics and chaos instants during the run.
    #[must_use]
    pub fn with_recorder(mut self, obs: Recorder) -> Self {
        self.obs = obs;
        self
    }

    /// Attach an SLO engine: every verdict is fed to it on the simulated
    /// clock, alert-state transitions are recorded as `slo` instants, and
    /// the current state of each spec is exported as an `alert_<spec>`
    /// gauge.
    #[must_use]
    pub fn with_slo(mut self, slo: SloEngine) -> Self {
        self.slo = Some(slo);
        self
    }

    /// The attached SLO engine (inspect states/verdicts after `run`).
    pub fn slo(&self) -> Option<&SloEngine> {
        self.slo.as_ref()
    }

    /// Ticks the engine woke on during `run` (each wake runs one full
    /// phased step; every other tick of the makespan was skipped).
    pub fn wakes(&self) -> u64 {
        self.wakes
    }

    /// Scheduler counters of the last `run` (wheel occupancy, cascades).
    pub fn kernel_stats(&self) -> &WheelStats {
        &self.kernel_stats
    }

    /// The attached recorder (absorb it into a parent after `run`).
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// Replace the recorder in place (the fleet re-wires shard recorders
    /// when a recorder is attached after the shards were spawned).
    pub fn set_recorder(&mut self, obs: Recorder) {
        self.obs = obs;
    }

    /// One verdict per offered request, in decision order (accounting
    /// audit trail; never contains duplicates).
    pub fn verdicts(&self) -> &[(u64, Verdict)] {
        &self.verdicts
    }

    // ---- fleet stepping API -------------------------------------------
    //
    // A fleet drives shard engines externally instead of calling `run`:
    // it submits routed requests, advances each shard at exactly the
    // ticks `next_due` predicts (plus delivery ticks), and collects the
    // report with `finish`. Because submissions drain through the same
    // admission phase as internal arrivals, a single externally stepped
    // shard is byte-identical to a bare `run` over the same stream.

    /// Submit a routed request; it is admitted in the next step's
    /// admission phase (after any internal arrivals, in submit order).
    pub fn submit(&mut self, req: Request) {
        self.incoming.push(req);
    }

    /// Advance the serve clock to `t` (monotonic) and process one full
    /// phased step there — the externally driven equivalent of one `run`
    /// wake.
    pub fn advance(&mut self, t: Tick) {
        debug_assert!(t >= self.now, "serve clock is monotonic");
        self.now = t;
        self.step();
        self.wakes += 1;
    }

    /// The earliest tick strictly after `now` at which this engine has
    /// work due — the externally driven equivalent of the timers `run`
    /// would post. `None` means the engine is idle until new work is
    /// submitted.
    ///
    /// Answered from a memo: the fleet asks every shard several times per
    /// wake, while what this reads only moves in `step`, `evacuate` and
    /// `with_chaos`, which clear the memo.
    pub fn next_due(&self) -> Option<Tick> {
        if let Some(due) = self.next_due.get() {
            debug_assert_eq!(due, self.compute_next_due(), "stale next_due memo");
            return due;
        }
        let due = self.compute_next_due();
        self.next_due.set(Some(due));
        due
    }

    /// [`Self::next_due`] recomputed from the live state.
    fn compute_next_due(&self) -> Option<Tick> {
        let now = self.now;
        let svc1 = self.model.service_cycles(1);
        let mut due: Option<Tick> = None;
        let mut consider = |t: Option<Tick>| {
            if let Some(t) = t {
                if t > now && due.is_none_or(|d| t < d) {
                    due = Some(t);
                }
            }
        };
        consider(self.arrivals.get(self.cursor).map(|r| r.arrival));
        consider(self.pool.next_transition());
        if !(self.backlog.is_empty() && self.cursor >= self.arrivals.len()) {
            consider(self.plan.as_ref().and_then(FaultPlan::peek_cycle));
        }
        consider(self.backlog.earliest_deadline().map(|d| d + 1));
        for class in 0..self.backlog.class_count() {
            consider(self.backlog.oldest_arrival(class).map(|o| o + self.cfg.batch_window));
            consider(self.backlog.head_deadline(class).map(|h| h.saturating_sub(svc1)));
        }
        due
    }

    /// Stop admitting: every subsequent submission or internal arrival is
    /// rejected as draining, while queued and in-flight work keeps being
    /// served. Returns the residue still held at the drain point.
    pub fn drain(&mut self) -> DrainResidue {
        self.draining = true;
        DrainResidue {
            queued: self.backlog.len() + self.incoming.len(),
            in_flight: self.pool.in_flight_requests(),
        }
    }

    /// Whether the engine holds no work at all (drained shards quiesce
    /// before retirement).
    pub fn quiescent(&self) -> bool {
        self.cursor >= self.arrivals.len()
            && self.incoming.is_empty()
            && self.backlog.is_empty()
            && self.pool.busy_count() == 0
    }

    /// Failover evacuation: pull every queued, pending, and in-flight
    /// request out of the engine (deterministic order: backlog classes in
    /// EDF order, then pending submissions, then pool batches in instance
    /// order) and stop accounting for them — the fleet re-routes them to
    /// surviving shards, where they are offered again. Trace contexts of
    /// evacuated requests are dropped; the destination mints fresh ones.
    pub fn evacuate(&mut self) -> Vec<Request> {
        self.next_due.set(None);
        let mut out = Vec::new();
        for class in 0..self.backlog.class_count() {
            let n = self.backlog.class_len(class);
            out.extend(self.backlog.take(class, n));
        }
        out.append(&mut self.incoming);
        for batch in self.pool.evacuate() {
            out.extend(batch.requests);
        }
        for req in &out {
            self.offered -= 1;
            self.traces.remove(&req.id);
        }
        out
    }

    /// Queue pressure the balancer routes on: queued plus not-yet-admitted
    /// submissions.
    pub fn queued_hint(&self) -> usize {
        self.backlog.len() + self.incoming.len()
    }

    /// Whether submitted requests are waiting for the next step's
    /// admission phase (the fleet must advance the engine to deliver them).
    pub fn has_incoming(&self) -> bool {
        !self.incoming.is_empty()
    }

    /// The engine's current serve-clock tick.
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Per-class served-latency histograms (the scaler's p99 input).
    pub fn class_latency(&self) -> &[Histogram] {
        &self.class_latency
    }

    /// Instances in this engine's pool.
    pub fn pool_size(&self) -> usize {
        self.pool.size()
    }

    /// Instances currently serving a batch.
    pub fn pool_busy(&self) -> usize {
        self.pool.busy_count()
    }

    /// Finish an externally stepped engine: final accounting and the
    /// report (the counterpart of the tail of `run`). Call once.
    pub fn finish(&mut self) -> ServeReport {
        self.finalize()
    }

    /// Run to completion: every offered request ends in a verdict.
    ///
    /// The loop is timer-driven: after each phased step the engine posts
    /// the next due tick of every phase into the kernel, then pops wake
    /// candidates until one still matches the live state. The first
    /// live timer is exactly the minimum pending event tick, so the
    /// serve clock advances event to event with no per-tick polling.
    pub fn run(&mut self) -> ServeReport {
        let mut sched: TimerWheel<ServeTimer> = TimerWheel::new();
        let domains = ServeDomains::register();
        // chaos has a single timeline: the whole plan posts up front
        // instead of being peeked every step
        if let Some(plan) = &self.plan {
            for cycle in plan.pending_cycles() {
                if cycle > 0 {
                    sched
                        .post(cycle, domains.chaos, ServeTimer::Chaos)
                        .expect("fault timeline is in the future");
                }
            }
        }
        loop {
            self.step();
            self.wakes += 1;
            self.post_timers(&mut sched, &domains);
            match self.next_wake(&mut sched) {
                Some(t) => {
                    debug_assert!(t > self.now, "event clock must advance");
                    self.now = t;
                }
                None => break,
            }
        }
        self.kernel_stats = *sched.stats();
        self.finalize()
    }

    /// Process every phase due at the current tick, in the fixed order:
    /// recover, complete, faults, arrivals, shed-expired, dispatch.
    fn step(&mut self) {
        self.next_due.set(None);
        let now = self.now;
        self.pool.account_until(now);
        self.pool.recover_until(now);

        let done = self.pool.complete_until(now);
        for (_instance, batch) in done {
            self.complete_batch(batch);
        }

        let faults: Vec<_> = match self.plan.as_mut() {
            Some(plan) => plan.drain_until(now),
            None => Vec::new(),
        };
        for ev in faults {
            self.apply_fault(ev.kind);
        }

        // nothing reads an arrival behind the cursor: move its payload
        while self.cursor < self.arrivals.len() && self.arrivals[self.cursor].arrival <= now {
            let next = &mut self.arrivals[self.cursor];
            let req = Request { input: std::mem::take(&mut next.input), ..*next };
            self.cursor += 1;
            self.admit(req);
        }
        // externally submitted (fleet-routed) requests enter through the
        // same admission phase, after internal arrivals, in submit order
        if !self.incoming.is_empty() {
            let incoming = std::mem::take(&mut self.incoming);
            for req in incoming {
                self.admit(req);
            }
        }

        for req in self.backlog.expire(now) {
            self.shed_expired += 1;
            let class = self.class_of(&req);
            self.class_shed[class] += 1;
            self.settle(req.id, Verdict::Shed(ShedReason::DeadlineExpired));
        }

        self.dispatch();
        self.obs
            .gauge_set("serve", "queue_depth", self.backlog.len() as i64);
    }

    /// The admission phase for one request: count it offered, mint its
    /// trace context, and either queue it or settle a rejection verdict.
    /// Internal arrivals and fleet-submitted requests share this path, so
    /// the verdict stream is identical however requests reach the engine.
    fn admit(&mut self, req: Request) {
        let now = self.now;
        let id = req.id;
        self.offered += 1;
        // mint for every arrival — identity must not depend on the
        // sample rate — but only sampled contexts are kept/recorded
        let ctx = self.obs.mint_trace();
        if ctx.is_traced() && ctx.sampled(self.cfg.trace_sample_permille) {
            self.traces.insert(id, ctx);
            // no args: the trace link is the identity, and the root
            // span emitted at completion carries id/class — sampled
            // admission stays cheap (~one ring push per arrival)
            self.obs.trace_instant("serve", "arrive", ClockDomain::Cpu, now, &[], ctx);
        }
        if self.draining {
            self.rejected_draining += 1;
            self.settle(id, Verdict::Rejected(RejectReason::Draining));
            return;
        }
        match self.backlog.offer(req) {
            Ok(()) => {}
            Err(RejectReason::QueueFull) => {
                self.rejected_queue_full += 1;
                self.settle(id, Verdict::Rejected(RejectReason::QueueFull));
            }
            Err(RejectReason::TenantQuota) => {
                self.rejected_quota += 1;
                self.settle(id, Verdict::Rejected(RejectReason::TenantQuota));
            }
            Err(RejectReason::Draining) => unreachable!("backlog never rejects as draining"),
        }
    }

    fn class_of(&self, req: &Request) -> usize {
        (req.class as usize).min(self.class_shed.len() - 1)
    }

    /// Deadline-aware batch formation. Queues are EDF-sorted, so the
    /// binding deadline of any prefix batch is the head's: shed heads that
    /// cannot finish even solo, then take the largest batch the head's
    /// deadline still admits.
    fn dispatch(&mut self) {
        let svc1 = self.model.service_cycles(1);
        let now = self.now;
        'classes: for class in 0..self.backlog.class_count() {
            loop {
                let Some(instance) = self.pool.first_idle() else {
                    break 'classes;
                };
                // shed heads that would miss even in the smallest batch
                while let Some(d) = self.backlog.head_deadline(class) {
                    if d < now + svc1 {
                        for req in self.backlog.take(class, 1) {
                            self.shed_would_miss += 1;
                            let c = self.class_of(&req);
                            self.class_shed[c] += 1;
                            self.settle(req.id, Verdict::Shed(ShedReason::WouldMissDeadline));
                        }
                    } else {
                        break;
                    }
                }
                let qlen = self.backlog.class_len(class);
                if qlen == 0 {
                    break;
                }
                let head = self.backlog.head_deadline(class).expect("non-empty class");
                let oldest = self.backlog.oldest_arrival(class).expect("non-empty class");
                let full = qlen >= self.cfg.batch_max;
                let aged = now >= oldest + self.cfg.batch_window;
                let urgent = head <= now + svc1;
                if !(full || aged || urgent) {
                    break;
                }
                // largest k the head's deadline admits
                let mut k = qlen.min(self.cfg.batch_max).max(1);
                while k > 1 && head < now + self.model.service_cycles(k) {
                    k -= 1;
                }
                let requests = self.backlog.take(class, k);
                let finish = now + self.model.service_cycles(requests.len());
                self.batches += 1;
                self.batch_items += requests.len() as u64;
                self.obs
                    .observe("serve", "batch_size", &BATCH_BOUNDS, requests.len() as u64);
                for req in &requests {
                    if let Some(&ctx) = self.traces.get(&req.id) {
                        // instance only: id and batch size ride on the
                        // root span; the dispatch instant pins *where*
                        // and *when* the request left the queue
                        self.obs.trace_instant(
                            "serve",
                            "dispatch",
                            ClockDomain::Cpu,
                            now,
                            &[("instance", instance.to_string())],
                            ctx,
                        );
                    }
                }
                self.pool.dispatch(
                    instance,
                    Batch {
                        class,
                        requests,
                        dispatched: now,
                        finish,
                    },
                );
            }
        }
    }

    /// A batch finished: evaluate payloads inline, in batch order, and
    /// assign verdicts. On-time members are served and folded into the
    /// output checksum; a stall that pushed the batch past a member's
    /// deadline sheds that member as completed-late. A compute-model
    /// panic degrades gracefully: the whole batch is shed as
    /// compute-failed instead of killing the engine, so the accounting
    /// invariant (`served + shed + rejected == offered`) survives a
    /// hostile or buggy model.
    fn complete_batch(&mut self, batch: Batch) {
        let model = &self.model;
        let outputs = match catch_unwind(AssertUnwindSafe(|| {
            batch
                .requests
                .iter()
                .map(|r| model.compute(&r.input))
                .collect::<Vec<_>>()
        })) {
            Ok(outputs) => outputs,
            Err(_) => {
                self.obs.instant(
                    "serve",
                    "compute-failed",
                    ClockDomain::Cpu,
                    self.now,
                    &[("items", batch.requests.len().to_string())],
                );
                for req in &batch.requests {
                    self.shed_compute += 1;
                    let class = self.class_of(req);
                    self.class_shed[class] += 1;
                    self.settle(req.id, Verdict::Shed(ShedReason::ComputeFailed));
                }
                return;
            }
        };
        let k = batch.requests.len();
        for (req, out) in batch.requests.iter().zip(outputs.iter()) {
            if batch.finish <= req.deadline {
                let latency = batch.finish - req.arrival;
                self.served += 1;
                let class = self.class_of(req);
                self.class_served[class] += 1;
                self.class_latency[class].observe(latency);
                // static names for the common class counts: one histogram
                // observe per served request must not allocate
                const CLASS_HIST: [&str; 4] =
                    ["latency_class0", "latency_class1", "latency_class2", "latency_class3"];
                match CLASS_HIST.get(class) {
                    Some(name) => self.obs.observe("serve", name, &LATENCY_BOUNDS, latency),
                    None => self.obs.observe(
                        "serve",
                        &format!("latency_class{class}"),
                        &LATENCY_BOUNDS,
                        latency,
                    ),
                }
                self.checksum = fnv1a_words(self.checksum, out);
                self.trace_request_path(req, &batch, k, latency);
                self.settle(req.id, Verdict::Served { latency });
            } else {
                self.shed_late += 1;
                let class = self.class_of(req);
                self.class_shed[class] += 1;
                self.settle(req.id, Verdict::Shed(ShedReason::CompletedLate));
            }
        }
    }

    /// Emit the causal trace of one served request: a `request` root span
    /// covering arrival→completion, decomposed into child segments —
    /// queue wait, batch overhead, accelerator service, DMA, and any
    /// fault-induced stall — that sum to the end-to-end latency *exactly*
    /// (the profiler's critical-path invariant). Zero-length segments are
    /// elided; elision never breaks the sum.
    fn trace_request_path(&self, req: &Request, batch: &Batch, k: usize, latency: u64) {
        let Some(&ctx) = self.traces.get(&req.id) else {
            return;
        };
        let root = self.obs.trace_span(
            "serve",
            "request",
            ClockDomain::Cpu,
            req.arrival,
            latency,
            &[
                ("id", req.id.to_string()),
                ("class", req.class.to_string()),
                ("batch", k.to_string()),
            ],
            WallMark::none(),
            ctx,
        );
        let child = ctx.child(root);
        let k64 = k as u64;
        let queue_wait = batch.dispatched - req.arrival;
        let service = self.model.per_item * k64;
        let dma = self.model.dma_per_item * k64;
        let stall = (batch.finish - batch.dispatched) - self.model.service_cycles(k);
        let mut t = req.arrival;
        for (name, dur) in [
            ("queue-wait", queue_wait),
            ("batch-overhead", self.model.batch_overhead),
            ("service", service),
            ("dma", dma),
            ("stall", stall),
        ] {
            if dur > 0 {
                self.obs
                    .trace_span("serve", name, ClockDomain::Cpu, t, dur, &[], WallMark::none(), child);
                t += dur;
            }
        }
        debug_assert_eq!(t - req.arrival, latency, "segments must sum to latency");
    }

    /// Final accounting for one request: retire its trace context
    /// (emitting a terminal instant for non-served outcomes), record the
    /// verdict, and feed the SLO engine on the simulated clock —
    /// emitting an `slo` instant and refreshing the `alert_<spec>` gauge
    /// on every alert-state transition.
    fn settle(&mut self, id: u64, verdict: Verdict) {
        let ctx = self.traces.remove(&id).unwrap_or_default();
        if ctx.is_traced() {
            let terminal = match verdict {
                Verdict::Rejected(r) => Some(("reject", r.as_str())),
                Verdict::Shed(r) => Some(("shed", r.as_str())),
                Verdict::Served { .. } => None, // the root span is the terminator
            };
            if let Some((name, reason)) = terminal {
                self.obs.trace_instant(
                    "serve",
                    name,
                    ClockDomain::Cpu,
                    self.now,
                    &[("id", id.to_string()), ("reason", reason.to_string())],
                    ctx,
                );
            }
        }
        self.verdicts.push((id, verdict));
        let outcome = match verdict {
            Verdict::Served { latency } => RequestOutcome {
                served: true,
                rejected: false,
                latency: Some(latency),
            },
            Verdict::Shed(_) => RequestOutcome { served: false, rejected: false, latency: None },
            Verdict::Rejected(_) => RequestOutcome { served: false, rejected: true, latency: None },
        };
        let transitions = match self.slo.as_mut() {
            Some(slo) => slo.record(self.now, &outcome),
            None => Vec::new(),
        };
        for t in transitions {
            self.obs.instant(
                "slo",
                "alert-transition",
                ClockDomain::Cpu,
                self.now,
                &[
                    ("spec", t.spec.clone()),
                    ("from", t.from.as_str().to_string()),
                    ("to", t.to.as_str().to_string()),
                    ("short_burn_x100", t.short_burn_x100.to_string()),
                    ("long_burn_x100", t.long_burn_x100.to_string()),
                ],
            );
            self.obs.gauge_set("slo", &format!("alert_{}", t.spec), t.to.as_gauge());
        }
    }

    fn apply_fault(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::PoolKill {
                instance,
                down_cycles,
            } => {
                self.kills += 1;
                let until = self.now + u64::from(down_cycles.max(1));
                self.obs.instant(
                    "serve",
                    "pool-kill",
                    ClockDomain::Cpu,
                    self.now,
                    &[("instance", instance.to_string())],
                );
                if let Some(batch) = self.pool.kill(usize::from(instance), until) {
                    for req in batch.requests {
                        self.requeued += 1;
                        self.backlog.requeue(req);
                    }
                }
            }
            FaultKind::PoolStall { instance, cycles } => {
                self.stalls += 1;
                self.obs.instant(
                    "serve",
                    "pool-stall",
                    ClockDomain::Cpu,
                    self.now,
                    &[("instance", instance.to_string())],
                );
                self.pool.stall(usize::from(instance), u64::from(cycles.max(1)));
            }
            // Other subsystems' faults target the boot/bus campaigns.
            _ => {}
        }
    }

    /// Post one timer kind's current due tick, unless it is not in the
    /// future or the same tick is already pending for that kind.
    fn post_timer(
        sched: &mut TimerWheel<ServeTimer>,
        memo: &mut Option<Tick>,
        due: Option<Tick>,
        now: Tick,
        domain: DomainId,
        timer: ServeTimer,
    ) {
        if let Some(t) = due {
            if t > now && *memo != Some(t) {
                sched.post(t, domain, timer).expect("future timer posts");
                *memo = Some(t);
            }
        }
    }

    /// Post the next due tick of every phase after a step. Superseded
    /// timers (the state moved on) stay in the kernel and are skipped at
    /// pop by [`Self::next_wake`]'s liveness check.
    fn post_timers(&mut self, sched: &mut TimerWheel<ServeTimer>, d: &ServeDomains) {
        let now = self.now;
        let svc1 = self.model.service_cycles(1);
        let arrival = self.arrivals.get(self.cursor).map(|r| r.arrival);
        Self::post_timer(sched, &mut self.memo.arrival, arrival, now, d.arrival, ServeTimer::Arrival);
        let pool = self.pool.next_transition();
        Self::post_timer(sched, &mut self.memo.pool, pool, now, d.pool, ServeTimer::Pool);
        // expiry: deadline < now sheds, so the wake lands at deadline + 1
        let expiry = self.backlog.earliest_deadline().map(|dl| dl + 1);
        Self::post_timer(sched, &mut self.memo.expiry, expiry, now, d.expiry, ServeTimer::Expiry);
        for class in 0..self.backlog.class_count() {
            let window = self.backlog.oldest_arrival(class).map(|o| o + self.cfg.batch_window);
            Self::post_timer(
                sched,
                &mut self.memo.window[class],
                window,
                now,
                d.batch,
                ServeTimer::Window(class),
            );
            // last safe dispatch of the class head
            let safe = self.backlog.head_deadline(class).map(|h| h.saturating_sub(svc1));
            Self::post_timer(
                sched,
                &mut self.memo.safe[class],
                safe,
                now,
                d.batch,
                ServeTimer::Safe(class),
            );
        }
    }

    /// Whether a popped timer still predicts tick `t` — i.e. its kind's
    /// current due tick is exactly `t`. Chaos timers additionally only
    /// matter while work remains (the engine never wakes just to apply a
    /// fault to an empty, finished system).
    fn timer_live(&self, timer: ServeTimer, t: Tick) -> bool {
        let svc1 = self.model.service_cycles(1);
        match timer {
            ServeTimer::Arrival => self.arrivals.get(self.cursor).map(|r| r.arrival) == Some(t),
            ServeTimer::Pool => self.pool.next_transition() == Some(t),
            ServeTimer::Chaos => {
                !(self.backlog.is_empty() && self.cursor >= self.arrivals.len())
                    && self.plan.as_ref().and_then(FaultPlan::peek_cycle) == Some(t)
            }
            ServeTimer::Expiry => self.backlog.earliest_deadline().map(|d| d + 1) == Some(t),
            ServeTimer::Window(class) => {
                self.backlog.oldest_arrival(class).map(|o| o + self.cfg.batch_window) == Some(t)
            }
            ServeTimer::Safe(class) => {
                self.backlog.head_deadline(class).map(|h| h.saturating_sub(svc1)) == Some(t)
            }
        }
    }

    /// Pop the next wake tick: the earliest pending timer that is still
    /// live. Every phase's current due tick is pending (posted after the
    /// last step), so the first live pop is exactly the minimum pending
    /// event tick strictly after `now`; `None` means the run is done.
    fn next_wake(&mut self, sched: &mut TimerWheel<ServeTimer>) -> Option<Tick> {
        while let Some(ev) = sched.pop_next() {
            // a timer at or behind the serve clock is always superseded
            if ev.time > self.now && self.timer_live(ev.payload, ev.time) {
                return Some(ev.time);
            }
        }
        None
    }

    fn finalize(&mut self) -> ServeReport {
        self.pool.account_until(self.now);
        let offered = self.offered;
        let per_class = (0..self.class_served.len())
            .map(|c| {
                let h = &self.class_latency[c];
                ClassStats {
                    class: c,
                    served: self.class_served[c],
                    shed: self.class_shed[c],
                    p50: h.percentile(0.50).unwrap_or(0),
                    p95: h.percentile(0.95).unwrap_or(0),
                    p99: h.percentile(0.99).unwrap_or(0),
                }
            })
            .collect();
        let report = ServeReport {
            offered,
            served: self.served,
            shed_expired: self.shed_expired,
            shed_would_miss: self.shed_would_miss,
            shed_late: self.shed_late,
            shed_compute: self.shed_compute,
            rejected_queue_full: self.rejected_queue_full,
            rejected_quota: self.rejected_quota,
            rejected_draining: self.rejected_draining,
            requeued: self.requeued,
            batches: self.batches,
            batch_items: self.batch_items,
            makespan: self.now,
            per_class,
            instance_busy: self.pool.busy_ticks.clone(),
            instance_down: self.pool.down_ticks.clone(),
            kills: self.kills,
            stalls: self.stalls,
            output_checksum: self.checksum,
        };
        for (name, v) in [
            ("offered", report.offered),
            ("served", report.served),
            ("shed", report.shed()),
            ("rejected", report.rejected()),
            ("requeued", report.requeued),
            ("batches", report.batches),
        ] {
            self.obs.counter_add("serve", name, v);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{self, WorkloadConfig};
    use hermes_chaos::plan::{FaultPlan, FaultPlanConfig};
    use std::collections::HashSet;

    fn model() -> AcceleratorModel {
        AcceleratorModel::new("double", 20, 40, |xs| xs.iter().map(|&x| x * 2).collect())
    }

    fn run_with(cfg: ServeConfig, load_pct: u64, seed: u64) -> (ServeReport, Vec<(u64, Verdict)>) {
        let wl = WorkloadConfig::default().at_load_pct(load_pct);
        let arrivals = workload::generate(seed, &wl);
        let mut engine = ServeEngine::new(cfg, model(), arrivals);
        let report = engine.run();
        (report, engine.verdicts().to_vec())
    }

    #[test]
    fn underload_serves_everything_admitted() {
        let (report, verdicts) = run_with(ServeConfig::default(), 50, 11);
        assert!(report.accounted(), "{report:?}");
        assert_eq!(report.offered, 400);
        assert!(report.served >= report.offered * 9 / 10, "{report:?}");
        assert_eq!(verdicts.len() as u64, report.offered);
    }

    #[test]
    fn overload_sheds_and_rejects_but_accounts_everything() {
        let cfg = ServeConfig {
            queue_depth: 16,
            tenant_quota: 8,
            ..ServeConfig::default()
        };
        let (report, verdicts) = run_with(cfg, 300, 7);
        assert!(report.accounted(), "{report:?}");
        assert!(report.rejected() > 0, "{report:?}");
        assert!(report.served > 0, "{report:?}");
        // every offered id got exactly one verdict
        let ids: HashSet<u64> = verdicts.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids.len(), verdicts.len(), "no duplicate verdicts");
        assert_eq!(ids.len() as u64, report.offered);
    }

    /// A replay of the same stream reports byte-identically and stays
    /// fully accounted.
    #[test]
    fn reports_identical_on_replay() {
        for load in [60, 180] {
            let (r1, v1) = run_with(ServeConfig::default(), load, 3);
            let (r2, v2) = run_with(ServeConfig::default(), load, 3);
            assert!(r1.accounted(), "load {load}: {r1:?}");
            assert_eq!(v1.len() as u64, r1.offered, "one verdict per request at load {load}");
            assert_eq!(r1, r2, "report differs at load {load}");
            assert_eq!(v1, v2, "verdict log differs at load {load}");
            assert_eq!(r1.render(), r2.render());
        }
    }

    #[test]
    fn chaos_kills_requeue_and_stay_accounted() {
        let wl = WorkloadConfig::default().at_load_pct(150);
        let arrivals = workload::generate(5, &wl);
        let span = arrivals.last().unwrap().arrival;
        let plan = FaultPlan::generate(99, &FaultPlanConfig::pool_only(span, 6, 4, 500, 2));
        let mut engine = ServeEngine::new(ServeConfig::default(), model(), arrivals).with_chaos(plan);
        let report = engine.run();
        assert!(report.accounted(), "{report:?}");
        assert_eq!(report.kills, 6);
        assert_eq!(report.stalls, 4);
        assert!(report.requeued > 0, "a kill should land mid-batch: {report:?}");
        assert!(report.instance_down.iter().sum::<u64>() > 0);
        assert!(report.availability_permille() < 1000);
        let ids: HashSet<u64> = engine.verdicts().iter().map(|&(id, _)| id).collect();
        assert_eq!(ids.len() as u64, report.offered, "no silent drops under chaos");
    }

    /// A chaos run replays byte-identically and stays fully accounted.
    #[test]
    fn chaos_run_identical_on_replay() {
        let mk = || {
            let wl = WorkloadConfig::default().at_load_pct(150);
            let arrivals = workload::generate(5, &wl);
            let span = arrivals.last().unwrap().arrival;
            let plan = FaultPlan::generate(99, &FaultPlanConfig::pool_only(span, 6, 4, 500, 2));
            let mut engine =
                ServeEngine::new(ServeConfig::default(), model(), arrivals).with_chaos(plan);
            let report = engine.run();
            assert!(report.accounted(), "{report:?}");
            (report.render(), report.output_checksum)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn panicking_model_sheds_batches_instead_of_killing_engine() {
        // a hostile compute model that panics on inputs divisible by 5:
        // the engine must survive, shed those batches as compute-failed,
        // and keep every request accounted
        let hostile = AcceleratorModel::new("hostile", 20, 40, |xs| {
            assert!(!xs.iter().any(|&x| x % 5 == 0), "hostile input");
            xs.iter().map(|&x| x * 2).collect()
        });
        let wl = WorkloadConfig::default().at_load_pct(80);
        let arrivals = workload::generate(13, &wl);
        let mut engine = ServeEngine::new(ServeConfig::default(), hostile, arrivals);
        let report = engine.run();
        assert!(report.accounted(), "{report:?}");
        assert!(report.shed_compute > 0, "panics landed: {report:?}");
        assert!(report.served > 0, "clean batches still served: {report:?}");
        assert!(
            engine
                .verdicts()
                .iter()
                .any(|&(_, v)| v == Verdict::Shed(ShedReason::ComputeFailed)),
            "compute-failed verdicts recorded"
        );
        assert!(report.render().contains("compute"));

        // an always-panicking model: nothing served, still fully accounted
        let toxic = AcceleratorModel::new("toxic", 20, 40, |_| panic!("boom"));
        let arrivals = workload::generate(13, &WorkloadConfig::default().at_load_pct(80));
        let mut engine = ServeEngine::new(ServeConfig::default(), toxic, arrivals);
        let report = engine.run();
        assert!(report.accounted(), "{report:?}");
        assert_eq!(report.served, 0);
        assert!(report.shed_compute > 0);
    }

    /// Inline evaluation sheds exactly the batches that hold a panicking
    /// input. A compute failure moves no timing, so a clean model replays
    /// the same schedule; with one instance, batches run back to back and
    /// a batch's members are the requests served on the same finish tick.
    #[test]
    fn panicking_model_sheds_exactly_the_hostile_batches() {
        let hostile_input = |xs: &[i64]| xs.iter().any(|&x| x % 5 == 0);
        let hostile = AcceleratorModel::new("hostile", 20, 40, move |xs| {
            assert!(!hostile_input(xs), "hostile input");
            xs.iter().map(|&x| x * 2).collect()
        });
        let cfg = ServeConfig {
            instances: 1,
            ..ServeConfig::default()
        };
        let arrivals = workload::generate(13, &WorkloadConfig::default().at_load_pct(80));
        let by_id: HashMap<u64, &Request> = arrivals.iter().map(|r| (r.id, r)).collect();
        let mut clean = ServeEngine::new(cfg.clone(), model(), arrivals.clone());
        clean.run();
        let mut batches: HashMap<Tick, Vec<u64>> = HashMap::new();
        for &(id, v) in clean.verdicts() {
            if let Verdict::Served { latency } = v {
                batches.entry(by_id[&id].arrival + latency).or_default().push(id);
            }
        }
        let failed: HashSet<u64> = batches
            .values()
            .filter(|ids| ids.iter().any(|id| hostile_input(&by_id[id].input)))
            .flatten()
            .copied()
            .collect();
        let want: Vec<(u64, Verdict)> = clean
            .verdicts()
            .iter()
            .map(|&(id, v)| {
                if failed.contains(&id) {
                    (id, Verdict::Shed(ShedReason::ComputeFailed))
                } else {
                    (id, v)
                }
            })
            .collect();

        let mut engine = ServeEngine::new(cfg, hostile, arrivals.clone());
        let report = engine.run();
        assert!(report.accounted(), "{report:?}");
        assert!(report.served > 0, "clean batches still served: {report:?}");
        assert_eq!(report.shed_compute, failed.len() as u64, "{report:?}");
        assert!(!failed.is_empty() && failed.len() < batches.values().flatten().count());
        assert_eq!(
            engine.verdicts(),
            want.as_slice(),
            "only affected batches are shed"
        );
    }

    #[test]
    fn strict_priority_favors_class_zero_under_overload() {
        let (report, _) = run_with(ServeConfig::default(), 250, 21);
        assert!(report.accounted());
        let c0 = &report.per_class[0];
        let c1 = &report.per_class[1];
        assert!(c0.served > 0 && c1.served > 0);
        // class 0 is dispatched first; its served share must not be worse
        let share0 = c0.served * 1000 / (c0.served + c0.shed).max(1);
        let share1 = c1.served * 1000 / (c1.served + c1.shed).max(1);
        assert!(
            share0 >= share1,
            "priority inverted: {share0} vs {share1} ({report:?})"
        );
    }

    #[test]
    fn traced_run_has_exact_critical_paths_for_every_served_request() {
        let run = || {
            let wl = WorkloadConfig::default().at_load_pct(150);
            let arrivals = workload::generate(9, &wl);
            let mut engine = ServeEngine::new(ServeConfig::default(), model(), arrivals)
                .with_recorder(Recorder::new());
            let report = engine.run();
            (report, engine.recorder().snapshot())
        };
        let (report, snap) = run();
        let prof = hermes_obs::profile::profile(&snap);
        let (exact, total) = prof.exact_paths("request");
        assert_eq!(total, report.served, "one root span per served request");
        assert_eq!(exact, total, "every critical path must sum to its latency exactly");
        assert!(prof.spans.iter().any(|s| s.name == "queue-wait"));
        assert!(prof.spans.iter().any(|s| s.name == "service"));
        // byte-identical on replay
        let (_, snap2) = run();
        let prof2 = hermes_obs::profile::profile(&snap2);
        assert_eq!(format!("{prof:?}"), format!("{prof2:?}"));
    }

    #[test]
    fn sampling_bounds_recording_but_never_identity() {
        let run = |permille: u64| {
            let wl = WorkloadConfig::default().at_load_pct(120);
            let arrivals = workload::generate(17, &wl);
            let mut engine = ServeEngine::new(
                ServeConfig { trace_sample_permille: permille, ..ServeConfig::default() },
                model(),
                arrivals,
            )
            .with_recorder(Recorder::new());
            let report = engine.run();
            let snap = engine.recorder().snapshot();
            let traced: usize = snap
                .subsystems
                .iter()
                .flat_map(|s| s.events.iter())
                .filter(|e| e.trace.is_some())
                .count();
            (report, engine.verdicts().to_vec(), traced)
        };
        let (r_full, v_full, t_full) = run(1000);
        let (r_half, v_half, t_half) = run(500);
        let (r_none, v_none, t_none) = run(0);
        // sampling is an observability knob, never a results knob
        assert_eq!(r_full, r_half);
        assert_eq!(r_full, r_none);
        assert_eq!(v_full, v_half);
        assert_eq!(v_full, v_none);
        // and it really does bound the recording volume
        assert_eq!(t_none, 0);
        assert!(t_half > 0 && t_half < t_full, "{t_half} vs {t_full}");
    }

    #[test]
    fn slo_pages_under_sustained_overload_and_stays_ok_when_healthy() {
        use hermes_obs::slo::{AlertState, SloObjective, SloSpec};
        let run = |load_pct: u64| {
            let wl = WorkloadConfig::default().at_load_pct(load_pct);
            let arrivals = workload::generate(23, &wl);
            let makespan_hint = arrivals.last().unwrap().arrival;
            // overload at the admission queue manifests as rejections, so
            // availability (which counts them) is the objective that sees it
            let specs = vec![SloSpec::new(
                "avail",
                SloObjective::Availability { min_permille: 950 },
                (makespan_hint / 4).max(8),
            )];
            let mut engine = ServeEngine::new(ServeConfig::default(), model(), arrivals)
                .with_recorder(Recorder::new())
                .with_slo(hermes_obs::slo::SloEngine::new(specs));
            let report = engine.run();
            let worst = engine.slo().unwrap().worst_states()[0].1;
            let transitions = engine.slo().unwrap().verdicts().len();
            let snap = engine.recorder().snapshot();
            let gauged = snap
                .gauges
                .iter()
                .any(|(sub, name, _)| sub == "slo" && name == "alert_avail");
            (report, worst, transitions, gauged)
        };
        let (healthy, worst_ok, trans_ok, _) = run(50);
        assert!(healthy.accounted());
        assert_eq!(worst_ok, AlertState::Ok, "light load must never alert");
        assert_eq!(trans_ok, 0);
        let (overload, worst_bad, trans_bad, gauged) = run(300);
        assert!(overload.accounted());
        assert_eq!(worst_bad, AlertState::Page, "sustained overload must page");
        assert!(trans_bad > 0);
        assert!(gauged, "alert state exported as a gauge on transition");
    }

    /// The SLO engine's verdict feed replays identically.
    #[test]
    fn slo_feed_is_identical_on_replay() {
        use hermes_obs::slo::{SloObjective, SloSpec};
        let run = || {
            let wl = WorkloadConfig::default().at_load_pct(250);
            let arrivals = workload::generate(31, &wl);
            let mut engine = ServeEngine::new(
                ServeConfig { queue_depth: 16, ..ServeConfig::default() },
                model(),
                arrivals,
            )
            .with_slo(hermes_obs::slo::SloEngine::new(vec![SloSpec::new(
                "avail",
                SloObjective::Availability { min_permille: 900 },
                2000,
            )]));
            let report = engine.run();
            assert!(report.accounted(), "{report:?}");
            format!("{:?}", engine.slo().unwrap().verdicts())
        };
        assert_eq!(run(), run());
    }

    /// Drive an engine externally the way a fleet shard is driven: submit
    /// each request at its arrival tick, advance at every due/delivery
    /// tick until both the stream and the engine are exhausted.
    fn pump(e: &mut ServeEngine, reqs: &[Request]) {
        let mut i = 0;
        loop {
            let next_arrival = reqs.get(i).map(|r| r.arrival);
            let t = match (next_arrival, e.next_due()) {
                (Some(a), Some(d)) => a.min(d),
                (Some(a), None) => a,
                (None, Some(d)) => d,
                (None, None) => break,
            };
            let t = t.max(e.now());
            while reqs.get(i).is_some_and(|r| r.arrival <= t) {
                e.submit(reqs[i].clone());
                i += 1;
            }
            e.advance(t);
        }
    }

    #[test]
    fn externally_stepped_engine_matches_run_byte_identically() {
        for (load, seed) in [(60, 5), (150, 5), (250, 12)] {
            let wl = WorkloadConfig::default().at_load_pct(load);
            let arrivals = workload::generate(seed, &wl);
            let mut bare = ServeEngine::new(ServeConfig::default(), model(), arrivals.clone());
            let baseline = bare.run();
            let mut ext = ServeEngine::new(ServeConfig::default(), model(), Vec::new());
            pump(&mut ext, &arrivals);
            let report = ext.finish();
            assert_eq!(report, baseline, "load {load} seed {seed}");
            assert_eq!(report.render(), baseline.render());
            assert_eq!(ext.verdicts(), bare.verdicts());
        }
    }

    #[test]
    fn drain_stops_admission_and_preserves_accounting() {
        let wl = WorkloadConfig::default().at_load_pct(200);
        let arrivals = workload::generate(8, &wl);
        let half = arrivals.len() / 2;
        let mut e = ServeEngine::new(ServeConfig::default(), model(), Vec::new());
        // feed the first half only up to its last arrival tick, so work
        // is still queued/in flight when the drain lands
        let mut i = 0;
        let cutoff = arrivals[half - 1].arrival;
        while i < half {
            let t = arrivals[i].arrival;
            while i < half && arrivals[i].arrival <= t {
                e.submit(arrivals[i].clone());
                i += 1;
            }
            e.advance(t);
            if t >= cutoff {
                break;
            }
        }
        let residue = e.drain();
        assert!(
            residue.queued + residue.in_flight > 0,
            "drain landed on live work: {residue:?}"
        );
        // the residue finishes without new admissions
        while let Some(t) = e.next_due() {
            e.advance(t);
        }
        assert!(e.quiescent(), "drained engine quiesces");
        // late submissions are rejected as draining, still accounted
        let late = &arrivals[half..];
        for r in late {
            e.submit(r.clone());
        }
        let t = e.now() + 1;
        e.advance(t);
        let report = e.finish();
        assert!(report.accounted(), "{report:?}");
        assert_eq!(report.rejected_draining, late.len() as u64);
        assert!(report.served > 0);
        assert!(report.render().contains("draining"));
    }

    #[test]
    fn evacuate_hands_back_unsettled_work_and_keeps_accounting() {
        let wl = WorkloadConfig::default().at_load_pct(250);
        let arrivals = workload::generate(4, &wl);
        let half = arrivals.len() / 2;
        let mut e = ServeEngine::new(ServeConfig::default(), model(), Vec::new());
        let mut i = 0;
        while i < half {
            let t = arrivals[i].arrival;
            while i < half && arrivals[i].arrival <= t {
                e.submit(arrivals[i].clone());
                i += 1;
            }
            e.advance(t);
        }
        let submitted = half as u64;
        let evacuated = e.evacuate();
        assert!(!evacuated.is_empty(), "overloaded engine held work");
        assert!(e.quiescent(), "evacuation empties the engine");
        let settled: HashSet<u64> = e.verdicts().iter().map(|&(id, _)| id).collect();
        for req in &evacuated {
            assert!(!settled.contains(&req.id), "evacuated work has no verdict here");
        }
        let report = e.finish();
        assert!(report.accounted(), "{report:?}");
        assert_eq!(report.offered + evacuated.len() as u64, submitted);
    }

    #[test]
    fn next_due_memo_matches_a_fresh_computation_after_every_call() {
        let wl = WorkloadConfig::default().at_load_pct(250);
        let stream = workload::generate(6, &wl);
        let span = stream.last().unwrap().arrival;
        let plan = FaultPlan::generate(71, &FaultPlanConfig::pool_only(span, 6, 4, 500, 2));
        // the first half's even-indexed requests arrive internally, every
        // other one is submitted; the drain and the evacuation land after
        // the internal stream is spent, so both empty what `next_due` reads
        let half = stream.len() / 2;
        let (internal, external): (Vec<_>, Vec<_>) =
            stream.iter().cloned().enumerate().partition(|&(i, _)| i < half && i % 2 == 0);
        let drain_at = stream[stream.len() * 3 / 4].arrival;
        let internal: Vec<Request> = internal.into_iter().map(|(_, r)| r).collect();
        let mut external = external.into_iter().map(|(_, r)| r).peekable();
        let check = |e: &ServeEngine, call: &str| {
            assert_eq!(
                e.next_due(),
                e.compute_next_due(),
                "next_due after {call} at tick {}",
                e.now()
            );
        };
        let e = ServeEngine::new(ServeConfig::default(), model(), internal);
        check(&e, "new");
        let mut e = e.with_chaos(plan);
        check(&e, "with_chaos");
        let mut steps_since_drain = None;
        let mut evacuated = 0;
        loop {
            let t = match (external.peek().map(|r| r.arrival), e.next_due()) {
                (Some(a), Some(d)) => a.min(d),
                (Some(a), None) => a,
                (None, Some(d)) => d,
                (None, None) => break,
            };
            let t = t.max(e.now());
            while let Some(req) = external.next_if(|r| r.arrival <= t) {
                e.submit(req);
                check(&e, "submit");
            }
            e.advance(t);
            check(&e, "advance");
            match steps_since_drain {
                None if t >= drain_at => {
                    e.drain();
                    check(&e, "drain");
                    steps_since_drain = Some(0);
                }
                Some(3) => {
                    evacuated = e.evacuate().len();
                    check(&e, "evacuate");
                }
                _ => {}
            }
            if let Some(n) = steps_since_drain.as_mut() {
                *n += 1;
            }
        }
        let report = e.finish();
        assert!(evacuated > 0, "evacuation landed on held work");
        assert!(report.kills > 0 && report.stalls > 0, "{report:?}");
        assert!(report.rejected_draining > 0, "{report:?}");
        assert!(report.accounted(), "{report:?}");
    }

    #[test]
    fn recorder_sees_serve_metrics() {
        let wl = WorkloadConfig::default();
        let arrivals = workload::generate(2, &wl);
        let mut engine = ServeEngine::new(ServeConfig::default(), model(), arrivals)
            .with_recorder(Recorder::new());
        let report = engine.run();
        let snap = engine.recorder().snapshot();
        let served = snap
            .counters
            .iter()
            .find(|(sub, name, _)| sub == "serve" && name == "served")
            .expect("served counter exported");
        assert_eq!(served.2, report.served);
        assert!(snap
            .histograms
            .iter()
            .any(|(sub, name, _)| sub == "serve" && name == "batch_size"));
    }
}
