//! The fleet engine: one balancer, N shard engines, one timeline.
//!
//! Every shard is an independent [`ServeEngine`] (own admission queue,
//! own accelerator pool) that the fleet drives externally through the
//! serve crate's stepping API (`submit`/`advance`/`next_due`). The fleet
//! itself runs on a single [`hermes_kernel::TimerWheel`] timeline with
//! five timer domains — arrival, shard, chaos, scaler, revive — popped in
//! deterministic `(time, domain, seq)` order, so the whole fleet is as
//! replayable as one engine: byte-identical on every replay.
//!
//! Routing: a request's tenant hashes onto the consistent-hash
//! [`HashRing`]; that home shard takes it unless the home's queue
//! pressure is at the power-of-two-choices threshold, in which case a
//! second deterministic candidate is consulted and the less-loaded of
//! the two wins. Saturated shards still reject at admission (the
//! balancer never queues), so fleet-wide saturation degrades to
//! accounted shedding, never deadlock.
//!
//! Failover: a `ShardKill` fault evacuates the victim's queued and
//! in-flight requests and re-offers them to surviving shards through the
//! same routing path (counted `failover_rerouted`); with the whole ring
//! down they are accounted as balancer-shed. The victim rejoins the ring
//! after its outage.
//!
//! Elasticity: the [`Autoscaler`] reads the p99 of the *window* of
//! served-latency observations added since its last evaluation (a bucket
//! delta over the merged per-shard histograms) and either spawns a shard
//! or drains one — the drained shard leaves the ring, finishes what it
//! holds, and is only then retired (drain-then-kill).

use crate::ring::HashRing;
use crate::scaler::{Autoscaler, FleetSample, ScaleAction, ScalerConfig};
use crate::{mix64, Tick};
use hermes_chaos::plan::{FaultKind, FaultPlan};
use hermes_kernel::{DomainId, DomainRegistry, TimerWheel, WheelStats};
use hermes_obs::{ClockDomain, Histogram, Recorder};
use hermes_serve::engine::{ServeConfig, ServeEngine, ServeReport};
use hermes_serve::model::AcceleratorModel;
use hermes_serve::request::Request;

/// Salt separating tenant-key hashing from every other mix64 use.
const TENANT_SALT: u64 = 0x7e4a_4a17_5a1f_ed01;
/// Salt deriving the second power-of-two-choices candidate.
const PO2C_SALT: u64 = 0x0a17_e44a_7e5a_1f0d;

/// Fleet-level configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Initial shard count.
    pub shards: usize,
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: usize,
    /// Home-shard queue pressure (queued + pending) at or above which the
    /// power-of-two-choices fallback consults a second candidate.
    pub po2c_threshold: usize,
    /// Per-shard serving configuration.
    pub serve: ServeConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 4,
            vnodes: 128,
            po2c_threshold: 8,
            serve: ServeConfig::default(),
        }
    }
}

/// One shard's lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// On the ring, serving.
    Live,
    /// Killed by chaos; off the ring until `until`.
    Dead {
        /// First tick the shard may rejoin the ring.
        until: Tick,
    },
    /// Scale-down in progress: off the ring, finishing what it holds.
    Draining,
    /// Drained and finished; its report is folded into the fleet's.
    Retired,
}

struct Shard {
    engine: ServeEngine,
    state: ShardState,
    /// Set at retirement (drain-then-kill); live shards finish at the end.
    report: Option<ServeReport>,
}

/// The fleet timers posted into the kernel, one domain each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FleetTimer {
    /// Next request reaches the balancer.
    Arrival,
    /// Shard `i` has work due (its `next_due`).
    Shard(usize),
    /// A scheduled chaos fault.
    Chaos,
    /// The next autoscaler evaluation.
    Scaler,
    /// Shard `i`'s outage ends.
    Revive(usize),
}

struct FleetDomains {
    arrival: DomainId,
    shard: DomainId,
    chaos: DomainId,
    scaler: DomainId,
    revive: DomainId,
}

impl FleetDomains {
    fn register() -> Self {
        let mut reg = DomainRegistry::new();
        FleetDomains {
            arrival: reg.register("arrival"),
            shard: reg.register("shard"),
            chaos: reg.register("chaos"),
            scaler: reg.register("scaler"),
            revive: reg.register("revive"),
        }
    }
}

/// Last posted due tick per timer kind (see the serve engine's memo).
#[derive(Debug, Default)]
struct FleetMemo {
    arrival: Option<Tick>,
    shard: Vec<Option<Tick>>,
    scaler: Option<Tick>,
}

/// The accounted outcome of one fleet run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetReport {
    /// Requests offered to the balancer (the whole arrival stream).
    pub offered: u64,
    /// Served across shards.
    pub served: u64,
    /// Shed across shards (all reasons).
    pub shed: u64,
    /// Rejected across shards (queue-full, quota, draining).
    pub rejected: u64,
    /// Settled at the balancer because no shard was routable (arrival or
    /// failover with an empty ring).
    pub balancer_shed: u64,
    /// Requests evacuated from killed shards and re-offered to survivors.
    pub failover_rerouted: u64,
    /// Requests re-queued inside shards out of killed pool batches.
    pub requeued: u64,
    /// Shard-kill faults applied.
    pub shard_kills: u64,
    /// Shards that rejoined the ring after an outage.
    pub revives: u64,
    /// Autoscaler scale-up actions taken.
    pub scale_ups: u64,
    /// Completed drain-then-kill scale-downs.
    pub scale_downs: u64,
    /// Requests routed per shard (every shard ever spawned, index order).
    pub routed: Vec<u64>,
    /// Requests the power-of-two-choices fallback diverted off their
    /// home shard.
    pub routed_po2c: u64,
    /// Batches dispatched across shards.
    pub batches: u64,
    /// Items across dispatched batches.
    pub batch_items: u64,
    /// Tick of the last processed fleet event.
    pub makespan: Tick,
    /// p50 served latency over the merged per-shard histograms.
    pub p50_latency: u64,
    /// p99 served latency over the merged per-shard histograms.
    pub p99_latency: u64,
    /// Per-shard output checksums folded in index order.
    pub output_checksum: u64,
    /// Every shard's own report, index order.
    pub shard_reports: Vec<ServeReport>,
}

impl FleetReport {
    /// The fleet-wide accounting invariant: every offered request ended
    /// in exactly one place.
    pub fn accounted(&self) -> bool {
        self.served + self.shed + self.rejected + self.balancer_shed == self.offered
    }

    /// Routing skew: `max(routed) / mean(routed)` in fixed-point
    /// hundredths over every shard ever spawned (100 = perfectly even).
    pub fn skew_x100(&self) -> u64 {
        let sum: u64 = self.routed.iter().sum();
        let max = self.routed.iter().copied().max().unwrap_or(0);
        if sum == 0 {
            return 100;
        }
        max * 100 * self.routed.len() as u64 / sum
    }

    /// Deterministic multi-line rendering — the byte-identity artifact
    /// the CI replay/kernel-knob gates diff. Includes every shard's own
    /// render, so a single diverging shard is immediately visible.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "fleet: shards {} offered {} served {} shed {} rejected {} balancer-shed {}\n",
            self.shard_reports.len(),
            self.offered,
            self.served,
            self.shed,
            self.rejected,
            self.balancer_shed,
        ));
        s.push_str(&format!(
            "routing: routed {:?} po2c {} skew-x100 {}\n",
            self.routed,
            self.routed_po2c,
            self.skew_x100(),
        ));
        s.push_str(&format!(
            "failover: kills {} rerouted {} revives {} requeued {}\n",
            self.shard_kills, self.failover_rerouted, self.revives, self.requeued,
        ));
        s.push_str(&format!(
            "autoscale: ups {} downs {}\n",
            self.scale_ups, self.scale_downs,
        ));
        s.push_str(&format!(
            "batches {} items {} makespan {} p50 {} p99 {}\n",
            self.batches, self.batch_items, self.makespan, self.p50_latency, self.p99_latency,
        ));
        for (i, r) in self.shard_reports.iter().enumerate() {
            s.push_str(&format!("--- shard {i}\n"));
            s.push_str(&r.render());
        }
        s.push_str(&format!("output-checksum {:#018x}\n", self.output_checksum));
        s
    }
}

/// The sharded serving fleet.
pub struct FleetEngine {
    cfg: FleetConfig,
    model: AcceleratorModel,
    arrivals: Vec<Request>,
    cursor: usize,
    shards: Vec<Shard>,
    ring: HashRing,
    plan: Option<FaultPlan>,
    scaler: Option<Autoscaler>,
    obs: Recorder,
    now: Tick,
    memo: FleetMemo,
    /// `(revive tick, shard)` pairs awaiting a timer post.
    pending_revives: Vec<(Tick, usize)>,
    next_eval: Tick,
    /// Cumulative merged latency snapshot at the last scaler evaluation.
    prev_latency: Option<Histogram>,
    wakes: u64,
    kernel_stats: WheelStats,
    // accounting
    offered: u64,
    balancer_shed: u64,
    failover_rerouted: u64,
    shard_kills: u64,
    revives: u64,
    scale_ups: u64,
    scale_downs: u64,
    routed: Vec<u64>,
    routed_po2c: u64,
}

impl FleetEngine {
    /// A fleet over `arrivals` (any order; sorted by `(arrival, id)`
    /// internally) with `cfg.shards` initial shards.
    pub fn new(cfg: FleetConfig, model: AcceleratorModel, mut arrivals: Vec<Request>) -> Self {
        arrivals.sort_by_key(|r| (r.arrival, r.id));
        let mut fleet = FleetEngine {
            ring: HashRing::new(cfg.vnodes),
            shards: Vec::new(),
            plan: None,
            scaler: None,
            obs: Recorder::disabled(),
            now: 0,
            memo: FleetMemo::default(),
            pending_revives: Vec::new(),
            next_eval: 0,
            prev_latency: None,
            wakes: 0,
            kernel_stats: WheelStats::default(),
            cursor: 0,
            offered: 0,
            balancer_shed: 0,
            failover_rerouted: 0,
            shard_kills: 0,
            revives: 0,
            scale_ups: 0,
            scale_downs: 0,
            routed: Vec::new(),
            routed_po2c: 0,
            model,
            arrivals,
            cfg,
        };
        for _ in 0..fleet.cfg.shards.max(1) {
            fleet.spawn_shard();
        }
        fleet
    }

    /// Attach a chaos plan; `ShardKill` events are applied at their tick,
    /// every other kind is ignored (they target other campaigns).
    #[must_use]
    pub fn with_chaos(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Attach an autoscaler evaluating every `cfg.eval_interval` ticks.
    #[must_use]
    pub fn with_scaler(mut self, cfg: ScalerConfig) -> Self {
        self.next_eval = cfg.eval_interval.max(1);
        self.scaler = Some(Autoscaler::new(cfg));
        self
    }

    /// Attach a recorder. Each shard already spawned (and every later
    /// one) records under a `shard<i>` namespace via
    /// [`Recorder::child_named`]; their streams are absorbed into this
    /// recorder at retirement/finish.
    #[must_use]
    pub fn with_recorder(mut self, obs: Recorder) -> Self {
        self.obs = obs;
        for (i, shard) in self.shards.iter_mut().enumerate() {
            let child = self.obs.child_named(&format!("shard{i}"));
            shard.engine.set_recorder(child);
        }
        self
    }

    /// Ticks the fleet woke on (processed steps).
    pub fn wakes(&self) -> u64 {
        self.wakes
    }

    /// The fleet's recorder (shard streams are absorbed into it at
    /// retirement/finish; absorb it into a parent after `run`).
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// Scheduler counters of the last `run`.
    pub fn kernel_stats(&self) -> &WheelStats {
        &self.kernel_stats
    }

    /// Live (routable) shard indices, ascending.
    fn live_shards(&self) -> Vec<usize> {
        (0..self.shards.len())
            .filter(|&i| self.shards[i].state == ShardState::Live)
            .collect()
    }

    fn spawn_shard(&mut self) {
        let i = self.shards.len();
        let engine = ServeEngine::new(self.cfg.serve.clone(), self.model.clone(), Vec::new())
            .with_recorder(self.obs.child_named(&format!("shard{i}")));
        self.shards.push(Shard { engine, state: ShardState::Live, report: None });
        self.ring.add(i);
        self.routed.push(0);
        self.memo.shard.push(None);
    }

    /// Route one request: consistent-hash home, power-of-two-choices
    /// fallback under pressure. Returns `false` when no shard is
    /// routable (the caller accounts the request as balancer-shed).
    fn route(&mut self, req: Request) -> bool {
        let key = mix64(u64::from(req.tenant) ^ TENANT_SALT);
        let Some(home) = self.ring.shard_for(key) else {
            return false;
        };
        let mut target = home;
        let home_load = self.shards[home].engine.queued_hint();
        if home_load >= self.cfg.po2c_threshold {
            if let Some(alt) = self.ring.shard_for(mix64(key ^ PO2C_SALT)) {
                if alt != home && self.shards[alt].engine.queued_hint() < home_load {
                    target = alt;
                    self.routed_po2c += 1;
                }
            }
        }
        self.routed[target] += 1;
        self.shards[target].engine.submit(req);
        true
    }

    /// Kill one live shard: off the ring, evacuate, re-route, schedule
    /// the revive. The `hint` picks among live shards (modulo), so a
    /// plan generated for any shard count stays applicable.
    fn kill_shard(&mut self, hint: usize, down: u64) {
        let live = self.live_shards();
        if live.is_empty() {
            return;
        }
        let victim = live[hint % live.len()];
        let until = self.now + down.max(1);
        self.shard_kills += 1;
        self.shards[victim].state = ShardState::Dead { until };
        self.ring.remove(victim);
        self.pending_revives.push((until, victim));
        self.obs.instant(
            "fleet",
            "shard-kill",
            ClockDomain::Cpu,
            self.now,
            &[("shard", victim.to_string()), ("until", until.to_string())],
        );
        let evacuated = self.shards[victim].engine.evacuate();
        for req in evacuated {
            if self.route(req) {
                self.failover_rerouted += 1;
            } else {
                self.balancer_shed += 1;
            }
        }
    }

    /// The served-latency observations added since the last call: a
    /// bucket-count delta over the merged per-shard class histograms
    /// (engines only ever add observations, so the delta is exact).
    fn latency_window(&mut self) -> Histogram {
        let hists: Vec<&Histogram> =
            self.shards.iter().flat_map(|s| s.engine.class_latency().iter()).collect();
        let merged = Histogram::merge_all(&hists);
        let window = match &self.prev_latency {
            Some(prev) if prev.counts.len() == merged.counts.len() => Histogram {
                bounds: merged.bounds.clone(),
                counts: merged.counts.iter().zip(&prev.counts).map(|(a, b)| a - b).collect(),
                count: merged.count - prev.count,
                sum: merged.sum - prev.sum,
                max: merged.max,
            },
            _ => merged.clone(),
        };
        self.prev_latency = Some(merged);
        window
    }

    /// One autoscaler evaluation: sample the fleet, ask the state
    /// machine, apply its action.
    fn evaluate_scaler(&mut self) {
        let live = self.live_shards();
        let draining =
            self.shards.iter().filter(|s| s.state == ShardState::Draining).count();
        let queued: usize = live.iter().map(|&i| self.shards[i].engine.queued_hint()).sum();
        let busy: usize = live.iter().map(|&i| self.shards[i].engine.pool_busy()).sum();
        let slots: usize = live.iter().map(|&i| self.shards[i].engine.pool_size()).sum();
        let window = self.latency_window();
        let sample = FleetSample {
            window_p99: window.percentile(0.99),
            window_served: window.count,
            queued,
            busy,
            slots,
            live_shards: live.len(),
            draining,
        };
        let action = match self.scaler.as_mut() {
            Some(sc) => sc.evaluate(&sample),
            None => None,
        };
        match action {
            Some(ScaleAction::Up) => {
                let i = self.shards.len();
                self.spawn_shard();
                self.scale_ups += 1;
                self.obs.instant(
                    "fleet",
                    "scale-up",
                    ClockDomain::Cpu,
                    self.now,
                    &[("shard", i.to_string())],
                );
            }
            Some(ScaleAction::Down) => {
                // drain the highest-indexed live shard (LIFO elasticity)
                if let Some(&victim) = self.live_shards().last() {
                    self.shards[victim].state = ShardState::Draining;
                    self.ring.remove(victim);
                    let residue = self.shards[victim].engine.drain();
                    self.obs.instant(
                        "fleet",
                        "scale-down-drain",
                        ClockDomain::Cpu,
                        self.now,
                        &[
                            ("shard", victim.to_string()),
                            ("queued", residue.queued.to_string()),
                            ("in_flight", residue.in_flight.to_string()),
                        ],
                    );
                }
            }
            None => {}
        }
    }

    /// Whether anything can still happen: arrivals pending, or any shard
    /// still holding work.
    fn work_remains(&self) -> bool {
        self.cursor < self.arrivals.len()
            || self.shards.iter().any(|s| !s.engine.quiescent())
    }

    /// Process every fleet phase due at the current tick, in fixed order:
    /// revive, chaos, scaler, route-arrivals, advance-shards, retire.
    fn step(&mut self) {
        let now = self.now;
        // 1. outages ending now: rejoin the ring (index order)
        for i in 0..self.shards.len() {
            if let ShardState::Dead { until } = self.shards[i].state {
                if until <= now {
                    self.shards[i].state = ShardState::Live;
                    self.ring.add(i);
                    self.revives += 1;
                    self.obs.instant(
                        "fleet",
                        "shard-revive",
                        ClockDomain::Cpu,
                        now,
                        &[("shard", i.to_string())],
                    );
                }
            }
        }
        // 2. chaos faults due now
        let faults: Vec<_> = match self.plan.as_mut() {
            Some(plan) => plan.drain_until(now),
            None => Vec::new(),
        };
        for ev in faults {
            if let FaultKind::ShardKill { shard, down_cycles } = ev.kind {
                self.kill_shard(usize::from(shard), u64::from(down_cycles));
            }
        }
        // 3. autoscaler evaluation due now
        if self.scaler.is_some() && self.next_eval == now {
            self.evaluate_scaler();
            let interval = self.scaler.as_ref().map_or(1, |s| s.config().eval_interval.max(1));
            self.next_eval = now + interval;
        }
        // 4. route arrivals due now
        //    (nothing reads an arrival behind the cursor: move its payload)
        while self.cursor < self.arrivals.len() && self.arrivals[self.cursor].arrival <= now {
            let next = &mut self.arrivals[self.cursor];
            let req = Request { input: std::mem::take(&mut next.input), ..*next };
            self.cursor += 1;
            self.offered += 1;
            if !self.route(req) {
                self.balancer_shed += 1;
            }
        }
        // 5. advance every shard with work due or deliveries pending
        for i in 0..self.shards.len() {
            let shard = &mut self.shards[i];
            if matches!(shard.state, ShardState::Live | ShardState::Draining) {
                let due = shard.engine.next_due().is_some_and(|d| d <= now);
                if due || shard.engine.has_incoming() {
                    shard.engine.advance(now);
                }
            }
        }
        // 6. retire drained shards that have quiesced (drain-then-kill)
        for i in 0..self.shards.len() {
            if self.shards[i].state == ShardState::Draining && self.shards[i].engine.quiescent() {
                let report = self.shards[i].engine.finish();
                self.obs.absorb(self.shards[i].engine.recorder());
                self.obs.instant(
                    "fleet",
                    "shard-retire",
                    ClockDomain::Cpu,
                    now,
                    &[("shard", i.to_string()), ("served", report.served.to_string())],
                );
                self.shards[i].report = Some(report);
                self.shards[i].state = ShardState::Retired;
                self.scale_downs += 1;
            }
        }
        if self.obs.enabled() {
            let queued: usize = self.shards.iter().map(|s| s.engine.queued_hint()).sum();
            let live = self.shards.iter().filter(|s| s.state == ShardState::Live).count();
            self.obs.gauge_set("fleet", "queued", queued as i64);
            self.obs.gauge_set("fleet", "live_shards", live as i64);
        }
    }

    fn post_timer(
        sched: &mut TimerWheel<FleetTimer>,
        memo: &mut Option<Tick>,
        due: Option<Tick>,
        now: Tick,
        domain: DomainId,
        timer: FleetTimer,
    ) {
        if let Some(t) = due {
            if t > now && *memo != Some(t) {
                sched.post(t, domain, timer).expect("future timer posts");
                *memo = Some(t);
            }
        }
    }

    fn post_timers(&mut self, sched: &mut TimerWheel<FleetTimer>, d: &FleetDomains) {
        let now = self.now;
        let arrival = self.arrivals.get(self.cursor).map(|r| r.arrival);
        Self::post_timer(sched, &mut self.memo.arrival, arrival, now, d.arrival, FleetTimer::Arrival);
        for i in 0..self.shards.len() {
            let due = match self.shards[i].state {
                ShardState::Live | ShardState::Draining => self.shards[i].engine.next_due(),
                _ => None,
            };
            Self::post_timer(sched, &mut self.memo.shard[i], due, now, d.shard, FleetTimer::Shard(i));
        }
        if self.scaler.is_some() && self.work_remains() {
            let eval = Some(self.next_eval);
            Self::post_timer(sched, &mut self.memo.scaler, eval, now, d.scaler, FleetTimer::Scaler);
        }
        for (t, i) in std::mem::take(&mut self.pending_revives) {
            sched.post(t, d.revive, FleetTimer::Revive(i)).expect("revive is in the future");
        }
    }

    /// Whether a popped timer still predicts tick `t` against live state.
    fn timer_live(&self, timer: FleetTimer, t: Tick) -> bool {
        match timer {
            FleetTimer::Arrival => {
                self.arrivals.get(self.cursor).map(|r| r.arrival) == Some(t)
            }
            FleetTimer::Shard(i) => match self.shards.get(i).map(|s| s.state) {
                Some(ShardState::Live | ShardState::Draining) => {
                    self.shards[i].engine.next_due() == Some(t)
                }
                _ => false,
            },
            FleetTimer::Chaos => {
                self.work_remains()
                    && self.plan.as_ref().and_then(FaultPlan::peek_cycle) == Some(t)
            }
            FleetTimer::Scaler => {
                self.scaler.is_some() && self.work_remains() && self.next_eval == t
            }
            FleetTimer::Revive(i) => {
                self.shards.get(i).map(|s| s.state) == Some(ShardState::Dead { until: t })
            }
        }
    }

    fn next_wake(&mut self, sched: &mut TimerWheel<FleetTimer>) -> Option<Tick> {
        while let Some(ev) = sched.pop_next() {
            if ev.time > self.now && self.timer_live(ev.payload, ev.time) {
                return Some(ev.time);
            }
        }
        None
    }

    /// Run the fleet to completion and account every request.
    pub fn run(&mut self) -> FleetReport {
        let mut sched: TimerWheel<FleetTimer> = TimerWheel::new();
        let domains = FleetDomains::register();
        if let Some(plan) = &self.plan {
            for cycle in plan.pending_cycles() {
                if cycle > 0 {
                    sched
                        .post(cycle, domains.chaos, FleetTimer::Chaos)
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
                    debug_assert!(t > self.now, "fleet clock must advance");
                    self.now = t;
                }
                None => break,
            }
        }
        self.kernel_stats = *sched.stats();
        self.finalize()
    }

    fn finalize(&mut self) -> FleetReport {
        let mut shard_reports = Vec::with_capacity(self.shards.len());
        for i in 0..self.shards.len() {
            let report = match self.shards[i].report.take() {
                Some(r) => r,
                None => {
                    let r = self.shards[i].engine.finish();
                    self.obs.absorb(self.shards[i].engine.recorder());
                    r
                }
            };
            shard_reports.push(report);
        }
        let hists: Vec<&Histogram> =
            self.shards.iter().flat_map(|s| s.engine.class_latency().iter()).collect();
        let merged = Histogram::merge_all(&hists);
        let mut checksum = 0u64;
        for r in &shard_reports {
            checksum = hermes_obs::hash::fnv1a_words(checksum, &[r.output_checksum as i64]);
        }
        let report = FleetReport {
            offered: self.offered,
            served: shard_reports.iter().map(|r| r.served).sum(),
            shed: shard_reports.iter().map(ServeReport::shed).sum(),
            rejected: shard_reports.iter().map(ServeReport::rejected).sum(),
            balancer_shed: self.balancer_shed,
            failover_rerouted: self.failover_rerouted,
            requeued: shard_reports.iter().map(|r| r.requeued).sum(),
            shard_kills: self.shard_kills,
            revives: self.revives,
            scale_ups: self.scale_ups,
            scale_downs: self.scale_downs,
            routed: self.routed.clone(),
            routed_po2c: self.routed_po2c,
            batches: shard_reports.iter().map(|r| r.batches).sum(),
            batch_items: shard_reports.iter().map(|r| r.batch_items).sum(),
            makespan: self.now,
            p50_latency: merged.percentile(0.50).unwrap_or(0),
            p99_latency: merged.percentile(0.99).unwrap_or(0),
            output_checksum: checksum,
            shard_reports,
        };
        for (name, v) in [
            ("offered", report.offered),
            ("served", report.served),
            ("shed", report.shed),
            ("rejected", report.rejected),
            ("balancer_shed", report.balancer_shed),
            ("failover_rerouted", report.failover_rerouted),
            ("shard_kills", report.shard_kills),
            ("scale_ups", report.scale_ups),
            ("scale_downs", report.scale_downs),
        ] {
            self.obs.counter_add("fleet", name, v);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{self, FleetWorkloadConfig};
    use hermes_chaos::plan::FaultPlanConfig;
    use hermes_serve::workload as serve_workload;

    fn model() -> AcceleratorModel {
        AcceleratorModel::new("double", 20, 40, |xs| xs.iter().map(|&x| x * 2).collect())
    }

    #[test]
    fn single_shard_fleet_degenerates_to_the_bare_engine_byte_identically() {
        for (load, seed) in [(60, 5), (150, 5), (250, 12)] {
            let wl = serve_workload::WorkloadConfig::default().at_load_pct(load);
            let arrivals = serve_workload::generate(seed, &wl);
            let mut bare = ServeEngine::new(ServeConfig::default(), model(), arrivals.clone());
            let baseline = bare.run();
            let cfg = FleetConfig { shards: 1, po2c_threshold: usize::MAX, ..FleetConfig::default() };
            let mut fleet = FleetEngine::new(cfg, model(), arrivals);
            let report = fleet.run();
            assert!(report.accounted(), "{report:?}");
            assert_eq!(report.shard_reports.len(), 1);
            assert_eq!(
                report.shard_reports[0], baseline,
                "single-shard fleet must equal the bare engine (load {load} seed {seed})"
            );
            assert_eq!(report.shard_reports[0].render(), baseline.render());
            assert_eq!(report.offered, baseline.offered);
            assert_eq!(report.balancer_shed, 0);
        }
    }

    #[test]
    fn fleet_spreads_load_and_accounts_everything() {
        let wl = FleetWorkloadConfig { requests: 8192, tenants: 256, ..FleetWorkloadConfig::default() };
        let arrivals = workload::generate(7, &wl);
        let mut fleet = FleetEngine::new(FleetConfig::default(), model(), arrivals);
        let report = fleet.run();
        assert!(report.accounted(), "{report:?}");
        assert_eq!(report.offered, 8192);
        assert!(report.served > 0);
        assert!(report.routed.iter().all(|&n| n > 0), "every shard took load: {:?}", report.routed);
        assert!(report.skew_x100() < 200, "skew too high: {} {:?}", report.skew_x100(), report.routed);
    }

    #[test]
    fn saturated_fleet_sheds_globally_instead_of_deadlocking() {
        // a same-tick flood far past total queue capacity: admission must
        // reject the overflow, the fleet must terminate and account it all
        let serve = ServeConfig { queue_depth: 8, tenant_quota: 4, ..ServeConfig::default() };
        let cfg = FleetConfig { shards: 2, serve, ..FleetConfig::default() };
        let arrivals: Vec<Request> = (0..600)
            .map(|i| Request {
                id: i,
                tenant: (i % 16) as u16,
                class: (i % 2) as u8,
                arrival: i / 200,
                deadline: i / 200 + 300,
                input: vec![i as i64],
            })
            .collect();
        let mut fleet = FleetEngine::new(cfg, model(), arrivals);
        let report = fleet.run();
        assert!(report.accounted(), "{report:?}");
        assert!(report.rejected > 0, "overflow must be rejected: {report:?}");
        assert!(report.served > 0, "capacity still serves: {report:?}");
        assert_eq!(report.balancer_shed, 0, "shards reject, the balancer never sheds here");
    }

    #[test]
    fn shard_kill_failover_reroutes_and_loses_nothing() {
        let wl = FleetWorkloadConfig {
            requests: 6000,
            tenants: 128,
            gap_scale_x256: 16,
            ..FleetWorkloadConfig::default()
        };
        let arrivals = workload::generate(21, &wl);
        let span = arrivals.last().unwrap().arrival;
        let plan = FaultPlan::generate(33, &FaultPlanConfig::shard_only(span, 5, 4000, 4));
        let cfg = FleetConfig { shards: 4, ..FleetConfig::default() };
        let mut fleet = FleetEngine::new(cfg, model(), arrivals).with_chaos(plan);
        let report = fleet.run();
        assert!(report.accounted(), "failover must lose nothing: {report:?}");
        assert_eq!(report.shard_kills, 5, "{report:?}");
        assert!(report.failover_rerouted > 0, "kills landed on live work: {report:?}");
        assert!(report.revives > 0, "outages end within the run: {report:?}");
        assert!(report.served > 0);
    }

    #[test]
    fn autoscaler_scales_up_under_burn_and_drains_down_when_quiet() {
        // phase 1: a hard burst that saturates two shards; phase 2: a long
        // sparse tail that leaves the grown fleet idle
        let burst = FleetWorkloadConfig {
            requests: 3000,
            tenants: 64,
            gap_scale_x256: 8,
            gap_cap_x256: 2048,
            ..FleetWorkloadConfig::default()
        };
        let mut arrivals = workload::generate(9, &burst);
        let burst_end = arrivals.last().unwrap().arrival;
        // constant 900-tick gaps (cap == scale) whose phase rotates past
        // the 200-tick eval boundary, so most evaluations see an idle fleet
        let tail = FleetWorkloadConfig {
            requests: 80,
            tenants: 64,
            gap_scale_x256: 900 * 256,
            gap_cap_x256: 900 * 256,
            first_id: 3000,
            start: burst_end + 500,
            ..FleetWorkloadConfig::default()
        };
        arrivals.extend(workload::generate(10, &tail));
        let cfg = FleetConfig { shards: 2, ..FleetConfig::default() };
        let scaler = ScalerConfig {
            eval_interval: 200,
            p99_slo: 1500,
            queue_high: 16,
            up_consecutive: 2,
            down_consecutive: 3,
            cooldown_evals: 1,
            min_shards: 2,
            max_shards: 5,
            ..ScalerConfig::default()
        };
        let mut fleet = FleetEngine::new(cfg, model(), arrivals).with_scaler(scaler);
        let report = fleet.run();
        assert!(report.accounted(), "{report:?}");
        assert!(report.scale_ups >= 1, "burst must scale up: {report:?}");
        assert!(report.scale_downs >= 1, "quiet tail must drain-then-kill: {report:?}");
        assert!(
            report.shard_reports.len() > 2,
            "scale-up spawned shards: {}",
            report.shard_reports.len()
        );
        // drained shards served before retiring, and their rejects (if
        // any) are still accounted fleet-wide
        let retired_served: u64 =
            report.shard_reports[2..].iter().map(|r| r.served).sum();
        assert!(retired_served > 0, "grown shards actually took load: {report:?}");
    }

    #[test]
    fn fleet_is_byte_identical_on_replay() {
        let run = || {
            let wl = FleetWorkloadConfig { requests: 4000, ..FleetWorkloadConfig::default() };
            let arrivals = workload::generate(13, &wl);
            let span = arrivals.last().unwrap().arrival;
            let plan = FaultPlan::generate(5, &FaultPlanConfig::shard_only(span, 3, 3000, 4));
            let mut fleet = FleetEngine::new(FleetConfig::default(), model(), arrivals)
                .with_chaos(plan)
                .with_scaler(ScalerConfig { eval_interval: 1000, ..ScalerConfig::default() });
            let report = fleet.run();
            assert!(report.accounted(), "{report:?}");
            report.render()
        };
        assert_eq!(run(), run(), "a replay must not change results");
    }

    #[test]
    fn recorder_namespaces_shards_and_sees_fleet_counters() {
        let wl = FleetWorkloadConfig { requests: 512, ..FleetWorkloadConfig::default() };
        let arrivals = workload::generate(3, &wl);
        let cfg = FleetConfig { shards: 2, ..FleetConfig::default() };
        let untraced = FleetEngine::new(cfg.clone(), model(), arrivals.clone()).run();
        let mut fleet = FleetEngine::new(cfg, model(), arrivals).with_recorder(Recorder::new());
        let report = fleet.run();
        // recording is an observability switch, never a results switch
        assert_eq!(report, untraced, "a traced fleet must report what an untraced one does");
        let snap = fleet.obs.snapshot();
        assert_eq!(snap.dropped_total(), 0, "the trace is complete");
        let offered = snap
            .counters
            .iter()
            .find(|(sub, name, _)| sub == "fleet" && name == "offered")
            .expect("fleet counters exported");
        assert_eq!(offered.2, report.offered);
        // per-shard serve counters live under their shard namespace
        for i in 0..2 {
            let ns = format!("shard{i}/serve");
            assert!(
                snap.counters.iter().any(|(sub, name, _)| *sub == ns && name == "served"),
                "missing {ns}/served in {:?}",
                snap.counters.iter().map(|(s, n, _)| format!("{s}/{n}")).collect::<Vec<_>>()
            );
        }
    }
}
