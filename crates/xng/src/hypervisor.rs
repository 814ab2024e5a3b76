//! The hypervisor core: cyclic dispatch, hypercall service, health
//! monitoring, and statistics.
//!
//! Each core follows its own cyclic plan. At every slot boundary the
//! hypervisor charges a fixed context-switch cost, programs the core MPU
//! with the incoming partition's memory regions, and either restores the
//! guest vCPU (guest partitions) or invokes the native task once (native
//! partitions). Guest `ecall`s are serviced as hypercalls; guest traps are
//! routed to the health monitor.
//!
//! The per-cycle engine is exact but wasteful when every core is quiet
//! (native partitions between activations, yielded or halted guests):
//! nothing can happen until the next slot boundary or watchdog deadline.
//! [`Hypervisor::run`] therefore posts those deadlines into the unified
//! event kernel's [`hermes_kernel::TimerWheel`] (DESIGN.md §14) and
//! fast-forwards quiet gaps in one `bulk_advance` instead of polling
//! every tick. Every popped timer is validated against live state before
//! it is trusted, so the schedule — dispatch instants, watchdog expiries,
//! HM escalations, statistics — is bit-identical to polling every tick.

use crate::config::{IsolationMode, XngConfig};
use crate::health::{HealthMonitor, HmAction, HmEvent};
use crate::hypercall::Hypercall;
use crate::partition::{
    NativeTask, PartitionMode, PartitionRt, PartitionStats, TaskCtx, VcpuContext, Workload,
};
use crate::ports::PortTable;
use crate::{PartitionId, XngError};
use hermes_cpu::cluster::{Cluster, CORE_COUNT};
use hermes_cpu::hart::{Event, TrapCause};
use hermes_cpu::mpu::{reprogram_cost, MpuRegion, Privilege, GATE_CROSS_CYCLES};
use hermes_kernel::{DomainId, DomainRegistry, TimerWheel, WheelStats};
use hermes_obs::{ClockDomain, Recorder, TraceCtx};

/// Flight-recorder subsystem name used by the hypervisor.
const OBS_SUB: &str = "xng";

/// Spatial-isolation accounting: what the configured
/// [`IsolationMode`] cost at partition dispatch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IsolationStats {
    /// Full MPU region-table reprograms performed.
    pub mpu_reprograms: u64,
    /// Cycles modelled for those reprograms.
    pub mpu_reprogram_cycles: u64,
    /// Protection-key gate crossings (active-key swaps) performed.
    pub gate_crossings: u64,
    /// Cycles modelled for those gate crossings.
    pub gate_cross_cycles: u64,
}

impl IsolationStats {
    /// Total modelled isolation cycles across both mechanisms.
    pub fn total_cycles(&self) -> u64 {
        self.mpu_reprogram_cycles + self.gate_cross_cycles
    }
}

#[derive(Debug, Clone, Default)]
struct CoreSched {
    slot_idx: usize,
    elapsed: u64,
    switching: u64,
    current: Option<PartitionId>,
    cycles_at_dispatch: u64,
}

/// A timer posted into the event kernel. The payload carries only the
/// timer's identity — its due time is recomputed from live hypervisor
/// state at pop, so stale entries (superseded by a mode change, failover,
/// or watchdog kick) are recognised and discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum XngTimer {
    /// `switching` on this core reaches zero (slot dispatch).
    Dispatch(usize),
    /// This core's current slot elapses (retire + next-slot switch).
    Retire(usize),
    /// This partition's liveness watchdog deadline.
    Watchdog(usize),
}

/// Event-kernel domain ids for the hypervisor's timer classes; the
/// `(time, domain, seq)` tie-break keeps same-tick pops deterministic.
struct XngDomains {
    dispatch: DomainId,
    retire: DomainId,
    watchdog: DomainId,
}

impl XngDomains {
    fn register() -> Self {
        let mut reg = DomainRegistry::new();
        XngDomains {
            dispatch: reg.register("xng.dispatch"),
            retire: reg.register("xng.retire"),
            watchdog: reg.register("xng.watchdog"),
        }
    }
}

/// Last posted due time per timer, so an unchanged deadline is not
/// reposted every wake. A memoised time `t > now` is guaranteed to still
/// be pending in the scheduler: pops only consume entries up to the
/// winning wake, which becomes the new `now`.
struct XngMemo {
    dispatch: [Option<u64>; CORE_COUNT],
    retire: [Option<u64>; CORE_COUNT],
    watchdog: Vec<Option<u64>>,
}

impl XngMemo {
    fn new(partitions: usize) -> Self {
        XngMemo {
            dispatch: [None; CORE_COUNT],
            retire: [None; CORE_COUNT],
            watchdog: vec![None; partitions],
        }
    }
}

/// The hypervisor.
pub struct Hypervisor {
    config: XngConfig,
    cluster: Cluster,
    ports: PortTable,
    hm: HealthMonitor,
    partitions: Vec<PartitionRt>,
    cores: Vec<CoreSched>,
    time: u64,
    /// Pending scheduling-mode switch (mode index), applied at the next
    /// tick boundary.
    pending_mode: Option<usize>,
    current_mode: Option<usize>,
    /// Completed mode changes.
    pub mode_changes: u64,
    /// Per-partition absolute watchdog deadlines (`None` = disarmed).
    watchdogs: Vec<Option<u64>>,
    /// Health-monitor escalations: restarts promoted to halts because a
    /// partition exhausted its restart limit.
    pub hm_escalations: u64,
    /// Spare-partition failovers: plan slots rewritten to a spare after a
    /// partition was halted.
    pub spare_failovers: u64,
    /// Spatial-isolation cost accounting.
    isolation_stats: IsolationStats,
    /// Whether the union protection-key table is installed on each core
    /// ([`IsolationMode::ProtectionKeys`] installs it lazily, once).
    key_installed: [bool; CORE_COUNT],
    /// Flight recorder (disabled by default; see [`Hypervisor::set_obs`]).
    obs: Recorder,
    /// Causal trace context attached to dispatch instants (see
    /// [`Hypervisor::set_trace_ctx`]).
    trace: TraceCtx,
    /// The persistent timer wheel [`run`](Hypervisor::run) fast-forwards
    /// quiet gaps through (DESIGN.md §14).
    sched: TimerWheel<XngTimer>,
    domains: XngDomains,
    memo: XngMemo,
    /// Ticks executed by the full per-cycle engine.
    ticks_polled: u64,
    /// Quiet ticks fast-forwarded without entering the engine.
    ticks_skipped: u64,
}

impl Hypervisor {
    /// Boot a hypervisor from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`XngError::Config`] if validation fails.
    pub fn new(config: XngConfig) -> Result<Self, XngError> {
        config.validate()?;
        let partitions = (0..config.partitions.len())
            .map(|_| PartitionRt::new(CORE_COUNT))
            .collect();
        let ports = PortTable::from_config(&config);
        // every core boots into a context-switch window so the first slot's
        // partition is dispatched like any other
        let boot_core = CoreSched {
            switching: config.context_switch_cycles.max(1),
            ..CoreSched::default()
        };
        let watchdogs = vec![None; config.partitions.len()];
        let memo = XngMemo::new(config.partitions.len());
        Ok(Hypervisor {
            cluster: Cluster::new(),
            ports,
            hm: HealthMonitor::new(),
            partitions,
            cores: vec![boot_core; CORE_COUNT],
            time: 0,
            pending_mode: None,
            current_mode: None,
            mode_changes: 0,
            watchdogs,
            hm_escalations: 0,
            spare_failovers: 0,
            isolation_stats: IsolationStats::default(),
            key_installed: [false; CORE_COUNT],
            obs: Recorder::disabled(),
            trace: TraceCtx::untraced(),
            sched: TimerWheel::new(),
            domains: XngDomains::register(),
            memo,
            ticks_polled: 0,
            ticks_skipped: 0,
            config,
        })
    }

    /// Ticks that ran the full per-cycle engine.
    pub fn ticks_polled(&self) -> u64 {
        self.ticks_polled
    }

    /// Quiet ticks fast-forwarded by the event kernel instead of being
    /// polled.
    pub fn ticks_skipped(&self) -> u64 {
        self.ticks_skipped
    }

    /// Event-kernel scheduler counters (posted/popped/cascades/occupancy).
    pub fn kernel_stats(&self) -> &WheelStats {
        self.sched.stats()
    }

    /// Attach a flight recorder: every partition dispatch
    /// (context switch), hypercall, and health-monitor event is traced on
    /// the `Hv` clock domain (the ARINC-653-style schedule timeline).
    pub fn set_obs(&mut self, obs: Recorder) {
        self.obs = obs;
    }

    /// Attach (or clear, with `None`) a causal trace context: subsequent
    /// partition-dispatch (`context-switch`) instants link into that
    /// trace, tying a serve request's causal tree to the XNG schedule
    /// timeline that ran its partition.
    pub fn set_trace_ctx(&mut self, ctx: Option<TraceCtx>) {
        self.trace = ctx.unwrap_or_default();
    }

    /// The attached flight recorder (disabled unless [`set_obs`] was
    /// called).
    ///
    /// [`set_obs`]: Hypervisor::set_obs
    pub fn obs(&self) -> &Recorder {
        &self.obs
    }

    /// Report a health-monitor event and trace it on the `Hv` clock.
    fn report_hm(
        &mut self,
        now: u64,
        event: HmEvent,
        pid: Option<PartitionId>,
        detail: String,
    ) -> HmAction {
        let action = self.hm.report(&self.config.hm_table, now, event, pid, detail);
        self.obs.counter_add(OBS_SUB, "hm_events", 1);
        self.obs.instant(
            OBS_SUB,
            "hm-event",
            ClockDomain::Hv,
            now,
            &[
                ("event", format!("{event:?}")),
                (
                    "partition",
                    pid.map_or_else(|| "-".to_string(), |p| p.0.to_string()),
                ),
                ("action", format!("{action:?}")),
            ],
        );
        action
    }

    /// Attach a guest machine-code workload to a partition. The image is
    /// `(address, words)` pairs; it is loaded now and reloaded on restart.
    ///
    /// # Errors
    ///
    /// Returns [`XngError::NoSuchPartition`] or a CPU load error.
    pub fn attach_guest(
        &mut self,
        pid: PartitionId,
        entry: u32,
        image: Vec<(u32, Vec<u32>)>,
    ) -> Result<(), XngError> {
        let rt = self
            .partitions
            .get_mut(pid.0 as usize)
            .ok_or(XngError::NoSuchPartition(pid))?;
        for (addr, words) in &image {
            self.cluster.load_program(0, *addr, words)?;
        }
        rt.workload = Workload::Guest { entry, image };
        rt.mode = PartitionMode::Cold;
        Ok(())
    }

    /// Attach a native task to a partition.
    ///
    /// # Errors
    ///
    /// Returns [`XngError::NoSuchPartition`].
    pub fn attach_native(
        &mut self,
        pid: PartitionId,
        task: Box<dyn NativeTask>,
    ) -> Result<(), XngError> {
        let rt = self
            .partitions
            .get_mut(pid.0 as usize)
            .ok_or(XngError::NoSuchPartition(pid))?;
        rt.workload = Workload::Native(task);
        rt.mode = PartitionMode::Cold;
        Ok(())
    }

    /// Current system time in cycles.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Whether the health monitor halted the system.
    pub fn is_system_halted(&self) -> bool {
        self.hm.system_halted
    }

    /// Partition statistics.
    ///
    /// # Panics
    ///
    /// Panics on an invalid id.
    pub fn stats(&self, pid: PartitionId) -> PartitionStats {
        self.partitions[pid.0 as usize].stats
    }

    /// Partition trace lines.
    ///
    /// # Panics
    ///
    /// Panics on an invalid id.
    pub fn trace(&self, pid: PartitionId) -> &[String] {
        &self.partitions[pid.0 as usize].trace
    }

    /// Partition mode.
    ///
    /// # Panics
    ///
    /// Panics on an invalid id.
    pub fn mode(&self, pid: PartitionId) -> PartitionMode {
        self.partitions[pid.0 as usize].mode
    }

    /// The health monitor (log access).
    pub fn health(&self) -> &HealthMonitor {
        &self.hm
    }

    /// Spatial-isolation cost accounting (gate crossings vs. MPU
    /// reprograms).
    pub fn isolation_stats(&self) -> IsolationStats {
        self.isolation_stats
    }

    /// The context-switch window charged before dispatching `pid`. The
    /// base cost always applies; when
    /// [`XngConfig::charge_isolation_cycles`] is set, guest dispatches
    /// additionally pay the configured isolation mechanism — a full MPU
    /// reprogram scaling with the partition's region count, or one
    /// constant-cost protection-key gate crossing. Boot, mode-change, and
    /// failover switches keep the base cost: they are rare, and charging
    /// them would blur the per-slot comparison E15 makes.
    fn switch_window(&self, pid: PartitionId) -> u64 {
        let base = self.config.context_switch_cycles.max(1);
        if !self.config.charge_isolation_cycles {
            return base;
        }
        if !matches!(
            self.partitions[pid.0 as usize].workload,
            Workload::Guest { .. }
        ) {
            return base;
        }
        base + match self.config.isolation {
            IsolationMode::MpuReprogram => {
                reprogram_cost(self.config.partitions[pid.0 as usize].memory.len())
            }
            IsolationMode::ProtectionKeys => GATE_CROSS_CYCLES,
        }
    }

    /// The port switchboard (testbench access).
    pub fn ports_mut(&mut self) -> &mut PortTable {
        &mut self.ports
    }

    /// The underlying cluster (interference statistics etc.).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable cluster access (fault injection / test setup).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Flip one bit of system memory — the SEU injection point of the
    /// chaos fault plane.
    ///
    /// # Errors
    ///
    /// Propagates bus errors for unmapped addresses.
    pub fn flip_memory_bit(&mut self, addr: u32, bit: u8) -> Result<(), XngError> {
        let byte = self.cluster.bus.read_bytes(addr, 1)?[0];
        self.cluster
            .bus
            .load_bytes(addr, &[byte ^ (1 << (bit % 8))])?;
        Ok(())
    }

    /// Record liveness for a partition: push its watchdog deadline out by
    /// the configured window (no-op without a watchdog).
    fn kick_watchdog(&mut self, pid: PartitionId) {
        if let Some(w) = self.config.partitions[pid.0 as usize].watchdog_cycles {
            self.watchdogs[pid.0 as usize] = Some(self.time + w);
        }
    }

    /// Request a switch to the alternate scheduling mode registered with
    /// [`XngConfig::add_mode`]. Applied at the next hypervisor tick: every
    /// core's current partition is preempted and its context saved, the new
    /// per-core plans start from their first slot, and each core pays one
    /// context switch — XtratuM's plan/mode-change semantics.
    ///
    /// # Errors
    ///
    /// Returns [`XngError::Config`] for an unknown mode index.
    pub fn request_mode_change(&mut self, mode: usize) -> Result<(), XngError> {
        if mode >= self.config.modes.len() {
            return Err(XngError::Config {
                detail: format!("no such scheduling mode {mode}"),
            });
        }
        self.pending_mode = Some(mode);
        Ok(())
    }

    /// Index of the active alternate mode (`None` = the boot plans).
    pub fn current_mode(&self) -> Option<usize> {
        self.current_mode
    }

    fn apply_mode_change(&mut self, mode: usize) -> Result<(), XngError> {
        // preempt every core, saving guest contexts
        for core in 0..CORE_COUNT {
            self.retire(core)?;
        }
        self.config.plans = self.config.modes[mode].1.clone();
        let cs = self.config.context_switch_cycles.max(1);
        for core in &mut self.cores {
            core.slot_idx = 0;
            core.elapsed = 0;
            core.switching = cs;
            core.current = None;
        }
        self.current_mode = Some(mode);
        self.mode_changes += 1;
        Ok(())
    }

    /// Run for `cycles` hypervisor cycles (stops early if the health
    /// monitor halts the system).
    ///
    /// Quiet stretches — no core active, no mode change pending, nothing
    /// due this tick — are crossed in one bulk advance to the next
    /// scheduled timer instead of one engine pass per cycle. The
    /// observable schedule is identical to polling every tick.
    ///
    /// # Errors
    ///
    /// Propagates CPU substrate errors.
    pub fn run(&mut self, cycles: u64) -> Result<(), XngError> {
        let mut remaining = cycles;
        while remaining > 0 {
            if self.hm.system_halted {
                break;
            }
            if self.idle_now() && !self.due_now() {
                self.post_timers();
                let horizon = self.time + remaining;
                let k = match self.next_wake(horizon) {
                    Some(wake) => wake - self.time,
                    // nothing fires in (now, horizon]: the whole budget
                    // is quiet time
                    None => remaining,
                };
                self.bulk_advance(k);
                self.ticks_skipped += k;
                remaining -= k;
                continue;
            }
            self.tick()?;
            self.ticks_polled += 1;
            remaining -= 1;
        }
        Ok(())
    }

    /// Whether this tick is pure time: no core can make progress and no
    /// state transition is pending. (A halted partition with an armed
    /// watchdog is excluded conservatively — the next engine pass disarms
    /// it, then fast-forwarding resumes.)
    fn idle_now(&self) -> bool {
        self.pending_mode.is_none()
            && !self.cluster.any_active()
            && !self
                .watchdogs
                .iter()
                .enumerate()
                .any(|(i, w)| w.is_some() && self.partitions[i].mode == PartitionMode::Halted)
    }

    /// Whether any timer fires on the *current* tick (those are never
    /// posted — the kernel only holds strictly-future times — so the
    /// engine must run now).
    fn due_now(&self) -> bool {
        for core in 0..CORE_COUNT {
            if self.config.plans[core].slots.is_empty() {
                continue;
            }
            let cs = &self.cores[core];
            if cs.switching > 0 {
                if cs.switching == 1 {
                    return true;
                }
            } else {
                let slot = self.config.plans[core].slots[cs.slot_idx];
                if cs.elapsed + 1 >= slot.duration {
                    return true;
                }
            }
        }
        self.watchdogs.iter().enumerate().any(|(i, w)| {
            w.is_some_and(|d| d <= self.time)
                && self.partitions[i].mode != PartitionMode::Halted
        })
    }

    /// Post every strictly-future timer deadline into the scheduler,
    /// memo-deduplicated so an unchanged deadline is posted once.
    fn post_timers(&mut self) {
        let now = self.time;
        for core in 0..CORE_COUNT {
            if self.config.plans[core].slots.is_empty() {
                continue;
            }
            let cs = &self.cores[core];
            if cs.switching > 0 {
                let due = now + cs.switching - 1;
                Self::post_timer(
                    &mut self.sched,
                    &mut self.memo.dispatch[core],
                    due,
                    now,
                    self.domains.dispatch,
                    XngTimer::Dispatch(core),
                );
            } else {
                let slot = self.config.plans[core].slots[cs.slot_idx];
                let due = now + slot.duration.saturating_sub(cs.elapsed + 1);
                Self::post_timer(
                    &mut self.sched,
                    &mut self.memo.retire[core],
                    due,
                    now,
                    self.domains.retire,
                    XngTimer::Retire(core),
                );
            }
        }
        for i in 0..self.watchdogs.len() {
            let Some(deadline) = self.watchdogs[i] else {
                continue;
            };
            if self.partitions[i].mode == PartitionMode::Halted {
                continue;
            }
            Self::post_timer(
                &mut self.sched,
                &mut self.memo.watchdog[i],
                deadline,
                now,
                self.domains.watchdog,
                XngTimer::Watchdog(i),
            );
        }
    }

    fn post_timer(
        sched: &mut TimerWheel<XngTimer>,
        memo: &mut Option<u64>,
        due: u64,
        now: u64,
        domain: DomainId,
        timer: XngTimer,
    ) {
        if due > now && *memo != Some(due) {
            sched
                .post(due, domain, timer)
                .expect("timer deadline is in the future");
            *memo = Some(due);
        }
    }

    /// Whether a popped timer still reflects live state: its due time,
    /// recomputed now, must equal the posted time.
    fn timer_live(&self, timer: XngTimer, t: u64) -> bool {
        match timer {
            XngTimer::Dispatch(core) => {
                let cs = &self.cores[core];
                !self.config.plans[core].slots.is_empty()
                    && cs.switching > 0
                    && self.time + cs.switching - 1 == t
            }
            XngTimer::Retire(core) => {
                let cs = &self.cores[core];
                if self.config.plans[core].slots.is_empty() || cs.switching > 0 {
                    return false;
                }
                let slot = self.config.plans[core].slots[cs.slot_idx];
                self.time + slot.duration.saturating_sub(cs.elapsed + 1) == t
            }
            XngTimer::Watchdog(pid) => {
                self.watchdogs[pid] == Some(t)
                    && self.partitions[pid].mode != PartitionMode::Halted
            }
        }
    }

    /// Pop until a live timer surfaces; its time is the next tick where
    /// anything can happen. Stale pops (superseded deadlines) are
    /// discarded — validation makes them harmless. Entries beyond
    /// `horizon` (the farthest this `run` may advance) are left pending,
    /// so the kernel's hand never runs ahead of hypervisor time and every
    /// memoised post stays either pending or behind `now`.
    fn next_wake(&mut self, horizon: u64) -> Option<u64> {
        loop {
            match self.sched.peek_time() {
                None => return None,
                Some(t) if t > horizon => return None,
                Some(_) => {
                    let ev = self.sched.pop_next().expect("peeked entry pops");
                    if ev.time > self.time && self.timer_live(ev.payload, ev.time) {
                        return Some(ev.time);
                    }
                }
            }
        }
    }

    /// Apply `k` quiet ticks at once: exactly the state every skipped
    /// engine pass would have touched — per-core slot clocks, the cluster
    /// cycle counter, and system time. Callers guarantee nothing fires in
    /// the crossed interval, so `switching` stays positive and `elapsed`
    /// stays short of the slot duration.
    fn bulk_advance(&mut self, k: u64) {
        for core in 0..CORE_COUNT {
            if self.config.plans[core].slots.is_empty() {
                continue;
            }
            let slot = self.config.plans[core].slots[self.cores[core].slot_idx];
            let cs = &mut self.cores[core];
            if cs.switching > 0 {
                debug_assert!(k < cs.switching, "advance crosses a dispatch");
                cs.switching -= k;
            } else {
                debug_assert!(cs.elapsed + k < slot.duration, "advance crosses a retire");
                cs.elapsed += k;
            }
        }
        self.cluster.cycles += k;
        self.cluster.bus.shared_accesses_this_cycle = 0;
        self.time += k;
    }

    fn tick(&mut self) -> Result<(), XngError> {
        if let Some(mode) = self.pending_mode.take() {
            self.apply_mode_change(mode)?;
        }
        // per-core slot engine
        for core in 0..CORE_COUNT {
            let plan_len = self.config.plans[core].slots.len();
            if plan_len == 0 {
                continue;
            }
            // clone what we need to appease the borrow checker
            let slot = self.config.plans[core].slots[self.cores[core].slot_idx];
            if self.cores[core].switching > 0 {
                self.cores[core].switching -= 1;
                if self.cores[core].switching == 0 {
                    self.dispatch(core, slot.partition)?;
                }
                continue;
            }
            self.cores[core].elapsed += 1;
            if self.cores[core].elapsed >= slot.duration {
                self.retire(core)?;
                let next_idx = (self.cores[core].slot_idx + 1) % plan_len;
                self.cores[core].slot_idx = next_idx;
                self.cores[core].elapsed = 0;
                let next_pid = self.config.plans[core].slots[next_idx].partition;
                self.cores[core].switching = self.switch_window(next_pid);
            }
        }

        // watchdog sweep: partitions must show liveness within their window
        for i in 0..self.partitions.len() {
            let Some(deadline) = self.watchdogs[i] else {
                continue;
            };
            if self.partitions[i].mode == PartitionMode::Halted {
                self.watchdogs[i] = None;
                continue;
            }
            if self.time < deadline {
                continue;
            }
            let pid = PartitionId(i as u32);
            self.partitions[i].stats.watchdog_expiries += 1;
            let window = self.config.partitions[i].watchdog_cycles.unwrap_or(0);
            let action = self.report_hm(
                self.time,
                HmEvent::WatchdogExpiry,
                Some(pid),
                format!("no liveness for {window} cycles"),
            );
            // re-arm so a stuck partition keeps a ticking watchdog even if
            // the configured action is Ignore
            self.kick_watchdog(pid);
            self.apply_hm_action(pid, None, action);
        }

        // step guest cores
        let events = self.cluster.step()?;
        for ev in events {
            let Some(pid) = self.cores[ev.core].current else {
                continue;
            };
            match ev.event {
                Event::Halted => {
                    self.partitions[pid.0 as usize].mode = PartitionMode::Halted;
                }
                Event::HypervisorCall(code) => {
                    self.service_hypercall(ev.core, pid, code)?;
                }
                Event::UnhandledTrap(cause) => {
                    self.partitions[pid.0 as usize].stats.traps += 1;
                    if matches!(
                        cause,
                        TrapCause::MpuDataFault
                            | TrapCause::MpuFetchFault
                            | TrapCause::DomainFault
                    ) {
                        self.partitions[pid.0 as usize].stats.isolation_traps += 1;
                        self.obs
                            .counter_add(OBS_SUB, &format!("isolation_traps_p{}", pid.0), 1);
                    }
                    let action = self.report_hm(
                        self.time,
                        HmEvent::PartitionTrap,
                        Some(pid),
                        format!("core {}: {cause:?}", ev.core),
                    );
                    self.apply_hm_action(pid, Some(ev.core), action);
                }
                _ => {}
            }
        }
        self.time += 1;
        Ok(())
    }

    /// Apply a health-monitor action. `core` is the offending core when
    /// the event is attributable to one; `None` (e.g. watchdog sweep)
    /// stops every core currently running the partition.
    ///
    /// Restart actions escalate: once the partition has exhausted its
    /// configured restart limit, the restart is promoted to a permanent
    /// halt, and a halted partition with a configured spare fails over —
    /// its plan slots are rewritten to the spare.
    fn apply_hm_action(&mut self, pid: PartitionId, core: Option<usize>, action: HmAction) {
        match core {
            Some(c) => self.cluster.core_mut(c).running = false,
            None => {
                for c in 0..CORE_COUNT {
                    if self.cores[c].current == Some(pid) {
                        self.cluster.core_mut(c).running = false;
                    }
                }
            }
        }
        let mut action = action;
        if action == HmAction::RestartPartition {
            if let Some(limit) = self.config.partitions[pid.0 as usize].restart_limit {
                if self.partitions[pid.0 as usize].stats.restarts >= u64::from(limit) {
                    action = HmAction::HaltPartition;
                    self.hm_escalations += 1;
                    self.obs.counter_add(OBS_SUB, "hm_escalations", 1);
                    self.obs.instant(
                        OBS_SUB,
                        "hm-escalation",
                        ClockDomain::Hv,
                        self.time,
                        &[("partition", pid.0.to_string())],
                    );
                }
            }
        }
        match action {
            HmAction::Ignore => {}
            HmAction::RestartPartition => {
                let rt = &mut self.partitions[pid.0 as usize];
                rt.mode = PartitionMode::Cold;
                rt.stats.restarts += 1;
                if let Workload::Native(t) = &mut rt.workload {
                    t.reset();
                }
                // a restarted partition gets a fresh liveness window
                self.kick_watchdog(pid);
            }
            HmAction::HaltPartition => {
                self.partitions[pid.0 as usize].mode = PartitionMode::Halted;
                self.watchdogs[pid.0 as usize] = None;
                if let Some(spare) = self.config.partitions[pid.0 as usize].spare {
                    self.failover_to_spare(pid, spare);
                }
            }
            HmAction::HaltSystem => { /* flag already set by the monitor */ }
        }
    }

    /// Rewrite the active plans so `spare` takes over every slot of the
    /// halted `failed` partition, cold-starting the spare at its next
    /// dispatch.
    fn failover_to_spare(&mut self, failed: PartitionId, spare: PartitionId) {
        let mut rewritten = 0usize;
        for (c, plan) in self.config.plans.iter_mut().enumerate() {
            let mut touched = false;
            for slot in &mut plan.slots {
                if slot.partition == failed {
                    slot.partition = spare;
                    rewritten += 1;
                    touched = true;
                }
            }
            // preempt the core if the failed partition is on it right now
            if touched && self.cores[c].current == Some(failed) {
                self.cluster.core_mut(c).running = false;
                self.cores[c].current = None;
                self.cores[c].elapsed = 0;
                self.cores[c].switching = self.config.context_switch_cycles.max(1);
            }
        }
        if rewritten > 0 {
            self.spare_failovers += 1;
            self.partitions[spare.0 as usize].mode = PartitionMode::Cold;
            self.obs.counter_add(OBS_SUB, "spare_failovers", 1);
            self.obs.instant(
                OBS_SUB,
                "spare-failover",
                ClockDomain::Hv,
                self.time,
                &[
                    ("failed", failed.0.to_string()),
                    ("spare", spare.0.to_string()),
                    ("slots", rewritten.to_string()),
                ],
            );
        }
    }

    /// Slot end: save guest context and stop the core.
    fn retire(&mut self, core: usize) -> Result<(), XngError> {
        let Some(pid) = self.cores[core].current.take() else {
            return Ok(());
        };
        let rt = &mut self.partitions[pid.0 as usize];
        let hart = self.cluster.core_mut(core);
        if matches!(rt.workload, Workload::Guest { .. }) {
            let mut ctx = VcpuContext {
                regs: [0; 16],
                pc: hart.pc,
                started: true,
            };
            for i in 0..16 {
                ctx.regs[i] = hart.reg(i as u8);
            }
            rt.vcpus[core] = ctx;
            let executed = hart.cycles - self.cores[core].cycles_at_dispatch;
            rt.stats.cpu_cycles += executed;
        }
        hart.running = false;
        Ok(())
    }

    /// Slot start: establish spatial isolation and launch the partition.
    ///
    /// Under [`IsolationMode::MpuReprogram`] the incoming partition's
    /// regions replace the core's MPU table; under
    /// [`IsolationMode::ProtectionKeys`] the union key table is installed
    /// once per core and only the active-key register is swapped.
    fn dispatch(&mut self, core: usize, pid: PartitionId) -> Result<(), XngError> {
        self.cores[core].current = Some(pid);
        let cs = self.config.context_switch_cycles;
        let pconf = &self.config.partitions[pid.0 as usize];
        let regions: Vec<MpuRegion> = match self.config.isolation {
            IsolationMode::MpuReprogram => pconf
                .memory
                .iter()
                .map(|m| MpuRegion {
                    base: m.base,
                    size: m.size,
                    user_read: true,
                    user_write: m.writable,
                    user_exec: true,
                    key: hermes_cpu::mpu::KEY_SHARED,
                })
                .collect(),
            IsolationMode::ProtectionKeys => self.config.key_table(),
        };
        let slot = self.config.plans[core].slots[self.cores[core].slot_idx];

        if self.partitions[pid.0 as usize].mode == PartitionMode::Halted {
            return Ok(());
        }
        self.obs.counter_add(OBS_SUB, "context_switches", 1);
        self.obs.trace_instant(
            OBS_SUB,
            "context-switch",
            ClockDomain::Hv,
            self.time,
            &[
                ("core", core.to_string()),
                ("partition", pid.0.to_string()),
                ("slot", self.cores[core].slot_idx.to_string()),
            ],
            self.trace,
        );
        // arm the watchdog at first dispatch; liveness kicks push it out
        if self.watchdogs[pid.0 as usize].is_none() {
            self.kick_watchdog(pid);
        }
        let rt = &mut self.partitions[pid.0 as usize];
        rt.stats.activations += 1;
        rt.stats.max_start_jitter = rt.stats.max_start_jitter.max(cs);

        match &mut rt.workload {
            Workload::Idle => {}
            Workload::Guest { entry, image } => {
                // a cold (re)start reloads the image once and resets every
                // vCPU; a vCPU dispatched on an additional core for the
                // first time starts at the entry point (guest SMP)
                let entry = *entry;
                if rt.mode == PartitionMode::Cold {
                    let image = image.clone();
                    for (addr, words) in &image {
                        self.cluster.load_program(core, *addr, words)?;
                    }
                    let rt = &mut self.partitions[pid.0 as usize];
                    for vcpu in &mut rt.vcpus {
                        vcpu.started = false;
                    }
                    rt.mode = PartitionMode::Normal;
                }
                {
                    let rt = &mut self.partitions[pid.0 as usize];
                    if !rt.vcpus[core].started {
                        rt.vcpus[core] = VcpuContext {
                            regs: [0; 16],
                            pc: entry,
                            started: true,
                        };
                    }
                }
                let rt = &self.partitions[pid.0 as usize];
                let ctx = rt.vcpus[core].clone();
                let isolation = self.config.isolation;
                let hart = self.cluster.core_mut(core);
                match isolation {
                    IsolationMode::MpuReprogram => {
                        hart.mpu.program(&regions);
                        self.isolation_stats.mpu_reprograms += 1;
                        self.isolation_stats.mpu_reprogram_cycles +=
                            reprogram_cost(regions.len());
                        self.obs.counter_add(
                            OBS_SUB,
                            "mpu_reprogram_cycles",
                            reprogram_cost(regions.len()),
                        );
                    }
                    IsolationMode::ProtectionKeys => {
                        if !self.key_installed[core] {
                            // the union table is installed once per core;
                            // subsequent dispatches only cross the gate
                            hart.mpu.program(&regions);
                            self.key_installed[core] = true;
                            self.isolation_stats.mpu_reprograms += 1;
                            self.isolation_stats.mpu_reprogram_cycles +=
                                reprogram_cost(regions.len());
                        }
                        hart.mpu.active_key = XngConfig::domain_key(pid);
                        self.isolation_stats.gate_crossings += 1;
                        self.isolation_stats.gate_cross_cycles += GATE_CROSS_CYCLES;
                        self.obs
                            .counter_add(OBS_SUB, "gate_cross_cycles", GATE_CROSS_CYCLES);
                    }
                }
                hart.mpu.enabled = true;
                for (i, &v) in ctx.regs.iter().enumerate() {
                    hart.set_reg(i as u8, v);
                }
                hart.start(ctx.pc, Privilege::User);
                self.cores[core].cycles_at_dispatch = hart.cycles;
            }
            Workload::Native(task) => {
                rt.mode = PartitionMode::Normal;
                let budget = slot.duration.saturating_sub(cs);
                let mut ctx = TaskCtx {
                    pid,
                    now: self.time,
                    budget,
                    consumed: 0,
                    ports: &mut self.ports,
                    trace: &mut rt.trace,
                    halt_requested: false,
                };
                let result = task.step(&mut ctx);
                let consumed = ctx.consumed;
                let halt = ctx.halt_requested;
                rt.stats.cpu_cycles += consumed.min(budget);
                if halt {
                    rt.mode = PartitionMode::Halted;
                }
                if result.is_ok() && consumed <= budget {
                    // a successful on-budget activation is a liveness proof
                    self.kick_watchdog(pid);
                }
                if consumed > budget {
                    self.partitions[pid.0 as usize].stats.overruns += 1;
                    let action = self.report_hm(
                        self.time,
                        HmEvent::SlotOverrun,
                        Some(pid),
                        format!("consumed {consumed} of {budget}"),
                    );
                    self.apply_hm_action(pid, Some(core), action);
                }
                if let Err(e) = result {
                    self.partitions[pid.0 as usize].stats.traps += 1;
                    let action = self.report_hm(self.time, HmEvent::PartitionError, Some(pid), e);
                    self.apply_hm_action(pid, Some(core), action);
                }
            }
        }
        Ok(())
    }

    fn port_name(&self, pid: PartitionId, index: u32) -> Option<String> {
        self.config.partitions[pid.0 as usize]
            .ports
            .get(index as usize)
            .map(|p| p.name.clone())
    }

    fn service_hypercall(
        &mut self,
        core: usize,
        pid: PartitionId,
        code: u16,
    ) -> Result<(), XngError> {
        self.partitions[pid.0 as usize].stats.hypercalls += 1;
        self.obs.counter_add(OBS_SUB, "hypercalls", 1);
        self.obs.instant(
            OBS_SUB,
            "hypercall",
            ClockDomain::Hv,
            self.time,
            &[
                ("core", core.to_string()),
                ("partition", pid.0.to_string()),
                ("code", format!("{code:#x}")),
            ],
        );
        let Some(hc) = Hypercall::decode(code) else {
            let action = self.report_hm(
                self.time,
                HmEvent::IllegalHypercall,
                Some(pid),
                format!("unknown hypercall {code:#x}"),
            );
            self.apply_hm_action(pid, Some(core), action);
            return Ok(());
        };
        // any serviced hypercall is a liveness indication for the watchdog
        self.kick_watchdog(pid);
        let now = self.time;
        match hc {
            Hypercall::GetPartitionId => {
                self.cluster.core_mut(core).set_reg(1, pid.0);
            }
            Hypercall::GetSystemTime => {
                self.cluster.core_mut(core).set_reg(1, now as u32);
            }
            Hypercall::WriteSampling | Hypercall::SendQueuing => {
                let idx = self.cluster.core(core).reg(1);
                let word = self.cluster.core(core).reg(2);
                if let Some(name) = self.port_name(pid, idx) {
                    // port errors from guests are health events, not panics
                    if let Err(e) = self.ports.write(pid, &name, &word.to_le_bytes(), now) {
                        let action =
                            self.report_hm(now, HmEvent::IllegalHypercall, Some(pid), e.to_string());
                        self.apply_hm_action(pid, Some(core), action);
                    }
                } else {
                    let action = self.report_hm(
                        now,
                        HmEvent::IllegalHypercall,
                        Some(pid),
                        format!("bad port index {idx}"),
                    );
                    self.apply_hm_action(pid, Some(core), action);
                }
            }
            Hypercall::ReadSampling => {
                let idx = self.cluster.core(core).reg(1);
                // an out-of-range port index is a health event, exactly
                // like the write side — never a silent empty read
                let Some(name) = self.port_name(pid, idx) else {
                    let action = self.report_hm(
                        now,
                        HmEvent::IllegalHypercall,
                        Some(pid),
                        format!("bad port index {idx}"),
                    );
                    self.apply_hm_action(pid, Some(core), action);
                    return Ok(());
                };
                match self.ports.read_sampling(pid, &name, now) {
                    Ok(result) => {
                        let hart = self.cluster.core_mut(core);
                        match result {
                            Some((data, _age)) => {
                                let mut raw = [0u8; 4];
                                raw[..data.len().min(4)]
                                    .copy_from_slice(&data[..data.len().min(4)]);
                                hart.set_reg(1, u32::from_le_bytes(raw));
                                hart.set_reg(2, 1);
                            }
                            None => {
                                hart.set_reg(1, 0);
                                hart.set_reg(2, 0);
                            }
                        }
                    }
                    Err(e) => {
                        let action = self.report_hm(
                            now,
                            HmEvent::IllegalHypercall,
                            Some(pid),
                            e.to_string(),
                        );
                        self.apply_hm_action(pid, Some(core), action);
                    }
                }
            }
            Hypercall::RecvQueuing => {
                let idx = self.cluster.core(core).reg(1);
                let Some(name) = self.port_name(pid, idx) else {
                    let action = self.report_hm(
                        now,
                        HmEvent::IllegalHypercall,
                        Some(pid),
                        format!("bad port index {idx}"),
                    );
                    self.apply_hm_action(pid, Some(core), action);
                    return Ok(());
                };
                match self.ports.read_queuing(pid, &name) {
                    Ok(msg) => {
                        let hart = self.cluster.core_mut(core);
                        match msg {
                            Some(m) => {
                                let mut raw = [0u8; 4];
                                raw[..m.data.len().min(4)]
                                    .copy_from_slice(&m.data[..m.data.len().min(4)]);
                                hart.set_reg(1, u32::from_le_bytes(raw));
                                hart.set_reg(2, 1);
                            }
                            None => {
                                hart.set_reg(1, 0);
                                hart.set_reg(2, 0);
                            }
                        }
                    }
                    Err(e) => {
                        let action = self.report_hm(
                            now,
                            HmEvent::IllegalHypercall,
                            Some(pid),
                            e.to_string(),
                        );
                        self.apply_hm_action(pid, Some(core), action);
                    }
                }
            }
            Hypercall::HaltSelf => {
                self.partitions[pid.0 as usize].mode = PartitionMode::Halted;
                self.cluster.core_mut(core).running = false;
            }
            Hypercall::Yield => {
                // save context and idle until the next activation
                let hart = self.cluster.core_mut(core);
                let mut ctx = VcpuContext {
                    regs: [0; 16],
                    pc: hart.pc,
                    started: true,
                };
                for i in 0..16 {
                    ctx.regs[i] = hart.reg(i as u8);
                }
                hart.running = false;
                self.partitions[pid.0 as usize].vcpus[core] = ctx;
            }
            Hypercall::RequestModeChange => {
                let mode = self.cluster.core(core).reg(1) as usize;
                if !self.config.partitions[pid.0 as usize].system {
                    let action = self.report_hm(
                        now,
                        HmEvent::IllegalHypercall,
                        Some(pid),
                        "mode change from non-system partition".to_string(),
                    );
                    self.apply_hm_action(pid, Some(core), action);
                } else if self.request_mode_change(mode).is_err() {
                    let action = self.report_hm(
                        now,
                        HmEvent::IllegalHypercall,
                        Some(pid),
                        format!("bad mode index {mode}"),
                    );
                    self.apply_hm_action(pid, Some(core), action);
                }
            }
            Hypercall::TraceChar => {
                let c = self.cluster.core(core).reg(1) as u8;
                let rt = &mut self.partitions[pid.0 as usize];
                match rt.trace.last_mut() {
                    Some(last) if c != b'\n' => last.push(c as char),
                    _ if c == b'\n' => rt.trace.push(String::new()),
                    _ => rt.trace.push((c as char).to_string()),
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{
        Channel, MemRegion, PartitionConfig, Plan, PortConfig, PortDirection, PortKind, Slot,
        XngConfig,
    };
    use crate::partition::native_task;
    use hermes_cpu::isa::assemble;
    use hermes_cpu::memmap::layout;

    fn two_native_partitions() -> (Hypervisor, PartitionId, PartitionId) {
        let mut cfg = XngConfig::new("t");
        let a = cfg.add_partition(PartitionConfig::new("a"));
        let b = cfg.add_partition(PartitionConfig::new("b"));
        cfg.set_plan(0, Plan::new(vec![Slot::new(a, 1000), Slot::new(b, 2000)]));
        let hv = Hypervisor::new(cfg).unwrap();
        (hv, a, b)
    }

    #[test]
    fn cyclic_activation_counts() {
        let (mut hv, a, b) = two_native_partitions();
        hv.attach_native(a, native_task("a", |c| {
            c.consume(100);
            Ok(())
        }))
        .unwrap();
        hv.attach_native(b, native_task("b", |c| {
            c.consume(100);
            Ok(())
        }))
        .unwrap();
        // 3 major frames of 3000 cycles + switches
        hv.run(9_600).unwrap();
        let (sa, sb) = (hv.stats(a), hv.stats(b));
        assert!(sa.activations >= 3, "a activated {}", sa.activations);
        assert!(sb.activations >= 3);
        assert!((sa.activations as i64 - sb.activations as i64).abs() <= 1);
    }

    #[test]
    fn dispatch_instants_link_into_an_attached_trace() {
        let (mut hv, a, b) = two_native_partitions();
        for pid in [a, b] {
            hv.attach_native(pid, native_task("t", |c| {
                c.consume(100);
                Ok(())
            }))
            .unwrap();
        }
        let obs = Recorder::new();
        let ctx = obs.mint_trace();
        hv.set_obs(obs.clone());
        hv.set_trace_ctx(Some(ctx));
        hv.run(9_600).unwrap();
        let snap = obs.snapshot();
        let switches: Vec<_> = snap
            .subsystems
            .iter()
            .flat_map(|s| s.events.iter())
            .filter(|e| e.name == "context-switch")
            .collect();
        assert!(!switches.is_empty());
        assert!(
            switches.iter().all(|e| e.trace.is_some_and(|t| t.trace_id == ctx.trace_id)),
            "every dispatch links into the attached trace"
        );
        // clearing the context restores plain instants
        hv.set_trace_ctx(None);
        hv.run(hv.time() + 3_200).unwrap();
        let snap = obs.snapshot();
        assert!(
            snap.subsystems
                .iter()
                .flat_map(|s| s.events.iter())
                .any(|e| e.name == "context-switch" && e.trace.is_none()),
            "untraced dispatches follow the clear"
        );
    }

    #[test]
    fn native_overrun_detected() {
        let (mut hv, a, b) = two_native_partitions();
        hv.attach_native(a, native_task("hog", |c| {
            c.consume(50_000); // way over the 1000-cycle slot
            Ok(())
        }))
        .unwrap();
        hv.attach_native(b, native_task("ok", |c| {
            c.consume(10);
            Ok(())
        }))
        .unwrap();
        hv.run(10_000).unwrap();
        assert!(hv.stats(a).overruns >= 1);
        assert!(hv.health().count(HmEvent::SlotOverrun) >= 1);
        // b unaffected: still activates on schedule
        assert!(hv.stats(b).activations >= 2);
    }

    #[test]
    fn failing_task_restarts_by_default() {
        let (mut hv, a, _) = two_native_partitions();
        hv.attach_native(a, native_task("flaky", |_| Err("boom".into())))
            .unwrap();
        hv.run(7_000).unwrap();
        let s = hv.stats(a);
        assert!(s.traps >= 2);
        assert!(s.restarts >= 2, "default HM action restarts");
    }

    #[test]
    fn halt_system_action() {
        let (mut hv, a, _) = {
            let mut cfg = XngConfig::new("t");
            let a = cfg.add_partition(PartitionConfig::new("a"));
            let b = cfg.add_partition(PartitionConfig::new("b"));
            cfg.set_plan(0, Plan::new(vec![Slot::new(a, 1000), Slot::new(b, 2000)]));
            cfg.set_hm_action(HmEvent::PartitionError, HmAction::HaltSystem);
            (Hypervisor::new(cfg).unwrap(), a, b)
        };
        hv.attach_native(a, native_task("bad", |_| Err("fatal".into())))
            .unwrap();
        hv.run(100_000).unwrap();
        assert!(hv.is_system_halted());
        assert!(hv.time() < 100_000, "run stopped early");
    }

    #[test]
    fn guest_partition_runs_and_hypercalls() {
        let mut cfg = XngConfig::new("t");
        let g = cfg.add_partition(
            PartitionConfig::new("guest")
                .with_memory(MemRegion {
                    base: layout::SRAM_BASE,
                    size: 0x1000,
                    writable: true,
                })
                .with_port(PortConfig {
                    name: "out".into(),
                    direction: PortDirection::Source,
                    kind: PortKind::Sampling,
                }),
        );
        let sink = cfg.add_partition(PartitionConfig::new("sink").with_port(PortConfig {
            name: "in".into(),
            direction: PortDirection::Destination,
            kind: PortKind::Sampling,
        }));
        cfg.add_channel(Channel {
            source: (g, "out".into()),
            destinations: vec![(sink, "in".into())],
            max_message: 8,
        });
        cfg.set_plan(0, Plan::new(vec![Slot::new(g, 2000), Slot::new(sink, 500)]));
        let mut hv = Hypervisor::new(cfg).unwrap();
        // guest: write 0xABCD to port 0, then yield forever
        let prog = assemble(
            r#"
            addi r1, r0, 0       ; port index
            lui  r2, 0xAB
            addi r2, r2, 0xCD
            ecall 0x03           ; write sampling
        spin:
            ecall 0x08           ; yield
            jal  r0, spin
            "#,
        )
        .unwrap();
        hv.attach_guest(g, layout::SRAM_BASE, vec![(layout::SRAM_BASE, prog)])
            .unwrap();
        hv.run(6_000).unwrap();
        assert!(hv.stats(g).hypercalls >= 2);
        let msg = hv
            .ports_mut()
            .read_sampling(sink, "in", 0)
            .unwrap()
            .expect("message routed");
        assert_eq!(
            u32::from_le_bytes([msg.0[0], msg.0[1], msg.0[2], msg.0[3]]),
            (0xAB << 16) + 0xCD
        );
    }

    #[test]
    fn rogue_guest_is_contained() {
        // guest writes outside its MPU region -> trap -> restart, while a
        // victim native partition keeps its schedule
        let mut cfg = XngConfig::new("t");
        let rogue = cfg.add_partition(PartitionConfig::new("rogue").with_memory(MemRegion {
            base: layout::SRAM_BASE,
            size: 0x1000,
            writable: true,
        }));
        let victim = cfg.add_partition(PartitionConfig::new("victim"));
        cfg.set_plan(
            0,
            Plan::new(vec![Slot::new(rogue, 1000), Slot::new(victim, 1000)]),
        );
        let mut hv = Hypervisor::new(cfg).unwrap();
        let attack = assemble(&format!(
            "lui r1, {hi}\nsw r0, (r1)\nhalt",
            hi = layout::DDR_BASE >> 16
        ))
        .unwrap();
        hv.attach_guest(rogue, layout::SRAM_BASE, vec![(layout::SRAM_BASE, attack)])
            .unwrap();
        hv.attach_native(victim, native_task("victim", |c| {
            c.consume(10);
            Ok(())
        }))
        .unwrap();
        hv.run(10_000).unwrap();
        assert!(hv.stats(rogue).traps >= 1, "MPU trap recorded");
        assert!(hv.stats(rogue).restarts >= 1);
        assert!(
            hv.stats(victim).activations >= 4,
            "victim schedule unaffected: {:?}",
            hv.stats(victim)
        );
        assert!(!hv.is_system_halted());
    }

    #[test]
    fn protection_keys_contain_cross_domain_guest() {
        use crate::config::IsolationMode;
        // two guests under protection keys: the rogue reads an address
        // inside the victim's (key-tagged) region — covered by the union
        // table, so only the domain key stands between them
        let mut cfg = XngConfig::new("keys");
        let rogue = cfg.add_partition(PartitionConfig::new("rogue").with_memory(MemRegion {
            base: layout::SRAM_BASE,
            size: 0x1000,
            writable: true,
        }));
        let victim = cfg.add_partition(PartitionConfig::new("victim").with_memory(MemRegion {
            base: layout::SRAM_BASE + 0x1000,
            size: 0x1000,
            writable: true,
        }));
        cfg.set_plan(
            0,
            Plan::new(vec![Slot::new(rogue, 1000), Slot::new(victim, 1000)]),
        );
        cfg.isolation = IsolationMode::ProtectionKeys;
        let mut hv = Hypervisor::new(cfg).unwrap();
        let attack = assemble(&format!(
            "lui r1, {hi}\nlw r2, 0x1000(r1)\nhalt",
            hi = layout::SRAM_BASE >> 16
        ))
        .unwrap();
        hv.attach_guest(rogue, layout::SRAM_BASE, vec![(layout::SRAM_BASE, attack)])
            .unwrap();
        let spin = assemble("spin:\necall 0x08\njal r0, spin").unwrap();
        hv.attach_guest(
            victim,
            layout::SRAM_BASE + 0x1000,
            vec![(layout::SRAM_BASE + 0x1000, spin)],
        )
        .unwrap();
        hv.run(10_000).unwrap();
        let s = hv.stats(rogue);
        assert!(s.traps >= 1, "cross-domain read trapped: {s:?}");
        assert!(s.isolation_traps >= 1, "attributed as an isolation trap");
        assert_eq!(hv.stats(victim).isolation_traps, 0);
        let iso = hv.isolation_stats();
        assert!(iso.gate_crossings >= 2, "every dispatch crosses the gate");
        assert_eq!(iso.mpu_reprograms, 1, "union table installed once");
        assert!(iso.gate_cross_cycles > 0);
        assert!(!hv.is_system_halted());
    }

    #[test]
    fn four_core_parallel_partitions() {
        let mut cfg = XngConfig::new("t");
        let p = cfg.add_partition(PartitionConfig::new("mc"));
        for core in 0..CORE_COUNT {
            cfg.set_plan(core, Plan::new(vec![Slot::new(p, 1000)]));
        }
        let mut hv = Hypervisor::new(cfg).unwrap();
        hv.attach_native(p, native_task("mc", |c| {
            c.consume(10);
            Ok(())
        }))
        .unwrap();
        hv.run(3000).unwrap();
        // one activation per core per frame: ~4 cores x ~2 frames
        assert!(
            hv.stats(p).activations >= 8,
            "multicore activations: {}",
            hv.stats(p).activations
        );
    }

    #[test]
    fn trace_accumulates() {
        let (mut hv, a, _) = two_native_partitions();
        hv.attach_native(a, native_task("tracer", |c| {
            c.trace(format!("t={}", c.now()));
            Ok(())
        }))
        .unwrap();
        hv.run(7000).unwrap();
        assert!(hv.trace(a).len() >= 2);
    }
    #[test]
    fn mode_change_switches_plans() {
        let mut cfg = XngConfig::new("modes");
        let a = cfg.add_partition(PartitionConfig::new("nominal"));
        let b = cfg.add_partition(PartitionConfig::new("safe"));
        cfg.set_plan(0, Plan::new(vec![Slot::new(a, 2_000)]));
        let mut safe_plans = vec![Plan::default(); hermes_cpu::cluster::CORE_COUNT];
        safe_plans[0] = Plan::new(vec![Slot::new(b, 2_000)]);
        let safe_mode = cfg.add_mode("safe", safe_plans);
        let mut hv = Hypervisor::new(cfg).unwrap();
        hv.attach_native(a, native_task("nominal", |c| {
            c.consume(10);
            Ok(())
        }))
        .unwrap();
        hv.attach_native(b, native_task("safe", |c| {
            c.consume(10);
            Ok(())
        }))
        .unwrap();
        hv.run(10_000).unwrap();
        assert!(hv.stats(a).activations >= 3);
        assert_eq!(hv.stats(b).activations, 0, "safe mode not active yet");
        assert_eq!(hv.current_mode(), None);

        hv.request_mode_change(safe_mode).unwrap();
        let a_before = hv.stats(a).activations;
        hv.run(10_000).unwrap();
        assert_eq!(hv.current_mode(), Some(safe_mode));
        assert_eq!(hv.mode_changes, 1);
        assert!(hv.stats(b).activations >= 3, "safe partition now runs");
        assert_eq!(
            hv.stats(a).activations,
            a_before,
            "nominal partition no longer scheduled"
        );
        assert!(hv.request_mode_change(99).is_err());
    }

    #[test]
    fn guest_mode_change_requires_system_partition() {
        let mut cfg = XngConfig::new("modes");
        let user = cfg.add_partition(PartitionConfig::new("user").with_memory(MemRegion {
            base: layout::SRAM_BASE,
            size: 0x1000,
            writable: true,
        }));
        let sys = cfg.add_partition(
            PartitionConfig::new("sys")
                .system()
                .with_memory(MemRegion {
                    base: layout::SRAM_BASE + 0x1000,
                    size: 0x1000,
                    writable: true,
                }),
        );
        cfg.set_plan(0, Plan::new(vec![Slot::new(user, 2_000), Slot::new(sys, 2_000)]));
        let mut alt = vec![Plan::default(); hermes_cpu::cluster::CORE_COUNT];
        alt[0] = Plan::new(vec![Slot::new(sys, 1_000)]);
        let mode = cfg.add_mode("alt", alt);
        let mut hv = Hypervisor::new(cfg).unwrap();
        // both guests request mode 0 then spin
        let prog = assemble("addi r1, r0, 0\necall 0x11\nspin:\njal r0, spin").unwrap();
        hv.attach_guest(user, layout::SRAM_BASE, vec![(layout::SRAM_BASE, prog.clone())])
            .unwrap();
        hv.attach_guest(
            sys,
            layout::SRAM_BASE + 0x1000,
            vec![(layout::SRAM_BASE + 0x1000, prog)],
        )
        .unwrap();
        // run just past the user partition's slot: its request is illegal
        hv.run(2_200).unwrap();
        assert!(hv.health().count(HmEvent::IllegalHypercall) >= 1);
        assert_eq!(hv.current_mode(), None, "user request denied");
        // the system partition's slot comes next; its request succeeds
        hv.run(4_000).unwrap();
        assert_eq!(hv.current_mode(), Some(mode));
        let _ = HmAction::Ignore;
    }
    #[test]
    fn guest_smp_runs_on_multiple_cores() {
        // one guest partition scheduled on cores 0 and 1: each vCPU starts
        // at the entry, reads its hart id, and parks
        let mut cfg = XngConfig::new("smp");
        let g = cfg.add_partition(PartitionConfig::new("smp").with_memory(MemRegion {
            base: layout::SRAM_BASE,
            size: 0x1000,
            writable: true,
        }));
        cfg.set_plan(0, Plan::new(vec![Slot::new(g, 3_000)]));
        cfg.set_plan(1, Plan::new(vec![Slot::new(g, 3_000)]));
        let mut hv = Hypervisor::new(cfg).unwrap();
        // store 100+hartid into SRAM[hartid*4], then yield forever
        let prog = assemble(&format!(
            r#"
            csrr r1, 6
            addi r2, r1, 100
            lui  r3, {sram}
            add  r4, r1, r1
            add  r4, r4, r4      ; hartid * 4
            add  r3, r3, r4
            sw   r2, (r3)
        spin:
            ecall 0x08
            jal  r0, spin
            "#,
            sram = layout::SRAM_BASE >> 16
        ))
        .unwrap();
        hv.attach_guest(g, layout::SRAM_BASE + 0x100, vec![(layout::SRAM_BASE + 0x100, prog)])
            .unwrap();
        hv.run(20_000).unwrap();
        let w0 = hv.cluster().bus.read_bytes(layout::SRAM_BASE, 4).unwrap();
        let w1 = hv.cluster().bus.read_bytes(layout::SRAM_BASE + 4, 4).unwrap();
        assert_eq!(u32::from_le_bytes(w0.try_into().unwrap()), 100, "core 0 vCPU ran");
        assert_eq!(u32::from_le_bytes(w1.try_into().unwrap()), 101, "core 1 vCPU ran");
        assert!(hv.stats(g).activations >= 4, "both cores activate the partition");
    }

    #[test]
    fn watchdog_expiry_restarts_silent_partition() {
        let mut cfg = XngConfig::new("wd");
        let a = cfg.add_partition(PartitionConfig::new("silent").with_watchdog(1_500));
        let b = cfg.add_partition(PartitionConfig::new("live"));
        cfg.set_plan(0, Plan::new(vec![Slot::new(a, 1000), Slot::new(b, 1000)]));
        let mut hv = Hypervisor::new(cfg).unwrap();
        // `a` stays Idle: it is dispatched on schedule but never shows
        // liveness (no successful activation, no hypercall)
        hv.attach_native(b, native_task("live", |c| {
            c.consume(10);
            Ok(())
        }))
        .unwrap();
        hv.run(20_000).unwrap();
        let s = hv.stats(a);
        assert!(s.watchdog_expiries >= 2, "watchdog keeps firing: {s:?}");
        assert!(s.restarts >= 2, "default action restarts: {s:?}");
        assert!(hv.health().count(HmEvent::WatchdogExpiry) >= 2);
        assert_eq!(hv.stats(b).watchdog_expiries, 0, "live partition untouched");
    }

    #[test]
    fn restart_limit_escalates_to_halt() {
        let mut cfg = XngConfig::new("esc");
        let a = cfg.add_partition(PartitionConfig::new("flaky").with_restart_limit(2));
        let b = cfg.add_partition(PartitionConfig::new("ok"));
        cfg.set_plan(0, Plan::new(vec![Slot::new(a, 1000), Slot::new(b, 1000)]));
        let mut hv = Hypervisor::new(cfg).unwrap();
        hv.attach_native(a, native_task("flaky", |_| Err("boom".into())))
            .unwrap();
        hv.attach_native(b, native_task("ok", |c| {
            c.consume(5);
            Ok(())
        }))
        .unwrap();
        hv.run(30_000).unwrap();
        assert_eq!(hv.mode(a), PartitionMode::Halted, "promoted to halt");
        assert_eq!(hv.stats(a).restarts, 2, "restart budget fully spent first");
        assert_eq!(hv.hm_escalations, 1);
        assert!(hv.stats(b).activations > 5, "healthy partition unaffected");
    }

    /// The polling oracle: `run` without the event kernel, one full engine
    /// pass per tick, stopping early once the health monitor halts the
    /// system.
    fn run_polling(hv: &mut Hypervisor, cycles: u64) {
        for _ in 0..cycles {
            if hv.hm.system_halted {
                break;
            }
            hv.tick().unwrap();
            hv.ticks_polled += 1;
        }
    }

    /// Build the same watchdog + restart-limit + guest scenario twice:
    /// one copy for the polling oracle ([`run_polling`]), one for the
    /// fast-forwarding `run`. The observable schedule must be
    /// bit-identical.
    fn kernel_equivalence_pair() -> (Hypervisor, Hypervisor) {
        let build = || {
            let mut cfg = XngConfig::new("eq");
            let a = cfg.add_partition(PartitionConfig::new("silent").with_watchdog(1_500));
            let b = cfg.add_partition(PartitionConfig::new("flaky").with_restart_limit(3));
            let g = cfg.add_partition(PartitionConfig::new("guest").with_memory(MemRegion {
                base: layout::SRAM_BASE,
                size: 0x1000,
                writable: true,
            }));
            cfg.set_plan(
                0,
                Plan::new(vec![Slot::new(a, 900), Slot::new(b, 700), Slot::new(g, 1_100)]),
            );
            cfg.set_plan(1, Plan::new(vec![Slot::new(b, 1_300)]));
            let mut hv = Hypervisor::new(cfg).unwrap();
            hv.attach_native(b, native_task("flaky", |c| {
                c.consume(40);
                if c.now() > 4_000 && c.now() < 9_000 {
                    Err("boom".into())
                } else {
                    Ok(())
                }
            }))
            .unwrap();
            let prog = assemble("spin:\necall 0x08\njal r0, spin").unwrap();
            hv.attach_guest(g, layout::SRAM_BASE, vec![(layout::SRAM_BASE, prog)])
                .unwrap();
            (hv, a, b, g)
        };
        let (off, ..) = build();
        let (on, ..) = build();
        (off, on)
    }

    #[test]
    fn event_kernel_schedule_is_bit_identical_to_polling() {
        let (mut off, mut on) = kernel_equivalence_pair();
        // several run() calls with awkward budgets exercise the horizon
        // cap: timers due beyond one call's budget must fire on the next
        for budget in [777u64, 1, 4_321, 9_999, 2, 15_000] {
            run_polling(&mut off, budget);
            on.run(budget).unwrap();
            assert_eq!(off.time(), on.time());
        }
        for p in 0..3u32 {
            let pid = PartitionId(p);
            assert_eq!(off.stats(pid), on.stats(pid), "partition {p} stats");
            assert_eq!(off.mode(pid), on.mode(pid), "partition {p} mode");
        }
        assert_eq!(off.hm_escalations, on.hm_escalations);
        assert_eq!(
            off.health().log(),
            on.health().log(),
            "HM timeline identical, expiry instants included"
        );
        assert_eq!(off.cluster().cycles, on.cluster().cycles);
        assert_eq!(off.ticks_skipped(), 0, "polling engine never skips");
        assert!(on.ticks_skipped() > 0, "fast-forward engaged");
        assert_eq!(
            on.ticks_polled() + on.ticks_skipped(),
            off.ticks_polled(),
            "every tick is either polled or skipped"
        );
    }

    #[test]
    fn event_kernel_skips_most_quiet_ticks() {
        let (mut off, mut on) = kernel_equivalence_pair();
        run_polling(&mut off, 40_000);
        on.run(40_000).unwrap();
        assert!(
            on.ticks_polled() * 10 <= off.ticks_polled(),
            "native/yielded schedule is ≥90% quiet: polled {} of {}",
            on.ticks_polled(),
            off.ticks_polled()
        );
        let ks = on.kernel_stats();
        assert!(ks.posted > 0 && ks.popped > 0);
    }

    #[test]
    fn mode_change_matches_under_event_kernel() {
        let build = |polling: bool| {
            let mut cfg = XngConfig::new("modes");
            let a = cfg.add_partition(PartitionConfig::new("nominal"));
            let b = cfg.add_partition(PartitionConfig::new("safe"));
            cfg.set_plan(0, Plan::new(vec![Slot::new(a, 2_000)]));
            let mut safe_plans = vec![Plan::default(); CORE_COUNT];
            safe_plans[0] = Plan::new(vec![Slot::new(b, 2_000)]);
            let mode = cfg.add_mode("safe", safe_plans);
            let mut hv = Hypervisor::new(cfg).unwrap();
            hv.attach_native(a, native_task("nominal", |c| {
                c.consume(10);
                Ok(())
            }))
            .unwrap();
            hv.attach_native(b, native_task("safe", |c| {
                c.consume(10);
                Ok(())
            }))
            .unwrap();
            let run = |hv: &mut Hypervisor| {
                if polling {
                    run_polling(hv, 10_000);
                } else {
                    hv.run(10_000).unwrap();
                }
            };
            run(&mut hv);
            hv.request_mode_change(mode).unwrap();
            run(&mut hv);
            hv
        };
        let (off, on) = (build(true), build(false));
        for p in 0..2u32 {
            assert_eq!(off.stats(PartitionId(p)), on.stats(PartitionId(p)));
        }
        assert_eq!(off.mode_changes, on.mode_changes);
        assert_eq!(off.time(), on.time());
        assert!(on.ticks_skipped() > 0);
    }

    #[test]
    fn halted_partition_fails_over_to_spare() {
        let mut cfg = XngConfig::new("spare");
        let spare = cfg.add_partition(PartitionConfig::new("spare"));
        let a = cfg.add_partition(
            PartitionConfig::new("prime")
                .with_restart_limit(0)
                .with_spare(spare),
        );
        let b = cfg.add_partition(PartitionConfig::new("other"));
        cfg.set_plan(0, Plan::new(vec![Slot::new(a, 1000), Slot::new(b, 1000)]));
        let mut hv = Hypervisor::new(cfg).unwrap();
        hv.attach_native(a, native_task("prime", |_| Err("dead".into())))
            .unwrap();
        hv.attach_native(b, native_task("other", |c| {
            c.consume(5);
            Ok(())
        }))
        .unwrap();
        hv.attach_native(spare, native_task("spare", |c| {
            c.consume(5);
            Ok(())
        }))
        .unwrap();
        hv.run(20_000).unwrap();
        assert_eq!(hv.mode(a), PartitionMode::Halted);
        assert_eq!(hv.spare_failovers, 1);
        assert!(
            hv.stats(spare).activations >= 5,
            "spare took over the failed partition's slots: {:?}",
            hv.stats(spare)
        );
        assert_eq!(hv.stats(a).restarts, 0, "limit 0 escalates immediately");
    }
}
