//! The fault plane: a deterministic, seeded schedule of faults keyed by
//! cycle and subsystem.
//!
//! A [`FaultPlan`] is generated once from a seed and a [`FaultPlanConfig`]
//! (per-subsystem intensities over a campaign duration) and then *consumed*
//! by a scenario driver: faults scheduled at or before the current cycle
//! are drained and applied to the matching layer. Two runs with the same
//! seed and config produce byte-identical schedules, so every chaos
//! campaign is replayable.

use hermes_rtl::rng::DetRng;

/// The subsystem a fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Subsystem {
    /// The AXI interconnect / slave memory.
    Axi,
    /// The redundant boot flash.
    Flash,
    /// The SpaceWire boot link.
    SpaceWire,
    /// Partition memory at hypervisor run time.
    PartitionMemory,
    /// Native partition tasks.
    Task,
    /// A serving-runtime accelerator-pool instance (`hermes-serve`).
    AcceleratorPool,
    /// A hostile guest partition probing the hypervisor's isolation
    /// boundaries (see [`crate::hostile`]).
    HostilePartition,
    /// A whole serving shard — an entire `hermes-serve` engine with its
    /// queue and pool — in a fleet (`hermes-fleet`).
    ServingShard,
}

/// What a hostile partition probes (see [`FaultKind::HostileProbe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeClass {
    /// Load from a neighbor partition's memory.
    MemRead,
    /// Store into a neighbor partition's memory.
    MemWrite,
    /// Jump into a neighbor partition's memory.
    MemExec,
    /// A port hypercall with an out-of-range `r1` port index.
    PortIndex,
    /// An undefined `ecall` immediate.
    HypercallFuzz,
    /// A privileged service (`RequestModeChange`) from a non-system
    /// partition.
    PrivilegedService,
}

impl ProbeClass {
    /// All probe classes, in a stable order.
    pub const ALL: [ProbeClass; 6] = [
        ProbeClass::MemRead,
        ProbeClass::MemWrite,
        ProbeClass::MemExec,
        ProbeClass::PortIndex,
        ProbeClass::HypercallFuzz,
        ProbeClass::PrivilegedService,
    ];

    /// Stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            ProbeClass::MemRead => "mem-read",
            ProbeClass::MemWrite => "mem-write",
            ProbeClass::MemExec => "mem-exec",
            ProbeClass::PortIndex => "port-index",
            ProbeClass::HypercallFuzz => "hypercall-fuzz",
            ProbeClass::PrivilegedService => "privileged-service",
        }
    }
}

/// One concrete fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The AXI slave answers the next read burst with SLVERR.
    AxiReadSlvErr,
    /// The AXI slave answers the next write burst with SLVERR.
    AxiWriteSlvErr,
    /// The AXI slave stalls (no beats, no responses) for `cycles`.
    AxiStall {
        /// Stall length in bus cycles.
        cycles: u32,
    },
    /// One bit of one flash copy rots.
    FlashBitRot {
        /// Which redundant copy (0..COPIES).
        copy: u8,
        /// Normalized byte position in `[0, 2^16)`, scaled to flash size.
        pos_num: u16,
        /// Bit within the byte.
        bit: u8,
    },
    /// A whole 256-byte flash page of one copy reads as 0xFF (stuck erase).
    FlashStuckPage {
        /// Which redundant copy.
        copy: u8,
        /// Normalized page position in `[0, 2^16)`, scaled to page count.
        pos_num: u16,
    },
    /// A SpaceWire packet of the next transfer is corrupted in flight
    /// `repeats` consecutive times (beyond-CRC corruption persistence).
    SpwCorrupt {
        /// Packet index within the transfer.
        packet: u8,
        /// Bit to flip within the packet payload.
        bit: u16,
        /// How many consecutive serves are corrupted.
        repeats: u8,
    },
    /// An SEU strikes partition memory.
    Seu {
        /// Normalized address in `[0, 2^16)`, scaled to the region size.
        pos_num: u16,
        /// Bit within the byte.
        bit: u8,
    },
    /// The native task of the targeted partition panics (returns an error)
    /// at its next activation.
    TaskPanic,
    /// An accelerator-pool instance dies mid-batch: its in-flight work must
    /// be re-queued and the instance stays down for `down_cycles`.
    PoolKill {
        /// Pool instance index (modulo the pool size at apply time).
        instance: u8,
        /// How long the instance stays down, in serve ticks.
        down_cycles: u32,
    },
    /// An accelerator-pool instance stalls: an in-flight batch finishes
    /// `cycles` late (late completions are shed, never silently dropped).
    PoolStall {
        /// Pool instance index (modulo the pool size at apply time).
        instance: u8,
        /// Stall length in serve ticks.
        cycles: u32,
    },
    /// A whole serving shard dies: its queued and in-flight requests must
    /// be evacuated and re-routed to surviving shards, and the shard
    /// stays down for `down_cycles` before rejoining the ring.
    ShardKill {
        /// Fleet shard index (modulo the live shard count at apply time).
        shard: u8,
        /// How long the shard stays down, in fleet ticks.
        down_cycles: u32,
    },
    /// A hostile partition fires one adversarial probe at its next
    /// activation. The campaign driver compiles the probe into guest
    /// machine code (see [`crate::hostile`]).
    HostileProbe {
        /// What the probe attacks.
        class: ProbeClass,
        /// Normalized target selector in `[0, 2^16)` — scaled to the
        /// victim count for memory probes, used directly otherwise.
        target_num: u16,
        /// Free selector: byte offset within the victim region, port
        /// index, or hypercall immediate, depending on `class`.
        sel: u16,
    },
}

impl FaultKind {
    /// The subsystem this fault targets.
    pub fn subsystem(self) -> Subsystem {
        match self {
            FaultKind::AxiReadSlvErr | FaultKind::AxiWriteSlvErr | FaultKind::AxiStall { .. } => {
                Subsystem::Axi
            }
            FaultKind::FlashBitRot { .. } | FaultKind::FlashStuckPage { .. } => Subsystem::Flash,
            FaultKind::SpwCorrupt { .. } => Subsystem::SpaceWire,
            FaultKind::Seu { .. } => Subsystem::PartitionMemory,
            FaultKind::TaskPanic => Subsystem::Task,
            FaultKind::PoolKill { .. } | FaultKind::PoolStall { .. } => Subsystem::AcceleratorPool,
            FaultKind::ShardKill { .. } => Subsystem::ServingShard,
            FaultKind::HostileProbe { .. } => Subsystem::HostilePartition,
        }
    }
}

/// A scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Campaign cycle at which the fault strikes.
    pub cycle: u64,
    /// The fault.
    pub kind: FaultKind,
}

/// Fault intensities for plan generation (counts over the duration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlanConfig {
    /// Campaign length in cycles.
    pub duration: u64,
    /// AXI SLVERR count (split between read and write paths).
    pub axi_slverrs: u32,
    /// AXI stall count.
    pub axi_stalls: u32,
    /// Maximum single stall length in cycles.
    pub axi_stall_max: u32,
    /// Flash bit-rot count.
    pub flash_bitrot: u32,
    /// Flash stuck-page count.
    pub flash_stuck_pages: u32,
    /// SpaceWire corruption count.
    pub spw_corruptions: u32,
    /// Maximum persistence of a SpaceWire corruption (consecutive serves).
    pub spw_max_repeats: u8,
    /// SEU count in partition memory.
    pub seus: u32,
    /// Native-task panic count.
    pub task_panics: u32,
    /// Accelerator-pool instance kills (serving campaigns; 0 elsewhere).
    pub pool_kills: u32,
    /// Accelerator-pool instance stalls (serving campaigns; 0 elsewhere).
    pub pool_stalls: u32,
    /// Maximum pool downtime / stall length, in serve ticks.
    pub pool_down_max: u32,
    /// Pool size the instance indices are drawn from (modulo at apply
    /// time, so a plan stays valid for smaller pools).
    pub pool_instances: u8,
    /// Hostile-partition probe count (isolation campaigns; 0 elsewhere).
    pub hostile_probes: u32,
    /// Whole-shard kills (fleet campaigns; 0 elsewhere).
    pub shard_kills: u32,
    /// Maximum shard downtime, in fleet ticks.
    pub shard_down_max: u32,
    /// Fleet size the shard indices are drawn from (modulo at apply time,
    /// so a plan stays valid for smaller fleets).
    pub shard_count: u8,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig {
            duration: 100_000,
            axi_slverrs: 4,
            axi_stalls: 2,
            axi_stall_max: 200,
            flash_bitrot: 32,
            flash_stuck_pages: 1,
            spw_corruptions: 2,
            spw_max_repeats: 3,
            seus: 16,
            task_panics: 2,
            // the classic campaigns predate the serving runtime: pool
            // faults default off so existing plans stay byte-identical
            pool_kills: 0,
            pool_stalls: 0,
            pool_down_max: 400,
            pool_instances: 4,
            // likewise off by default: hostile probes only appear in
            // explicit isolation campaigns
            hostile_probes: 0,
            // and shard kills only in explicit fleet campaigns
            shard_kills: 0,
            shard_down_max: 4000,
            shard_count: 8,
        }
    }
}

impl FaultPlanConfig {
    /// A serving-campaign config: only accelerator-pool faults, every
    /// classic category zeroed. `instances` is the pool size kill/stall
    /// targets are drawn from.
    pub fn pool_only(duration: u64, kills: u32, stalls: u32, down_max: u32, instances: u8) -> Self {
        FaultPlanConfig {
            duration,
            axi_slverrs: 0,
            axi_stalls: 0,
            axi_stall_max: 1,
            flash_bitrot: 0,
            flash_stuck_pages: 0,
            spw_corruptions: 0,
            spw_max_repeats: 1,
            seus: 0,
            task_panics: 0,
            pool_kills: kills,
            pool_stalls: stalls,
            pool_down_max: down_max.max(1),
            pool_instances: instances.max(1),
            hostile_probes: 0,
            shard_kills: 0,
            shard_down_max: 1,
            shard_count: 1,
        }
    }

    /// An isolation-campaign config: only hostile-partition probes, every
    /// other category zeroed.
    pub fn hostile_only(duration: u64, probes: u32) -> Self {
        FaultPlanConfig {
            hostile_probes: probes,
            ..FaultPlanConfig::pool_only(duration, 0, 0, 1, 1)
        }
    }

    /// A fleet-campaign config: only whole-shard kills, every other
    /// category zeroed. `shards` is the fleet size kill targets are drawn
    /// from. Because shard faults draw after every other category, adding
    /// them to an existing pool/hostile config (struct-update syntax on
    /// [`FaultPlanConfig::pool_only`]) never perturbs that config's
    /// schedule.
    pub fn shard_only(duration: u64, kills: u32, down_max: u32, shards: u8) -> Self {
        FaultPlanConfig {
            shard_kills: kills,
            shard_down_max: down_max.max(1),
            shard_count: shards.max(1),
            ..FaultPlanConfig::pool_only(duration, 0, 0, 1, 1)
        }
    }
}

/// A deterministic schedule of faults, sorted by cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    cursor: usize,
    /// The seed the plan was generated from (for reports).
    pub seed: u64,
}

impl FaultPlan {
    /// Generate a plan from a seed and a config.
    pub fn generate(seed: u64, cfg: &FaultPlanConfig) -> Self {
        let mut rng = DetRng::new(seed);
        let mut events = Vec::new();
        let dur = cfg.duration.max(1);
        let at = |rng: &mut DetRng| rng.below(dur);
        for i in 0..cfg.axi_slverrs {
            let kind = if i % 2 == 0 {
                FaultKind::AxiReadSlvErr
            } else {
                FaultKind::AxiWriteSlvErr
            };
            events.push(FaultEvent { cycle: at(&mut rng), kind });
        }
        for _ in 0..cfg.axi_stalls {
            let cycles = rng.range_u64(1, u64::from(cfg.axi_stall_max.max(2))) as u32;
            events.push(FaultEvent {
                cycle: at(&mut rng),
                kind: FaultKind::AxiStall { cycles },
            });
        }
        for _ in 0..cfg.flash_bitrot {
            events.push(FaultEvent {
                cycle: at(&mut rng),
                kind: FaultKind::FlashBitRot {
                    copy: rng.below(3) as u8,
                    pos_num: rng.below(1 << 16) as u16,
                    bit: rng.below(8) as u8,
                },
            });
        }
        for _ in 0..cfg.flash_stuck_pages {
            events.push(FaultEvent {
                cycle: at(&mut rng),
                kind: FaultKind::FlashStuckPage {
                    copy: rng.below(3) as u8,
                    pos_num: rng.below(1 << 16) as u16,
                },
            });
        }
        for _ in 0..cfg.spw_corruptions {
            events.push(FaultEvent {
                cycle: at(&mut rng),
                kind: FaultKind::SpwCorrupt {
                    packet: rng.below(4) as u8,
                    bit: rng.below(8 * 256) as u16,
                    repeats: rng.range_u64(1, u64::from(cfg.spw_max_repeats.max(1)) + 1) as u8,
                },
            });
        }
        for _ in 0..cfg.seus {
            events.push(FaultEvent {
                cycle: at(&mut rng),
                kind: FaultKind::Seu {
                    pos_num: rng.below(1 << 16) as u16,
                    bit: rng.below(8) as u8,
                },
            });
        }
        for _ in 0..cfg.task_panics {
            events.push(FaultEvent {
                cycle: at(&mut rng),
                kind: FaultKind::TaskPanic,
            });
        }
        // pool faults draw last so plans without them (the pre-serve
        // campaigns) consume the identical rng stream as before
        for _ in 0..cfg.pool_kills {
            events.push(FaultEvent {
                cycle: at(&mut rng),
                kind: FaultKind::PoolKill {
                    instance: rng.below(u64::from(cfg.pool_instances.max(1))) as u8,
                    down_cycles: rng.range_u64(1, u64::from(cfg.pool_down_max.max(2))) as u32,
                },
            });
        }
        for _ in 0..cfg.pool_stalls {
            events.push(FaultEvent {
                cycle: at(&mut rng),
                kind: FaultKind::PoolStall {
                    instance: rng.below(u64::from(cfg.pool_instances.max(1))) as u8,
                    cycles: rng.range_u64(1, u64::from(cfg.pool_down_max.max(2))) as u32,
                },
            });
        }
        // hostile probes draw after pool faults for the same reason: every
        // earlier campaign keeps its exact historical schedule
        for _ in 0..cfg.hostile_probes {
            events.push(FaultEvent {
                cycle: at(&mut rng),
                kind: FaultKind::HostileProbe {
                    class: ProbeClass::ALL[rng.below(ProbeClass::ALL.len() as u64) as usize],
                    target_num: rng.below(1 << 16) as u16,
                    sel: rng.below(1 << 16) as u16,
                },
            });
        }
        // shard kills draw last of all — the newest category always
        // appends to the draw order, so every existing campaign (classic,
        // pool, hostile) keeps its exact historical schedule
        for _ in 0..cfg.shard_kills {
            events.push(FaultEvent {
                cycle: at(&mut rng),
                kind: FaultKind::ShardKill {
                    shard: rng.below(u64::from(cfg.shard_count.max(1))) as u8,
                    down_cycles: rng.range_u64(1, u64::from(cfg.shard_down_max.max(2))) as u32,
                },
            });
        }
        events.sort_by_key(|e| e.cycle);
        FaultPlan {
            events,
            cursor: 0,
            seed,
        }
    }

    /// All scheduled events (consumed or not).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events targeting a subsystem.
    pub fn count(&self, subsystem: Subsystem) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind.subsystem() == subsystem)
            .count()
    }

    /// Drain every event scheduled at or before `cycle` (in order). Each
    /// event is returned exactly once across the plan's lifetime.
    pub fn drain_until(&mut self, cycle: u64) -> Vec<FaultEvent> {
        let start = self.cursor;
        while self.cursor < self.events.len() && self.events[self.cursor].cycle <= cycle {
            self.cursor += 1;
        }
        self.events[start..self.cursor].to_vec()
    }

    /// Whether every event has been drained.
    pub fn exhausted(&self) -> bool {
        self.cursor >= self.events.len()
    }

    /// Cycle of the next undrained event, if any — lets an event-stepped
    /// driver (the serve engine) jump straight to the next fault instead
    /// of polling every cycle.
    pub fn peek_cycle(&self) -> Option<u64> {
        self.events.get(self.cursor).map(|e| e.cycle)
    }

    /// Map a normalized 16-bit position onto `[0, size)`.
    pub fn scale(pos_num: u16, size: u64) -> u64 {
        (u64::from(pos_num) * size) >> 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let cfg = FaultPlanConfig::default();
        let a = FaultPlan::generate(5, &cfg);
        let b = FaultPlan::generate(5, &cfg);
        assert_eq!(a, b);
        let c = FaultPlan::generate(6, &cfg);
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn plan_is_sorted_and_complete() {
        let cfg = FaultPlanConfig::default();
        let plan = FaultPlan::generate(1, &cfg);
        assert!(plan.events().windows(2).all(|w| w[0].cycle <= w[1].cycle));
        let want = (cfg.axi_slverrs
            + cfg.axi_stalls
            + cfg.flash_bitrot
            + cfg.flash_stuck_pages
            + cfg.spw_corruptions
            + cfg.seus
            + cfg.task_panics
            + cfg.pool_kills
            + cfg.pool_stalls
            + cfg.hostile_probes
            + cfg.shard_kills) as usize;
        assert_eq!(plan.events().len(), want);
        assert_eq!(plan.count(Subsystem::Flash), (cfg.flash_bitrot + cfg.flash_stuck_pages) as usize);
    }

    #[test]
    fn pool_faults_default_off_and_generate_in_range() {
        let base = FaultPlanConfig::default();
        assert_eq!(FaultPlan::generate(4, &base).count(Subsystem::AcceleratorPool), 0);
        // enabling pool faults must not disturb the classic fault stream
        let serving = FaultPlanConfig {
            pool_kills: 3,
            pool_stalls: 2,
            ..base
        };
        let classic = FaultPlan::generate(4, &base);
        let chaotic = FaultPlan::generate(4, &serving);
        assert_eq!(chaotic.count(Subsystem::AcceleratorPool), 5);
        let non_pool = |p: &FaultPlan| {
            let mut v: Vec<FaultEvent> = p
                .events()
                .iter()
                .filter(|e| e.kind.subsystem() != Subsystem::AcceleratorPool)
                .copied()
                .collect();
            v.sort_by_key(|e| (e.cycle, format!("{:?}", e.kind)));
            v
        };
        assert_eq!(non_pool(&classic), non_pool(&chaotic));
        for ev in chaotic.events() {
            match ev.kind {
                FaultKind::PoolKill { instance, down_cycles } => {
                    assert!(instance < serving.pool_instances);
                    assert!((1..serving.pool_down_max).contains(&down_cycles));
                }
                FaultKind::PoolStall { instance, cycles } => {
                    assert!(instance < serving.pool_instances);
                    assert!((1..serving.pool_down_max).contains(&cycles));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn hostile_probes_default_off_and_preserve_classic_stream() {
        let base = FaultPlanConfig::default();
        assert_eq!(
            FaultPlan::generate(11, &base).count(Subsystem::HostilePartition),
            0
        );
        let hostile = FaultPlanConfig {
            hostile_probes: 24,
            ..base
        };
        let classic = FaultPlan::generate(11, &base);
        let adversarial = FaultPlan::generate(11, &hostile);
        assert_eq!(adversarial.count(Subsystem::HostilePartition), 24);
        let benign = |p: &FaultPlan| {
            let mut v: Vec<FaultEvent> = p
                .events()
                .iter()
                .filter(|e| e.kind.subsystem() != Subsystem::HostilePartition)
                .copied()
                .collect();
            v.sort_by_key(|e| (e.cycle, format!("{:?}", e.kind)));
            v
        };
        assert_eq!(benign(&classic), benign(&adversarial));
        let only = FaultPlan::generate(11, &FaultPlanConfig::hostile_only(50_000, 12));
        assert_eq!(only.events().len(), 12);
        assert!(only
            .events()
            .iter()
            .all(|e| e.kind.subsystem() == Subsystem::HostilePartition && e.cycle < 50_000));
    }

    #[test]
    fn shard_kills_default_off_and_preserve_every_earlier_stream() {
        let base = FaultPlanConfig::default();
        assert_eq!(FaultPlan::generate(23, &base).count(Subsystem::ServingShard), 0);
        // shard kills draw last: enabling them perturbs no earlier
        // category, whatever mix of categories is already on
        let mixed = FaultPlanConfig {
            pool_kills: 3,
            pool_stalls: 2,
            hostile_probes: 4,
            ..base
        };
        let fleet = FaultPlanConfig { shard_kills: 5, ..mixed };
        let before = FaultPlan::generate(23, &mixed);
        let after = FaultPlan::generate(23, &fleet);
        assert_eq!(after.count(Subsystem::ServingShard), 5);
        let sans_shard = |p: &FaultPlan| {
            let mut v: Vec<FaultEvent> = p
                .events()
                .iter()
                .filter(|e| e.kind.subsystem() != Subsystem::ServingShard)
                .copied()
                .collect();
            v.sort_by_key(|e| (e.cycle, format!("{:?}", e.kind)));
            v
        };
        assert_eq!(sans_shard(&before), sans_shard(&after));
        // pool_only composes the same way: adding shard kills on top of a
        // serving campaign keeps the pool schedule byte-identical (the
        // E14 seed-99 campaign must replay exactly under a fleet config)
        let serving = FaultPlanConfig::pool_only(80_000, 6, 4, 500, 2);
        let with_shards = FaultPlanConfig { shard_kills: 3, shard_down_max: 900, shard_count: 8, ..serving };
        let p_serving = FaultPlan::generate(99, &serving);
        let p_fleet = FaultPlan::generate(99, &with_shards);
        assert_eq!(sans_shard(&p_serving), sans_shard(&p_fleet));
        // shard_only draws only shard kills, in range
        let only = FaultPlan::generate(7, &FaultPlanConfig::shard_only(60_000, 9, 700, 8));
        assert_eq!(only.events().len(), 9);
        for ev in only.events() {
            match ev.kind {
                FaultKind::ShardKill { shard, down_cycles } => {
                    assert!(shard < 8);
                    assert!((1..700).contains(&down_cycles));
                    assert!(ev.cycle < 60_000);
                }
                _ => panic!("unexpected kind {:?}", ev.kind),
            }
        }
    }

    #[test]
    fn drain_returns_each_event_once() {
        let mut plan = FaultPlan::generate(9, &FaultPlanConfig::default());
        let total = plan.events().len();
        let mut seen = 0;
        for t in (0..=100_000u64).step_by(1000) {
            seen += plan.drain_until(t).len();
        }
        assert_eq!(seen, total);
        assert!(plan.exhausted());
        assert!(plan.drain_until(u64::MAX).is_empty());
    }

    #[test]
    fn scale_maps_into_range() {
        assert_eq!(FaultPlan::scale(0, 100), 0);
        assert!(FaultPlan::scale(u16::MAX, 100) < 100);
        assert_eq!(FaultPlan::scale(1 << 15, 1 << 16), 1 << 15);
    }
}
