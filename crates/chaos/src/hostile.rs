//! Hostile-partition chaos: a seeded adversary guest probes the
//! hypervisor's spatial-isolation boundary and every probe must land as an
//! attributed health-monitor event.
//!
//! Where [`crate::scenario`] injects *environmental* faults (SEUs, bus
//! errors, flash rot) and checks the stack recovers, this module injects a
//! *malicious tenant*: a guest partition compiled on the fly to read,
//! write, and execute its neighbors' memory, pass out-of-range port
//! indices, fuzz undefined hypercall immediates, and invoke privileged
//! services it has no right to. The campaign's hard invariant is **zero
//! silent leaks**:
//!
//! * every probe is accounted — probe count equals trap count, a probe
//!   that produces no health event is a silent breach;
//! * victim memory is poisoned with seeded sentinels before the campaign
//!   and checksummed after it — any drift is a spatial-isolation failure;
//! * no trap is ever blamed on a victim;
//! * the HM escalation ladder (restart limit → halt → spare failover)
//!   engages against a persistent adversary exactly as it does against an
//!   accidental fault.
//!
//! Campaigns run under either isolation mechanism
//! ([`IsolationMode::MpuReprogram`] or [`IsolationMode::ProtectionKeys`])
//! so E15 can compare their containment *and* their cost side by side.

use crate::plan::{FaultKind, FaultPlan, FaultPlanConfig, ProbeClass};
use hermes_cpu::isa::assemble;
use hermes_cpu::memmap::layout;
use hermes_obs::Recorder;
use hermes_rtl::rng::DetRng;
use hermes_xng::config::{IsolationMode, MemRegion, PartitionConfig, Plan, Slot, XngConfig};
use hermes_xng::health::HmEvent;
use hermes_xng::hypercall::Hypercall;
use hermes_xng::hypervisor::{Hypervisor, IsolationStats};
use hermes_xng::PartitionId;

/// Size of every partition's memory region in the campaign arena.
pub const REGION_SIZE: u32 = 0x1000;

/// Base of the hostile partition's own region (victims follow above it).
const ARENA_BASE: u32 = layout::SRAM_BASE;

/// Slot length of the hostile partition (cycles): long enough for any
/// probe program to reach its faulting instruction.
const HOSTILE_SLOT: u64 = 60;

/// Slot length of each (idle) victim partition.
const VICTIM_SLOT: u64 = 20;

/// How many run chunks a probe may take before it is declared silent
/// (generous: a probe faults within its first slot).
const PROBE_BUDGET_CHUNKS: u32 = 40;

/// Configuration of one hostile campaign.
#[derive(Debug, Clone, Copy)]
pub struct HostileCampaignConfig {
    /// Seed for the fault plan, probe synthesis, and sentinel patterns.
    pub seed: u64,
    /// Number of victim partitions sharing the arena with the adversary.
    pub victims: usize,
    /// Number of adversarial probes to fire.
    pub probes: u32,
    /// Spatial-isolation mechanism under test.
    pub isolation: IsolationMode,
}

/// Per-probe-class accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Probes fired in this class.
    pub probes: u64,
    /// Probes that landed as an attributed health event.
    pub trapped: u64,
}

/// The outcome of one hostile campaign.
#[derive(Debug, Clone)]
pub struct HostileReport {
    /// Campaign seed.
    pub seed: u64,
    /// Victim partition count.
    pub victims: usize,
    /// Isolation mechanism the campaign ran under.
    pub isolation: IsolationMode,
    /// Probes fired.
    pub probes: u64,
    /// Probes that landed as an attributed health-monitor event.
    pub trapped: u64,
    /// Probes that produced **no** health event — must be zero.
    pub silent: u64,
    /// Accounting per probe class, indexed like [`ProbeClass::ALL`].
    pub by_class: [ClassStats; 6],
    /// Whether every victim sentinel checksum survived the campaign.
    pub sentinels_intact: bool,
    /// Isolation traps wrongly attributed to victims — must be zero.
    pub victim_blamed: u64,
    /// Isolation traps correctly attributed to the hostile partition.
    pub hostile_isolation_traps: u64,
    /// HM escalations during the persistent-adversary phase.
    pub hm_escalations: u64,
    /// Spare failovers during the persistent-adversary phase.
    pub spare_failovers: u64,
    /// Gate-crossing vs. MPU-reprogram cost accounting.
    pub iso: IsolationStats,
}

impl HostileReport {
    /// The campaign's hard invariant: every probe accounted, no sentinel
    /// drift, no victim blamed.
    pub fn zero_silent_leaks(&self) -> bool {
        self.silent == 0 && self.probes == self.trapped && self.sentinels_intact
            && self.victim_blamed == 0
    }
}

/// Base address of victim `i`'s region.
fn victim_base(i: usize) -> u32 {
    ARENA_BASE + REGION_SIZE * (i as u32 + 1)
}

/// Build the campaign arena: one hostile guest partition plus `victims`
/// idle victim partitions, each with its own `REGION_SIZE` region.
fn arena_config(victims: usize, isolation: IsolationMode) -> (XngConfig, PartitionId, Vec<PartitionId>) {
    let mut cfg = XngConfig::new("hostile-arena");
    let hostile = cfg.add_partition(PartitionConfig::new("hostile").with_memory(MemRegion {
        base: ARENA_BASE,
        size: REGION_SIZE,
        writable: true,
    }));
    let mut vs = Vec::with_capacity(victims);
    for i in 0..victims {
        vs.push(
            cfg.add_partition(PartitionConfig::new(format!("victim{i}")).with_memory(MemRegion {
                base: victim_base(i),
                size: REGION_SIZE,
                writable: true,
            })),
        );
    }
    let mut slots = vec![Slot::new(hostile, HOSTILE_SLOT)];
    slots.extend(vs.iter().map(|&v| Slot::new(v, VICTIM_SLOT)));
    cfg.set_plan(0, Plan::new(slots));
    cfg.context_switch_cycles = 1;
    cfg.isolation = isolation;
    (cfg, hostile, vs)
}

/// Compile one probe into guest assembly.
///
/// `target_num` selects the victim (memory probes) or the port hypercall
/// (port probes); `sel` is the free selector — byte offset, port index, or
/// fuzzed immediate.
fn synth_probe(class: ProbeClass, target_num: u16, sel: u16, victims: usize) -> String {
    let victim = FaultPlan::scale(target_num, victims.max(1) as u64) as usize;
    // word-aligned offset that keeps a 4-byte access inside the region
    let offset = (u32::from(sel) % REGION_SIZE) & !3;
    let addr = victim_base(victim) + offset;
    let (hi, lo) = (addr >> 16, addr & 0xFFFF);
    match class {
        ProbeClass::MemRead => {
            format!("lui r1, {hi:#x}\nori r1, r1, {lo:#x}\nlw r2, (r1)\nhalt")
        }
        ProbeClass::MemWrite => {
            format!("lui r1, {hi:#x}\nori r1, r1, {lo:#x}\nsw r2, (r1)\nhalt")
        }
        ProbeClass::MemExec => {
            format!("lui r1, {hi:#x}\nori r1, r1, {lo:#x}\njalr r0, r1, 0\nhalt")
        }
        ProbeClass::PortIndex => {
            // the hostile partition declares zero ports, so every index is
            // out of range; sweep all four port hypercalls
            let codes = [
                Hypercall::WriteSampling,
                Hypercall::ReadSampling,
                Hypercall::SendQueuing,
                Hypercall::RecvQueuing,
            ];
            let code = codes[usize::from(target_num) % codes.len()].code();
            format!("ori r1, r0, {sel:#x}\necall {code:#x}\nhalt")
        }
        ProbeClass::HypercallFuzz => {
            // force the immediate into the undefined space (all defined
            // codes are below 0x12, so the high bit guarantees None)
            let code = if Hypercall::decode(sel).is_some() {
                sel | 0x8000
            } else {
                sel
            };
            format!("ecall {code:#x}\nhalt")
        }
        ProbeClass::PrivilegedService => {
            // RequestModeChange from a non-system partition
            let mode = sel % 4;
            format!(
                "ori r1, r0, {mode:#x}\necall {code:#x}\nhalt",
                code = Hypercall::RequestModeChange.code()
            )
        }
    }
}

fn class_index(class: ProbeClass) -> usize {
    ProbeClass::ALL
        .iter()
        .position(|&c| c == class)
        .expect("class is in ALL")
}

/// Run one hostile campaign (see module docs). Each probe is traced as
/// an instant event with its class and verdict, and the campaign
/// counters are published at the end. All events land in a child
/// recorder absorbed into `obs` before returning, so parallel per-seed
/// campaigns merge deterministically.
///
/// # Panics
///
/// Panics only on static construction errors (arena config validation,
/// probe assembly) — never on hostile guest behavior.
pub fn hostile_campaign(cfg: &HostileCampaignConfig, obs: &Recorder) -> HostileReport {
    let child = obs.child();
    let victims = cfg.victims.max(1);
    let (arena, hostile, vs) = arena_config(victims, cfg.isolation);
    let mut hv = Hypervisor::new(arena).expect("static arena config validates");
    hv.set_obs(child.clone());

    // poison every victim region with a seeded sentinel pattern and
    // record its checksum: any post-campaign drift is a spatial breach
    let mut rng = DetRng::new(cfg.seed ^ 0x5E17_1E15);
    let mut baselines = Vec::with_capacity(victims);
    for i in 0..victims {
        let pattern = rng.bytes(REGION_SIZE as usize);
        hv.cluster_mut()
            .bus
            .load_bytes(victim_base(i), &pattern)
            .expect("victim region is mapped");
        baselines.push(
            hv.cluster()
                .bus
                .checksum(victim_base(i), REGION_SIZE as usize)
                .expect("victim region is mapped"),
        );
    }

    let duration = 10_000 * u64::from(cfg.probes.max(1));
    let mut plan = FaultPlan::generate(cfg.seed, &FaultPlanConfig::hostile_only(duration, cfg.probes));
    // one major frame: every slot plus a context switch per slot
    let frame = HOSTILE_SLOT + victims as u64 * VICTIM_SLOT + (victims as u64 + 1);

    let mut report = HostileReport {
        seed: cfg.seed,
        victims,
        isolation: cfg.isolation,
        probes: 0,
        trapped: 0,
        silent: 0,
        by_class: [ClassStats::default(); 6],
        sentinels_intact: true,
        victim_blamed: 0,
        hostile_isolation_traps: 0,
        hm_escalations: 0,
        spare_failovers: 0,
        iso: IsolationStats::default(),
    };

    for ev in plan.drain_until(u64::MAX) {
        let FaultKind::HostileProbe { class, target_num, sel } = ev.kind else {
            continue;
        };
        let asm = synth_probe(class, target_num, sel, victims);
        let prog = assemble(&asm).expect("probe assembles");
        hv.attach_guest(hostile, ARENA_BASE, vec![(ARENA_BASE, prog)])
            .expect("hostile partition exists");
        let baseline = hv.health().log().len();
        let mut landed = false;
        for _ in 0..PROBE_BUDGET_CHUNKS {
            hv.run(frame).expect("substrate survives hostile guests");
            if hv.health().log().len() > baseline {
                landed = true;
                break;
            }
        }
        report.probes += 1;
        let idx = class_index(class);
        report.by_class[idx].probes += 1;
        if landed {
            report.trapped += 1;
            report.by_class[idx].trapped += 1;
        } else {
            report.silent += 1;
        }
        child.instant(
            "chaos",
            "hostile-probe",
            hermes_obs::ClockDomain::Hv,
            hv.time(),
            &[
                ("class", class.label().to_string()),
                ("landed", landed.to_string()),
            ],
        );
    }

    // zero-silent-leak audit: sentinel checksums and trap attribution
    for (i, &want) in baselines.iter().enumerate() {
        let got = hv
            .cluster()
            .bus
            .checksum(victim_base(i), REGION_SIZE as usize)
            .expect("victim region is mapped");
        if got != want {
            report.sentinels_intact = false;
            child.warning("chaos", &format!("sentinel drift in victim{i}"));
        }
    }
    report.victim_blamed = vs.iter().map(|&v| hv.stats(v).isolation_traps).sum();
    report.hostile_isolation_traps = hv.stats(hostile).isolation_traps;
    report.iso = hv.isolation_stats();

    // persistent-adversary phase: the same arena, but the hostile
    // partition now has a restart limit and a cold spare — the HM ladder
    // must escalate restart → halt → failover against a guest that traps
    // on every single activation
    let mut cfg2 = XngConfig::new("hostile-escalation");
    let spare = cfg2.add_partition(PartitionConfig::new("spare"));
    let hostile2 = cfg2.add_partition(
        PartitionConfig::new("hostile")
            .with_memory(MemRegion {
                base: ARENA_BASE,
                size: REGION_SIZE,
                writable: true,
            })
            .with_restart_limit(2)
            .with_spare(spare),
    );
    let victim = cfg2.add_partition(PartitionConfig::new("victim").with_memory(MemRegion {
        base: victim_base(0),
        size: REGION_SIZE,
        writable: true,
    }));
    cfg2.set_plan(
        0,
        Plan::new(vec![Slot::new(hostile2, HOSTILE_SLOT), Slot::new(victim, VICTIM_SLOT)]),
    );
    cfg2.context_switch_cycles = 1;
    cfg2.isolation = cfg.isolation;
    let mut hv2 = Hypervisor::new(cfg2).expect("static escalation config validates");
    hv2.set_obs(child.clone());
    let relentless = synth_probe(ProbeClass::MemRead, 0, 0, 1);
    let prog = assemble(&relentless).expect("probe assembles");
    hv2.attach_guest(hostile2, ARENA_BASE, vec![(ARENA_BASE, prog)])
        .expect("hostile partition exists");
    // enough frames for: trap, restart, trap, restart, trap, escalate
    hv2.run(40 * (HOSTILE_SLOT + VICTIM_SLOT + 2))
        .expect("substrate survives escalation");
    report.hm_escalations = hv2.hm_escalations;
    report.spare_failovers = hv2.spare_failovers;

    child.counter_add("chaos", "hostile_probes", report.probes);
    child.counter_add("chaos", "hostile_trapped", report.trapped);
    child.counter_add("chaos", "hostile_silent", report.silent);
    obs.absorb(&child);
    report
}

/// Outcome of a pure hypercall-fuzz sweep (see [`hypercall_fuzz_campaign`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzReport {
    /// Sweep seed.
    pub seed: u64,
    /// Undefined immediates fired.
    pub attempts: u64,
    /// Attempts attributed as [`HmEvent::IllegalHypercall`].
    pub attributed: u64,
    /// Attempts that produced no health event — must be zero.
    pub silent: u64,
}

/// Fuzz the undefined hypercall space: fire `attempts` seeded `ecall`
/// immediates (forced into the undefined space) from a guest partition and
/// check each one lands as an attributed [`HmEvent::IllegalHypercall`] —
/// never a panic, never a silent success.
///
/// # Panics
///
/// Panics only on static construction errors.
pub fn hypercall_fuzz_campaign(seed: u64, attempts: u32) -> FuzzReport {
    let mut cfg = XngConfig::new("fuzz");
    let g = cfg.add_partition(PartitionConfig::new("fuzzer").with_memory(MemRegion {
        base: ARENA_BASE,
        size: REGION_SIZE,
        writable: true,
    }));
    cfg.set_plan(0, Plan::new(vec![Slot::new(g, HOSTILE_SLOT)]));
    cfg.context_switch_cycles = 1;
    let mut hv = Hypervisor::new(cfg).expect("static fuzz config validates");
    let mut rng = DetRng::new(seed ^ 0xF0_22ED);
    let mut report = FuzzReport {
        seed,
        attempts: 0,
        attributed: 0,
        silent: 0,
    };
    for _ in 0..attempts {
        let mut code = (rng.next_u32() & 0xFFFF) as u16;
        if Hypercall::decode(code).is_some() {
            code |= 0x8000;
        }
        let prog = assemble(&format!("ecall {code:#x}\nhalt")).expect("probe assembles");
        hv.attach_guest(g, ARENA_BASE, vec![(ARENA_BASE, prog)])
            .expect("fuzzer partition exists");
        let baseline = hv.health().count_for(HmEvent::IllegalHypercall, g);
        for _ in 0..PROBE_BUDGET_CHUNKS {
            hv.run(HOSTILE_SLOT + 2).expect("substrate survives fuzzing");
            if hv.health().count_for(HmEvent::IllegalHypercall, g) > baseline {
                break;
            }
        }
        report.attempts += 1;
        if hv.health().count_for(HmEvent::IllegalHypercall, g) > baseline {
            report.attributed += 1;
        } else {
            report.silent += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_has_zero_silent_leaks_under_both_isolation_modes() {
        for isolation in [IsolationMode::MpuReprogram, IsolationMode::ProtectionKeys] {
            let report = hostile_campaign(
                &HostileCampaignConfig {
                    seed: 42,
                    victims: 2,
                    probes: 12,
                    isolation,
                },
                &Recorder::disabled(),
            );
            assert_eq!(report.probes, 12);
            assert_eq!(report.trapped, 12, "{isolation:?}: {report:?}");
            assert_eq!(report.silent, 0);
            assert!(report.sentinels_intact, "{isolation:?}");
            assert_eq!(report.victim_blamed, 0, "{isolation:?}");
            assert!(report.zero_silent_leaks());
            assert!(report.hm_escalations >= 1, "{isolation:?}: {report:?}");
            assert!(report.spare_failovers >= 1, "{isolation:?}: {report:?}");
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let cfg = HostileCampaignConfig {
            seed: 7,
            victims: 3,
            probes: 8,
            isolation: IsolationMode::ProtectionKeys,
        };
        let a = hostile_campaign(&cfg, &Recorder::disabled());
        let b = hostile_campaign(&cfg, &Recorder::disabled());
        assert_eq!(a.trapped, b.trapped);
        assert_eq!(a.by_class, b.by_class);
        assert_eq!(a.iso, b.iso);
    }

    #[test]
    fn isolation_modes_differ_only_in_cost_not_containment() {
        let mk = |isolation| {
            hostile_campaign(
                &HostileCampaignConfig {
                    seed: 21,
                    victims: 2,
                    probes: 10,
                    isolation,
                },
                &Recorder::disabled(),
            )
        };
        let mpu = mk(IsolationMode::MpuReprogram);
        let keys = mk(IsolationMode::ProtectionKeys);
        assert!(mpu.zero_silent_leaks());
        assert!(keys.zero_silent_leaks());
        // the mechanisms diverge in *cost*: reprogramming pays per guest
        // dispatch, keys install the table once and then swap the active key
        assert!(mpu.iso.mpu_reprograms > 1);
        assert_eq!(mpu.iso.gate_crossings, 0);
        assert!(keys.iso.mpu_reprograms >= 1);
        assert!(keys.iso.gate_crossings > keys.iso.mpu_reprograms);
    }

    #[test]
    fn probe_synthesis_always_assembles() {
        let mut rng = DetRng::new(99);
        for _ in 0..200 {
            let class = ProbeClass::ALL[rng.below(6) as usize];
            let asm = synth_probe(
                class,
                rng.below(1 << 16) as u16,
                rng.below(1 << 16) as u16,
                4,
            );
            assert!(assemble(&asm).is_ok(), "unassemblable probe: {asm}");
        }
    }

    #[test]
    fn fuzz_sweep_attributes_every_attempt() {
        let report = hypercall_fuzz_campaign(3, 24);
        assert_eq!(report.attempts, 24);
        assert_eq!(report.attributed, 24);
        assert_eq!(report.silent, 0);
    }
}
