//! End-to-end chaos campaigns: one seeded fault plan driven through the
//! whole stack — boot chain, AXI interconnect, SpaceWire link, and the
//! partitioned hypervisor — with every recovery stage accounted for in a
//! [`ChaosReport`].
//!
//! The campaign mirrors a mission profile:
//!
//! 1. **Boot under flash rot** — the redundant boot flash accumulates
//!    bit rot and a stuck page before power-up; BL1 boots through TMR
//!    voting, with a pristine SpaceWire rescue link next on the ladder
//!    for seeds that corrupt a byte in two copies at once;
//! 2. **Bus under fire** — payload DMA traffic runs over an AXI slave
//!    that answers with SLVERR and stalls mid-campaign; the retrying
//!    master re-issues every transaction and the driver checks each
//!    round trip against the written data;
//! 3. **Mission under flux** — the hypervisor runs its major frames while
//!    SEUs strike a scrubbed SRAM region, the prime partition's task
//!    panics on schedule (restart → escalation → spare failover), a
//!    silent partition trips its watchdog, and a software update is
//!    fetched over the corrupted SpaceWire link.

use crate::plan::{FaultEvent, FaultKind, FaultPlan, FaultPlanConfig, Subsystem};
use crate::report::ChaosReport;
use hermes_axi::memory::MemoryTiming;
use hermes_axi::testbench::{AxiTestbench, RetryPolicy};
use hermes_boot::bl1::{BootOutcome, BootSource, StagedBoot};
use hermes_boot::flash::{Flash, FlashImageBuilder, RedundancyMode, LOADLIST_OFFSET};
use hermes_boot::loadlist::LoadList;
use hermes_boot::spacewire::{RemoteNode, SpaceWireLink, PACKET_PAYLOAD, RETRY_BUDGET};
use hermes_cpu::memmap::layout;
use hermes_rtl::rng::DetRng;
use hermes_xng::config::{PartitionConfig, Plan, Slot, XngConfig};
use hermes_xng::hypervisor::Hypervisor;
use hermes_xng::partition::native_task;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One hypervisor major frame in the mission configuration: three slots
/// plus three context switches (see [`mission_under_flux`]).
const FRAME_CYCLES: u64 = 1_000 + 500 + 1_000 + 3 * 150;

/// Size of the scrubbed SRAM scratch region SEUs are aimed at.
const SCRATCH_SIZE: u64 = 0x1000;

/// Base of the scrubbed scratch region (clear of the boot report).
const SCRATCH_BASE: u32 = layout::SRAM_BASE + 0x4_0000;

/// Outcome of a full chaos campaign.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The chaos accounting: injections, recoveries, availability, MTTR.
    pub report: ChaosReport,
    /// The boot phase outcome (report, cluster, bitstreams).
    pub boot: BootOutcome,
}

/// Build the canonical mission flash: one application per entry, TMR
/// redundancy. Deterministic, so it can be rebuilt pristine for the
/// SpaceWire rescue publication.
fn mission_flash() -> (Flash, LoadList) {
    let words = hermes_cpu::isa::assemble("addi r1, r0, 42\nhalt").expect("static program");
    let mut builder = FlashImageBuilder::new();
    let app = builder.add_software(layout::DDR_BASE, layout::DDR_BASE, &words);
    let data = builder.add_data(layout::SRAM_BASE + 0x2_0000, &[0xA5; 512]);
    let list = LoadList {
        entries: vec![app, data],
    };
    let flash = builder.build(&list, RedundancyMode::Tmr);
    (flash, list)
}

/// Force one byte of one flash copy to read as 0xFF (stuck-erase bits).
fn stick_byte(flash: &mut Flash, copy: usize, offset: u32) {
    let Ok(bytes) = flash.read_copy(copy, offset, 1) else {
        return;
    };
    for bit in 0..8 {
        if bytes[0] & (1 << bit) == 0 {
            flash.flip_bit(copy, offset, bit);
        }
    }
}

/// Apply the plan's flash faults to a flash device.
///
/// Rot is aimed at the 8 KiB load-list window: BL1 reads every byte of it
/// redundantly, so each injected fault is *observable* (rot elsewhere in
/// the array stays latent and would inflate the injection count without
/// testing anything). One byte is never corrupted in two different copies
/// — that exceeds TMR's correction capacity by construction, and the
/// beyond-capacity path (boot-source failover, safe mode) is exercised by
/// the `StagedBoot` ladder tests in `hermes-boot` instead.
fn rot_flash(flash: &mut Flash, events: &[FaultEvent], report: &mut ChaosReport) {
    let window = 8 * 1024u64;
    let mut rotted: std::collections::HashMap<u32, u8> = std::collections::HashMap::new();
    for ev in events {
        match ev.kind {
            FaultKind::FlashBitRot { copy, pos_num, bit } => {
                let off = LOADLIST_OFFSET + FaultPlan::scale(pos_num, window) as u32;
                if *rotted.entry(off).or_insert(copy) != copy {
                    continue;
                }
                flash.flip_bit(usize::from(copy), off, bit);
                report.inject("flash-bitrot");
            }
            FaultKind::FlashStuckPage { copy, pos_num } => {
                let pages = window / 256;
                let off = LOADLIST_OFFSET + (FaultPlan::scale(pos_num, pages) * 256) as u32;
                for i in 0..256 {
                    if *rotted.entry(off + i).or_insert(copy) != copy {
                        continue;
                    }
                    stick_byte(flash, usize::from(copy), off + i);
                }
                report.inject("flash-stuck-page");
            }
            _ => {}
        }
    }
}

/// Boot the mission flash after seeded rot, with a pristine SpaceWire
/// rescue link next on the degradation ladder. Returns the boot outcome;
/// recovery counters land in `report`.
///
/// # Panics
///
/// Panics only if the pristine rescue publication itself fails, which
/// would be a testbench construction bug.
pub fn boot_under_flash_rot(seed: u64, report: &mut ChaosReport) -> BootOutcome {
    let plan = FaultPlan::generate(seed, &FaultPlanConfig::default());
    let (mut flash, list) = mission_flash();
    rot_flash(&mut flash, plan.events(), report);

    // rescue ladder rung: the same images served by a remote SpaceWire node
    let (pristine, _) = mission_flash();
    let rescue = BootSource::spacewire_from_flash(pristine, &list)
        .expect("pristine flash publishes cleanly");

    let mut ladder = StagedBoot::new(vec![
        BootSource::Flash(flash),
        BootSource::SpaceWire(rescue),
    ]);
    ladder.app_run_budget = 10_000;
    let out = ladder.boot().expect("ladder ends in safe mode, not error");

    let r = &mut report.recovered;
    r.flash_voted_bytes += out.report.flash_corrected_bytes;
    r.spw_retransmissions += out.report.spw_retransmissions;
    r.boot_source_failovers += u64::from(out.report.boot_source_failovers);
    r.golden_bitstream_substitutions += u64::from(out.report.golden_bitstream_substitutions);
    r.safe_mode_boots += u64::from(out.report.safe_mode);
    report.boot_succeeded = out.report.success;
    if out.report.flash_corrected_bytes > 0 {
        report.notes.push(format!(
            "boot: TMR vote corrected {} flash bytes",
            out.report.flash_corrected_bytes
        ));
    }
    if out.report.boot_source_failovers > 0 {
        report
            .notes
            .push("boot: primary flash unbootable, failed over on the ladder".into());
    }
    out
}

/// Drive payload DMA traffic over an AXI slave while the plan's bus
/// faults strike, with the retrying master recovering each transaction.
/// Every round trip is verified against the written data; a mismatch is a
/// silent corruption.
pub fn bus_under_fire(seed: u64, events: &[FaultEvent], report: &mut ChaosReport) {
    let mut tb =
        AxiTestbench::new(64 * 1024, MemoryTiming::default()).with_retry(RetryPolicy::default());
    // tight hang budget so long stalls surface as timeouts and exercise
    // the retry path instead of silently waiting out the stall
    tb.timeout_cycles = 100;
    let mut rng = DetRng::new(seed ^ 0xB05_F11E);

    for ev in events {
        match ev.kind {
            FaultKind::AxiReadSlvErr => {
                tb.memory_mut().inject_read_slverr(1);
                report.inject("axi-read-slverr");
            }
            FaultKind::AxiWriteSlvErr => {
                tb.memory_mut().inject_write_slverr(1);
                report.inject("axi-write-slverr");
            }
            FaultKind::AxiStall { cycles } => {
                tb.memory_mut().inject_stall(cycles);
                report.inject("axi-stall");
            }
            _ => continue,
        }
        // one DMA descriptor per fault: write a block, read it back
        let addr = rng.below(63 * 1024 / 64) * 64;
        let block = rng.bytes(64);
        let retries_before = tb.stats().retries;
        let wrote = tb.write_blocking(addr, &block);
        let read = tb.read_blocking(addr, block.len());
        match (wrote, read) {
            (Ok(wcycles), Ok((data, rcycles))) => {
                if data != block {
                    report.silent_corruptions += 1;
                } else if tb.stats().retries > retries_before {
                    // recovery cost: the whole (retried) round trip
                    report.recovery_latencies.push(wcycles + rcycles);
                }
            }
            _ => report
                .notes
                .push("bus: transaction abandoned after retry budget".into()),
        }
    }
    let stats = tb.stats();
    report.recovered.axi_retries += stats.retries;
    report.notes.push(format!(
        "bus: {} retries over {} slverrs + {} timeouts, {} give-ups",
        stats.retries, stats.slverrs, stats.timeouts, stats.retry_give_ups
    ));
}

/// Fetch a software update over a SpaceWire link carrying the plan's
/// persistent packet corruptions (all within the CRC retry budget, so the
/// transfer recovers through retransmission).
pub fn update_over_corrupted_link(seed: u64, events: &[FaultEvent], report: &mut ChaosReport) {
    let mut rng = DetRng::new(seed ^ 0x5_9A4E);
    let payload = rng.bytes(4 * PACKET_PAYLOAD);
    let mut remote = RemoteNode::new();
    remote.publish("update", payload.clone());
    for ev in events {
        if let FaultKind::SpwCorrupt {
            packet,
            bit,
            repeats,
        } = ev.kind
        {
            let repeats = u32::from(repeats).min(RETRY_BUDGET);
            remote.inject_persistent_fault("update", usize::from(packet), usize::from(bit), repeats);
            report.inject("spw-corruption");
        }
    }
    let mut link = SpaceWireLink::new(remote);
    match link.fetch("update") {
        Ok(data) => {
            if data != payload {
                report.silent_corruptions += 1;
            }
            if link.retransmissions > 0 {
                // each retransmitted packet costs one packet time
                report
                    .recovery_latencies
                    .push(link.retransmissions * hermes_boot::spacewire::CYCLES_PER_PACKET);
            }
        }
        Err(e) => report.notes.push(format!("spw: update fetch failed: {e}")),
    }
    report.recovered.spw_retransmissions += link.retransmissions;
}

/// Run the hypervisor mission phase under SEU flux and task panics.
///
/// Configuration: a prime partition (restart limit 1, spare configured),
/// a silent partition with a watchdog, a worker producing the mission
/// output, and a cold spare. The plan's `Seu` events strike a scrubbed
/// SRAM scratch region; `TaskPanic` events make the prime task fail at
/// its next activation. Availability counts frames in which both the
/// worker and the prime-or-spare function produced output.
///
/// # Panics
///
/// Panics only on hypervisor construction errors (static configuration).
pub fn mission_under_flux(seed: u64, events: &[FaultEvent], report: &mut ChaosReport) {
    let mut cfg = XngConfig::new("chaos-mission");
    let spare = cfg.add_partition(PartitionConfig::new("spare"));
    let prime = cfg.add_partition(
        PartitionConfig::new("prime")
            .with_restart_limit(1)
            .with_spare(spare),
    );
    let watched = cfg.add_partition(PartitionConfig::new("watched").with_watchdog(2_500));
    let worker = cfg.add_partition(PartitionConfig::new("worker"));
    cfg.set_plan(
        0,
        Plan::new(vec![
            Slot::new(prime, 1_000),
            Slot::new(watched, 500),
            Slot::new(worker, 1_000),
        ]),
    );
    let mut hv = Hypervisor::new(cfg).expect("static mission config validates");

    // shared fault/output state between the driver and the native tasks
    let pending_panics = Arc::new(AtomicU64::new(0));
    let prime_out = Arc::new(AtomicU64::new(0));
    let spare_out = Arc::new(AtomicU64::new(0));
    let worker_out = Arc::new(AtomicU64::new(0));
    let worker_sum = Arc::new(AtomicU64::new(0));

    {
        let (panics, out) = (pending_panics.clone(), prime_out.clone());
        hv.attach_native(
            prime,
            native_task("prime", move |ctx| {
                ctx.consume(200);
                if panics.load(Ordering::Relaxed) > 0 {
                    panics.fetch_sub(1, Ordering::Relaxed);
                    return Err("seu-induced task panic".into());
                }
                out.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }),
        )
        .expect("prime exists");
    }
    {
        let out = spare_out.clone();
        hv.attach_native(
            spare,
            native_task("spare", move |ctx| {
                ctx.consume(200);
                out.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }),
        )
        .expect("spare exists");
    }
    // `watched` keeps its Idle workload: dispatched on schedule but never
    // showing liveness, so its watchdog keeps expiring
    {
        let (out, sum) = (worker_out.clone(), worker_sum.clone());
        hv.attach_native(
            worker,
            native_task("worker", move |ctx| {
                ctx.consume(300);
                let n = out.fetch_add(1, Ordering::Relaxed);
                sum.fetch_add(n.wrapping_mul(2654435761) & 0xFFFF, Ordering::Relaxed);
                Ok(())
            }),
        )
        .expect("worker exists");
    }

    // known pattern in the scrubbed scratch region
    let mut rng = DetRng::new(seed ^ 0x5C4A7C8);
    let pattern = rng.bytes(SCRATCH_SIZE as usize);
    hv.cluster_mut()
        .bus
        .load_bytes(SCRATCH_BASE, &pattern)
        .expect("scratch region is mapped");

    let duration = FaultPlanConfig::default().duration;
    let frames = duration / FRAME_CYCLES;
    let mut cursor = 0usize;
    let mut golden_worker = 0u64;
    let mut outage_frames = 0u64;
    let mut outage_open = false;
    for frame in 0..frames {
        let frame_end = (frame + 1) * FRAME_CYCLES;
        // deliver this frame's scheduled runtime faults
        while cursor < events.len() && events[cursor].cycle < frame_end {
            match events[cursor].kind {
                FaultKind::Seu { pos_num, bit } => {
                    let addr = SCRATCH_BASE + FaultPlan::scale(pos_num, SCRATCH_SIZE) as u32;
                    if hv.flip_memory_bit(addr, bit).is_ok() {
                        report.inject("seu");
                    }
                }
                FaultKind::TaskPanic => {
                    pending_panics.fetch_add(1, Ordering::Relaxed);
                    report.inject("task-panic");
                }
                _ => {}
            }
            cursor += 1;
        }

        let function_before = prime_out.load(Ordering::Relaxed) + spare_out.load(Ordering::Relaxed);
        let worker_before = worker_out.load(Ordering::Relaxed);
        if hv.run(FRAME_CYCLES).is_err() {
            report.notes.push("mission: hypervisor substrate error".into());
            break;
        }
        report.frames_total += 1;
        golden_worker += 1;

        // end-of-frame scrub pass over the SEU target region
        let stored = hv
            .cluster_mut()
            .bus
            .read_bytes(SCRATCH_BASE, SCRATCH_SIZE as usize)
            .expect("scratch region is mapped");
        let mut corrected = 0u64;
        for (i, (&got, &want)) in stored.iter().zip(pattern.iter()).enumerate() {
            if got != want {
                hv.cluster_mut()
                    .bus
                    .load_bytes(SCRATCH_BASE + i as u32, &[want])
                    .expect("scratch region is mapped");
                corrected += 1;
            }
        }
        report.recovered.edac_corrections += corrected;

        let function_served = prime_out.load(Ordering::Relaxed) + spare_out.load(Ordering::Relaxed)
            > function_before;
        let worker_served = worker_out.load(Ordering::Relaxed) > worker_before;
        if function_served && worker_served {
            report.frames_available += 1;
            if outage_open {
                // restart/failover completed: record the outage as MTTR
                report.recovery_latencies.push(outage_frames * FRAME_CYCLES);
                outage_open = false;
                outage_frames = 0;
            }
        } else {
            outage_open = true;
            outage_frames += 1;
        }
    }

    // mission output integrity: replay the worker's pure function
    let produced = worker_out.load(Ordering::Relaxed);
    let golden_sum: u64 = (0..produced).map(|n| n.wrapping_mul(2654435761) & 0xFFFF).sum();
    if produced < golden_worker || worker_sum.load(Ordering::Relaxed) != golden_sum {
        report.silent_corruptions += 1;
    }

    // recovery accounting from the hypervisor
    let r = &mut report.recovered;
    r.partition_restarts += hv.stats(prime).restarts
        + hv.stats(watched).restarts
        + hv.stats(worker).restarts
        + hv.stats(spare).restarts;
    r.hm_escalations += hv.hm_escalations;
    r.spare_failovers += hv.spare_failovers;
    r.watchdog_expiries +=
        hv.stats(prime).watchdog_expiries + hv.stats(watched).watchdog_expiries;
    // each watchdog detection took at most one window
    for _ in 0..hv.stats(watched).watchdog_expiries.min(8) {
        report.recovery_latencies.push(2_500);
    }
    report.notes.push(format!(
        "mission: prime restarted {} time(s), escalated {} time(s), {} spare failover(s)",
        hv.stats(prime).restarts,
        hv.hm_escalations,
        hv.spare_failovers
    ));
}

/// The full campaign: one seed, one fault plan, every layer.
///
/// Boot under flash rot, bus traffic under SLVERR/stall fire, a software
/// update over a corrupted SpaceWire link, and a hypervisor mission phase
/// under SEU flux with task panics — all recoveries accounted in the
/// returned [`ChaosReport`].
///
/// Fault injections are traced live as the phases run, the BL1 boot
/// timeline is merged in from the
/// [`BootReport`](hermes_boot::report::BootReport), and the recovery
/// counters are published at campaign end. All campaign events land in a
/// [`Recorder::child`](hermes_obs::Recorder::child) that is absorbed into
/// `obs` before returning, so per-seed campaigns fanned out in parallel
/// merge deterministically in seed order.
pub fn full_campaign(seed: u64, obs: &hermes_obs::Recorder) -> CampaignOutcome {
    let child = obs.child();
    let mut report = ChaosReport {
        seed,
        obs: child.clone(),
        ..ChaosReport::default()
    };
    let outcome = run_campaign_phases(seed, &mut report);
    outcome.report.obs_export(&child, "boot");
    report.export_obs();
    obs.absorb(&child);
    CampaignOutcome {
        report,
        boot: outcome,
    }
}

fn run_campaign_phases(seed: u64, report: &mut ChaosReport) -> BootOutcome {
    let mut plan = FaultPlan::generate(seed, &FaultPlanConfig::default());
    let events = plan.drain_until(u64::MAX);
    let by = |s: Subsystem| -> Vec<FaultEvent> {
        events
            .iter()
            .copied()
            .filter(|e| e.kind.subsystem() == s)
            .collect()
    };

    let boot = boot_under_flash_rot(seed, report);
    bus_under_fire(seed, &by(Subsystem::Axi), report);
    update_over_corrupted_link(seed, &by(Subsystem::SpaceWire), report);
    let mut mission: Vec<FaultEvent> = by(Subsystem::PartitionMemory);
    mission.extend(by(Subsystem::Task));
    mission.sort_by_key(|e| e.cycle);
    mission_under_flux(seed, &mission, report);

    boot
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_boot::report::BOOT_REPORT_ADDR;

    #[test]
    fn boot_phase_recovers_from_rot() {
        let mut report = ChaosReport::default();
        let out = boot_under_flash_rot(7, &mut report);
        assert!(
            out.report.success || out.report.boot_source_failovers > 0,
            "boot either succeeds or climbs the ladder"
        );
        assert!(report.boot_succeeded);
        assert!(
            report.recovered.flash_voted_bytes > 0 || report.recovered.boot_source_failovers > 0,
            "flash redundancy exercised: {:?}",
            report.recovered
        );
        // report deposited for the next stage
        let stored = out.cluster.bus.read_bytes(BOOT_REPORT_ADDR, 4).unwrap();
        assert_eq!(&stored, b"HRPT");
    }

    #[test]
    fn bus_phase_retries_and_round_trips() {
        let mut report = ChaosReport::default();
        let plan = FaultPlan::generate(11, &FaultPlanConfig::default());
        let events: Vec<FaultEvent> = plan
            .events()
            .iter()
            .copied()
            .filter(|e| e.kind.subsystem() == Subsystem::Axi)
            .collect();
        assert!(!events.is_empty());
        bus_under_fire(11, &events, &mut report);
        assert!(report.recovered.axi_retries > 0, "{:?}", report.recovered);
        assert_eq!(report.silent_corruptions, 0);
    }

    #[test]
    fn update_fetch_rides_out_corruption() {
        let mut report = ChaosReport::default();
        let plan = FaultPlan::generate(3, &FaultPlanConfig::default());
        let events: Vec<FaultEvent> = plan
            .events()
            .iter()
            .copied()
            .filter(|e| e.kind.subsystem() == Subsystem::SpaceWire)
            .collect();
        assert!(!events.is_empty());
        update_over_corrupted_link(3, &events, &mut report);
        assert!(report.recovered.spw_retransmissions > 0);
        assert_eq!(report.silent_corruptions, 0);
    }

    #[test]
    fn mission_phase_contains_flux() {
        let mut report = ChaosReport::default();
        let plan = FaultPlan::generate(21, &FaultPlanConfig::default());
        let events: Vec<FaultEvent> = plan
            .events()
            .iter()
            .copied()
            .filter(|e| {
                matches!(
                    e.kind.subsystem(),
                    Subsystem::PartitionMemory | Subsystem::Task
                )
            })
            .collect();
        mission_under_flux(21, &events, &mut report);
        assert!(report.frames_total > 10);
        assert!(report.availability() > 0.5);
        assert_eq!(report.silent_corruptions, 0);
        let r = &report.recovered;
        assert!(r.partition_restarts > 0, "{r:?}");
        assert!(r.hm_escalations > 0, "{r:?}");
        assert!(r.spare_failovers > 0, "{r:?}");
        assert!(r.watchdog_expiries > 0, "{r:?}");
        assert!(r.edac_corrections > 0, "{r:?}");
    }

    #[test]
    fn full_campaign_exercises_every_stage() {
        let outcome = full_campaign(42, &hermes_obs::Recorder::disabled());
        let report = &outcome.report;
        assert!(report.boot_succeeded);
        assert_eq!(report.silent_corruptions, 0, "{}", report.render());
        assert!(report.availability() > 0.5, "{}", report.render());
        assert!(
            report.all_stages_exercised(),
            "every recovery family must fire:\n{}",
            report.render()
        );
        assert!(report.total_injected() > 20);
        assert!(report.mttr() > 0.0);
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = full_campaign(9, &hermes_obs::Recorder::disabled());
        let b = full_campaign(9, &hermes_obs::Recorder::disabled());
        assert_eq!(a.report.injected, b.report.injected);
        assert_eq!(a.report.recovered, b.report.recovered);
        assert_eq!(a.report.frames_available, b.report.frames_available);
        assert_eq!(a.report.recovery_latencies, b.report.recovery_latencies);
    }
}
