//! E10 — Cross-layer chaos campaigns (the robustness claim behind
//! Sections III–IV: faults are survived *transparently to the
//! application* by staged recovery — flash TMR and boot-source failover
//! in BL1, AXI retry on the interconnect, SpaceWire retransmission, and
//! health-monitor restart/escalation/spare-failover in the hypervisor).
//!
//! One seeded `FaultPlan` drives faults into every layer at once; the
//! report measures availability, MTTR, and — the qualification gate —
//! zero silent corruptions.

use crate::cells;
use crate::table::Table;
use crate::ExperimentOutput;
use hermes_chaos::scenario;

/// Run E10 on `jobs` workers (per-seed campaigns in parallel), tracing
/// into `obs`: every seeded campaign traces its injections, boot
/// timeline, and recovery verdict into its own child recorder, absorbed
/// in seed order.
pub fn run(jobs: usize, obs: &hermes_obs::Recorder) -> ExperimentOutput {
    let seeds = [7u64, 11, 21, 42, 99, 1234];

    let mut a = Table::new(&[
        "seed",
        "injected",
        "boot",
        "availability",
        "mttr_cycles",
        "silent",
        "all_stages",
    ]);
    // each campaign is seeded and independent; results come back in seed order
    let outcomes = hermes_par::par_map_jobs(jobs, &seeds, |&seed| {
        let child = obs.child();
        let out = scenario::full_campaign(seed, &child);
        (out, child)
    })
    .expect("campaigns are infallible");
    let outcomes: Vec<_> = outcomes
        .into_iter()
        .map(|(out, child)| {
            obs.absorb(&child);
            out
        })
        .collect();
    for (&seed, out) in seeds.iter().zip(&outcomes) {
        let r = &out.report;
        a.row(cells![
            seed,
            r.total_injected(),
            if r.boot_succeeded { "ok" } else { "safe-mode" },
            format!("{:.4}", r.availability()),
            format!("{:.0}", r.mttr()),
            r.silent_corruptions,
            if r.all_stages_exercised() { "yes" } else { "no" },
        ]);
    }

    // recovery-stage counters for the reference seed
    let reference = &outcomes[3].report; // seed 42
    let mut b = Table::new(&["recovery stage", "count"]);
    let s = &reference.recovered;
    for (label, n) in [
        ("axi-retry", s.axi_retries),
        ("flash-tmr-vote (bytes)", s.flash_voted_bytes),
        ("flash-copy-fallback", s.flash_copy_fallbacks),
        ("spw-retransmission", s.spw_retransmissions),
        ("boot-source-failover", s.boot_source_failovers),
        ("partition-restart", s.partition_restarts),
        ("hm-escalation", s.hm_escalations),
        ("spare-failover", s.spare_failovers),
        ("watchdog-expiry", s.watchdog_expiries),
        ("edac-correction", s.edac_corrections),
    ] {
        b.row(cells![label, n]);
    }

    let mut c = Table::new(&["fault class", "injected"]);
    for (label, n) in &reference.injected {
        c.row(cells![label, n]);
    }

    let text = format!(
        "E10a: chaos campaign sweep (full stack: boot, bus, link, mission)\n{}\n\
         E10b: recovery stages exercised (seed 42)\n{}\n\
         E10c: faults injected by class (seed 42)\n{}",
        a.render(),
        b.render(),
        c.render(),
    );
    ExperimentOutput::new(text)
        .with("e10a", "chaos campaign sweep", a)
        .with("e10b", "recovery stages (seed 42)", b)
        .with("e10c", "fault classes (seed 42)", c)
}
