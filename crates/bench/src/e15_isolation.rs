//! E15 — Adversarial spatial isolation (the qualification claim behind
//! Section III's space partitioning): a seeded hostile partition probes
//! its neighbors' memory, ports, and privileged services, and **every
//! probe must land as an attributed health-monitor event** — probe count
//! equals trap count, victim sentinels survive bit-for-bit, and no trap is
//! ever blamed on a victim (zero silent leaks).
//!
//! The experiment also quantifies the *cost* of spatial isolation by
//! sweeping both mechanisms under identical guest schedules: full MPU
//! reprogramming on every guest dispatch (cost scaling with the region
//! count) vs. protection-key domains (one union table installed per core,
//! then a constant-cost active-key swap per dispatch).

use crate::cells;
use crate::table::Table;
use crate::ExperimentOutput;
use hermes_chaos::hostile::{
    hostile_campaign, hypercall_fuzz_campaign, HostileCampaignConfig, REGION_SIZE,
};
use hermes_chaos::plan::ProbeClass;
use hermes_cpu::isa::assemble;
use hermes_cpu::memmap::layout;
use hermes_cpu::mpu::{reprogram_cost, GATE_CROSS_CYCLES};
use hermes_xng::config::{IsolationMode, MemRegion, PartitionConfig, Plan, Slot, XngConfig};
use hermes_xng::hypervisor::Hypervisor;

/// Probes per hostile campaign in the sweep.
const PROBES: u32 = 12;

/// Stable label for an isolation mode.
fn mode_label(mode: IsolationMode) -> &'static str {
    match mode {
        IsolationMode::MpuReprogram => "mpu-reprogram",
        IsolationMode::ProtectionKeys => "protection-keys",
    }
}

/// Run E15, tracing into `obs`. Each campaign traces into its own child
/// recorder, absorbed in sweep order. Every unit is too small for a
/// worker hand-off to pay, so everything runs inline and `jobs` is
/// unused.
pub fn run(_jobs: usize, obs: &hermes_obs::Recorder) -> ExperimentOutput {
    // ---- E15a: hostile campaign sweep ------------------------------------
    let seeds = [7u64, 21, 42, 99];
    let mut campaigns = Vec::new();
    for &seed in &seeds {
        for victims in [2usize, 4] {
            for isolation in [IsolationMode::MpuReprogram, IsolationMode::ProtectionKeys] {
                campaigns.push(HostileCampaignConfig {
                    seed,
                    victims,
                    probes: PROBES,
                    isolation,
                });
            }
        }
    }
    let reports: Vec<_> = campaigns
        .iter()
        .map(|cfg| {
            let child = obs.child();
            let report = hostile_campaign(cfg, &child);
            obs.absorb(&child);
            report
        })
        .collect();

    let mut a = Table::new(&[
        "seed",
        "victims",
        "isolation",
        "probes",
        "trapped",
        "silent",
        "sentinels",
        "victim_blamed",
        "escalations",
        "failovers",
        "leak_free",
    ]);
    for r in &reports {
        a.row(cells![
            r.seed,
            r.victims,
            mode_label(r.isolation),
            r.probes,
            r.trapped,
            r.silent,
            if r.sentinels_intact { "intact" } else { "BREACHED" },
            r.victim_blamed,
            r.hm_escalations,
            r.spare_failovers,
            if r.zero_silent_leaks() { "yes" } else { "NO" },
        ]);
    }

    // ---- E15b: probe-class breakdown (seed 42, 4 victims, keys) ----------
    let reference = reports
        .iter()
        .find(|r| {
            r.seed == 42 && r.victims == 4 && r.isolation == IsolationMode::ProtectionKeys
        })
        .expect("reference campaign is in the sweep");
    let mut b = Table::new(&["probe class", "probes", "trapped"]);
    for (class, stats) in ProbeClass::ALL.iter().zip(reference.by_class.iter()) {
        b.row(cells![class.label(), stats.probes, stats.trapped]);
    }

    // ---- E15c: isolation overhead, gate crossing vs MPU reprogram --------
    let shapes = [(2usize, 1usize), (4, 1), (8, 1), (4, 2), (8, 2)];
    let mut c = Table::new(&[
        "partitions",
        "regions/part",
        "isolation",
        "guest_dispatches",
        "isolation_cycles",
        "cycles/dispatch",
        "model",
    ]);
    for (parts, regions) in shapes {
        for mode in [IsolationMode::MpuReprogram, IsolationMode::ProtectionKeys] {
            let (dispatches, cycles) = overhead_run(parts, regions, mode);
            let per = cycles.checked_div(dispatches).unwrap_or(0);
            let model = match mode {
                IsolationMode::MpuReprogram => {
                    format!("{} (6+4r)", reprogram_cost(regions))
                }
                IsolationMode::ProtectionKeys => format!("{GATE_CROSS_CYCLES} (const)"),
            };
            c.row(cells![
                parts,
                regions,
                mode_label(mode),
                dispatches,
                cycles,
                per,
                model
            ]);
        }
    }

    // ---- E15d: undefined-hypercall fuzzing -------------------------------
    let mut d = Table::new(&["seed", "attempts", "attributed", "silent"]);
    for seed in seeds {
        let f = hypercall_fuzz_campaign(seed, 48);
        d.row(cells![f.seed, f.attempts, f.attributed, f.silent]);
    }

    let text = format!(
        "E15a: hostile campaign sweep (zero-silent-leak gate)\n{}\n\
         E15b: probe-class breakdown (seed 42, 4 victims, protection keys)\n{}\n\
         E15c: isolation overhead, MPU reprogram vs protection-key gate crossing\n{}\n\
         E15d: undefined-hypercall fuzzing (every attempt attributed)\n{}",
        a.render(),
        b.render(),
        c.render(),
        d.render(),
    );
    ExperimentOutput::new(text)
        .with("e15a", "hostile campaign sweep", a)
        .with("e15b", "probe-class breakdown (seed 42)", b)
        .with("e15c", "isolation overhead", c)
        .with("e15d", "hypercall fuzzing", d)
}

/// Run `parts` spinning guest partitions (each with `regions` MPU regions)
/// for a fixed schedule with isolation cycles charged, and return the
/// guest dispatch count and total isolation cycles for `mode`.
fn overhead_run(parts: usize, regions: usize, mode: IsolationMode) -> (u64, u64) {
    let mut cfg = XngConfig::new("overhead");
    let chunk = REGION_SIZE / regions as u32;
    let mut pids = Vec::with_capacity(parts);
    for i in 0..parts {
        let base = layout::SRAM_BASE + REGION_SIZE * i as u32;
        let mut p = PartitionConfig::new(format!("p{i}"));
        for r in 0..regions {
            p = p.with_memory(MemRegion {
                base: base + chunk * r as u32,
                size: chunk,
                writable: true,
            });
        }
        pids.push(cfg.add_partition(p));
    }
    cfg.set_plan(
        0,
        Plan::new(pids.iter().map(|&p| Slot::new(p, 40)).collect()),
    );
    cfg.context_switch_cycles = 4;
    cfg.isolation = mode;
    cfg.charge_isolation_cycles = true;
    let mut hv = Hypervisor::new(cfg).expect("static overhead config validates");
    let spin = assemble("spin:\necall 0x08\njal r0, spin").expect("static program");
    for (i, &pid) in pids.iter().enumerate() {
        let base = layout::SRAM_BASE + REGION_SIZE * i as u32;
        hv.attach_guest(pid, base, vec![(base, spin.clone())])
            .expect("partition exists");
    }
    hv.run(20_000).expect("spin guests are benign");
    let iso = hv.isolation_stats();
    match mode {
        IsolationMode::MpuReprogram => (iso.mpu_reprograms, iso.mpu_reprogram_cycles),
        IsolationMode::ProtectionKeys => (iso.gate_crossings, iso.gate_cross_cycles),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e15_gate_holds_and_costs_are_ordered() {
        let out = run(2, &hermes_obs::Recorder::disabled());
        assert!(out.text.contains("E15a"));
        assert!(!out.text.contains("BREACHED"));
        assert!(!out.text.contains(" NO"));
        // keys mode must be cheaper per dispatch than reprogramming
        let c = &out.tables.iter().find(|(id, _, _)| id == "e15c").unwrap().2;
        assert!(out.text.contains("(const)"));
        assert!(c.to_json().render().contains("protection-keys"));
    }

    #[test]
    fn e15_replays_identically() {
        let untraced = hermes_obs::Recorder::disabled();
        assert_eq!(run(1, &untraced).text, run(1, &untraced).text);
    }
}
