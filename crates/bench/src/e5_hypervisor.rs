//! E5 — Hypervisor time-and-space-partitioning guarantees (Fig. 4,
//! Section III).
//!
//! (a) Slot-activation regularity of a victim partition while co-resident
//! partitions behave, crash continuously, or hammer shared memory from
//! another core; (b) hypercall service cost; (c) 1→4 core throughput
//! scaling of a parallel partition (the "enabling parallel computing"
//! claim).

use crate::cells;
use crate::table::Table;
use crate::ExperimentOutput;
use hermes_cpu::memmap::layout;
use hermes_xng::config::{MemRegion, PartitionConfig, Plan, Slot, XngConfig};
use hermes_xng::hypervisor::Hypervisor;
use hermes_xng::partition::native_task;
use hermes_xng::PartitionId;

fn victim_with_coresident(scenario: &str, obs: &hermes_obs::Recorder) -> (u64, u64, u64) {
    let mut cfg = XngConfig::new("e5");
    let victim = cfg.add_partition(PartitionConfig::new("victim"));
    let other = cfg.add_partition(PartitionConfig::new("other").with_memory(MemRegion {
        base: layout::SRAM_BASE,
        size: 0x1000,
        writable: true,
    }));
    cfg.set_plan(0, Plan::new(vec![Slot::new(victim, 5_000), Slot::new(other, 5_000)]));
    let mut hv = Hypervisor::new(cfg).expect("config");
    hv.set_obs(obs.clone());
    hv.attach_native(victim, native_task("victim", |c| {
        c.consume(1_000);
        Ok(())
    }))
    .expect("attach");
    match scenario {
        "well-behaved" => {
            hv.attach_native(other, native_task("calm", |c| {
                c.consume(1_000);
                Ok(())
            }))
            .expect("attach");
        }
        "crashing" => {
            hv.attach_native(other, native_task("crash", |_| Err("boom".into())))
                .expect("attach");
        }
        "mpu-attacker" => {
            let attack = hermes_cpu::isa::assemble(&format!(
                "lui r1, {hi}\nsw r0, (r1)\nhalt",
                hi = layout::DDR_BASE >> 16
            ))
            .expect("asm");
            hv.attach_guest(other, layout::SRAM_BASE, vec![(layout::SRAM_BASE, attack)])
                .expect("attach");
        }
        _ => unreachable!(),
    }
    hv.run(120_000).expect("run");
    let vs = hv.stats(victim);
    let os = hv.stats(other);
    (vs.activations, vs.max_start_jitter, os.restarts)
}

fn hypercall_cost(obs: &hermes_obs::Recorder) -> (u64, u64) {
    // a guest that spins on GetSystemTime hypercalls
    let mut cfg = XngConfig::new("hc");
    let g = cfg.add_partition(PartitionConfig::new("g").with_memory(MemRegion {
        base: layout::SRAM_BASE,
        size: 0x1000,
        writable: true,
    }));
    cfg.set_plan(0, Plan::new(vec![Slot::new(g, 20_000)]));
    let mut hv = Hypervisor::new(cfg).expect("config");
    hv.set_obs(obs.clone());
    let prog = hermes_cpu::isa::assemble(
        "loop:\n  ecall 0x02\n  jal r0, loop",
    )
    .expect("asm");
    hv.attach_guest(g, layout::SRAM_BASE, vec![(layout::SRAM_BASE, prog)])
        .expect("attach");
    hv.run(101_000).expect("run");
    let s = hv.stats(g);
    (s.hypercalls, s.cpu_cycles / s.hypercalls.max(1))
}

fn core_scaling(cores: usize) -> u64 {
    let mut cfg = XngConfig::new("scale");
    let p = cfg.add_partition(PartitionConfig::new("worker"));
    for core in 0..cores {
        cfg.set_plan(core, Plan::new(vec![Slot::new(p, 10_000)]));
    }
    let mut hv = Hypervisor::new(cfg).expect("config");
    hv.attach_native(p, native_task("worker", |c| {
        c.consume(9_000);
        Ok(())
    }))
    .expect("attach");
    hv.run(100_000).expect("run");
    hv.stats(p).cpu_cycles
}

/// Guest throughput on core 0 while `hammers` other cores run
/// bus-hammering guests: returns instructions retired by the victim in a
/// fixed wall-clock window.
fn shared_bus_interference(hammers: usize) -> u64 {
    let mut cfg = XngConfig::new("bus");
    let sram = |i: u32| MemRegion {
        base: layout::SRAM_BASE + i * 0x2000,
        size: 0x2000,
        writable: true,
    };
    // the victim runs on core 3 — the lowest-priority requester at the
    // modelled interconnect — while hammers occupy cores 0..hammers
    let victim = cfg.add_partition(PartitionConfig::new("victim").with_memory(sram(0)));
    cfg.set_plan(3, Plan::new(vec![Slot::new(victim, 30_000)]));
    let mut others = Vec::new();
    for h in 0..hammers {
        let p = cfg.add_partition(
            PartitionConfig::new(format!("hammer{h}")).with_memory(sram(h as u32 + 1)),
        );
        cfg.set_plan(h, Plan::new(vec![Slot::new(p, 30_000)]));
        others.push(p);
    }
    let mut hv = Hypervisor::new(cfg).expect("config");
    // every guest loops on loads from its own SRAM window (shared bus)
    let worker = |base: u32| {
        hermes_cpu::isa::assemble(&format!(
            "lui r1, {hi}
ori r1, r1, {lo}
loop:
lw r2, (r1)
addi r3, r3, 1
jal r0, loop",
            hi = base >> 16,
            lo = base & 0xFFFF,
        ))
        .expect("asm")
    };
    let base0 = layout::SRAM_BASE;
    hv.attach_guest(victim, base0 + 0x100, vec![(base0 + 0x100, worker(base0))])
        .expect("attach");
    for (h, &p) in others.iter().enumerate() {
        let b = layout::SRAM_BASE + (h as u32 + 1) * 0x2000;
        hv.attach_guest(p, b + 0x100, vec![(b + 0x100, worker(b))])
            .expect("attach");
    }
    // run past the end of the 30k-cycle slot so the vCPU context (and its
    // executed-cycle count) is retired and accounted
    hv.run(35_000).expect("run");
    hv.stats(victim).cpu_cycles
}

/// Run E5 with a flight recorder attached to the hypervisors of the
/// isolation and hypercall scenarios (context-switch, hypercall, and
/// HM-event traces under the `xng` subsystem). E5 runs serially, so
/// `jobs` is unused.
pub fn run(_jobs: usize, obs: &hermes_obs::Recorder) -> ExperimentOutput {
    let mut a = Table::new(&["co-resident", "victim_activations", "victim_jitter", "other_restarts"]);
    for scenario in ["well-behaved", "crashing", "mpu-attacker"] {
        let (act, jitter, restarts) = victim_with_coresident(scenario, obs);
        a.row(cells![scenario, act, jitter, restarts]);
    }

    let (calls, per_call) = hypercall_cost(obs);
    let mut b = Table::new(&["metric", "value"]);
    b.row(cells!["hypercalls serviced", calls]);
    b.row(cells!["guest cycles per hypercall round-trip", per_call]);

    let mut c = Table::new(&["cores", "partition_cpu_cycles", "scaling"]);
    let base = core_scaling(1);
    for cores in 1..=4 {
        let cy = core_scaling(cores);
        c.row(cells![cores, cy, format!("{:.2}x", cy as f64 / base as f64)]);
    }

    let mut d = Table::new(&["bus hammers", "victim_cpu_cycles", "relative"]);
    let solo = shared_bus_interference(0);
    for hammers in [0usize, 1, 3] {
        let cy = shared_bus_interference(hammers);
        d.row(cells![
            hammers,
            cy,
            format!("{:.2}", cy as f64 / solo as f64)
        ]);
    }

    let _ = PartitionId(0);
    let text = format!(
        "E5a: victim partition regularity under misbehaving co-residents\n{}\n\
         E5b: hypercall service cost\n{}\n\
         E5c: multicore scaling of one parallel partition\n{}\n\
         E5d: intra-slot shared-bus interference on a guest (time slots are\n\
         guaranteed; shared-interconnect throughput inside a slot is the\n\
         residual interference TSP does not hide)\n{}",
        a.render(),
        b.render(),
        c.render(),
        d.render()
    );
    ExperimentOutput::new(text)
        .with("e5a", "victim regularity", a)
        .with("e5b", "hypercall service cost", b)
        .with("e5c", "multicore scaling", c)
        .with("e5d", "intra-slot interference", d)
}

#[cfg(test)]
mod tests {
    #[test]
    fn e5_victim_unaffected() {
        let out = super::run(hermes_par::jobs(), &hermes_obs::Recorder::disabled()).text;
        // all three scenarios must report the same victim activation count
        let counts: Vec<&str> = out
            .lines()
            .filter(|l| {
                l.contains("well-behaved") || l.contains("crashing") || l.contains("mpu-attacker")
            })
            .map(|l| l.split_whitespace().nth(1).unwrap())
            .collect();
        assert_eq!(counts.len(), 3);
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "victim schedule must be isolation-invariant: {counts:?}"
        );
        assert!(out.contains("4.00x") || out.contains("3.9"), "4-core scaling:\n{out}");
    }
}
