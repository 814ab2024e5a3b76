//! E16 — Word-parallel bit-packed settle + rank-partitioned parallel
//! RTL simulation.
//!
//! Two layered hot-path engines on top of the E13 event-driven settle
//! (`crates/rtl`), both measured here against the engines they replace,
//! all of which stay selectable through typed hooks so every comparison
//! is live:
//!
//! * **Word-parallel lanes** — independent 1-bit ops of identical boolean
//!   form are bit-packed up to 64 per `u64` word at settle-program build
//!   time and evaluated as one bitwise instruction each
//!   ([`Simulator::new_with_packing`]).
//! * **Rank-partitioned parallel settle** — the program is cut into
//!   contiguous partitions per topological rank and fanned over
//!   `hermes-par` workers; the plan and the engagement decision are
//!   jobs-independent, so any `--jobs` value is bit-identical to serial.
//!
//! Sub-experiments:
//!
//! * **E16a** — compiled-program structure: packing and partition plan
//!   per design (deterministic).
//! * **E16b** — the E11 sim workload (`acc` head-to-head across four
//!   engines: the pre-dense hashmap baseline, scalar full settle, scalar
//!   event-driven, and packed event-driven), with cycle counts, return
//!   values, and traces asserted identical.
//! * **E16c** — the same kernel tiled into an SoC-scale fabric
//!   (`Netlist::tiled`), the workload class the packing + gating engines
//!   target. The *one-active-tile* row is the headline perf gate: the
//!   packed event-driven engine must beat the hashmap baseline by ≥10×
//!   cycles/sec (asserted in release builds).
//! * **E16d** — partitioned settle determinism: the same fabric driven
//!   with partitioning force-engaged at 1/2/4 workers; net-state, trace,
//!   and counter checksums must match bit-for-bit.
//!
//! Every simulator here is built through [`Simulator::new_with_packing`]
//! with the settle mode set explicitly, so the rendered tables name the
//! engine on every row and are independent of the worker count. Wall-clock figures appear only
//! on `completed in` lines (stripped by ci.sh's determinism diffs) and in
//! the machine-readable JSON tables.

use crate::cells;
use crate::e11_throughput::BaselineSimulator;
use crate::table::Table;
use crate::ExperimentOutput;
use hermes_hls::HlsFlow;
use hermes_obs::hash::Fnv1a;
use hermes_rtl::netlist::{NetId, Netlist};
use hermes_rtl::sim::Simulator;
use std::time::Instant;

/// The E11/E13 accumulator kernel — the sim-throughput workload this
/// experiment inherits its baseline from.
pub const ACC_SRC: &str =
    "int acc(int n) { int s = 0; for (int i = 0; i < n; i += 1) { s += i * i; } return s; }";

/// SoC-fabric scale. Release measures the full 256-tile fabric with the
/// E11 argument; debug (unit/determinism tests) shrinks both so the
/// hashmap baseline finishes quickly.
const SOC_COPIES: usize = if cfg!(debug_assertions) { 16 } else { 256 };
/// `arg_n` for the tiled runs (per active tile).
const SOC_ARG: u64 = if cfg!(debug_assertions) { 200 } else { 2_000 };
/// `arg_n` and repetitions for the single-kernel E11 workload rerun.
const E11_ARG: u64 = if cfg!(debug_assertions) { 400 } else { 2_000 };
const E11_REPS: u32 = if cfg!(debug_assertions) { 2 } else { 6 };

/// One dense-simulator engine configuration.
struct EngineCfg {
    packed: bool,
    event: bool,
    jobs: usize,
    /// Partition-engagement grain override (`None` = production default).
    grain: Option<usize>,
}

/// One run to `done == 1`, with the counters the tables report.
struct EngineRun {
    cycles: u64,
    ret: u64,
    settle_ops: u64,
    parallel_ops: u64,
    parallel_passes: u64,
    trace: String,
    secs: f64,
}

fn run_dense(
    nl: &Netlist,
    pokes: &[(String, u64)],
    done: NetId,
    ret: NetId,
    cfg: &EngineCfg,
    reps: u32,
) -> EngineRun {
    let traced = vec![done, ret];
    let mut last = None;
    let start = Instant::now();
    for _ in 0..reps {
        let mut sim = Simulator::new_with_packing(nl, cfg.packed).expect("valid netlist");
        sim.set_event_driven(cfg.event);
        sim.set_settle_jobs(cfg.jobs);
        if let Some(grain) = cfg.grain {
            sim.set_partition_grain(grain);
        }
        sim.enable_trace(&traced);
        for (name, value) in pokes {
            sim.poke(name, *value).expect("argument net exists");
        }
        let mut cycles = 0u64;
        while sim.peek_net(done) != 1 {
            sim.step().expect("step");
            cycles += 1;
            assert!(cycles < 4_000_000, "kernel never finished");
        }
        last = Some((cycles, sim));
    }
    let secs = start.elapsed().as_secs_f64();
    let (cycles, mut sim) = last.expect("reps >= 1");
    EngineRun {
        cycles,
        ret: sim.peek_net(ret),
        settle_ops: sim.settle_ops(),
        parallel_ops: sim.settle_parallel_ops(),
        parallel_passes: sim.settle_parallel_passes(),
        trace: sim.take_trace().expect("trace enabled").render(nl),
        secs,
    }
}

/// The pre-dense hashmap-state baseline (E11's `BaselineSimulator`) run
/// to `done == 1`.
fn run_hashmap(
    nl: &Netlist,
    pokes: &[(String, u64)],
    done: NetId,
    ret: NetId,
    reps: u32,
) -> (u64, u64, f64) {
    let mut last = (0, 0);
    let start = Instant::now();
    for _ in 0..reps {
        let mut sim = BaselineSimulator::new(nl);
        for (name, value) in pokes {
            sim.poke(name, *value);
        }
        let mut cycles = 0u64;
        while sim.peek_net(done) != 1 {
            sim.step();
            cycles += 1;
            assert!(cycles < 4_000_000, "kernel never finished");
        }
        last = (cycles, sim.peek_net(ret));
    }
    (last.0, last.1, start.elapsed().as_secs_f64())
}

/// Pokes for the tiled fabric: every tile's `arg_n` when `all`, else
/// tile 0 only (the localized-activity scenario).
fn soc_pokes(copies: usize, all: bool) -> Vec<(String, u64)> {
    let tiles = if all { copies } else { 1 };
    (0..tiles).map(|k| (format!("u{k}_arg_n"), SOC_ARG)).collect()
}

/// Run E16 on `jobs` workers, tracing into `obs` (the packed/partition
/// counters export under `rtl-par`); every count renders the same
/// tables (the partition plan and engagement decision are
/// jobs-independent and partition results merge in program order).
pub fn run(jobs: usize, obs: &hermes_obs::Recorder) -> ExperimentOutput {
    let design = HlsFlow::new().unroll_limit(0).compile(ACC_SRC).expect("acc compiles");
    let acc_nl = design.netlist();
    let soc_nl = acc_nl.tiled(SOC_COPIES);
    soc_nl.validate().expect("tiled netlist is valid");

    // E16a: what the settle-program compiler produced for each design.
    let mut structure = Table::new(&[
        "design", "nets", "program_ops", "program_words", "packed_words", "packed_lanes",
        "occupancy_pm", "partitions", "ranks",
    ]);
    for (name, nl) in [("acc", acc_nl), (soc_nl.name(), &soc_nl)] {
        let sim = Simulator::new_with_packing(nl, true).expect("valid netlist");
        assert!(
            sim.settle_words() <= sim.settle_program_len(),
            "{name}: packing can only shrink the walked program"
        );
        structure.row(cells![
            name,
            nl.net_count(),
            sim.settle_program_len(),
            sim.settle_words(),
            sim.packed_words(),
            sim.packed_lanes(),
            sim.lane_occupancy_permille(),
            sim.settle_partitions(),
            sim.settle_ranks(),
        ]);
    }
    {
        let sim = Simulator::new_with_packing(&soc_nl, true).expect("valid netlist");
        assert!(sim.packed_lanes() > 0, "tiled fabric must pack some lanes");
        assert!(sim.settle_partitions() > 1, "tiled fabric must partition");
    }

    // E16b: the E11 sim workload, four engines head-to-head.
    let mut timing_lines = String::new();
    let acc_pokes = vec![("arg_n".to_string(), E11_ARG)];
    let acc_done = acc_nl.net_by_name("done").expect("done net");
    let acc_ret = acc_nl.net_by_name("ret_q").expect("ret net");
    let engines: [(&str, Option<EngineCfg>); 4] = [
        ("hashmap (pre-dense)", None),
        ("scalar-full", Some(EngineCfg { packed: false, event: false, jobs, grain: None })),
        ("scalar-event", Some(EngineCfg { packed: false, event: true, jobs, grain: None })),
        ("packed-event", Some(EngineCfg { packed: true, event: true, jobs, grain: None })),
    ];
    let mut workload = Table::new(&["engine", "cycles", "ret", "settle_ops", "trace"]);
    let mut wall = Table::new(&["scenario", "engine", "wall_ms", "kcycles_s", "speedup_vs_hashmap"]);
    let mut reference: Option<EngineRun> = None;
    let mut expected: Option<(u64, u64)> = None;
    let mut base_secs = 0.0f64;
    for (name, cfg) in &engines {
        let (cycles, ret, settle_ops, trace, secs) = match cfg {
            None => {
                let (cycles, ret, secs) = run_hashmap(acc_nl, &acc_pokes, acc_done, acc_ret, E11_REPS);
                base_secs = secs;
                (cycles, ret, "-".to_string(), "-".to_string(), secs)
            }
            Some(cfg) => {
                let run = run_dense(acc_nl, &acc_pokes, acc_done, acc_ret, cfg, E11_REPS);
                let row = (run.cycles, run.ret, run.settle_ops.to_string(), run.secs);
                let verdict = match &reference {
                    None => {
                        reference = Some(run);
                        "reference"
                    }
                    Some(r) => {
                        assert_eq!(r.trace, run.trace, "{name}: trace must be byte-identical");
                        "identical"
                    }
                };
                (row.0, row.1, row.2, verdict.to_string(), row.3)
            }
        };
        match expected {
            None => expected = Some((cycles, ret)),
            Some((ec, er)) => {
                assert_eq!(ec, cycles, "{name}: cycle count must agree");
                assert_eq!(er, ret, "{name}: return value must agree");
            }
        }
        let kcps = (u64::from(E11_REPS) * cycles) as f64 / secs / 1e3;
        workload.row(cells![name, cycles, ret, settle_ops, trace]);
        wall.row(cells![
            "acc-single",
            name,
            format!("{:.1}", secs * 1e3),
            format!("{kcps:.0}"),
            format!("{:.2}", base_secs / secs),
        ]);
        timing_lines.push_str(&format!(
            "[e16b acc({E11_ARG}) x{E11_REPS} {name} completed in {:.1} ms — {kcps:.0} kcycles/s, {:.2}x vs hashmap]\n",
            secs * 1e3,
            base_secs / secs,
        ));
    }
    assert!(reference.is_some(), "dense engines ran");

    // E16c: the tiled SoC fabric — all tiles active, then one active tile
    // (the localized-activity scenario the event+packed engines target).
    let soc_done = soc_nl.net_by_name("u0_done").expect("tile 0 done net");
    let soc_ret = soc_nl.net_by_name("u0_ret_q").expect("tile 0 ret net");
    let mut soc = Table::new(&["scenario", "engine", "cycles", "ret", "settle_ops", "trace"]);
    let mut gate_speedup = 0.0f64;
    for (scenario, all) in [("all-active", true), ("one-active", false)] {
        let pokes = soc_pokes(SOC_COPIES, all);
        let soc_engines: [(&str, Option<EngineCfg>); 3] = [
            ("hashmap (pre-dense)", None),
            ("scalar-full", Some(EngineCfg { packed: false, event: false, jobs, grain: None })),
            ("packed-event", Some(EngineCfg { packed: true, event: true, jobs, grain: None })),
        ];
        let mut reference: Option<EngineRun> = None;
        let mut expected: Option<(u64, u64)> = None;
        let mut base_secs = 0.0f64;
        for (name, cfg) in &soc_engines {
            let (cycles, ret, settle_ops, trace, secs) = match cfg {
                None => {
                    let (cycles, ret, secs) = run_hashmap(&soc_nl, &pokes, soc_done, soc_ret, 1);
                    base_secs = secs;
                    (cycles, ret, "-".to_string(), "-".to_string(), secs)
                }
                Some(cfg) => {
                    let run = run_dense(&soc_nl, &pokes, soc_done, soc_ret, cfg, 1);
                    let row = (run.cycles, run.ret, run.settle_ops.to_string(), run.secs);
                    let verdict = match &reference {
                        None => {
                            reference = Some(run);
                            "reference"
                        }
                        Some(r) => {
                            assert_eq!(r.trace, run.trace, "{scenario}/{name}: identical traces");
                            "identical"
                        }
                    };
                    (row.0, row.1, row.2, verdict.to_string(), row.3)
                }
            };
            match expected {
                None => expected = Some((cycles, ret)),
                Some((ec, er)) => {
                    assert_eq!(ec, cycles, "{scenario}/{name}: cycle count must agree");
                    assert_eq!(er, ret, "{scenario}/{name}: return value must agree");
                }
            }
            let speedup = base_secs / secs;
            let kcps = cycles as f64 / secs / 1e3;
            soc.row(cells![scenario, name, cycles, ret, settle_ops, trace]);
            wall.row(cells![
                format!("soc-{scenario}"),
                name,
                format!("{:.1}", secs * 1e3),
                format!("{kcps:.0}"),
                format!("{speedup:.2}"),
            ]);
            timing_lines.push_str(&format!(
                "[e16c {scenario} {name} completed in {:.1} ms — {kcps:.0} kcycles/s, {speedup:.2}x vs hashmap]\n",
                secs * 1e3,
            ));
            if !all && *name == "packed-event" {
                gate_speedup = speedup;
            }
        }
    }
    // The headline perf gate. Wall-clock, so release builds only — debug
    // runs the same workload for equivalence without timing claims.
    if !cfg!(debug_assertions) {
        assert!(
            gate_speedup >= 10.0,
            "one-active packed-event must be >= 10x the hashmap baseline, got {gate_speedup:.2}x"
        );
    }

    // E16d: force the partitioned path (grain 1) and sweep worker counts;
    // the fabric state, trace, and counters must checksum identically.
    let mut detm = Table::new(&[
        "jobs", "cycles", "settle_ops", "parallel_ops", "parallel_passes", "state_fnv", "verdict",
    ]);
    let pokes = soc_pokes(SOC_COPIES, true);
    let detm_cycles = 150u64;
    let mut reference: Option<(u64, EngineRun)> = None;
    for sweep_jobs in [1usize, 2, 4] {
        let mut sim = Simulator::new_with_packing(&soc_nl, true).expect("valid netlist");
        sim.set_event_driven(true);
        sim.set_settle_jobs(sweep_jobs);
        sim.set_partition_grain(1);
        sim.enable_trace(&[soc_done, soc_ret]);
        for (name, value) in &pokes {
            sim.poke(name, *value).expect("argument net exists");
        }
        for _ in 0..detm_cycles {
            sim.step().expect("step");
        }
        let mut hash = Fnv1a::new();
        for (id, _) in soc_nl.nets() {
            hash.u64(sim.peek_net(id));
        }
        let run = EngineRun {
            cycles: detm_cycles,
            ret: sim.peek_net(soc_ret),
            settle_ops: sim.settle_ops(),
            parallel_ops: sim.settle_parallel_ops(),
            parallel_passes: sim.settle_parallel_passes(),
            trace: sim.take_trace().expect("trace enabled").render(&soc_nl),
            secs: 0.0,
        };
        for byte in run.trace.as_bytes() {
            hash.u64(u64::from(*byte));
        }
        hash.u64(run.settle_ops);
        hash.u64(run.parallel_ops);
        let hash = hash.finish();
        assert!(run.parallel_passes > 0, "grain 1 must engage the partitioned path");
        let verdict = match &reference {
            None => "reference",
            Some((ref_hash, ref_run)) => {
                assert_eq!(*ref_hash, hash, "jobs {sweep_jobs}: state checksum must match");
                assert_eq!(ref_run.trace, run.trace, "jobs {sweep_jobs}: identical traces");
                assert_eq!(ref_run.settle_ops, run.settle_ops, "jobs {sweep_jobs}: same op count");
                assert_eq!(
                    ref_run.parallel_ops, run.parallel_ops,
                    "jobs {sweep_jobs}: same partitioned op count"
                );
                "identical"
            }
        };
        detm.row(cells![
            sweep_jobs,
            detm_cycles,
            run.settle_ops,
            run.parallel_ops,
            run.parallel_passes,
            format!("{hash:016x}"),
            verdict,
        ]);
        if reference.is_none() {
            reference = Some((hash, run));
        }
    }

    // Export the packed/partition counters so trace consumers see lane
    // occupancy and partition structure alongside the E13 activity factor.
    {
        let mut sim = Simulator::new_with_packing(&soc_nl, true).expect("valid netlist");
        sim.set_settle_jobs(jobs);
        sim.poke("u0_arg_n", 64).expect("u0_arg_n exists");
        while sim.peek_net(soc_done) != 1 {
            sim.step().expect("step");
        }
        sim.obs_export(obs, "rtl-par");
    }

    let text = format!(
        "E16a: compiled settle-program structure (word-packing + partition plan)\n{}\n\
         E16b: E11 sim workload acc({E11_ARG}) x{E11_REPS} — four engines, equivalence asserted\n{}\n\
         E16c: SoC fabric acc x{SOC_COPIES} (arg {SOC_ARG}) — dense engines vs hashmap baseline\n{}\n\
         E16d: partitioned settle determinism at grain 1 (state+trace+counter FNV)\n{}\n{}",
        structure.render(),
        workload.render(),
        soc.render(),
        detm.render(),
        timing_lines,
    );
    ExperimentOutput::new(text)
        .with("e16a", "settle program structure", structure)
        .with("e16b", "acc workload engines", workload)
        .with("e16c", "tiled SoC engines", soc)
        .with("e16d", "partitioned determinism sweep", detm)
        .with("e16_wall", "engine wall-clock (non-deterministic)", wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiled_fabric_packs_and_partitions() {
        let design = HlsFlow::new().unroll_limit(0).compile(ACC_SRC).expect("acc");
        let nl = design.netlist().tiled(8);
        let sim = Simulator::new_with_packing(&nl, true).expect("sim");
        assert!(sim.packed_lanes() >= 8, "8 tiles share identical 1-bit forms");
        assert!(sim.settle_words() < sim.settle_program_len());
    }

    #[test]
    fn engines_agree_on_small_fabric() {
        let design = HlsFlow::new().unroll_limit(0).compile(ACC_SRC).expect("acc");
        let nl = design.netlist().tiled(4);
        let done = nl.net_by_name("u0_done").expect("done");
        let ret = nl.net_by_name("u0_ret_q").expect("ret");
        let pokes = vec![("u0_arg_n".to_string(), 40u64), ("u2_arg_n".to_string(), 17u64)];
        let full = run_dense(
            &nl,
            &pokes,
            done,
            ret,
            &EngineCfg { packed: false, event: false, jobs: 1, grain: None },
            1,
        );
        let packed = run_dense(
            &nl,
            &pokes,
            done,
            ret,
            &EngineCfg { packed: true, event: true, jobs: 4, grain: Some(1) },
            1,
        );
        let (h_cycles, h_ret, _) = run_hashmap(&nl, &pokes, done, ret, 1);
        assert_eq!(full.cycles, packed.cycles);
        assert_eq!(full.cycles, h_cycles);
        assert_eq!(full.ret, packed.ret);
        assert_eq!(full.ret, h_ret);
        assert_eq!(full.trace, packed.trace);
        assert!(packed.parallel_passes > 0, "grain 1 engages partitioning");
    }
}
