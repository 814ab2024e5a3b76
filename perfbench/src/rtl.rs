//! `rtl-small`, `rtl-sparse` and `rtl-dense`: the HLS `acc` netlist
//! simulated alone (`small`), and tiled 256 times with one tile active
//! (`sparse`) and with every tile active (`dense`). Each activity level is
//! a workload of its own, so a loss at any one level shows in that
//! workload's `op_ref_ms_*`. Every run goes to `done` through `Simulator::new`
//! / `step` at default settings.

use crate::harness::{self, ms, Config, Outcome, SetupTimer};
use hermes_hls::HlsFlow;
use hermes_rtl::netlist::{NetId, Netlist};
use hermes_rtl::sim::Simulator;
use std::time::{Duration, Instant};

/// The accumulator kernel every level runs.
const ACC_SRC: &str =
    "int acc(int n) { int s = 0; for (int i = 0; i < n; i += 1) { s += i * i; } return s; }";
/// Tiles in the fabric.
const TILES: usize = 256;
/// `n` of every run; all three levels simulate the same cycle count.
const ARG_N: u64 = 48;
/// Cycle guard per run.
const MAX_CYCLES: u64 = 100_000;

/// Activity level of an RTL workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// The `acc` netlist alone.
    Small,
    /// The tiled fabric with one seeded tile active.
    Sparse,
    /// The tiled fabric with every tile active.
    Dense,
}

impl Level {
    fn name(self) -> &'static str {
        match self {
            Level::Small => "small",
            Level::Sparse => "sparse",
            Level::Dense => "dense",
        }
    }

    /// Runs per operation, sized so an operation takes about 20 ms at
    /// every level.
    fn runs(self) -> usize {
        match self {
            Level::Small => 240,
            Level::Sparse => 6,
            Level::Dense => 1,
        }
    }

    /// The level's named end-to-end metric.
    fn kcycles_metric(self) -> &'static str {
        match self {
            Level::Small => "rtl_small_kcycles_per_s",
            Level::Sparse => "rtl_sparse_kcycles_per_s",
            Level::Dense => "rtl_dense_kcycles_per_s",
        }
    }

    /// The level's per-layer metrics, in the order [`run`] fills them.
    fn layer_keys(self) -> [&'static str; 7] {
        match self {
            Level::Small => [
                "rtl.small.kcycles_per_s",
                "rtl.small.settle_ops",
                "rtl.small.ops_per_cycle",
                "rtl.small.ns_per_settle_op",
                "rtl.small.parallel_passes",
                "rtl.small.packed_lanes",
                "rtl.small.lane_occupancy_permille",
            ],
            Level::Sparse => [
                "rtl.sparse.kcycles_per_s",
                "rtl.sparse.settle_ops",
                "rtl.sparse.ops_per_cycle",
                "rtl.sparse.ns_per_settle_op",
                "rtl.sparse.parallel_passes",
                "rtl.sparse.packed_lanes",
                "rtl.sparse.lane_occupancy_permille",
            ],
            Level::Dense => [
                "rtl.dense.kcycles_per_s",
                "rtl.dense.settle_ops",
                "rtl.dense.ops_per_cycle",
                "rtl.dense.ns_per_settle_op",
                "rtl.dense.parallel_passes",
                "rtl.dense.packed_lanes",
                "rtl.dense.lane_occupancy_permille",
            ],
        }
    }
}

/// The netlists: `acc` alone and, for the tiled levels, the fabric.
struct Nets {
    flow: HlsFlow,
    acc: Netlist,
    fabric: Option<Netlist>,
    compile_ms: f64,
    characterize_ms: f64,
}

/// A built simulator plus the nets it watches.
struct Bench<'n> {
    level: Level,
    sim: Simulator<'n>,
    done: NetId,
    rets: Vec<NetId>,
}

/// Counters accumulated over the operations of one mode.
#[derive(Debug, Default, Clone)]
struct LevelStats {
    cycles: u64,
    settle_ops: u64,
    time: Duration,
    /// `(settle ops, parallel passes)` of one run — identical for every
    /// run of the level.
    per_run: Option<(u64, u64)>,
}

fn nets(level: Level) -> Result<Nets, String> {
    let (flow, characterize) = harness::hls_flow()?;
    let t = Instant::now();
    let design = flow
        .compile(ACC_SRC)
        .map_err(|e| format!("acc compile: {e}"))?;
    let compile_ms = ms(t.elapsed());
    let acc = design.netlist().clone();
    let fabric = (level != Level::Small).then(|| acc.tiled(TILES));
    Ok(Nets {
        flow,
        acc,
        fabric,
        compile_ms,
        characterize_ms: ms(characterize),
    })
}

fn net(nl: &Netlist, name: &str) -> Result<NetId, String> {
    nl.net_by_name(name)
        .ok_or(format!("{}: no net `{name}`", nl.name()))
}

/// Build the simulator of `level` and drive its arguments; the sparse
/// level's active tile is drawn from the seed.
fn bench(n: &Nets, level: Level, seed: u64) -> Result<Bench<'_>, String> {
    let build = |nl| Simulator::new(nl).map_err(|e| format!("simulator build: {e}"));
    let poke = |sim: &mut Simulator<'_>, name: &str| {
        sim.poke(name, ARG_N)
            .map_err(|e| format!("poke {name}: {e}"))
    };
    let fabric = || n.fabric.as_ref().ok_or("no tiled fabric built");
    Ok(match level {
        Level::Small => {
            let mut sim = build(&n.acc)?;
            poke(&mut sim, "arg_n")?;
            Bench {
                level,
                sim,
                done: net(&n.acc, "done")?,
                rets: vec![net(&n.acc, "ret_q")?],
            }
        }
        Level::Sparse => {
            let f = fabric()?;
            let active = (seed % TILES as u64) as usize;
            let mut sim = build(f)?;
            poke(&mut sim, &format!("u{active}_arg_n"))?;
            Bench {
                level,
                sim,
                done: net(f, &format!("u{active}_done"))?,
                rets: vec![net(f, &format!("u{active}_ret_q"))?],
            }
        }
        Level::Dense => {
            let f = fabric()?;
            let mut sim = build(f)?;
            for k in 0..TILES {
                poke(&mut sim, &format!("u{k}_arg_n"))?;
            }
            let rets: Result<Vec<NetId>, String> =
                (0..TILES).map(|k| net(f, &format!("u{k}_ret_q"))).collect();
            Bench {
                level,
                sim,
                done: net(f, "u0_done")?,
                rets: rets?,
            }
        }
    })
}

/// Reset and run to `done`; returns the cycle count and checks every
/// watched return value against Σ i² for i < n.
fn run_to_done(b: &mut Bench<'_>) -> Result<u64, String> {
    b.sim.reset();
    let mut cycles = 0u64;
    while b.sim.peek_net(b.done) != 1 {
        b.sim
            .step()
            .map_err(|e| format!("{}: step: {e}", b.level.name()))?;
        cycles += 1;
        if cycles > MAX_CYCLES {
            return Err(format!(
                "{}: no `done` within {MAX_CYCLES} cycles",
                b.level.name()
            ));
        }
    }
    let want = (0..ARG_N).map(|i| i * i).sum::<u64>();
    for &r in &b.rets {
        let got = b.sim.peek_net(r);
        if got != want {
            return Err(format!(
                "{}: returned {got}, expected {want}",
                b.level.name()
            ));
        }
    }
    Ok(cycles)
}

/// Run the workload of one activity level.
pub fn run(level: Level, cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut build_ms = Vec::new();
    // a set-up repetition builds the netlists and the level's simulator;
    // the simulator the run uses is built once more, untimed, because it
    // borrows the netlists
    let mut build = || {
        let n = nets(level)?;
        let t = Instant::now();
        bench(&n, level, cfg.seed)?;
        build_ms.push(ms(t.elapsed()));
        Ok(n)
    };
    let (mut timer, nets) = SetupTimer::first(&mut build)?;
    out.check(harness::check_default_flow(&nets.flow, &[("acc", ACC_SRC)]));
    let mut b = bench(&nets, level, cfg.seed)?;

    // warm-up: the `acc` netlist alone fixes the cycle count every level
    // must reproduce, then one run of this level
    let want_cycles = run_to_done(&mut bench(&nets, Level::Small, cfg.seed)?)?;
    let same_cycles = |r: Result<u64, String>| {
        r.and_then(|c| {
            if c == want_cycles {
                Ok(())
            } else {
                Err(format!(
                    "{}: {c} cycles, the acc netlist alone takes {want_cycles}",
                    level.name()
                ))
            }
        })
    };
    out.check(same_cycles(run_to_done(&mut b)));

    // counters of the untraced [0] and traced [1] operations
    let mut stats = [LevelStats::default(), LevelStats::default()];
    let reps = level.runs();
    let start = Instant::now();
    while cfg.measuring(start.elapsed(), out.op_ms.len()) {
        timer.maybe(&mut build)?;
        for &on in cfg.modes() {
            let st = &mut stats[usize::from(on)];
            let at = start.elapsed();
            let (ops0, par0) = (b.sim.settle_ops(), b.sim.settle_parallel_passes());
            let t = Instant::now();
            for _ in 0..reps {
                let r = same_cycles(run_to_done(&mut b));
                let ok = r.is_ok();
                out.check(r);
                if !ok {
                    break;
                }
            }
            let took = t.elapsed();
            let (ops, par) = (
                b.sim.settle_ops() - ops0,
                b.sim.settle_parallel_passes() - par0,
            );
            st.time += took;
            st.cycles += want_cycles * reps as u64;
            st.settle_ops += ops;
            st.per_run
                .get_or_insert((ops / reps as u64, par / reps as u64));
            if on {
                out.traced_op_ms.push(at, cfg.budget(), ms(took));
            } else {
                out.op_ms.push(at, cfg.budget(), ms(took));
            }
        }
    }
    let [untraced, traced] = stats;
    (out.setup_s, out.setup_probe_ms) = timer.finish();

    let (ops, par) = untraced.per_run.unwrap_or_default();
    let (lanes, occupancy) = (b.sim.packed_lanes(), b.sim.lane_occupancy_permille());
    let sparse_tile = if level == Level::Sparse {
        format!(", active tile u{}", cfg.seed % TILES as u64)
    } else {
        String::new()
    };
    out.report = format!(
        "rtl: acc(n={ARG_N}) = {want_cycles} cycles per run; level {}{sparse_tile}\n\
         runs/op  kcycles/s  settle_ops/run  parallel_passes/run  packed_lanes  occupancy_pm\n\
         {:>7} {:>10.1} {:>15} {:>20} {:>13} {:>13}\n",
        level.name(),
        reps,
        kcps(&untraced),
        ops,
        par,
        lanes,
        occupancy
    );
    out.fingerprint = format!(
        "{} cycles {want_cycles} settle_ops {ops} parallel_passes {par} packed_lanes {lanes} occupancy {occupancy}\n",
        level.name()
    );
    out.named = vec![(level.kcycles_metric(), kcps(&untraced), "kcycles/s")];

    if cfg.trace {
        let (ops, par) = traced.per_run.unwrap_or_default();
        let vals = [
            kcps(&traced),
            ops as f64,
            ops as f64 / want_cycles.max(1) as f64,
            traced.time.as_secs_f64() * 1e9 / traced.settle_ops.max(1) as f64,
            par as f64,
            lanes as f64,
            occupancy as f64,
        ];
        for (k, v) in level.layer_keys().into_iter().zip(vals) {
            out.layer(k, v);
        }
        out.layer("rtl.build_ms", harness::median(&build_ms));
        out.layer("hls.compile_ms", nets.compile_ms);
        out.layer("eucalyptus.characterize_ms", nets.characterize_ms);
    }
    Ok(out)
}

/// Simulated kcycles per host second over the recorded runs.
fn kcps(st: &LevelStats) -> f64 {
    let secs = st.time.as_secs_f64();
    if secs > 0.0 {
        st.cycles as f64 / secs / 1e3
    } else {
        0.0
    }
}
