//! E11 — Throughput baseline: wall-clock of the heavy engines, serial vs
//! parallel at 1/2/4 workers, and the dense-state RTL simulator measured
//! against the `HashMap`-keyed implementation it replaced.
//!
//! Timings are wall-clock on the build host and vary run to run; the
//! structural facts the tables also record — bit-identical output across
//! worker counts, simulator state agreement cycle-by-cycle, multi-start
//! placement never worse than single-start — are asserted, not just
//! printed. `BENCH_hermes.json` is regenerated from this experiment.

use crate::cells;
use crate::kernels::suite;
use crate::table::Table;
use crate::ExperimentOutput;
use hermes_fpga::device::DeviceProfile;
use hermes_fpga::place::{Effort, Placer};
use hermes_fpga::synth::Synthesizer;
use hermes_hls::HlsFlow;
use hermes_rtl::netlist::{CellId, CellOp, Netlist, NetId};
use hermes_rtl::sim::Simulator;
use hermes_rtl::{mask, sign_extend};
use std::collections::HashMap;
use std::time::Instant;

/// The pre-optimization netlist simulator, kept verbatim (minus tracing)
/// as the measurement baseline: `HashMap`-keyed sequential state and a
/// full cell-table walk with per-cycle allocations in every step.
/// Public so E16 can measure the same baseline on scaled workloads.
pub struct BaselineSimulator<'n> {
    netlist: &'n Netlist,
    values: Vec<u64>,
    reg_state: HashMap<CellId, u64>,
    ram_state: HashMap<CellId, Vec<u64>>,
    order: Vec<CellId>,
}

impl<'n> BaselineSimulator<'n> {
    /// Build and settle (baseline counterpart of [`Simulator::new`]).
    pub fn new(netlist: &'n Netlist) -> Self {
        let order = netlist.combinational_order().expect("validated netlist");
        let mut reg_state = HashMap::new();
        let mut ram_state = HashMap::new();
        for (cid, cell) in netlist.cells() {
            match &cell.op {
                CellOp::Register { .. } => {
                    reg_state.insert(cid, 0);
                }
                CellOp::RamTdp { depth, init } => {
                    let mut mem = init.clone();
                    mem.resize(*depth as usize, 0);
                    ram_state.insert(cid, mem);
                }
                _ => {}
            }
        }
        let mut sim = BaselineSimulator {
            netlist,
            values: vec![0; netlist.net_count()],
            reg_state,
            ram_state,
            order,
        };
        sim.settle();
        sim
    }

    /// Drive a primary input by name and re-settle.
    pub fn poke(&mut self, name: &str, value: u64) {
        let id = self.netlist.net_by_name(name).expect("input exists");
        self.values[id.0 as usize] = mask(value, self.netlist.net(id).width);
        self.settle();
    }

    /// Read a net's settled value.
    pub fn peek_net(&self, id: NetId) -> u64 {
        self.values[id.0 as usize]
    }

    /// Advance one clock cycle.
    pub fn step(&mut self) {
        let mut next_regs: Vec<(CellId, u64)> = Vec::new();
        let mut ram_writes: Vec<(CellId, Vec<(usize, u64)>)> = Vec::new();
        let mut ram_reads: Vec<(CellId, u64, u64)> = Vec::new();
        for (cid, cell) in self.netlist.cells() {
            match &cell.op {
                CellOp::Register { has_enable, .. } => {
                    let d = self.values[cell.inputs[0].0 as usize];
                    let load = if *has_enable {
                        self.values[cell.inputs[1].0 as usize] & 1 == 1
                    } else {
                        true
                    };
                    if load {
                        let w = self.netlist.net(cell.outputs[0]).width;
                        next_regs.push((cid, mask(d, w)));
                    }
                }
                CellOp::RamTdp { depth, .. } => {
                    let depth = *depth as usize;
                    let addr_a = self.values[cell.inputs[0].0 as usize] as usize % depth.max(1);
                    let wd_a = self.values[cell.inputs[1].0 as usize];
                    let we_a = self.values[cell.inputs[2].0 as usize] & 1 == 1;
                    let addr_b = self.values[cell.inputs[3].0 as usize] as usize % depth.max(1);
                    let wd_b = self.values[cell.inputs[4].0 as usize];
                    let we_b = self.values[cell.inputs[5].0 as usize] & 1 == 1;
                    let mem = &self.ram_state[&cid];
                    ram_reads.push((cid, mem[addr_a], mem[addr_b]));
                    let mut writes = Vec::new();
                    if we_a {
                        writes.push((addr_a, wd_a));
                    }
                    if we_b {
                        writes.push((addr_b, wd_b));
                    }
                    if !writes.is_empty() {
                        ram_writes.push((cid, writes));
                    }
                }
                _ => {}
            }
        }
        for (cid, v) in next_regs {
            self.reg_state.insert(cid, v);
        }
        for (cid, writes) in ram_writes {
            let w = self.netlist.net(self.netlist.cell(cid).outputs[0]).width;
            let mem = self.ram_state.get_mut(&cid).expect("ram state exists");
            for (addr, val) in writes {
                mem[addr] = mask(val, w);
            }
        }
        for (cid, ra, rb) in ram_reads {
            let cell = self.netlist.cell(cid);
            self.values[cell.outputs[0].0 as usize] = ra;
            self.values[cell.outputs[1].0 as usize] = rb;
        }
        self.settle();
    }

    fn settle(&mut self) {
        for (cid, cell) in self.netlist.cells() {
            if let CellOp::Register { .. } = cell.op {
                self.values[cell.outputs[0].0 as usize] = self.reg_state[&cid];
            }
        }
        for &cid in &self.order {
            let cell = self.netlist.cell(cid);
            let get = |i: usize| self.values[cell.inputs[i].0 as usize];
            let out_net = cell.outputs[0];
            let ow = self.netlist.net(out_net).width;
            let iw = cell
                .inputs
                .first()
                .map(|&n| self.netlist.net(n).width)
                .unwrap_or(ow);
            let v = match &cell.op {
                CellOp::Add => get(0).wrapping_add(get(1)),
                CellOp::Sub => get(0).wrapping_sub(get(1)),
                CellOp::Mul => get(0).wrapping_mul(get(1)),
                CellOp::Div => get(0).checked_div(get(1)).unwrap_or(u64::MAX),
                CellOp::Mod => {
                    let d = get(1);
                    if d == 0 {
                        get(0)
                    } else {
                        get(0) % d
                    }
                }
                CellOp::And => get(0) & get(1),
                CellOp::Or => get(0) | get(1),
                CellOp::Xor => get(0) ^ get(1),
                CellOp::Not => !get(0),
                CellOp::Shl => get(0) << get(1).min(63),
                CellOp::ShrL => get(0) >> get(1).min(63),
                CellOp::ShrA => (sign_extend(get(0), iw) >> get(1).min(63)) as u64,
                CellOp::Cmp(c) => {
                    let w = self.netlist.net(cell.inputs[0]).width;
                    c.apply(get(0), get(1), w) as u64
                }
                CellOp::Mux => {
                    if get(0) & 1 == 1 {
                        get(2)
                    } else {
                        get(1)
                    }
                }
                CellOp::Const { value } => *value,
                CellOp::Slice { lo, hi } => {
                    let width = hi - lo + 1;
                    mask(get(0) >> lo, width)
                }
                CellOp::ZeroExtend => get(0),
                CellOp::SignExtend => {
                    let w = self.netlist.net(cell.inputs[0]).width;
                    sign_extend(get(0), w) as u64
                }
                CellOp::Register { .. } | CellOp::RamTdp { .. } => continue,
            };
            self.values[out_net.0 as usize] = mask(v, ow);
        }
    }
}

const SIM_SOURCE: &str =
    "int acc(int n) { int s = 0; for (int i = 0; i < n; i += 1) { s += i * i; } return s; }";

/// Run the accumulation netlist to `done` on both simulator generations,
/// asserting identical cycle counts and return values; returns
/// `(cycles, baseline_secs, dense_secs)`. The last dense run exports its
/// settle/cycle counters into `obs` under the `rtl` subsystem.
fn bench_rtl_sim(n: u64, reps: u32, obs: &hermes_obs::Recorder) -> (u64, f64, f64) {
    let design = HlsFlow::new()
        .unroll_limit(0)
        .compile(SIM_SOURCE)
        .expect("acc compiles");
    let nl = design.netlist();
    let done = nl.net_by_name("done").expect("done net");
    let ret = nl.net_by_name("ret_q").expect("ret net");
    let budget = 64 + n * 8;

    let mut base_cycles = 0u64;
    let mut base_ret = 0u64;
    let start = Instant::now();
    for _ in 0..reps {
        let mut sim = BaselineSimulator::new(nl);
        sim.poke("arg_n", n);
        let mut cycles = 0u64;
        while sim.peek_net(done) != 1 {
            sim.step();
            cycles += 1;
            assert!(cycles < budget, "baseline sim never finished");
        }
        base_cycles = cycles;
        base_ret = sim.peek_net(ret);
    }
    let base_secs = start.elapsed().as_secs_f64();

    let mut dense_cycles = 0u64;
    let mut dense_ret = 0u64;
    let mut last_sim = None;
    let start = Instant::now();
    for _ in 0..reps {
        let mut sim = Simulator::new(nl).expect("valid netlist");
        sim.poke("arg_n", n).expect("arg_n exists");
        let mut cycles = 0u64;
        while sim.peek_net(done) != 1 {
            sim.step().expect("step");
            cycles += 1;
            assert!(cycles < budget, "dense sim never finished");
        }
        dense_cycles = cycles;
        dense_ret = sim.peek_net(ret);
        last_sim = Some(sim);
    }
    let dense_secs = start.elapsed().as_secs_f64();
    if let Some(sim) = &last_sim {
        sim.obs_export(obs, "rtl");
    }

    assert_eq!(base_cycles, dense_cycles, "cycle counts must agree");
    assert_eq!(base_ret, dense_ret, "return values must agree");
    (dense_cycles * u64::from(reps), base_secs, dense_secs)
}

/// Run E11 with a flight recorder (RTL simulator counters under `rtl`).
/// `jobs` is the worker count E11a reports; the engine and placement
/// sweeps pin their own counts.
pub fn run(jobs: usize, obs: &hermes_obs::Recorder) -> ExperimentOutput {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut host = Table::new(&["metric", "value"]);
    host.row(cells!["host cores available", cores]);
    host.row(cells!["default worker count", jobs]);

    // dense-state simulator vs the HashMap baseline it replaced
    let (cycles, base_secs, dense_secs) = bench_rtl_sim(2_000, 6, obs);
    let mut sim = Table::new(&["simulator", "cycles", "wall_ms", "kcycles/s", "speedup"]);
    for (name, secs) in [("hashmap (pre-opt)", base_secs), ("dense-vec (current)", dense_secs)] {
        sim.row(cells![
            name,
            cycles,
            format!("{:.1}", secs * 1e3),
            format!("{:.0}", cycles as f64 / secs / 1e3),
            format!("{:.2}x", base_secs / secs),
        ]);
    }

    // parallel engines at 1/2/4 workers; output must be bit-identical
    type Engine = (&'static str, crate::Runner);
    let engines: &[Engine] = &[
        ("HLS->FPGA flow suite (E2)", crate::e2_fpga_flow::run),
        ("chaos campaigns (E10)", crate::e10_chaos::run),
    ];
    let untraced = hermes_obs::Recorder::disabled();
    let mut par = Table::new(&["engine", "jobs", "wall_ms", "speedup", "identical"]);
    for (name, runner) in engines {
        let mut serial_ms = 0.0;
        let mut serial_text = String::new();
        for jobs in [1usize, 2, 4] {
            let start = Instant::now();
            let out = runner(jobs, &untraced);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            if jobs == 1 {
                serial_ms = ms;
                serial_text = out.text.clone();
            }
            assert_eq!(out.text, serial_text, "{name} diverged at jobs={jobs}");
            par.row(cells![
                name,
                jobs,
                format!("{ms:.0}"),
                format!("{:.2}x", serial_ms / ms),
                "yes",
            ]);
        }
    }

    // multi-start placement: quality and cost vs the single anneal
    let hls = HlsFlow::new().unroll_limit(0);
    let design = suite().remove(3).compile(&hls, &untraced); // fir
    let device = DeviceProfile::ng_medium_like();
    let synth = Synthesizer::new(device.clone())
        .synthesize(design.netlist())
        .expect("fir synthesizes");
    let placer = Placer::new(device, Effort::Low, 0xC0FFEE);
    let mut place = Table::new(&["starts", "jobs", "wall_ms", "best_hpwl", "vs_single"]);
    let start = Instant::now();
    let single = placer.place(&synth.prim, 1, 1, &untraced).expect("places");
    let single_ms = start.elapsed().as_secs_f64() * 1e3;
    place.row(cells![1, 1, format!("{single_ms:.0}"), format!("{:.0}", single.hpwl), "1.000"]);
    let mut last_hpwl: Option<f64> = None;
    for jobs in [1usize, 4] {
        let start = Instant::now();
        let multi = placer.place(&synth.prim, 4, jobs, &untraced).expect("places");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert!(multi.hpwl <= single.hpwl, "best-of-4 can never be worse");
        if let Some(prev) = last_hpwl {
            assert!((multi.hpwl - prev).abs() < f64::EPSILON, "jobs must not change the result");
        }
        last_hpwl = Some(multi.hpwl);
        place.row(cells![
            4,
            jobs,
            format!("{ms:.0}"),
            format!("{:.0}", multi.hpwl),
            format!("{:.3}", multi.hpwl / single.hpwl),
        ]);
    }

    let text = format!(
        "E11a: build-host parallel capacity\n{}\n\
         E11b: RTL simulator throughput, acc(2000) x6 ({} cycles total)\n{}\n\
         E11c: parallel engines, serial vs 2 and 4 workers (bit-identical output asserted)\n{}\n\
         E11d: multi-start placement (fir), best-of-4 vs single anneal\n{}",
        host.render(),
        cycles,
        sim.render(),
        par.render(),
        place.render(),
    );
    ExperimentOutput::new(text)
        .with("e11a", "host parallel capacity", host)
        .with("e11b", "RTL simulator throughput", sim)
        .with("e11c", "parallel engine scaling", par)
        .with("e11d", "multi-start placement", place)
}

#[cfg(test)]
mod tests {
    #[test]
    fn baseline_and_dense_sims_agree() {
        // equivalence (cycles and return value) is asserted inside
        let (cycles, _, _) = super::bench_rtl_sim(64, 1, &hermes_obs::Recorder::disabled());
        assert!(cycles > 64, "loop actually ran");
    }
}
