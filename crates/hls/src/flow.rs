//! The top-level HLS flow: source text in, complete [`Design`] out.
//!
//! [`HlsFlow`] is a builder mirroring the Bambu command line: clock
//! constraint, resource allocation, loop-unroll limit, external-memory
//! latency estimates, top-function selection, and the characterization
//! library. The library is the target device as HLS sees it: retarget by
//! handing over `Eucalyptus::new(device).characterize(..)`, the paper's
//! Eucalyptus-to-Bambu hand-off. The scheduler always chains operators
//! within the clock period.

use crate::allocate::Allocation;
use crate::bind::{bind, Binding};
use crate::cdfg::{self, CdfgStats};
use crate::datapath::{self, DatapathNetlist};
use crate::emit;
use crate::estimate::{estimate, Estimate};
use crate::fsm::{self, Fsm};
use crate::interface::{build_spec, InterfaceOptions, InterfaceSpec};
use crate::ir::{lower, IrFunction};
use crate::lang::parse;
use crate::opt::{optimize, unroll_for_loops, OptStats};
use crate::schedule::{schedule, FunctionSchedule, ScheduleOptions};
use crate::simulate::{self, ExternalMemory, SimLimits, SimResult};
use crate::HlsError;
use hermes_eucalyptus::{CharacterizationLibrary, Eucalyptus, SweepConfig};
use hermes_fpga::device::DeviceProfile;
use hermes_obs::{ClockDomain, Recorder, WallMark};
use std::sync::{Arc, OnceLock};

/// The default characterization library: the NG-MEDIUM-like device swept
/// over 8/16/32/64-bit widths, combinational only.
fn library_for() -> CharacterizationLibrary {
    Eucalyptus::new(DeviceProfile::ng_medium_like())
        .characterize(&SweepConfig {
            widths: vec![8, 16, 32, 64],
            pipeline_stages: vec![0],
        })
        .expect("built-in characterization sweep cannot fail")
}

/// The HLS flow builder.
///
/// The characterization library is filled on the first compile when
/// [`HlsFlow::library`] did not set one, so every compile through one flow
/// (and every clone taken after its first compile) shares a single sweep.
#[derive(Debug, Clone)]
pub struct HlsFlow {
    clock_ns: f64,
    allocation: Allocation,
    unroll_limit: u32,
    ext_read_latency: u32,
    ext_write_latency: u32,
    top: Option<String>,
    library: OnceLock<Arc<CharacterizationLibrary>>,
}

impl Default for HlsFlow {
    fn default() -> Self {
        HlsFlow::new()
    }
}

impl HlsFlow {
    /// A flow with default options: 10 ns clock, default allocation,
    /// 64-iteration unroll limit, NG-MEDIUM-like characterization.
    pub fn new() -> Self {
        HlsFlow {
            clock_ns: 10.0,
            allocation: Allocation::default(),
            unroll_limit: 64,
            ext_read_latency: 14,
            ext_write_latency: 8,
            top: None,
            library: OnceLock::new(),
        }
    }

    /// Set the clock constraint in nanoseconds.
    pub fn clock_ns(mut self, ns: f64) -> Self {
        self.clock_ns = ns;
        self
    }

    /// Set the resource allocation.
    pub fn allocation(mut self, alloc: Allocation) -> Self {
        self.allocation = alloc;
        self
    }

    /// Set the full-unroll iteration limit (0 disables unrolling).
    pub fn unroll_limit(mut self, limit: u32) -> Self {
        self.unroll_limit = limit;
        self
    }

    /// Set the static external-memory latency estimates (cycles).
    pub fn ext_mem_latency(mut self, read: u32, write: u32) -> Self {
        self.ext_read_latency = read;
        self.ext_write_latency = write;
        self
    }

    /// Select the top function by name (default: last function).
    pub fn top(mut self, name: impl Into<String>) -> Self {
        self.top = Some(name.into());
        self
    }

    /// Use an explicit characterization library (the target device's)
    /// instead of the default NG-MEDIUM-like sweep.
    pub fn library(mut self, lib: CharacterizationLibrary) -> Self {
        self.library = OnceLock::from(Arc::new(lib));
        self
    }

    /// Run the complete flow on C-subset source text.
    ///
    /// # Errors
    ///
    /// Propagates any front-end, middle-end, or back-end failure.
    pub fn compile(&self, src: &str) -> Result<Design, HlsError> {
        self.compile_traced(src, &Recorder::disabled())
    }

    /// [`compile`](HlsFlow::compile) with per-stage flight-recorder spans:
    /// parse → unroll → lower → optimize → cdfg → schedule → bind → fsm →
    /// emit, each a `Seq`-clocked span (ts = stage index) carrying the
    /// stage's headline statistic, with wall time on the side channel.
    ///
    /// # Errors
    ///
    /// Propagates any front-end, middle-end, or back-end failure.
    pub fn compile_traced(&self, src: &str, obs: &Recorder) -> Result<Design, HlsError> {
        const SUB: &str = "hls";
        let mut stage = 0u64;
        let mut span = |name: &str, args: &[(&str, String)], mark: WallMark| {
            obs.span(SUB, name, ClockDomain::Seq, stage, 1, args, mark);
            stage += 1;
        };

        let m = obs.mark();
        let mut program = parse(src)?;
        span(
            "parse",
            &[("functions", program.functions.len().to_string())],
            m,
        );

        let m = obs.mark();
        if self.unroll_limit > 0 {
            for f in &mut program.functions {
                unroll_for_loops(&mut f.body, self.unroll_limit);
            }
        }
        span("unroll", &[("limit", self.unroll_limit.to_string())], m);

        let m = obs.mark();
        let mut ir = lower(&program, self.top.as_deref())?;
        span(
            "typeck+lower",
            &[
                ("top", ir.name.clone()),
                ("blocks", ir.blocks.len().to_string()),
            ],
            m,
        );

        let m = obs.mark();
        let opt_stats = optimize(&mut ir);
        span(
            "optimize",
            &[
                ("folded", opt_stats.folded.to_string()),
                ("dce_removed", opt_stats.dce_removed.to_string()),
                ("cse_hits", opt_stats.cse_hits.to_string()),
            ],
            m,
        );

        let m = obs.mark();
        let cdfg_stats = cdfg::stats(&ir);
        span(
            "cdfg",
            &[
                ("nodes", cdfg_stats.nodes.to_string()),
                ("critical_chain", cdfg_stats.critical_chain.to_string()),
            ],
            m,
        );

        let lib = Arc::clone(self.library.get_or_init(|| Arc::new(library_for())));
        let sched_opts = ScheduleOptions {
            clock_ns: self.clock_ns,
            chaining: true,
            chain_fraction: 0.9,
            ext_mem_read_latency: self.ext_read_latency,
            ext_mem_write_latency: self.ext_write_latency,
        };
        let m = obs.mark();
        let sched = schedule(&ir, &self.allocation, &lib, &sched_opts)?;
        span("schedule", &[("states", sched.total_states().to_string())], m);

        let m = obs.mark();
        let binding = bind(&ir, &sched);
        span(
            "bind",
            &[
                ("fus", binding.fus.len().to_string()),
                ("registers", binding.reg_count().to_string()),
            ],
            m,
        );

        let m = obs.mark();
        let fsm = fsm::build(&ir, &sched);
        span("fsm", &[("states", fsm.state_count().to_string())], m);

        let m = obs.mark();
        let dp = datapath::generate(&ir, &sched, &binding, &fsm)?;
        span(
            "emit",
            &[
                ("cells", dp.netlist.cell_count().to_string()),
                ("nets", dp.netlist.net_count().to_string()),
            ],
            m,
        );

        obs.counter_add(SUB, "compiles", 1);
        obs.counter_add(SUB, "netlist_cells", dp.netlist.cell_count() as u64);

        Ok(Design {
            ir,
            sched,
            binding,
            fsm,
            datapath: dp,
            cdfg_stats,
            opt_stats,
            lib,
            clock_ns: self.clock_ns,
        })
    }
}

/// A fully synthesized design.
#[derive(Debug, Clone)]
pub struct Design {
    /// The optimized IR.
    pub ir: IrFunction,
    /// The schedule.
    pub sched: FunctionSchedule,
    /// FU and register binding.
    pub binding: Binding,
    /// The controller.
    pub fsm: Fsm,
    /// The structural FSMD netlist.
    pub datapath: DatapathNetlist,
    /// CDFG statistics (Fig. 2 metrics).
    pub cdfg_stats: CdfgStats,
    /// Optimization statistics.
    pub opt_stats: OptStats,
    lib: Arc<CharacterizationLibrary>,
    clock_ns: f64,
}

impl Design {
    /// Design (top function) name.
    pub fn name(&self) -> &str {
        &self.ir.name
    }

    /// The clock constraint the design was synthesized for, ns.
    pub fn clock_ns(&self) -> f64 {
        self.clock_ns
    }

    /// Cycle-accurate simulation on scalar arguments (no external arrays).
    ///
    /// # Errors
    ///
    /// See [`simulate::run`].
    pub fn simulate(&self, args: &[i64]) -> Result<SimResult, HlsError> {
        let mut ext = ExternalMemory::buffers(vec![]);
        simulate::run(&self.ir, &self.sched, args, &mut ext, SimLimits::default())
    }

    /// Cycle-accurate simulation with external memory backing.
    ///
    /// # Errors
    ///
    /// See [`simulate::run`].
    pub fn simulate_with_memory(
        &self,
        args: &[i64],
        ext: &mut ExternalMemory<'_>,
    ) -> Result<SimResult, HlsError> {
        simulate::run(&self.ir, &self.sched, args, ext, SimLimits::default())
    }

    /// The structural netlist (feed this to `hermes-fpga`'s flow).
    pub fn netlist(&self) -> &hermes_rtl::netlist::Netlist {
        &self.datapath.netlist
    }

    /// Multicycle path exceptions for downstream STA: every operation the
    /// schedule gave more than one cycle maps its datapath cell name to the
    /// allowed settle-cycle count (the SDC knowledge a real Bambu→NXmap
    /// flow hands over).
    pub fn multicycle_hints(&self) -> std::collections::HashMap<String, u32> {
        let mut hints = std::collections::HashMap::new();
        for (bi, block) in self.ir.blocks.iter().enumerate() {
            for (ii, instr) in block.instrs.iter().enumerate() {
                let s = self.sched.blocks[bi].instrs[ii];
                if s.latency > 1 && matches!(instr.op, crate::ir::IrOp::Bin { .. }) {
                    hints.insert(format!("b{bi}_i{ii}"), s.latency);
                }
            }
        }
        hints
    }

    /// Emit synthesizable Verilog.
    pub fn emit_verilog(&self) -> String {
        emit::verilog(&self.datapath)
    }

    /// Emit VHDL.
    pub fn emit_vhdl(&self) -> String {
        emit::vhdl(&self.datapath)
    }

    /// Emit a self-checking Verilog testbench. Each vector is
    /// `(args, expected_return)`; cycle budgets come from co-simulation.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures while computing expected cycles.
    pub fn emit_verilog_testbench(
        &self,
        vectors: &[(Vec<i64>, Option<i64>)],
    ) -> Result<String, HlsError> {
        let mut tvs = Vec::with_capacity(vectors.len());
        for (args, expected) in vectors {
            let r = self.simulate(args)?;
            tvs.push(emit::TestVector {
                args: args.clone(),
                expected: *expected,
                expected_cycles: r.cycles,
            });
        }
        Ok(emit::verilog_testbench(&self.datapath, &tvs))
    }

    /// The AXI interface specification of the design.
    pub fn interface_spec(&self) -> InterfaceSpec {
        build_spec(&self.ir, InterfaceOptions::default())
    }

    /// Pre-implementation area/timing estimate.
    pub fn estimate(&self) -> Estimate {
        estimate(&self.ir, &self.binding, &self.fsm, &self.lib)
    }

    /// Render the per-stage HLS report (the Fig. 2 pipeline artifacts).
    pub fn report(&self) -> String {
        format!(
            "HLS report for `{name}` @ {clk} ns\n\
             \x20 frontend : {blocks} blocks, {nodes} CDFG nodes, {dedges} data edges, \
             chain depth {chain}\n\
             \x20 opt      : {folded} folded, {dce} dead removed, {cse} CSE hits, \
             {sr} strength-reduced\n\
             \x20 schedule : {states} states, peak FU usage {peaks:?}\n\
             \x20 binding  : {fus} FUs, {regs} registers ({bits} bits)\n\
             \x20 fsm      : {fsm_states} states ({fsm_bits}-bit state reg), \
             {branches} branches\n\
             \x20 netlist  : {cells} cells / {nets} nets",
            name = self.name(),
            clk = self.clock_ns,
            blocks = self.cdfg_stats.blocks,
            nodes = self.cdfg_stats.nodes,
            dedges = self.cdfg_stats.data_edges,
            chain = self.cdfg_stats.critical_chain,
            folded = self.opt_stats.folded,
            dce = self.opt_stats.dce_removed,
            cse = self.opt_stats.cse_hits,
            sr = self.opt_stats.strength_reduced,
            states = self.sched.total_states(),
            peaks = {
                let mut v: Vec<(String, u32)> = self
                    .sched
                    .peak_usage
                    .iter()
                    .map(|(k, &n)| (k.to_string(), n))
                    .collect();
                v.sort();
                v
            },
            fus = self.binding.fus.len(),
            regs = self.binding.reg_count(),
            bits = self.binding.register_bits(),
            fsm_states = self.fsm.state_count(),
            fsm_bits = self.fsm.state_bits(),
            branches = self.fsm.branch_count(),
            cells = self.netlist().cell_count(),
            nets = self.netlist().net_count(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_rtl::netlist::CellOp;
    use hermes_rtl::sim::Simulator;

    #[test]
    fn end_to_end_compile_and_simulate() {
        let d = HlsFlow::new()
            .compile("int gcd(int a, int b) { while (b != 0) { int t = b; b = a % b; a = t; } return a; }")
            .unwrap();
        assert_eq!(d.simulate(&[48, 36]).unwrap().return_value, Some(12));
        assert_eq!(d.simulate(&[17, 5]).unwrap().return_value, Some(1));
        assert!(d.report().contains("schedule"));
    }

    /// The critical integration check: the structural netlist, simulated
    /// cycle-by-cycle with the hermes-rtl simulator, must agree with the
    /// IR-level co-simulation on both value and latency.
    fn cosim(src: &str, cases: &[Vec<i64>]) {
        let d = HlsFlow::new().compile(src).unwrap();
        let nl = d.netlist();
        for args in cases {
            let expect = d.simulate(args).unwrap();
            let mut sim = Simulator::new(nl).unwrap();
            sim.reset();
            // argument order in `args` follows IR scalar-param order
            let mut ai = 0usize;
            for (pname, binding) in &d.ir.params {
                if let crate::ir::ParamBinding::Scalar(_) = binding {
                    sim.poke(&format!("arg_{pname}"), args[ai] as u64).unwrap();
                    ai += 1;
                }
            }
            let budget = expect.states_visited * 3 + 32;
            let cycles = sim
                .run_until(budget, |s| s.peek("done").unwrap() == 1)
                .unwrap()
                .unwrap_or_else(|| panic!("netlist sim never finished for {args:?}"));
            let got = sim.peek("ret_q").unwrap();
            let want = hermes_rtl::mask(
                expect.return_value.unwrap() as u64,
                d.ir.return_type.unwrap().width,
            );
            assert_eq!(
                got, want,
                "netlist vs co-sim mismatch for {args:?} in {}",
                d.name()
            );
            // latency agreement: the netlist pays one extra INIT state
            // but `done` is visible on entry to the final state, so the
            // two effects cancel
            assert_eq!(
                cycles, expect.states_visited,
                "latency mismatch for {args:?}"
            );
        }
    }

    #[test]
    fn netlist_cosim_arithmetic() {
        cosim(
            "int f(int a, int b) { return (a + b) * (a - b) + 7; }",
            &[vec![5, 3], vec![100, 1], vec![0, 0], vec![-4, 9]],
        );
    }

    #[test]
    fn netlist_cosim_branches() {
        cosim(
            "int f(int a, int b) { int m = a; if (b > a) { m = b; } return m * 2; }",
            &[vec![3, 9], vec![9, 3], vec![5, 5]],
        );
    }

    #[test]
    fn netlist_cosim_loop() {
        cosim(
            "int f(int n) { int s = 0; int i = 0; while (i < n) { s += i; i += 1; } return s; }",
            &[vec![0], vec![1], vec![10]],
        );
    }

    #[test]
    fn netlist_cosim_local_array() {
        cosim(
            "int f(int x) { int m[4] = {3, 1, 4, 1}; m[2] = x; return m[0] + m[1] + m[2] + m[3]; }",
            &[vec![0], vec![42]],
        );
    }

    /// A variable that is read but never written gets no register: a
    /// `Const 0` drives its storage net with the value a register would
    /// hold from reset, and the netlist still agrees with co-simulation.
    #[test]
    fn unwritten_register_reads_zero() {
        let src = "int f(int n) { int x; int s = 0; for (int i = 0; i < n; i++) { s += x + i; } return s; }";
        let d = HlsFlow::new().compile(src).unwrap();
        let nl = d.netlist();
        let q = nl.net_by_name("r1_x_q").expect("x's storage net");
        let drivers: Vec<(&str, &CellOp)> = nl
            .cells()
            .filter(|(_, c)| c.outputs.contains(&q))
            .map(|(_, c)| (c.name.as_str(), &c.op))
            .collect();
        assert_eq!(drivers, [("r1_x_zero", &CellOp::Const { value: 0 })]);
        cosim(src, &[vec![0], vec![1], vec![6]]);
    }

    #[test]
    fn netlist_cosim_division_and_shifts() {
        cosim(
            "int f(int a, int b) { return (a / (b + 1)) + (a << 2) + (a >> 1); }",
            &[vec![100, 3], vec![7, 0]],
        );
    }

    #[test]
    fn clock_constraint_changes_schedule() {
        let slow = HlsFlow::new()
            .clock_ns(40.0)
            .compile("int f(int a, int b) { return a * b / (b + 1); }")
            .unwrap();
        let fast = HlsFlow::new()
            .clock_ns(2.5)
            .compile("int f(int a, int b) { return a * b / (b + 1); }")
            .unwrap();
        assert!(
            fast.fsm.state_count() > slow.fsm.state_count(),
            "tight clock should add states: {} vs {}",
            fast.fsm.state_count(),
            slow.fsm.state_count()
        );
    }

    /// One flow runs one sweep: a clone taken after the first compile
    /// holds the same library, and an explicit library is held as given.
    #[test]
    fn clone_after_first_compile_shares_the_library() {
        let flow = HlsFlow::new();
        assert!(flow.library.get().is_none(), "no sweep before the first compile");
        flow.compile("int f(int a) { return a + 1; }").unwrap();
        let clone = flow.clone().clock_ns(5.0);
        let (a, b) = (flow.library.get().unwrap(), clone.library.get().unwrap());
        assert!(Arc::ptr_eq(a, b), "the clone shares the first compile's sweep");
        let given = HlsFlow::new().library(CharacterizationLibrary::default());
        assert!(given.library.get().is_some_and(|lib| lib.is_empty()));
    }

    #[test]
    fn top_selection() {
        let src = "int one() { return 1; }\nint two() { return 2; }";
        let d = HlsFlow::new().top("one").compile(src).unwrap();
        assert_eq!(d.name(), "one");
        assert_eq!(d.simulate(&[]).unwrap().return_value, Some(1));
    }

    #[test]
    fn unrolling_changes_structure() {
        let src = "int f() { int s = 0; for (int i = 0; i < 8; i++) { s += i; } return s; }";
        let unrolled = HlsFlow::new().unroll_limit(64).compile(src).unwrap();
        let rolled = HlsFlow::new().unroll_limit(0).compile(src).unwrap();
        assert!(unrolled.cdfg_stats.blocks < rolled.cdfg_stats.blocks);
        assert_eq!(unrolled.simulate(&[]).unwrap().return_value, Some(28));
        assert_eq!(rolled.simulate(&[]).unwrap().return_value, Some(28));
        assert!(
            unrolled.simulate(&[]).unwrap().cycles < rolled.simulate(&[]).unwrap().cycles
        );
    }
}

#[cfg(test)]
mod loop_control_tests {
    use super::*;

    #[test]
    fn break_exits_loop_early() {
        let d = HlsFlow::new()
            .unroll_limit(0)
            .compile(
                "int first_ge(int *data, int n, int threshold) {
                    int found = 0 - 1;
                    for (int i = 0; i < n; i += 1) {
                        if (data[i] >= threshold) { found = i; break; }
                    }
                    return found; }",
            )
            .unwrap();
        let mut ext = crate::simulate::ExternalMemory::buffers(vec![(
            crate::ir::ArrayId(0),
            vec![5, 12, 40, 7, 99],
        )]);
        let r = d.simulate_with_memory(&[5, 30], &mut ext).unwrap();
        assert_eq!(r.return_value, Some(2));
        // early exit really saves time: searching for a smaller threshold
        // that matches the first element must be faster
        let mut ext2 = crate::simulate::ExternalMemory::buffers(vec![(
            crate::ir::ArrayId(0),
            vec![5, 12, 40, 7, 99],
        )]);
        let r2 = d.simulate_with_memory(&[5, 1], &mut ext2).unwrap();
        assert_eq!(r2.return_value, Some(0));
        assert!(r2.cycles < r.cycles, "break must shorten execution");
        // not found path
        let mut ext3 = crate::simulate::ExternalMemory::buffers(vec![(
            crate::ir::ArrayId(0),
            vec![5, 12, 40, 7, 99],
        )]);
        let r3 = d.simulate_with_memory(&[5, 1000], &mut ext3).unwrap();
        assert_eq!(r3.return_value, Some(-1));
    }

    #[test]
    fn continue_skips_iterations() {
        let d = HlsFlow::new()
            .unroll_limit(0)
            .compile(
                "int sum_even(int n) {
                    int s = 0;
                    for (int i = 0; i < n; i += 1) {
                        if ((i & 1) == 1) { continue; }
                        s += i;
                    }
                    return s; }",
            )
            .unwrap();
        // continue must still run the step expression
        assert_eq!(d.simulate(&[10]).unwrap().return_value, Some(2 + 4 + 6 + 8));
        assert_eq!(d.simulate(&[0]).unwrap().return_value, Some(0));
    }

    #[test]
    fn break_in_while_and_netlist_agreement() {
        let src = "int f(int n) {
            int i = 0;
            while (1 == 1) {
                if (i * i >= n) { break; }
                i += 1;
            }
            return i; }";
        // integer square root by search, with an infinite loop + break
        let d = HlsFlow::new().compile(src).unwrap();
        for n in [0i64, 1, 17, 100, 1000] {
            let r = d.simulate(&[n]).unwrap();
            let isqrt_ceil = (0..).find(|&i| (i as i64) * (i as i64) >= n).unwrap();
            assert_eq!(r.return_value, Some(isqrt_ceil as i64), "n={n}");
            // netlist agreement
            let mut sim = hermes_rtl::sim::Simulator::new(d.netlist()).unwrap();
            sim.reset();
            sim.poke("arg_n", n as u64).unwrap();
            sim.run_until(r.states_visited * 3 + 64, |s| s.peek("done").unwrap() == 1)
                .unwrap()
                .expect("netlist finishes");
            assert_eq!(sim.peek("ret_q").unwrap(), r.return_value.unwrap() as u64);
        }
    }

    #[test]
    fn break_outside_loop_rejected() {
        let err = HlsFlow::new()
            .compile("int f(int a) { break; return a; }")
            .unwrap_err();
        assert!(matches!(err, HlsError::Type { .. }));
        let err = HlsFlow::new()
            .compile("int f(int a) { continue; return a; }")
            .unwrap_err();
        assert!(matches!(err, HlsError::Type { .. }));
    }

    #[test]
    fn loops_with_break_are_not_unrolled() {
        let d = HlsFlow::new()
            .unroll_limit(64)
            .compile(
                "int f() {
                    int s = 0;
                    for (int i = 0; i < 8; i += 1) {
                        if (i == 5) { break; }
                        s += i;
                    }
                    return s; }",
            )
            .unwrap();
        assert!(d.cdfg_stats.blocks > 2, "loop structure preserved");
        assert_eq!(d.simulate(&[]).unwrap().return_value, Some(1 + 2 + 3 + 4));
    }
}
