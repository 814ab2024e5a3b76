//! E7 — Use-case evaluation (Section V): HLS accelerators vs the software
//! baseline on the processor subsystem.
//!
//! The hardware number is the accelerator's cycle count from cycle-accurate
//! co-simulation. The software baseline is a single-issue in-order CPU
//! model over the same executed operations (MUL=3, DIV=20, MEM=6 cycles,
//! R52-class figures), cross-validated below against an actual
//! hand-written assembly kernel running on the `hermes-cpu` cluster.
//! A data-size scaling sweep shows the accelerator gap growing with frame
//! size — the on-board-processing motivation of the paper's introduction.

use crate::cells;
use crate::kernels::suite;
use crate::table::Table;
use crate::ExperimentOutput;
use hermes_cpu::cluster::Cluster;
use hermes_cpu::isa::assemble;
use hermes_cpu::memmap::layout;
use hermes_hls::ir::ArrayId;
use hermes_hls::simulate::ExternalMemory;
use hermes_hls::HlsFlow;

const CPU_MUL: u64 = 3;
const CPU_DIV: u64 = 20;
const CPU_MEM: u64 = 6;

/// Validate the CPU cost model against real ISA execution of an
/// accumulation loop; returns (model_cycles, measured_cycles).
fn validate_cost_model() -> (u64, u64) {
    let n = 64u32;
    // HLS-side census of the same loop
    let design = HlsFlow::new()
        .unroll_limit(0)
        .compile("int acc(int n) { int s = 0; for (int i = 0; i < n; i += 1) { s += i; } return s; }")
        .expect("compiles");
    let r = design.simulate(&[i64::from(n)]).expect("simulates");
    let model = r.op_census.cpu_cycles(CPU_MUL, CPU_DIV, CPU_MEM);
    // the same loop in assembly on the cluster
    let prog = assemble(&format!(
        r#"
        addi r1, r0, {n}
        addi r2, r0, 0
        addi r3, r0, 0
    loop:
        bge  r3, r1, done
        add  r2, r2, r3
        addi r3, r3, 1
        jal  r0, loop
    done:
        halt
        "#
    ))
    .expect("asm");
    let mut cluster = Cluster::new();
    cluster
        .load_program(0, layout::SRAM_BASE, &prog)
        .expect("load");
    cluster.start_core(0, layout::SRAM_BASE);
    cluster.run(1_000_000).expect("run");
    assert_eq!(cluster.core(0).reg(2), n * (n - 1) / 2);
    (model, cluster.core(0).cycles)
}

/// Run E7 on `jobs` workers (per-kernel flows in parallel), tracing into
/// `obs` (a child recorder per kernel, absorbed in suite order).
pub fn run(jobs: usize, obs: &hermes_obs::Recorder) -> ExperimentOutput {
    let (model, measured) = validate_cost_model();
    let mut v = Table::new(&["baseline validation", "cycles"]);
    v.row(cells!["cost model (acc loop, n=64)", model]);
    v.row(cells!["ISA execution (same loop)", measured]);
    v.row(cells![
        "model / measured",
        format!("{:.2}", model as f64 / measured as f64)
    ]);

    // accelerators stream their arrays over AXI bursts: near-memory
    // latency (prefetched), while the CPU model pays blended-cache cost
    let flow = HlsFlow::new().unroll_limit(0).ext_mem_latency(2, 1);
    let mut t = Table::new(&["kernel", "hw_cycles", "sw_cycles", "speedup", "ops"]);
    let rows = hermes_par::par_map_jobs(jobs, &suite(), |k| {
        let child = obs.child();
        let d = k.compile(&flow, &child);
        let r = k.simulate(&d);
        let sw = r.op_census.cpu_cycles(CPU_MUL, CPU_DIV, CPU_MEM);
        let row = cells![
            k.name,
            r.cycles,
            sw,
            format!("{:.2}x", sw as f64 / r.cycles as f64),
            r.op_census.total(),
        ];
        (row, child)
    })
    .expect("suite kernels are known-good");
    for (row, child) in rows {
        obs.absorb(&child);
        t.row(row);
    }

    // scaling sweep: histogram over growing frames
    let mut s = Table::new(&["pixels", "hw_cycles", "sw_cycles", "speedup"]);
    let design = flow
        .compile(hermes_apps::image::HISTOGRAM_SOURCE)
        .expect("compiles");

    for n in [64usize, 256, 1024, 4096] {
        let img = hermes_apps::image::star_field(n / 8, 8, 4, 1);
        let mut ext = ExternalMemory::buffers(vec![
            (ArrayId(0), img),
            (ArrayId(1), vec![0; 256]),
        ]);
        let r = design
            .simulate_with_memory(&[n as i64], &mut ext)
            .expect("simulates");
        let sw = r.op_census.cpu_cycles(CPU_MUL, CPU_DIV, CPU_MEM);
        s.row(cells![
            n,
            r.cycles,
            sw,
            format!("{:.2}x", sw as f64 / r.cycles as f64)
        ]);
    }

    let text = format!(
        "E7: software-baseline cost-model validation\n{}\n\
         E7a: HLS accelerator vs software baseline (standard stimuli)\n{}\n\
         E7b: histogram scaling with frame size\n{}",
        v.render(),
        t.render(),
        s.render()
    );
    ExperimentOutput::new(text)
        .with("e7", "cost-model validation", v)
        .with("e7a", "accelerator vs software baseline", t)
        .with("e7b", "histogram scaling", s)
}

#[cfg(test)]
mod tests {
    #[test]
    fn e7_model_within_2x_of_isa() {
        let (model, measured) = super::validate_cost_model();
        let ratio = model as f64 / measured as f64;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "cost model should track the ISA within 2x: {ratio:.2}"
        );
    }

    #[test]
    fn e7_accelerators_win() {
        let out = super::run(hermes_par::jobs(), &hermes_obs::Recorder::disabled()).text;
        // every suite row reports a >= 1x speedup
        for line in out.lines().filter(|l| l.contains('x') && l.contains("  ")) {
            if let Some(sp) = line
                .split_whitespace()
                .find(|w| w.ends_with('x') && w.len() > 1)
            {
                if let Ok(v) = sp.trim_end_matches('x').parse::<f64>() {
                    assert!(v >= 0.5, "pathological slowdown in: {line}");
                }
            }
        }
        assert!(out.contains("histogram"));
    }
}
