//! E1 — HLS flow metrics (Fig. 2 of the paper).
//!
//! For every suite kernel: front-end CDFG size, optimizer activity,
//! schedule length, binding results, FSM size, and cycle count on the
//! standard stimulus — the per-stage artifacts of the Bambu pipeline.

use crate::kernels::suite;
use crate::table::Table;
use crate::{cells, ExperimentOutput};
use hermes_hls::HlsFlow;

/// Run E1 on `jobs` workers, tracing into `obs`: each kernel compiles
/// against its own [`hermes_obs::Recorder::child`], and the children
/// merge back in suite order, so the table and the trace are identical
/// at every worker count.
pub fn run(jobs: usize, obs: &hermes_obs::Recorder) -> ExperimentOutput {
    let flow = HlsFlow::new().unroll_limit(0);
    let mut t = Table::new(&[
        "kernel", "blocks", "nodes", "edges", "chain", "folded", "cse", "states",
        "fus", "regs", "fsm_bits", "cycles",
    ]);
    let rows = hermes_par::par_map_jobs(jobs, &suite(), |k| {
        let child = obs.child();
        let d = k.compile(&flow, &child);
        let r = k.simulate(&d);
        let row = cells![
            k.name,
            d.cdfg_stats.blocks,
            d.cdfg_stats.nodes,
            d.cdfg_stats.data_edges,
            d.cdfg_stats.critical_chain,
            d.opt_stats.folded,
            d.opt_stats.cse_hits,
            d.sched.total_states(),
            d.binding.fus.len(),
            d.binding.reg_count(),
            d.fsm.state_bits(),
            r.cycles,
        ];
        (row, child)
    })
    .expect("suite kernels are known-good");
    for (row, child) in rows {
        obs.absorb(&child);
        t.row(row);
    }
    let text = format!(
        "E1: HLS flow metrics (clock 10 ns, default allocation)\n{}",
        t.render()
    );
    ExperimentOutput::new(text).with("e1", "HLS flow metrics", t)
}

#[cfg(test)]
mod tests {
    #[test]
    fn e1_produces_all_kernels() {
        let out = super::run(hermes_par::jobs(), &hermes_obs::Recorder::disabled()).text;
        for k in [
            "sobel", "conv3", "histogram", "fir", "correlate", "dft", "centroid", "mlp",
        ] {
            assert!(out.contains(k), "missing {k} in:\n{out}");
        }
    }
}
