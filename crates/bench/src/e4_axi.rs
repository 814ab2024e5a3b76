//! E4 — AXI4 interface and memory-delay sensitivity (Section II).
//!
//! (a) Bus-accurate co-simulation of a streaming kernel against slave
//! memories of increasing latency — the "memory delay estimates … to
//! assess the performance of the application considering also data
//! transfers"; (b) aligned vs unaligned transfer cost; (c) burst-length
//! bandwidth sweep.

use crate::cells;
use crate::table::Table;
use crate::ExperimentOutput;
use hermes_axi::cache::{AxiCache, CacheConfig};
use hermes_axi::memory::MemoryTiming;
use hermes_axi::testbench::AxiTestbench;
use hermes_hls::ir::ArrayId;
use hermes_hls::simulate::ExternalMemory;
use hermes_hls::HlsFlow;
use std::collections::HashMap;

const SUM_SOURCE: &str = r#"
int sum(int *data, int n) {
    int s = 0;
    for (int i = 0; i < n; i += 1) { s += data[i]; }
    return s;
}
"#;

/// Run E4 with a flight recorder: every co-simulation promotes its
/// [`hermes_axi::testbench::BusStats`] into obs counters and the
/// read-latency histogram under the `axi` subsystem. E4 runs serially,
/// so `jobs` is unused.
pub fn run(_jobs: usize, obs: &hermes_obs::Recorder) -> ExperimentOutput {
    // compile with an optimistic static memory estimate so the
    // bus-accurate co-simulation (not the static schedule) sets the pace
    let design = HlsFlow::new()
        .unroll_limit(0)
        .ext_mem_latency(2, 1)
        .compile(SUM_SOURCE)
        .expect("sum compiles");
    let n = 64usize;

    let mut a = Table::new(&["memory", "read_lat", "cycles", "cycles/elem", "bus_util"]);
    for (name, timing) in [
        ("ideal", MemoryTiming::ideal()),
        ("default-ddr", MemoryTiming::default()),
        ("slow-radtol", MemoryTiming::slow()),
    ] {
        let mut tb = AxiTestbench::new(4096, timing);
        for i in 0..n {
            tb.memory_mut()
                .poke(i as u64 * 4, &(1i32).to_le_bytes());
        }
        let mut base = HashMap::new();
        base.insert(ArrayId(0), 0u64);
        let mut ext = ExternalMemory::Axi {
            bus: &mut tb,
            base_addr: base,
        };
        let r = design
            .simulate_with_memory(&[n as i64], &mut ext)
            .expect("co-simulation");
        assert_eq!(r.return_value, Some(n as i64));
        let stats = tb.stats();
        stats.obs_export(obs, "axi");
        a.row(cells![
            name,
            timing.read_latency,
            r.cycles,
            format!("{:.1}", r.cycles as f64 / n as f64),
            format!("{:.3} B/cy", stats.bytes_per_cycle()),
        ]);
        assert!(tb.violations().is_empty(), "protocol must stay clean");
    }

    // aligned vs unaligned raw transfers
    let mut b = Table::new(&["transfer", "bytes", "cycles", "bursts"]);
    for (name, addr) in [("aligned", 0x1000u64), ("unaligned+3", 0x1003u64)] {
        let mut tb = AxiTestbench::new(16 * 1024, MemoryTiming::default());
        let (_, cycles) = tb.read_blocking(addr, 512).expect("read");
        let s = tb.stats();
        s.obs_export(obs, "axi");
        b.row(cells![name, 512, cycles, s.read_bursts]);
    }

    // burst length sweep: bandwidth of reading 4 KiB in chunks
    let mut c = Table::new(&["chunk_bytes", "cycles", "bandwidth_B/cy"]);
    for chunk in [8usize, 32, 128, 512, 2048] {
        let mut tb = AxiTestbench::new(16 * 1024, MemoryTiming::default());
        let total = 4096usize;
        let mut cycles = 0u64;
        for off in (0..total).step_by(chunk) {
            let (_, cy) = tb.read_blocking(off as u64, chunk).expect("read");
            cycles += cy;
        }
        c.row(cells![
            chunk,
            cycles,
            format!("{:.3}", total as f64 / cycles as f64),
        ]);
    }

    // E4d: the planned cache/prefetch extension — sum(256) with the
    // accelerator-side cache at several geometries
    let mut d = Table::new(&["cache", "capacity_B", "cycles", "hit_rate", "prefetch_hits"]);
    let n2 = 256usize;
    {
        // cache-less baseline
        let mut tb = AxiTestbench::new(16 * 1024, MemoryTiming::default());
        for i in 0..n2 {
            tb.memory_mut().poke(i as u64 * 4, &(1i32).to_le_bytes());
        }
        let mut base = HashMap::new();
        base.insert(ArrayId(0), 0u64);
        let mut ext = ExternalMemory::Axi {
            bus: &mut tb,
            base_addr: base,
        };
        let r = design
            .simulate_with_memory(&[n2 as i64], &mut ext)
            .expect("baseline");
        d.row(cells!["none", 0, r.cycles, "-", "-"]);
    }
    for (name, cfg) in [
        (
            "small direct",
            CacheConfig {
                line_bytes: 32,
                sets: 8,
                ways: 1,
                prefetch_next_line: false,
            },
        ),
        (
            "2-way+prefetch",
            CacheConfig {
                line_bytes: 64,
                sets: 16,
                ways: 2,
                prefetch_next_line: true,
            },
        ),
        (
            "4-way+prefetch",
            CacheConfig {
                line_bytes: 64,
                sets: 32,
                ways: 4,
                prefetch_next_line: true,
            },
        ),
    ] {
        let mut tb = AxiTestbench::new(16 * 1024, MemoryTiming::default());
        for i in 0..n2 {
            tb.memory_mut().poke(i as u64 * 4, &(1i32).to_le_bytes());
        }
        let mut cache = AxiCache::new(cfg);
        let mut base = HashMap::new();
        base.insert(ArrayId(0), 0u64);
        let mut ext = ExternalMemory::CachedAxi {
            cache: &mut cache,
            bus: &mut tb,
            base_addr: base,
        };
        let r = design
            .simulate_with_memory(&[n2 as i64], &mut ext)
            .expect("cached run");
        assert_eq!(r.return_value, Some(n2 as i64));
        d.row(cells![
            name,
            cfg.capacity(),
            r.cycles,
            format!("{:.2}", cache.stats.hit_rate()),
            cache.stats.prefetch_hits,
        ]);
    }

    let text = format!(
        "E4a: sum(64) accelerator vs slave-memory latency (bus-accurate)\n{}\n\
         E4b: aligned vs unaligned 512-byte reads\n{}\n\
         E4c: burst-length sweep reading 4 KiB\n{}\n\
         E4d: accelerator-side cache (the paper's planned extension), sum(256)\n{}",
        a.render(),
        b.render(),
        c.render(),
        d.render()
    );
    ExperimentOutput::new(text)
        .with("e4a", "latency sensitivity", a)
        .with("e4b", "aligned vs unaligned reads", b)
        .with("e4c", "burst-length sweep", c)
        .with("e4d", "accelerator-side cache", d)
}

#[cfg(test)]
mod tests {
    #[test]
    fn e4_latency_ordering_holds() {
        let out = super::run(hermes_par::jobs(), &hermes_obs::Recorder::disabled()).text;
        assert!(out.contains("ideal"));
        assert!(out.contains("slow-radtol"));
        // bandwidth rises with chunk size: last row must beat the first
        let lines: Vec<&str> = out
            .lines()
            .skip_while(|l| !l.contains("chunk_bytes"))
            .skip(2)
            .take(5)
            .collect();
        let bw = |line: &str| -> f64 {
            line.split_whitespace().last().unwrap().parse().unwrap()
        };
        assert!(bw(lines[4]) > bw(lines[0]), "bigger bursts more efficient");
    }
}
