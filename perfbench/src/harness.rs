//! Shared machinery: run configuration, span timing, the metric
//! catalogue, and small statistics helpers.

use hermes_eucalyptus::sweep::{Eucalyptus, SweepConfig};
use hermes_fpga::device::DeviceProfile;
use hermes_hls::HlsFlow;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Command-line configuration of one benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run: per-layer spans around every layer call.
    pub trace: bool,
    /// Worker count pinned for every `hermes-par` fan-out.
    pub jobs: usize,
}

impl Config {
    /// Whether spans are on, per operation of one measured round: an
    /// untraced run times only whole operations; a traced run alternates
    /// untraced and traced operations, so the gap between the two (the
    /// tracing overhead) is measured under the same host conditions.
    pub fn modes(&self) -> &'static [bool] {
        if self.trace {
            &[false, true]
        } else {
            &[false]
        }
    }

    /// The measured duration.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Whether to start another measured round, `elapsed` into the
    /// measured time with `ops` untraced operations recorded: until the
    /// budget is spent, and past it, up to three budgets, while fewer
    /// than [`MIN_OPS`] are recorded, so that a host slowed by its
    /// neighbours still leaves enough operations above the p90.
    pub fn measuring(&self, elapsed: Duration, ops: usize) -> bool {
        elapsed < self.budget() || (ops < MIN_OPS && elapsed < self.budget() * 3)
    }
}

/// Untraced operations a run records at least (see
/// [`Config::measuring`]); about a tenth of them lie above the p90, and a
/// run must leave 10 there.
pub const MIN_OPS: usize = 200;

/// Per-layer metrics every workload reports on a traced run (zero where
/// the workload leaves the layer idle): `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fpga.synth_ms", "ms"),
    ("fpga.place_ms", "ms"),
    ("fpga.route_ms", "ms"),
    ("fpga.sta_ms", "ms"),
    ("fpga.bitgen_ms", "ms"),
    ("fpga.place_moves_tried", "count"),
    ("fpga.place_accept_permille", "permille"),
    ("fpga.hpwl", "tiles"),
    ("fpga.fmax_mhz_geomean", "MHz"),
    ("hls.compile_ms", "ms"),
    ("hls.netlist_cells", "count"),
    ("hls.cosim_ms", "ms"),
    ("hls.cosim_cycles", "cycles"),
    ("eucalyptus.characterize_ms", "ms"),
    ("boot.image_ms", "ms"),
    ("boot.bl1_ms", "ms"),
    ("boot.sim_cycles", "cycles"),
    ("axi.dma_cycles", "cycles"),
    ("fleet.run_ms", "ms"),
    ("fleet.wakes", "count"),
    ("fleet.ns_per_wake", "ns"),
    ("fleet.routed_po2c", "count"),
    ("fleet.skew_x100", "x100"),
    ("fleet.balancer_shed", "count"),
    ("fleet.failover_rerouted", "count"),
    ("fleet.served_permille", "permille"),
    ("fleet.p50_ticks", "ticks"),
    ("fleet.p99_ticks", "ticks"),
    ("kernel.posted", "count"),
    ("kernel.popped", "count"),
    ("kernel.cancelled", "count"),
    ("kernel.cascades", "count"),
    ("serve.batches", "count"),
    ("serve.mean_batch_x100", "x100"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("serve.requeued", "count"),
    ("serve.compute_ns_per_item", "ns"),
    ("par.fanout_us", "us"),
    ("rtl.build_ms", "ms"),
    ("rtl.small.kcycles_per_s", "kcycles/s"),
    ("rtl.small.settle_ops", "count"),
    ("rtl.small.ops_per_cycle", "count"),
    ("rtl.small.ns_per_settle_op", "ns"),
    ("rtl.small.parallel_passes", "count"),
    ("rtl.small.packed_lanes", "count"),
    ("rtl.small.lane_occupancy_permille", "permille"),
    ("rtl.sparse.kcycles_per_s", "kcycles/s"),
    ("rtl.sparse.settle_ops", "count"),
    ("rtl.sparse.ops_per_cycle", "count"),
    ("rtl.sparse.ns_per_settle_op", "ns"),
    ("rtl.sparse.parallel_passes", "count"),
    ("rtl.sparse.packed_lanes", "count"),
    ("rtl.sparse.lane_occupancy_permille", "permille"),
    ("rtl.dense.kcycles_per_s", "kcycles/s"),
    ("rtl.dense.settle_ops", "count"),
    ("rtl.dense.ops_per_cycle", "count"),
    ("rtl.dense.ns_per_settle_op", "ns"),
    ("rtl.dense.parallel_passes", "count"),
    ("rtl.dense.packed_lanes", "count"),
    ("rtl.dense.lane_occupancy_permille", "permille"),
    ("pipeline.unattributed_ms", "ms"),
    ("pipeline.unattributed_permille", "permille"),
    ("trace.overhead_permille", "permille"),
];

/// Per-layer values keyed by catalogue name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Span timer around layer calls made from benchmark code. Disabled, it
/// only calls through, so untraced and traced runs execute the same code.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    total: BTreeMap<&'static str, Duration>,
}

impl Spans {
    /// A timer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            total: BTreeMap::new(),
        }
    }

    /// Run `f`, adding its wall time to `key` when recording.
    pub fn time<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.add(key, start.elapsed());
        out
    }

    /// Add a duration measured elsewhere (e.g. `FlowReport::stage_us`).
    pub fn add(&mut self, key: &'static str, d: Duration) {
        if self.on {
            *self.total.entry(key).or_default() += d;
        }
    }

    /// Recorded total for `key`.
    pub fn get(&self, key: &'static str) -> Duration {
        self.total.get(key).copied().unwrap_or_default()
    }

    /// Sum of the recorded totals.
    pub fn sum(&self) -> Duration {
        self.total.values().sum()
    }
}

/// The measured time is cut into this many equal slices. An operation
/// quantile is the trimmed mean over slices (the fastest and the slowest
/// slice dropped) of each slice's quantile. A shared host's speed drifts
/// by a third or more in phases of one to ten seconds; a pooled quantile
/// or a median of slices then snaps to the slow or the fast level
/// depending on which holds the majority of a run, while the mean of
/// slices moves smoothly with the share of the run spent slow.
pub const SLICES: usize = 8;

/// Host-speed probe time, in ms, of the reference host that adjusted
/// times are scaled to (about its median on a 2-vCPU Xeon VM).
pub const PROBE_REF_MS: f64 = 0.2;

/// Host-speed probe: fixed work — sort 4096 xorshift words, then fill a
/// `BTreeMap` with a quarter of them — that calls no code of the
/// repository, so no change there moves it. Its wall time tracks how fast
/// the shared host runs at the moment; returns it in ms.
pub fn probe_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut v: Vec<u64> = (0..4096)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    v.sort_unstable();
    let mut m = BTreeMap::new();
    for (i, k) in v.iter().step_by(4).enumerate() {
        m.insert(*k, i);
    }
    std::hint::black_box((m.len(), v[0]));
    ms(start.elapsed())
}

/// Scale a host time measured while the probe took `probe` ms to the
/// reference host.
pub fn adjust(value: f64, probe: f64) -> f64 {
    value * PROBE_REF_MS / probe
}

/// Probes around an operation — its own and up to two on each side —
/// whose median scales it to the reference host. Host speed holds for a
/// second or more while an operation takes milliseconds, so the window
/// sees the operation's own phase, and the median drops a probe that a
/// single preemption slowed.
pub const PROBE_WINDOW: usize = 5;

/// Host ms of operations, kept per slice of the measured time together
/// with a host-speed probe run after each operation.
#[derive(Debug, Default)]
pub struct OpTimes {
    slices: [Vec<f64>; SLICES],
    probes: [Vec<f64>; SLICES],
}

impl OpTimes {
    /// Record an operation that started `at` into a measured time of
    /// `budget`, then probe the host's speed.
    pub fn push(&mut self, at: Duration, budget: Duration, ms: f64) {
        let slice =
            ((at.as_secs_f64() / budget.as_secs_f64() * SLICES as f64) as usize).min(SLICES - 1);
        self.slices[slice].push(ms);
        self.probes[slice].push(probe_ms());
    }

    /// Quantile `q` of each non-empty slice, in time order.
    pub fn per_slice(&self, q: f64) -> Vec<f64> {
        self.slices
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| quantile(s, q))
            .collect()
    }

    /// Median probe ms of each non-empty slice, in time order.
    pub fn probe_per_slice(&self) -> Vec<f64> {
        self.probes
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| median(s))
            .collect()
    }

    /// Trimmed mean over slices of each slice's quantile `q`, as measured.
    pub fn quantile(&self, q: f64) -> f64 {
        trimmed_mean(self.per_slice(q))
    }

    /// Trimmed mean over slices of each slice's quantile `q` of the
    /// operation times, each first scaled to the reference host by the
    /// median of the [`PROBE_WINDOW`] probes around it. Scaling each
    /// operation by its own phase, rather than a slice by its median
    /// probe, keeps a slice that spans a fast and a slow phase from
    /// pairing slow operations (its upper quantiles) with fast probes.
    pub fn adjusted(&self, q: f64) -> f64 {
        let probes = self.probes.concat();
        let half = PROBE_WINDOW / 2;
        let mut scaled = self.all().into_iter().enumerate().map(|(i, v)| {
            let window = &probes[i.saturating_sub(half)..(i + half + 1).min(probes.len())];
            adjust(v, median(window))
        });
        let v = self
            .slices
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| quantile(&scaled.by_ref().take(s.len()).collect::<Vec<_>>(), q))
            .collect();
        trimmed_mean(v)
    }

    /// Number of recorded times.
    pub fn len(&self) -> usize {
        self.slices.iter().map(Vec::len).sum()
    }

    /// Every recorded time, slice after slice.
    pub fn all(&self) -> Vec<f64> {
        self.slices.concat()
    }
}

/// Mean of the samples; with four or more, the lowest and the highest
/// are dropped first.
fn trimmed_mean(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    if v.len() >= 4 {
        v = v[1..v.len() - 1].to_vec();
    }
    mean(&v)
}

/// What a workload hands back to the command line.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Host-speed probe ms after each set-up repetition.
    pub setup_probe_ms: Vec<f64>,
    /// Host ms of each untraced operation.
    pub op_ms: OpTimes,
    /// Host ms of each traced operation (empty when untraced).
    pub traced_op_ms: OpTimes,
    /// Workload-specific end-to-end metrics: `(name, value, unit)`.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics (traced run only).
    pub layers: Layers,
    /// Human-readable tables printed before the result line.
    pub report: String,
    /// Simulated statistics whose hash is the workload fingerprint.
    pub fingerprint: String,
}

impl Outcome {
    /// Count one checked operation; `Err` counts as a failure.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    /// Record a per-layer value (must be declared in [`PER_LAYER`]).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "undeclared per-layer metric {name}"
        );
        self.layers.insert(name, value);
    }
}

/// Set-up repetitions: the first builds what the run uses; later ones,
/// spread through the measured phases (one per [`SetupTimer::EVERY`]),
/// are timed and dropped, so the `setup_s` median samples the same host
/// conditions as the operations. Each repetition is followed by a
/// host-speed probe.
#[derive(Debug)]
pub struct SetupTimer {
    next: Instant,
    times: Vec<f64>,
    probes: Vec<f64>,
}

impl SetupTimer {
    /// Interval between repetitions during the measured phases.
    pub const EVERY: Duration = Duration::from_millis(500);

    /// Time the first set-up.
    pub fn first<T>(build: &mut impl FnMut() -> Result<T, String>) -> Result<(Self, T), String> {
        let mut timer = SetupTimer {
            next: Instant::now(),
            times: Vec::new(),
            probes: Vec::new(),
        };
        let built = timer.time(build)?;
        Ok((timer, built))
    }

    fn time<T>(&mut self, build: &mut impl FnMut() -> Result<T, String>) -> Result<T, String> {
        let start = Instant::now();
        let built = build()?;
        self.times.push(start.elapsed().as_secs_f64());
        self.probes
            .push(median(&[probe_ms(), probe_ms(), probe_ms()]));
        self.next = Instant::now() + Self::EVERY;
        Ok(built)
    }

    /// Time one more repetition if one is due; its product is dropped
    /// after the clock stops.
    pub fn maybe<T>(
        &mut self,
        build: &mut impl FnMut() -> Result<T, String>,
    ) -> Result<(), String> {
        if Instant::now() >= self.next {
            self.time(build)?;
        }
        Ok(())
    }

    /// Wall seconds of each repetition, and the probe ms after each.
    pub fn finish(self) -> (Vec<f64>, Vec<f64>) {
        (self.times, self.probes)
    }
}

/// The HLS flow every workload compiles with: default options and the
/// default characterization sweep of the NG-MEDIUM-like device, run cold
/// here (not through the process-wide cache) so that every set-up
/// repetition pays for it. Returns the flow and the sweep's wall time.
///
/// The sweep repeats the one `HlsFlow::new` characterizes with
/// (`library_for` in `crates/hls/src/flow.rs`); [`check_default_flow`]
/// fails the run if the two ever part.
pub fn hls_flow() -> Result<(HlsFlow, Duration), String> {
    let sweep = SweepConfig {
        widths: vec![8, 16, 32, 64],
        pipeline_stages: vec![0],
    };
    let start = Instant::now();
    let lib = Eucalyptus::new(DeviceProfile::ng_medium_like())
        .characterize(&sweep)
        .map_err(|e| format!("characterization: {e}"))?;
    let took = start.elapsed();
    Ok((HlsFlow::new().library(lib), took))
}

/// Check that `flow` (from [`hls_flow`]) compiles each `(name, source)`
/// to the same design as `HlsFlow::new()` at default settings — same
/// report, same Verilog — so the benchmark measures the production flow.
pub fn check_default_flow(flow: &HlsFlow, kernels: &[(&str, &str)]) -> Result<(), String> {
    let default = HlsFlow::new();
    for (name, src) in kernels {
        let compile = |f: &HlsFlow| {
            f.compile(src)
                .map(|d| (d.report(), d.emit_verilog()))
                .map_err(|e| format!("{name}: compile: {e}"))
        };
        if compile(flow)? != compile(&default)? {
            return Err(format!(
                "{name}: the benchmark's characterization sweep no longer matches \
                 HlsFlow::new()'s; update harness::hls_flow"
            ));
        }
    }
    Ok(())
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Linear-interpolated quantile `q` in `[0, 1]` (0 for no samples).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of the samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Mean of the samples (0 for none).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// FNV-1a over a text: the fingerprint of a workload's simulated results.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
