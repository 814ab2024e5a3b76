//! The accelerator service model: how long a batch occupies an instance,
//! and the pure compute function producing response payloads.
//!
//! The model is *measured, not guessed*: [`AcceleratorModel::from_design`]
//! co-simulates a compiled HLS design once to get the per-item cycle cost
//! (the design is compiled once and shared — the flow/characterization
//! caches make repeated builds cheap), and
//! [`AcceleratorModel::with_measured_dma`] runs a real round trip through
//! the AXI bus model to price per-item data movement. Both measurements
//! are deterministic, so the whole serving simulation is replayable.

use hermes_axi::memory::MemoryTiming;
use hermes_axi::testbench::AxiTestbench;
use hermes_hls::{Design, HlsError};
use std::sync::Arc;

/// The pure compute function producing a response payload from a request
/// payload.
pub type ComputeFn = Arc<dyn Fn(&[i64]) -> Vec<i64> + Send + Sync>;

/// Service-time and compute model of one accelerator kind.
#[derive(Clone)]
pub struct AcceleratorModel {
    /// Accelerator name (usually the kernel's function name).
    pub name: String,
    /// Fixed per-batch cycles (control handshake, descriptor setup).
    pub batch_overhead: u64,
    /// Cycles each item spends in the accelerator datapath.
    pub per_item: u64,
    /// Bus cycles each item spends in DMA (input in, output out).
    pub dma_per_item: u64,
    compute: ComputeFn,
}

impl std::fmt::Debug for AcceleratorModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AcceleratorModel")
            .field("name", &self.name)
            .field("batch_overhead", &self.batch_overhead)
            .field("per_item", &self.per_item)
            .field("dma_per_item", &self.dma_per_item)
            .finish()
    }
}

impl AcceleratorModel {
    /// A model with explicit timing and a compute function (DMA cost 0
    /// until measured).
    pub fn new(
        name: &str,
        batch_overhead: u64,
        per_item: u64,
        compute: impl Fn(&[i64]) -> Vec<i64> + Send + Sync + 'static,
    ) -> Self {
        AcceleratorModel {
            name: name.to_string(),
            batch_overhead,
            per_item: per_item.max(1),
            dma_per_item: 0,
            compute: Arc::new(compute),
        }
    }

    /// Build a model from a compiled design: the per-item cost is the
    /// measured cycle count of one co-simulation with `representative_args`
    /// and the compute function runs the design's cycle-accurate model.
    /// The design is simulated per request, so use this for fast scalar
    /// kernels (demos, tests); production-shaped workloads measure once
    /// and supply a reference compute function via [`AcceleratorModel::new`].
    ///
    /// The measurement co-simulation is recorded as an `hls`/`cosim` span
    /// (duration = measured cycles) linked to `ctx`, so the model's
    /// provenance (which co-sim priced it) is part of the causal tree.
    ///
    /// # Errors
    ///
    /// Propagates the measurement simulation's failure.
    pub fn from_design(
        design: Design,
        representative_args: &[i64],
        batch_overhead: u64,
        obs: &hermes_obs::Recorder,
        ctx: hermes_obs::TraceCtx,
    ) -> Result<Self, HlsError> {
        let measured = design.simulate(representative_args)?;
        obs.trace_span(
            "hls",
            "cosim",
            hermes_obs::ClockDomain::Rtl,
            0,
            measured.cycles,
            &[("design", design.name().to_string())],
            hermes_obs::WallMark::none(),
            ctx,
        );
        Ok(AcceleratorModel {
            name: design.name().to_string(),
            batch_overhead,
            per_item: measured.cycles.max(1),
            dma_per_item: 0,
            compute: Arc::new(move |args: &[i64]| {
                let r = design
                    .simulate(args)
                    .unwrap_or_else(|e| panic!("serve compute simulation failed: {e}"));
                vec![r.return_value.unwrap_or(0)]
            }),
        })
    }

    /// Price per-item data movement by timing one write+read round trip of
    /// `bytes_per_item` through the AXI bus model (deterministic cycles).
    #[must_use]
    pub fn with_measured_dma(self, bytes_per_item: usize) -> Self {
        self.measure_dma(bytes_per_item, None)
    }

    /// [`Self::with_measured_dma`] with a causal trace context: the bus
    /// statistics of the measurement round trip are exported through the
    /// recorder with a trace-linked summary instant (subsystem `dma`).
    #[must_use]
    pub fn with_measured_dma_traced(
        self,
        bytes_per_item: usize,
        obs: &hermes_obs::Recorder,
        ctx: hermes_obs::TraceCtx,
    ) -> Self {
        self.measure_dma(bytes_per_item, Some((obs, ctx)))
    }

    fn measure_dma(
        mut self,
        bytes_per_item: usize,
        trace: Option<(&hermes_obs::Recorder, hermes_obs::TraceCtx)>,
    ) -> Self {
        let bytes = bytes_per_item.clamp(1, 32 * 1024);
        let mut tb = AxiTestbench::new(64 * 1024, MemoryTiming::default());
        let block = vec![0xA5u8; bytes];
        let wrote = tb
            .write_blocking(0, &block)
            .expect("DMA measurement write fits the slave");
        let (_, read) = tb
            .read_blocking(0, bytes)
            .expect("DMA measurement read fits the slave");
        self.dma_per_item = wrote + read;
        if let Some((obs, ctx)) = trace {
            tb.stats().obs_export_ctx(obs, "dma", ctx);
        }
        self
    }

    /// Ticks a batch of `k` items occupies an instance.
    pub fn service_cycles(&self, k: usize) -> u64 {
        self.batch_overhead + (self.per_item + self.dma_per_item) * k as u64
    }

    /// Evaluate one request's payload.
    pub fn compute(&self, input: &[i64]) -> Vec<i64> {
        (self.compute)(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_hls::HlsFlow;

    #[test]
    fn service_cycles_affine_in_batch_size() {
        let m = AcceleratorModel::new("m", 10, 7, |xs| xs.to_vec());
        assert_eq!(m.service_cycles(1), 17);
        assert_eq!(m.service_cycles(4), 38);
        assert_eq!(m.service_cycles(0), 10);
    }

    #[test]
    fn from_design_measures_and_computes() {
        let design = HlsFlow::new()
            .compile("int triple(int x) { return x * 3; }")
            .expect("compiles");
        let m = AcceleratorModel::from_design(
            design,
            &[5],
            8,
            &hermes_obs::Recorder::disabled(),
            hermes_obs::TraceCtx::untraced(),
        )
        .expect("measures");
        assert_eq!(m.name, "triple");
        assert!(m.per_item >= 1);
        assert_eq!(m.compute(&[7]), vec![21]);
        assert_eq!(m.compute(&[-4]), vec![-12]);
    }

    #[test]
    fn measured_dma_is_deterministic_and_positive() {
        let a = AcceleratorModel::new("a", 0, 1, |xs| xs.to_vec()).with_measured_dma(64);
        let b = AcceleratorModel::new("b", 0, 1, |xs| xs.to_vec()).with_measured_dma(64);
        assert!(a.dma_per_item > 0);
        assert_eq!(a.dma_per_item, b.dma_per_item, "bus model is deterministic");
        let wide = AcceleratorModel::new("w", 0, 1, |xs| xs.to_vec()).with_measured_dma(1024);
        assert!(wide.dma_per_item > a.dma_per_item, "more bytes, more cycles");
    }
}
