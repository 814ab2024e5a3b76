//! Pre-implementation area/timing estimation from the characterization
//! library — the "performance estimation of library components is essential
//! to perform aggressive optimizations" loop of Section II.
//!
//! Estimates are derived purely from the binding and the Eucalyptus
//! library, without running logic synthesis; the actual `hermes-fpga` flow
//! can later confirm them (E2/E3 compare the two).

use crate::allocate::FuKind;
use crate::bind::Binding;
use crate::fsm::Fsm;
use crate::ir::{ArrayKind, IrFunction};
use hermes_eucalyptus::CharacterizationLibrary;

/// Estimated implementation cost of a design.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Estimate {
    /// Estimated LUTs.
    pub luts: u64,
    /// Estimated flip-flops.
    pub ffs: u64,
    /// Estimated DSP blocks.
    pub dsps: u64,
    /// Estimated block RAMs.
    pub rams: u64,
    /// Estimated achievable clock period in ns (slowest library unit used).
    pub min_period_ns: f64,
}

/// Mux-tree overhead per register/port input source beyond the first, in
/// LUTs per bit (one 2:1 mux level).
const MUX_LUTS_PER_BIT: f64 = 1.0;

/// Controller overhead per FSM state (state compare + next-state mux).
const CTRL_LUTS_PER_STATE: f64 = 3.0;

/// Estimate the implementation cost of a bound design.
pub fn estimate(
    func: &IrFunction,
    binding: &Binding,
    fsm: &Fsm,
    lib: &CharacterizationLibrary,
) -> Estimate {
    let mut e = Estimate::default();

    // functional units from the library
    for fu in &binding.fus {
        let mn = match fu.kind {
            FuKind::AddSub => "add",
            FuKind::Mul => "mul",
            FuKind::Div => "div",
            FuKind::Shift => "shl",
            FuKind::Logic => "and",
            FuKind::Cmp => "cmplts",
            FuKind::LocalMem(_) | FuKind::ExtMem => continue, // counted below
        };
        if let Some(c) = lib.lookup_nearest(mn, fu.width, 0) {
            e.luts += c.luts;
            e.ffs += c.ffs;
            e.dsps += c.dsps;
            e.min_period_ns = e.min_period_ns.max(c.delay_ns);
        }
    }

    // storage registers
    e.ffs += binding.register_bits();
    // write-mux overhead: one mux level per register (approximation)
    e.luts += (binding.register_bits() as f64 * MUX_LUTS_PER_BIT) as u64;

    // memories
    for info in &func.arrays {
        if let ArrayKind::Local { .. } = info.kind {
            let bits = u64::from(info.size) * u64::from(info.ty.width);
            e.rams += bits.div_ceil(48 * 1024).max(1);
        }
    }

    // controller
    e.ffs += u64::from(fsm.state_bits());
    e.luts += (fsm.state_count() as f64 * CTRL_LUTS_PER_STATE) as u64;

    e
}

#[cfg(test)]
mod tests {
    use crate::flow::HlsFlow;

    #[test]
    fn estimate_scales_with_design_size() {
        let small = HlsFlow::new()
            .compile("int f(int a) { return a + 1; }")
            .unwrap();
        let big = HlsFlow::new()
            .compile(
                "int f(int a, int b, int c, int d) {
                    return a*b + c*d + (a-c)*(b-d) + a/3 + d % 7; }",
            )
            .unwrap();
        let es = small.estimate();
        let eb = big.estimate();
        assert!(eb.luts > es.luts);
        assert!(eb.dsps >= 1);
        assert!(eb.min_period_ns > 0.0);
    }

    #[test]
    fn local_arrays_counted_as_rams() {
        let d = HlsFlow::new()
            .compile("int f() { int m[1024]; m[0] = 1; return m[0]; }")
            .unwrap();
        assert!(d.estimate().rams >= 1);
    }

    #[test]
    fn estimate_within_factor_of_real_flow() {
        use hermes_fpga::device::DeviceProfile;
        use hermes_fpga::flow::{FlowOptions, NxFlow};
        let d = HlsFlow::new()
            .compile("int f(int a, int b) { return a * b + a - b; }")
            .unwrap();
        let est = d.estimate();
        let report = NxFlow::new(DeviceProfile::ng_medium_like(), FlowOptions::default())
            .run(d.netlist(), &hermes_obs::Recorder::disabled())
            .unwrap();
        let real = report.utilization.luts.max(1);
        let ratio = est.luts.max(1) as f64 / real as f64;
        assert!(
            (0.02..=50.0).contains(&ratio),
            "estimate {est:?} wildly off from real {real} LUTs"
        );
    }
}
