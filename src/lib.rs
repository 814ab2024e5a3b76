//! # hermes
//!
//! Umbrella crate of the HERMES ecosystem reproduction — a Rust
//! implementation of the software stack described in *"HERMES:
//! qualification of High pErformance pRogrammable Microprocessor and
//! dEvelopment of Software ecosystem"* (DATE 2023): an HLS tool in the
//! style of Bambu, an NXmap-style FPGA implementation flow for an
//! NG-ULTRA-like device model, AXI4 interface generation and
//! co-simulation, a XtratuM-NG-style TSP hypervisor on a quad-core
//! R52-analogue cluster, the BL0/BL1 boot chain, radiation-effects
//! tooling, and the Section V space use cases.
//!
//! Each subsystem lives in its own crate, re-exported here:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`rtl`] | `hermes-rtl` | component library, netlists, cycle simulator, HDL emitters |
//! | [`fpga`] | `hermes-fpga` | device model, synth/place/route/STA/bitstream |
//! | [`eucalyptus`] | `hermes-eucalyptus` | component characterization (XML library) |
//! | [`axi`] | `hermes-axi` | AXI4 master/slave model, protocol checker, testbench |
//! | [`hls`] | `hermes-hls` | C-subset HLS: CDFG, schedule, bind, FSM+datapath |
//! | [`cpu`] | `hermes-cpu` | quad-core R52-analogue ISA simulator with MPU |
//! | [`xng`] | `hermes-xng` | TSP hypervisor: partitions, plans, ports, health |
//! | [`boot`] | `hermes-boot` | BL0/BL1 chain, flash TMR, SpaceWire, boot report |
//! | [`rad`] | `hermes-rad` | SEU campaigns, TMR voting, SECDED EDAC, scrubbing |
//! | [`apps`] | `hermes-apps` | image/AI/SDR kernels; AOCS/VBN/EOR partitions |
//! | [`core`] | `hermes-core` | end-to-end flows: C→bitstream, mission packaging |
//! | [`chaos`] | `hermes-chaos` | fault-injection plane, chaos campaigns, availability/MTTR reports |
//! | [`par`] | `hermes-par` | std-only coarse-grain fan-out engine (deterministic `par_map_jobs`) |
//! | [`obs`] | `hermes-obs` | deterministic flight recorder: spans/events, metrics, bounded rings |
//! | [`serve`] | `hermes-serve` | deadline-aware accelerator serving: admission, batching, pools, shedding |
//! | [`kernel`] | `hermes-kernel` | unified discrete-event kernel: hierarchical timer wheel |
//! | [`fleet`] | `hermes-fleet` | sharded serving fleet: consistent-hash routing, autoscaling, failover |
//!
//! ## Quickstart
//!
//! ```
//! use hermes::core::accelerator::AcceleratorFlow;
//!
//! # fn main() -> Result<(), hermes::core::CoreError> {
//! let artifact = AcceleratorFlow::new()
//!     .build("int saxpy(int a, int x, int y) { return a * x + y; }")?;
//! assert_eq!(artifact.design.simulate(&[2, 3, 4])?.return_value, Some(10));
//! # Ok(())
//! # }
//! ```

pub use hermes_apps as apps;
pub use hermes_axi as axi;
pub use hermes_boot as boot;
pub use hermes_chaos as chaos;
pub use hermes_core as core;
pub use hermes_cpu as cpu;
pub use hermes_eucalyptus as eucalyptus;
pub use hermes_fleet as fleet;
pub use hermes_fpga as fpga;
pub use hermes_hls as hls;
pub use hermes_kernel as kernel;
pub use hermes_obs as obs;
pub use hermes_par as par;
pub use hermes_rad as rad;
pub use hermes_rtl as rtl;
pub use hermes_serve as serve;
pub use hermes_xng as xng;
