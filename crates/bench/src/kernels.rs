//! The shared kernel suite: every use-case kernel with a standard stimulus
//! set, so E1/E2/E7 measure the same designs.

use hermes_apps::image::{CONV3_SOURCE, HISTOGRAM_SOURCE, SOBEL_SOURCE};
use hermes_apps::sdr::{CORRELATE_SOURCE, DFT_POWER_SOURCE, FIR_SOURCE};
use hermes_apps::vbn::CENTROID_SOURCE;
use hermes_apps::ai::MLP_SOURCE;
use hermes_apps::TestDataGen;
use hermes_hls::ir::ArrayId;
use hermes_hls::simulate::{ExternalMemory, SimResult};
use hermes_hls::{Design, HlsFlow};

/// One suite kernel: source plus a standard stimulus.
pub struct Kernel {
    /// Kernel name.
    pub name: &'static str,
    /// C-subset source.
    pub source: &'static str,
    /// Scalar arguments of the standard stimulus.
    pub args: Vec<i64>,
    /// External array buffers of the standard stimulus (by array id).
    pub buffers: Vec<(ArrayId, Vec<i64>)>,
}

impl Kernel {
    /// Compile with the given flow, tracing per-stage spans into `obs`.
    ///
    /// # Panics
    ///
    /// Panics on compile failure (suite kernels are known-good).
    pub fn compile(&self, flow: &HlsFlow, obs: &hermes_obs::Recorder) -> Design {
        flow.compile_traced(self.source, obs)
            .unwrap_or_else(|e| panic!("{}: {e}", self.name))
    }

    /// Run the standard stimulus.
    ///
    /// # Panics
    ///
    /// Panics on simulation failure.
    pub fn simulate(&self, design: &Design) -> SimResult {
        let mut ext = ExternalMemory::buffers(self.buffers.clone());
        design
            .simulate_with_memory(&self.args, &mut ext)
            .unwrap_or_else(|e| panic!("{}: {e}", self.name))
    }
}

/// The standard suite (image, vision, SDR, AI kernels of Section V).
pub fn suite() -> Vec<Kernel> {
    let (w, h) = (16usize, 12usize);
    let frame = hermes_apps::image::star_field(w, h, 5, 99);
    let mut g = TestDataGen::new(31);
    let fir_n = 32usize;
    let taps = hermes_apps::sdr::boxcar_taps(8);
    let fir_x = g.vec_signed(fir_n + taps.len() - 1, 2000);
    let pattern = vec![1i64, -1, 1, 1, -1, 1, -1, -1];
    let signal = hermes_apps::sdr::embed_pattern(64, &pattern, 17, 400, 5);
    let (inputs, hidden, outputs) = (6usize, 8usize, 3usize);
    let (w1, b1, w2, b2) = hermes_apps::ai::synth_weights(inputs, hidden, outputs, 17);
    let x = TestDataGen::new(3).vec_below(inputs, 256);
    vec![
        Kernel {
            name: "sobel",
            source: SOBEL_SOURCE,
            args: vec![w as i64, h as i64],
            buffers: vec![(ArrayId(0), frame.clone()), (ArrayId(1), vec![0; w * h])],
        },
        Kernel {
            name: "conv3",
            source: CONV3_SOURCE,
            args: vec![w as i64, h as i64],
            buffers: vec![
                (ArrayId(0), frame.clone()),
                (ArrayId(1), vec![0; w * h]),
                (ArrayId(2), vec![1, 2, 1, 2, 4, 2, 1, 2, 1]),
            ],
        },
        Kernel {
            name: "histogram",
            source: HISTOGRAM_SOURCE,
            args: vec![(w * h) as i64],
            buffers: vec![(ArrayId(0), frame.clone()), (ArrayId(1), vec![0; 256])],
        },
        Kernel {
            name: "fir",
            source: FIR_SOURCE,
            args: vec![fir_n as i64, taps.len() as i64],
            buffers: vec![
                (ArrayId(0), fir_x),
                (ArrayId(1), taps),
                (ArrayId(2), vec![0; fir_n]),
            ],
        },
        Kernel {
            name: "correlate",
            source: CORRELATE_SOURCE,
            args: vec![signal.len() as i64, pattern.len() as i64],
            buffers: vec![
                (ArrayId(0), signal),
                (ArrayId(1), pattern),
                (ArrayId(2), vec![0; 2]),
            ],
        },
        Kernel {
            name: "dft",
            source: DFT_POWER_SOURCE,
            args: {
                let (n, bins) = (16i64, 8i64);
                vec![n, bins]
            },
            buffers: {
                let (n, bins) = (16usize, 8usize);
                let x = hermes_apps::sdr::tone(n, 3, 1000);
                let (cos_t, sin_t) = hermes_apps::sdr::dft_tables(n, bins);
                vec![
                    (ArrayId(0), x),
                    (ArrayId(1), cos_t),
                    (ArrayId(2), sin_t),
                    (ArrayId(3), vec![0; bins]),
                ]
            },
        },
        Kernel {
            name: "centroid",
            source: CENTROID_SOURCE,
            args: vec![w as i64, h as i64, 50],
            buffers: vec![(ArrayId(0), frame), (ArrayId(1), vec![0; 3])],
        },
        Kernel {
            name: "mlp",
            source: MLP_SOURCE,
            args: vec![inputs as i64, hidden as i64, outputs as i64],
            buffers: vec![
                (ArrayId(0), x),
                (ArrayId(1), w1),
                (ArrayId(2), b1),
                (ArrayId(3), w2),
                (ArrayId(4), b2),
                (ArrayId(5), vec![0; outputs]),
            ],
        },
    ]
}
