//! `pipeline`: every suite kernel through the paper's whole flow — HLS
//! compile, the NXmap-analogue implementation flow on NG-MEDIUM-like, a
//! TMR flash image with the bitstream and a small app booted through BL1,
//! then co-simulation of a seeded stimulus checked against the
//! `hermes_apps` golden model.

use crate::harness::{self, ms, Config, Outcome, SetupTimer, Spans};
use hermes_apps::{ai, image, sdr, vbn, TestDataGen};
use hermes_boot::bl1::{Bl1, BootSource};
use hermes_boot::flash::RedundancyMode;
use hermes_core::mission::MissionBuilder;
use hermes_cpu::memmap::layout;
use hermes_fpga::device::DeviceProfile;
use hermes_fpga::flow::{FlowOptions, NxFlow};
use hermes_hls::ir::ArrayId;
use hermes_hls::simulate::ExternalMemory;
use hermes_hls::HlsFlow;
use std::time::{Duration, Instant};

/// Ledger rows of one pass, in chain order. The `fpga.*` rows come from
/// `FlowReport::stage_us`; the rest are spans around layer calls.
const ROWS: [&str; 9] = [
    "hls.compile_ms",
    "fpga.synth_ms",
    "fpga.place_ms",
    "fpga.route_ms",
    "fpga.sta_ms",
    "fpga.bitgen_ms",
    "boot.image_ms",
    "boot.bl1_ms",
    "hls.cosim_ms",
];

/// One suite kernel with a seeded stimulus and its golden output.
struct Case {
    name: &'static str,
    source: &'static str,
    args: Vec<i64>,
    buffers: Vec<(ArrayId, Vec<i64>)>,
    out: ArrayId,
    expect: Vec<i64>,
    /// BL1 application: `addi r1, r0, <app_r1>; halt`.
    app: Vec<u32>,
    app_r1: u32,
}

/// Simulated quality of one kernel pass; deterministic for a seed.
#[derive(Debug, Clone, PartialEq)]
struct Qor {
    luts: u64,
    ffs: u64,
    dsps: u64,
    rams: u64,
    cells: usize,
    moves: (u64, u64),
    hpwl: f64,
    wirelength: f64,
    fmax_mhz: f64,
    bitstream_bytes: usize,
    cosim_cycles: u64,
    boot_cycles: u64,
}

/// Host time of one pass: its wall time and the per-row spans.
struct PassTimes {
    wall: Duration,
    spans: Spans,
}

/// Input buffers, the output buffer's id, and the expected output.
type Stimulus = (Vec<(ArrayId, Vec<i64>)>, ArrayId, Vec<i64>);

/// Seeded stimulus for suite kernel `name` (shapes as in the suite's
/// standard stimulus), with the golden model's expected output.
fn stimulus(name: &str, args: &[i64], seed: u64) -> Result<Stimulus, String> {
    let (w, h) = (16usize, 12usize);
    let frame = image::star_field(w, h, 5, seed);
    let mut g = TestDataGen::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
    let a = |i: usize| {
        args.get(i)
            .copied()
            .map(|v| v as usize)
            .ok_or(format!("{name}: missing arg {i}"))
    };
    Ok(match name {
        "sobel" => {
            let want = image::sobel_ref(&frame, w, h);
            (
                vec![(ArrayId(0), frame), (ArrayId(1), vec![0; w * h])],
                ArrayId(1),
                want,
            )
        }
        "conv3" => {
            let kernel = [1i64, 2, 1, 2, 4, 2, 1, 2, 1];
            let want = image::conv3_ref(&frame, &kernel, w, h);
            (
                vec![
                    (ArrayId(0), frame),
                    (ArrayId(1), vec![0; w * h]),
                    (ArrayId(2), kernel.to_vec()),
                ],
                ArrayId(1),
                want,
            )
        }
        "histogram" => {
            let want = image::histogram_ref(&frame);
            (
                vec![(ArrayId(0), frame), (ArrayId(1), vec![0; 256])],
                ArrayId(1),
                want,
            )
        }
        "fir" => {
            let (n, ntaps) = (a(0)?, a(1)?);
            let taps = sdr::boxcar_taps(ntaps);
            let x = g.vec_signed(n + ntaps - 1, 2000);
            let want = sdr::fir_ref(&x, &taps, n);
            (
                vec![
                    (ArrayId(0), x),
                    (ArrayId(1), taps),
                    (ArrayId(2), vec![0; n]),
                ],
                ArrayId(2),
                want,
            )
        }
        "correlate" => {
            let (len, plen) = (a(0)?, a(1)?);
            let pattern = vec![1i64, -1, 1, 1, -1, 1, -1, -1];
            if pattern.len() != plen {
                return Err(format!(
                    "correlate: pattern length {plen} != {}",
                    pattern.len()
                ));
            }
            let offset = 4 + (seed % (len - plen - 8) as u64) as usize;
            let signal = sdr::embed_pattern(len, &pattern, offset, 400, seed);
            let (lag, best) = sdr::correlate_ref(&signal, &pattern);
            (
                vec![
                    (ArrayId(0), signal),
                    (ArrayId(1), pattern),
                    (ArrayId(2), vec![0; 2]),
                ],
                ArrayId(2),
                vec![lag, best],
            )
        }
        "dft" => {
            let (n, bins) = (a(0)?, a(1)?);
            let x = sdr::tone(n, 1 + (seed % (bins as u64 - 1)) as usize, 1000);
            let (cos_t, sin_t) = sdr::dft_tables(n, bins);
            let want = sdr::dft_power_ref(&x, &cos_t, &sin_t, bins);
            (
                vec![
                    (ArrayId(0), x),
                    (ArrayId(1), cos_t),
                    (ArrayId(2), sin_t),
                    (ArrayId(3), vec![0; bins]),
                ],
                ArrayId(3),
                want,
            )
        }
        "centroid" => {
            let (cx, cy, mass) = vbn::centroid_ref(&frame, w, h, 50);
            (
                vec![(ArrayId(0), frame), (ArrayId(1), vec![0; 3])],
                ArrayId(1),
                vec![cx, cy, mass],
            )
        }
        "mlp" => {
            let (inputs, hidden, outputs) = (a(0)?, a(1)?, a(2)?);
            let (w1, b1, w2, b2) = ai::synth_weights(inputs, hidden, outputs, 17);
            let x = g.vec_below(inputs, 256);
            let want = ai::mlp_ref(&x, &w1, &b1, &w2, &b2, inputs, hidden, outputs);
            (
                vec![
                    (ArrayId(0), x),
                    (ArrayId(1), w1),
                    (ArrayId(2), b1),
                    (ArrayId(3), w2),
                    (ArrayId(4), b2),
                    (ArrayId(5), vec![0; outputs]),
                ],
                ArrayId(5),
                want,
            )
        }
        other => return Err(format!("no seeded stimulus for suite kernel `{other}`")),
    })
}

/// The suite kernels with seeded stimuli and BL1 apps.
fn cases(seed: u64) -> Result<Vec<Case>, String> {
    hermes_bench::kernels::suite()
        .into_iter()
        .enumerate()
        .map(|(i, k)| {
            let (buffers, out, expect) = stimulus(k.name, &k.args, seed)?;
            let app_r1 = ((seed.wrapping_add(i as u64 * 131)) % 2000) as u32 + 1;
            let app = hermes_cpu::isa::assemble(&format!("addi r1, r0, {app_r1}\nhalt"))
                .map_err(|e| format!("{}: app assembly: {e}", k.name))?;
            Ok(Case {
                name: k.name,
                source: k.source,
                args: k.args,
                buffers,
                out,
                expect,
                app,
                app_r1,
            })
        })
        .collect()
}

/// One kernel through the whole chain. Only the chain is timed; the
/// checks run after the clock stops.
fn pass(
    case: &Case,
    flow: &HlsFlow,
    device: &DeviceProfile,
    mut spans: Spans,
) -> Result<(Qor, PassTimes), String> {
    let mut ext = ExternalMemory::buffers(case.buffers.clone());
    let start = Instant::now();
    let design = spans
        .time("hls.compile_ms", || flow.compile(case.source))
        .map_err(|e| format!("{}: HLS compile: {e}", case.name))?;
    let (report, art) = NxFlow::new(device.clone(), FlowOptions::default())
        .run_with_artifacts(design.netlist())
        .map_err(|e| format!("{}: implementation flow: {e}", case.name))?;
    let (flash, _) = spans.time("boot.image_ms", || {
        MissionBuilder::new()
            .redundancy(RedundancyMode::Tmr)
            .with_bitstream(&art.bitstream)
            .with_application_words(layout::DDR_BASE, 0, &case.app)
            .build_flash()
    });
    let booted = spans
        .time("boot.bl1_ms", || Bl1::new(BootSource::Flash(flash)).boot())
        .map_err(|e| format!("{}: BL1 boot: {e}", case.name))?;
    let sim = spans
        .time("hls.cosim_ms", || {
            design.simulate_with_memory(&case.args, &mut ext)
        })
        .map_err(|e| format!("{}: co-simulation: {e}", case.name))?;
    let wall = start.elapsed();
    for (row, us) in ROWS[1..6].iter().zip(report.stage_us) {
        spans.add(row, Duration::from_micros(us as u64));
    }

    let got = ext
        .buffer(case.out)
        .ok_or(format!("{}: output buffer missing", case.name))?;
    if got != &case.expect {
        return Err(format!(
            "{}: co-sim output {got:?} != golden {:?}",
            case.name, case.expect
        ));
    }
    art.bitstream
        .verify()
        .map_err(|e| format!("{}: bitstream does not verify: {e}", case.name))?;
    let r = &booted.report;
    if !r.success || r.bitstreams_programmed != 1 || booted.bitstreams.len() != 1 {
        return Err(format!(
            "{}: BL1 success {} with {} bitstream(s) programmed",
            case.name, r.success, r.bitstreams_programmed
        ));
    }
    if booted.bitstreams[0].design_name != design.name() {
        return Err(format!(
            "{}: BL1 programmed `{}`, expected `{}`",
            case.name,
            booted.bitstreams[0].design_name,
            design.name()
        ));
    }
    if booted.cluster.core(0).reg(1) != case.app_r1 {
        return Err(format!(
            "{}: BL1 app left r1 = {}, expected {}",
            case.name,
            booted.cluster.core(0).reg(1),
            case.app_r1
        ));
    }
    let u = report.utilization;
    let qor = Qor {
        luts: u.luts,
        ffs: u.ffs,
        dsps: u.dsps,
        rams: u.rams,
        cells: design.netlist().cell_count(),
        moves: report.placement.moves,
        hpwl: report.placement.hpwl,
        wirelength: report.route.wirelength,
        fmax_mhz: report.timing.fmax_mhz,
        bitstream_bytes: report.bitstream_bytes,
        cosim_cycles: sim.cycles,
        boot_cycles: r.total_cycles(),
    };
    Ok((qor, PassTimes { wall, spans }))
}

/// Run the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut char_ms = Vec::new();
    let mut build = || {
        let (flow, took) = harness::hls_flow()?;
        char_ms.push(ms(took));
        Ok((flow, cases(cfg.seed)?))
    };
    let (mut setup, (flow, cases)) = SetupTimer::first(&mut build)?;
    let kernels: Vec<(&str, &str)> = cases.iter().map(|c| (c.name, c.source)).collect();
    out.check(harness::check_default_flow(&flow, &kernels));
    let device = DeviceProfile::ng_medium_like();

    // warm-up suite round: its QoR is the reference every later pass of
    // the same kernel must reproduce exactly
    let mut reference = Vec::with_capacity(cases.len());
    for case in &cases {
        let r = pass(case, &flow, &device, Spans::new(false));
        out.check(r.as_ref().map(|_| ()).map_err(Clone::clone));
        reference.push(r.ok().map(|(q, _)| q));
    }

    let mut traced: Vec<PassTimes> = Vec::new();
    let mut per_kernel: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    let start = Instant::now();
    // whole suite rounds only, so every kernel weighs the same
    while cfg.measuring(start.elapsed(), out.op_ms.len()) {
        let at = start.elapsed();
        for ((case, want), kernel_ms) in cases.iter().zip(&reference).zip(&mut per_kernel) {
            setup.maybe(&mut build)?;
            for &on in cfg.modes() {
                let result =
                    pass(case, &flow, &device, Spans::new(on)).and_then(|(qor, t)| match want {
                        Some(w) if *w == qor => Ok(t),
                        Some(w) => Err(format!(
                            "{}: QoR changed between passes: {w:?} -> {qor:?}",
                            case.name
                        )),
                        None => Err(format!("{}: no reference pass", case.name)),
                    });
                match result {
                    Ok(t) => {
                        out.check(Ok(()));
                        if on {
                            out.traced_op_ms.push(at, cfg.budget(), ms(t.wall));
                            traced.push(t);
                        } else {
                            out.op_ms.push(at, cfg.budget(), ms(t.wall));
                            kernel_ms.push(ms(t.wall));
                        }
                    }
                    Err(e) => out.check(Err(e)),
                }
            }
        }
    }

    (out.setup_s, out.setup_probe_ms) = setup.finish();
    let qors: Vec<Qor> = reference.iter().flatten().cloned().collect();
    let fmax_geomean = if qors.is_empty() {
        0.0
    } else {
        (qors.iter().map(|q| q.fmax_mhz.ln()).sum::<f64>() / qors.len() as f64).exp()
    };
    let accel_cycles: u64 = qors.iter().map(|q| q.cosim_cycles).sum();

    let mut host = String::from("host ms per pass (untraced)\nkernel       p50_ms    p90_ms\n");
    for (case, v) in cases.iter().zip(&per_kernel) {
        host.push_str(&format!(
            "{:<10} {:>8.3} {:>9.3}\n",
            case.name,
            harness::quantile(v, 0.5),
            harness::quantile(v, 0.9)
        ));
    }
    let mut table = String::from(
        "kernel     luts   ffs dsps rams cells  moves_acc/tried      hpwl  wirelen  fmax_mhz  bitstream_B  cosim_cyc  boot_cyc\n",
    );
    for (case, q) in cases.iter().zip(&reference) {
        let Some(q) = q else { continue };
        table.push_str(&format!(
            "{:<10} {:>4} {:>5} {:>4} {:>4} {:>5} {:>8}/{:<8} {:>8.1} {:>8.1} {:>9.3} {:>12} {:>10} {:>9}\n",
            case.name,
            q.luts,
            q.ffs,
            q.dsps,
            q.rams,
            q.cells,
            q.moves.0,
            q.moves.1,
            q.hpwl,
            q.wirelength,
            q.fmax_mhz,
            q.bitstream_bytes,
            q.cosim_cycles,
            q.boot_cycles,
        ));
    }
    out.fingerprint = table.clone();
    out.report = format!("QoR per kernel (simulated, deterministic for the seed)\n{table}{host}");

    out.named = vec![
        ("flow_ms_p50", out.op_ms.quantile(0.5), "ms"),
        ("flow_ms_p90", out.op_ms.quantile(0.9), "ms"),
        ("fmax_mhz_geomean", fmax_geomean, "MHz"),
        ("accel_cycles_total", accel_cycles as f64, "cycles"),
    ];

    if cfg.trace {
        ledger(&mut out, &traced);
        out.layer("eucalyptus.characterize_ms", harness::median(&char_ms));
        let sum = |f: fn(&Qor) -> f64| qors.iter().map(f).sum::<f64>();
        let tried = sum(|q| q.moves.1 as f64);
        out.layer("fpga.place_moves_tried", tried);
        out.layer(
            "fpga.place_accept_permille",
            if tried > 0.0 {
                sum(|q| q.moves.0 as f64) * 1000.0 / tried
            } else {
                0.0
            },
        );
        out.layer("fpga.hpwl", sum(|q| q.hpwl));
        out.layer("fpga.fmax_mhz_geomean", fmax_geomean);
        out.layer("hls.netlist_cells", sum(|q| q.cells as f64));
        out.layer("hls.cosim_cycles", accel_cycles as f64);
        out.layer("boot.sim_cycles", sum(|q| q.boot_cycles as f64));
    }
    Ok(out)
}

/// Fold the traced passes into per-pass mean ledger rows plus the
/// unattributed remainder, and check that no pass's rows exceed its wall
/// time (a row timed twice, or a span outside the pass).
fn ledger(out: &mut Outcome, traced: &[PassTimes]) {
    let n = traced.len().max(1) as f64;
    let mut unattributed = 0.0;
    let mut wall = 0.0;
    for (i, t) in traced.iter().enumerate() {
        let rows = ms(t.spans.sum());
        let pass_wall = ms(t.wall);
        let rest = pass_wall - rows;
        out.check(if rest < 0.0 {
            Err(format!(
                "ledger: pass {i} rows sum to {rows:.4} ms > wall {pass_wall:.4} ms"
            ))
        } else {
            Ok(())
        });
        unattributed += rest;
        wall += pass_wall;
    }
    for row in ROWS {
        let total: f64 = traced.iter().map(|t| ms(t.spans.get(row))).sum();
        out.layer(row, total / n);
    }
    out.layer("pipeline.unattributed_ms", unattributed / n);
    out.layer(
        "pipeline.unattributed_permille",
        if wall > 0.0 {
            unattributed * 1000.0 / wall
        } else {
            0.0
        },
    );
    let mut text = String::from("ledger: mean host ms per kernel pass (traced passes)\n");
    for row in ROWS {
        let v = out.layers[row];
        text.push_str(&format!(
            "  {row:<28} {v:>9.4}  {:>5.1}%\n",
            v * 100.0 / (wall / n).max(1e-12)
        ));
    }
    text.push_str(&format!(
        "  {:<28} {:>9.4}  {:>5.1}%\n  {:<28} {:>9.4}\n",
        "pipeline.unattributed_ms",
        unattributed / n,
        unattributed * 100.0 / wall.max(1e-12),
        "pass wall",
        wall / n
    ));
    out.report.push_str(&text);
}
