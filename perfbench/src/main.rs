//! C-to-fleet benchmark of the HERMES workspace.
//!
//! ```text
//! hermes-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                  [--jobs <n>] [--rev <text>]
//! ```
//!
//! Workloads: `pipeline`, `fleet-steady`, `fleet-overload`, `rtl-small`,
//! `rtl-sparse`, `rtl-dense`.
//!
//! Runs one seeded workload for `--seconds`, checks every output, and
//! prints a provenance header, human-readable tables, the workload's
//! fingerprint, and — as the last line — one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See `perfbench/README.md` for every metric.

mod fleet;
mod harness;
mod pipeline;
mod rtl;

use harness::{Config, Outcome, PER_LAYER};
use std::process::ExitCode;

const WORKLOADS: [&str; 6] = [
    "pipeline",
    "fleet-steady",
    "fleet-overload",
    "rtl-small",
    "rtl-sparse",
    "rtl-dense",
];

/// Samples an untraced run must leave above its reported `op_ms_p90`.
const ABOVE_P90_MIN: usize = 10;

struct Args {
    workload: String,
    cfg: Config,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut jobs = None;
    let mut rev = String::from("unspecified");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&format!("expected one of {WORKLOADS:?}"))),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("expected 0 < seconds <= 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--jobs" => {
                let n = value
                    .parse::<usize>()
                    .map_err(|_| bad("expected an integer"))?;
                if n == 0 {
                    return Err(bad("expected at least 1"));
                }
                jobs = Some(n);
            }
            "--rev" => rev = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        cfg: Config {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            // one worker unless asked: on a shared 2-vCPU VM every thread
            // hand-off also waits on the host's scheduler
            jobs: jobs.unwrap_or(1),
        },
        rev,
    })
}

/// `HERMES_*` variables silently switch engines inside the libraries
/// (settle engines, event kernel, characterization cache, worker count,
/// trace sampling); a benchmark run refuses them rather than measure a
/// configuration it cannot name.
fn refuse_hermes_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("HERMES_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with engine-selecting variables set: {}",
            set.join(", ")
        ))
    }
}

fn run(workload: &str, cfg: &Config) -> Result<Outcome, String> {
    match workload {
        "pipeline" => pipeline::run(cfg),
        "fleet-steady" => fleet::run(fleet::Scenario::Steady, cfg),
        "fleet-overload" => fleet::run(fleet::Scenario::Overload, cfg),
        "rtl-small" => rtl::run(rtl::Level::Small, cfg),
        "rtl-sparse" => rtl::run(rtl::Level::Sparse, cfg),
        "rtl-dense" => rtl::run(rtl::Level::Dense, cfg),
        other => Err(format!("unknown workload {other}")),
    }
}

fn json_metrics(values: &[(&str, f64, &str)]) -> Result<String, String> {
    let mut parts = Vec::with_capacity(values.len());
    for (name, value, unit) in values {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

fn main() -> ExitCode {
    let args = match parse_args().and_then(|a| refuse_hermes_env().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hermes-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = &args.cfg;
    hermes_par::set_jobs_override(Some(cfg.jobs));
    let host = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "# provenance: workload={} seed={} seconds={} trace={} host_cores={host} jobs={} rev={} hermes_env=none",
        args.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.jobs,
        args.rev
    );

    let mut out = match run(&args.workload, cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hermes-perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let rss = match harness::peak_rss_mb() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("hermes-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    // host times as measured, and scaled to the reference host by the
    // probe that follows every operation and set-up repetition
    let setup_s = harness::median(&out.setup_s);
    let setup_ref: Vec<f64> = out
        .setup_s
        .iter()
        .zip(&out.setup_probe_ms)
        .map(|(&s, &p)| harness::adjust(s, p))
        .collect();
    let setup_ref_s = harness::median(&setup_ref);
    let p50 = out.op_ms.quantile(0.5);
    let p90 = out.op_ms.quantile(0.9);
    let pooled = out.op_ms.all();
    let above_p90 = pooled.iter().filter(|&&v| v > p90).count();
    if !cfg.trace {
        // the reported p90 must rest on enough samples above it
        out.check(if above_p90 >= ABOVE_P90_MIN {
            Ok(())
        } else {
            Err(format!(
                "only {above_p90} operations above op_ms_p90, at least {ABOVE_P90_MIN} needed: \
                 raise --seconds"
            ))
        });
    }
    let failed_permille = out.failed as f64 * 1000.0 / out.attempted.max(1) as f64;

    print!("{}", out.report);
    println!(
        "operations: {} untraced{}, {above_p90} above op_ms_p90 ({} slices); set-up repetitions: {}",
        pooled.len(),
        if cfg.trace {
            format!(", {} traced", out.traced_op_ms.all().len())
        } else {
            String::new()
        },
        harness::SLICES,
        out.setup_s.len()
    );
    println!(
        "pooled op ms: min {:.3} p10 {:.3} p25 {:.3} p50 {:.3} p75 {:.3} p90 {:.3} max {:.3}",
        harness::quantile(&pooled, 0.0),
        harness::quantile(&pooled, 0.1),
        harness::quantile(&pooled, 0.25),
        harness::quantile(&pooled, 0.5),
        harness::quantile(&pooled, 0.75),
        harness::quantile(&pooled, 0.9),
        harness::quantile(&pooled, 1.0),
    );
    let fmt = |v: Vec<f64>| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("op ms p50 per slice: {}", fmt(out.op_ms.per_slice(0.5)));
    println!("op ms p90 per slice: {}", fmt(out.op_ms.per_slice(0.9)));
    println!("probe ms per slice: {}", fmt(out.op_ms.probe_per_slice()));
    println!(
        "set-up s: min {:.4} p25 {:.4} p50 {:.4} p75 {:.4} max {:.4}; probe ms after set-up p50 {:.4}",
        harness::quantile(&out.setup_s, 0.0),
        harness::quantile(&out.setup_s, 0.25),
        setup_s,
        harness::quantile(&out.setup_s, 0.75),
        harness::quantile(&out.setup_s, 1.0),
        harness::median(&out.setup_probe_ms),
    );
    println!("end-to-end (untraced):");
    // the metrics BENCHMARK.json declares, which every workload reports
    let end_to_end = [
        ("setup_s", setup_ref_s, "s"),
        ("op_ref_ms_p50", out.op_ms.adjusted(0.5), "ms"),
        ("op_ref_ms_p90", out.op_ms.adjusted(0.9), "ms"),
        ("peak_rss_mb", rss, "MB"),
    ];
    let mut named = vec![end_to_end[0], ("setup_measured_s", setup_s, "s")];
    named.extend(out.named.iter().copied());
    named.extend([("op_ms_p50", p50, "ms"), ("op_ms_p90", p90, "ms")]);
    named.extend(&end_to_end[1..]);
    named.push(("failed_permille", failed_permille, "permille"));
    for (name, value, unit) in &named {
        println!("  {name:<26} {value:>14.4} {unit}");
    }
    println!(
        "fingerprint {} {:#018x} (jobs={})",
        args.workload,
        harness::fnv1a(&out.fingerprint),
        cfg.jobs
    );
    for why in &out.failures {
        eprintln!("check failed: {why}");
    }

    let metrics = if cfg.trace {
        let mut layers = out.layers.clone();
        let traced_p50 = out.traced_op_ms.quantile(0.5);
        let overhead = if p50 > 0.0 {
            (traced_p50 - p50) * 1000.0 / p50
        } else {
            0.0
        };
        layers.insert("trace.overhead_permille", overhead);
        println!("per-layer (traced):");
        let mut values = Vec::with_capacity(PER_LAYER.len());
        for (name, unit) in PER_LAYER {
            let v = layers.get(name).copied().unwrap_or(0.0);
            println!("  {name:<36} {v:>14.4} {unit}");
            values.push((*name, v, *unit));
        }
        json_metrics(&values)
    } else {
        json_metrics(&end_to_end)
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("hermes-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.attempted, out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
