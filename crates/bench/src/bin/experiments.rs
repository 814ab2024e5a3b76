//! Run every experiment (or a named subset) and print the tables that
//! EXPERIMENTS.md records.
//!
//! ```sh
//! cargo run --release -p hermes-bench --bin experiments        # all
//! cargo run --release -p hermes-bench --bin experiments e5 e9  # subset
//! cargo run --release -p hermes-bench --bin experiments --list # ids+titles
//! cargo run --release -p hermes-bench --bin experiments e11 --json BENCH_hermes.json
//! cargo run --release -p hermes-bench --bin experiments e1 e2 --trace t.json
//! cargo run --release -p hermes-bench --bin experiments e17 --profile p.json
//! cargo run --release -p hermes-bench --bin experiments e2 --jobs 1   # pin workers
//! ```
//!
//! `--jobs N` pins the worker count for the whole run (default: the
//! machine's available parallelism); `N` must be a positive integer
//! (unparsable or zero values are rejected with an error, not silently
//! defaulted).
//!
//! `--trace <path>` runs the selection against a shared flight recorder
//! and writes the `hermes-trace/v1` document to `<path>` plus a Chrome
//! `trace_event` rendering to `<path minus .json>.chrome.json`. The wall
//! channel is on for trace runs; every wall-derived field sits on a
//! `"wall`-prefixed key so the deterministic channels diff clean across
//! worker counts (`grep -v '"wall'`).
//!
//! `--profile <path>` runs the deterministic post-hoc profiler over the
//! same recorder and writes the `hermes-profile/v1` document (per-span
//! self-time, per-request critical paths, segment totals) to `<path>`
//! plus a collapsed-stack flamegraph to `<path minus .json>.folded`.
//! Profiles carry no wall channel at all: two profiles from the same
//! selection diff byte-identical at any worker count, no stripping
//! needed.
//!
//! Every engine runs its default (DESIGN.md, "Engine selection"); the
//! binary reads no environment variables.

use hermes_bench::json::Json;
use hermes_bench::profile_export;
use hermes_bench::trace;
use hermes_obs::{ClockDomain, Recorder};

fn main() {
    let mut filter: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut profile_path: Option<String> = None;
    let mut list = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => match args.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("--json requires a file path");
                    std::process::exit(1);
                }
            },
            "--trace" => match args.next() {
                Some(path) => trace_path = Some(path),
                None => {
                    eprintln!("--trace requires a file path");
                    std::process::exit(1);
                }
            },
            "--profile" => match args.next() {
                Some(path) => profile_path = Some(path),
                None => {
                    eprintln!("--profile requires a file path");
                    std::process::exit(1);
                }
            },
            "--jobs" => match args.next() {
                Some(raw) => match raw.trim().parse::<usize>() {
                    Ok(0) => {
                        eprintln!("--jobs 0 requests zero workers; pass a positive integer");
                        std::process::exit(1);
                    }
                    Ok(n) => hermes_par::set_jobs_override(Some(n)),
                    Err(_) => {
                        eprintln!("--jobs {raw:?} is not a positive integer");
                        std::process::exit(1);
                    }
                },
                None => {
                    eprintln!("--jobs requires a worker count");
                    std::process::exit(1);
                }
            },
            "--list" => list = true,
            _ => filter.push(arg),
        }
    }
    let experiments = hermes_bench::all_experiments();
    if let Some(unknown) = filter.iter().find(|f| !experiments.iter().any(|(id, _, _)| id == f)) {
        let ids: Vec<&str> = experiments.iter().map(|(id, _, _)| *id).collect();
        eprintln!("unknown experiment `{unknown}`; available: {}", ids.join(" "));
        std::process::exit(1);
    }
    let selected: Vec<_> = experiments
        .into_iter()
        .filter(|(id, _, _)| filter.is_empty() || filter.iter().any(|f| f == id))
        .collect();
    if list {
        if json_path.is_some() || trace_path.is_some() || profile_path.is_some() {
            eprintln!("--list runs nothing; combine it with none of --json/--trace/--profile");
            std::process::exit(1);
        }
        for (id, title, _) in &selected {
            println!("{id:<4} {title}");
        }
        return;
    }
    if selected.is_empty() && (json_path.is_some() || trace_path.is_some() || profile_path.is_some())
    {
        eprintln!("--json/--trace/--profile need at least one experiment to run");
        std::process::exit(1);
    }

    // the session recorder: a deep ring when tracing or profiling (the
    // wall side channel only when tracing — profiles must diff clean with
    // no stripping), a one-branch no-op otherwise
    let session = if trace_path.is_some() {
        Recorder::with_wall().with_capacity(1 << 16)
    } else if profile_path.is_some() {
        Recorder::new().with_capacity(1 << 16)
    } else {
        Recorder::disabled()
    };
    let mut ran: Vec<(&str, &str, hermes_bench::ExperimentOutput)> = Vec::new();
    for (idx, (id, title, runner)) in selected.into_iter().enumerate() {
        println!("==================================================================");
        println!("{} — {}", id.to_uppercase(), title);
        println!("==================================================================");
        let mark = session.mark();
        let start = std::time::Instant::now();
        let output = runner(hermes_par::jobs(), &session);
        session.span(
            "bench",
            id,
            ClockDomain::Seq,
            idx as u64,
            1,
            &[("title", title.to_string())],
            mark,
        );
        println!("{}", output.text);
        println!("[{} completed in {:.2} s]\n", id, start.elapsed().as_secs_f64());
        ran.push((id, title, output));
    }
    if let Some(path) = json_path {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let doc = Json::obj(vec![
            ("schema", Json::Str("hermes-bench/v1".into())),
            ("host_cores", Json::Int(cores as i64)),
            ("jobs", Json::Int(hermes_par::jobs() as i64)),
            (
                "experiments",
                Json::Arr(
                    ran.iter()
                        .map(|(id, title, out)| {
                            Json::obj(vec![
                                ("id", Json::Str((*id).into())),
                                ("title", Json::Str((*title).into())),
                                ("tables", out.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let body = doc.render();
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
    if let Some(path) = trace_path {
        let body = trace::trace_document(&session).render();
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        let chrome = trace::chrome_path(&path);
        let body = trace::chrome_trace(&session).render();
        if let Err(e) = std::fs::write(&chrome, body) {
            eprintln!("failed to write {chrome}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path} and {chrome}");
    }
    if let Some(path) = profile_path {
        let prof = hermes_obs::profile::profile(&session.snapshot());
        let body = profile_export::profile_document(&prof).render();
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        let folded = profile_export::folded_path(&path);
        let body = profile_export::folded_stacks(&prof);
        if let Err(e) = std::fs::write(&folded, body) {
            eprintln!("failed to write {folded}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path} and {folded}");
    }
}
