//! Source rules over every library source file (binaries, the files
//! under a `src/bin/` directory, own their command line and are exempt):
//!
//! * Library crates read no process environment. Every engine runs its
//!   default and the alternates are reachable only through typed hooks,
//!   so a run is fully described by its code and arguments.
//! * Each layer and each experiment has one entry point that takes the
//!   recorder as a parameter: no `x` / `x_traced` twins, and one
//!   `pub fn run` per experiment module.
//! * Work fans out over `hermes-par` only at a coarse grain, in an
//!   allow-listed file, and the RTL and serve crates do not depend on
//!   `hermes-par` at all.
//! * The timer wheel is the only event queue: no engine carries a knob
//!   that selects another scheduler, and the sorted reference queue
//!   lives only in the wheel's own tests, as their oracle.
//! * The RTL simulator has one settle engine: no knob selects packing or
//!   full settling, and the reference interpreter lives in test support.

use std::fs;
use std::path::{Path, PathBuf};

/// Runtime environment accessors: `env::var` also covers `vars`,
/// `var_os` and `vars_os`.
const FORBIDDEN: [&str; 3] = ["env::var", "set_var", "remove_var"];

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "bin") {
                continue;
            }
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The `_traced` twins the benchmark under `perfbench/` still calls by
/// their untraced names: `(file, name)`. Folding them waits for the next
/// change to the benchmark.
const PINNED_TRACED: [(&str, &str); 3] = [
    ("crates/fpga/src/flow.rs", "run_with_artifacts_traced"),
    ("crates/hls/src/flow.rs", "compile_traced"),
    ("crates/serve/src/model.rs", "with_measured_dma_traced"),
];

/// Every library source file as `(path relative to the repository root,
/// text)`, in path order.
fn library_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut src_dirs = vec![root.join("src")];
    for krate in fs::read_dir(root.join("crates")).expect("crates directory") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            src_dirs.push(src);
        }
    }
    let mut files = Vec::new();
    for dir in &src_dirs {
        rust_sources(dir, &mut files);
    }
    assert!(files.len() > 50, "walked only {} files", files.len());
    files.sort();
    files
        .iter()
        .map(|file| {
            let rel = file.strip_prefix(&root).unwrap_or(file);
            let text = fs::read_to_string(file).expect("readable source");
            (rel.to_string_lossy().into_owned(), text)
        })
        .collect()
}

#[test]
fn library_sources_read_no_environment() {
    let mut hits = Vec::new();
    for (rel, text) in library_sources() {
        for (i, line) in text.lines().enumerate() {
            if FORBIDDEN.iter().any(|pat| line.contains(pat)) {
                hits.push(format!("{rel}:{}: {}", i + 1, line.trim()));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "library code reads the environment:\n{}",
        hits.join("\n")
    );
}

#[test]
fn one_entry_point_per_layer_and_experiment() {
    let mut hits = Vec::new();
    for (rel, text) in library_sources() {
        let file = rel.rsplit('/').next().unwrap_or(&rel);
        let experiment = rel.starts_with("crates/bench/src/")
            && file.starts_with('e')
            && file[1..].starts_with(|c: char| c.is_ascii_digit());
        let mut runs = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let Some(rest) = line.trim_start().strip_prefix("pub fn ") else {
                continue;
            };
            let name = &rest[..rest.find(['(', '<']).unwrap_or(rest.len())];
            // a twin is `<name>_traced`; an `is_traced` predicate is not
            let twin = name.ends_with("_traced") && !name.starts_with("is_");
            if twin && !PINNED_TRACED.contains(&(rel.as_str(), name)) {
                hits.push(format!("{rel}:{}: `_traced` twin: {}", i + 1, line.trim()));
            }
            if experiment && line.starts_with("pub fn run") {
                runs.push(format!("{rel}:{}: {}", i + 1, line.trim()));
            }
        }
        if runs.len() > 1 {
            hits.push(format!(
                "{} public runners, want one:\n  {}",
                runs.len(),
                runs.join("\n  ")
            ));
        }
    }
    assert!(
        hits.is_empty(),
        "a layer or an experiment has more than one entry point:\n{}",
        hits.join("\n")
    );
}

/// The files whose units are coarse enough for a worker hand-off to pay:
/// multi-start placement, the Eucalyptus sweep, and the experiments that
/// fan out over suite kernels or seeds.
const COARSE_FAN_OUTS: [&str; 6] = [
    "crates/fpga/src/place.rs",
    "crates/eucalyptus/src/sweep.rs",
    "crates/bench/src/e1_hls_flow.rs",
    "crates/bench/src/e2_fpga_flow.rs",
    "crates/bench/src/e7_usecases.rs",
    "crates/bench/src/e10_chaos.rs",
];

/// Crates whose hot paths (one settle pass, one batch) are far finer
/// than a worker hand-off: they must not depend on `hermes-par`.
const SERIAL_CRATES: [&str; 2] = ["crates/rtl/Cargo.toml", "crates/serve/Cargo.toml"];

#[test]
fn fan_outs_stay_coarse_grained() {
    let mut hits = Vec::new();
    for (rel, text) in library_sources() {
        if rel.starts_with("crates/par/") || COARSE_FAN_OUTS.contains(&rel.as_str()) {
            continue;
        }
        for (i, line) in text.lines().enumerate() {
            let code = line.trim_start();
            let fan_out = code.contains("par_map_jobs") || code.contains("par_map_bounded_jobs");
            if fan_out && !code.starts_with("//") {
                hits.push(format!("{rel}:{}: {}", i + 1, code));
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for manifest in SERIAL_CRATES {
        let text = fs::read_to_string(root.join(manifest)).expect("readable manifest");
        if text.contains("hermes-par") {
            hits.push(format!("{manifest}: depends on hermes-par"));
        }
    }
    assert!(
        hits.is_empty(),
        "fan-out outside the coarse-grain allow-list:\n{}",
        hits.join("\n")
    );
}

/// Names that select or implement a second scheduler beside the timer
/// wheel.
const SECOND_SCHEDULER: [&str; 4] =
    ["ReferenceQueue", "enum Scheduler", "with_event_kernel", "set_event_kernel"];

/// The one file allowed to name them, and only in its test module, where
/// the sorted reference queue is the wheel's oracle.
const WHEEL: &str = "crates/kernel/src/wheel.rs";

#[test]
fn one_scheduler_path() {
    let mut hits = Vec::new();
    for (rel, text) in library_sources() {
        for (i, line) in text.lines().enumerate() {
            if rel == WHEEL && line.trim_start() == "#[cfg(test)]" {
                break;
            }
            if SECOND_SCHEDULER.iter().any(|name| line.contains(name)) {
                hits.push(format!("{rel}:{}: {}", i + 1, line.trim()));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "a second scheduler path outside the wheel's tests:\n{}",
        hits.join("\n")
    );
}

/// Names that select or implement a second RTL settle engine beside the
/// simulator's event drain.
const SECOND_SETTLE_ENGINE: [&str; 4] =
    ["new_with_packing", "set_event_driven", "BaselineSimulator", "fn settle_full"];

#[test]
fn one_settle_engine() {
    let mut hits = Vec::new();
    for (rel, text) in library_sources() {
        if !rel.starts_with("crates/") {
            continue;
        }
        for (i, line) in text.lines().enumerate() {
            if SECOND_SETTLE_ENGINE.iter().any(|name| line.contains(name)) {
                hits.push(format!("{rel}:{}: {}", i + 1, line.trim()));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "a second settle engine in library code:\n{}",
        hits.join("\n")
    );
}
