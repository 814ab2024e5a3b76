//! Library crates read no process environment. Every engine runs its
//! default and the alternates are reachable only through typed hooks, so
//! a run is fully described by its code and arguments. Binaries (files
//! under a `src/bin/` directory) own their command line and are exempt.

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

#[test]
fn library_sources_read_no_environment() {
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
    let mut hits = Vec::new();
    for file in &files {
        let text = fs::read_to_string(file).expect("readable source");
        for (i, line) in text.lines().enumerate() {
            if FORBIDDEN.iter().any(|pat| line.contains(pat)) {
                let rel = file.strip_prefix(&root).unwrap_or(file);
                hits.push(format!("{}:{}: {}", rel.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "library code reads the environment:\n{}",
        hits.join("\n")
    );
}
