//! Committed-baseline gates: figures in the checked-in `BENCH_hermes.json`
//! that must hold, read through `Json::parse`. E12's and E17b's overheads
//! are wall clock, too noisy on a shared host to assert on a live run, so
//! they are gated here on the committed file; E17a, E18a and E19a are
//! also asserted live in their experiment's `run()`.

use hermes_bench::json::Json;
use std::fs;
use std::path::Path;

const BASELINE: &str = include_str!("../../../BENCH_hermes.json");

/// `value[key]`; panics unless `value` is an object holding `key`.
fn at<'a>(value: &'a Json, key: &str) -> &'a Json {
    let Json::Obj(pairs) = value else { panic!("not an object: {value:?}") };
    pairs.iter().find(|(k, _)| k == key).map_or_else(|| panic!("no `{key}` field"), |(_, v)| v)
}

fn items(value: &Json) -> &[Json] {
    let Json::Arr(items) = value else { panic!("not an array: {value:?}") };
    items
}

fn int(value: &Json) -> i64 {
    let Json::Int(i) = value else { panic!("not an integer: {value:?}") };
    *i
}

/// A number, written with or without a decimal point.
fn num(value: &Json) -> f64 {
    match value {
        Json::Num(x) => *x,
        Json::Int(i) => *i as f64,
        _ => panic!("not a number: {value:?}"),
    }
}

/// The rows of committed table `id`, e.g. `"e17b"`.
fn rows(id: &str) -> Vec<Json> {
    let doc = Json::parse(BASELINE).expect("BENCH_hermes.json parses");
    items(at(&doc, "experiments"))
        .iter()
        .flat_map(|e| items(at(e, "tables")))
        .find(|t| at(t, "id") == &Json::Str(id.into()))
        .map(|t| items(at(t, "rows")).to_vec())
        .unwrap_or_else(|| panic!("no committed table {id}"))
}

/// The row whose `key` column holds `want`.
fn row<'a>(rows: &'a [Json], key: &str, want: Json) -> &'a Json {
    rows.iter()
        .find(|r| at(r, key) == &want)
        .unwrap_or_else(|| panic!("no row with {key} = {want:?}"))
}

#[test]
fn baseline_is_writer_output() {
    assert_eq!(Json::parse(BASELINE).map(|doc| doc.render()).as_deref(), Ok(BASELINE));
}

/// Every committed table is one an experiment still emits: its id
/// appears as a `.with("<id>"` literal under `crates/bench/src`, so a
/// table whose experiment stopped writing it cannot linger as stale data.
#[test]
fn every_committed_table_is_emitted() {
    fn sources(dir: &Path, text: &mut String) {
        for entry in fs::read_dir(dir).expect("readable directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                sources(&path, text);
            } else if path.extension().is_some_and(|e| e == "rs") {
                text.push_str(&fs::read_to_string(&path).expect("readable source"));
            }
        }
    }
    let mut text = String::new();
    sources(&Path::new(env!("CARGO_MANIFEST_DIR")).join("src"), &mut text);
    let doc = Json::parse(BASELINE).expect("BENCH_hermes.json parses");
    let stale: Vec<String> = items(at(&doc, "experiments"))
        .iter()
        .flat_map(|e| items(at(e, "tables")))
        .map(|t| match at(t, "id") {
            Json::Str(id) => id.clone(),
            other => panic!("table id not a string: {other:?}"),
        })
        .filter(|id| !text.contains(&format!(".with(\"{id}\"")))
        .collect();
    assert!(stale.is_empty(), "committed tables no experiment emits: {stale:?}");
}

/// Sampled tracing (16‰) adds < 5% over the untraced recorder: how
/// `ServeConfig::trace_sample_permille` keeps always-on tracing affordable.
#[test]
fn e17b_sampled_tracing_overhead_under_5_pct() {
    let pct = int(at(row(&rows("e17b"), "sample_permille", Json::Int(16)), "vs_untraced_pct"));
    assert!(pct < 5, "committed sampled-tracing overhead {pct}% >= 5%");
}

/// Recording a trace adds < 5% to every experiment E12 times: the target
/// its `under_5pct` column prints.
#[test]
fn e12_every_target_under_5_pct() {
    let rows = rows("e12");
    assert!(!rows.is_empty(), "committed e12 has no rows");
    for r in &rows {
        let pct = num(at(r, "overhead_pct"));
        assert!(pct < 5.0, "committed {:?} tracing overhead {pct}% >= 5%", at(r, "experiment"));
    }
}

#[test]
fn e17a_some_point_pages() {
    let paged = rows("e17a").iter().any(|r| at(r, "alert") == &Json::Str("page".into()));
    assert!(paged, "committed e17a never pages");
}

#[test]
fn e18a_total_reduction_at_least_10x() {
    let reduction = int(at(row(&rows("e18a"), "layer", Json::Str("total".into())), "reduction_x"));
    assert!(reduction >= 10, "committed e18 reduction {reduction}x < 10x");
}

/// A >= 1M-request sweep whose 8-shard point keeps consistent-hash +
/// po2c routing skew within 1.5x of even.
#[test]
fn e19a_million_requests_and_8_shard_skew_within_1_5x() {
    let sweep = rows("e19a");
    let offered: i64 = sweep.iter().map(|r| int(at(r, "offered"))).sum();
    assert!(offered >= 1_000_000, "committed e19a offers {offered} < 1M requests");
    let skew = int(at(row(&sweep, "shards", Json::Int(8)), "skew_x100"));
    assert!(skew <= 150, "committed e19 routing skew {skew} > 150");
}
