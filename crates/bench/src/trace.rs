//! Trace export: render a [`hermes_obs::Recorder`] snapshot as the
//! `hermes-trace/v1` JSON document behind `experiments --trace <path>`,
//! plus a Chrome `trace_event`-compatible rendering for `about:tracing` /
//! Perfetto.
//!
//! ## Determinism contract
//!
//! Every wall-clock-derived field in the document lives under a key that
//! starts with `wall` — `wall_ns`, `wall_channel` — and [`Json`] renders
//! one key per line, so stripping lines that contain `"wall` (as ci.sh
//! does with `grep -v '"wall'`) leaves only the deterministic channels: a
//! trace taken at `--jobs 1` then matches a trace taken at `--jobs 4`
//! byte for byte.

use crate::json::Json;
use hermes_obs::{Event, EventKind, Recorder};

/// Render the recorder's state as a `hermes-trace/v1` document.
pub fn trace_document(rec: &Recorder) -> Json {
    let snap = rec.snapshot();
    let subsystems = snap
        .subsystems
        .iter()
        .map(|sub| {
            Json::obj(vec![
                ("name", Json::Str(sub.name.clone())),
                ("dropped", Json::Int(sub.dropped as i64)),
                (
                    "events",
                    Json::Arr(sub.events.iter().map(event_json).collect()),
                ),
            ])
        })
        .collect();
    let counters = snap
        .counters
        .iter()
        .map(|(sub, name, v)| {
            Json::obj(vec![
                ("subsystem", Json::Str(sub.clone())),
                ("name", Json::Str(name.clone())),
                ("value", Json::Int(*v as i64)),
            ])
        })
        .collect();
    let gauges = snap
        .gauges
        .iter()
        .map(|(sub, name, v)| {
            Json::obj(vec![
                ("subsystem", Json::Str(sub.clone())),
                ("name", Json::Str(name.clone())),
                ("value", Json::Int(*v)),
            ])
        })
        .collect();
    let histograms = snap
        .histograms
        .iter()
        .map(|(sub, name, h)| {
            Json::obj(vec![
                ("subsystem", Json::Str(sub.clone())),
                ("name", Json::Str(name.clone())),
                (
                    "bounds",
                    Json::Arr(h.bounds.iter().map(|&b| Json::Int(b as i64)).collect()),
                ),
                (
                    "counts",
                    Json::Arr(h.counts.iter().map(|&c| Json::Int(c as i64)).collect()),
                ),
                ("count", Json::Int(h.count as i64)),
                ("sum", Json::Int(h.sum as i64)),
            ])
        })
        .collect();
    // one warning per subsystem whose ring overflowed, so a clipped trace
    // is never mistaken for a complete one
    let warnings = snap
        .subsystems
        .iter()
        .filter(|sub| sub.dropped > 0)
        .map(|sub| {
            Json::obj(vec![
                ("key", Json::Str(format!("obs-ring-drop:{}", sub.name))),
                (
                    "message",
                    Json::Str(format!(
                        "subsystem {:?} event ring overflowed; its {} oldest events \
                         were dropped (trace truncated)",
                        sub.name, sub.dropped
                    )),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::Str("hermes-trace/v1".into())),
        ("wall_channel", Json::Bool(rec.wall_enabled())),
        ("dropped_events", Json::Int(snap.dropped_total() as i64)),
        ("subsystems", Json::Arr(subsystems)),
        ("counters", Json::Arr(counters)),
        ("gauges", Json::Arr(gauges)),
        ("histograms", Json::Arr(histograms)),
        ("warnings", Json::Arr(warnings)),
    ])
}

fn event_json(ev: &Event) -> Json {
    let mut pairs = vec![
        ("seq", Json::Int(ev.seq as i64)),
        ("name", Json::Str(ev.name.clone())),
        ("kind", Json::Str(ev.kind.as_str().into())),
        ("clock", Json::Str(ev.clock.as_str().into())),
        ("ts", Json::Int(ev.ts as i64)),
    ];
    if let EventKind::Span { dur } = ev.kind {
        pairs.push(("dur", Json::Int(dur as i64)));
    }
    if let Some(link) = ev.trace {
        pairs.push(("trace_id", Json::Int(link.trace_id as i64)));
        if link.span_id != 0 {
            pairs.push(("span_id", Json::Int(link.span_id as i64)));
        }
        if link.parent_span != 0 {
            pairs.push(("parent_span", Json::Int(link.parent_span as i64)));
        }
    }
    if !ev.args.is_empty() {
        pairs.push((
            "args",
            Json::Obj(
                ev.args
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        ));
    }
    if let Some(ns) = ev.wall_ns {
        pairs.push(("wall_ns", Json::Int(ns as i64)));
    }
    Json::obj(pairs)
}

/// Render the recorder's events in the Chrome `trace_event` JSON format
/// (load in `about:tracing` or Perfetto). Each subsystem becomes one
/// process row (named via `process_name` metadata); spans are complete
/// events (`ph: "X"`, `ts`/`dur` in the event's simulated clock ticks),
/// instants and warnings are instant events (`ph: "i"`).
pub fn chrome_trace(rec: &Recorder) -> Json {
    let snap = rec.snapshot();
    let mut events: Vec<Json> = Vec::new();
    for (idx, sub) in snap.subsystems.iter().enumerate() {
        let pid = idx as i64 + 1;
        events.push(Json::obj(vec![
            ("name", Json::Str("process_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Int(pid)),
            ("tid", Json::Int(0)),
            (
                "args",
                Json::obj(vec![("name", Json::Str(sub.name.clone()))]),
            ),
        ]));
        for ev in &sub.events {
            let args = Json::Obj(
                std::iter::once(("clock".to_string(), Json::Str(ev.clock.as_str().into())))
                    .chain(
                        ev.args
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::Str(v.clone()))),
                    )
                    .collect(),
            );
            let mut pairs = vec![
                ("name", Json::Str(ev.name.clone())),
                ("cat", Json::Str(ev.clock.as_str().into())),
                ("pid", Json::Int(pid)),
                ("tid", Json::Int(0)),
                ("ts", Json::Int(ev.ts as i64)),
            ];
            match ev.kind {
                EventKind::Span { dur } => {
                    pairs.push(("ph", Json::Str("X".into())));
                    pairs.push(("dur", Json::Int(dur.max(1) as i64)));
                }
                EventKind::Instant | EventKind::Warning => {
                    pairs.push(("ph", Json::Str("i".into())));
                    pairs.push(("s", Json::Str("t".into())));
                }
            }
            pairs.push(("args", args));
            events.push(Json::obj(pairs));
        }
    }
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".into())),
    ])
}

/// The sibling path the Chrome rendering is written to:
/// `t.json` → `t.chrome.json` (an extensionless path gets `.chrome.json`
/// appended).
pub fn chrome_path(path: &str) -> String {
    match path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.chrome.json"),
        None => format!("{path}.chrome.json"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_obs::{ClockDomain, WallMark};

    fn sample() -> Recorder {
        let r = Recorder::new();
        r.span(
            "hls",
            "parse",
            ClockDomain::Seq,
            0,
            1,
            &[("functions", "3".to_string())],
            WallMark::none(),
        );
        r.instant("fpga", "descent-sweep", ClockDomain::Seq, 0, &[]);
        r.counter_add("hls", "compiles", 1);
        r.gauge_set("serve", "queue_depth", 123);
        r.observe("axi", "read_latency", &[8, 16], 9);
        r
    }

    #[test]
    fn trace_document_shape() {
        let doc = trace_document(&sample()).render();
        assert!(doc.contains("\"schema\": \"hermes-trace/v1\""));
        assert!(doc.contains("\"wall_channel\": false"));
        assert!(doc.contains("\"name\": \"parse\""));
        assert!(doc.contains("\"kind\": \"span\""));
        assert!(doc.contains("\"dur\": 1"));
        assert!(doc.contains("\"queue_depth\""));
        assert!(doc.contains("\"read_latency\""));
        assert_eq!(Json::parse(&doc), Ok(trace_document(&sample())));
    }

    #[test]
    fn wall_fields_live_on_wall_prefixed_keys() {
        let r = Recorder::with_wall();
        r.instant("s", "x", ClockDomain::Seq, 0, &[]);
        let doc = trace_document(&r).render();
        // the determinism gate strips lines containing `"wall`; every
        // wall-derived field must sit alone on such a line
        let stripped: Vec<&str> = doc.lines().filter(|l| !l.contains("\"wall")).collect();
        assert!(!stripped.iter().any(|l| l.contains("wall")));
        assert!(doc.lines().any(|l| l.contains("\"wall_ns\"")));
        assert_eq!(Json::parse(&doc), Ok(trace_document(&r)));
    }

    #[test]
    fn trace_links_and_drop_totals_are_exported() {
        let r = Recorder::new();
        let ctx = r.mint_trace();
        let root = r.trace_span("s", "request", ClockDomain::Cpu, 0, 10, &[], WallMark::none(), ctx);
        r.trace_span("s", "seg", ClockDomain::Cpu, 0, 10, &[], WallMark::none(), ctx.child(root));
        let doc = trace_document(&r).render();
        assert!(doc.contains("\"trace_id\""));
        assert!(doc.contains("\"span_id\""));
        assert!(doc.contains("\"parent_span\""));
        assert!(doc.contains("\"dropped_events\": 0"));
    }

    /// Warnings come from the recorder the document renders: a ring that
    /// overflowed in another recorder does not leak into this document.
    #[test]
    fn warnings_name_only_this_recorders_ring_drops() {
        let quiet = Recorder::new();
        quiet.instant("hls", "a", ClockDomain::Seq, 0, &[]);
        let full = Recorder::new().with_capacity(2);
        for ts in 0..3 {
            full.instant("fpga", "x", ClockDomain::Seq, ts, &[]);
            full.instant("axi", "y", ClockDomain::Seq, ts, &[]);
        }
        full.instant("hls", "z", ClockDomain::Seq, 0, &[]);
        assert!(trace_document(&quiet).render().contains("\"warnings\": []"));
        let doc = trace_document(&full).render();
        let keys: Vec<&str> = doc.lines().filter(|l| l.contains("\"key\"")).map(str::trim).collect();
        assert_eq!(
            keys,
            ["\"key\": \"obs-ring-drop:fpga\",", "\"key\": \"obs-ring-drop:axi\","]
        );
        assert!(doc.contains("\"dropped_events\": 2,"));
    }

    #[test]
    fn chrome_rendering_has_metadata_and_phases() {
        let doc = chrome_trace(&sample()).render();
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("\"process_name\""));
        assert!(doc.contains("\"ph\": \"X\""));
        assert!(doc.contains("\"ph\": \"i\""));
        assert_eq!(Json::parse(&doc), Ok(chrome_trace(&sample())));
    }

    #[test]
    fn chrome_path_is_sibling() {
        assert_eq!(chrome_path("t.json"), "t.chrome.json");
        assert_eq!(chrome_path("/tmp/a/trace.json"), "/tmp/a/trace.chrome.json");
        assert_eq!(chrome_path("trace"), "trace.chrome.json");
    }
}
