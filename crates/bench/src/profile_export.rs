//! Profile export: render the deterministic post-hoc profiling pass
//! ([`hermes_obs::profile`]) as the `hermes-profile/v1` JSON document
//! behind `experiments --profile <path>`, plus a collapsed-stack
//! flamegraph sibling (`<path minus .json>.folded`, one
//! `sub:name;sub:name value` line per stack — feed it straight to
//! `flamegraph.pl` or speedscope).
//!
//! Everything in a [`Profile`] derives from simulated clocks and
//! construction-order trace ids, so the rendered document is
//! byte-identical across worker counts — ci.sh diffs a `--jobs 1`
//! profile against a `--jobs 4` one with no stripping at all.

use crate::json::Json;
use hermes_obs::profile::Profile;

/// Render a profile as the `hermes-profile/v1` document.
pub fn profile_document(prof: &Profile) -> Json {
    let spans = prof
        .spans
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("subsystem", Json::Str(s.subsystem.clone())),
                ("name", Json::Str(s.name.clone())),
                ("clock", Json::Str(s.clock.into())),
                ("count", Json::Int(s.count as i64)),
                ("total", Json::Int(s.total as i64)),
                ("self_time", Json::Int(s.self_time as i64)),
            ])
        })
        .collect();
    let requests = prof
        .requests
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("trace_id", Json::Int(r.trace_id as i64)),
                ("name", Json::Str(r.name.clone())),
                ("start", Json::Int(r.start as i64)),
                ("latency", Json::Int(r.latency as i64)),
                ("exact", Json::Bool(r.exact)),
                (
                    "segments",
                    Json::Arr(
                        r.segments
                            .iter()
                            .map(|seg| {
                                Json::obj(vec![
                                    ("name", Json::Str(seg.name.clone())),
                                    ("dur", Json::Int(seg.dur as i64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let segment_totals = prof
        .segment_totals()
        .into_iter()
        .map(|(name, total)| {
            Json::obj(vec![
                ("name", Json::Str(name)),
                ("total", Json::Int(total as i64)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::Str("hermes-profile/v1".into())),
        ("dropped_events", Json::Int(prof.dropped_events as i64)),
        ("spans", Json::Arr(spans)),
        ("requests", Json::Arr(requests)),
        ("segment_totals", Json::Arr(segment_totals)),
    ])
}

/// Render the collapsed-stack flamegraph body: one `stack value` line
/// per folded stack, sorted (as [`Profile::folded`] already is) so the
/// rendering is deterministic.
pub fn folded_stacks(prof: &Profile) -> String {
    let mut s = String::new();
    for (stack, value) in &prof.folded {
        s.push_str(stack);
        s.push(' ');
        s.push_str(&value.to_string());
        s.push('\n');
    }
    s
}

/// The sibling path the folded rendering is written to:
/// `p.json` → `p.folded` (an extensionless path gets `.folded`
/// appended).
pub fn folded_path(path: &str) -> String {
    match path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.folded"),
        None => format!("{path}.folded"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_obs::profile::profile;
    use hermes_obs::{ClockDomain, Recorder, WallMark};

    fn sample_profile() -> Profile {
        let r = Recorder::new();
        let ctx = r.mint_trace();
        let root =
            r.trace_span("serve", "request", ClockDomain::Cpu, 0, 30, &[], WallMark::none(), ctx);
        let child = ctx.child(root);
        r.trace_span("serve", "queue-wait", ClockDomain::Cpu, 0, 10, &[], WallMark::none(), child);
        r.trace_span("serve", "service", ClockDomain::Cpu, 10, 20, &[], WallMark::none(), child);
        profile(&r.snapshot())
    }

    #[test]
    fn document_shape_and_determinism() {
        let prof = sample_profile();
        let doc = profile_document(&prof).render();
        assert!(doc.contains("\"schema\": \"hermes-profile/v1\""));
        assert!(doc.contains("\"name\": \"request\""));
        assert!(doc.contains("\"exact\": true"));
        assert!(doc.contains("\"segment_totals\""));
        assert!(doc.contains("\"dropped_events\": 0"));
        assert_eq!(doc, profile_document(&sample_profile()).render());
        assert_eq!(Json::parse(&doc), Ok(profile_document(&prof)));
        assert!(!doc.contains("wall"), "profiles carry no wall-clock channel");
    }

    #[test]
    fn folded_rendering_is_flamegraph_shaped() {
        let prof = sample_profile();
        let folded = folded_stacks(&prof);
        assert!(folded.contains("serve:request;serve:queue-wait 10\n"));
        assert!(folded.contains("serve:request;serve:service 20\n"));
        // root has zero self-time here (fully decomposed): not emitted
        assert!(!folded.lines().any(|l| l.starts_with("serve:request ")));
    }

    #[test]
    fn folded_path_is_sibling() {
        assert_eq!(folded_path("p.json"), "p.folded");
        assert_eq!(folded_path("/tmp/x/profile.json"), "/tmp/x/profile.folded");
        assert_eq!(folded_path("prof"), "prof.folded");
    }
}
