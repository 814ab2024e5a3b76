//! Parallel experiments must render bit-identical output at any worker
//! count: every fan-out in the harness merges results in input order, so
//! the worker count is a pure throughput knob, never a results knob.

use hermes_obs::Recorder;

#[test]
fn e1_parallel_matches_serial() {
    let serial = hermes_bench::e1_hls_flow::run(1, &Recorder::disabled()).text;
    let parallel = hermes_bench::e1_hls_flow::run(4, &Recorder::disabled()).text;
    assert_eq!(serial, parallel);
}

#[test]
fn e2_parallel_matches_serial() {
    let serial = hermes_bench::e2_fpga_flow::run(1, &Recorder::disabled()).text;
    let parallel = hermes_bench::e2_fpga_flow::run(4, &Recorder::disabled()).text;
    assert_eq!(serial, parallel);
}

#[test]
fn e3_parallel_matches_serial() {
    let serial = hermes_bench::e3_characterization::run(1, &Recorder::disabled()).text;
    let parallel = hermes_bench::e3_characterization::run(4, &Recorder::disabled()).text;
    assert_eq!(serial, parallel);
}

#[test]
fn e7_parallel_matches_serial() {
    let serial = hermes_bench::e7_usecases::run(1, &Recorder::disabled()).text;
    let parallel = hermes_bench::e7_usecases::run(4, &Recorder::disabled()).text;
    assert_eq!(serial, parallel);
}

#[test]
fn e10_parallel_matches_serial() {
    let serial = hermes_bench::e10_chaos::run(1, &Recorder::disabled()).text;
    let parallel = hermes_bench::e10_chaos::run(4, &Recorder::disabled()).text;
    assert_eq!(serial, parallel);
}

/// E16 settles serially whatever the worker count: its tables (engine
/// equivalence verdicts, cycle counts) must not move with `--jobs`.
#[test]
fn e16_parallel_matches_serial() {
    let serial = hermes_bench::e16_wordparallel::run(1, &Recorder::disabled()).text;
    let parallel = hermes_bench::e16_wordparallel::run(4, &Recorder::disabled()).text;
    let strip = |text: &str| {
        text.lines()
            .filter(|l| !l.contains("completed in"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&serial), strip(&parallel));
}

/// E18's legs all run inline; like every other experiment its tables
/// (tick ledgers, wheel counters, identity verdicts) must not move with
/// the worker count.
#[test]
fn e18_parallel_matches_serial() {
    let serial = hermes_bench::e18_eventkernel::run(1, &Recorder::disabled()).text;
    let parallel = hermes_bench::e18_eventkernel::run(4, &Recorder::disabled()).text;
    assert_eq!(serial, parallel);
}

/// E19's fleet evaluates every shard's payloads inline; its chaos+scaler
/// point (the E19d replay, public as `identity_run`) must replay
/// byte-identically. The full experiment is additionally diffed at
/// `--jobs 1` vs `--jobs 4` by the ci.sh release-binary gate.
#[test]
fn e19_parallel_matches_serial() {
    let first = hermes_bench::e19_fleet::identity_run(true);
    let replay = hermes_bench::e19_fleet::identity_run(true);
    assert!(first.accounted(), "{first:?}");
    assert_eq!(first, replay, "fleet reports identical on replay");
    assert_eq!(first.render(), replay.render(), "fleet renders byte-identical");
}

/// The fleet steps on the kernel timer wheel; forcing the reference
/// scheduler instead must not move results either.
#[test]
fn e19_event_kernel_knob_never_moves_results() {
    let on = hermes_bench::e19_fleet::identity_run(true);
    let off = hermes_bench::e19_fleet::identity_run(false);
    assert_eq!(on, off, "fleet reports identical across the knob");
    assert_eq!(on.render(), off.render(), "fleet renders byte-identical");
}

/// The event-kernel selection holds the same contract as the worker
/// count: it moves *when work happens on the host*, never *what the
/// simulation computes*. Replay E18's serving leg (E14-shaped: chaos on
/// the pool) and hypervisor leg (E10-shaped: crashes, restarts, an
/// expiring watchdog) with the kernel forced on and off through the
/// typed `with_event_kernel` / `set_event_kernel` hooks and require
/// byte-identical outcomes.
#[test]
fn event_kernel_knob_never_moves_results() {
    let (r_off, _) = hermes_bench::e18_eventkernel::serve_run(false);
    let (r_on, _) = hermes_bench::e18_eventkernel::serve_run(true);
    assert_eq!(r_off, r_on, "serve reports identical across the knob");
    assert_eq!(r_off.render(), r_on.render(), "serve renders byte-identical");

    let off = hermes_bench::e18_eventkernel::xng_run(false);
    let on = hermes_bench::e18_eventkernel::xng_run(true);
    assert_eq!(off.time(), on.time(), "hypervisor clocks agree");
    assert_eq!(off.hm_escalations, on.hm_escalations);
    assert_eq!(off.health().log(), on.health().log(), "HM timeline identical");
}

/// The flight recorder holds the same contract as the tables: a trace
/// taken serial must be bit-identical to one taken 4-wide (the wall
/// channel is off here; ci.sh additionally gates the wall-stripped
/// `--trace` output of the full binary).
#[test]
fn trace_document_matches_across_worker_counts() {
    let doc = |jobs: usize| {
        let obs = Recorder::new();
        hermes_bench::e1_hls_flow::run(jobs, &obs);
        hermes_bench::e10_chaos::run(jobs, &obs);
        assert_eq!(obs.snapshot().dropped_total(), 0, "ring overflow truncated the trace");
        hermes_bench::trace::trace_document(&obs).render()
    };
    let serial = doc(1);
    assert_eq!(serial, doc(4));
    assert!(serial.contains("\"schema\": \"hermes-trace/v1\""));
    assert!(serial.contains("\"fault-injected\""));
}
