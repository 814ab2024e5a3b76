//! Parallel experiments must render bit-identical output at any worker
//! count: every fan-out in the harness merges results in input order, so
//! the worker count is a pure throughput knob, never a results knob.

use hermes_obs::hash::Fnv1a;
use hermes_obs::Recorder;
use hermes_xng::PartitionId;

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

/// E18's legs all run inline; like every other experiment its tick
/// ledger must not move with the worker count.
#[test]
fn e18_parallel_matches_serial() {
    let serial = hermes_bench::e18_eventkernel::run(1, &Recorder::disabled()).text;
    let parallel = hermes_bench::e18_eventkernel::run(4, &Recorder::disabled()).text;
    assert_eq!(serial, parallel);
}

/// E19's fleet evaluates every shard's payloads inline; its chaos+scaler
/// point (public as `identity_run`) must replay byte-identically. The
/// full experiment is additionally diffed at `--jobs 1` vs `--jobs 4` by
/// the ci.sh release-binary gate, and `fleet_identity.rs` pins a digest
/// of three fleets' reports.
#[test]
fn e19_parallel_matches_serial() {
    let first = hermes_bench::e19_fleet::identity_run();
    let replay = hermes_bench::e19_fleet::identity_run();
    assert!(first.accounted(), "{first:?}");
    assert_eq!(first, replay, "fleet reports identical on replay");
    assert_eq!(first.render(), replay.render(), "fleet renders byte-identical");
}

/// Digest of E18's three legs, recorded from the polling engines before
/// the event-kernel knob was removed: the sorted-reference scheduler for
/// serve, the per-tick loops for XNG and AXI.
const E18_POLLED_DIGEST: u64 = 0x7b89_6546_e81b_3b5c;

/// Fast-forward moves *when work happens on the host*, never *what the
/// simulation computes*. E18's serving leg (E14-shaped: chaos on the
/// pool), hypervisor leg (E10-shaped: crashes, restarts, an expiring
/// watchdog) and AXI leg (SLVERR retries, a timeout, idle gaps) jump to
/// their next due tick and must reproduce the digest the polling engines
/// recorded: the serve report render; the hypervisor's clock,
/// escalations, HM log and per-partition stats; the AXI per-operation
/// costs and bus statistics.
#[test]
fn event_kernel_knob_never_moves_results() {
    use hermes_bench::e18_eventkernel::{axi_run, serve_run, xng_run};
    let mut h = Fnv1a::new();
    let (report, _) = serve_run();
    h.str(&report.render());
    let hv = xng_run();
    h.u64(hv.time());
    h.u64(hv.hm_escalations);
    h.str(&format!("{:?}", hv.health().log()));
    for pid in (0..3u32).map(PartitionId) {
        h.str(&format!("{:?}", hv.stats(pid)));
    }
    let (tb, costs) = axi_run();
    for c in costs {
        h.u64(c);
    }
    h.str(&format!("{:?}", tb.stats()));
    assert_eq!(h.finish(), E18_POLLED_DIGEST, "E18 digest moved: {:#018x}", h.finish());
}

/// Scheduler passes of E18's serve, XNG and AXI legs, recorded when every
/// wake still came off a timer wheel. The digest above pins results; this
/// pins how much work fast-forward leaves, so a wake rule that also woke
/// on ticks with nothing due fails here.
const E18_POLLED: [u64; 3] = [1128, 474, 59];

#[test]
fn e18_polled_ticks_are_pinned() {
    use hermes_bench::e18_eventkernel::{axi_run, serve_run, xng_run};
    let (_, engine) = serve_run();
    let polled = [engine.wakes(), xng_run().ticks_polled(), axi_run().0.ticks_polled()];
    assert_eq!(polled, E18_POLLED, "serve wakes, XNG and AXI polled ticks");
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
