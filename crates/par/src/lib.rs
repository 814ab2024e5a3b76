//! # hermes-par
//!
//! The std-only parallel execution engine of the HERMES workspace.
//!
//! The coarse fan-outs of the workspace — the per-kernel HLS→FPGA
//! pipeline, the Eucalyptus characterization sweep and the chaos
//! campaigns — consist of *independent, deterministic* units of work.
//! [`par_map_jobs`] runs such units across a scoped thread pool
//! (`std::thread::scope`, zero external dependencies, no leaked threads)
//! while preserving three invariants the rest of the workspace relies
//! on:
//!
//! 1. **Deterministic ordering** — results come back in input order, so a
//!    parallel run renders bit-identical tables to a serial run.
//! 2. **Panic containment** — a panicking task becomes an [`Err`] on the
//!    calling thread instead of aborting the whole process; the remaining
//!    tasks still complete.
//! 3. **Self-scheduling** — workers claim chunks of the index space from a
//!    shared atomic cursor (chunked work stealing), so one slow unit does
//!    not idle the other lanes.
//!
//! Worker count resolves, in order: an explicit `jobs` argument
//! ([`par_map_jobs`]), a process-wide programmatic override
//! ([`set_jobs_override`], how the experiments binary's `--jobs` flag is
//! implemented), and finally [`std::thread::available_parallelism`].
//! `jobs = 1` (or a single-item input) takes a fast path that never
//! enters `std::thread::scope`: a plain serial loop on the *calling
//! thread* with identical results and panic→`Err` semantics — E11c showed
//! thread-spawn overhead inverting speedup on small workloads, so the
//! degenerate cases must not pay it.
//!
//! Fan out only at a coarse grain. A hand-off to a worker costs tens of
//! microseconds, so each unit must do far more work than that to pay;
//! per-request and per-settle-pass work runs inline instead.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A worker task panicked; the panic was captured and converted into an
/// error instead of aborting the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParError {
    /// Index of the input item whose task panicked (lowest index wins when
    /// several tasks fail).
    pub task: usize,
    /// Panic payload rendered as text (`&str`/`String` payloads verbatim).
    pub message: String,
}

impl fmt::Display for ParError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parallel task {} panicked: {}", self.task, self.message)
    }
}

impl std::error::Error for ParError {}

fn machine_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Process-wide worker-count override (0 = no override). Set by CLI
/// flags; consulted by [`jobs`] before the machine default.
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Pin the default worker count for the whole process. `Some(n)` (n ≥ 1)
/// pins; `None` restores the machine default. This is how the
/// experiments binary implements `--jobs`.
pub fn set_jobs_override(jobs: Option<usize>) {
    JOBS_OVERRIDE.store(jobs.unwrap_or(0), Ordering::Relaxed);
}

/// Resolve the default worker count: the [`set_jobs_override`] value if
/// pinned, otherwise the machine's available parallelism (1 on failure).
pub fn jobs() -> usize {
    match JOBS_OVERRIDE.load(Ordering::Relaxed) {
        0 => machine_parallelism(),
        pinned => pinned,
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Map `f` over `items` on `jobs` workers (`jobs >= 1`).
///
/// Results are returned in input order regardless of completion order.
///
/// # Errors
///
/// Returns a [`ParError`] for the lowest-indexed task that panicked. All
/// claimed tasks run to completion (or containment) before this returns;
/// no thread outlives the call.
pub fn par_map_jobs<T, R, F>(jobs: usize, items: &[T], f: F) -> Result<Vec<R>, ParError>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    // Default chunking: small enough to balance uneven task costs, large
    // enough to keep cursor contention negligible.
    let n = items.len();
    let chunk = (n / (jobs.max(1) * 4)).max(1);
    par_map_pool(jobs, chunk, items, f)
}

/// Core pool: `jobs` workers claiming `chunk` consecutive items at a time
/// from a shared cursor. Shared by [`par_map_jobs`] (throughput chunking)
/// and [`par_map_bounded_jobs`] (single-item claims, worker count clamped
/// to the in-flight bound).
#[allow(clippy::needless_range_loop)] // `i` indexes both `items` and `slots`
fn par_map_pool<T, R, F>(jobs: usize, chunk: usize, items: &[T], f: F) -> Result<Vec<R>, ParError>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let jobs = jobs.max(1).min(n.max(1));
    if jobs == 1 {
        // Serial fast path: same panic containment, no thread overhead.
        let mut out = Vec::with_capacity(n);
        for (i, item) in items.iter().enumerate() {
            match catch_unwind(AssertUnwindSafe(|| f(item))) {
                Ok(r) => out.push(r),
                Err(p) => {
                    return Err(ParError {
                        task: i,
                        message: panic_message(p),
                    })
                }
            }
        }
        return Ok(out);
    }

    // Chunked self-scheduling: workers claim `chunk` consecutive indices at
    // a time from a shared cursor.
    let chunk = chunk.max(1);
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, ParError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                for i in start..(start + chunk).min(n) {
                    let outcome =
                        catch_unwind(AssertUnwindSafe(|| f(&items[i]))).map_err(|p| ParError {
                            task: i,
                            message: panic_message(p),
                        });
                    *slots[i].lock().expect("result slot poisoned") = Some(outcome);
                }
            });
        }
    });

    let mut out = Vec::with_capacity(n);
    for (i, slot) in slots.into_iter().enumerate() {
        match slot.into_inner().expect("result slot poisoned") {
            Some(Ok(r)) => out.push(r),
            Some(Err(e)) => return Err(e),
            None => {
                return Err(ParError {
                    task: i,
                    message: "task was never executed".into(),
                })
            }
        }
    }
    Ok(out)
}

/// Map `f` over `items` on `jobs` workers with at most `min(jobs, bound)`
/// items in flight at any instant: each worker claims exactly one index
/// at a time (no chunk batching), and the worker count itself is clamped
/// to `bound`. `bound = 0` is treated as 1. Results preserve input order.
///
/// No library calls this any more. Kept for perfbench; delete with the
/// next benchmark change.
///
/// # Errors
///
/// See [`par_map_jobs`].
pub fn par_map_bounded_jobs<T, R, F>(
    jobs: usize,
    bound: usize,
    items: &[T],
    f: F,
) -> Result<Vec<R>, ParError>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_pool(jobs.min(bound.max(1)), 1, items, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        for jobs in [1, 2, 4, 7] {
            let out = par_map_jobs(jobs, &items, |&x| x * 3 + 1).unwrap();
            let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
            assert_eq!(out, expect, "order broken at jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let none: Vec<u32> = vec![];
        assert_eq!(par_map_jobs(4, &none, |&x| x).unwrap(), Vec::<u32>::new());
        assert_eq!(par_map_jobs(4, &[9u32], |&x| x + 1).unwrap(), vec![10]);
    }

    #[test]
    fn panic_becomes_err_not_abort() {
        let items: Vec<u32> = (0..64).collect();
        for jobs in [1, 4] {
            let err = par_map_jobs(jobs, &items, |&x| {
                assert!(x != 13, "boom at {x}");
                x
            })
            .unwrap_err();
            assert_eq!(err.task, 13, "lowest failing index reported");
            assert!(err.message.contains("boom at 13"), "payload kept: {err}");
        }
    }

    #[test]
    fn all_tasks_execute_exactly_once() {
        let counter = AtomicU64::new(0);
        let items: Vec<u64> = (0..1000).collect();
        let sum = AtomicU64::new(0);
        par_map_jobs(8, &items, |&x| {
            counter.fetch_add(1, Ordering::Relaxed);
            sum.fetch_add(x, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn parallel_equals_serial() {
        let items: Vec<u64> = (0..100).collect();
        let serial = par_map_jobs(1, &items, |&x| x.wrapping_mul(0x9E3779B9).rotate_left(7)).unwrap();
        let parallel =
            par_map_jobs(4, &items, |&x| x.wrapping_mul(0x9E3779B9).rotate_left(7)).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn jobs_resolves_positive() {
        assert!(jobs() >= 1);
    }

    #[test]
    fn fast_path_stays_on_calling_thread() {
        let caller = std::thread::current().id();
        // jobs == 1: serial loop regardless of item count.
        let tids = par_map_jobs(1, &[1u32, 2, 3], |_| std::thread::current().id()).unwrap();
        assert!(tids.iter().all(|&t| t == caller), "jobs=1 must not spawn");
        // single item: serial loop regardless of requested jobs.
        let tids = par_map_jobs(8, &[42u32], |_| std::thread::current().id()).unwrap();
        assert_eq!(tids, vec![caller], "one item must not spawn");
        // and the fast path still returns identical results...
        let items: Vec<u64> = (0..33).collect();
        let fast = par_map_jobs(1, &items, |&x| x ^ 0xA5).unwrap();
        let pooled = par_map_jobs(4, &items, |&x| x ^ 0xA5).unwrap();
        assert_eq!(fast, pooled);
        // ...and the same panic -> Err semantics as the pool.
        let err = par_map_jobs(8, &[7u32], |_| -> u32 { panic!("lone boom") }).unwrap_err();
        assert_eq!(err.task, 0);
        assert!(err.message.contains("lone boom"), "got: {err}");
    }

    #[test]
    fn bounded_never_exceeds_bound_and_keeps_order() {
        let items: Vec<u64> = (0..96).collect();
        let in_flight = AtomicU64::new(0);
        let high_water = AtomicU64::new(0);
        let bound = 3u64;
        let out = par_map_bounded_jobs(8, bound as usize, &items, |&x| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            high_water.fetch_max(now, Ordering::SeqCst);
            // a little work so claims genuinely overlap
            let mut acc = x;
            for i in 0..500u64 {
                acc = acc.wrapping_mul(31).wrapping_add(i);
            }
            in_flight.fetch_sub(1, Ordering::SeqCst);
            (x, acc)
        })
        .unwrap();
        assert!(
            high_water.load(Ordering::SeqCst) <= bound,
            "in-flight exceeded bound: {}",
            high_water.load(Ordering::SeqCst)
        );
        let got: Vec<u64> = out.iter().map(|&(x, _)| x).collect();
        assert_eq!(got, items, "input order preserved");
    }

    #[test]
    fn bounded_matches_unbounded_results() {
        let items: Vec<u64> = (0..64).collect();
        let plain = par_map_jobs(4, &items, |&x| x.wrapping_mul(0x9E3779B9)).unwrap();
        for bound in [1, 2, 5, 64, 1000] {
            let bounded =
                par_map_bounded_jobs(4, bound, &items, |&x| x.wrapping_mul(0x9E3779B9)).unwrap();
            assert_eq!(bounded, plain, "bound={bound}");
        }
    }

    #[test]
    fn bounded_fast_path_and_zero_bound() {
        let caller = std::thread::current().id();
        // bound 1 clamps to the serial fast path: no threads spawned
        let tids = par_map_bounded_jobs(8, 1, &[1u32, 2, 3], |_| std::thread::current().id())
            .unwrap();
        assert!(tids.iter().all(|&t| t == caller), "bound=1 must not spawn");
        // bound 0 is treated as 1, not a deadlocked empty pool
        let out = par_map_bounded_jobs(8, 0, &[5u32, 6], |&x| x * 2).unwrap();
        assert_eq!(out, vec![10, 12]);
    }

    #[test]
    fn bounded_panic_becomes_err() {
        let items: Vec<u32> = (0..32).collect();
        for bound in [1, 3] {
            let err = par_map_bounded_jobs(4, bound, &items, |&x| {
                assert!(x != 7, "bounded boom at {x}");
                x
            })
            .unwrap_err();
            assert_eq!(err.task, 7, "lowest failing index, bound={bound}");
            assert!(err.message.contains("bounded boom at 7"), "got: {err}");
        }
    }

    #[test]
    fn jobs_override_pins_and_clears() {
        set_jobs_override(Some(5));
        let pinned = jobs();
        set_jobs_override(None);
        let unpinned = jobs();
        assert_eq!(pinned, 5, "override wins over the machine default");
        assert_eq!(unpinned, machine_parallelism(), "clearing restores the machine default");
    }
}
