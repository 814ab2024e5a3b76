//! # hermes-par
//!
//! The std-only parallel execution engine of the HERMES workspace.
//!
//! Every layer of the flow — the per-kernel HLS→FPGA pipeline, the
//! Eucalyptus characterization sweep, the multi-start annealing placer,
//! and the chaos campaigns — consists of *independent, deterministic*
//! units of work. [`par_map`] runs such units across a scoped thread pool
//! (`std::thread::scope`, zero external dependencies, no leaked threads)
//! while preserving three invariants the rest of the workspace relies on:
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

/// [`par_map`] with an explicit worker count (`jobs >= 1`).
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

/// Core pool: `jobs` workers claiming `chunk` consecutive indices at a time
/// from a shared cursor. Shared by [`par_map_jobs`] (throughput chunking),
/// [`par_map_bounded_jobs`] (single-item claims, worker count clamped to
/// the in-flight bound), and [`par_map_indexed_jobs`] (index-space maps
/// with no backing slice).
#[allow(clippy::needless_range_loop)] // `i` indexes the logical 0..count space, not just `slots`
fn par_pool_indexed<R, F>(jobs: usize, chunk: usize, count: usize, f: F) -> Result<Vec<R>, ParError>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let n = count;
    let jobs = jobs.max(1).min(n.max(1));
    if jobs == 1 {
        // Serial fast path: same panic containment, no thread overhead.
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            match catch_unwind(AssertUnwindSafe(|| f(i))) {
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
                    let outcome = catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|p| ParError {
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

/// Slice adapter over [`par_pool_indexed`].
fn par_map_pool<T, R, F>(jobs: usize, chunk: usize, items: &[T], f: F) -> Result<Vec<R>, ParError>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_pool_indexed(jobs, chunk, items.len(), |i| f(&items[i]))
}

/// [`par_map_indexed`] with an explicit worker count (`jobs >= 1`).
///
/// Maps `f` over the index space `0..count` and returns the results in
/// index order — no backing slice to build, no per-call `Vec` of items.
/// This is the partition-fan-out primitive: the caller names how many
/// pieces of work exist and `f` resolves each one from shared state.
///
/// Two guarantees beyond [`par_map_jobs`]:
///
/// 1. `jobs == 1` or `count <= 1` runs the same calling-thread serial fast
///    path (never enters `std::thread::scope`).
/// 2. When `count <= jobs`, every index gets its own dedicated worker
///    thread (no shared cursor), so `f(i)` bodies may *cooperate* —
///    synchronize through barriers or atomics with the other indices —
///    without risking two indices landing on one thread. The partitioned
///    RTL settle relies on this to run one barrier-stepped worker per lane.
///
/// # Errors
///
/// Returns a [`ParError`] for the lowest index that panicked; all other
/// tasks still run to completion before this returns.
pub fn par_map_indexed_jobs<R, F>(jobs: usize, count: usize, f: F) -> Result<Vec<R>, ParError>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let jobs = jobs.max(1).min(count.max(1));
    if jobs == 1 || count <= 1 {
        return par_pool_indexed(1, 1, count, f);
    }
    if count <= jobs {
        // Dedicated-thread path: exactly one OS thread per index, results
        // collected from the join handles in index order (no Mutex slots).
        let mut joined: Vec<Result<R, ParError>> = Vec::with_capacity(count);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..count)
                .map(|i| {
                    let f = &f;
                    scope.spawn(move || f(i))
                })
                .collect();
            for (i, h) in handles.into_iter().enumerate() {
                joined.push(h.join().map_err(|p| ParError {
                    task: i,
                    message: panic_message(p),
                }));
            }
        });
        return joined.into_iter().collect();
    }
    let chunk = (count / (jobs * 4)).max(1);
    par_pool_indexed(jobs, chunk, count, f)
}

/// Map `f` over the index space `0..count` on the default worker count
/// ([`jobs`]), preserving index order in the result. See
/// [`par_map_indexed_jobs`] for the fast-path and cooperation guarantees.
///
/// # Errors
///
/// See [`par_map_indexed_jobs`].
pub fn par_map_indexed<R, F>(count: usize, f: F) -> Result<Vec<R>, ParError>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_indexed_jobs(jobs(), count, f)
}

/// Map `f` over `items` on the default worker count ([`jobs`]), preserving
/// input order in the result.
///
/// # Errors
///
/// See [`par_map_jobs`].
pub fn par_map<T, R, F>(items: &[T], f: F) -> Result<Vec<R>, ParError>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_jobs(jobs(), items, f)
}

/// [`par_map_bounded`] with an explicit worker count.
///
/// At most `min(jobs, bound)` items are in flight at any instant: each
/// worker claims exactly one index at a time (no chunk batching), and the
/// worker count itself is clamped to `bound`. `bound = 0` is treated as 1.
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

/// Map `f` over `items` with at most `bound` items concurrently in flight,
/// independent of the resolved worker count ([`jobs`]) — the backpressure
/// primitive: a serving pool with `bound` accelerator slots must never
/// evaluate more than `bound` requests at once no matter how wide the
/// machine is. Results preserve input order; a `bound` of 1 (or a
/// single-item input) takes the same calling-thread fast path as
/// `par_map_jobs(1, ..)`.
///
/// # Errors
///
/// See [`par_map_jobs`].
pub fn par_map_bounded<T, R, F>(bound: usize, items: &[T], f: F) -> Result<Vec<R>, ParError>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_bounded_jobs(jobs(), bound, items, f)
}

/// [`par_for_each`] with an explicit worker count.
///
/// # Errors
///
/// See [`par_map_jobs`].
pub fn par_for_each_jobs<T, F>(jobs: usize, items: &[T], f: F) -> Result<(), ParError>
where
    T: Sync,
    F: Fn(&T) + Sync,
{
    par_map_jobs(jobs, items, |item| f(item)).map(|_| ())
}

/// Run `f` for every item on the default worker count, discarding results.
///
/// # Errors
///
/// See [`par_map_jobs`].
pub fn par_for_each<T, F>(items: &[T], f: F) -> Result<(), ParError>
where
    T: Sync,
    F: Fn(&T) + Sync,
{
    par_for_each_jobs(jobs(), items, f)
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
        par_for_each_jobs(8, &items, |&x| {
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
    fn indexed_preserves_index_order() {
        for jobs in [1, 2, 4, 7] {
            let out = par_map_indexed_jobs(jobs, 257, |i| i * 3 + 1).unwrap();
            let expect: Vec<usize> = (0..257).map(|i| i * 3 + 1).collect();
            assert_eq!(out, expect, "order broken at jobs={jobs}");
        }
    }

    #[test]
    fn indexed_empty_single_and_fast_path() {
        let caller = std::thread::current().id();
        assert_eq!(par_map_indexed_jobs(4, 0, |i| i).unwrap(), Vec::<usize>::new());
        assert_eq!(par_map_indexed_jobs(4, 1, |i| i + 9).unwrap(), vec![9]);
        // jobs == 1: serial loop on the calling thread regardless of count.
        let tids = par_map_indexed_jobs(1, 3, |_| std::thread::current().id()).unwrap();
        assert!(tids.iter().all(|&t| t == caller), "jobs=1 must not spawn");
        // count == 1: serial loop regardless of requested jobs.
        let tids = par_map_indexed_jobs(8, 1, |_| std::thread::current().id()).unwrap();
        assert_eq!(tids, vec![caller], "one index must not spawn");
        // default-jobs wrapper agrees with the explicit form.
        let a = par_map_indexed(100, |i| i ^ 0xA5).unwrap();
        let b = par_map_indexed_jobs(1, 100, |i| i ^ 0xA5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn indexed_dedicated_threads_when_count_le_jobs() {
        // count <= jobs: every index must land on its own thread, so the
        // bodies may synchronize with each other (the partitioned settle
        // contract). Prove it with a barrier that would deadlock if any
        // thread ran two indices.
        let count = 4;
        let barrier = std::sync::Barrier::new(count);
        let out = par_map_indexed_jobs(8, count, |i| {
            barrier.wait();
            i * 10
        })
        .unwrap();
        assert_eq!(out, vec![0, 10, 20, 30]);
        // distinct thread per index
        let tids = par_map_indexed_jobs(8, count, |_| std::thread::current().id()).unwrap();
        let unique: std::collections::HashSet<_> = tids.iter().collect();
        assert_eq!(unique.len(), count, "each index gets a dedicated thread");
    }

    #[test]
    fn indexed_panic_becomes_err_not_abort() {
        for (jobs, count) in [(1, 64), (4, 64), (8, 4)] {
            let err = par_map_indexed_jobs(jobs, count, |i| {
                assert!(i != 3, "indexed boom at {i}");
                i
            })
            .unwrap_err();
            assert_eq!(err.task, 3, "lowest failing index, jobs={jobs} count={count}");
            assert!(err.message.contains("indexed boom at 3"), "got: {err}");
        }
    }

    #[test]
    fn indexed_matches_slice_map() {
        let items: Vec<u64> = (0..100).collect();
        let by_slice = par_map_jobs(4, &items, |&x| x.wrapping_mul(31)).unwrap();
        let by_index = par_map_indexed_jobs(4, items.len(), |i| items[i].wrapping_mul(31)).unwrap();
        assert_eq!(by_slice, by_index);
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
