//! The workspace's one worker pool: scoped fork-join over the cores.
//!
//! Everything that runs on more than one core goes through the two
//! calls here: [`parallel_map`] for a list of independent items (the
//! embedding grid, the downstream rows, the row blocks of a GEMM, the row
//! ranges of a sparse product or a PPMI refresh, the planned documents of
//! a corpus or dataset) and [`join`] for two independent lanes (the
//! retrain step's training lane beside its gate reference). Workers are
//! scoped threads started per call; there is no standing pool to
//! configure or shut down.
//!
//! **Width.** [`THREADS_ENV`] (`EMBEDSTAB_THREADS`) sets the worker count
//! of every call; unset, it is the detected parallelism. It is read once
//! per process.
//!
//! **No nesting.** A call made from inside a pool worker runs inline on
//! that worker's thread, so the sweep's per-row workers never start
//! threads of their own for the GEMMs inside a row. The caller of
//! [`join`] runs its first closure with its own nesting state, so that
//! lane may still split its loops while the second lane, a worker, runs
//! inline.
//!
//! **Determinism.** Callers give each item (or lane) a fixed piece of
//! the output with a fixed order of arithmetic inside it, so results are
//! bitwise independent of the worker count and of scheduling.
//! [`parallel_map`] returns results in input order.
//!
//! **Panics.** A panicking worker's payload is re-raised on the caller
//! with [`std::panic::resume_unwind`] once every worker has stopped.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The environment variable that overrides the pool's worker count.
///
/// Useful for pinning benchmark runs to a fixed width (the serving
/// load-generator records it alongside its results) and for containers
/// where `available_parallelism` sees the host's cores rather than the
/// cgroup quota. Parsed as a decimal worker count and clamped to at least
/// 1; unset, empty, or unparseable values fall back to the detected
/// parallelism.
pub const THREADS_ENV: &str = "EMBEDSTAB_THREADS";

thread_local! {
    /// Whether the current thread is running pool work.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a pool worker until dropped, restoring
/// the previous state (also when unwinding).
struct WorkerMark(bool);

impl WorkerMark {
    fn enter() -> WorkerMark {
        WorkerMark(IN_WORKER.with(|w| w.replace(true)))
    }
}

impl Drop for WorkerMark {
    fn drop(&mut self) {
        IN_WORKER.with(|w| w.set(self.0));
    }
}

/// The worker count: the `EMBEDSTAB_THREADS` override when set (clamped
/// to ≥ 1), else `available`.
fn worker_count(available: usize, env_override: Option<&str>) -> usize {
    match env_override.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) => n.max(1),
        None => available.max(1),
    }
}

/// How many threads a pool call made here may use: 1 inside a worker,
/// else the process's configured width.
pub(crate) fn threads() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    *WIDTH.get_or_init(|| {
        let available = std::thread::available_parallelism().map_or(1, |n| n.get());
        worker_count(available, std::env::var(THREADS_ENV).ok().as_deref())
    })
}

/// Runs `f` over `items` on up to the pool's width of workers (the
/// caller is one of them), returning results in input order.
///
/// Workers pull indices from a shared atomic counter, so long items only
/// delay their own slot. With one item, one thread, or inside a worker,
/// the map runs inline. `f` must be deterministic per item for the
/// pipeline's reproducibility guarantees to hold.
pub fn parallel_map<I: Sync, T: Send>(items: &[I], f: impl Fn(&I) -> T + Sync) -> Vec<T> {
    let workers = threads().min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let work = || {
        let _mark = WorkerMark::enter();
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break done;
            }
            done.push((i, f(&items[i])));
        }
    };
    let mut results = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut all = work();
        for helper in helpers {
            match helper.join() {
                Ok(done) => all.extend(done),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        all
    });
    results.sort_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, t)| t).collect()
}

/// Runs `a` and `b` at the same time and returns `(a(), b())`.
///
/// `a` runs on the calling thread, `b` on a worker. With one thread, or
/// inside a worker, both run inline, `a` first.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if threads() <= 1 {
        let ra = a();
        return (ra, b());
    }
    std::thread::scope(|scope| {
        let lane = scope.spawn(|| {
            let _mark = WorkerMark::enter();
            b()
        });
        let ra = a();
        match lane.join() {
            Ok(rb) => (ra, rb),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::{self, ThreadId};

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&items, |&i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_input() {
        let items: Vec<usize> = Vec::new();
        assert!(parallel_map(&items, |&i| i).is_empty());
    }

    #[test]
    fn join_returns_both_results_in_order() {
        let (a, b) = join(|| "left", || 2 + 2);
        assert_eq!((a, b), ("left", 4));
        let items: Vec<u64> = (0..50).collect();
        let (sum, squares) = join(
            || items.iter().sum::<u64>(),
            || parallel_map(&items, |&i| i * i),
        );
        assert_eq!(sum, 1225);
        assert_eq!(squares[7], 49);
    }

    #[test]
    fn nested_calls_run_on_the_calling_workers_thread() {
        let items: Vec<usize> = (0..8).collect();
        let nested = parallel_map(&items, |_| {
            let outer = thread::current().id();
            let inner: Vec<ThreadId> = parallel_map(&[0u8; 16], |_| thread::current().id());
            let (a, b) = join(|| thread::current().id(), || thread::current().id());
            (outer, inner, a, b, threads())
        });
        for (outer, inner, a, b, width) in nested {
            assert!(inner.iter().all(|&t| t == outer));
            assert_eq!((a, b), (outer, outer));
            assert_eq!(width, 1);
        }
        // `join`'s second lane is a worker too.
        let (_, (lane, inner)) = join(
            || (),
            || {
                let lane = thread::current().id();
                (lane, parallel_map(&[0u8; 16], |_| thread::current().id()))
            },
        );
        assert!(inner.iter().all(|&t| t == lane));
    }

    #[test]
    fn worker_panic_reaches_the_caller_with_its_payload() {
        let items: Vec<usize> = (0..64).collect();
        let caught = std::panic::catch_unwind(|| {
            parallel_map(&items, |&i| {
                if i == 63 {
                    std::panic::panic_any(i);
                }
                i
            })
        });
        let payload = caught.expect_err("the panic propagates");
        assert_eq!(payload.downcast_ref::<usize>(), Some(&63));
        // The thread that caught it is not left marked as a worker.
        assert!(!IN_WORKER.with(Cell::get));
    }

    #[test]
    fn worker_count_honors_override_and_clamps() {
        // No override: the detected parallelism, itself clamped to ≥ 1.
        assert_eq!(worker_count(8, None), 8);
        assert_eq!(worker_count(0, None), 1);
        // A valid override wins over detection (both directions).
        assert_eq!(worker_count(8, Some("2")), 2);
        assert_eq!(worker_count(2, Some("16")), 16);
        assert_eq!(worker_count(8, Some(" 3 ")), 3);
        // Zero is clamped to one worker, never a stalled pool.
        assert_eq!(worker_count(8, Some("0")), 1);
        // Garbage falls back to detection.
        assert_eq!(worker_count(8, Some("")), 8);
        assert_eq!(worker_count(8, Some("lots")), 8);
        assert_eq!(worker_count(8, Some("-2")), 8);
    }
}
