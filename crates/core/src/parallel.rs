//! Shared infrastructure for the selectors' multi-threaded candidate
//! sweeps.
//!
//! The selectors' per-candidate work (one perturbation front each) is
//! independent except for the pruning threshold `Max_S`, so the sweeps
//! parallelize with a few small pieces instead of a scheduler
//! dependency:
//!
//! * [`run_workers`] — spawns a sweep's workers, worker 0 on the calling
//!   thread, and collects their results in worker-index order. The
//!   pruned selector's workers share one locked heap on top of it.
//! * [`WorkQueue`] / [`run_indexed`] — a shared atomic cursor over an
//!   indexed work list, and the claim/scatter loop on top of it.
//!   Workers *steal* the next unclaimed index whenever they finish their
//!   current item, so load balances automatically even when candidate
//!   costs vary by orders of magnitude.
//! * [`normalize_threads`] / [`default_threads`] — the thread-count knob
//!   semantics shared by every selector (mirroring
//!   [`MonteCarlo::with_threads`](statsize_ssta::MonteCarlo::with_threads)).
//! * [`SpareThreads`] — a campaign's work-conserving thread pool: the
//!   part of the budget no shard is using (the remainder of the split,
//!   and the threads of shards that found the job queue empty), lent
//!   whole to each selector sweep that starts and returned by a drop
//!   guard when it ends.
//!
//! Every selector reduces its workers' results in the same deterministic
//! order for every thread count, so results are bit-identical for every
//! thread count.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding every selector's default thread count
/// (explicit [`with_threads`](crate::PrunedSelector::with_threads) calls
/// still win). CI sets it to run every selector on several workers
/// through the whole test suite.
pub const THREADS_ENV: &str = "STATSIZE_SELECTOR_THREADS";

/// The default selector thread count: [`THREADS_ENV`] when set to a
/// positive integer, otherwise 1 (one worker, on the calling thread —
/// parallelism is opt-in).
///
/// Read afresh on every selector construction (not snapshotted at first
/// use), so setting the variable mid-process affects selectors built
/// afterwards; construction is nowhere near a hot path.
pub(crate) fn default_threads() -> usize {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// Runs `threads` workers of the same closure (each worker typically
/// drains a shared [`WorkQueue`]) and collects their results in
/// worker-index order, propagating any worker panic. Worker 0 runs on
/// the calling thread and only `threads - 1` are spawned: a sweep costs
/// one spawn fewer, and its first worker reuses the caller's malloc
/// arena instead of opening a fresh one (with a thread per sweep, fresh
/// arenas are what peak RSS grows by). The one place the
/// spawn/join/panic pattern of every selector sweep lives.
pub(crate) fn run_workers<T, F>(threads: usize, worker: F) -> Vec<T>
where
    T: Send,
    F: Fn() -> T + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads).map(|_| scope.spawn(&worker)).collect();
        let first = worker();
        std::iter::once(first)
            .chain(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("selector worker panicked")),
            )
            .collect()
    })
}

/// Runs `len` independent work items across `threads` workers stealing
/// indices from a shared [`WorkQueue`], scattering results back into
/// **index order** — the one audited home of the claim/scatter idiom
/// whose ordering the determinism contracts rest on. `init` builds each
/// worker's private state once (e.g. a scratch pool); `work` maps
/// `(state, index)` to the item's result. Bit-identical to the serial
/// loop for every thread count, provided `work` reads only shared
/// immutable state.
pub(crate) fn run_indexed<S, T, I, F>(threads: usize, len: usize, init: I, work: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    run_indexed_isolated(threads, len, init, work)
        .into_iter()
        .map(|r| r.unwrap_or_else(|msg| panic!("worker panicked: {msg}")))
        .collect()
}

/// The panic-isolated form of [`run_indexed`]: each work item runs under
/// `catch_unwind`, so one panicking item becomes an `Err` in its slot
/// while the worker keeps claiming and every other item still completes.
/// This is what keeps a single degenerate circuit from poisoning a whole
/// campaign's `std::thread::scope` — the caller decides whether an `Err`
/// is a structured failure (campaigns) or grounds to re-panic
/// ([`run_indexed`]).
///
/// The worker state `S` is reused across items on the same worker even
/// after a caught panic; callers must hand in state for which that is
/// sound (the selectors' scratch pools are plain buffer pools — a torn
/// pool only costs re-allocation, never correctness). It drops as soon
/// as its worker finds the queue empty, which is how a campaign shard's
/// [`Grant`] returns its threads to the spare pool.
pub(crate) fn run_indexed_isolated<S, T, I, F>(
    threads: usize,
    len: usize,
    init: I,
    work: F,
) -> Vec<Result<T, String>>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let queue = WorkQueue::new(len);
    let per_worker: Vec<Vec<(usize, Result<T, String>)>> = run_workers(threads, || {
        let mut state = init();
        let mut local = Vec::new();
        while let Some(idx) = queue.claim() {
            let result = catch_unwind(AssertUnwindSafe(|| work(&mut state, idx)))
                .map_err(|payload| panic_message(payload.as_ref()));
            local.push((idx, result));
        }
        local
    });
    let mut slots: Vec<Option<Result<T, String>>> = Vec::new();
    slots.resize_with(len, || None);
    for (idx, item) in per_worker.into_iter().flatten() {
        slots[idx] = Some(item);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index is claimed exactly once"))
        .collect()
}

/// Renders a caught panic payload as text: the `&str`/`String` payloads
/// `panic!` produces are passed through, anything else is summarized.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Normalizes a requested thread count against the amount of available
/// work: `0` (a degenerate "no threads" request) is clamped to 1, and
/// counts above `work_items` are capped so no worker is ever spawned with
/// nothing to claim.
pub(crate) fn normalize_threads(requested: usize, work_items: usize) -> usize {
    requested.clamp(1, work_items.max(1))
}

/// A shared atomic work cursor: the degenerate (single-ended) form of a
/// work-stealing deque, sufficient because work items are claimed one at
/// a time from a pre-indexed list. Claiming is one `fetch_add`.
pub(crate) struct WorkQueue {
    next: AtomicUsize,
    len: usize,
}

impl WorkQueue {
    /// A queue over work items `0..len`.
    pub(crate) fn new(len: usize) -> Self {
        Self {
            next: AtomicUsize::new(0),
            len,
        }
    }

    /// Steals the next unclaimed index, or `None` when the queue is
    /// drained.
    pub(crate) fn claim(&self) -> Option<usize> {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        (idx < self.len).then_some(idx)
    }
}

/// The spare selector threads of a campaign's budget, lent to whichever
/// sweeps are running. Shards keep their own `threads_per_shard` while
/// they have jobs; the pool starts with the rest of the budget, and a
/// shard that finds the job queue empty [gives](Self::give) its threads
/// back. Every threaded selector sweep [lends](Self::lend) *all* spare
/// threads when it starts and returns them through the [`Grant`] guard
/// when it ends — normally, on an expired deadline, or while unwinding
/// a panic — so the pool never leaks a thread. Both kinds of holding
/// are a [`Grant`]: threads outside the pool that join it on drop.
///
/// A sweep that is already running cannot take threads returned after
/// it started: joining it would hand a borrowed closure to another
/// thread. The next sweep to start takes them instead. The split never
/// changes a result, since every selector returns the same selection
/// for every thread count.
#[derive(Debug)]
pub(crate) struct SpareThreads {
    spare: AtomicUsize,
    budget: usize,
    lent_sweeps: AtomicUsize,
}

impl SpareThreads {
    /// A pool holding `spare` of a `budget` of threads.
    pub(crate) fn new(spare: usize, budget: usize) -> Self {
        assert!(
            spare <= budget,
            "{spare} spare threads exceed a budget of {budget}"
        );
        Self {
            spare: AtomicUsize::new(spare),
            budget,
            lent_sweeps: AtomicUsize::new(0),
        }
    }

    /// Returns `threads` to the pool.
    pub(crate) fn give(&self, threads: usize) {
        let before = self.spare.fetch_add(threads, Ordering::AcqRel);
        debug_assert!(
            before + threads <= self.budget,
            "the pool overflowed its budget of {}",
            self.budget
        );
    }

    /// A shard's own `threads`, held outside the pool until the grant
    /// drops.
    pub(crate) fn hold(&self, threads: usize) -> Grant<'_> {
        Grant {
            pool: self,
            threads,
        }
    }

    /// Takes every spare thread for one sweep. The threads return to
    /// the pool when the grant drops.
    pub(crate) fn lend(&self) -> Grant<'_> {
        let threads = self.spare.swap(0, Ordering::AcqRel);
        if threads > 0 {
            self.lent_sweeps.fetch_add(1, Ordering::Relaxed);
        }
        Grant {
            pool: self,
            threads,
        }
    }

    /// The threads in the pool right now.
    #[cfg(test)]
    pub(crate) fn spare(&self) -> usize {
        self.spare.load(Ordering::Acquire)
    }

    /// How many [loans](Self::lend) carried at least one thread.
    pub(crate) fn lent_sweeps(&self) -> usize {
        self.lent_sweeps.load(Ordering::Relaxed)
    }
}

/// Threads held outside a [`SpareThreads`] pool — a shard's own
/// ([`hold`](SpareThreads::hold)) or a sweep's loan
/// ([`lend`](SpareThreads::lend)) — given to the pool on drop.
#[derive(Debug)]
pub(crate) struct Grant<'a> {
    pool: &'a SpareThreads,
    threads: usize,
}

impl<'a> Grant<'a> {
    /// The granted thread count (possibly zero).
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// The pool the threads return to.
    pub(crate) fn pool(&self) -> &'a SpareThreads {
        self.pool
    }
}

impl Drop for Grant<'_> {
    fn drop(&mut self) {
        if self.threads > 0 {
            self.pool.give(self.threads);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::TimedCircuit;
    use crate::deadline::{Deadline, DeadlineExceeded};
    use crate::objective::Objective;
    use crate::optimizer::{Optimizer, SelectorKind};
    use statsize_cells::{CellLibrary, VariationModel};
    use statsize_netlist::bench;
    use std::time::Duration;

    const STATISTICAL: [SelectorKind; 3] = [
        SelectorKind::Pruned,
        SelectorKind::BruteForce,
        SelectorKind::Heuristic { lookahead: 1 },
    ];

    #[test]
    fn normalize_clamps_zero_and_caps_at_work() {
        assert_eq!(normalize_threads(0, 10), 1);
        assert_eq!(normalize_threads(1, 10), 1);
        assert_eq!(normalize_threads(4, 10), 4);
        assert_eq!(normalize_threads(64, 10), 10);
        // No work at all still normalizes to one (idle) worker slot.
        assert_eq!(normalize_threads(0, 0), 1);
        assert_eq!(normalize_threads(8, 0), 1);
    }

    #[test]
    fn work_queue_hands_out_each_index_once() {
        let q = WorkQueue::new(3);
        assert_eq!(q.claim(), Some(0));
        assert_eq!(q.claim(), Some(1));
        assert_eq!(q.claim(), Some(2));
        assert_eq!(q.claim(), None);
        assert_eq!(q.claim(), None);
    }

    #[test]
    fn isolated_run_converts_panics_to_errors_and_finishes_the_rest() {
        for threads in [1usize, 3] {
            let results = run_indexed_isolated(
                threads,
                5,
                || (),
                |(), idx| {
                    if idx == 2 {
                        panic!("item {idx} exploded");
                    }
                    idx * 10
                },
            );
            assert_eq!(results.len(), 5, "threads={threads}");
            for (idx, r) in results.iter().enumerate() {
                if idx == 2 {
                    assert_eq!(r, &Err("item 2 exploded".to_string()), "threads={threads}");
                } else {
                    assert_eq!(r, &Ok(idx * 10), "threads={threads}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "worker panicked: boom")]
    fn run_indexed_repanics_on_the_calling_thread() {
        // Must panic on the *main* thread (not abort via a poisoned
        // scope), with the original message preserved.
        let _ = run_indexed(
            2,
            3,
            || (),
            |(), idx| {
                if idx == 1 {
                    panic!("boom");
                }
                idx
            },
        );
    }

    #[test]
    fn panic_message_extracts_common_payloads() {
        let caught = std::panic::catch_unwind(|| panic!("plain &str")).expect_err("must panic");
        assert_eq!(panic_message(caught.as_ref()), "plain &str");
        let caught =
            std::panic::catch_unwind(|| panic!("formatted {}", 7)).expect_err("must panic");
        assert_eq!(panic_message(caught.as_ref()), "formatted 7");
        let caught =
            std::panic::catch_unwind(|| std::panic::panic_any(42u8)).expect_err("must panic");
        assert_eq!(panic_message(caught.as_ref()), "non-string panic payload");
    }

    #[test]
    fn run_workers_runs_worker_zero_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = run_workers(3, || std::thread::current().id());
        assert_eq!(ids[0], caller, "worker 0 is the calling thread");
        assert_ne!(ids[1], caller);
        assert_ne!(ids[2], caller);
        assert_ne!(ids[1], ids[2]);
        // One worker spawns nothing.
        assert_eq!(run_workers(1, || std::thread::current().id()), [caller]);
    }

    #[test]
    fn spare_pool_stays_within_its_budget_under_concurrent_loans() {
        // A budget of 6: two shards own 2 each, 2 start spare.
        let pool = SpareThreads::new(2, 6);
        let lend_many = |bound: usize| {
            for _ in 0..2000 {
                let loan = pool.lend();
                assert!(loan.threads() <= bound);
                assert!(pool.spare() <= bound);
            }
        };
        let shards = [pool.hold(2), pool.hold(2)];
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| lend_many(2));
            }
        });
        assert_eq!(pool.spare(), 2, "every sweep returned its loan");
        // Now the shards drain while the sweeps keep borrowing.
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| lend_many(6));
            }
            scope.spawn(move || drop(shards));
        });
        assert_eq!(pool.spare(), 6, "the whole budget is back in the pool");
        assert!(pool.lent_sweeps() > 0);
    }

    #[test]
    fn a_loan_of_nothing_is_not_a_lent_sweep() {
        let pool = SpareThreads::new(0, 2);
        assert_eq!(pool.lend().threads(), 0);
        assert_eq!(pool.lent_sweeps(), 0);
        let own = pool.hold(2);
        assert_eq!((own.threads(), pool.spare()), (2, 0));
        drop(own);
        assert_eq!(pool.lend().threads(), 2);
        assert_eq!((pool.lent_sweeps(), pool.spare()), (1, 2));
    }

    #[test]
    fn a_panicking_sweep_returns_its_loan() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let mut circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        let pool = SpareThreads::new(2, 3);
        // The pruned selector refuses an objective it cannot bound —
        // a panic inside the sweep, caught the way a campaign job is.
        let optimizer = Optimizer::new(Objective::MeanPlusSigma(3.0), SelectorKind::Pruned);
        let swept = catch_unwind(AssertUnwindSafe(|| {
            optimizer.sweep(&mut circuit, Deadline::none(), Some(&pool))
        }));
        assert!(swept.is_err());
        assert_eq!((pool.spare(), pool.lent_sweeps()), (2, 1));
        // A worker panic on a lent thread unwinds through the scope.
        let caller = std::thread::current().id();
        let swept = catch_unwind(AssertUnwindSafe(|| {
            let loan = pool.lend();
            run_workers(1 + loan.threads(), || {
                if std::thread::current().id() != caller {
                    panic!("a spawned worker exploded");
                }
            })
        }));
        assert!(swept.is_err());
        assert_eq!((pool.spare(), pool.lent_sweeps()), (2, 2));
    }

    #[test]
    fn an_expired_sweep_returns_its_loan() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let mut circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        let pool = SpareThreads::new(2, 3);
        for (i, selector) in STATISTICAL.into_iter().enumerate() {
            let optimizer = Optimizer::new(Objective::percentile(0.99), selector).with_threads(1);
            let swept = optimizer.sweep(&mut circuit, Deadline::after(Duration::ZERO), Some(&pool));
            assert_eq!(swept.err(), Some(DeadlineExceeded), "{selector:?}");
            assert_eq!(pool.spare(), 2, "{selector:?}");
            assert_eq!(pool.lent_sweeps(), i + 1, "{selector:?}");
        }
        // The deterministic selector is one STA pass and borrows nothing.
        let optimizer = Optimizer::new(Objective::percentile(0.99), SelectorKind::Deterministic);
        assert!(optimizer
            .sweep(&mut circuit, Deadline::after(Duration::ZERO), Some(&pool))
            .is_ok());
        assert_eq!((pool.spare(), pool.lent_sweeps()), (2, STATISTICAL.len()));
    }

    #[test]
    fn lent_threads_do_not_change_the_selection() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let mut circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        for selector in STATISTICAL {
            let optimizer = Optimizer::new(Objective::percentile(0.99), selector).with_threads(1);
            let alone = optimizer
                .sweep(&mut circuit, Deadline::none(), None)
                .unwrap()
                .0;
            let pool = SpareThreads::new(3, 3);
            let lent = optimizer
                .sweep(&mut circuit, Deadline::none(), Some(&pool))
                .unwrap()
                .0;
            assert_eq!(alone, lent, "{selector:?}");
            assert_eq!((pool.spare(), pool.lent_sweeps()), (3, 1));
        }
    }
}
