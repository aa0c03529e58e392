//! Shared infrastructure for the selectors' multi-threaded candidate
//! sweeps.
//!
//! The selectors' per-candidate work (one perturbation front each) is
//! independent except for the pruning threshold `Max_S`, so the sweeps
//! parallelize with a few small pieces instead of a scheduler
//! dependency:
//!
//! * [`run_workers`] — spawns a sweep's workers, worker 0 on the calling
//!   thread, and collects their results. Given the sweep's loan from a
//!   spare pool, the crew grows mid-sweep by the threads the pool
//!   receives. The pruned selector's workers share one locked heap on
//!   top of it.
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
//!   and the threads of shards that found the job queue empty), lent to
//!   the selector sweeps that are running — whole to each sweep that
//!   starts, and to a running sweep as soon as they come back — and
//!   returned by a drop guard when the sweep ends.
//!
//! Every selector reduces its workers' results in an order that does
//! not depend on which worker produced them, so results are
//! bit-identical for every thread count and every schedule.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::Scope;

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
/// drains a shared [`WorkQueue`]) and collects their results, worker 0's
/// first, propagating any worker panic. Worker 0 runs on the calling
/// thread and only `threads - 1` are spawned: a sweep costs one spawn
/// fewer, and its first worker reuses the caller's malloc arena instead
/// of opening a fresh one (with a thread per sweep, fresh arenas are
/// what peak RSS grows by). The one place the spawn/join/panic pattern
/// of every selector sweep lives.
///
/// Each worker is handed a `grow` hook and calls it once per unit of
/// work. Given the sweep's `loan`, the hook [grows](Grant::grow) the
/// loan by every thread its pool holds and spawns that many more
/// workers of the same closure into the same scope; without one it does
/// nothing. A grown worker runs the same loop from the start, with its
/// own worker state, so callers must reduce results in an order that
/// does not depend on the worker that produced them. Each worker's
/// result is followed by those of the workers it grew. The loan's
/// threads return to the pool when the loan drops, after the scope has
/// joined every worker, whether the sweep ends normally or unwinds.
pub(crate) fn run_workers<T, F>(threads: usize, loan: Option<&Grant<'_>>, worker: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut dyn FnMut()) -> T + Sync,
{
    std::thread::scope(|scope| crew(scope, threads.saturating_sub(1), loan, &worker))
}

/// One worker of [`run_workers`] after spawning `spawn` more, then the
/// results of the workers it spawned or grew (each followed by those it
/// grew in turn). A worker joins the workers it spawned, so every worker
/// is joined, and its panic propagates, through the worker that spawned
/// it.
fn crew<'scope, 'env, T, F>(
    scope: &'scope Scope<'scope, 'env>,
    spawn: usize,
    loan: Option<&'env Grant<'env>>,
    worker: &'env F,
) -> Vec<T>
where
    T: Send + 'scope,
    F: Fn(&mut dyn FnMut()) -> T + Sync,
{
    let start = || scope.spawn(move || crew(scope, 0, loan, worker));
    let mut spawned: Vec<_> = (0..spawn).map(|_| start()).collect();
    let mut grow = || {
        if let Some(loan) = loan {
            spawned.extend((0..loan.grow()).map(|_| start()));
        }
    };
    let first = worker(&mut grow);
    std::iter::once(first)
        .chain(
            spawned
                .into_iter()
                .flat_map(|h| h.join().expect("selector worker panicked")),
        )
        .collect()
}

/// Runs `len` independent work items across `threads` workers stealing
/// indices from a shared [`WorkQueue`], scattering results back into
/// **index order** — the one audited home of the claim/scatter idiom
/// whose ordering the determinism contracts rest on. `init` builds each
/// worker's private state once (e.g. a scratch pool); `work` maps
/// `(state, index)` to the item's result. Each worker polls `loan` once
/// per claimed index and grows the crew by what its pool holds (see
/// [`run_workers`]). Bit-identical to the serial loop for every thread
/// count, provided `work` reads only shared immutable state.
pub(crate) fn run_indexed<S, T, I, F>(
    threads: usize,
    loan: Option<&Grant<'_>>,
    len: usize,
    init: I,
    work: F,
) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    run_indexed_isolated(threads, loan, len, init, work)
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
    loan: Option<&Grant<'_>>,
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
    let per_worker: Vec<Vec<(usize, Result<T, String>)>> = run_workers(threads, loan, |grow| {
        let mut state = init();
        let mut local = Vec::new();
        while let Some(idx) = queue.claim() {
            grow();
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
/// threads when it starts, and its workers [grow](Grant::grow) the loan
/// by every thread the pool receives while the sweep runs. The loan
/// returns through the [`Grant`] guard when the sweep ends — normally,
/// on an expired deadline, or while unwinding a panic — so the pool
/// never leaks a thread. Both kinds of holding are a [`Grant`]: threads
/// outside the pool that join it on drop.
///
/// Which sweep takes a returned thread never changes a result, since
/// every selector returns the same selection for every thread count and
/// schedule.
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
            threads: AtomicUsize::new(threads),
        }
    }

    /// Takes every spare thread for one sweep. The sweep's workers
    /// [grow](Grant::grow) the loan as threads come back; all of them
    /// return to the pool when the grant drops.
    pub(crate) fn lend(&self) -> Grant<'_> {
        let loan = Grant {
            pool: self,
            threads: AtomicUsize::new(0),
        };
        loan.grow();
        loan
    }

    /// The threads in the pool right now.
    #[cfg(test)]
    pub(crate) fn spare(&self) -> usize {
        self.spare.load(Ordering::Acquire)
    }

    /// How many [loans](Self::lend) carried at least one thread at some
    /// point of their sweep: each such sweep counts once, however many
    /// times it grew.
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
    threads: AtomicUsize,
}

impl<'a> Grant<'a> {
    /// The granted thread count (possibly zero).
    pub(crate) fn threads(&self) -> usize {
        self.threads.load(Ordering::Acquire)
    }

    /// The pool the threads return to.
    pub(crate) fn pool(&self) -> &'a SpareThreads {
        self.pool
    }

    /// Moves every spare thread of the pool into this loan and returns
    /// how many it took (possibly zero). The first threads a loan takes
    /// count its sweep among the pool's
    /// [`lent_sweeps`](SpareThreads::lent_sweeps).
    pub(crate) fn grow(&self) -> usize {
        let spare = &self.pool.spare;
        // Most polls find the pool empty: read it before claiming the
        // cache line.
        if spare.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        let taken = spare.swap(0, Ordering::AcqRel);
        if taken > 0 && self.threads.fetch_add(taken, Ordering::AcqRel) == 0 {
            self.pool.lent_sweeps.fetch_add(1, Ordering::Relaxed);
        }
        taken
    }
}

impl Drop for Grant<'_> {
    fn drop(&mut self) {
        let threads = *self.threads.get_mut();
        if threads > 0 {
            self.pool.give(threads);
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
    use crate::selection::Selection;
    use statsize_cells::{CellLibrary, VariationModel};
    use statsize_netlist::{bench, generator};
    use std::sync::atomic::AtomicBool;
    use std::sync::Mutex;
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
                None,
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
            None,
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
        let ids = run_workers(3, None, |_| std::thread::current().id());
        assert_eq!(ids[0], caller, "worker 0 is the calling thread");
        assert_ne!(ids[1], caller);
        assert_ne!(ids[2], caller);
        assert_ne!(ids[1], ids[2]);
        // One worker spawns nothing.
        assert_eq!(
            run_workers(1, None, |_| std::thread::current().id()),
            [caller]
        );
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
            run_workers(1 + loan.threads(), None, |_| {
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

    #[test]
    fn a_grant_dropped_mid_run_grows_the_crew_by_its_threads() {
        let pool = SpareThreads::new(0, 2);
        let shard = Mutex::new(Some(pool.hold(2)));
        let loan = pool.lend();
        assert_eq!((loan.threads(), pool.lent_sweeps()), (0, 0));
        let caller = std::thread::current().id();
        let ids = run_workers(1, Some(&loan), |grow| {
            // The shard drains while worker 0 runs; every worker polls.
            drop(shard.lock().unwrap().take());
            grow();
            std::thread::current().id()
        });
        assert_eq!(ids.len(), 3, "one worker, grown by the two threads");
        assert_eq!(ids[0], caller);
        assert!(ids[1] != caller && ids[2] != caller && ids[1] != ids[2]);
        assert_eq!((loan.threads(), pool.spare()), (2, 0));
        drop(loan);
        assert_eq!((pool.spare(), pool.lent_sweeps()), (2, 1));
        // Without a loan the hook does nothing.
        let pool = SpareThreads::new(0, 3);
        let shard = Mutex::new(Some(pool.hold(3)));
        let ids = run_workers(1, None, |grow| {
            drop(shard.lock().unwrap().take());
            grow();
        });
        assert_eq!((ids.len(), pool.spare()), (1, 3));
    }

    #[test]
    fn a_sweep_that_grows_many_times_is_one_lent_sweep() {
        let pool = SpareThreads::new(1, 3);
        let (first, second) = (pool.hold(1), pool.hold(1));
        let loan = pool.lend();
        assert_eq!((loan.threads(), pool.lent_sweeps()), (1, 1));
        drop(first);
        assert_eq!(loan.grow(), 1);
        drop(second);
        assert_eq!(loan.grow(), 1);
        assert_eq!(loan.grow(), 0);
        assert_eq!((loan.threads(), pool.lent_sweeps()), (3, 1));
        drop(loan);
        assert_eq!(pool.spare(), 3);
        // A loan that starts empty counts when it first grows.
        let pool = SpareThreads::new(0, 3);
        let shard = pool.hold(3);
        let loan = pool.lend();
        assert_eq!(pool.lent_sweeps(), 0);
        drop(shard);
        assert_eq!(loan.grow(), 3);
        assert_eq!(pool.lent_sweeps(), 1);
        drop(loan);
        assert_eq!(pool.spare(), 3);
    }

    #[test]
    fn a_grown_crew_returns_its_loan_and_propagates_a_panic() {
        let pool = SpareThreads::new(0, 1);
        // Normal end: worker 0 grows by one, both claim from the queue.
        let shard = Mutex::new(Some(pool.hold(1)));
        let loan = pool.lend();
        let items = run_indexed(
            1,
            Some(&loan),
            6,
            || (),
            |(), idx| {
                drop(shard.lock().unwrap().take());
                idx * 2
            },
        );
        assert_eq!(items, [0, 2, 4, 6, 8, 10]);
        assert_eq!(loan.threads(), 1);
        drop(loan);
        assert_eq!(pool.spare(), 1);
        // A grown worker panics: the panic reaches the caller, and the
        // loan still returns.
        let pool = SpareThreads::new(0, 2);
        let shard = Mutex::new(Some(pool.hold(2)));
        let caller = std::thread::current().id();
        let swept = catch_unwind(AssertUnwindSafe(|| {
            let loan = pool.lend();
            run_workers(1, Some(&loan), |grow| {
                drop(shard.lock().unwrap().take());
                grow();
                if std::thread::current().id() != caller {
                    panic!("a grown worker exploded");
                }
            })
        }));
        assert!(swept.is_err());
        assert_eq!(pool.spare(), 2);
    }

    /// Runs one optimizer sweep on `circuit` against a pool that starts
    /// with one spare thread, while a helper hands the sweep a drained
    /// shard's thread as soon as the sweep has taken the first one.
    /// Returns the sweep's result and whether the helper saw the sweep
    /// take the second thread while it ran.
    fn sweep_growing_mid_sweep(
        optimizer: &Optimizer,
        circuit: &mut TimedCircuit<'_>,
        deadline: Deadline,
    ) -> (Result<Vec<Selection>, DeadlineExceeded>, bool) {
        let pool = SpareThreads::new(1, 2);
        let shard = pool.hold(1);
        let done = AtomicBool::new(false);
        let (swept, grew) = std::thread::scope(|scope| {
            let helper = scope.spawn(|| {
                while pool.spare() != 0 {
                    if done.load(Ordering::Acquire) {
                        return false;
                    }
                    std::thread::yield_now();
                }
                drop(shard);
                // Only the running sweep's workers take from the pool.
                while !done.load(Ordering::Acquire) {
                    if pool.spare() == 0 {
                        return true;
                    }
                    std::thread::yield_now();
                }
                false
            });
            let swept = optimizer.sweep(circuit, deadline, Some(&pool));
            done.store(true, Ordering::Release);
            (swept, helper.join().unwrap())
        });
        assert_eq!(pool.spare(), 2, "the whole budget is back in the pool");
        assert_eq!(pool.lent_sweeps(), 1, "one sweep, however often it grew");
        (swept.map(|(selections, _)| selections), grew)
    }

    fn parked_bits(circuit: &TimedCircuit<'_>) -> Vec<Option<u64>> {
        circuit
            .netlist()
            .gate_ids()
            .map(|g| circuit.parked_bounds().get(g).map(f64::to_bits))
            .collect()
    }

    #[test]
    fn a_sweep_grown_mid_sweep_matches_the_one_worker_sweep() {
        let nl = generator::generate_iscas("c432", 17).unwrap();
        let lib = CellLibrary::synthetic_180nm();
        let new = || TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        let (mut alone, mut grown) = (new(), new());
        let optimizer = Optimizer::new(Objective::percentile(0.99), SelectorKind::Pruned)
            .with_threads(1)
            .with_moves_per_iteration(2);
        let mut grew = 0;
        for round in 0..3 {
            let want = optimizer
                .sweep(&mut alone, Deadline::none(), None)
                .unwrap()
                .0;
            let (got, took) = sweep_growing_mid_sweep(&optimizer, &mut grown, Deadline::none());
            let got = got.unwrap();
            let bits = |s: &[Selection]| -> Vec<_> {
                s.iter()
                    .map(|s| (s.gate, s.sensitivity.to_bits()))
                    .collect()
            };
            assert_eq!(bits(&got), bits(&want), "round {round}");
            assert_eq!(parked_bits(&grown), parked_bits(&alone), "round {round}");
            grew += usize::from(took);
            for s in &want {
                alone.commit_resize(s.gate, 1.0);
                grown.commit_resize(s.gate, 1.0);
            }
        }
        assert!(grew > 0, "no sweep grew mid-sweep");
    }

    #[test]
    fn a_sweep_grown_mid_sweep_returns_its_loan_when_its_deadline_expires() {
        let nl = generator::generate_iscas("c432", 17).unwrap();
        let lib = CellLibrary::synthetic_180nm();
        let mut circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        for selector in STATISTICAL {
            let optimizer = Optimizer::new(Objective::percentile(0.99), selector).with_threads(1);
            let mut expired = 0;
            for micros in [200, 1_000, 5_000, 20_000] {
                let deadline = Deadline::after(Duration::from_micros(micros));
                // The helper asserts that the pool is whole again.
                let (swept, _) = sweep_growing_mid_sweep(&optimizer, &mut circuit, deadline);
                expired += usize::from(swept.is_err());
            }
            assert!(expired > 0, "{selector:?}: no deadline expired");
        }
    }
}
