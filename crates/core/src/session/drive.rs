//! The deterministic-prefix driver under [`Session::run`](super::Session::run):
//! it schedules an indexed work list onto the shared [`WorkerPool`] while
//! honoring item/cost/time budgets and a cooperative [`CancelToken`], and
//! it upholds one central contract:
//!
//! > **Deterministic prefix.** Whatever stops the session — budget
//! > exhaustion, cancellation, or plain completion — the set of
//! > completed items is a contiguous, index-ordered prefix `0..m` of the
//! > work list, and every completed item's result is byte-identical to
//! > the result the same index produces in an uninterrupted run.
//!
//! The contract falls out of the claim discipline in [`drive`]: stop
//! conditions are checked strictly *before* an index is claimed from the
//! shared cursor, so every claimed index runs to completion, and the
//! cursor hands indices out in increasing order — the claimed set is
//! always `0..m`. Per-index determinism is the caller's half of the
//! bargain (the verification stack derives all randomness from the item
//! index; see the [`WorkerPool`] determinism contract).

use fuzzyflow_pool::WorkerPool;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A cooperative cancellation handle: clone it, hand one side to the
/// session, and call [`CancelToken::cancel`] from anywhere (an event
/// sink, a signal handler thread, an RPC).
///
/// Cancellation is *cooperative*: in-flight items run to completion
/// (preserving the deterministic-prefix contract) and no new items are
/// claimed afterwards.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// True once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Budgets for one session run. All limits are optional; the default is
/// unlimited. Checked before each claim, so a budget never truncates an
/// item mid-flight:
///
/// * `max_items` caps how many items run — an *exact* cap: the session
///   completes precisely `min(max_items, len)` items.
/// * `max_cost` caps the accumulated per-item cost (the verification
///   stack reports executed fuzzing trials as cost). Because cost is
///   only known after an item completes, the session stops at the first
///   claim attempted once `spent >= max_cost`; the prefix length depends
///   on scheduling, but every completed result is still byte-identical
///   to the uninterrupted run.
/// * `time_limit` stops claiming once the wall-clock deadline passes.
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct SessionBudget {
    pub max_items: Option<usize>,
    pub max_cost: Option<u64>,
    pub time_limit: Option<Duration>,
}

impl SessionBudget {
    /// No limits (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Caps the number of items run (exact).
    pub fn with_max_items(mut self, n: usize) -> Self {
        self.max_items = Some(n);
        self
    }

    /// Caps the accumulated per-item cost.
    pub fn with_max_cost(mut self, cost: u64) -> Self {
        self.max_cost = Some(cost);
        self
    }

    /// Stops claiming new items after the given wall-clock duration.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }
}

/// Why a session run stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum StopReason {
    /// Every item in the work list completed.
    Completed,
    /// The [`CancelToken`] fired.
    Cancelled,
    /// [`SessionBudget::max_items`] was reached.
    MaxItems,
    /// [`SessionBudget::max_cost`] was exhausted.
    CostBudget,
    /// [`SessionBudget::time_limit`] passed.
    TimeBudget,
}

impl StopReason {
    /// Stable machine-readable label (used by report serialization).
    pub fn label(&self) -> &'static str {
        match self {
            StopReason::Completed => "completed",
            StopReason::Cancelled => "cancelled",
            StopReason::MaxItems => "max-instances",
            StopReason::CostBudget => "trial-budget",
            StopReason::TimeBudget => "time-budget",
        }
    }

    /// Inverse of [`StopReason::label`].
    pub fn from_label(label: &str) -> Option<StopReason> {
        Some(match label {
            "completed" => StopReason::Completed,
            "cancelled" => StopReason::Cancelled,
            "max-instances" => StopReason::MaxItems,
            "trial-budget" => StopReason::CostBudget,
            "time-budget" => StopReason::TimeBudget,
            _ => return None,
        })
    }
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Outcome of one [`drive`] call.
#[derive(Debug)]
pub(crate) struct DriveOutcome<R> {
    /// Results of the completed prefix, in index order: `results[i]` is
    /// item `i`'s result, and `results.len()` is the prefix length `m`.
    pub(crate) results: Vec<R>,
    /// Why the run stopped.
    pub(crate) stop: StopReason,
    /// Total accumulated cost of the completed prefix.
    pub(crate) cost_spent: u64,
}

const FLAG_TIME: u8 = 1;
const FLAG_COST: u8 = 2;

/// Runs `item(0..len)` on the pool with at most `width` concurrent
/// participants, honoring `budget` and `cancel`, and returns the
/// completed prefix in index order.
///
/// `item(i)` returns the result plus its cost (counted against
/// [`SessionBudget::max_cost`]). Stop conditions are checked before each
/// claim — never mid-item — which is what guarantees the deterministic
/// prefix (see the module docs). `item` must derive everything about
/// item `i` from `i` itself; then `results[i]` is byte-identical for
/// every `width`, pool size and schedule, interrupted or not.
pub(crate) fn drive<R, F>(
    pool: &WorkerPool,
    len: usize,
    width: usize,
    budget: &SessionBudget,
    cancel: Option<&CancelToken>,
    item: F,
) -> DriveOutcome<R>
where
    R: Send,
    F: Fn(usize) -> (R, u64) + Sync,
{
    let effective = budget.max_items.map_or(len, |m| len.min(m));
    // A huge duration (e.g. `Duration::MAX` as an "unlimited" sentinel)
    // must mean "no deadline", not an `Instant` addition overflow panic.
    let deadline = budget
        .time_limit
        .and_then(|d| Instant::now().checked_add(d));
    let cursor = AtomicUsize::new(0);
    let spent = AtomicU64::new(0);
    let flags = AtomicU8::new(0);
    let parts: Mutex<Vec<Vec<(usize, R)>>> = Mutex::new(Vec::new());

    if effective > 0 {
        // Each pool "index" here is a *participant slot*, not a work item:
        // every participant runs the shared claim loop below, stealing
        // work-item indices from `cursor` until the list drains or a stop
        // condition holds. Claiming through our own cursor (instead of the
        // pool's) is what lets stop conditions gate the claim itself.
        let participants = width.max(1).min(effective);
        pool.parallel_for(
            participants,
            participants,
            Vec::new,
            |buf: &mut Vec<(usize, R)>, _slot| loop {
                if cancel.is_some_and(|c| c.is_cancelled()) {
                    return;
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    flags.fetch_or(FLAG_TIME, Ordering::Relaxed);
                    return;
                }
                if budget
                    .max_cost
                    .is_some_and(|m| spent.load(Ordering::Relaxed) >= m)
                {
                    flags.fetch_or(FLAG_COST, Ordering::Relaxed);
                    return;
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= effective {
                    return;
                }
                let (r, cost) = item(i);
                spent.fetch_add(cost, Ordering::Relaxed);
                buf.push((i, r));
            },
            |buf| parts.lock().expect("session buffers poisoned").push(buf),
        );
    }

    // Every claimed index ran; claims are cursor-ordered, so the
    // completed set is exactly the prefix `0..m`.
    let m = cursor.load(Ordering::Relaxed).min(effective);
    let mut out: Vec<Option<R>> = Vec::with_capacity(m);
    out.resize_with(m, || None);
    for buf in parts.into_inner().expect("session buffers poisoned") {
        for (i, r) in buf {
            out[i] = Some(r);
        }
    }
    let results: Vec<R> = out
        .into_iter()
        .map(|r| r.expect("every claimed index completed"))
        .collect();

    let flags = flags.load(Ordering::Relaxed);
    let stop = if results.len() == len {
        StopReason::Completed
    } else if cancel.is_some_and(|c| c.is_cancelled()) {
        StopReason::Cancelled
    } else if effective < len && results.len() == effective {
        StopReason::MaxItems
    } else if flags & FLAG_COST != 0 {
        StopReason::CostBudget
    } else {
        StopReason::TimeBudget
    };
    DriveOutcome {
        results,
        stop,
        cost_spent: spent.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzyflow_pool::WorkerPool;

    fn run(
        pool: &WorkerPool,
        len: usize,
        width: usize,
        budget: &SessionBudget,
        cancel: Option<&CancelToken>,
    ) -> DriveOutcome<usize> {
        drive(pool, len, width, budget, cancel, |i| (i * 7 + 1, 1))
    }

    #[test]
    fn completes_in_index_order_for_any_width() {
        let pool = WorkerPool::new(4);
        for width in [1, 2, 4, 16] {
            let out = run(&pool, 40, width, &SessionBudget::unlimited(), None);
            assert_eq!(out.stop, StopReason::Completed);
            assert_eq!(out.results, (0..40).map(|i| i * 7 + 1).collect::<Vec<_>>());
            assert_eq!(out.cost_spent, 40);
        }
    }

    #[test]
    fn max_items_is_an_exact_prefix() {
        let pool = WorkerPool::new(4);
        for width in [1, 3, 8] {
            let out = run(
                &pool,
                40,
                width,
                &SessionBudget::unlimited().with_max_items(7),
                None,
            );
            assert_eq!(out.stop, StopReason::MaxItems);
            assert_eq!(out.results, (0..7).map(|i| i * 7 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn max_items_of_zero_runs_nothing() {
        let pool = WorkerPool::new(2);
        let out = run(
            &pool,
            10,
            4,
            &SessionBudget::unlimited().with_max_items(0),
            None,
        );
        assert!(out.results.is_empty());
        assert_eq!(out.stop, StopReason::MaxItems);
    }

    #[test]
    fn empty_work_list_completes() {
        let pool = WorkerPool::new(2);
        let out = run(&pool, 0, 4, &SessionBudget::unlimited(), None);
        assert!(out.results.is_empty());
        assert_eq!(out.stop, StopReason::Completed);
    }

    #[test]
    fn cost_budget_stops_claiming_and_keeps_a_prefix() {
        let pool = WorkerPool::new(4);
        for width in [1, 2, 8] {
            let out = run(
                &pool,
                100,
                width,
                &SessionBudget::unlimited().with_max_cost(10),
                None,
            );
            assert_eq!(out.stop, StopReason::CostBudget);
            let m = out.results.len();
            assert!(m >= 10, "at least the budgeted cost completes: {m}");
            assert!(m < 100, "budget must stop the run early: {m}");
            assert_eq!(out.results, (0..m).map(|i| i * 7 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn cancellation_yields_a_deterministic_prefix() {
        let pool = WorkerPool::new(4);
        let full = run(&pool, 60, 4, &SessionBudget::unlimited(), None).results;
        for width in [1, 2, 8] {
            let token = CancelToken::new();
            let fired = AtomicUsize::new(0);
            let out = drive(
                &pool,
                60,
                width,
                &SessionBudget::unlimited(),
                Some(&token),
                |i| {
                    if fired.fetch_add(1, Ordering::Relaxed) + 1 >= 5 {
                        token.cancel();
                    }
                    (i * 7 + 1, 1)
                },
            );
            let m = out.results.len();
            assert!(m >= 5, "the five items that ran before cancel completed");
            assert_eq!(out.results, full[..m], "prefix diverged at width {width}");
            assert!(
                out.stop == StopReason::Cancelled || m == 60,
                "{:?}",
                out.stop
            );
        }
    }

    #[test]
    fn cancelled_before_start_claims_nothing() {
        let pool = WorkerPool::new(2);
        let token = CancelToken::new();
        token.cancel();
        let out = run(&pool, 10, 4, &SessionBudget::unlimited(), Some(&token));
        assert!(out.results.is_empty());
        assert_eq!(out.stop, StopReason::Cancelled);
    }

    #[test]
    fn time_budget_stops_claiming() {
        let pool = WorkerPool::new(2);
        let out = drive(
            &pool,
            1000,
            2,
            &SessionBudget::unlimited().with_time_limit(Duration::from_millis(5)),
            None,
            |i| {
                std::thread::sleep(Duration::from_millis(2));
                (i, 1)
            },
        );
        assert!(out.results.len() < 1000);
        assert_eq!(out.stop, StopReason::TimeBudget);
        let m = out.results.len();
        assert_eq!(out.results, (0..m).collect::<Vec<_>>());
    }

    #[test]
    fn huge_time_limit_means_no_deadline() {
        // `Duration::MAX` as an "unlimited" sentinel must not panic on
        // Instant addition overflow.
        let pool = WorkerPool::new(2);
        let out = run(
            &pool,
            10,
            2,
            &SessionBudget::unlimited().with_time_limit(Duration::MAX),
            None,
        );
        assert_eq!(out.stop, StopReason::Completed);
        assert_eq!(out.results.len(), 10);
    }

    #[test]
    fn stop_reason_labels_round_trip() {
        for r in [
            StopReason::Completed,
            StopReason::Cancelled,
            StopReason::MaxItems,
            StopReason::CostBudget,
            StopReason::TimeBudget,
        ] {
            assert_eq!(StopReason::from_label(r.label()), Some(r));
        }
        assert_eq!(StopReason::from_label("nope"), None);
    }
}
