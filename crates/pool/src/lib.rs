//! One long-lived, work-stealing worker pool for the whole verification
//! stack.
//!
//! Before this crate, every layer of the system spawned its own threads:
//! the campaign driver started a scoped poller set per call, the
//! differential tester spawned a fresh scoped thread set per *instance*,
//! and the distributed runtime spawned one thread per rank per run. Under
//! a campaign those layers nest, so the process oversubscribed the machine
//! and paid thread-spawn latency once per transformation instance — in a
//! workload whose entire point is running *many* short trial batches over
//! *many* instances (the paper's NPBench sweep runs hundreds of instances
//! at 100 trials each).
//!
//! [`WorkerPool`] replaces all of that with one shared scheduling
//! substrate:
//!
//! * **Ownership.** [`WorkerPool::global`] lazily starts one persistent
//!   worker thread per available core and never tears them down; every
//!   campaign, trial batch and rank gang in the process
//!   shares those workers. Explicit pools ([`WorkerPool::new`]) exist for
//!   tests and for measuring spawn cost; dropping one joins its workers.
//! * **Work stealing.** A job is a range of indices plus a shared atomic
//!   cursor. Every participant — the submitting thread *and* any idle
//!   pool worker that picks up one of the job's help tickets — steals the
//!   next unclaimed index until the range is exhausted, so imbalanced
//!   items (one slow transformation instance among many fast ones) never
//!   serialize behind a fixed per-thread stride. Nesting is deadlock-free
//!   by construction: the submitter always participates, so a job makes
//!   progress even if every pool worker is busy with other jobs.
//! * **Determinism contract.** Scheduling *never* influences results.
//!   [`WorkerPool::parallel_for`] hands each participant a private
//!   scratch value and each index exactly once; callers assemble results
//!   keyed by index, so the output is byte-identical for every worker count,
//!   pool size and interleaving. Work that needs randomness derives it
//!   from the index — the differential tester seeds trial `i` with
//!   `splitmix64(seed, i)`, which is what makes "trial 17" the same trial
//!   no matter which worker runs it, in what order, on how many threads.
//! * **Co-scheduling.** Lock-step SPMD rank execution blocks in
//!   collective rendezvous, so its `n` ranks must all be live at once.
//!   [`WorkerPool::gang`] issues member tickets only against workers that
//!   are provably idle at submit time (busy workers might be blocked
//!   inside nested jobs or other gangs, so they are never promised) and
//!   spawns temporary threads for every remaining member, guaranteeing
//!   the gang can always rendezvous even on a saturated, nested-into or
//!   undersized pool.
//! * **Panic safety.** A panicking job body is caught on the worker (or
//!   temp thread), recorded, and re-raised on the submitting thread after
//!   the job drains — the same observable behavior as the scoped
//!   `join().expect(...)` threads the pool replaced — and never leaves a
//!   queued ticket pointing at a dead stack frame.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Resolves a user-facing thread-count knob: `0` means one thread per
/// available core (the convention of `Campaign::with_threads`,
/// `VerifyConfig::trial_threads` and `DiffTester::threads`), any other
/// value is taken literally. The core count is probed once per process
/// and memoized — callers in per-instance loops (a campaign resolves
/// once per trial batch) never re-enter the OS query, and every
/// resolution of `0` in a campaign is guaranteed to be the same number.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        static CORES: OnceLock<usize> = OnceLock::new();
        *CORES.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
    } else {
        requested
    }
}

/// Heap-allocated lifecycle header shared between a job's owner and the
/// help tickets it queued. The owner's stack data (job state, closures)
/// may only be dereferenced between a successful [`TicketHeader::enter`]
/// and the matching [`TicketHeader::exit`]; [`TicketHeader::close`]
/// guarantees no participant is inside and none can enter afterwards,
/// which is what makes it sound for the owner to return and invalidate
/// the borrows while stale tickets still sit in the queue.
struct TicketHeader {
    state: Mutex<TicketState>,
    cv: Condvar,
}

struct TicketState {
    closed: bool,
    active: usize,
    /// A helper's job body panicked; reported back to (and re-raised on)
    /// the submitting thread after `close`, mirroring the
    /// `join().expect(...)` propagation of the pre-pool scoped threads.
    panicked: bool,
}

impl TicketHeader {
    fn new() -> Arc<TicketHeader> {
        Arc::new(TicketHeader {
            state: Mutex::new(TicketState {
                closed: false,
                active: 0,
                panicked: false,
            }),
            cv: Condvar::new(),
        })
    }

    fn enter(&self) -> bool {
        let mut g = self.state.lock().expect("ticket header poisoned");
        if g.closed {
            return false;
        }
        g.active += 1;
        true
    }

    fn exit(&self, panicked: bool) {
        let mut g = self.state.lock().expect("ticket header poisoned");
        g.active -= 1;
        g.panicked |= panicked;
        if g.active == 0 {
            self.cv.notify_all();
        }
    }

    /// Forbids new entries, then blocks until every active participant
    /// has exited. Returns whether any helper panicked.
    fn close(&self) -> bool {
        let mut g = self.state.lock().expect("ticket header poisoned");
        g.closed = true;
        while g.active > 0 {
            g = self.cv.wait(g).expect("ticket header poisoned");
        }
        g.panicked
    }
}

/// Closes a header when dropped, so the submitting frame is guaranteed to
/// outlive every helper **even when the submitter's own participation
/// unwinds** — without this, queued tickets would point at a dead stack
/// frame. On the normal path the guard is dropped explicitly and the
/// helper-panic flag re-raised.
struct CloseGuard<'a> {
    header: &'a TicketHeader,
}

impl CloseGuard<'_> {
    /// Normal-path completion: close and propagate helper panics.
    fn finish(self) {
        let panicked = self.header.close();
        std::mem::forget(self);
        if panicked {
            panic!("a worker-pool helper panicked while running a pool job");
        }
    }
}

impl Drop for CloseGuard<'_> {
    fn drop(&mut self) {
        // Unwind path: seal the job before the frame dies. Helper panics
        // are swallowed here — the submitter is already panicking.
        let _ = self.header.close();
    }
}

/// A queued offer of help on some job. `data` points into the submitting
/// call's stack frame; the header protocol (see [`TicketHeader`]) keeps
/// the pointer from ever being dereferenced after that frame is gone.
struct Ticket {
    header: Arc<TicketHeader>,
    call: unsafe fn(*const ()),
    data: *const (),
    /// Gang member tickets jump the queue and participate in the
    /// idle-worker reservation accounting (see [`WorkerPool::gang`]).
    gang: bool,
}

// SAFETY: `data` crosses threads as an opaque pointer and is only
// dereferenced under the header's enter/exit protocol, while the owning
// stack frame is provably alive.
unsafe impl Send for Ticket {}

struct PoolState {
    queue: VecDeque<Ticket>,
    /// Workers currently parked in the condvar wait — provably free to
    /// pick up work the moment it is queued. Gangs may only count on
    /// *these* workers reaching their rendezvous; busy workers might
    /// themselves be blocked inside another gang's submit or a nested
    /// job, so promising them would deadlock.
    idle: usize,
    /// Gang member tickets queued but not yet popped. Kept `<= idle` at
    /// reservation time so every queued gang ticket maps to a worker
    /// that is parked right now and will pop from the gang region at the
    /// queue front when it wakes.
    gang_pending: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    workers: usize,
}

/// A persistent pool of worker threads. See the module docs for the
/// scheduling model and the determinism contract.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

fn worker_loop(shared: &Shared) {
    loop {
        let ticket = {
            let mut g = shared.state.lock().expect("pool state poisoned");
            loop {
                if g.shutdown {
                    return;
                }
                if let Some(t) = g.queue.pop_front() {
                    if t.gang {
                        g.gang_pending -= 1;
                    }
                    break t;
                }
                g.idle += 1;
                g = shared.work_cv.wait(g).expect("pool state poisoned");
                g.idle -= 1;
            }
        };
        if ticket.header.enter() {
            // SAFETY: `enter` succeeded, so the owning frame is alive and
            // will stay alive until we `exit` (its `close` blocks on us).
            // A panicking job body must still `exit` — otherwise the
            // submitter's `close` would wait forever — and must not kill
            // this worker thread; the panic is recorded in the header and
            // re-raised on the submitting thread instead.
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
                (ticket.call)(ticket.data)
            }));
            ticket.header.exit(res.is_err());
        }
    }
}

impl WorkerPool {
    /// Starts a pool with the given number of persistent workers.
    /// Dropping the pool shuts the workers down and joins them — which is
    /// exactly the per-instance spawn cost the shared [`WorkerPool::global`]
    /// pool exists to avoid.
    pub fn new(workers: usize) -> WorkerPool {
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                idle: 0,
                gang_pending: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            workers,
        });
        let handles = (0..workers)
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fuzzyflow-pool-{i}"))
                    .spawn(move || worker_loop(&sh))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// The process-wide pool: one worker per available core, started on
    /// first use, never torn down. This is the single scheduling
    /// substrate behind campaigns, differential trial batches and
    /// distributed rank gangs.
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| WorkerPool::new(resolve_threads(0)))
    }

    /// Number of persistent workers (excluding submitting threads, which
    /// always participate in their own jobs).
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Runs `body` once for every index in `0..len`, on at most `width`
    /// concurrent participants (the calling thread plus up to
    /// `width - 1` pool workers).
    ///
    /// Each participant lazily creates one private `scratch = init()` on
    /// first claim, reuses it across every index it steals (this is how
    /// the differential tester keeps one compiled-program executor pair
    /// per worker), and hands it to `finish` when the range is drained.
    /// Indices are claimed from a shared cursor in increasing order, each
    /// exactly once. The call returns only after every index has been
    /// processed and every `finish` has run.
    ///
    /// Determinism contract: `body(scratch, i)` must derive everything
    /// about item `i` from `i` itself (not from claim order or
    /// participant identity), and results must be assembled keyed by
    /// index — then the outcome is byte-identical for every `width`,
    /// pool size and schedule.
    pub fn parallel_for<S, I, B, F>(&self, len: usize, width: usize, init: I, body: B, finish: F)
    where
        I: Fn() -> S + Sync,
        B: Fn(&mut S, usize) + Sync,
        F: Fn(S) + Sync,
    {
        if len == 0 {
            return;
        }
        let job = ForJob {
            next: AtomicUsize::new(0),
            len,
            init: &init,
            body: &body,
            finish: &finish,
            _scratch: PhantomData::<fn() -> S>,
        };
        let tickets = width
            .saturating_sub(1)
            .min(self.shared.workers)
            .min(len.saturating_sub(1));
        let header = TicketHeader::new();
        if tickets > 0 {
            let mut g = self.shared.state.lock().expect("pool state poisoned");
            for _ in 0..tickets {
                g.queue.push_back(Ticket {
                    header: Arc::clone(&header),
                    call: participate_for::<S, I, B, F>,
                    data: &job as *const ForJob<'_, S, I, B, F> as *const (),
                    gang: false,
                });
            }
            drop(g);
            self.shared.work_cv.notify_all();
        }
        // The guard seals the job on every path — including the
        // submitter's own body panicking — so stale tickets popped later
        // see `closed` and never touch the dead frame, and active helpers
        // are always waited for before the frame dies.
        let guard = CloseGuard { header: &header };
        job.participate();
        guard.finish();
    }

    /// Runs `f(member)` for every member in `0..n`, guaranteeing that all
    /// `n` members can be live *simultaneously* — required when members
    /// block on each other (collective rendezvous in the simulated
    /// multi-rank runtime).
    ///
    /// The co-scheduling guarantee never leans on busy workers (they may
    /// themselves be blocked inside another gang's submit or a nested
    /// job): member tickets are issued only against workers that are
    /// *parked idle at submit time* — counted under the queue lock, with
    /// gang tickets jumping to the queue front so woken workers consume
    /// them before any other work — and every remaining member is covered
    /// by a temporary scoped thread. The calling thread is always a
    /// member. Members that finish early steal remaining member ids, and
    /// the call returns when all `n` have completed; a panicking member
    /// is re-raised here after the gang drains.
    pub fn gang<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if n == 0 {
            return;
        }
        let job = GangJob {
            next: AtomicUsize::new(0),
            n,
            f: &f,
            done: Mutex::new(0),
            done_cv: Condvar::new(),
            panicked: std::sync::atomic::AtomicBool::new(false),
        };
        let header = TicketHeader::new();
        let reserved = {
            let mut g = self.shared.state.lock().expect("pool state poisoned");
            let take = g.idle.saturating_sub(g.gang_pending).min(n - 1);
            g.gang_pending += take;
            for _ in 0..take {
                g.queue.push_front(Ticket {
                    header: Arc::clone(&header),
                    call: participate_gang::<F>,
                    data: &job as *const GangJob<'_, F> as *const (),
                    gang: true,
                });
            }
            take
        };
        if reserved > 0 {
            self.shared.work_cv.notify_all();
        }
        let temps = n - 1 - reserved;
        {
            // Seal the job on every exit path (including an unwinding
            // member on the calling thread) before the frame dies.
            let guard = CloseGuard { header: &header };
            std::thread::scope(|s| {
                for _ in 0..temps {
                    s.spawn(|| job.participate());
                }
                job.participate();
                let mut d = job.done.lock().expect("gang state poisoned");
                while *d < n {
                    d = job.done_cv.wait(d).expect("gang state poisoned");
                }
            });
            guard.finish();
        }
        if job.panicked.load(Ordering::Relaxed) {
            panic!("a gang member panicked");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut g = self.shared.state.lock().expect("pool state poisoned");
            g.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Stack-allocated state of one `parallel_for` call. Referenced by raw
/// pointer from queued tickets; validity is guaranteed by the
/// [`TicketHeader`] protocol.
struct ForJob<'a, S, I, B, F> {
    next: AtomicUsize,
    len: usize,
    init: &'a I,
    body: &'a B,
    finish: &'a F,
    _scratch: PhantomData<fn() -> S>,
}

impl<S, I, B, F> ForJob<'_, S, I, B, F>
where
    I: Fn() -> S + Sync,
    B: Fn(&mut S, usize) + Sync,
    F: Fn(S) + Sync,
{
    fn participate(&self) {
        let mut i = self.next.fetch_add(1, Ordering::Relaxed);
        if i >= self.len {
            return;
        }
        let mut scratch = (self.init)();
        while i < self.len {
            (self.body)(&mut scratch, i);
            i = self.next.fetch_add(1, Ordering::Relaxed);
        }
        (self.finish)(scratch);
    }
}

/// Type-erased entry point a worker invokes for a `parallel_for` ticket.
///
/// # Safety
///
/// `data` must point to a live `ForJob<S, I, B, F>`; guaranteed by the
/// header protocol in [`worker_loop`].
unsafe fn participate_for<S, I, B, F>(data: *const ())
where
    I: Fn() -> S + Sync,
    B: Fn(&mut S, usize) + Sync,
    F: Fn(S) + Sync,
{
    let job = unsafe { &*(data as *const ForJob<'_, S, I, B, F>) };
    job.participate();
}

/// Stack-allocated state of one `gang` call.
struct GangJob<'a, F> {
    next: AtomicUsize,
    n: usize,
    f: &'a F,
    done: Mutex<usize>,
    done_cv: Condvar,
    panicked: std::sync::atomic::AtomicBool,
}

impl<F> GangJob<'_, F>
where
    F: Fn(usize) + Sync,
{
    fn participate(&self) {
        loop {
            let id = self.next.fetch_add(1, Ordering::Relaxed);
            if id >= self.n {
                return;
            }
            // A panicking member must still count toward `done` (or the
            // submitter would wait forever) and must not unwind through a
            // temp-thread scope or a pool worker; it is recorded and
            // re-raised on the submitting thread once the gang drains.
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (self.f)(id)));
            if res.is_err() {
                self.panicked.store(true, Ordering::Relaxed);
            }
            let mut d = self.done.lock().expect("gang state poisoned");
            *d += 1;
            if *d == self.n {
                self.done_cv.notify_all();
            }
        }
    }
}

/// Type-erased entry point a worker invokes for a `gang` ticket.
///
/// # Safety
///
/// `data` must point to a live `GangJob<F>`; guaranteed by the header
/// protocol in [`worker_loop`].
unsafe fn participate_gang<F>(data: *const ())
where
    F: Fn(usize) + Sync,
{
    let job = unsafe { &*(data as *const GangJob<'_, F>) };
    job.participate();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn resolve_threads_zero_means_per_core() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(1), 1);
    }

    #[test]
    fn resolve_threads_is_memoized_and_stable() {
        // Campaign-long stability: every `0` resolution in a process
        // returns the same number (probed once, then memoized).
        let first = resolve_threads(0);
        for _ in 0..1000 {
            assert_eq!(resolve_threads(0), first);
        }
    }

    /// Runs `f` over `0..len` on `pool` and returns the results in index
    /// order. Panics unless every index ran exactly once.
    fn run_indexed(
        pool: &WorkerPool,
        len: usize,
        width: usize,
        f: impl Fn(usize) -> usize + Sync,
    ) -> Vec<usize> {
        let out: Vec<Mutex<Option<usize>>> = (0..len).map(|_| Mutex::new(None)).collect();
        pool.parallel_for(
            len,
            width,
            || (),
            |_, i| {
                let prev = out[i].lock().unwrap().replace(f(i));
                assert!(prev.is_none(), "index {i} ran twice");
            },
            |_| {},
        );
        out.into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.into_inner()
                    .unwrap()
                    .unwrap_or_else(|| panic!("index {i} produced no result"))
            })
            .collect()
    }

    #[test]
    fn parallel_for_visits_every_index_exactly_once() {
        let pool = WorkerPool::new(3);
        let counts: Vec<AtomicUsize> = (0..200).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(
            200,
            4,
            || (),
            |_, i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            },
            |_| {},
        );
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn scratch_is_reused_within_a_participant() {
        let pool = WorkerPool::new(2);
        // Each participant counts how many indices it processed; the sum
        // over finish() calls must be the whole range.
        let total = AtomicUsize::new(0);
        let participants = AtomicUsize::new(0);
        pool.parallel_for(
            64,
            3,
            || 0usize,
            |seen, _| *seen += 1,
            |seen| {
                participants.fetch_add(1, Ordering::Relaxed);
                total.fetch_add(seen, Ordering::Relaxed);
            },
        );
        assert_eq!(total.load(Ordering::Relaxed), 64);
        let p = participants.load(Ordering::Relaxed);
        assert!((1..=3).contains(&p), "{p} participants");
    }

    #[test]
    fn nested_parallel_for_makes_progress() {
        // Outer job items each run an inner job on the same pool; the
        // submitter-participates rule keeps this deadlock-free even when
        // the pool is smaller than the nesting demands.
        let pool = WorkerPool::new(2);
        let out = run_indexed(&pool, 8, 4, |i| {
            let inner = run_indexed(&pool, 16, 4, |j| i * 100 + j);
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..8).map(|i| (0..16).map(|j| i * 100 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn zero_length_job_is_a_noop() {
        let pool = WorkerPool::new(1);
        let ran = AtomicBool::new(false);
        pool.parallel_for(
            0,
            4,
            || (),
            |_, _| {
                ran.store(true, Ordering::Relaxed);
            },
            |_| {},
        );
        assert!(!ran.load(Ordering::Relaxed));
        assert!(run_indexed(&pool, 0, 4, |i| i).is_empty());
    }

    #[test]
    fn gang_members_are_coscheduled_even_on_a_tiny_pool() {
        // A barrier across all members deadlocks unless every member is
        // live simultaneously; the pool has fewer workers than members,
        // so the gang must top up with temporary threads.
        let pool = WorkerPool::new(1);
        let n = 6;
        let barrier = std::sync::Barrier::new(n);
        let hits = AtomicUsize::new(0);
        pool.gang(n, |_| {
            barrier.wait();
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), n);
    }

    #[test]
    fn gang_member_ids_are_each_run_once() {
        let pool = WorkerPool::new(4);
        let counts: Vec<AtomicUsize> = (0..5).map(|_| AtomicUsize::new(0)).collect();
        pool.gang(5, |id| {
            counts[id].fetch_add(1, Ordering::Relaxed);
        });
        for (id, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "member {id}");
        }
    }

    #[test]
    fn concurrent_gangs_do_not_deadlock() {
        let pool = std::sync::Arc::new(WorkerPool::new(2));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let p = std::sync::Arc::clone(&pool);
            joins.push(std::thread::spawn(move || {
                let barrier = std::sync::Barrier::new(3);
                p.gang(3, |_| {
                    barrier.wait();
                });
            }));
        }
        for j in joins {
            j.join().expect("gang thread panicked");
        }
    }

    #[test]
    fn body_panic_propagates_to_submitter_and_pool_survives() {
        let pool = WorkerPool::new(2);
        // Panic raised from whichever participant claims index 3 — the
        // submitter must observe it, and the pool must stay usable.
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.parallel_for(
                8,
                4,
                || (),
                |_, i| {
                    if i == 3 {
                        panic!("boom at {i}");
                    }
                },
                |_| {},
            );
        }));
        assert!(res.is_err(), "panic must propagate to the submitter");
        // Workers survived the panic and keep serving jobs.
        let out = run_indexed(&pool, 10, 4, |i| i * 3);
        assert_eq!(out, (0..10).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn gang_member_panic_propagates_and_gang_drains() {
        let pool = WorkerPool::new(2);
        let ran: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.gang(4, |id| {
                ran[id].fetch_add(1, Ordering::Relaxed);
                if id == 2 {
                    panic!("rank down");
                }
            });
        }));
        assert!(res.is_err(), "member panic must propagate");
        for (id, c) in ran.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "member {id} ran");
        }
        let out = run_indexed(&pool, 5, 2, |i| i);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn gang_nested_inside_parallel_for_does_not_deadlock() {
        // Every pool worker is busy inside parallel_for bodies that each
        // submit a gang needing 3 live members; the gang must not count
        // on those busy workers (they are blocked submitting gangs
        // themselves) and must top up with temporary threads.
        let pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        pool.parallel_for(
            4,
            4,
            || (),
            |_, _| {
                let barrier = std::sync::Barrier::new(3);
                pool.gang(3, |_| {
                    barrier.wait();
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            },
            |_| {},
        );
        assert_eq!(hits.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn dropping_a_pool_joins_its_workers() {
        let pool = WorkerPool::new(3);
        let out = run_indexed(&pool, 10, 4, |i| i + 1);
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
        drop(pool); // must not hang
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let g = WorkerPool::global();
        assert_eq!(g.workers(), resolve_threads(0));
        let want: Vec<usize> = (0..17).collect();
        assert_eq!(run_indexed(g, 17, 0, |i| i), want);
        // `width` larger than the pool is fine: tickets are capped.
        assert_eq!(run_indexed(g, 17, 10_000, |i| i), want);
    }
}
