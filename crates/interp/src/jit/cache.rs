//! Process-wide shared native-code cache.
//!
//! Probes sit on the per-map-execution path, so they read an immutable
//! snapshot of the map without locking; the insert mutex is taken to
//! publish a new snapshot, and by a probing thread once after each
//! publication to pick the new snapshot up:
//!
//! * Every thread keeps the snapshot it last saw, tagged with its
//!   generation. A probe compares that tag with the published generation
//!   (one atomic load) and, while they agree, probes its own copy —
//!   nothing shared is written but the entry's LRU stamp. Only after an
//!   insert does the next probe of each thread lock, to swap its copy.
//! * Snapshots are reference-counted, so a superseded one is freed when
//!   the last thread lets go of it: retained memory is at most one
//!   snapshot per thread plus the current one, whatever the number of
//!   inserts.
//! * Snapshots hold only [`Weak`] references. The strong references
//!   live in one bounded list guarded by the insert mutex, so evicting
//!   an entry actually drops it — the pages are unmapped as soon as the
//!   last executor running that kernel finishes.
//! * Eviction is coarse LRU: every probe hit stamps its entry from a
//!   global clock, and an insert that exceeds
//!   [`cache_capacity`](crate::cache_capacity) drops the entry with the
//!   oldest stamp.
//!
//! Concurrent misses on one key may both emit the (tiny) blob; the
//! insert then keeps the first and the loser's copy is dropped — code
//! emission is far cheaper than serializing all compilations through a
//! per-key slot would be.

use super::JitCode;
use crate::shared::cache_capacity;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Immutable snapshot: kernel `jit_key` → (code, LRU stamp).
type Shelf = HashMap<u64, (Weak<JitCode>, Arc<AtomicU64>)>;

/// One strong entry: `(key, code, LRU stamp)`.
type Entry = (u64, Arc<JitCode>, Arc<AtomicU64>);

/// What the insert mutex guards.
struct CodeCache {
    /// The bounded strong-reference list.
    strong: Vec<Entry>,
    /// The snapshot built from `strong` at the last insert.
    snap: Arc<Shelf>,
}

static CACHE: Mutex<Option<CodeCache>> = Mutex::new(None);
/// Number of snapshots published so far; written under the insert lock,
/// after the snapshot it announces is in place.
static GENERATION: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's snapshot and the generation it belongs to.
    static LOCAL: RefCell<(u64, Arc<Shelf>)> = RefCell::new((0, Arc::default()));
}

static CLOCK: AtomicU64 = AtomicU64::new(1);
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);
static COMPILES: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Cumulative counters of the process-wide native-code cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CodeCacheStats {
    /// Lock-free probes that found live code.
    pub hits: u64,
    /// Probes that found nothing (or an evicted entry).
    pub misses: u64,
    /// Entries dropped by LRU eviction.
    pub evictions: u64,
    /// Kernels lowered to native code (cache hits do not count).
    pub compiles: u64,
    /// Total native code bytes emitted. Warm campaign re-runs leave
    /// this unchanged.
    pub bytes: u64,
}

/// Current counters of the native-code cache. Warm re-runs of a campaign
/// should leave `compiles` and `bytes` unchanged.
pub fn code_cache_stats() -> CodeCacheStats {
    CodeCacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
        compiles: COMPILES.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

fn lock() -> std::sync::MutexGuard<'static, Option<CodeCache>> {
    CACHE.lock().expect("code cache poisoned")
}

/// Lock-free probe while no insert has happened since this thread's
/// last one. A hit refreshes the entry's LRU stamp.
pub(crate) fn lookup(key: u64) -> Option<Arc<JitCode>> {
    let found = LOCAL.with_borrow_mut(|(generation, shelf)| {
        // Acquire pairs with the Release store in `insert`: seeing a
        // generation means its snapshot is in place behind the lock.
        let published = GENERATION.load(Ordering::Acquire);
        if *generation != published {
            if let Some(cache) = lock().as_ref() {
                *shelf = Arc::clone(&cache.snap);
            }
            *generation = published;
        }
        let (code, stamp) = shelf.get(&key)?;
        let code = code.upgrade()?;
        stamp.store(CLOCK.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
        Some(code)
    });
    match &found {
        Some(_) => HITS.fetch_add(1, Ordering::Relaxed),
        None => MISSES.fetch_add(1, Ordering::Relaxed),
    };
    found
}

/// Records an emission (for the `bytes`/`compiles` counters) before the
/// blob is published.
pub(crate) fn count_emission(bytes: usize) {
    COMPILES.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Publishes freshly emitted code under `key`, returning the cache's
/// entry for it (ours, or a concurrent winner's). Takes the insert lock
/// briefly; evicts the least-recently-probed entries beyond the
/// configured capacity.
pub(crate) fn insert(key: u64, code: JitCode) -> Arc<JitCode> {
    let mut guard = lock();
    let cache = guard.get_or_insert_with(|| CodeCache {
        strong: Vec::new(),
        snap: Arc::default(),
    });
    let strong = &mut cache.strong;
    if let Some((_, existing, stamp)) = strong.iter().find(|(k, _, _)| *k == key) {
        // A concurrent emitter won the race; keep one copy.
        stamp.store(CLOCK.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
        return Arc::clone(existing);
    }
    let code = Arc::new(code);
    let stamp = Arc::new(AtomicU64::new(CLOCK.fetch_add(1, Ordering::Relaxed)));
    strong.push((key, Arc::clone(&code), stamp));
    let cap = cache_capacity();
    while strong.len() > cap {
        let oldest = strong
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, _, s))| s.load(Ordering::Relaxed))
            .map(|(i, _)| i)
            .expect("non-empty over-capacity list");
        strong.remove(oldest);
        EVICTIONS.fetch_add(1, Ordering::Relaxed);
    }
    // Rebuild the snapshot from the (bounded) strong list and announce
    // it; the superseded one lives on only in threads that have not
    // probed since, as weak handles.
    cache.snap = Arc::new(
        strong
            .iter()
            .map(|(k, a, s)| (*k, (Arc::downgrade(a), Arc::clone(s))))
            .collect(),
    );
    GENERATION.fetch_add(1, Ordering::Release);
    code
}
