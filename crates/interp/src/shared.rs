//! Process-wide shared compiled-program cache.
//!
//! Campaign sessions, sweeps and gang members routinely compile the same
//! cutout SDFG: every re-run of a session, every concurrent session over
//! the same workload, every distributed rank of one instance. Compilation
//! is pure — same SDFG and options, same [`Program`] — so one process
//! needs each program exactly once.
//!
//! The cache follows the lock-only-on-insert design of native fuzzing
//! code caches:
//!
//! * **Lookup never locks.** Readers load an atomic snapshot pointer to
//!   an immutable map and probe it; a hit is an `Arc` clone away.
//!   Concurrent lookups of *different* keys never contend on anything.
//! * **Insert locks briefly, compiles unlocked.** A miss takes the
//!   insert mutex only to publish a new snapshot containing an empty
//!   per-key slot (copy-on-write of the map — rare, small). The actual
//!   compilation happens *outside* that mutex through the slot's
//!   [`OnceLock`]: the first caller compiles, concurrent callers of the
//!   same key block on that slot only, and everyone receives the same
//!   `Arc<Program>`. One worker compiling never stalls workers on other
//!   keys, and there are no lost wakeups — `OnceLock::get_or_init` wakes
//!   every waiter exactly once.
//! * **Capacity is bounded.** Snapshots hold only [`Weak`] slot handles;
//!   the strong references live in one list guarded by the insert mutex,
//!   capped at [`cache_capacity`] entries with coarse LRU eviction
//!   (every hit stamps its entry from a global clock; an insert beyond
//!   capacity drops the oldest stamp). Eviction genuinely frees the
//!   program once its last outside user drops it. Superseded snapshots
//!   are intentionally leaked (readers may still hold them), but each is
//!   at most `capacity` weak handles — not programs.
//!
//! Shared `Arc<Program>`s also make the downstream identity-keyed caches
//! effective across campaigns: [`Program`] clones share their id, so
//! per-worker executor caches keyed by program identity hit whenever
//! the cache does.

use crate::program::{CompileOptions, Program};
use fuzzyflow_ir::Sdfg;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// One cache slot: filled exactly once, by whichever caller gets there
/// first; everyone else blocks on this slot only.
type Slot = Arc<OnceLock<Arc<Program>>>;

/// Immutable snapshot: content hash → weak slot handles (plus LRU
/// stamps) whose full keys share it.
type Shelf = HashMap<u64, Vec<(Arc<str>, Weak<OnceLock<Arc<Program>>>, Arc<AtomicU64>)>>;

/// One strong entry: `(content hash, full key, slot, LRU stamp)`.
type Entry = (u64, Arc<str>, Slot, Arc<AtomicU64>);

struct SharedCache {
    /// Current snapshot (null until the first insert). Always points to
    /// a leaked, and therefore `'static`, immutable `Shelf`.
    snap: AtomicPtr<Shelf>,
    /// The bounded strong-reference list; doubles as the insert lock.
    /// Never held while compiling.
    strong: Mutex<Vec<Entry>>,
}

/// Default capacity of the process-wide caches (see [`cache_capacity`]).
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

static CACHE: OnceLock<SharedCache> = OnceLock::new();
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CACHE_CAPACITY);
static CLOCK: AtomicU64 = AtomicU64::new(1);
static COMPILES: AtomicU64 = AtomicU64::new(0);
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// The shared capacity knob of every process-wide stash: the program
/// cache here, the native-code cache ([`crate::jit`]), the fuzzing
/// layer's per-instance arena stashes. Entries, not
/// bytes; defaults to [`DEFAULT_CACHE_CAPACITY`].
pub fn cache_capacity() -> usize {
    CAPACITY.load(Ordering::Relaxed)
}

/// Sets [`cache_capacity`] process-wide (clamped to at least 1). Takes
/// effect on the next insert of each cache; already-resident entries
/// beyond a lowered capacity are evicted then.
pub fn set_cache_capacity(cap: usize) {
    CAPACITY.store(cap.max(1), Ordering::Relaxed);
}

fn cache() -> &'static SharedCache {
    CACHE.get_or_init(|| SharedCache {
        snap: AtomicPtr::new(std::ptr::null_mut()),
        strong: Mutex::new(Vec::new()),
    })
}

/// Number of programs this process has actually compiled through the
/// shared cache (cache hits do not count). Warm re-runs of a campaign
/// should leave this unchanged.
pub fn shared_compile_count() -> u64 {
    COMPILES.load(Ordering::Relaxed)
}

/// Cumulative counters of the process-wide shared program cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Lock-free probes that found a live slot.
    pub hits: u64,
    /// Probes that found nothing (or an evicted slot).
    pub misses: u64,
    /// Entries dropped by LRU eviction.
    pub evictions: u64,
    /// Programs actually compiled (same counter as
    /// [`shared_compile_count`]).
    pub compiles: u64,
}

/// Current counters of the shared program cache.
pub fn shared_cache_stats() -> SharedCacheStats {
    SharedCacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
        compiles: COMPILES.load(Ordering::Relaxed),
    }
}

fn shelf_of(c: &'static SharedCache) -> Option<&'static Shelf> {
    // SAFETY: `snap` only ever holds null or a pointer from
    // `Box::leak`, so any non-null value is valid for the process
    // lifetime and never mutated after publication.
    unsafe { c.snap.load(Ordering::Acquire).as_ref() }
}

/// Lock-free probe of the published snapshot. A hit refreshes the
/// entry's LRU stamp.
fn probe(shelf: Option<&Shelf>, h: u64, key: &str) -> Option<Slot> {
    let (_, weak, stamp) = shelf
        .and_then(|m| m.get(&h))
        .and_then(|v| v.iter().find(|(k, _, _)| &**k == key))?;
    let slot = weak.upgrade()?;
    stamp.store(CLOCK.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
    Some(slot)
}

/// Rebuilds and publishes the snapshot from the (bounded) strong list.
/// Caller holds the insert lock.
fn publish(c: &'static SharedCache, strong: &[Entry]) {
    let mut next: Shelf = HashMap::new();
    for (h, k, slot, stamp) in strong {
        next.entry(*h)
            .or_default()
            .push((Arc::clone(k), Arc::downgrade(slot), Arc::clone(stamp)));
    }
    // Leak the new snapshot; the superseded one stays alive for readers
    // that already loaded it, holding only weak handles.
    c.snap.store(Box::leak(Box::new(next)), Ordering::Release);
}

/// [`Program::compile`] through the shared cache.
pub fn compile_shared(sdfg: &Sdfg) -> Arc<Program> {
    compile_shared_with(sdfg, &CompileOptions::default())
}

/// [`Program::compile_with_options`] through the shared cache: returns
/// the one `Arc<Program>` this process holds for the given SDFG content
/// and options, compiling it at most once while resident.
pub fn compile_shared_with(sdfg: &Sdfg, opts: &CompileOptions) -> Arc<Program> {
    // Content key: options plus the SDFG's complete debug rendering
    // (structurally equal SDFGs render identically). Hash for the map,
    // full string compare on probe — no collision risk.
    let key = format!(
        "s{}f{}|{sdfg:?}",
        opts.specialize_f64 as u8, opts.fuse_maps as u8
    );
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    let h = hasher.finish();

    let c = cache();
    let slot = match probe(shelf_of(c), h, &key) {
        Some(slot) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            slot
        }
        None => {
            MISSES.fetch_add(1, Ordering::Relaxed);
            let mut strong = c.strong.lock().expect("shared-cache insert lock");
            // Re-probe under the lock (against the authoritative strong
            // list): a concurrent inserter may have published this key
            // between our miss and the acquisition.
            if let Some((_, _, slot, stamp)) =
                strong.iter().find(|(eh, ek, _, _)| *eh == h && **ek == key)
            {
                stamp.store(CLOCK.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
                Arc::clone(slot)
            } else {
                let slot: Slot = Arc::new(OnceLock::new());
                let stamp = Arc::new(AtomicU64::new(CLOCK.fetch_add(1, Ordering::Relaxed)));
                strong.push((h, Arc::from(key.as_str()), Arc::clone(&slot), stamp));
                let cap = cache_capacity();
                while strong.len() > cap {
                    let oldest = strong
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, (_, _, _, s))| s.load(Ordering::Relaxed))
                        .map(|(i, _)| i)
                        .expect("non-empty over-capacity list");
                    strong.remove(oldest);
                    EVICTIONS.fetch_add(1, Ordering::Relaxed);
                }
                publish(c, &strong);
                slot
            }
        }
    };
    Arc::clone(slot.get_or_init(|| {
        COMPILES.fetch_add(1, Ordering::Relaxed);
        Arc::new(Program::compile_with_options(sdfg, opts))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzyflow_ir::{DType, Memlet, ScalarExpr, SdfgBuilder, Subset, SymExpr, Tasklet};

    fn sample(name: &str, factor: f64) -> Sdfg {
        let mut b = SdfgBuilder::new(name);
        b.symbol("N");
        b.array("A", DType::F64, &["N"]);
        b.array("B", DType::F64, &["N"]);
        let st = b.start();
        b.in_state(st, |df| {
            let a = df.access("A");
            let o = df.access("B");
            let t = df.tasklet(Tasklet::simple(
                "t",
                vec!["x"],
                "y",
                ScalarExpr::r("x").mul(ScalarExpr::f64(factor)),
            ));
            df.read(
                a,
                t,
                Memlet::new("A", Subset::at(vec![SymExpr::sym("i")])).to_conn("x"),
            );
            df.write(
                t,
                o,
                Memlet::new("B", Subset::at(vec![SymExpr::sym("i")])).from_conn("y"),
            );
            let _ = df;
        });
        b.build()
    }

    // One test (not several) so the global compile counter deltas cannot
    // race against a sibling test in the same process.
    #[test]
    fn shared_cache_compiles_each_content_once() {
        // Structurally identical SDFGs built twice: one compilation.
        let s1 = sample("shared_cache_once", 2.0);
        let s2 = sample("shared_cache_once", 2.0);
        let before = shared_compile_count();
        let p1 = compile_shared(&s1);
        let p2 = compile_shared(&s2);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(p1.id(), p2.id());
        assert_eq!(shared_compile_count() - before, 1);
        // Different options miss; the original key still hits.
        let p3 = compile_shared_with(
            &s1,
            &CompileOptions {
                fuse_maps: false,
                ..Default::default()
            },
        );
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!(shared_compile_count() - before, 2);
        assert!(Arc::ptr_eq(&p1, &compile_shared(&s2)));
        assert_eq!(shared_compile_count() - before, 2);
        let stats = shared_cache_stats();
        assert!(stats.hits >= 1 && stats.misses >= 2);

        // Eight threads racing on a fresh key: everyone gets the same
        // program, exactly one compilation, no lost wakeups.
        let racy = sample("shared_cache_race", 3.0);
        let before = shared_compile_count();
        let ids: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| compile_shared(&racy).id()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(shared_compile_count() - before, 1);

        // Capacity bound: with a capacity of 2, three distinct keys
        // force an LRU eviction, and re-requesting the evicted content
        // recompiles under a fresh program id.
        let cap_before = cache_capacity();
        set_cache_capacity(2);
        let (ca, cb, cc) = (
            sample("shared_cache_cap_a", 4.0),
            sample("shared_cache_cap_b", 5.0),
            sample("shared_cache_cap_c", 6.0),
        );
        let ev_before = shared_cache_stats().evictions;
        let a1 = compile_shared(&ca).id();
        let _ = compile_shared(&cb);
        let _ = compile_shared(&cc);
        assert!(shared_cache_stats().evictions > ev_before);
        // Everything from before this block was evicted too; the one
        // entry guaranteed gone is the LRU — `ca` among the three.
        let a2 = compile_shared(&ca).id();
        assert_ne!(a1, a2, "evicted content must recompile");
        set_cache_capacity(cap_before);
    }
}
