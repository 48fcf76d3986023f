//! Per-worker keyed caches.
//!
//! A [`WorkerCache`] stores values in thread-local storage — one stash
//! per worker thread, no locks, no cross-thread sharing. Because the
//! [`WorkerPool`](crate::WorkerPool) keeps its workers alive for the
//! whole process, a worker's stash survives across jobs: a caller that
//! holds one compiled program across calls — the distributed runtime —
//! gets its warm arena back outright ([`Checkout::Hit`]), and one that
//! moved on to another program recycles the previous allocations
//! ([`Checkout::Recycled`]).
//!
//! Values are type-erased (`Box<dyn Any>`) so one thread-local store can
//! serve caches of different value types; each [`WorkerCache`] instance
//! has a process-unique id, entries are tagged with it, and a cache only
//! ever sees its own entries — which is what makes the downcast in
//! [`WorkerCache::checkout`] infallible.

use std::any::Any;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// `(cache id, key, value)` triple of one stashed entry.
type Slot = (u64, u64, Box<dyn Any>);

thread_local! {
    /// This thread's stash, oldest first per cache (hits are removed and
    /// re-stored, which refreshes them).
    static SLOTS: RefCell<Vec<Slot>> = const { RefCell::new(Vec::new()) };
}

/// Outcome of a [`WorkerCache::checkout`].
pub enum Checkout<T> {
    /// A value stored under exactly this key (warm for this key).
    Hit(T),
    /// No entry for the key; an entry stored under another key was
    /// evicted instead — its allocations are warm, its contents stale.
    Recycled(T),
    /// This worker has nothing cached for this cache.
    Miss,
}

/// A bounded per-worker-thread cache keyed by `u64` identities.
///
/// `checkout` removes the returned entry (a value is never lent to two
/// users), and `store` puts it back; callers own the value in between.
/// Dropping a checked-out value instead of re-storing it simply shrinks
/// the cache.
///
/// Instances are meant to live for the whole process (the in-tree users
/// are `OnceLock` singletons): entries are tagged with the instance's id
/// and evicted only by that instance's own `store` calls, so entries of
/// a dropped cache linger in each worker's thread-local stash until the
/// thread exits. Do not mint short-lived caches per campaign object.
pub struct WorkerCache<T: 'static> {
    id: u64,
    capacity: AtomicUsize,
    _marker: PhantomData<fn() -> T>,
}

impl<T: 'static> WorkerCache<T> {
    /// A cache holding at most `capacity` entries per worker thread.
    pub fn new(capacity: usize) -> Self {
        static NEXT_CACHE_ID: AtomicU64 = AtomicU64::new(1);
        WorkerCache {
            id: NEXT_CACHE_ID.fetch_add(1, Ordering::Relaxed),
            capacity: AtomicUsize::new(capacity.max(1)),
            _marker: PhantomData,
        }
    }

    /// Re-bounds the per-thread capacity (clamped to at least 1). Takes
    /// effect on subsequent [`WorkerCache::store`] calls — long-lived
    /// caches can track a process-wide capacity knob without being
    /// rebuilt. Entries already stashed beyond a lowered bound are
    /// evicted one per store, not eagerly.
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity.max(1), Ordering::Relaxed);
    }

    /// Takes the entry stored under `key` on this thread, or — failing
    /// that — the least-recently stored entry of this cache under any
    /// key, for recycling.
    pub fn checkout(&self, key: u64) -> Checkout<T> {
        SLOTS.with(|s| {
            let mut slots = s.borrow_mut();
            if let Some(pos) = slots
                .iter()
                .rposition(|(c, k, _)| *c == self.id && *k == key)
            {
                let (_, _, boxed) = slots.remove(pos);
                return Checkout::Hit(*boxed.downcast::<T>().expect("cache id implies type"));
            }
            if let Some(pos) = slots.iter().position(|(c, _, _)| *c == self.id) {
                let (_, _, boxed) = slots.remove(pos);
                return Checkout::Recycled(*boxed.downcast::<T>().expect("cache id implies type"));
            }
            Checkout::Miss
        })
    }

    /// [`WorkerCache::checkout`] that builds a fresh value on a miss and
    /// flattens hit/recycled (both are "reusable storage").
    pub fn checkout_or(&self, key: u64, fresh: impl FnOnce() -> T) -> T {
        match self.checkout(key) {
            Checkout::Hit(v) | Checkout::Recycled(v) => v,
            Checkout::Miss => fresh(),
        }
    }

    /// Stores `value` under `key` on this thread, evicting the oldest
    /// entry of this cache if the per-thread capacity is exceeded.
    pub fn store(&self, key: u64, value: T) {
        SLOTS.with(|s| {
            let mut slots = s.borrow_mut();
            slots.push((self.id, key, Box::new(value)));
            let count = slots.iter().filter(|(c, _, _)| *c == self.id).count();
            if count > self.capacity.load(Ordering::Relaxed) {
                if let Some(pos) = slots.iter().position(|(c, _, _)| *c == self.id) {
                    slots.remove(pos);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_the_stored_value() {
        let cache: WorkerCache<Vec<u8>> = WorkerCache::new(4);
        cache.store(7, vec![1, 2, 3]);
        match cache.checkout(7) {
            Checkout::Hit(v) => assert_eq!(v, vec![1, 2, 3]),
            _ => panic!("expected a hit"),
        }
        // Checked out: gone until re-stored.
        assert!(matches!(cache.checkout(7), Checkout::Miss));
    }

    #[test]
    fn other_keys_recycle_lru_first() {
        let cache: WorkerCache<u32> = WorkerCache::new(4);
        cache.store(1, 10);
        cache.store(2, 20);
        match cache.checkout(99) {
            Checkout::Recycled(v) => assert_eq!(v, 10, "oldest entry recycles first"),
            _ => panic!("expected recycling"),
        }
    }

    #[test]
    fn capacity_bounds_entries_per_thread() {
        let cache: WorkerCache<u32> = WorkerCache::new(2);
        cache.store(1, 10);
        cache.store(2, 20);
        cache.store(3, 30); // evicts key 1
        assert!(matches!(cache.checkout(1), Checkout::Recycled(_)));
        cache.store(2, 21);
        assert!(matches!(cache.checkout(2), Checkout::Hit(21)));
    }

    #[test]
    fn set_capacity_rebounds_later_stores() {
        let cache: WorkerCache<u32> = WorkerCache::new(4);
        cache.store(1, 10);
        cache.store(2, 20);
        cache.set_capacity(1);
        cache.store(3, 30); // over the new bound: evicts key 1
        cache.store(4, 40); // evicts key 2
        assert!(matches!(cache.checkout(1), Checkout::Recycled(30)));
        assert!(matches!(cache.checkout(4), Checkout::Hit(40)));
        assert!(matches!(cache.checkout(3), Checkout::Miss));
    }

    #[test]
    fn caches_of_different_types_share_the_store_safely() {
        let a: WorkerCache<String> = WorkerCache::new(2);
        let b: WorkerCache<u64> = WorkerCache::new(2);
        a.store(5, "five".to_string());
        b.store(5, 5u64);
        assert!(matches!(a.checkout(5), Checkout::Hit(ref s) if s == "five"));
        assert!(matches!(b.checkout(5), Checkout::Hit(5)));
    }

    #[test]
    fn stashes_are_per_thread() {
        let cache: std::sync::Arc<WorkerCache<u32>> = std::sync::Arc::new(WorkerCache::new(4));
        cache.store(1, 42);
        let c = std::sync::Arc::clone(&cache);
        std::thread::spawn(move || {
            assert!(matches!(c.checkout(1), Checkout::Miss));
        })
        .join()
        .expect("thread");
        assert!(matches!(cache.checkout(1), Checkout::Hit(42)));
    }
}
