//! Process-wide shared compiled-program cache.
//!
//! Campaign sessions, sweeps and gang members routinely compile the same
//! cutout SDFG: every re-run of a session, every concurrent session over
//! the same workload, every distributed rank of one instance. Compilation
//! is pure — same SDFG and options, same [`Program`] — so one process
//! needs each program exactly once.
//!
//! The cache is a plain locked map with one fill-once slot per key:
//!
//! * **The key is a structural fingerprint.** A 128-bit hash of the
//!   compile options and the whole SDFG, taken in one walk of its derived
//!   `Hash` before the lock (see [`compile_shared_with`] for the
//!   collision bound).
//! * **Probe and insert take one short lock.** The map lock covers a
//!   hash lookup, an LRU stamp and — on a miss — the insertion of an
//!   empty slot and the eviction it may force. It is taken once per
//!   prepared program, never per trial, and **never held while
//!   compiling**.
//! * **Compilation happens in the key's slot.** The slot is a
//!   [`OnceLock`]: the first caller compiles, concurrent callers of the
//!   same key block on that slot only, and everyone receives the same
//!   `Arc<Program>`. One worker compiling never stalls workers on other
//!   keys, and there are no lost wakeups — `OnceLock::get_or_init` wakes
//!   every waiter exactly once.
//! * **Capacity is bounded, and so is memory.** At most
//!   [`cache_capacity`] entries are resident, with coarse LRU eviction
//!   (every hit stamps its entry from a clock; an insert beyond capacity
//!   drops the oldest stamp). Eviction drops the entry's key and its
//!   strong reference, so an evicted program is freed as soon as its
//!   last outside user lets go of it; nothing outlives the map.
//!
//! Shared `Arc<Program>`s also make the downstream identity-keyed caches
//! effective across campaigns: [`Program`] clones share their id, so
//! per-worker executor caches keyed by program identity hit whenever
//! the cache does.

use crate::program::{CompileOptions, Program};
use fuzzyflow_ir::Sdfg;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One cache slot: filled exactly once, by whichever caller gets there
/// first; everyone else blocks on this slot only.
type Slot = Arc<OnceLock<Arc<Program>>>;

/// The resident entries, `content fingerprint → (slot, LRU stamp)`, and
/// the clock the stamps are drawn from.
#[derive(Default)]
struct SharedCache {
    entries: HashMap<u128, (Slot, u64)>,
    clock: u64,
}

/// Default capacity of the program cache and the arena stashes (see
/// [`cache_capacity`]).
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

static CACHE: OnceLock<Mutex<SharedCache>> = OnceLock::new();
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CACHE_CAPACITY);
static COMPILES: AtomicU64 = AtomicU64::new(0);
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// The shared capacity knob of the program cache here and of the fuzzing
/// layer's per-instance arena stashes. Entries, not bytes; defaults to
/// [`DEFAULT_CACHE_CAPACITY`]. Native code needs no bound of its own: it
/// lives exactly as long as the program whose kernels emitted it.
pub fn cache_capacity() -> usize {
    CAPACITY.load(Ordering::Relaxed)
}

/// Sets [`cache_capacity`] process-wide (clamped to at least 1). Takes
/// effect on the next insert of each cache; already-resident entries
/// beyond a lowered capacity are evicted then.
pub fn set_cache_capacity(cap: usize) {
    CAPACITY.store(cap.max(1), Ordering::Relaxed);
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
    /// Probes that found a resident slot.
    pub hits: u64,
    /// Probes that found nothing (never inserted, or evicted).
    pub misses: u64,
    /// Entries dropped by LRU eviction.
    pub evictions: u64,
    /// Programs actually compiled (same counter as
    /// [`shared_compile_count`]).
    pub compiles: u64,
    /// Entries resident right now — a gauge, not a cumulative count;
    /// never above [`cache_capacity`] after an insert.
    pub resident: usize,
}

/// Current counters of the shared program cache.
pub fn shared_cache_stats() -> SharedCacheStats {
    SharedCacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
        compiles: COMPILES.load(Ordering::Relaxed),
        resident: CACHE.get().map_or(0, |c| lock(c).entries.len()),
    }
}

fn lock(cache: &Mutex<SharedCache>) -> std::sync::MutexGuard<'_, SharedCache> {
    cache.lock().expect("shared program cache poisoned")
}

/// [`Program::compile`] through the shared cache.
pub fn compile_shared(sdfg: &Sdfg) -> Arc<Program> {
    compile_shared_with(sdfg, &CompileOptions::default())
}

/// [`Program::compile_with_options`] through the shared cache: returns
/// the one `Arc<Program>` this process holds for the given SDFG content
/// and options, compiling it at most once while resident.
///
/// The cache is keyed by a 128-bit structural fingerprint of the options
/// and the SDFG, taken in one `Hash` walk: structurally equal SDFGs (a
/// program and its clone, or the same cutout built twice) share a key,
/// and floating-point constants enter by their bits. Keys are not
/// compared beyond the fingerprint. Treating it as uniform, two of `n`
/// resident keys collide with probability below `n² / 2¹²⁹` — under
/// 10⁻³³ at the default capacity.
pub fn compile_shared_with(sdfg: &Sdfg, opts: &CompileOptions) -> Arc<Program> {
    let key = fingerprint(sdfg, opts);
    let slot = {
        let mut guard = lock(CACHE.get_or_init(Default::default));
        let cache = &mut *guard;
        cache.clock += 1;
        if let Some((slot, stamp)) = cache.entries.get_mut(&key) {
            HITS.fetch_add(1, Ordering::Relaxed);
            *stamp = cache.clock;
            Arc::clone(slot)
        } else {
            MISSES.fetch_add(1, Ordering::Relaxed);
            let slot = Slot::default();
            cache.entries.insert(key, (Arc::clone(&slot), cache.clock));
            let cap = cache_capacity();
            while cache.entries.len() > cap {
                let oldest = cache
                    .entries
                    .iter()
                    .min_by_key(|(_, (_, stamp))| *stamp)
                    .map(|(k, _)| *k)
                    .expect("non-empty over-capacity map");
                cache.entries.remove(&oldest);
                EVICTIONS.fetch_add(1, Ordering::Relaxed);
            }
            slot
        }
    };
    Arc::clone(slot.get_or_init(|| {
        COMPILES.fetch_add(1, Ordering::Relaxed);
        Arc::new(Program::compile_with_options(sdfg, opts))
    }))
}

/// The program-cache key of `(opts, sdfg)`.
fn fingerprint(sdfg: &Sdfg, opts: &CompileOptions) -> u128 {
    // Destructured so a new option cannot be left out of the key.
    let CompileOptions {
        specialize_f64,
        fuse_maps,
    } = *opts;
    let mut h = Fingerprint::default();
    (specialize_f64, fuse_maps, sdfg).hash(&mut h);
    h.finish128()
}

/// A two-lane 128-bit [`Hasher`]: every word written is folded into two
/// independently seeded 64-bit lanes by a 64×64→128 multiply whose halves
/// are xored together.
struct Fingerprint {
    lanes: [u64; 2],
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint {
            lanes: [0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344],
        }
    }
}

impl Fingerprint {
    const MULS: [u64; 2] = [0xa409_3822_299f_31d0, 0x082e_fa98_ec4e_6c89];

    #[inline]
    fn word(&mut self, x: u64) {
        for (lane, k) in self.lanes.iter_mut().zip(Self::MULS) {
            let p = u128::from(*lane ^ x) * u128::from(k);
            *lane = (p as u64) ^ ((p >> 64) as u64);
        }
    }

    fn finish128(&self) -> u128 {
        (u128::from(self.lanes[0]) << 64) | u128::from(self.lanes[1])
    }
}

impl Hasher for Fingerprint {
    fn write(&mut self, bytes: &[u8]) {
        // Length first, so zero padding of the tail cannot alias.
        self.word(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            self.word(u64::from_le_bytes(buf));
        }
    }
    fn write_u8(&mut self, x: u8) {
        self.word(x.into());
    }
    fn write_u16(&mut self, x: u16) {
        self.word(x.into());
    }
    fn write_u32(&mut self, x: u32) {
        self.word(x.into());
    }
    fn write_u64(&mut self, x: u64) {
        self.word(x);
    }
    fn write_usize(&mut self, x: usize) {
        self.word(x as u64);
    }
    fn finish(&self) -> u64 {
        self.lanes[0] ^ self.lanes[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArrayValue, ExecState};
    use fuzzyflow_ir::{
        DType, DfNode, InterstateEdge, Memlet, ScalarExpr, SdfgBuilder, Subset, SymExpr, Tasklet,
    };

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

        // A clone shares its program; a change anywhere in the content or
        // the options gives a distinct one.
        let keyed = |factor: f64| {
            let mut s = sample("shared_cache_key", factor);
            let next = s.add_state("next");
            s.add_interstate_edge(s.start, next, InterstateEdge::always());
            s
        };
        let base = keyed(0.0);
        let before = shared_compile_count();
        let p_base = compile_shared(&base);
        assert!(Arc::ptr_eq(&p_base, &compile_shared(&base.clone())));
        let edited = |edit: &dyn Fn(&mut Sdfg)| {
            let mut s = base.clone();
            edit(&mut s);
            compile_shared(&s)
        };
        let st = base.start;
        let variants = [
            compile_shared(&keyed(-0.0)),
            edited(&|s| s.arrays.get_mut("A").unwrap().dtype = DType::F32),
            edited(&|s| {
                let g = &mut s.state_mut(st).df.graph;
                let e = g.edge_ids().next().unwrap();
                g.edge_mut(e).subset = Subset::at(vec![SymExpr::Int(0)]);
            }),
            edited(&|s| {
                let g = &mut s.state_mut(st).df.graph;
                let t = g.node_ids().find(|&n| g.node(n).as_tasklet().is_some());
                if let DfNode::Tasklet(t) = g.node_mut(t.unwrap()) {
                    t.lanes = 4;
                }
            }),
            edited(&|s| {
                let e = s.states.edge_ids().next().unwrap();
                let edge = s.states.edge_mut(e);
                edge.assignments.push(("M".into(), SymExpr::Int(1)));
            }),
            edited(&|s| s.name = "shared_cache_key_renamed".into()),
            compile_shared_with(
                &base,
                &CompileOptions {
                    specialize_f64: false,
                    ..Default::default()
                },
            ),
        ];
        let mut ids: Vec<u64> = variants.iter().map(|p| p.id()).collect();
        ids.push(p_base.id());
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), variants.len() + 1, "every edit keys apart");
        assert_eq!(shared_compile_count() - before, ids.len() as u64);

        // NaN constants that differ only in payload or sign compile
        // apart, and each program computes with its own constant's bits.
        let nans = [
            0x7ff8_0000_0000_0001_u64,
            0x7ff8_0000_0000_0002,
            0xfff8_0000_0000_0001,
        ];
        let progs: Vec<_> = nans
            .iter()
            .map(|&bits| compile_shared(&sample("shared_cache_nan", f64::from_bits(bits))))
            .collect();
        for (i, (p, &bits)) in progs.iter().zip(&nans).enumerate() {
            assert!(progs[..i].iter().all(|q| !Arc::ptr_eq(p, q)));
            let mut state = ExecState::new();
            state.bind("N", 1).bind("i", 0);
            state.set_array("A", ArrayValue::from_f64(vec![1], &[1.0]));
            state.set_array("B", ArrayValue::from_f64(vec![1], &[0.0]));
            p.run(&mut state).unwrap();
            let out = state.array("B").unwrap().get(0).as_f64();
            assert_eq!(out.to_bits(), bits, "program {i} ran another constant");
        }

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
