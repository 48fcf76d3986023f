//! The shared program cache retains what is resident and nothing else:
//! after many more inserts than its capacity, evicted programs are freed
//! and the key count is bounded by the capacity, not by the insert count.
//!
//! This binary holds exactly one test: it lowers the process-wide
//! capacity and reads the process-wide counters.

use fuzzyflow_interp::{compile_shared, set_cache_capacity, shared_cache_stats};
use fuzzyflow_ir::{DType, Memlet, ScalarExpr, Sdfg, SdfgBuilder, Subset, SymExpr, Tasklet};
use std::sync::Arc;

/// `B[i] = A[i] * factor` — a distinct cache key per factor.
fn scaled_copy(factor: f64) -> Sdfg {
    let mut b = SdfgBuilder::new("bounded_cache_probe");
    b.symbol("i");
    b.array("A", DType::F64, &["8"]);
    b.array("B", DType::F64, &["8"]);
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
    });
    b.build()
}

#[test]
fn evicted_programs_and_their_keys_are_freed() {
    const CAPACITY: usize = 8;
    set_cache_capacity(CAPACITY);
    let before = shared_cache_stats();

    // Insert 3 × capacity distinct programs, keeping only a weak handle
    // to each: the cache's own reference is then the last strong one.
    let programs: Vec<_> = (0..3 * CAPACITY)
        .map(|i| Arc::downgrade(&compile_shared(&scaled_copy(i as f64))))
        .collect();

    let after = shared_cache_stats();
    assert_eq!(after.compiles - before.compiles, 3 * CAPACITY as u64);
    assert_eq!(after.evictions - before.evictions, 2 * CAPACITY as u64);
    assert_eq!(
        after.resident, CAPACITY,
        "resident keys exceed the capacity"
    );

    // LRU: the first 2 × capacity were evicted, and with no outside user
    // left they are gone; the last `capacity` are resident and alive.
    let (evicted, resident) = programs.split_at(2 * CAPACITY);
    for (i, p) in evicted.iter().enumerate() {
        assert!(
            p.upgrade().is_none(),
            "evicted program {i} is still allocated"
        );
    }
    for (i, p) in resident.iter().enumerate() {
        let id = p.upgrade().expect("resident program was freed").id();
        // Still served from the cache: same program, no recompilation.
        let again = compile_shared(&scaled_copy((2 * CAPACITY + i) as f64));
        assert_eq!(again.id(), id);
    }
    assert_eq!(shared_cache_stats().compiles, after.compiles);
}
