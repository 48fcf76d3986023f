//! The differential trial loop samples into one reused input and, once
//! warm, allocates nothing on a passing trial.
//!
//! Two properties of `fuzz::sample_state_into` and the trial path built on
//! it:
//!
//! * sampling into a reused `ExecState` yields exactly the state
//!   `sample_state` builds fresh — every symbol, every payload bit, the
//!   same accept/reject decision and the same number of RNG draws — over
//!   the Table-2 cutouts, whether the state was last used for the same
//!   cutout or another one;
//! * a trial driven as `DiffTester` drives it (`sample_state_into` →
//!   `judge`, the trial step that runs both cutouts) makes zero heap
//!   allocations once the scratch state and the executor arenas have
//!   their shapes. A thread-local counting global allocator measures it:
//!   a count, not a stopwatch.

mod common;

use fuzzyflow::cutout::{refind_match, Cutout, ProgramAnalysis};
use fuzzyflow::fuzz::{
    derive_constraints_with_loops, judge, rng_split, sample_state, sample_state_into, CaseOutcome,
    Constraints, SymbolRole, ValueProfile, Xoshiro256,
};
use fuzzyflow::interp::{ArrayValue, ExecOptions, ExecState, Executor, Program};
use fuzzyflow::ir::{validate, Scalar, Sdfg};
use fuzzyflow::transforms::{apply_to_clone, Transformation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator and counts, per thread, every
/// allocation and reallocation with its requested bytes. Thread-local so
/// concurrently running tests do not bleed into each other's counts.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn record(bytes: usize) {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATED.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every call forwards unchanged to `System`; counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes)` this thread has requested so far.
fn allocated() -> (u64, u64) {
    ALLOCATED.with(Cell::get)
}

/// One transformation instance, prepared as a session prepares it.
struct Instance {
    label: String,
    cutout: Cutout,
    transformed: Sdfg,
    constraints: Constraints,
}

/// Every instance of `passes` on the Table-2 programs that prepares
/// without a pipeline error: apply → extract → min-cut (concretized by the
/// program's bindings) → re-find and replay on the cutout → constraints.
fn instances(passes: &[Box<dyn Transformation>], size_max: i64) -> Vec<Instance> {
    let mut out = Vec::new();
    for (name, sdfg, bindings) in common::table2_programs() {
        let analysis = ProgramAnalysis::new(&sdfg, size_max);
        for t in passes {
            for (k, m) in t.find_matches(&sdfg).iter().enumerate() {
                let Ok((_, changes)) = apply_to_clone(&sdfg, t.as_ref(), m) else {
                    continue;
                };
                let Ok(cutout) = analysis.extract_cutout(&changes) else {
                    continue;
                };
                let (cutout, _) = analysis.minimize_input_configuration(cutout, &bindings);
                let Ok(translated) = refind_match(&cutout, t.as_ref(), m) else {
                    continue;
                };
                let mut transformed = cutout.sdfg.clone();
                if t.apply(&mut transformed, &translated).is_err() {
                    continue;
                }
                let constraints = derive_constraints_with_loops(&cutout, analysis.loops());
                out.push(Instance {
                    label: format!("{name} x {} #{k} ({})", t.name(), m.description),
                    cutout,
                    transformed,
                    constraints,
                });
            }
        }
    }
    out
}

/// Every payload element's bits, widened to `u64` (NaN payloads and
/// signs included, unlike `PartialEq` or `first_mismatch`).
fn payload_bits(a: &ArrayValue) -> Vec<u64> {
    (0..a.len())
        .map(|i| match a.get(i) {
            Scalar::F64(v) => v.to_bits(),
            Scalar::F32(v) => v.to_bits() as u64,
            Scalar::I64(v) => v as u64,
            Scalar::I32(v) => v as u32 as u64,
            Scalar::Bool(v) => v as u64,
        })
        .collect()
}

fn assert_bit_identical(got: &ExecState, want: &ExecState, context: &str) {
    assert_eq!(got.symbols, want.symbols, "{context}: symbols differ");
    let names = |s: &ExecState| s.arrays.keys().cloned().collect::<Vec<_>>();
    assert_eq!(names(got), names(want), "{context}: container sets differ");
    for (name, w) in &want.arrays {
        let g = &got.arrays[name];
        assert_eq!(g.dtype(), w.dtype(), "{context}: dtype of '{name}'");
        assert_eq!(g.shape(), w.shape(), "{context}: shape of '{name}'");
        assert!(
            payload_bits(g) == payload_bits(w),
            "{context}: payload bits of '{name}' differ"
        );
    }
}

const SEEDS_PER_INSTANCE: u64 = 3;

/// Reused sampling equals fresh sampling on every Table-2 cutout: one
/// state reused per instance (sizes change between its draws, so its
/// containers are refilled in place or reallocated) and one state reused
/// across all instances (foreign bindings and containers must vanish).
#[test]
fn reused_sampling_equals_fresh_sampling_on_table2_cutouts() {
    let profile = ValueProfile {
        size_max: 10,
        ..ValueProfile::default()
    };
    let all = instances(&common::table2_passes(), profile.size_max);
    let mut across = ExecState::new();
    let (mut draws, mut rejected, mut reshaped) = (0u64, 0u64, 0u64);
    let (mut index_roles, mut loop_roles) = (0usize, 0usize);
    for (i, inst) in all.iter().enumerate() {
        let (cutout, cons) = (&inst.cutout, &inst.constraints);
        index_roles += cons
            .roles
            .values()
            .filter(|r| matches!(r, SymbolRole::Index { .. }))
            .count();
        loop_roles += cons
            .roles
            .values()
            .filter(|r| matches!(r, SymbolRole::LoopVar { .. }))
            .count();
        let mut own = ExecState::new();
        for s in 0..SEEDS_PER_INSTANCE {
            let seed = rng_split(0x5EED_5A3E, i as u64 * SEEDS_PER_INSTANCE + s);
            let mut fresh_rng = Xoshiro256::seed_from(seed);
            let fresh = sample_state(cutout, cons, &profile, &mut fresh_rng);
            let tail = fresh_rng.next_u64();
            let shapes_before: Vec<Vec<i64>> =
                own.arrays.values().map(|a| a.shape().to_vec()).collect();
            for (which, st) in [("own", &mut own), ("across", &mut across)] {
                let context = format!("{} seed {seed:#x} ({which} state)", inst.label);
                let mut rng = Xoshiro256::seed_from(seed);
                let accepted = sample_state_into(st, cutout, cons, &profile, &mut rng);
                assert_eq!(
                    accepted,
                    fresh.is_some(),
                    "{context}: accept/reject differs"
                );
                assert_eq!(rng.next_u64(), tail, "{context}: RNG draw count differs");
                if let Some(want) = &fresh {
                    assert_bit_identical(st, want, &context);
                }
            }
            draws += 1;
            rejected += fresh.is_none() as u64;
            let shapes_after: Vec<Vec<i64>> =
                own.arrays.values().map(|a| a.shape().to_vec()).collect();
            reshaped += (s > 0 && fresh.is_some() && shapes_before != shapes_after) as u64;
        }
    }
    assert!(draws >= 1000, "only {draws} draws");
    assert!(reshaped > 0, "no draw exercised the reallocation path");
    // No Table-2 cutout has an `Index` role; the sampler's unit tests
    // cover it on a hand-built one.
    assert!(loop_roles > 0, "no Table-2 cutout has a LoopVar role");
    println!(
        "{draws} draws over {} instances ({rejected} rejected, {reshaped} reshaped; \
         {index_roles} Index and {loop_roles} LoopVar roles)",
        all.len()
    );
}

/// `DiffTester`'s default resampling budget and the session's step budget.
const MAX_RESAMPLES: usize = 200;

fn exec_options() -> ExecOptions {
    ExecOptions {
        max_steps: 20_000_000,
        ..ExecOptions::default()
    }
}

/// One trial as `DiffTester` runs it: sample into the scratch state and
/// run it through the shared trial step (`judge`: the original cutout,
/// then the transformed one) until the original accepts. `true` when the
/// trial passed.
fn passing_trial(
    inst: &Instance,
    constraints: &Constraints,
    profile: &ValueProfile,
    rng: &mut Xoshiro256,
    (orig, trans): (&mut Executor<'_>, &mut Executor<'_>),
    sample: &mut ExecState,
) -> bool {
    let opts = exec_options();
    for _ in 0..=MAX_RESAMPLES {
        if !sample_state_into(sample, &inst.cutout, constraints, profile, rng) {
            continue;
        }
        match judge(&inst.cutout, sample, &opts, 1e-5, orig, trans, None) {
            CaseOutcome::OriginalFailed(_) => continue,
            outcome => return outcome == CaseOutcome::Pass,
        }
    }
    false
}

/// `constraints` with every size symbol pinned by a custom constraint to
/// its value in the first draw the original cutout accepts.
fn pin_sizes(
    inst: &Instance,
    constraints: &Constraints,
    profile: &ValueProfile,
    orig: &mut Executor<'_>,
) -> Option<Constraints> {
    let mut rng = Xoshiro256::seed_from(48879);
    let mut st = ExecState::new();
    let accepted = (0..=MAX_RESAMPLES).any(|_| {
        sample_state_into(&mut st, &inst.cutout, constraints, profile, &mut rng)
            && orig.execute(&st, &exec_options(), None, None).is_ok()
    });
    accepted.then(|| {
        let mut pinned = constraints.clone();
        for (s, role) in &constraints.roles {
            if *role == SymbolRole::Size {
                let v = st.symbols.get(s).expect("sizes are drawn first");
                pinned.constrain(s.clone(), v, v);
            }
        }
        pinned
    })
}

/// Runs 50 trials of `inst` under `constraints` with its sizes pinned
/// (a drawn shape change reallocates that container by design; index and
/// loop-variable symbols and every array element still vary per trial)
/// and asserts that only the first one allocates.
fn assert_allocation_free(inst: &Instance, constraints: &Constraints, profile: &ValueProfile) {
    assert!(validate(&inst.transformed).is_ok(), "{}", inst.label);
    let (orig, trans) = (
        Program::compile(&inst.cutout.sdfg),
        Program::compile(&inst.transformed),
    );
    let (mut oe, mut te) = (orig.executor(), trans.executor());
    let constraints = pin_sizes(inst, constraints, profile, &mut oe)
        .unwrap_or_else(|| panic!("{}: no accepted input", inst.label));
    let mut sample = ExecState::new();
    for trial in 1..=50 {
        let mut rng = Xoshiro256::seed_from(rng_split(48879, trial));
        let before = allocated();
        let passed = passing_trial(
            inst,
            &constraints,
            profile,
            &mut rng,
            (&mut oe, &mut te),
            &mut sample,
        );
        let after = allocated();
        assert!(passed, "{}: trial {trial} did not pass", inst.label);
        let (n, bytes) = (after.0 - before.0, after.1 - before.1);
        // The warm-up trial sizes the scratch state and the arenas,
        // which also shows the counter sees this thread's allocations.
        assert!(
            (trial == 1) == (n > 0),
            "{}: trial {trial} allocated {n} times ({bytes} bytes)",
            inst.label
        );
    }
}

/// Instances of `sound_small_warm` (the Table-2 programs under the sound
/// passes). Pinned so a change in coverage is a deliberate edit, not a
/// silent shrink.
const ALLOCATION_FREE_INSTANCES: usize = 90;

/// ROADMAP 1(c)'s first deterministic work counter: bytes allocated per
/// trial, on every `sound_small_warm` instance (library nodes included:
/// they run on the arena's f64 slots) and on the MHA tiling whose cutout
/// holds the `scores` MatMul at sizes 28..=32.
#[test]
fn passing_trials_allocate_nothing_after_warm_up() {
    let profile = ValueProfile {
        size_max: 8,
        ..ValueProfile::default()
    };
    let all = instances(&common::sound_passes(), profile.size_max);
    for inst in &all {
        assert_allocation_free(inst, &inst.constraints, &profile);
    }
    println!(
        "{} instances allocate nothing per passing trial after warm-up",
        all.len()
    );
    assert_eq!(all.len(), ALLOCATION_FREE_INSTANCES);

    let large = ValueProfile {
        size_max: 32,
        ..ValueProfile::default()
    };
    let mha = instances(&common::sound_passes(), large.size_max)
        .into_iter()
        .find(|i| i.label.starts_with("mha_encoder x MapTiling") && i.label.contains("(map n6 "))
        .expect("the MHA tiling of map n6");
    let mut constraints = mha.constraints.clone();
    for (s, role) in &mha.constraints.roles {
        if *role == SymbolRole::Size {
            constraints.constrain(s.clone(), 28, 32);
        }
    }
    assert_allocation_free(&mha, &constraints, &large);
}
