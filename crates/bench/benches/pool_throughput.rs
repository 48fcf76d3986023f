//! Persistent worker pool vs per-instance thread spawning, plus the
//! dtype-monomorphic f64 fast path vs the generic bytecode.
//!
//! The first half regenerates the hot loop of a Table-2-shaped sweep —
//! every tiling instance on the Fig. 6 vanilla-attention SDDMM program
//! and the Fig. 2 matmul chain, short differential trial batches at the
//! paper's CLOUDSC batch width of 4 — under two scheduling models:
//!
//! * **per-instance spawn** — the pre-pool architecture: a scoped
//!   poller set fans out across instances (as PR 2's `sweep()` did) and
//!   each instance's trial batch additionally spawns (and then joins) a
//!   fresh 4-thread worker set, exactly what the trial loop did when
//!   it created a `std::thread::scope` per call with `threads = 4` —
//!   nested, per-instance spawn, with the oversubscription that implies;
//! * **pooled** — the current architecture: instances and trial batches
//!   all share the one persistent [`WorkerPool`]; instances fan out
//!   across whatever cores exist, trials steal leftover capacity, and
//!   nothing spawns.
//!
//! The sweep shape matters: Table-2 sweeps run *hundreds* of small
//! instances (tiny cutouts, a few microseconds per compiled trial, and
//! faulty instances that terminate after one or two trials), so the
//! per-instance thread-set spawn is a first-order cost — which is
//! precisely what the persistent pool deletes, on any core count.
//!
//! Both modes must produce byte-identical reports (asserted); the pooled
//! sweep must be at least 1.5x faster (asserted). The second half times
//! one differential trial on the Fig. 5 MHA cutout with the f64 fast
//! path on vs off and records the measured speedup. Everything lands in
//! `BENCH_pool.json`.

use fuzzyflow::prelude::*;
use fuzzyflow_bench::{prepare_pair, row, time_per_iter};
use fuzzyflow_fuzz::{sample_state, ArenaStash, Constraints, ValueProfile, Xoshiro256};
use fuzzyflow_interp::{CompileOptions, ExecOptions, Program};
use fuzzyflow_pool::{resolve_threads, WorkerPool};

/// A cutout with its compiled `(original, transformed)` programs.
type Pair = (Cutout, Program, Program, Constraints);

/// The paper's CLOUDSC trial batches run 4 wide; PR 2's `DiffTester`
/// spawned exactly this many scoped threads per instance.
const BATCH_WIDTH: usize = 4;

fn tester() -> DiffTester {
    DiffTester {
        trials: 10,
        threads: BATCH_WIDTH,
        profile: ValueProfile {
            size_max: 5,
            ..Default::default()
        },
        seed: 0x600D_5EED,
        ..Default::default()
    }
}

fn test_pair(pool: &WorkerPool, (c, orig, trans, cons): &Pair) -> String {
    let report = tester().test_compiled(pool, c, orig, trans, cons, &ArenaStash::new(), None);
    format!("{report:?}")
}

fn run_sweep_per_instance_spawn(pairs: &[Pair]) -> Vec<String> {
    // PR 2's sweep architecture: scoped pollers over instances (one per
    // core, spawned per sweep call), each instance spawning a fresh
    // BATCH_WIDTH thread set for its trial batch and tearing it down —
    // so both modes parallelize across instances identically, and the
    // measured delta is the per-instance spawn/teardown plus the nested
    // oversubscription, which is exactly what the persistent pool
    // removes.
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let results: Mutex<Vec<Option<String>>> = Mutex::new(vec![None; pairs.len()]);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..resolve_threads(0).min(pairs.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= pairs.len() {
                    break;
                }
                let fresh = WorkerPool::new(BATCH_WIDTH);
                let report = test_pair(&fresh, &pairs[i]);
                results.lock().expect("results poisoned")[i] = Some(report);
            });
        }
    });
    results
        .into_inner()
        .expect("results poisoned")
        .into_iter()
        .map(|r| r.expect("all instances ran"))
        .collect()
}

fn run_sweep_pooled(pairs: &[Pair]) -> Vec<String> {
    let pool = WorkerPool::global();
    pool.map_indexed(pairs.len(), resolve_threads(0), |i| {
        test_pair(pool, &pairs[i])
    })
}

fn main() {
    println!("== pool_throughput: persistent pool + f64 fast path ==");

    // --- Table-2-shaped sweep: every tiling instance on the fig. 6
    // attention program and the fig. 2 matmul chain. ---
    let att = fuzzyflow::workloads::vanilla_attention();
    let att_bindings = fuzzyflow::workloads::attention::default_bindings();
    let chain = fuzzyflow::workloads::matmul_chain();
    let chain_bindings = fuzzyflow::workloads::matmul_chain::default_bindings();
    let transformations: Vec<Box<dyn Transformation>> = vec![
        Box::new(MapTiling::new(4)),
        Box::new(MapTilingNoRemainder::new(4)),
        Box::new(MapTilingOffByOne::new(4)),
    ];
    let mut pairs: Vec<Pair> = Vec::new();
    for (program, bindings) in [(&att, &att_bindings), (&chain, &chain_bindings)] {
        for t in &transformations {
            for m in t.find_matches(program) {
                let (c, transformed, cons) = prepare_pair(program, t.as_ref(), &m, true, bindings);
                validate(&transformed).expect("tilings generate valid code");
                let (orig, trans) = (Program::compile(&c.sdfg), Program::compile(&transformed));
                pairs.push((c, orig, trans, cons));
            }
        }
    }
    row("sweep instances", pairs.len());
    assert!(pairs.len() >= 10, "sweep too small to be meaningful");

    // Determinism across scheduling models comes first: the reports must
    // be byte-identical, or the speedup would be comparing different work.
    let spawn_reports = run_sweep_per_instance_spawn(&pairs);
    let pooled_reports = run_sweep_pooled(&pairs);
    assert_eq!(
        spawn_reports, pooled_reports,
        "scheduling model changed the sweep reports"
    );
    row("reports identical across scheduling models", true);

    // Warm both paths (global pool startup, allocator), then measure.
    let _ = run_sweep_pooled(&pairs);
    let iters = 20;
    let t_spawn = time_per_iter(iters, || {
        let _ = run_sweep_per_instance_spawn(&pairs);
    });
    let t_pooled = time_per_iter(iters, || {
        let _ = run_sweep_pooled(&pairs);
    });
    let sweep_speedup = t_spawn / t_pooled;
    row("per-instance-spawn sweep (us)", format!("{t_spawn:.0}"));
    row("pooled sweep (us)", format!("{t_pooled:.0}"));
    row(
        "pooled sweep speedup (target: >= 1.5x)",
        format!("{sweep_speedup:.2}x"),
    );

    // --- Fig. 5 MHA cutout: f64 fast path vs generic bytecode. The
    // unminimized cutout is the scale loop nest itself (Fig. 5's cutout);
    // min-cut minimization would absorb the batched matmul library node,
    // whose bulk kernel the tasklet fast path deliberately leaves alone.
    let mha = fuzzyflow::workloads::mha_encoder();
    let mha_bindings = fuzzyflow::workloads::mha::default_bindings();
    let vectorize = Vectorization::new(4);
    let mha_match = &vectorize.find_matches(&mha)[0];
    let (mha_cut, mha_trans, mha_cons) =
        prepare_pair(&mha, &vectorize, mha_match, false, &mha_bindings);

    let profile = ValueProfile {
        size_max: 12,
        ..Default::default()
    };
    let opts = ExecOptions::default();
    let mut rng = Xoshiro256::seed_from(7);
    let sample = loop {
        if let Some(s) = sample_state(&mha_cut, &mha_cons, &profile, &mut rng) {
            let mut probe = s.clone();
            if fuzzyflow_interp::run(&mha_cut.sdfg, &mut probe).is_ok() {
                break s;
            }
        }
    };

    let generic_opts = CompileOptions {
        specialize_f64: false,
        ..Default::default()
    };
    let orig_gen = Program::compile_with_options(&mha_cut.sdfg, &generic_opts);
    let trans_gen = Program::compile_with_options(&mha_trans, &generic_opts);
    let orig_fast = Program::compile(&mha_cut.sdfg);
    let trans_fast = Program::compile(&mha_trans);
    let orig_stats = orig_fast.tasklet_stats();
    let trans_stats = trans_fast.tasklet_stats();
    row(
        "MHA cutout tasklets specialized (orig / transformed)",
        format!(
            "{}/{} / {}/{}",
            orig_stats.specialized,
            orig_stats.tasklets,
            trans_stats.specialized,
            trans_stats.tasklets
        ),
    );
    assert!(
        orig_stats.specialized > 0,
        "fast path did not engage on the MHA cutout"
    );

    let trial_iters = 200;
    let mut oge = orig_gen.executor();
    let mut tge = trans_gen.executor();
    let generic_us = time_per_iter(trial_iters, || {
        oge.execute(&sample, &opts, None, None).unwrap();
        let _ = tge.execute(&sample, &opts, None, None);
        let _ = oge.compare_on(&tge, &mha_cut.system_state, 1e-5);
    });
    let mut ofe = orig_fast.executor();
    let mut tfe = trans_fast.executor();
    let fast_us = time_per_iter(trial_iters, || {
        ofe.execute(&sample, &opts, None, None).unwrap();
        let _ = tfe.execute(&sample, &opts, None, None);
        let _ = ofe.compare_on(&tfe, &mha_cut.system_state, 1e-5);
    });
    let fastpath_speedup = generic_us / fast_us;
    row(
        "MHA generic-bytecode trial (us)",
        format!("{generic_us:.1}"),
    );
    row("MHA f64 fast-path trial (us)", format!("{fast_us:.1}"));
    row("f64 fast-path speedup", format!("{fastpath_speedup:.2}x"));

    // The two engines must agree bit for bit on the sampled input.
    let mut a = sample.clone();
    let mut b = sample.clone();
    orig_gen.run(&mut a).unwrap();
    orig_fast.run(&mut b).unwrap();
    assert!(
        a.compare_on(&b, &mha_cut.system_state, 0.0).is_none(),
        "fast path diverged from generic bytecode"
    );

    assert!(
        sweep_speedup >= 1.5,
        "pooled sweep below the 1.5x bar: {sweep_speedup:.2}x"
    );
    assert!(
        fastpath_speedup > 1.0,
        "f64 fast path is not a speedup: {fastpath_speedup:.2}x"
    );

    // --- Machine-readable record. ---
    fuzzyflow_bench::write_bench_record(
        "pool",
        "pool_throughput",
        tester().trials,
        &[
            (
                "fig6_sweep",
                format!(
                    "{{\"instances\": {}, \"trials_per_instance\": {}, \
                     \"per_instance_spawn_us\": {t_spawn:.1}, \"pooled_us\": {t_pooled:.1}, \
                     \"speedup\": {sweep_speedup:.3}, \"identical_reports\": true}}",
                    pairs.len(),
                    tester().trials as i64,
                ),
            ),
            (
                "fig5_mha_f64_fast_path",
                format!(
                    "{{\"generic_us_per_trial\": {generic_us:.3}, \
                     \"fast_us_per_trial\": {fast_us:.3}, \"speedup\": {fastpath_speedup:.3}}}"
                ),
            ),
        ],
    );
}
