//! Compiled `Program` vs tree-walk trial throughput on the fig. 5 MHA and
//! fig. 6 SDDMM cutouts — the hot path of the whole system (the paper runs
//! 100 trials per cutout pair across hundreds of instances per program).
//!
//! Emits machine-readable results to `BENCH_exec_engine.json` so the perf
//! trajectory is recorded run over run. Also checks the two engine
//! properties the refactor promises: a ≥ 3x trial-throughput improvement
//! on the MHA cutout at the default `VerifyConfig` trial budget, and
//! parallel trial batches whose verdicts are byte-identical to sequential
//! execution.

use criterion::Criterion;
use fuzzyflow::prelude::*;
use fuzzyflow_bench::{prepare_pair, row, time_per_iter};
use fuzzyflow_fuzz::{sample_state, Constraints, ValueProfile, Xoshiro256};
use fuzzyflow_interp::{run_with_tree_walk, ExecOptions, Program};

struct EngineNumbers {
    tree_walk_us: f64,
    compiled_us: f64,
}

impl EngineNumbers {
    fn speedup(&self) -> f64 {
        self.tree_walk_us / self.compiled_us
    }
}

/// Times one differential trial (original + transformed run + system-state
/// compare) on both engines, over `iters` repetitions.
fn measure(
    cutout: &Cutout,
    transformed: &fuzzyflow::ir::Sdfg,
    constraints: &Constraints,
    seed: u64,
    iters: usize,
) -> (EngineNumbers, ExecState) {
    let profile = ValueProfile {
        size_max: 12,
        ..Default::default()
    };
    let opts = ExecOptions::default();

    // One accepted input, shared by every trial of both engines.
    let mut rng = Xoshiro256::seed_from(seed);
    let sample = loop {
        if let Some(s) = sample_state(cutout, constraints, &profile, &mut rng) {
            let mut probe = s.clone();
            if run_with_tree_walk(&cutout.sdfg, &mut probe, &opts, None, None).is_ok() {
                break s;
            }
        }
    };

    let tree_walk_us = time_per_iter(iters, || {
        let mut a = sample.clone();
        let mut b = sample.clone();
        run_with_tree_walk(&cutout.sdfg, &mut a, &opts, None, None).unwrap();
        let _ = run_with_tree_walk(transformed, &mut b, &opts, None, None);
        let _ = a.compare_on(&b, &cutout.system_state, 1e-5);
    });

    let orig_prog = Program::compile(&cutout.sdfg);
    let trans_prog = Program::compile(transformed);
    let mut orig_exec = orig_prog.executor();
    let mut trans_exec = trans_prog.executor();
    let compiled_us = time_per_iter(iters, || {
        orig_exec.execute(&sample, &opts, None, None).unwrap();
        let _ = trans_exec.execute(&sample, &opts, None, None);
        let _ = orig_exec.compare_on(&trans_exec, &cutout.system_state, 1e-5);
    });

    (
        EngineNumbers {
            tree_walk_us,
            compiled_us,
        },
        sample,
    )
}

fn main() {
    println!("== exec_engine: compiled Program vs tree-walk trial throughput ==");
    let trials = VerifyConfig::default().trials; // 100, as in the paper

    // --- Fig. 5 cutout: the MHA scale loop nest under vectorization. ---
    let mha = fuzzyflow::workloads::mha_encoder();
    let mha_bindings = fuzzyflow::workloads::mha::default_bindings();
    let vectorize = Vectorization::new(4);
    let mha_match = &vectorize.find_matches(&mha)[0];
    let (mha_cut, mha_trans, mha_cons) =
        prepare_pair(&mha, &vectorize, mha_match, true, &mha_bindings);
    let (mha_nums, _) = measure(&mha_cut, &mha_trans, &mha_cons, 7, trials);
    row(
        "MHA tree-walk trial (us)",
        format!("{:.1}", mha_nums.tree_walk_us),
    );
    row(
        "MHA compiled trial (us)",
        format!("{:.1}", mha_nums.compiled_us),
    );
    row(
        "MHA trial-throughput speedup (target: >= 3x)",
        format!("{:.1}x", mha_nums.speedup()),
    );

    // --- Fig. 6 cutout: SDDMM under no-remainder tiling. ---
    let att = fuzzyflow::workloads::vanilla_attention();
    let att_bindings = fuzzyflow::workloads::attention::default_bindings();
    let tiling = MapTilingNoRemainder::new(4);
    let sddmm_match = &tiling.find_matches(&att)[0];
    let (sddmm_cut, sddmm_trans, sddmm_cons) =
        prepare_pair(&att, &tiling, sddmm_match, true, &att_bindings);
    let (sddmm_nums, _) = measure(&sddmm_cut, &sddmm_trans, &sddmm_cons, 11, trials);
    row(
        "SDDMM tree-walk trial (us)",
        format!("{:.1}", sddmm_nums.tree_walk_us),
    );
    row(
        "SDDMM compiled trial (us)",
        format!("{:.1}", sddmm_nums.compiled_us),
    );
    row(
        "SDDMM trial-throughput speedup",
        format!("{:.1}x", sddmm_nums.speedup()),
    );

    // --- Parallel trial batches: byte-identical to sequential. ---
    let seq_tester = DiffTester {
        trials,
        threads: 1,
        ..Default::default()
    };
    let par_tester = DiffTester {
        trials,
        threads: 0,
        ..Default::default()
    };
    let (mha_orig, mha_tprog) = (
        Program::compile(&mha_cut.sdfg),
        Program::compile(&mha_trans),
    );
    let stash = fuzzyflow_fuzz::ArenaStash::new();
    let run = |tester: &DiffTester| {
        let pool = fuzzyflow_pool::WorkerPool::global();
        tester.test_compiled(
            pool, &mha_cut, &mha_orig, &mha_tprog, &mha_cons, &stash, None,
        )
    };
    let t_seq = time_per_iter(3, || {
        let _ = run(&seq_tester);
    });
    let t_par = time_per_iter(3, || {
        let _ = run(&par_tester);
    });
    let r_seq = run(&seq_tester);
    let r_par = run(&par_tester);
    let identical = format!("{r_seq:?}") == format!("{r_par:?}");
    row(
        "DiffTester sequential, 100 trials (us)",
        format!("{t_seq:.0}"),
    );
    row(
        "DiffTester parallel, 100 trials (us)",
        format!("{t_par:.0}"),
    );
    row("parallel verdict identical to sequential", identical);
    assert!(identical, "parallel batches diverged from sequential");
    assert!(
        mha_nums.speedup() >= 3.0,
        "compiled engine below the 3x bar on MHA: {:.2}x",
        mha_nums.speedup()
    );

    // --- Machine-readable record. ---
    let engine = |n: &EngineNumbers| {
        format!(
            "{{\"tree_walk_us_per_trial\": {:.3}, \"compiled_us_per_trial\": {:.3}, \
             \"speedup\": {:.3}}}",
            n.tree_walk_us,
            n.compiled_us,
            n.speedup()
        )
    };
    fuzzyflow_bench::write_bench_record(
        "exec_engine",
        "exec_engine",
        trials,
        &[
            ("trials_per_measurement", trials.to_string()),
            ("mha", engine(&mha_nums)),
            ("sddmm", engine(&sddmm_nums)),
            (
                "difftester_mha_100_trials",
                format!(
                    "{{\"sequential_us\": {t_seq:.1}, \"parallel_us\": {t_par:.1}, \
                     \"speedup\": {:.3}, \"identical_verdicts\": {identical}}}",
                    t_seq / t_par,
                ),
            ),
        ],
    );

    // Criterion record of the two engines on the MHA cutout.
    let mut c = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    let mut group = c.benchmark_group("exec_engine");
    {
        let mut rng = Xoshiro256::seed_from(7);
        let profile = ValueProfile {
            size_max: 12,
            ..Default::default()
        };
        let sample = loop {
            if let Some(s) = sample_state(&mha_cut, &mha_cons, &profile, &mut rng) {
                let mut probe = s.clone();
                if fuzzyflow_interp::run(&mha_cut.sdfg, &mut probe).is_ok() {
                    break s;
                }
            }
        };
        let opts = ExecOptions::default();
        group.bench_function("mha_trial_tree_walk", |b| {
            b.iter(|| {
                let mut a = sample.clone();
                let mut t = sample.clone();
                run_with_tree_walk(&mha_cut.sdfg, &mut a, &opts, None, None).unwrap();
                let _ = run_with_tree_walk(&mha_trans, &mut t, &opts, None, None);
            })
        });
        let orig_prog = Program::compile(&mha_cut.sdfg);
        let trans_prog = Program::compile(&mha_trans);
        let mut orig_exec = orig_prog.executor();
        let mut trans_exec = trans_prog.executor();
        group.bench_function("mha_trial_compiled", |b| {
            b.iter(|| {
                orig_exec.execute(&sample, &opts, None, None).unwrap();
                let _ = trans_exec.execute(&sample, &opts, None, None);
            })
        });
    }
    group.finish();
    c.final_summary();
}
