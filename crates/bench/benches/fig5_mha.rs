//! E4+E9 / Fig. 5 and Sec. 6.1: the BERT MHA scaling loop nest.
//!
//! Regenerates the case study's four headline numbers:
//! * input-space reduction from the minimum input-flow cut (paper: 75 %),
//! * sampling + system-state-check speedup from the reduction (paper: 2x),
//! * cutout vs whole-application testing throughput (paper: 528x),
//! * trials to expose the size-dependent vectorization bug: gray-box
//!   constrained sampling vs AFL++-style coverage-guided mutation
//!   (paper: ~1 vs ~157 trials).

use criterion::Criterion;
use fuzzyflow::cutout::{extract_cutout, minimize_input_configuration, SideEffectContext};
use fuzzyflow::prelude::*;
use fuzzyflow_bench::{row, time_per_iter};
use fuzzyflow_fuzz::{derive_constraints, sample_state, CoverageFuzzer, ValueProfile, Xoshiro256};
use fuzzyflow_interp::{run, Program};

fn main() {
    println!("== Fig. 5 / Sec. 6.1: MHA scale loop nest (BERT ratios) ==");
    let program = fuzzyflow::workloads::mha_encoder();
    let bindings = fuzzyflow::workloads::mha::default_bindings();

    let vectorize = Vectorization::new(4);
    let matches = vectorize.find_matches(&program);
    assert_eq!(matches.len(), 1, "the scaling loop nest");
    let (_, changes) = apply_to_clone(&program, &vectorize, &matches[0]).expect("applies");
    let ctx = SideEffectContext::with_size_symbols(&program.free_symbols(), 1 << 20);

    // --- Input-space reduction (Fig. 5). ---
    let cutout_plain = extract_cutout(&program, &changes, &ctx).expect("extracts");
    let before = cutout_plain.input_volume_bytes(&bindings).expect("volume");
    let (cutout_min, outcome) =
        minimize_input_configuration(&program, cutout_plain.clone(), &ctx, &bindings);
    row(
        "input config before min-cut",
        format!("{:?}", cutout_plain.input_config),
    );
    row(
        "input config after min-cut",
        format!("{:?}", cutout_min.input_config),
    );
    row("input volume before (bytes)", before);
    row("input volume after (bytes)", outcome.volume_after);
    row(
        "input-space reduction (paper: 75%)",
        format!("{:.1}%", outcome.reduction() * 100.0),
    );

    // --- Sampling + check speedup from the reduction (paper: 2x).
    // The paper's metric covers *sampling input values and checking system
    // state equivalence* — input generation plus output comparison, not
    // kernel execution. The minimized cutout samples 4x less data for the
    // same system state.
    let cons_plain = derive_constraints(&cutout_plain, &program);
    let cons_min = derive_constraints(&cutout_min, &program);
    let fixed = |c: &mut fuzzyflow_fuzz::Constraints| {
        for (s, v) in bindings.iter() {
            c.constrain(s, v, v);
        }
    };
    let (mut cp, mut cm) = (cons_plain.clone(), cons_min.clone());
    fixed(&mut cp);
    fixed(&mut cm);
    let profile = ValueProfile::default();
    let reference: ExecState = {
        let mut rng = Xoshiro256::seed_from(1);
        let mut s = sample_state(&cutout_min, &cm, &profile, &mut rng).expect("samples");
        run(&cutout_min.sdfg, &mut s).unwrap();
        s
    };
    let sample_and_check = |cut: &Cutout, cons: &fuzzyflow_fuzz::Constraints, seed: u64| {
        let mut rng = Xoshiro256::seed_from(seed);
        let s = sample_state(cut, cons, &profile, &mut rng).expect("samples");
        let _ = reference.compare_on(&reference, &cut.system_state, 0.0);
        s
    };
    let t_plain = time_per_iter(30, || {
        let _ = sample_and_check(&cutout_plain, &cp, 3);
    });
    let t_min = time_per_iter(30, || {
        let _ = sample_and_check(&cutout_min, &cm, 3);
    });
    row(
        "sample+check, unminimized cutout (us)",
        format!("{t_plain:.1}"),
    );
    row("sample+check, minimized cutout (us)", format!("{t_min:.1}"));
    row(
        "sampling/check speedup (paper: 2x)",
        format!("{:.2}x", t_plain / t_min),
    );

    // --- Cutout vs whole-application throughput (paper: 528x).
    // The paper runs the entire BERT-large model as the baseline; the
    // multi-layer encoder stack plays that role here.
    let app = fuzzyflow::workloads::mha::mha_encoder_stack(6);
    let app_matches = vectorize.find_matches(&app);
    let whole_vec = apply_to_clone(&app, &vectorize, &app_matches[0])
        .expect("applies")
        .0;
    // Compile once; whole-application trials only execute.
    let app_c = Program::compile(&app);
    let whole_vec_c = Program::compile(&whole_vec);
    let whole_trial = || {
        let mut st = ExecState::new();
        for (k, v) in bindings.iter() {
            st.bind(k, v);
        }
        let mut st2 = st.clone();
        app_c.run(&mut st).unwrap();
        let _ = whole_vec_c.run(&mut st2);
        st.compare_on(&st2, &["out".to_string()], 1e-5)
    };
    let translated =
        fuzzyflow::cutout::refind_match(&cutout_min, &vectorize, &matches[0]).expect("translates");
    let mut transformed = cutout_min.sdfg.clone();
    vectorize
        .apply(&mut transformed, &translated)
        .expect("replays");
    let mut rng = Xoshiro256::seed_from(11);
    let sample = sample_state(&cutout_min, &cm, &profile, &mut rng).expect("samples");
    let cut_c = Program::compile(&cutout_min.sdfg);
    let trans_c = Program::compile(&transformed);
    let cut_trial = || {
        let mut a = sample.clone();
        let mut b = sample.clone();
        cut_c.run(&mut a).unwrap();
        let _ = trans_c.run(&mut b);
        a.compare_on(&b, &cutout_min.system_state, 1e-5)
    };
    let t_whole = time_per_iter(10, || {
        let _ = whole_trial();
    });
    let t_cut = time_per_iter(10, || {
        let _ = cut_trial();
    });
    row("whole-application trial (us)", format!("{t_whole:.1}"));
    row("cutout trial (us)", format!("{t_cut:.1}"));
    row("cutout trials/second", format!("{:.1}", 1e6 / t_cut));
    row(
        "testing speedup (paper: 528x at BERT-large scale)",
        format!("{:.0}x", t_whole / t_cut),
    );

    // --- Trials to expose the size-dependent bug. ---
    // Gray-box: size symbols sampled in [1, S_max]; most draws are not
    // divisible by the vector width.
    let tester = DiffTester {
        trials: 200,
        seed: 2024,
        ..Default::default()
    };
    let report = tester.test_compiled(
        fuzzyflow::pool::WorkerPool::global(),
        &cutout_min,
        &cut_c,
        &trans_c,
        &cons_min,
        &fuzzyflow_fuzz::ArenaStash::new(),
        None,
    );
    row(
        "gray-box trials to detection (paper: ~1)",
        format!(
            "{:?} ({})",
            report.trials_to_detection,
            report.verdict.label()
        ),
    );
    // Coverage-guided: seeded with the shipped (divisible) sizes, must
    // mutate its way to a non-divisible size.
    let fuzzer = CoverageFuzzer {
        max_trials: 20_000,
        seed: 99,
        ..Default::default()
    };
    let cov = fuzzer.run(&cutout_min, &transformed, &bindings);
    row(
        "coverage-guided trials to detection (paper: ~157)",
        format!("{:?} ({})", cov.trials_to_detection, cov.verdict.label()),
    );
    row("coverage corpus size", cov.corpus_size);

    // Criterion record of the two trial kinds.
    let mut c = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    let mut group = c.benchmark_group("fig5_mha");
    group.bench_function("whole_application_trial", |b| {
        b.iter(|| {
            let _ = whole_trial();
        })
    });
    group.bench_function("cutout_trial", |b| {
        b.iter(|| {
            let _ = cut_trial();
        })
    });
    group.finish();
    c.final_summary();
}
