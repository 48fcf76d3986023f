//! Native x86_64 JIT vs the same fused kernels with the JIT off.
//!
//! The native half of the fused rung lowers eligible kernels to native
//! SSE2 through the in-crate assembler; running with `ExecOptions::jit`
//! off runs straight-line kernels in the lane-chunked loop and
//! select-bodied ones per element on the generic bytecode, so the
//! measured delta is the native-emission win alone. The bench asserts:
//!
//! * the JIT statically engages on every timed workload (per-map
//!   eligibility from `tasklet_stats`) and actually executes native
//!   code during the timed loops (`jit_native_runs` delta);
//! * native results are bit-identical to the JIT-off run on the
//!   timed inputs (the equivalence suite covers this broadly; here it
//!   guards the exact configurations being timed);
//! * JIT ≥ 2x over the chunk loop on the fig. 5 MHA scale-nest cutout
//!   (the original, unvectorized cutout — `lanes = 1`);
//! * packed JIT ≥ 1.5x over the lane-blocked chunk loop on the
//!   *vectorized* (`lanes = 4`) fig. 5 cutout, with the packed
//!   native-run counter asserted to advance (the blob really is the
//!   lane-parallel one, not scalar);
//! * JIT ≥ 1.5x on a select-heavy kernel (with the JIT off, branchy
//!   bodies run per element on the generic bytecode — the JIT's best
//!   case);
//! * a warm campaign re-run compiles 0 programs through the shared
//!   program cache and emits 0 bytes of native code through the code
//!   cache — straight off the session report's `caches` tally.
//!
//! Results land in `BENCH_jit.json` with the machine configuration.

use fuzzyflow::ir::{
    sym, DType, Memlet, ScalarExpr, Schedule, Sdfg, SdfgBuilder, Subset, SymRange, Tasklet,
};
use fuzzyflow::prelude::*;
use fuzzyflow::session::{Campaign, NullSink};
use fuzzyflow_bench::{prepare_pair, row, time_per_iter, write_bench_record};
use fuzzyflow_fuzz::{sample_state, ValueProfile, Xoshiro256};
use fuzzyflow_interp::{
    jit_native_runs, jit_native_runs_split, ArrayValue, ExecOptions, ExecState, Program,
};

struct JitNumbers {
    bytecode_us: f64,
    jit_us: f64,
}

impl JitNumbers {
    fn speedup(&self) -> f64 {
        self.bytecode_us / self.jit_us
    }
}

/// Asserts the compiled program has JIT-eligible maps and bit-exact
/// native/JIT-off agreement on `input`, then times the JIT-off run
/// against the native run on reused executors.
fn measure(
    label: &str,
    prog: &Program,
    input: &ExecState,
    outputs: &[String],
    iters: usize,
) -> JitNumbers {
    let stats = prog.tasklet_stats();
    for m in &stats.maps {
        row(
            &format!("{label} {}", m.label),
            if m.jit {
                "jit".to_string()
            } else {
                format!("no jit: {}", m.jit_reason.unwrap_or("?"))
            },
        );
    }
    assert!(
        stats.jit_maps > 0,
        "{label}: no JIT-eligible maps — nothing to measure"
    );

    let off = ExecOptions {
        jit: false,
        ..Default::default()
    };
    let on = ExecOptions::default();

    // Bit-exact parity on the timed input.
    let mut eb = prog.executor();
    let mut ej = prog.executor();
    eb.execute(input, &off, None, None).unwrap();
    let before = jit_native_runs();
    ej.execute(input, &on, None, None).unwrap();
    assert!(
        jit_native_runs() > before,
        "{label}: native tier did not engage"
    );
    assert!(
        eb.compare_on(&ej, outputs, 0.0).is_none(),
        "{label}: native code diverged from the JIT-off run"
    );

    let bytecode_us = time_per_iter(iters, || {
        eb.execute(input, &off, None, None).unwrap();
    });
    let jit_us = time_per_iter(iters, || {
        ej.execute(input, &on, None, None).unwrap();
    });
    let nums = JitNumbers {
        bytecode_us,
        jit_us,
    };
    row(
        &format!("{label} JIT off (us)"),
        format!("{:.1}", nums.bytecode_us),
    );
    row(&format!("{label} jit (us)"), format!("{:.1}", nums.jit_us));
    row(
        &format!("{label} speedup"),
        format!("{:.2}x", nums.speedup()),
    );
    nums
}

/// A single dense map over `i in [0, N)` whose body is a nest of
/// selects: abs on the negative side, a magnitude-dependent scale on
/// the positive side. With the JIT off, branchy bodies run per element
/// on the generic bytecode — the configuration native code accelerates
/// most.
fn select_heavy() -> Sdfg {
    let mut b = SdfgBuilder::new("jit_select");
    b.symbol("N");
    b.array("A", DType::F64, &["N"]);
    b.array("B", DType::F64, &["N"]);
    let st = b.start();
    b.in_state(st, |df| {
        let a = df.access("A");
        let o = df.access("B");
        let m = df.map(
            &["i"],
            vec![SymRange::full(sym("N"))],
            Schedule::Parallel,
            |mb| {
                let a = mb.access("A");
                let o = mb.access("B");
                let x = || ScalarExpr::r("x");
                let body = x().lt(ScalarExpr::f64(0.0)).select(
                    x().neg(),
                    x().lt(ScalarExpr::f64(1.0)).select(
                        x().mul(ScalarExpr::f64(3.0)).add(ScalarExpr::f64(1.0)),
                        x().mul(ScalarExpr::f64(0.5)),
                    ),
                );
                let t = mb.tasklet(Tasklet::simple("s", vec!["x"], "y", body));
                mb.read(
                    a,
                    t,
                    Memlet::new("A", Subset::at(vec![sym("i")])).to_conn("x"),
                );
                mb.write(
                    t,
                    o,
                    Memlet::new("B", Subset::at(vec![sym("i")])).from_conn("y"),
                );
            },
        );
        df.auto_wire(m, &[a], &[o]);
    });
    b.build()
}

fn select_input(n: i64) -> ExecState {
    let mut st = ExecState::new();
    st.bind("N", n);
    // Mixed signs and magnitudes so every select branch is exercised.
    let vals: Vec<f64> = (0..n)
        .map(|i| (i as f64) * 0.37 - (n as f64) * 0.18)
        .collect();
    st.set_array("A", ArrayValue::from_f64(vec![n], &vals));
    st
}

fn campaign() -> Campaign {
    Campaign::new("jit_warm")
        .with_workload(
            "matmul_chain",
            fuzzyflow::workloads::matmul_chain(),
            fuzzyflow::workloads::matmul_chain::default_bindings(),
        )
        .with_transformations(vec![
            Box::new(MapTiling::new(4)),
            Box::new(MapTilingOffByOne::new(4)),
            Box::new(MapTilingNoRemainder::new(4)),
        ])
        // One trial at a time: a two-wide trial batch runs a varying set
        // of trials past an instance's first fault, so the cold session
        // would not always have emitted every kernel the warm one runs.
        .with_verify(
            VerifyConfig::new()
                .with_trial_threads(1)
                .with_trials(10)
                .with_size_max(8),
        )
        .with_threads(2)
}

fn main() {
    println!("== jit_tier: native x86_64 JIT vs JIT off ==");
    let iters = 300;

    // --- Fig. 5: the original (unvectorized) MHA scale-nest cutout. ---
    let mha = fuzzyflow::workloads::mha_encoder();
    let mha_bindings = fuzzyflow::workloads::mha::default_bindings();
    let vectorize = Vectorization::new(4);
    let mha_match = &vectorize.find_matches(&mha)[0];
    let (cutout, vectorized, constraints) =
        prepare_pair(&mha, &vectorize, mha_match, false, &mha_bindings);
    let mha_prog = Program::compile(&cutout.sdfg);
    // Campaign-shaped trial input: attention rows are short (`SM`, the
    // fuzzer's small trial sizes) while the batch×heads dimension `BH`
    // fans out many of them — the regime differential trials live in,
    // where per-row interpreter setup dominates the chunk loop.
    let profile = ValueProfile {
        size_max: 24,
        ..Default::default()
    };
    let mut rng = Xoshiro256::seed_from(7);
    let mha_input = loop {
        if let Some(s) = sample_state(&cutout, &constraints, &profile, &mut rng) {
            let (bh, sm) = (
                s.symbols.get("BH").unwrap_or(0),
                s.symbols.get("SM").unwrap_or(0),
            );
            if !(16..=24).contains(&bh) || !(3..=5).contains(&sm) {
                continue;
            }
            let mut probe = s.clone();
            if fuzzyflow_interp::run(&cutout.sdfg, &mut probe).is_ok() {
                break s;
            }
        }
    };
    let mha_nums = measure(
        "fig5 MHA cutout",
        &mha_prog,
        &mha_input,
        &cutout.system_state,
        iters,
    );

    // --- Fig. 5 vectorized: the transformed (`lanes = 4`) cutout side,
    // where the native tier emits *packed* SSE2 pairs against the
    // lane-blocked chunk loop. ---
    let vec_prog = Program::compile(&vectorized);
    let packed_before = jit_native_runs_split().1;
    let vec_nums = measure(
        "fig5 MHA vectorized",
        &vec_prog,
        &mha_input,
        &cutout.system_state,
        iters,
    );
    assert!(
        jit_native_runs_split().1 > packed_before,
        "the vectorized cutout did not run packed native code"
    );

    // --- Select-heavy kernel. ---
    let select_prog = Program::compile(&select_heavy());
    let select_nums = measure(
        "select-heavy (N=16384)",
        &select_prog,
        &select_input(16384),
        &["B".to_string()],
        iters,
    );

    // --- Warm campaign: 0 program compiles, 0 native bytes. ---
    let cold_report = campaign().session().run(&NullSink);
    assert!(
        cold_report.caches.program_compiles > 0,
        "the cold session should compile programs"
    );
    let warm_report = campaign().session().run(&NullSink);
    row(
        "warm campaign program compiles (target: 0)",
        warm_report.caches.program_compiles,
    );
    row(
        "warm campaign native bytes emitted (target: 0)",
        warm_report.caches.code_bytes,
    );
    row(
        "warm campaign native-code reuses",
        warm_report.caches.code_hits,
    );
    assert_eq!(
        warm_report.caches.program_compiles, 0,
        "warm session recompiled programs"
    );
    assert_eq!(
        warm_report.caches.code_compiles, 0,
        "warm session re-lowered native kernels"
    );
    assert_eq!(
        warm_report.caches.code_bytes, 0,
        "warm session emitted native code"
    );

    assert!(
        mha_nums.speedup() >= 2.0,
        "JIT below the 2x bar on the MHA cutout: {:.2}x",
        mha_nums.speedup()
    );
    assert!(
        vec_nums.speedup() >= 1.5,
        "packed JIT below the 1.5x bar on the vectorized MHA cutout: {:.2}x",
        vec_nums.speedup()
    );
    assert!(
        select_nums.speedup() >= 1.5,
        "JIT below the 1.5x bar on the select-heavy kernel: {:.2}x",
        select_nums.speedup()
    );

    let tier = |n: &JitNumbers| {
        format!(
            "{{\"bytecode_us\": {:.3}, \"jit_us\": {:.3}, \"speedup\": {:.3}}}",
            n.bytecode_us,
            n.jit_us,
            n.speedup()
        )
    };
    write_bench_record(
        "jit",
        "jit_tier",
        iters,
        &[
            ("fig5_mha", tier(&mha_nums)),
            ("fig5_mha_vectorized", tier(&vec_nums)),
            ("select_heavy", tier(&select_nums)),
            (
                "warm_campaign",
                format!(
                    "{{\"program_compiles\": {}, \"native_bytes\": {}, \"code_cache_hits\": {}}}",
                    warm_report.caches.program_compiles,
                    warm_report.caches.code_bytes,
                    warm_report.caches.code_hits,
                ),
            ),
        ],
    );
}
