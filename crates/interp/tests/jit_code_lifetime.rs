//! Native code belongs to the kernel that emitted it: concurrent first
//! runs of a kernel emit its code exactly once, later runs and other
//! executors reuse it, and its executable mapping is unmapped when the
//! last clone of its program drops.
//!
//! This binary holds exactly one test: it reads the process-wide
//! emission counters and `/proc/self/maps`, which another test running
//! beside it would disturb. Linux x86_64 only, like the emitter.
#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use fuzzyflow_interp::{
    jit_emissions, jit_native_runs, ArrayValue, ExecOptions, ExecState, Program,
};
use fuzzyflow_ir::{
    sym, DType, Memlet, ScalarExpr, Schedule, Sdfg, SdfgBuilder, Subset, SymRange, Tasklet,
};
use std::sync::{Arc, Barrier};

const THREADS: usize = 8;
/// Fresh programs whose first runs race before the one followed to its
/// drop.
const RACES: usize = 16;

/// `B[i] = A[i] * 5 + 1` over `i in 0..N`: one JIT-eligible fused kernel.
fn one_kernel() -> Sdfg {
    let mut b = SdfgBuilder::new("code_lifetime_probe");
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
            |body| {
                let a = body.access("A");
                let o = body.access("B");
                let t = body.tasklet(Tasklet::simple(
                    "t",
                    vec!["x"],
                    "y",
                    ScalarExpr::r("x")
                        .mul(ScalarExpr::f64(5.0))
                        .add(ScalarExpr::f64(1.0)),
                ));
                body.read(
                    a,
                    t,
                    Memlet::new("A", Subset::at(vec![sym("i")])).to_conn("x"),
                );
                body.write(
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

fn input() -> ExecState {
    let mut st = ExecState::new();
    st.bind("N", 32);
    let vals: Vec<f64> = (0..32).map(|i| i as f64 * 0.5).collect();
    st.set_array("A", ArrayValue::from_f64(vec![32], &vals));
    st
}

/// `(count, bytes)` of anonymous read+execute mappings in this process:
/// the pages the JIT maps (no backing file, so no pathname column).
fn anon_rx_mappings() -> (usize, u64) {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("readable /proc/self/maps");
    let mut out = (0, 0);
    for line in maps.lines() {
        let cols: Vec<&str> = line.split_whitespace().collect();
        if cols.len() == 5 && cols[1] == "r-xp" {
            let (lo, hi) = cols[0].split_once('-').expect("address range");
            let lo = u64::from_str_radix(lo, 16).expect("hex address");
            let hi = u64::from_str_radix(hi, 16).expect("hex address");
            out.0 += 1;
            out.1 += hi - lo;
        }
    }
    out
}

/// Runs `prog` once on a fresh executor and returns the result `B`.
fn run_once(prog: &Program) -> ArrayValue {
    let mut exec = prog.executor();
    exec.execute(&input(), &ExecOptions::default(), None, None)
        .expect("probe kernel runs");
    exec.array("B").expect("B allocated").clone()
}

/// `THREADS` threads make their first run of `prog` at the same time,
/// released together by a barrier; returns each thread's `B`.
fn race_first_runs(prog: &Program) -> Vec<ArrayValue> {
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    run_once(prog)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn kernel_code_is_emitted_once_and_unmapped_with_its_program() {
    let mapped_before = anon_rx_mappings();

    // (a) Every thread makes the kernel's first run at once: one emits,
    // the others wait for that code instead of emitting their own. A
    // lost race shows only sometimes, so fresh programs race repeatedly.
    for round in 0..RACES {
        let fresh = Program::compile(&one_kernel());
        let emitted = jit_emissions().0;
        race_first_runs(&fresh);
        assert_eq!(
            jit_emissions().0 - emitted,
            1,
            "round {round}: {THREADS} concurrent first runs must emit the kernel exactly once"
        );
    }
    let prog = Arc::new(Program::compile(&one_kernel()));
    let (emitted0, bytes0) = jit_emissions();
    let runs0 = jit_native_runs();
    let results = race_first_runs(&prog);
    let (emitted1, bytes1) = jit_emissions();
    assert_eq!(
        emitted1 - emitted0,
        1,
        "{THREADS} concurrent first runs must emit the kernel exactly once"
    );
    assert!(bytes1 > bytes0, "the emission counts its bytes");
    assert_eq!(
        jit_native_runs() - runs0,
        THREADS as u64,
        "every first run ran native code"
    );
    assert!(results.windows(2).all(|w| w[0] == w[1]));
    let mapped_during = anon_rx_mappings();
    assert!(
        mapped_during.1 > mapped_before.1,
        "the kernel's code is mapped while its program lives: {mapped_during:?} vs {mapped_before:?}"
    );

    // (b) Later runs, a second executor and a clone of the program reuse
    // the kernel's code.
    let runs1 = jit_native_runs();
    let mut execs = [prog.executor(), prog.executor()];
    for round in 0..2 {
        for exec in &mut execs {
            exec.execute(&input(), &ExecOptions::default(), None, None)
                .unwrap();
            assert_eq!(exec.array("B"), Some(&results[0]), "round {round}");
        }
    }
    assert_eq!(run_once(&prog), results[0]);
    drop(execs);
    let clone = Arc::new(Program::clone(&prog));
    drop(prog);
    assert_eq!(run_once(&clone), results[0]);
    assert_eq!(jit_emissions(), (emitted1, bytes1), "reuse emitted code");
    assert_eq!(jit_native_runs() - runs1, 6, "reuse ran native code");
    assert_eq!(
        anon_rx_mappings(),
        mapped_during,
        "a live clone keeps the code mapped"
    );

    // (c) The last clone of the program takes its mapping with it.
    drop(clone);
    assert_eq!(
        anon_rx_mappings(),
        mapped_before,
        "the kernel's code outlived its program"
    );
}
