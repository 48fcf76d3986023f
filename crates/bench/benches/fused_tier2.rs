//! Tier-2 fusion classes vs per-element execution: select-bodied,
//! vectorized and multi-tasklet-pipeline maps, plus the process-wide
//! shared program cache.
//!
//! Compiling with `fuse_maps: false` runs these maps per element on the
//! generic bytecode, the baseline here. The bench asserts:
//!
//! * tier-2 kernels are bit-identical to the per-element engine on the
//!   timed inputs (the property suite covers this broadly; this guards
//!   the exact configurations being timed);
//! * fused ≥ 1.5x over the per-element path on the select-heavy and the
//!   vectorized (`lanes = 8`) workloads;
//! * a second, warm campaign session in the same process performs
//!   exactly 0 fresh compilations through the shared program cache and
//!   reproduces the cold report byte for byte (modulo the `caches`
//!   line, whose live counters are what distinguishes warm from cold).
//!
//! Results land in `BENCH_fused2.json` with the machine configuration.

use fuzzyflow::ir::{
    sym, DType, Memlet, ScalarExpr, Schedule, Sdfg, SdfgBuilder, Subset, SymExpr, SymRange, Tasklet,
};
use fuzzyflow::prelude::*;
use fuzzyflow::session::{Campaign, NullSink};
use fuzzyflow_bench::{row, time_per_iter, write_bench_record};
use fuzzyflow_interp::{
    shared_compile_count, ArrayValue, CompileOptions, ExecOptions, ExecState, Program,
};

/// A map over `i in [0, N)` whose body is a chain of `depth` tasklets
/// `A -> T1 -> ... -> B`, each `lanes` wide over lane-blocked memlets
/// (single-index memlets when `lanes == 1`).
fn workload(depth: usize, lanes: u32, select: bool) -> Sdfg {
    let mut b = SdfgBuilder::new("tier2_bench");
    b.symbol("N");
    b.symbol("M");
    b.array("A", DType::F64, &["M"]);
    b.array("B", DType::F64, &["M"]);
    for k in 1..depth {
        b.array(&format!("T{k}"), DType::F64, &["M"]);
    }
    let st = b.start();
    b.in_state(st, move |df| {
        let a = df.access("A");
        let o = df.access("B");
        let mids: Vec<_> = (1..depth).map(|k| df.access(&format!("T{k}"))).collect();
        let m = df.map(
            &["i"],
            vec![SymRange::full(sym("N"))],
            Schedule::Parallel,
            move |mb| {
                let sub = || -> Subset {
                    if lanes > 1 {
                        let base = SymExpr::Int(lanes as i64) * sym("i");
                        let end = base.clone() + SymExpr::Int(lanes as i64);
                        Subset::new(vec![SymRange::span(base, end)])
                    } else {
                        Subset::at(vec![sym("i")])
                    }
                };
                let names: Vec<String> = std::iter::once("A".to_string())
                    .chain((1..depth).map(|k| format!("T{k}")))
                    .chain(std::iter::once("B".to_string()))
                    .collect();
                let nodes: Vec<_> = names.iter().map(|n| mb.access(n)).collect();
                for k in 0..depth {
                    let x = || ScalarExpr::r("x");
                    let body = if select {
                        // Nested selects: abs on the negative side, a
                        // magnitude-dependent scale on the positive side.
                        x().lt(ScalarExpr::f64(0.0)).select(
                            x().neg(),
                            x().lt(ScalarExpr::f64(1.0)).select(
                                x().mul(ScalarExpr::f64(3.0)).add(ScalarExpr::f64(1.0)),
                                x().mul(ScalarExpr::f64(0.5)),
                            ),
                        )
                    } else {
                        x().mul(ScalarExpr::f64(k as f64 + 2.0))
                            .add(ScalarExpr::f64(1.0))
                    };
                    let mut t = Tasklet::simple(format!("s{k}"), vec!["x"], "y", body);
                    t.lanes = lanes;
                    let t = mb.tasklet(t);
                    mb.read(
                        nodes[k],
                        t,
                        Memlet::new(names[k].clone(), sub()).to_conn("x"),
                    );
                    mb.write(
                        t,
                        nodes[k + 1],
                        Memlet::new(names[k + 1].clone(), sub()).from_conn("y"),
                    );
                }
            },
        );
        let outs: Vec<_> = mids.iter().copied().chain(std::iter::once(o)).collect();
        df.auto_wire(m, &[a], &outs);
    });
    b.build()
}

fn input(blocks: i64, lanes: u32) -> ExecState {
    let m = blocks * lanes as i64;
    let mut st = ExecState::new();
    st.bind("N", blocks).bind("M", m);
    // Mixed signs and magnitudes so every select branch is exercised.
    let vals: Vec<f64> = (0..m)
        .map(|i| (i as f64) * 0.37 - (m as f64) * 0.18)
        .collect();
    st.set_array("A", ArrayValue::from_f64(vec![m], &vals));
    st
}

fn output_bits(p: &Program, input: &ExecState) -> Vec<u64> {
    let mut st = input.clone();
    p.run(&mut st).unwrap();
    st.array("B")
        .unwrap()
        .to_f64_vec()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

struct Tier2Numbers {
    per_element_us: f64,
    fused_us: f64,
}

impl Tier2Numbers {
    fn speedup(&self) -> f64 {
        self.per_element_us / self.fused_us
    }
}

/// Asserts the scope fuses and the kernel is bit-identical to the
/// per-element tier, then times both on reused executors.
fn measure(label: &str, p: &Sdfg, input: &ExecState, iters: usize) -> Tier2Numbers {
    let fused = Program::compile(p);
    let stats = fused.tasklet_stats();
    assert!(
        stats.maps[0].fused,
        "{label}: not fused ({:?})",
        stats.maps[0].reason
    );
    let per_element = Program::compile_with_options(
        p,
        &CompileOptions {
            fuse_maps: false,
            ..Default::default()
        },
    );
    assert_eq!(
        output_bits(&fused, input),
        output_bits(&per_element, input),
        "{label}: tier-2 kernel diverged from the per-element path"
    );
    let opts = ExecOptions::default();
    let mut pe = per_element.executor();
    let per_element_us = time_per_iter(iters, || {
        pe.execute(input, &opts, None, None).unwrap();
    });
    let mut fe = fused.executor();
    let fused_us = time_per_iter(iters, || {
        fe.execute(input, &opts, None, None).unwrap();
    });
    let nums = Tier2Numbers {
        per_element_us,
        fused_us,
    };
    row(
        &format!("{label} per-element generic bytecode (us)"),
        format!("{:.1}", nums.per_element_us),
    );
    row(
        &format!("{label} fused (us)"),
        format!("{:.1}", nums.fused_us),
    );
    row(
        &format!("{label} speedup"),
        format!("{:.2}x", nums.speedup()),
    );
    nums
}

fn campaign() -> Campaign {
    Campaign::new("tier2_warm")
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
        .with_verify(VerifyConfig::new().with_trials(10).with_size_max(8))
        .with_threads(2)
}

fn main() {
    println!("== fused_tier2: tier-2 fusion classes vs per-element generic bytecode ==");

    let iters = 200;
    let select = workload(1, 1, true);
    let select_nums = measure("select-heavy (N=16384)", &select, &input(16384, 1), iters);

    let vector = workload(1, 8, false);
    let vector_nums = measure(
        "vectorized lanes=8 (M=16384)",
        &vector,
        &input(2048, 8),
        iters,
    );

    let pipe = workload(3, 1, false);
    let pipe_nums = measure("pipeline depth=3 (N=16384)", &pipe, &input(16384, 1), iters);

    // --- Warm two-session campaign through the shared program cache. ---
    let before = shared_compile_count();
    let cold_report = campaign().session().run(&NullSink).to_json();
    let cold = shared_compile_count() - before;
    assert!(cold > 0, "the cold session should compile programs");
    let warm_report = campaign().session().run(&NullSink).to_json();
    let warm = shared_compile_count() - before - cold;
    row("campaign cold compiles", cold);
    row("campaign warm compiles (target: 0)", warm);
    assert_eq!(warm, 0, "warm session recompiled {warm} programs");
    // Byte-identical modulo the `caches` line, whose live counter
    // deltas are exactly what distinguishes a warm run from a cold one.
    let sans_caches = |report: &str| -> String {
        report
            .lines()
            .filter(|l| !l.starts_with("  \"caches\":"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        sans_caches(&warm_report),
        sans_caches(&cold_report),
        "warm session report diverged from the cold one"
    );

    assert!(
        select_nums.speedup() >= 1.5,
        "select-heavy below the 1.5x bar: {:.2}x",
        select_nums.speedup()
    );
    assert!(
        vector_nums.speedup() >= 1.5,
        "vectorized below the 1.5x bar: {:.2}x",
        vector_nums.speedup()
    );

    let tier = |n: &Tier2Numbers| {
        format!(
            "{{\"per_element_us\": {:.3}, \"fused_us\": {:.3}, \"speedup\": {:.3}}}",
            n.per_element_us,
            n.fused_us,
            n.speedup()
        )
    };
    write_bench_record(
        "fused2",
        "fused_tier2",
        iters,
        &[
            ("select_heavy", tier(&select_nums)),
            ("vectorized_lanes8", tier(&vector_nums)),
            ("pipeline_depth3", tier(&pipe_nums)),
            (
                "shared_cache",
                format!("{{\"cold_compiles\": {cold}, \"warm_compiles\": {warm}}}"),
            ),
        ],
    );
}
