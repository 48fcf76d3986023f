//! Trial-reset and guard-plane tests.
//!
//! 1. **Reset** — an executor reused across trials with *different*
//!    inputs leaves every engine-allocated container bit-identical,
//!    payload and guard planes, to what a fresh executor produces, across
//!    per-element stores, WCR accumulation, bulk range copies, the
//!    fused-kernel path, and host (zero-filled) and device
//!    (garbage-filled) storage.
//! 2. **Guard planes** — an out-of-bounds store raises `OutOfBounds` at
//!    the offending element before it can reach the poisoned planes, so
//!    the post-trial guard verification can only fire on an engine
//!    defect.

use fuzzyflow_interp::{ArrayValue, CompileOptions, ExecError, ExecOptions, ExecState, Program};
use fuzzyflow_ir::{
    sym, DType, DataDesc, LibraryOp, Memlet, ScalarExpr, Schedule, Sdfg, SdfgBuilder, Storage,
    Subset, SymExpr, SymRange, Tasklet, Wcr,
};

/// Output container size: far more than any one trial writes, so residue
/// a reset left behind from an earlier, larger trial would show.
const BIG: i64 = 8192;

fn big_output(storage: Storage) -> DataDesc {
    DataDesc::array(DType::F64, vec![SymExpr::Int(BIG)]).in_storage(storage)
}

/// `B[i*stride + offset] (=|+=) A[i]` over `i in 0..N`, with `B` a big
/// engine-allocated container — per-element stores (fused native, fused
/// chunk loop, or generic bytecode depending on the options).
fn scatter_program(wcr: Option<Wcr>, stride: i64, offset: i64, storage: Storage) -> Sdfg {
    let mut b = SdfgBuilder::new("scatter");
    b.symbol("N");
    b.array("A", DType::F64, &["N"]);
    b.array_desc("B", big_output(storage));
    let st = b.start();
    b.in_state(st, |df| {
        let a = df.access("A");
        let o = df.access("B");
        let m = df.map(
            &["i"],
            vec![SymRange::strided(
                SymExpr::Int(0),
                sym("N"),
                SymExpr::Int(stride),
            )],
            Schedule::Parallel,
            |body| {
                let a = body.access("A");
                let o = body.access("B");
                let t = body.tasklet(Tasklet::simple(
                    "t",
                    vec!["x"],
                    "y",
                    ScalarExpr::r("x").add(ScalarExpr::f64(1.0)),
                ));
                body.read(
                    a,
                    t,
                    Memlet::new("A", Subset::at(vec![sym("i")])).to_conn("x"),
                );
                let mut w = Memlet::new("B", Subset::at(vec![sym("i") + SymExpr::Int(offset)]))
                    .from_conn("y");
                if let Some(op) = wcr {
                    w = w.with_wcr(op);
                }
                body.write(t, o, w);
            },
        );
        df.auto_wire(m, &[a], &[o]);
    });
    b.build()
}

/// `B[0:N] = softmax(A[0:N])` — a bulk range write into the prefix of a
/// big container through the library-node path.
fn bulk_program(storage: Storage) -> Sdfg {
    let mut b = SdfgBuilder::new("bulk");
    b.symbol("N");
    b.array("A", DType::F64, &["N"]);
    b.array_desc("B", big_output(storage));
    let st = b.start();
    b.in_state(st, |df| {
        let a = df.access("A");
        let o = df.access("B");
        let node = df.library("soft", LibraryOp::Softmax);
        df.read(
            a,
            node,
            Memlet::new("A", Subset::full(&[sym("N")])).to_conn("in"),
        );
        df.write(
            node,
            o,
            Memlet::new("B", Subset::full(&[sym("N")])).from_conn("out"),
        );
    });
    b.build()
}

fn input_for(n: i64) -> ExecState {
    let mut st = ExecState::new();
    st.bind("N", n);
    let vals: Vec<f64> = (0..n).map(|i| (i * 3 % 17) as f64 / 4.0).collect();
    st.set_array("A", ArrayValue::from_f64(vec![n], &vals));
    st
}

/// The three compiled rungs: fused with the JIT on, fused with it off
/// (the chunk loop), and generic bytecode per element.
fn engine_variants() -> [(CompileOptions, ExecOptions); 3] {
    let no_jit = ExecOptions {
        jit: false,
        ..Default::default()
    };
    let generic = CompileOptions {
        specialize_f64: false,
        ..Default::default()
    };
    [
        (CompileOptions::default(), ExecOptions::default()),
        (CompileOptions::default(), no_jit),
        (generic, ExecOptions::default()),
    ]
}

fn payload_bits(arr: &ArrayValue) -> Vec<u64> {
    (0..arr.len())
        .map(|i| arr.get(i).as_f64().to_bits())
        .collect()
}

/// One executor reused over trials of different sizes against a fresh
/// executor per trial: the between-trial reset must leave nothing of an
/// earlier trial behind, in the payload or in the guard planes.
#[test]
fn reused_executor_matches_fresh_executor_bitwise() {
    for storage in [Storage::Host, Storage::Device] {
        let programs = [
            scatter_program(None, 1, 0, storage),
            scatter_program(Some(Wcr::Sum), 1, 777, storage),
            scatter_program(Some(Wcr::Max), 3, 2048, storage),
            bulk_program(storage),
        ];
        for (pi, p) in programs.iter().enumerate() {
            for (copts, opts) in engine_variants() {
                let prog = Program::compile_with_options(p, &copts);
                let mut reused = prog.executor();
                for n in [40, 7, 23, 40, 1] {
                    let input = input_for(n);
                    let mut fresh = prog.executor();
                    reused.execute(&input, &opts, None, None).unwrap();
                    fresh.execute(&input, &opts, None, None).unwrap();
                    let r = reused.array("B").expect("B allocated");
                    let f = fresh.array("B").expect("B allocated");
                    assert!(
                        payload_bits(r) == payload_bits(f),
                        "program {pi}, {storage:?}, {copts:?}, jit {}: B diverges from a \
                         fresh executor at n={n}",
                        opts.jit
                    );
                    assert!(
                        r.guards_intact() && f.guards_intact(),
                        "program {pi}, {storage:?}, {copts:?}, jit {}: guard planes not \
                         re-poisoned at n={n}",
                        opts.jit
                    );
                }
            }
        }
    }
}

// ----- guard planes ----------------------------------------------------

/// `B[i + 1] = A[i]` over `i in 0..N` with `B` of shape `[N]`: the last
/// iteration stores one element past the end.
fn off_by_one_program() -> Sdfg {
    let mut b = SdfgBuilder::new("offby");
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
                let t = body.tasklet(Tasklet::simple("cp", vec!["x"], "y", ScalarExpr::r("x")));
                body.read(
                    a,
                    t,
                    Memlet::new("A", Subset::at(vec![sym("i")])).to_conn("x"),
                );
                body.write(
                    t,
                    o,
                    Memlet::new("B", Subset::at(vec![sym("i") + SymExpr::Int(1)])).from_conn("y"),
                );
            },
        );
        df.auto_wire(m, &[a], &[o]);
    });
    b.build()
}

#[test]
fn oob_write_traps_by_default() {
    let err = Program::compile(&off_by_one_program())
        .executor()
        .execute(&input_for(8), &ExecOptions::default(), None, None)
        .unwrap_err();
    assert_eq!(
        err,
        ExecError::OutOfBounds {
            data: "B".into(),
            point: vec![8],
            shape: vec![8],
        }
    );
}
