//! Trial-reset and guard-plane tests.
//!
//! 1. **Reset** — an executor reused across trials with *different*
//!    inputs leaves every engine-allocated container bit-identical,
//!    payload and guard planes, to what a fresh executor produces, across
//!    per-element stores, WCR accumulation, bulk range copies, the
//!    fused-kernel path, and host (zero-filled) and device
//!    (garbage-filled) storage.
//! 2. **Guard planes** — out-of-bounds stores land where native code
//!    would put them: in trap mode they raise `OutOfBounds`; in slop
//!    mode a near miss corrupts the poisoned guard plane and is reported
//!    post-run as a `GuardViolation` naming the container and the
//!    faulting element, a payload fold-back silently corrupts the
//!    neighboring element, and a far wild store still traps.

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

/// `B[i + off] = A[i]` over `i in 0..N` with `B` of shape `[N]`: the last
/// iteration stores `off` elements past the end.
fn off_by_program(off: i64, wcr: Option<Wcr>) -> Sdfg {
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
                let mut w =
                    Memlet::new("B", Subset::at(vec![sym("i") + SymExpr::Int(off)])).from_conn("y");
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

fn run_compiled(p: &Sdfg, input: &ExecState, opts: &ExecOptions) -> Result<(), ExecError> {
    Program::compile(p)
        .executor()
        .execute(input, opts, None, None)
}

#[test]
fn oob_write_traps_by_default() {
    let p = off_by_program(1, None);
    let err = run_compiled(&p, &input_for(8), &ExecOptions::default()).unwrap_err();
    assert_eq!(
        err,
        ExecError::OutOfBounds {
            data: "B".into(),
            point: vec![8],
            shape: vec![8],
        }
    );
}

#[test]
fn oob_write_in_slop_mode_is_a_guard_fault_at_the_element() {
    let p = off_by_program(1, None);
    let opts = ExecOptions {
        oob_slop: true,
        ..Default::default()
    };
    let err = run_compiled(&p, &input_for(8), &opts).unwrap_err();
    assert_eq!(
        err,
        ExecError::GuardViolation {
            data: "B".into(),
            point: vec![8],
            shape: vec![8],
        }
    );
    let msg = err.to_string();
    assert!(
        msg.contains("'B'") && msg.contains("[8]"),
        "triage message names container and element: {msg}"
    );
    assert!(err.is_crash(), "guard faults classify as crashes");
}

#[test]
fn far_oob_write_still_traps_in_slop_mode() {
    // 100 elements past the end is outside the guard window — a native
    // run would segfault, and the slop mode keeps the trap.
    let p = off_by_program(100, None);
    let opts = ExecOptions {
        oob_slop: true,
        ..Default::default()
    };
    let err = run_compiled(&p, &input_for(8), &opts).unwrap_err();
    assert!(
        matches!(err, ExecError::OutOfBounds { .. }),
        "far wild store must keep trapping: {err:?}"
    );
}

#[test]
fn wcr_oob_write_still_traps_in_slop_mode() {
    // Read-modify-write has no native single-store analogue — it reads
    // out of bounds first, so it keeps the trap even in slop mode.
    let p = off_by_program(1, Some(Wcr::Sum));
    let opts = ExecOptions {
        oob_slop: true,
        ..Default::default()
    };
    let err = run_compiled(&p, &input_for(8), &opts).unwrap_err();
    assert!(
        matches!(err, ExecError::OutOfBounds { .. }),
        "WCR stores must keep trapping: {err:?}"
    );
}

/// `B[1, j+1] = A[j]` over `j in 0..N` on a 2-D `B[N, N]`: the last store
/// targets point `[1, N]`, whose row-major linear offset `2N` is still
/// inside the payload — a native wild store silently corrupts `B[2, 0]`.
#[test]
fn payload_foldback_corrupts_neighbor_silently_in_slop_mode() {
    let n: i64 = 6;
    let mut b = SdfgBuilder::new("fold");
    b.symbol("N");
    b.array("A", DType::F64, &["N"]);
    b.array("B", DType::F64, &["N", "N"]);
    let st = b.start();
    b.in_state(st, |df| {
        let a = df.access("A");
        let o = df.access("B");
        let m = df.map(
            &["j"],
            vec![SymRange::full(sym("N"))],
            Schedule::Parallel,
            |body| {
                let a = body.access("A");
                let o = body.access("B");
                let t = body.tasklet(Tasklet::simple("cp", vec!["x"], "y", ScalarExpr::r("x")));
                body.read(
                    a,
                    t,
                    Memlet::new("A", Subset::at(vec![sym("j")])).to_conn("x"),
                );
                body.write(
                    t,
                    o,
                    Memlet::new(
                        "B",
                        Subset::at(vec![SymExpr::Int(1), sym("j") + SymExpr::Int(1)]),
                    )
                    .from_conn("y"),
                );
            },
        );
        df.auto_wire(m, &[a], &[o]);
    });
    let p = b.build();
    let input = input_for(n);

    // Trap mode: the engines agree this is out of bounds at [1, N].
    let err = run_compiled(&p, &input, &ExecOptions::default()).unwrap_err();
    assert_eq!(
        err,
        ExecError::OutOfBounds {
            data: "B".into(),
            point: vec![1, n],
            shape: vec![n, n],
        }
    );

    // Slop mode: the store folds back into B[2, 0] and the run succeeds —
    // exactly the silent corruption native code would exhibit.
    let opts = ExecOptions {
        oob_slop: true,
        ..Default::default()
    };
    let prog = Program::compile(&p);
    let mut exec = prog.executor();
    exec.execute(&input, &opts, None, None)
        .expect("fold-back is silent");
    let arr = exec.array("B").unwrap();
    let a_last = (((n - 1) * 3 % 17) as f64) / 4.0;
    assert_eq!(
        arr.get((2 * n) as usize).as_f64(),
        a_last,
        "B[2,0] holds the folded-back store of A[N-1]"
    );
}
