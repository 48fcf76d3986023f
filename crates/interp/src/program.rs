//! The compile-once execution engine.
//!
//! [`Program::compile`] lowers an [`Sdfg`] into a self-contained, immutable
//! program: all data/symbol/connector names are interned into dense ids,
//! memlet subscripts are precompiled into affine access plans (with a
//! compiled postfix expression fallback for non-affine subscripts), and
//! tasklet statement trees are flattened into a register-based instruction
//! list. An [`Executor`] then runs the program against id-indexed `Vec`
//! storage with reusable buffers, so the differential-fuzzing trial loop
//! pays for compilation once and resets state in place between trials.
//!
//! The engine is semantics-identical to the tree-walk interpreter in
//! [`crate::exec`] — same results bit for bit, same [`ExecError`] variants
//! raised in the same order, same step counts for the hang oracle, and the
//! same coverage location ids — which the engine-equivalence property
//! suite enforces differentially (FuzzyFlow's own method, applied to our
//! two engines).

use crate::coverage::{location_id, CoverageMap};
use crate::error::ExecError;
use crate::exec::{
    apply_bin, apply_cmp, apply_un, check_alloc_shape, combine_wcr, CommHandler, ExecOptions,
    ExecState, StateMismatch,
};
use crate::jit::JitReject;
use crate::value::ArrayValue;
use fuzzyflow_ir::{
    BinOp, CmpOp, CondExpr, DType, DfNode, Memlet, Scalar, Sdfg, Storage, SymExpr, Tasklet, UnOp,
    Wcr,
};
use fuzzyflow_sym::{ConcreteRange, SymError};
use library::LibraryPlan;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

#[path = "library.rs"]
mod library;

/// Dense id of an interned data container name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct DataId(u32);

impl DataId {
    #[inline]
    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Dense id of an interned symbol name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SymId(u32);

impl SymId {
    #[inline]
    pub(crate) fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Order-preserving string interner producing dense `u32` ids.
#[derive(Clone, Debug, Default)]
struct Interner {
    names: Vec<String>,
    ids: BTreeMap<String, u32>,
}

impl Interner {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }

    fn get(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    fn len(&self) -> usize {
        self.names.len()
    }
}

/// Postfix-compiled symbolic integer expression. Evaluation reproduces
/// [`SymExpr::eval`] exactly, including error order (for division and
/// remainder the divisor is evaluated and zero-checked *before* the
/// dividend, as in the tree evaluator).
#[derive(Clone, Debug)]
struct SymCode {
    ops: Vec<SymOp>,
}

#[derive(Clone, Debug)]
enum SymOp {
    Push(i64),
    Load(SymId),
    Add,
    Sub,
    Mul,
    /// Errors with `DivisionByZero` if the value on top of the stack is 0.
    EnsureNonZero,
    /// Pops dividend (top) then divisor; pushes Euclidean quotient.
    DivE,
    /// Pops dividend (top) then divisor; pushes Euclidean remainder.
    ModE,
    Min,
    Max,
    Neg,
}

/// One atom of an affine access plan: `± coeff` or `± coeff * sym`.
#[derive(Clone, Debug)]
struct AffTerm {
    /// `false` = added, `true` = subtracted.
    sub: bool,
    sym: Option<SymId>,
    coeff: i64,
}

/// A compiled index expression: constants and bare symbols resolve without
/// any walking, affine chains of `{Int, Sym, Int*Sym}` atoms use a flat
/// term list, and everything else (division, remainder, min/max,
/// re-associated or nested arithmetic) falls back to compiled postfix
/// form.
#[derive(Clone, Debug)]
enum IdxCode {
    Const(i64),
    Sym(SymId),
    /// A left-associated sum/difference of atoms, evaluated as
    /// `((t0 ± t1) ± t2) …` with checked arithmetic. Only expressions
    /// whose tree evaluation performs this *exact* sequence of checked
    /// operations are lowered here (no algebraic rewriting, no constant
    /// folding across atoms), so overflow and unbound-symbol errors stay
    /// bit-identical to [`SymExpr::eval`] — the compiled-code fallback
    /// covers everything else.
    Affine(Vec<AffTerm>),
    Code(SymCode),
}

/// Compiled per-dimension range of a memlet subset or map.
#[derive(Clone, Debug)]
struct RangePlan {
    start: IdxCode,
    end: IdxCode,
    step: IdxCode,
}

/// Compiled access plan of one memlet.
#[derive(Clone, Debug)]
struct MemPlan {
    data: DataId,
    wcr: Option<Wcr>,
    kind: MemKind,
}

#[derive(Clone, Debug)]
enum MemKind {
    /// Every dimension is a single index with unit step: the offset is
    /// computed directly, no range materialization or point iteration.
    /// Each dimension keeps `(start, end-check)`: the end expression's
    /// value is provably `start + 1`, but its *errors* (e.g. overflow at
    /// the i64 edge) must still surface exactly as `Subset::concrete`
    /// raises them in the tree-walk engine — see [`EndCheck`].
    Single(Vec<(IdxCode, EndCheck)>),
    /// General (possibly strided / multi-element) subset.
    Ranges(Vec<RangePlan>),
}

/// How a single-index dimension's end expression is validated.
#[derive(Clone, Debug)]
enum EndCheck {
    /// The end expression is literally `start + 1` for this dimension's
    /// start expression. Re-evaluating the shared subexpression yields
    /// the identical value (evaluation is pure and bindings cannot change
    /// mid-subset), so the end's only possible *new* error is the checked
    /// `+ 1` overflowing at `i64::MAX` — checked directly against the
    /// start's value, skipping a full expression evaluation per element
    /// in the hot trial loop.
    IncOfStart,
    /// Any other shape: evaluate for errors, exactly like the tree walk.
    Eval(IdxCode),
}

/// Compiled inter-state condition (short-circuit evaluation order matches
/// [`CondExpr::eval`]).
#[derive(Clone, Debug)]
enum CondPlan {
    True,
    Cmp(CmpOp, IdxCode, IdxCode),
    Not(Box<CondPlan>),
    And(Box<CondPlan>, Box<CondPlan>),
    Or(Box<CondPlan>, Box<CondPlan>),
}

/// One instruction of the flat, register-based tasklet bytecode.
#[derive(Clone, Debug)]
enum Insn {
    /// Marks the start of a tasklet statement: sets the coverage site and
    /// resets the per-statement select counter.
    Stmt {
        site: u64,
    },
    Const {
        dst: u32,
        val: Scalar,
    },
    Mov {
        dst: u32,
        src: u32,
    },
    LoadSym {
        dst: u32,
        sym: SymId,
    },
    Bin {
        op: BinOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    Un {
        op: UnOp,
        dst: u32,
        a: u32,
    },
    Cmp {
        op: CmpOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Select branch coverage: bumps the select counter and records
    /// `location_id([site, sel, cond])`.
    CoverSel {
        cond: u32,
    },
    JumpIfFalse {
        cond: u32,
        target: u32,
    },
    Jump {
        target: u32,
    },
}

/// Compiled tasklet node. Its memlet plans and gathers serve the generic
/// bytecode `code`, which runs it per element, and [`fuse_map`], which
/// reads them next to the f64 code in `fast` (same register layout).
#[derive(Clone, Debug)]
struct TaskletPlan {
    name: String,
    cover_loc: u64,
    lanes: usize,
    /// Input-connector slots; slot `k`'s lane value lives in register `k`.
    n_conn_slots: usize,
    inputs: Vec<InputPlan>,
    code: Vec<Insn>,
    n_regs: usize,
    /// Per `Tasklet::outputs` entry, in declaration order.
    gather: Vec<GatherSpec>,
    n_out_slots: usize,
    out_writes: Vec<OutWrite>,
    /// Dtype-monomorphic f64 specialization, when the tasklet is eligible
    /// (see [`Compiler::specialize_f64`]) and specialization is enabled.
    /// Only [`fuse_map`] consumes it; executed per element, the tasklet
    /// always runs the generic bytecode above.
    fast: Option<Box<FastTasklet>>,
}

/// One instruction of the f64 kernel IR: a bytecode over a raw `f64`
/// register file plus a `bool` register file (sharing one index space),
/// with no per-element [`Scalar`] boxing or dtype dispatch. Only
/// operations whose generic evaluation provably takes the float (or
/// boolean) path are ever lowered here, so results and errors stay
/// bit-identical to the generic bytecode.
///
/// The specializer emits it per tasklet ([`FastTasklet::code`]), and a
/// fused kernel runs its tasklets' code concatenated
/// ([`FusedKernel::code`]) in the lane-chunked loop or the JIT. Neither
/// records coverage inside the body, so the IR carries no coverage
/// markers: a run that must interleave per-element records executes the
/// map per element instead. `LoadParamF` and `FloatFromB` occur only in
/// fused kernels.
#[derive(Clone, Copy, Debug)]
pub(crate) enum FInsn {
    ConstF {
        dst: u32,
        val: f64,
    },
    ConstB {
        dst: u32,
        val: bool,
    },
    MovF {
        dst: u32,
        src: u32,
    },
    MovB {
        dst: u32,
        src: u32,
    },
    /// Symbol load, converted to `f64` at the load — sound because
    /// eligibility guarantees the value's only uses are float-path
    /// operations, which convert with the same `as f64` at first use. In
    /// a fused kernel it names an outer symbol, which the precheck
    /// proved bound.
    LoadSymF {
        dst: u32,
        sym: SymId,
    },
    /// Map parameter of dimension `dim` — what fusion turns a `LoadSymF`
    /// of the map's own parameter into: varies per lane on the innermost
    /// dimension, broadcast otherwise.
    LoadParamF {
        dst: u32,
        dim: u32,
    },
    /// Float-path binary op (`Add..Max` with ≥ 1 float operand, or `Pow`).
    BinF {
        op: BinOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Float-path unary op (`Neg`/`Abs` on floats, or a math intrinsic).
    UnF {
        op: UnOp,
        dst: u32,
        a: u32,
    },
    /// Float comparison into a bool register.
    CmpF {
        op: CmpOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    NotB {
        dst: u32,
        a: u32,
    },
    AndB {
        dst: u32,
        a: u32,
        b: u32,
    },
    OrB {
        dst: u32,
        a: u32,
        b: u32,
    },
    /// `regs_b[reg] = regs_f[reg] != 0.0` — exactly [`Scalar::as_bool`]
    /// for floats, and equivalent for symbol values (no nonzero `i64`
    /// converts to `0.0`).
    BoolFromF {
        reg: u32,
    },
    /// `rf[dst] = rb[src] as u8 as f64` — the gather conversion, used to
    /// forward a bool-classed pipeline intermediate to the next tasklet's
    /// float connector register exactly as a store + reload would.
    FloatFromB {
        dst: u32,
        src: u32,
    },
    JumpIfFalse {
        cond: u32,
        target: u32,
    },
    Jump {
        target: u32,
    },
}

impl FInsn {
    /// The instruction shifted into a concatenated stream: every register
    /// operand moves up by `reg`, every jump target by `pc`.
    fn relocate(mut self, reg: u32, pc: u32) -> FInsn {
        match &mut self {
            FInsn::ConstF { dst, .. }
            | FInsn::ConstB { dst, .. }
            | FInsn::LoadSymF { dst, .. }
            | FInsn::LoadParamF { dst, .. }
            | FInsn::BoolFromF { reg: dst } => *dst += reg,
            FInsn::MovF { dst, src }
            | FInsn::MovB { dst, src }
            | FInsn::FloatFromB { dst, src }
            | FInsn::UnF { dst, a: src, .. }
            | FInsn::NotB { dst, a: src } => {
                *dst += reg;
                *src += reg;
            }
            FInsn::BinF { dst, a, b, .. }
            | FInsn::CmpF { dst, a, b, .. }
            | FInsn::AndB { dst, a, b }
            | FInsn::OrB { dst, a, b } => {
                *dst += reg;
                *a += reg;
                *b += reg;
            }
            FInsn::JumpIfFalse { cond, target } => {
                *cond += reg;
                *target += pc;
            }
            FInsn::Jump { target } => *target += pc,
        }
        self
    }
}

/// Monomorphic f64 specialization of one tasklet: the compile step whose
/// only consumer is [`fuse_map`]. It holds just the code and what it adds
/// to the owning [`TaskletPlan`], whose memlet plans, connector registers
/// and gathers fusion reads alongside it.
#[derive(Clone, Debug)]
struct FastTasklet {
    code: Vec<FInsn>,
    n_regs: usize,
    /// Per [`TaskletPlan::gather`] entry: the gathered register is
    /// boolean-classed; convert with [`Scalar::as_bool`]'s inverse
    /// convention (`true` → `1.0`).
    gather_bool: Vec<bool>,
    /// Containers that must be live with dtype `F64` at runtime for f64
    /// execution to be semantically equal to the generic one; a fused
    /// kernel whose guard fails runs the map per element instead.
    guards: Vec<DataId>,
}

/// Static class of a value in the f64 specialization's inference: float-typed
/// (`F64`), integer-typed (`I64`/`I32` — storable as `f64` because
/// eligibility forbids integer *operations*), or boolean.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FCls {
    Float,
    Int,
    Bool,
}

#[derive(Clone, Debug)]
enum InputPlan {
    Fail(ExecError),
    Read {
        slot: usize,
        conn: String,
        plan: MemPlan,
    },
}

#[derive(Clone, Debug)]
enum GatherSpec {
    Push { slot: usize, reg: u32 },
    Fail(ExecError),
}

#[derive(Clone, Debug)]
enum OutWrite {
    Fail(ExecError),
    Write { slot: usize, plan: MemPlan },
}

/// Compiled map scope.
#[derive(Clone, Debug)]
struct MapPlan {
    cover_loc: u64,
    /// Human-readable scope label (`map[i,j]`) for fusion introspection.
    label: String,
    params: Vec<SymId>,
    ranges: Vec<RangePlan>,
    body: BlockPlan,
    /// Whole-scope fused loop kernel, when the body is a straight-line
    /// chain of f64-specialized tasklets with affine memlets (see
    /// [`fuse_map`]). The generic plan above stays the complete fallback:
    /// the kernel only runs when a runtime precheck proves it cannot
    /// diverge from per-element execution.
    fused: Option<Box<FusedKernel>>,
    /// Why the scope did not fuse (compile-time eligibility), for
    /// [`Program::tasklet_stats`] introspection.
    fuse_reason: Option<FuseReject>,
}

/// A variable occurring in a fused access's affine subscript.
#[derive(Clone, Copy, Debug, PartialEq)]
enum FusedVar {
    /// Plain constant term.
    None,
    /// Map parameter of dimension `d` — its value range over the
    /// iteration box is known once the ranges are evaluated.
    Param(usize),
    /// Outer symbol — a single runtime value.
    Outer(SymId),
}

/// One atom of a fused affine subscript, mirroring [`AffTerm`] (same
/// left-to-right checked evaluation the interval analysis must prove
/// error-free).
#[derive(Clone, Debug, PartialEq)]
struct FusedTerm {
    sub: bool,
    coeff: i64,
    var: FusedVar,
}

/// An affine index expression of a fused access, with symbols classified
/// against the map's parameters.
#[derive(Clone, Debug, PartialEq)]
struct FusedIdx {
    terms: Vec<FusedTerm>,
}

/// The ranged half of a fused subscript dimension: the end and step
/// expressions of a `start:end:step` subset dimension. The precheck
/// proves the resulting length is uniform over the iteration box (the
/// end's per-parameter coefficients equal the start's) and the step is a
/// positive, parameter-independent value.
#[derive(Clone, Debug, PartialEq)]
struct FusedSpan {
    end: FusedIdx,
    step: FusedIdx,
}

/// One dimension of a fused subscript: a point index (`span: None`,
/// single-index memlets) or a range (`span: Some`, lane memlets).
#[derive(Clone, Debug, PartialEq)]
struct FusedDim {
    start: FusedIdx,
    span: Option<FusedSpan>,
}

/// One memlet access of a fused kernel: container plus one affine
/// dimension per array dimension, and the end-expressions that must be
/// proven error-free (the `Eval` variants of [`EndCheck`]).
#[derive(Clone, Debug)]
pub(crate) struct FusedAccess {
    data: DataId,
    dims: Vec<FusedDim>,
    /// End expressions evaluated for errors only in the generic engine;
    /// the precheck proves they cannot error anywhere in the box.
    checks: Vec<FusedIdx>,
    /// Output WCR (always `None` for inputs).
    pub(crate) wcr: Option<Wcr>,
}

impl FusedAccess {
    /// Every dimension addresses a single point (no lane range). In a
    /// `lanes > 1` kernel such a read has volume 1 at every runtime
    /// shape — the packed JIT broadcasts its value across the lanes.
    pub(crate) fn is_pointwise(&self) -> bool {
        self.dims.iter().all(|d| d.span.is_none())
    }
}

/// Structural subset equality of two fused accesses — same container and
/// textually identical dimension/check expressions, so both denote the
/// same element set at every point of the iteration box. The test that
/// lets a pipeline read of an intermediate ride the writer's registers.
fn same_subset(a: &FusedAccess, b: &FusedAccess) -> bool {
    a.data.idx() == b.data.idx() && a.dims == b.dims && a.checks == b.checks
}

/// A whole map scope collapsed into a strength-reduced loop kernel.
///
/// At runtime the kernel first *prepares*: it evaluates the map ranges,
/// resolves every symbol the body reads, and runs an exact interval
/// analysis of every affine subscript over the concrete iteration box.
/// Only when that analysis proves that no out-of-bounds access, no i64
/// overflow, no unbound symbol and no step-budget trip can occur anywhere
/// in the box does the kernel run — hoisted base offsets, per-dimension
/// linear strides, native code or lane-chunked inner loops. Any doubt
/// falls back to the generic per-element path, which reproduces errors
/// (and their exact ordering, partial writes and step counts) by
/// construction.
#[derive(Clone, Debug)]
pub(crate) struct FusedKernel {
    /// One coverage location per body tasklet (in execution order), each
    /// recorded once per element exactly as the generic engine records it.
    /// With a single location the records batch per run; with several, a
    /// run under a coverage map must interleave them per element and
    /// executes the map per element instead.
    cover_locs: Vec<u64>,
    /// The body tasklets' common lane width. When `> 1`, the kernel
    /// appends a synthetic innermost `0..lanes` dimension to the
    /// iteration box so the existing odometer/stride machinery iterates
    /// lanes without any new code paths.
    pub(crate) lanes: usize,
    /// Whether the body contains select control flow. Only native code
    /// runs such a body (the chunk loop is straight-line), and only when
    /// the run records no per-branch coverage; otherwise the map runs per
    /// element. The JIT lowerer reads this to pick packed vs
    /// unrolled-scalar lane emission.
    pub(crate) has_select: bool,
    /// External reads, in tasklet-then-memlet order.
    pub(crate) inputs: Vec<FusedAccess>,
    /// Destination register per input, aligned with `inputs`; `None` when
    /// a later input overwrites the same connector slot (the read still
    /// happens for bounds/step parity, the value is dead).
    pub(crate) in_regs: Vec<Option<u32>>,
    /// Per input: the output that updates the same container in place
    /// (see [`fuse_map`]), whose buffer the read goes through — each
    /// element reads its own location before writing it, and no other
    /// element touches that location.
    pub(crate) in_place: Vec<Option<usize>>,
    /// Pipeline-internal reads: for each, the index of the fused output
    /// whose write it aliases (proven byte-identical subset). The value
    /// flows through registers; only the read's step accounting remains.
    chained: Vec<usize>,
    pub(crate) outputs: Vec<FusedAccess>,
    /// `(source register, gathered from the bool file)` per output.
    pub(crate) out_regs: Vec<(u32, bool)>,
    /// The body tasklets' [`FInsn`] code, concatenated in execution order
    /// (see [`fuse_map`]): each tasklet's registers in a disjoint window,
    /// jump targets rebased, map-parameter loads turned into
    /// `LoadParamF`.
    pub(crate) code: Vec<FInsn>,
    pub(crate) n_regs: usize,
    /// Containers that must be live with dtype `F64` (same contract as
    /// [`FastTasklet::guards`]).
    guards: Vec<DataId>,
    /// This kernel's native code, emitted by its first native-eligible
    /// run (`None` when the OS refused executable pages). Clones of an
    /// emitted kernel share the mapping, which is unmapped when the last
    /// of them drops.
    native_code: OnceLock<Option<Arc<crate::jit::JitCode>>>,
    /// Static native-lowering eligibility: the frame layout when every
    /// instruction can be emitted bit-exactly, else the rejection reason
    /// (see [`JitReject`]). Filled in by [`fuse_map`]'s caller.
    pub(crate) jit: Result<crate::jit::lower::JitLayout, JitReject>,
}

/// Fixed lane width of the fused inner loops: wide enough for the
/// compiler to autovectorize the per-op lane loops, small enough that the
/// scalar tail stays cheap on short rows.
const LANES: usize = 8;

/// Outcome of the fused-kernel runtime precheck.
enum FusedReady {
    /// Safe to run; carries the map element count (lanes excluded, for
    /// per-element coverage) and the exact interpreter-step total the
    /// generic path would account.
    Run { elems: u64, ticks: u64 },
    /// The iteration box is empty: the map is a no-op in both engines.
    ZeroTrip,
    /// Not provably safe — take the generic per-element path.
    Fallback,
}

/// One step of a compiled dataflow block, in topological order.
#[derive(Clone, Debug)]
enum Step {
    Access(DataId),
    Tasklet(TaskletPlan),
    Map(MapPlan),
    Library(LibraryPlan),
}

/// A compiled dataflow graph (state body or map body).
#[derive(Clone, Debug, Default)]
struct BlockPlan {
    /// Structural defect discovered at compile time but — for parity with
    /// the tree-walk engine — raised only when the block actually executes.
    error: Option<ExecError>,
    steps: Vec<Step>,
}

/// Compiled declared container.
#[derive(Clone, Debug)]
struct ArrayPlan {
    data: DataId,
    dtype: DType,
    storage: Storage,
    shape: Vec<IdxCode>,
}

/// Compiled state of the state machine.
#[derive(Clone, Debug)]
struct StatePlan {
    /// `location_id([0x57A7E, state_id])`: both the coverage location and
    /// the parent site of the state's dataflow nodes.
    site: u64,
    body: BlockPlan,
    edges: Vec<EdgePlan>,
}

#[derive(Clone, Debug)]
struct EdgePlan {
    cond: CondPlan,
    assigns: Vec<(SymId, SymCode)>,
    cover_loc: u64,
    dst: usize,
}

/// A compiled, immutable, shareable (`Sync`) program. Compile once with
/// [`Program::compile`], then execute many times — either through the
/// convenience [`Program::run`]/[`Program::run_with`] (which keep the
/// [`ExecState`] in/out contract of the tree-walk interpreter) or through
/// a reusable [`Executor`] for zero-allocation trial loops.
#[derive(Clone, Debug)]
pub struct Program {
    name: String,
    /// Process-unique identity of this compilation (clones share it), the
    /// key of identity-keyed caches of per-program execution state.
    id: u64,
    data: Interner,
    syms: Interner,
    arrays: Vec<ArrayPlan>,
    states: Vec<StatePlan>,
    start: usize,
}

/// Knobs of [`Program::compile_with_options`].
#[derive(Clone, Copy, Debug)]
pub struct CompileOptions {
    /// Lower eligible tasklets to the dtype-monomorphic f64 kernel IR (on
    /// by default) — the compile step map fusion consumes, so turning it
    /// off also turns fusion off. The generic bytecode is always compiled
    /// too; it runs every tasklet executed per element and every map whose
    /// fused kernel cannot run.
    pub specialize_f64: bool,
    /// Collapse eligible map scopes into fused loop kernels (on by
    /// default; implies nothing unless `specialize_f64` also holds, since
    /// fusion requires the f64-specialized tasklet body). Disabling this
    /// runs every map per element on the generic bytecode, the baseline
    /// the `fused_kernels` bench compares against.
    pub fuse_maps: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            specialize_f64: true,
            fuse_maps: true,
        }
    }
}

/// Per-tasklet / per-map-scope compilation statistics, for benches and
/// for workload authors asking why a cutout did not fuse.
#[derive(Clone, Debug)]
pub struct TaskletStats {
    /// Total tasklets across all blocks.
    pub tasklets: usize,
    /// Tasklets lowered to the monomorphic f64 kernel IR.
    pub specialized: usize,
    /// Map scopes collapsed into fused loop kernels.
    pub fused_maps: usize,
    /// Fused kernels additionally eligible for the native JIT tier.
    pub jit_maps: usize,
    /// One entry per map scope, in block order.
    pub maps: Vec<MapFusionInfo>,
}

/// Fusion eligibility of one map scope.
#[derive(Clone, Debug)]
pub struct MapFusionInfo {
    /// Scope label, e.g. `map[i,j]`.
    pub label: String,
    /// Whether the scope compiled to a fused kernel.
    pub fused: bool,
    /// Compile-time ineligibility reason when it did not (the stable
    /// message of a [`FuseReject`]).
    pub reason: Option<&'static str>,
    /// Whether the fused kernel is statically eligible for the native
    /// JIT tier.
    pub jit: bool,
    /// Static JIT-ineligibility reason when it is not (the stable
    /// message of a [`JitReject`]; unfused maps report
    /// [`JitReject::NotFused`]).
    pub jit_reason: Option<&'static str>,
}

/// Why a map scope did not compile to a fused kernel. Static data — no
/// per-compile allocation — with a stable human-readable message, so
/// campaign reports can aggregate eligibility counts per reason.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FuseReject {
    /// `CompileOptions::fuse_maps` was off.
    Disabled,
    /// The body has a structural error (raised at runtime instead).
    BodyError,
    /// The map has no parameters.
    NoParams,
    /// A range bound mentions one of the map's own parameters.
    ParamRange,
    /// A nested map inside the body.
    NestedMap,
    /// A library node inside the body.
    Library,
    /// No tasklet in the body.
    NoTasklet,
    /// A body tasklet has no f64 specialization (or a structurally
    /// failing memlet).
    NotSpecialized,
    /// Body tasklets disagree on their lane width.
    MixedLanes,
    /// A multi-tasklet pipeline with `lanes > 1` (per-lane register
    /// forwarding interleaved with per-element coverage is not modeled).
    LanePipeline,
    /// A `lanes > 1` tasklet writes through a single-index memlet (its
    /// volume can never match the lane count; the generic path raises
    /// the mismatch).
    LaneVolume,
    /// A memlet subscript is not affine.
    NonAffine,
    /// A pipeline re-reads an intermediate through a different subset
    /// than the one its writer used.
    ChainMismatch,
    /// A pipeline intermediate is written with a WCR combiner (readers
    /// would observe the accumulation, not the register value).
    ChainWcr,
    /// An output connector's value is never gathered.
    NeverGathered,
    /// Two gathers feed one output connector.
    DupConnector,
    /// A container is both read externally and written in the scope,
    /// other than as a pointwise in-place update `X[p] = f(X[p], …)` (no
    /// WCR, every read of `X` through the write's pointwise subset, and
    /// each map parameter driving its own subscript dimension).
    Overlap,
    /// Two outputs target one container.
    DupWrites,
    /// An access node in the body belongs to no body memlet.
    Dangling,
}

impl FuseReject {
    /// Stable human-readable message (also the aggregation key in
    /// campaign reports).
    pub fn message(self) -> &'static str {
        match self {
            FuseReject::Disabled => "map fusion disabled",
            FuseReject::BodyError => "map body has a structural error",
            FuseReject::NoParams => "map has no parameters",
            FuseReject::ParamRange => "map range depends on a map parameter",
            FuseReject::NestedMap => "nested map in body",
            FuseReject::Library => "library node in body",
            FuseReject::NoTasklet => "no tasklet in map body",
            FuseReject::NotSpecialized => "tasklet is not f64-specialized",
            FuseReject::MixedLanes => "pipeline tasklets have mixed lane widths",
            FuseReject::LanePipeline => "vectorized multi-tasklet pipeline",
            FuseReject::LaneVolume => "vectorized tasklet writes a single-index memlet",
            FuseReject::NonAffine => "non-affine memlet subscript",
            FuseReject::ChainMismatch => "pipeline re-reads an intermediate via a different subset",
            FuseReject::ChainWcr => "pipeline intermediate is written with WCR",
            FuseReject::NeverGathered => "output slot never gathered",
            FuseReject::DupConnector => "duplicate output connector",
            FuseReject::Overlap => "read/write overlap on one container",
            FuseReject::DupWrites => "two outputs target one container",
            FuseReject::Dangling => "dangling access node in map body",
        }
    }
}

impl std::fmt::Display for FuseReject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.message())
    }
}

impl Program {
    /// Lowers an SDFG into a compiled program. Compilation never fails:
    /// structural defects (cyclic dataflow, missing connectors, never-
    /// assigned outputs) are lowered into steps that raise the exact
    /// runtime error the tree-walk interpreter would raise, at the same
    /// execution point — a block that never runs never errors.
    pub fn compile(sdfg: &Sdfg) -> Program {
        Self::compile_with_options(sdfg, &CompileOptions::default())
    }

    /// [`Program::compile`] with explicit [`CompileOptions`].
    pub fn compile_with_options(sdfg: &Sdfg, opts: &CompileOptions) -> Program {
        let mut c = Compiler {
            sdfg,
            data: Interner::default(),
            syms: Interner::default(),
            specialize: opts.specialize_f64,
            fuse: opts.fuse_maps,
        };
        // The collective runtime reads `rank` even when unbound.
        c.syms.intern("rank");

        let arrays: Vec<ArrayPlan> = sdfg
            .arrays
            .iter()
            .map(|(name, desc)| ArrayPlan {
                data: DataId(c.data.intern(name)),
                dtype: desc.dtype,
                storage: desc.storage,
                shape: desc.shape.iter().map(|e| c.idx(e)).collect(),
            })
            .collect();

        let ids: Vec<fuzzyflow_ir::StateId> = sdfg.states.node_ids().collect();
        let dense_of = |id: fuzzyflow_ir::StateId| -> usize {
            ids.iter().position(|&x| x == id).expect("state id known")
        };
        let states: Vec<StatePlan> = ids
            .iter()
            .map(|&id| {
                let site = location_id(&[0x57A7E, id.0 as u64]);
                let body = c.block(&sdfg.state(id).df, site);
                let edges = sdfg
                    .states
                    .out_edge_ids(id)
                    .iter()
                    .map(|&e| {
                        let edge = sdfg.states.edge(e);
                        EdgePlan {
                            cond: c.cond(&edge.condition),
                            assigns: edge
                                .assignments
                                .iter()
                                .map(|(s, v)| {
                                    let code = c.code(v);
                                    (SymId(c.syms.intern(s)), code)
                                })
                                .collect(),
                            cover_loc: location_id(&[0xED6E, e.0 as u64]),
                            dst: dense_of(sdfg.states.dst(e)),
                        }
                    })
                    .collect();
                StatePlan { site, body, edges }
            })
            .collect();

        static NEXT_PROGRAM_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        Program {
            name: sdfg.name.clone(),
            id: NEXT_PROGRAM_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            data: c.data,
            syms: c.syms,
            arrays,
            states,
            start: dense_of(sdfg.start),
        }
    }

    /// Program name (copied from the source SDFG).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Process-unique compilation identity (clones share it). Stable key
    /// for caches of per-program execution state, e.g. the distributed
    /// runtime's per-worker executor cache.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Compilation statistics: tasklet specialization counts plus, per
    /// map scope, whether it fused into a loop kernel and why not
    /// otherwise.
    pub fn tasklet_stats(&self) -> TaskletStats {
        fn walk(b: &BlockPlan, s: &mut TaskletStats) {
            for step in &b.steps {
                match step {
                    Step::Tasklet(tp) => {
                        s.tasklets += 1;
                        if tp.fast.is_some() {
                            s.specialized += 1;
                        }
                    }
                    Step::Map(mp) => {
                        if mp.fused.is_some() {
                            s.fused_maps += 1;
                        }
                        let jit_reason = match &mp.fused {
                            None => Some(JitReject::NotFused.message()),
                            Some(fk) => fk.jit.as_ref().err().map(|r| r.message()),
                        };
                        if jit_reason.is_none() {
                            s.jit_maps += 1;
                        }
                        s.maps.push(MapFusionInfo {
                            label: mp.label.clone(),
                            fused: mp.fused.is_some(),
                            reason: mp.fuse_reason.map(FuseReject::message),
                            jit: jit_reason.is_none(),
                            jit_reason,
                        });
                        walk(&mp.body, s);
                    }
                    _ => {}
                }
            }
        }
        let mut s = TaskletStats {
            tasklets: 0,
            specialized: 0,
            fused_maps: 0,
            jit_maps: 0,
            maps: Vec::new(),
        };
        for st in &self.states {
            walk(&st.body, &mut s);
        }
        s
    }

    /// Creates a reusable executor for this program.
    pub fn executor(&self) -> Executor<'_> {
        Executor::new(self)
    }

    /// Creates an executor over a recycled [`ExecutorArena`] — warm
    /// buffers from a previous executor (of this or any other program)
    /// are reused instead of reallocated.
    pub fn executor_with(&self, arena: ExecutorArena) -> Executor<'_> {
        Executor::with_arena(self, arena)
    }

    /// Compile-once equivalent of [`crate::run`]: executes against the
    /// given state in place.
    pub fn run(&self, state: &mut ExecState) -> Result<(), ExecError> {
        self.run_with(state, &ExecOptions::default(), None, None)
    }

    /// Compile-once equivalent of [`crate::run_with`].
    pub fn run_with(
        &self,
        state: &mut ExecState,
        opts: &ExecOptions,
        comm: Option<&dyn CommHandler>,
        cov: Option<&mut CoverageMap>,
    ) -> Result<(), ExecError> {
        self.executor().run_in_place(state, opts, comm, cov)
    }

    fn sym_id(&self, name: &str) -> Option<SymId> {
        self.syms.get(name).map(SymId)
    }

    fn data_id(&self, name: &str) -> Option<DataId> {
        self.data.get(name).map(DataId)
    }
}

struct Compiler<'s> {
    sdfg: &'s Sdfg,
    data: Interner,
    syms: Interner,
    specialize: bool,
    fuse: bool,
}

impl Compiler<'_> {
    /// Compiles a symbolic expression into postfix code with interned ids.
    fn code(&mut self, e: &SymExpr) -> SymCode {
        let mut ops = Vec::new();
        self.emit(e, &mut ops);
        SymCode { ops }
    }

    fn emit(&mut self, e: &SymExpr, ops: &mut Vec<SymOp>) {
        match e {
            SymExpr::Int(v) => ops.push(SymOp::Push(*v)),
            SymExpr::Sym(s) => ops.push(SymOp::Load(SymId(self.syms.intern(s)))),
            SymExpr::Add(a, b) => {
                self.emit(a, ops);
                self.emit(b, ops);
                ops.push(SymOp::Add);
            }
            SymExpr::Sub(a, b) => {
                self.emit(a, ops);
                self.emit(b, ops);
                ops.push(SymOp::Sub);
            }
            SymExpr::Mul(a, b) => {
                self.emit(a, ops);
                self.emit(b, ops);
                ops.push(SymOp::Mul);
            }
            SymExpr::Div(a, b) => {
                self.emit(b, ops);
                ops.push(SymOp::EnsureNonZero);
                self.emit(a, ops);
                ops.push(SymOp::DivE);
            }
            SymExpr::Mod(a, b) => {
                self.emit(b, ops);
                ops.push(SymOp::EnsureNonZero);
                self.emit(a, ops);
                ops.push(SymOp::ModE);
            }
            SymExpr::Min(a, b) => {
                self.emit(a, ops);
                self.emit(b, ops);
                ops.push(SymOp::Min);
            }
            SymExpr::Max(a, b) => {
                self.emit(a, ops);
                self.emit(b, ops);
                ops.push(SymOp::Max);
            }
            SymExpr::Neg(a) => {
                self.emit(a, ops);
                ops.push(SymOp::Neg);
            }
        }
    }

    /// Classifies an index expression: constant, bare symbol, affine form,
    /// or compiled-code fallback.
    fn idx(&mut self, e: &SymExpr) -> IdxCode {
        if e.is_constant() {
            if let Ok(v) = e.eval(&fuzzyflow_sym::Bindings::new()) {
                return IdxCode::Const(v);
            }
            // Constant but erroring (overflow / division by zero): keep
            // the compiled form so the runtime error matches.
            return IdxCode::Code(self.code(e));
        }
        if let SymExpr::Sym(s) = e {
            return IdxCode::Sym(SymId(self.syms.intern(s)));
        }
        if let Some(terms) = self.affine(e) {
            return IdxCode::Affine(terms);
        }
        IdxCode::Code(self.code(e))
    }

    /// Strict structural recognizer for parity-exact affine chains:
    /// `atom_0 ± atom_1 ± … ± atom_k` (left-associated), where each atom
    /// is `Int`, `Sym` or `Int*Sym`/`Sym*Int`. No algebraic rewriting is
    /// performed — evaluating the atoms left to right replays the tree
    /// evaluator's checked-operation sequence exactly, so overflow and
    /// unbound errors cannot diverge. Anything else returns `None` and
    /// takes the compiled-code path.
    fn affine(&mut self, e: &SymExpr) -> Option<Vec<AffTerm>> {
        match e {
            SymExpr::Add(a, b) => {
                let mut terms = self.affine(a)?;
                terms.push(self.affine_atom(b, false)?);
                Some(terms)
            }
            SymExpr::Sub(a, b) => {
                let mut terms = self.affine(a)?;
                terms.push(self.affine_atom(b, true)?);
                Some(terms)
            }
            leaf => Some(vec![self.affine_atom(leaf, false)?]),
        }
    }

    fn affine_atom(&mut self, e: &SymExpr, sub: bool) -> Option<AffTerm> {
        match e {
            SymExpr::Int(c) => Some(AffTerm {
                sub,
                sym: None,
                coeff: *c,
            }),
            SymExpr::Sym(s) => Some(AffTerm {
                sub,
                sym: Some(SymId(self.syms.intern(s))),
                coeff: 1,
            }),
            SymExpr::Mul(x, y) => match (x.as_ref(), y.as_ref()) {
                (SymExpr::Int(c), SymExpr::Sym(s)) | (SymExpr::Sym(s), SymExpr::Int(c)) => {
                    Some(AffTerm {
                        sub,
                        sym: Some(SymId(self.syms.intern(s))),
                        coeff: *c,
                    })
                }
                _ => None,
            },
            _ => None,
        }
    }

    fn cond(&mut self, c: &CondExpr) -> CondPlan {
        match c {
            CondExpr::True => CondPlan::True,
            CondExpr::Cmp(op, a, b) => CondPlan::Cmp(*op, self.idx(a), self.idx(b)),
            CondExpr::Not(x) => CondPlan::Not(Box::new(self.cond(x))),
            CondExpr::And(l, r) => CondPlan::And(Box::new(self.cond(l)), Box::new(self.cond(r))),
            CondExpr::Or(l, r) => CondPlan::Or(Box::new(self.cond(l)), Box::new(self.cond(r))),
        }
    }

    fn memlet(&mut self, m: &Memlet) -> MemPlan {
        let data = DataId(self.data.intern(&m.data));
        let dims = m.subset.dims();
        let single = dims
            .iter()
            .all(|d| d.is_index() && d.step.as_int() == Some(1));
        let kind = if single {
            MemKind::Single(
                dims.iter()
                    .map(|d| {
                        let end = match &d.end {
                            SymExpr::Add(a, b) if **a == d.start && **b == SymExpr::Int(1) => {
                                EndCheck::IncOfStart
                            }
                            other => EndCheck::Eval(self.idx(other)),
                        };
                        (self.idx(&d.start), end)
                    })
                    .collect(),
            )
        } else {
            MemKind::Ranges(
                dims.iter()
                    .map(|d| RangePlan {
                        start: self.idx(&d.start),
                        end: self.idx(&d.end),
                        step: self.idx(&d.step),
                    })
                    .collect(),
            )
        };
        MemPlan {
            data,
            wcr: m.wcr,
            kind,
        }
    }

    fn block(&mut self, df: &fuzzyflow_ir::Dataflow, site: u64) -> BlockPlan {
        let order = match fuzzyflow_graph::topological_sort(&df.graph) {
            Ok(o) => o,
            Err(e) => {
                return BlockPlan {
                    error: Some(ExecError::Malformed(format!("cyclic dataflow ({e})"))),
                    steps: Vec::new(),
                }
            }
        };
        let mut steps = Vec::with_capacity(order.len());
        for n in order {
            let node_site = location_id(&[site, n.0 as u64]);
            match df.graph.node(n) {
                DfNode::Access(name) => steps.push(Step::Access(DataId(self.data.intern(name)))),
                DfNode::Tasklet(t) => steps.push(Step::Tasklet(self.tasklet(df, n, t, node_site))),
                DfNode::Map(m) => {
                    let mut plan = MapPlan {
                        cover_loc: location_id(&[node_site]),
                        label: format!("map[{}]", m.params.join(",")),
                        params: m
                            .params
                            .iter()
                            .map(|p| SymId(self.syms.intern(p)))
                            .collect(),
                        ranges: m
                            .ranges
                            .iter()
                            .map(|r| RangePlan {
                                start: self.idx(&r.start),
                                end: self.idx(&r.end),
                                step: self.idx(&r.step),
                            })
                            .collect(),
                        body: self.block(&m.body, node_site),
                        fused: None,
                        fuse_reason: None,
                    };
                    if self.fuse {
                        match fuse_map(&plan) {
                            Ok(fk) => plan.fused = Some(Box::new(fk)),
                            Err(reason) => plan.fuse_reason = Some(reason),
                        }
                    } else {
                        plan.fuse_reason = Some(FuseReject::Disabled);
                    }
                    steps.push(Step::Map(plan));
                }
                DfNode::Library(l) => steps.push(Step::Library(self.library(df, n, l, node_site))),
            }
        }
        BlockPlan { error: None, steps }
    }

    fn tasklet(
        &mut self,
        df: &fuzzyflow_ir::Dataflow,
        n: fuzzyflow_graph::NodeId,
        t: &Tasklet,
        node_site: u64,
    ) -> TaskletPlan {
        let lanes = t.lanes.max(1) as usize;

        // Input connector slots, in first-occurrence order; duplicate
        // connectors share a slot (the later read overwrites, as the
        // tree-walk engine's BTreeMap insert does).
        let mut conn_slots: Vec<String> = Vec::new();
        let mut inputs = Vec::new();
        for (_, m) in df.in_memlets(n) {
            match &m.dst_conn {
                None => inputs.push(InputPlan::Fail(ExecError::Malformed(format!(
                    "input memlet of tasklet '{}' has no connector",
                    t.name
                )))),
                Some(conn) => {
                    let slot = match conn_slots.iter().position(|c| c == conn) {
                        Some(i) => i,
                        None => {
                            conn_slots.push(conn.clone());
                            conn_slots.len() - 1
                        }
                    };
                    inputs.push(InputPlan::Read {
                        slot,
                        conn: conn.clone(),
                        plan: self.memlet(m),
                    });
                }
            }
        }

        // Named registers: one per connector slot, one per distinct
        // statement destination not already a connector.
        let mut reg_of: BTreeMap<String, u32> = BTreeMap::new();
        for (i, conn) in conn_slots.iter().enumerate() {
            reg_of.insert(conn.clone(), i as u32);
        }
        let mut next_reg = conn_slots.len() as u32;
        for stmt in &t.code {
            reg_of.entry(stmt.dst.clone()).or_insert_with(|| {
                let r = next_reg;
                next_reg += 1;
                r
            });
        }
        let named_count = next_reg;

        // Statements: the defined-name set grows statically exactly as the
        // tree-walk scope does per lane, so register reads can never see a
        // previous lane's value.
        let mut defined: Vec<&str> = conn_slots.iter().map(|s| s.as_str()).collect();
        let mut code = Vec::new();
        let mut max_depth = 0usize;
        for (si, stmt) in t.code.iter().enumerate() {
            code.push(Insn::Stmt {
                site: location_id(&[node_site, si as u64]),
            });
            let depth = self.expr(&stmt.value, &mut code, named_count, 0, &defined, &reg_of);
            max_depth = max_depth.max(depth);
            code.push(Insn::Mov {
                dst: reg_of[&stmt.dst],
                src: named_count,
            });
            if !defined.contains(&stmt.dst.as_str()) {
                defined.push(&stmt.dst);
            }
        }

        // Output gather specs, one per declared output in order; a missing
        // assignment errors after the first lane's statements run, exactly
        // where the tree-walk engine raises it.
        let mut out_names: Vec<&str> = Vec::new();
        let gather: Vec<GatherSpec> = t
            .outputs
            .iter()
            .map(|out| {
                if defined.contains(&out.as_str()) {
                    let slot = match out_names.iter().position(|o| o == out) {
                        Some(i) => i,
                        None => {
                            out_names.push(out);
                            out_names.len() - 1
                        }
                    };
                    GatherSpec::Push {
                        slot,
                        reg: reg_of[out.as_str()],
                    }
                } else {
                    GatherSpec::Fail(ExecError::Malformed(format!(
                        "tasklet '{}' never assigns output connector '{out}'",
                        t.name
                    )))
                }
            })
            .collect();

        let out_writes: Vec<OutWrite> = df
            .out_memlets(n)
            .iter()
            .map(|(_, m)| match &m.src_conn {
                None => OutWrite::Fail(ExecError::Malformed(format!(
                    "output memlet of tasklet '{}' has no connector",
                    t.name
                ))),
                Some(conn) => match out_names.iter().position(|o| o == conn) {
                    Some(slot) => OutWrite::Write {
                        slot,
                        plan: self.memlet(m),
                    },
                    None => OutWrite::Fail(ExecError::UndefinedRef {
                        tasklet: t.name.clone(),
                        name: conn.clone(),
                    }),
                },
            })
            .collect();

        let mut plan = TaskletPlan {
            name: t.name.clone(),
            cover_loc: location_id(&[node_site]),
            lanes,
            n_conn_slots: conn_slots.len(),
            inputs,
            code,
            n_regs: (named_count as usize) + max_depth + 1,
            gather,
            n_out_slots: out_names.len(),
            out_writes,
            fast: None,
        };
        if self.specialize {
            plan.fast = self
                .specialize_f64(t, &plan, &conn_slots, &reg_of)
                .map(Box::new);
        }
        plan
    }

    /// Attempts the dtype-monomorphic f64 specialization of a tasklet.
    ///
    /// Eligibility is decided by static class inference over the tasklet
    /// body: every memlet must target a container declared `F64`, every
    /// plan must be error-free at compile time, and every operation must
    /// be one whose generic evaluation provably takes the float (or
    /// boolean) path — at least one float operand for arithmetic and
    /// comparisons, boolean operands (or float→bool coercion) for logic.
    /// Integer-typed values (symbols, integer literals) may flow through
    /// as `f64` because under these rules their one and only `as f64`
    /// conversion happens at the same abstract moment in both engines; an
    /// integer-*operated* expression (`i + 1` over two ints, which wraps)
    /// makes the tasklet ineligible and keeps it on the generic bytecode.
    ///
    /// The code uses the generic bytecode's named registers (`reg_of`:
    /// connector slots first, then statement destinations in first-use
    /// order), so the plan's connector and gather registers address it.
    fn specialize_f64(
        &mut self,
        t: &Tasklet,
        plan: &TaskletPlan,
        conn_slots: &[String],
        reg_of: &BTreeMap<String, u32>,
    ) -> Option<FastTasklet> {
        // Memlet eligibility: every input/output plan compiled cleanly
        // and targets a declared-F64 container.
        let mut accessed: Vec<DataId> = Vec::new();
        for ip in &plan.inputs {
            let InputPlan::Read { plan, .. } = ip else {
                return None;
            };
            accessed.push(plan.data);
        }
        for ow in &plan.out_writes {
            let OutWrite::Write { plan, .. } = ow else {
                return None;
            };
            accessed.push(plan.data);
        }
        let mut guards: Vec<DataId> = Vec::new();
        for data in accessed {
            let desc = self.sdfg.array(&self.data.names[data.idx()])?;
            if desc.dtype != DType::F64 {
                return None;
            }
            if !guards.contains(&data) {
                guards.push(data);
            }
        }

        // Each named register gets an inferred class.
        let mut cls_of: BTreeMap<String, FCls> = conn_slots
            .iter()
            .map(|conn| (conn.clone(), FCls::Float))
            .collect();
        let named_count = reg_of.len() as u32;

        let mut defined: Vec<String> = conn_slots.to_vec();
        let mut code = Vec::new();
        let mut max_depth = 0usize;
        for stmt in &t.code {
            let (depth, cls) = self.femit(
                &stmt.value,
                &mut code,
                named_count,
                0,
                &defined,
                &cls_of,
                reg_of,
            )?;
            max_depth = max_depth.max(depth);
            let dst = reg_of[&stmt.dst];
            code.push(match cls {
                FCls::Bool => FInsn::MovB {
                    dst,
                    src: named_count,
                },
                _ => FInsn::MovF {
                    dst,
                    src: named_count,
                },
            });
            match cls_of.get(&stmt.dst) {
                None => {
                    cls_of.insert(stmt.dst.clone(), cls);
                }
                // A register re-assigned with a different class would need
                // the two register files to alias; keep it generic.
                Some(&prev) if prev != cls => return None,
                Some(_) => {}
            }
            if !defined.contains(&stmt.dst) {
                defined.push(stmt.dst.clone());
            }
        }

        // Gathers are the plan's; bool-classed outputs convert at the
        // gather, exactly where the generic engine's `Scalar::as_f64`
        // conversion happens (array store).
        let mut gather_bool = Vec::with_capacity(plan.gather.len());
        for (g, out) in plan.gather.iter().zip(&t.outputs) {
            if matches!(g, GatherSpec::Fail(_)) {
                return None;
            }
            gather_bool.push(cls_of.get(out.as_str()) == Some(&FCls::Bool));
        }

        Some(FastTasklet {
            code,
            n_regs: (named_count as usize) + max_depth + 1,
            gather_bool,
            guards,
        })
    }

    /// Emits f64 kernel instructions for a scalar expression; the result
    /// lands in register `base + depth` of the file selected by the
    /// returned class. Returns `(max scratch depth, class)` or `None`
    /// when the expression is ineligible.
    #[allow(clippy::too_many_arguments)]
    fn femit(
        &mut self,
        e: &fuzzyflow_ir::ScalarExpr,
        code: &mut Vec<FInsn>,
        base: u32,
        depth: u32,
        defined: &[String],
        cls_of: &BTreeMap<String, FCls>,
        reg_of: &BTreeMap<String, u32>,
    ) -> Option<(usize, FCls)> {
        use fuzzyflow_ir::ScalarExpr as E;
        let dst = base + depth;
        // Coerce the value in slot `reg` to the bool file, matching
        // `Scalar::as_bool` (see [`FInsn::BoolFromF`]).
        fn ensure_bool(code: &mut Vec<FInsn>, reg: u32, cls: FCls) {
            if cls != FCls::Bool {
                code.push(FInsn::BoolFromF { reg });
            }
        }
        match e {
            E::Const(c) => {
                let cls = match c {
                    Scalar::F64(v) => {
                        code.push(FInsn::ConstF { dst, val: *v });
                        FCls::Float
                    }
                    Scalar::I64(v) => {
                        code.push(FInsn::ConstF {
                            dst,
                            val: *v as f64,
                        });
                        FCls::Int
                    }
                    Scalar::I32(v) => {
                        code.push(FInsn::ConstF {
                            dst,
                            val: *v as f64,
                        });
                        FCls::Int
                    }
                    Scalar::Bool(v) => {
                        code.push(FInsn::ConstB { dst, val: *v });
                        FCls::Bool
                    }
                    // F32 would need dtype-preserving round trips.
                    Scalar::F32(_) => return None,
                };
                Some((depth as usize, cls))
            }
            E::Ref(name) => {
                if defined.iter().any(|d| d == name) {
                    let cls = cls_of[name.as_str()];
                    let src = reg_of[name.as_str()];
                    code.push(match cls {
                        FCls::Bool => FInsn::MovB { dst, src },
                        _ => FInsn::MovF { dst, src },
                    });
                    Some((depth as usize, cls))
                } else {
                    code.push(FInsn::LoadSymF {
                        dst,
                        sym: SymId(self.syms.intern(name)),
                    });
                    Some((depth as usize, FCls::Int))
                }
            }
            E::Bin(op, a, b) => {
                let (da, ca) = self.femit(a, code, base, depth, defined, cls_of, reg_of)?;
                let (db, cb) = self.femit(b, code, base, depth + 1, defined, cls_of, reg_of)?;
                let cls = match op {
                    BinOp::And | BinOp::Or => {
                        ensure_bool(code, dst, ca);
                        ensure_bool(code, dst + 1, cb);
                        code.push(match op {
                            BinOp::And => FInsn::AndB {
                                dst,
                                a: dst,
                                b: dst + 1,
                            },
                            _ => FInsn::OrB {
                                dst,
                                a: dst,
                                b: dst + 1,
                            },
                        });
                        FCls::Bool
                    }
                    // `Pow` always takes the float path; the others do so
                    // only with at least one float operand (two ints would
                    // be wrapping integer arithmetic — ineligible).
                    _ => {
                        if ca == FCls::Bool || cb == FCls::Bool {
                            return None;
                        }
                        if *op != BinOp::Pow && ca != FCls::Float && cb != FCls::Float {
                            return None;
                        }
                        code.push(FInsn::BinF {
                            op: *op,
                            dst,
                            a: dst,
                            b: dst + 1,
                        });
                        FCls::Float
                    }
                };
                Some((da.max(db), cls))
            }
            E::Cmp(op, a, b) => {
                let (da, ca) = self.femit(a, code, base, depth, defined, cls_of, reg_of)?;
                let (db, cb) = self.femit(b, code, base, depth + 1, defined, cls_of, reg_of)?;
                // Two integer operands would compare as `i64` in the
                // generic engine; the float compare is lossy past 2^53.
                if ca == FCls::Bool || cb == FCls::Bool {
                    return None;
                }
                if ca != FCls::Float && cb != FCls::Float {
                    return None;
                }
                code.push(FInsn::CmpF {
                    op: *op,
                    dst,
                    a: dst,
                    b: dst + 1,
                });
                Some((da.max(db), FCls::Bool))
            }
            E::Un(op, a) => {
                let (da, ca) = self.femit(a, code, base, depth, defined, cls_of, reg_of)?;
                match op {
                    UnOp::Not => {
                        ensure_bool(code, dst, ca);
                        code.push(FInsn::NotB { dst, a: dst });
                        Some((da, FCls::Bool))
                    }
                    UnOp::Neg | UnOp::Abs => {
                        // Integer neg/abs wrap in the generic engine.
                        if ca != FCls::Float {
                            return None;
                        }
                        code.push(FInsn::UnF {
                            op: *op,
                            dst,
                            a: dst,
                        });
                        Some((da, FCls::Float))
                    }
                    _ => {
                        // Math intrinsics always take the float path.
                        if ca == FCls::Bool {
                            return None;
                        }
                        code.push(FInsn::UnF {
                            op: *op,
                            dst,
                            a: dst,
                        });
                        Some((da, FCls::Float))
                    }
                }
            }
            E::Select(c, a, b) => {
                let (dc, cc) = self.femit(c, code, base, depth, defined, cls_of, reg_of)?;
                ensure_bool(code, dst, cc);
                let jump_else = code.len();
                code.push(FInsn::JumpIfFalse {
                    cond: dst,
                    target: 0,
                });
                let (da, ca) = self.femit(a, code, base, depth, defined, cls_of, reg_of)?;
                let jump_end = code.len();
                code.push(FInsn::Jump { target: 0 });
                let else_at = code.len() as u32;
                let (db, cb) = self.femit(b, code, base, depth, defined, cls_of, reg_of)?;
                let end_at = code.len() as u32;
                if ca != cb {
                    return None;
                }
                if let FInsn::JumpIfFalse { target, .. } = &mut code[jump_else] {
                    *target = else_at;
                }
                if let FInsn::Jump { target } = &mut code[jump_end] {
                    *target = end_at;
                }
                Some((dc.max(da).max(db), ca))
            }
        }
    }

    /// Compiles a scalar expression; the result lands in scratch register
    /// `scratch_base + depth`. Returns the maximum scratch depth used.
    fn expr(
        &mut self,
        e: &fuzzyflow_ir::ScalarExpr,
        code: &mut Vec<Insn>,
        scratch_base: u32,
        depth: u32,
        defined: &[&str],
        reg_of: &BTreeMap<String, u32>,
    ) -> usize {
        use fuzzyflow_ir::ScalarExpr as E;
        let dst = scratch_base + depth;
        match e {
            E::Const(c) => {
                code.push(Insn::Const { dst, val: *c });
                depth as usize
            }
            E::Ref(name) => {
                if defined.contains(&name.as_str()) {
                    code.push(Insn::Mov {
                        dst,
                        src: reg_of[name.as_str()],
                    });
                } else {
                    code.push(Insn::LoadSym {
                        dst,
                        sym: SymId(self.syms.intern(name)),
                    });
                }
                depth as usize
            }
            E::Bin(op, a, b) => {
                let da = self.expr(a, code, scratch_base, depth, defined, reg_of);
                let db = self.expr(b, code, scratch_base, depth + 1, defined, reg_of);
                code.push(Insn::Bin {
                    op: *op,
                    dst,
                    a: dst,
                    b: dst + 1,
                });
                da.max(db)
            }
            E::Cmp(op, a, b) => {
                let da = self.expr(a, code, scratch_base, depth, defined, reg_of);
                let db = self.expr(b, code, scratch_base, depth + 1, defined, reg_of);
                code.push(Insn::Cmp {
                    op: *op,
                    dst,
                    a: dst,
                    b: dst + 1,
                });
                da.max(db)
            }
            E::Un(op, a) => {
                let da = self.expr(a, code, scratch_base, depth, defined, reg_of);
                code.push(Insn::Un {
                    op: *op,
                    dst,
                    a: dst,
                });
                da
            }
            E::Select(c, a, b) => {
                let dc = self.expr(c, code, scratch_base, depth, defined, reg_of);
                code.push(Insn::CoverSel { cond: dst });
                let jump_else = code.len();
                code.push(Insn::JumpIfFalse {
                    cond: dst,
                    target: 0,
                });
                let da = self.expr(a, code, scratch_base, depth, defined, reg_of);
                let jump_end = code.len();
                code.push(Insn::Jump { target: 0 });
                let else_at = code.len() as u32;
                let db = self.expr(b, code, scratch_base, depth, defined, reg_of);
                let end_at = code.len() as u32;
                if let Insn::JumpIfFalse { target, .. } = &mut code[jump_else] {
                    *target = else_at;
                }
                if let Insn::Jump { target } = &mut code[jump_end] {
                    *target = end_at;
                }
                dc.max(da).max(db)
            }
        }
    }
}

/// True when an index expression mentions any of the given symbols.
fn idx_mentions(ic: &IdxCode, syms: &[SymId]) -> bool {
    let hit = |id: SymId| syms.iter().any(|s| s.0 == id.0);
    match ic {
        IdxCode::Const(_) => false,
        IdxCode::Sym(id) => hit(*id),
        IdxCode::Affine(terms) => terms.iter().any(|t| t.sym.is_some_and(hit)),
        IdxCode::Code(code) => code.ops.iter().any(|op| match op {
            SymOp::Load(id) => hit(*id),
            _ => false,
        }),
    }
}

/// Lowers an affine-classed index code into fused terms, classifying each
/// symbol as a map parameter or an outer symbol. `Err` carries the
/// ineligibility reason.
fn fused_idx(ic: &IdxCode, params: &[SymId]) -> Result<FusedIdx, FuseReject> {
    let var_of = |id: SymId| -> FusedVar {
        match params.iter().position(|p| p.0 == id.0) {
            Some(d) => FusedVar::Param(d),
            None => FusedVar::Outer(id),
        }
    };
    let terms = match ic {
        IdxCode::Const(c) => vec![FusedTerm {
            sub: false,
            coeff: *c,
            var: FusedVar::None,
        }],
        IdxCode::Sym(id) => vec![FusedTerm {
            sub: false,
            coeff: 1,
            var: var_of(*id),
        }],
        IdxCode::Affine(terms) => terms
            .iter()
            .map(|t| FusedTerm {
                sub: t.sub,
                coeff: t.coeff,
                var: match t.sym {
                    None => FusedVar::None,
                    Some(id) => var_of(id),
                },
            })
            .collect(),
        IdxCode::Code(_) => return Err(FuseReject::NonAffine),
    };
    Ok(FusedIdx { terms })
}

/// Lowers a memlet plan into a fused access: single-index dimensions
/// become point [`FusedDim`]s, ranged dimensions carry their end/step as
/// a [`FusedSpan`] for the precheck's uniform-length analysis.
fn fused_access(plan: &MemPlan, params: &[SymId], output: bool) -> Result<FusedAccess, FuseReject> {
    let mut dims = Vec::new();
    let mut checks = Vec::new();
    match &plan.kind {
        MemKind::Single(idxs) => {
            for (start, end) in idxs {
                dims.push(FusedDim {
                    start: fused_idx(start, params)?,
                    span: None,
                });
                match end {
                    EndCheck::IncOfStart => {}
                    EndCheck::Eval(ic) => checks.push(fused_idx(ic, params)?),
                }
            }
        }
        MemKind::Ranges(rps) => {
            for rp in rps {
                dims.push(FusedDim {
                    start: fused_idx(&rp.start, params)?,
                    span: Some(FusedSpan {
                        end: fused_idx(&rp.end, params)?,
                        step: fused_idx(&rp.step, params)?,
                    }),
                });
            }
        }
    }
    Ok(FusedAccess {
        data: plan.data,
        dims,
        checks,
        wcr: if output { plan.wcr } else { None },
    })
}

/// Whether a write to a container the scope also reads from memory is a
/// pointwise in-place update `X[p] = f(X[p], …)`: no WCR, a pointwise
/// subset that every external read of `X` shares ([`same_subset`]), and
/// injective over any iteration box — each map parameter drives exactly
/// one subscript dimension with a nonzero net coefficient, and no
/// dimension mixes two. Each element then reads its own location before
/// writing it and no other element touches that location, so the chunk
/// loop and native code are order-equivalent to per-element execution.
fn in_place_update(out: &FusedAccess, inputs: &[FusedAccess], n_params: usize) -> bool {
    if out.wcr.is_some() || !out.is_pointwise() {
        return false;
    }
    if !inputs
        .iter()
        .filter(|a| a.data.idx() == out.data.idx())
        .all(|a| same_subset(a, out))
    {
        return false;
    }
    let mut driven = vec![false; n_params];
    for dim in &out.dims {
        let mut net = vec![0i128; n_params];
        for (k, t) in dim.start.terms.iter().enumerate() {
            if let FusedVar::Param(d) = t.var {
                // The leading term's sign flag is ignored, as in evaluation.
                net[d] += if t.sub && k > 0 { -1 } else { 1 } * t.coeff as i128;
            }
        }
        let mut params = (0..n_params).filter(|&d| net[d] != 0);
        match (params.next(), params.next()) {
            (None, _) => {}
            (Some(d), None) if !driven[d] => driven[d] = true,
            _ => return false,
        }
    }
    driven.iter().all(|&d| d)
}

/// Attempts to collapse a compiled map scope into a [`FusedKernel`].
///
/// Eligible scopes have: parameter-independent ranges; a body that is a
/// topologically ordered chain of f64-specialized tasklets (one common
/// lane width) plus access nodes for the containers they touch; affine
/// memlets (single-index or ranged); and container sets where every
/// written container is a pipeline intermediate re-read through the
/// byte-identical subset (the value then rides the writer's registers),
/// a pointwise in-place update (see [`in_place_update`]), or never read
/// at all, so fused execution is order-equivalent to per-element
/// execution. Select control flow is allowed (it runs natively; see
/// [`FusedKernel::has_select`]). Everything else keeps the generic plan,
/// with the reason recorded.
fn fuse_map(mp: &MapPlan) -> Result<FusedKernel, FuseReject> {
    if mp.body.error.is_some() {
        return Err(FuseReject::BodyError);
    }
    if mp.params.is_empty() {
        return Err(FuseReject::NoParams);
    }
    for rp in &mp.ranges {
        for ic in [&rp.start, &rp.end, &rp.step] {
            if idx_mentions(ic, &mp.params) {
                return Err(FuseReject::ParamRange);
            }
        }
    }

    // Body shape: access nodes + a straight-line chain of tasklets (the
    // block's steps are already in topological execution order).
    let mut tasklets: Vec<&TaskletPlan> = Vec::new();
    let mut access_ids: Vec<DataId> = Vec::new();
    for step in &mp.body.steps {
        match step {
            Step::Access(d) => access_ids.push(*d),
            Step::Tasklet(tp) => tasklets.push(tp),
            Step::Map(_) => return Err(FuseReject::NestedMap),
            Step::Library(_) => return Err(FuseReject::Library),
        }
    }
    if tasklets.is_empty() {
        return Err(FuseReject::NoTasklet);
    }
    let fasts: Vec<&FastTasklet> = tasklets
        .iter()
        .map(|tp| tp.fast.as_deref().ok_or(FuseReject::NotSpecialized))
        .collect::<Result<_, _>>()?;
    let lanes = tasklets[0].lanes;
    if tasklets.iter().any(|tp| tp.lanes != lanes) {
        return Err(FuseReject::MixedLanes);
    }
    // A vectorized pipeline would need per-lane register forwarding
    // interleaved with per-element coverage — the per-element path keeps
    // exact semantics there.
    if lanes > 1 && tasklets.len() > 1 {
        return Err(FuseReject::LanePipeline);
    }
    let has_select = fasts.iter().any(|fp| {
        fp.code
            .iter()
            .any(|i| matches!(i, FInsn::Jump { .. } | FInsn::JumpIfFalse { .. }))
    });

    let mut cover_locs = Vec::with_capacity(tasklets.len());
    let mut inputs: Vec<FusedAccess> = Vec::new();
    let mut in_regs: Vec<Option<u32>> = Vec::new();
    let mut in_place: Vec<Option<usize>> = Vec::new();
    let mut chained: Vec<usize> = Vec::new();
    let mut outputs: Vec<FusedAccess> = Vec::new();
    let mut out_regs: Vec<(u32, bool)> = Vec::new();
    let mut code: Vec<FInsn> = Vec::new();
    let mut guards: Vec<DataId> = Vec::new();
    // Container → index of the fused output that wrote it.
    let mut writer_of: BTreeMap<usize, usize> = BTreeMap::new();
    let mut n_regs = 0usize;

    for (tp, fp) in tasklets.iter().zip(&fasts) {
        cover_locs.push(tp.cover_loc);
        // Each tasklet gets a disjoint window of the register files.
        let base = n_regs as u32;

        for (k, ip) in tp.inputs.iter().enumerate() {
            let InputPlan::Read { slot, plan, .. } = ip else {
                return Err(FuseReject::NotSpecialized);
            };
            // A later read into the same connector slot overwrites this
            // one; the read still happens for bounds/step parity.
            let dead = tp.inputs[k + 1..]
                .iter()
                .any(|later| matches!(later, InputPlan::Read { slot: s, .. } if s == slot));
            let acc = fused_access(plan, &mp.params, false)?;
            if let Some(&oi) = writer_of.get(&acc.data.idx()) {
                // Pipeline-internal read: an earlier tasklet wrote this
                // container. Sound only when the subset is byte-identical
                // (then the just-written element set is exactly the read
                // set) and the write was plain (WCR would make memory
                // differ from the writer's registers).
                if outputs[oi].wcr.is_some() {
                    return Err(FuseReject::ChainWcr);
                }
                if !same_subset(&outputs[oi], &acc) {
                    return Err(FuseReject::ChainMismatch);
                }
                chained.push(oi);
                if !dead {
                    let (src, from_bool) = out_regs[oi];
                    let dst = *slot as u32 + base;
                    code.push(if from_bool {
                        FInsn::FloatFromB { dst, src }
                    } else {
                        FInsn::MovF { dst, src }
                    });
                }
            } else {
                in_regs.push(if dead {
                    None
                } else {
                    Some(*slot as u32 + base)
                });
                in_place.push(None);
                inputs.push(acc);
            }
        }

        // Append the tasklet's code, relocated into its register window
        // and onto the concatenated stream's jump targets.
        let code_base = code.len() as u32;
        for &insn in &fp.code {
            let insn = match insn {
                FInsn::LoadSymF { dst, sym } => match mp.params.iter().position(|p| p.0 == sym.0) {
                    Some(d) => FInsn::LoadParamF { dst, dim: d as u32 },
                    None => insn,
                },
                _ => insn,
            };
            code.push(insn.relocate(base, code_base));
        }

        for ow in &tp.out_writes {
            let OutWrite::Write { slot, plan } = ow else {
                return Err(FuseReject::NotSpecialized);
            };
            let acc = fused_access(plan, &mp.params, true)?;
            let di = acc.data.idx();
            if writer_of.contains_key(&di) {
                return Err(FuseReject::DupWrites);
            }
            // A write to a container some tasklet read from memory: the
            // generic path's element interleaving could observe it, unless
            // every element touches only its own location.
            if inputs.iter().any(|a| a.data.idx() == di) {
                if !in_place_update(&acc, &inputs, mp.params.len()) {
                    return Err(FuseReject::Overlap);
                }
                for (ii, a) in inputs.iter().enumerate() {
                    if a.data.idx() == di {
                        in_place[ii] = Some(outputs.len());
                    }
                }
            }
            // A single-index write always carries volume 1; with
            // `lanes > 1` gathered values, the generic path raises a
            // volume mismatch — keep it there.
            if lanes > 1 && acc.dims.iter().all(|d| d.span.is_none()) {
                return Err(FuseReject::LaneVolume);
            }
            let mut gathers =
                tp.gather
                    .iter()
                    .zip(&fp.gather_bool)
                    .filter_map(|(g, &from_bool)| match g {
                        GatherSpec::Push { slot: s, reg } if s == slot => {
                            Some((reg + base, from_bool))
                        }
                        _ => None,
                    });
            let g = gathers.next().ok_or(FuseReject::NeverGathered)?;
            if gathers.next().is_some() {
                return Err(FuseReject::DupConnector);
            }
            writer_of.insert(di, outputs.len());
            out_regs.push(g);
            outputs.push(acc);
        }

        for g in &fp.guards {
            if !guards.contains(g) {
                guards.push(*g);
            }
        }
        n_regs += fp.n_regs;
    }

    // Every access node in the body must belong to some tasklet memlet;
    // then the kernel's dtype/liveness guards subsume the per-iteration
    // access checks.
    for d in &access_ids {
        let known = inputs
            .iter()
            .map(|a| a.data)
            .chain(outputs.iter().map(|a| a.data))
            .any(|x| x.idx() == d.idx());
        if !known {
            return Err(FuseReject::Dangling);
        }
    }

    let mut fk = FusedKernel {
        cover_locs,
        lanes,
        has_select,
        in_regs,
        in_place,
        inputs,
        chained,
        out_regs,
        outputs,
        code,
        n_regs,
        guards,
        native_code: OnceLock::new(),
        jit: Err(JitReject::UnsupportedArch),
    };
    fk.jit = crate::jit::lower::analyze(&fk, mp.ranges.len());
    Ok(fk)
}

/// Per-run execution context: step budget, collectives, coverage, and
/// the JIT switch.
struct RunCtx<'a> {
    steps: u64,
    max_steps: u64,
    comm: Option<&'a dyn CommHandler>,
    cov: Option<&'a mut CoverageMap>,
    /// Fused kernels may enter the native tier (see [`ExecOptions::jit`]).
    jit: bool,
}

impl RunCtx<'_> {
    #[inline]
    fn tick(&mut self, n: u64) -> Result<(), ExecError> {
        self.steps += n;
        if self.steps > self.max_steps {
            return Err(ExecError::StepLimitExceeded {
                limit: self.max_steps,
            });
        }
        Ok(())
    }

    #[inline]
    fn cover(&mut self, loc: u64) {
        if let Some(c) = self.cov.as_deref_mut() {
            c.record(loc);
        }
    }

    #[inline]
    fn cover_parts(&mut self, parts: &[u64]) {
        if let Some(c) = self.cov.as_deref_mut() {
            c.record(location_id(parts));
        }
    }
}

/// Counts freshly constructed [`ExecutorArena`]s process-wide — the
/// observable arena parking exists to minimize (benches assert warm
/// campaign re-runs construct none).
static FRESH_ARENAS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Number of [`ExecutorArena`]s constructed from scratch so far in this
/// process (recycled arenas do not count).
pub fn fresh_arena_count() -> u64 {
    FRESH_ARENAS.load(std::sync::atomic::Ordering::Relaxed)
}

/// The owned storage of an [`Executor`], detached from any program: all
/// the id-indexed state and scratch buffers, but no borrow. Detaching
/// ([`Executor::into_arena`]) and re-attaching ([`Program::executor_with`])
/// lets callers keep warm buffers across calls — the differential
/// tester parks arena pairs in a per-instance stash, so re-verifying an
/// instance reuses them outright instead of reallocating.
#[derive(Debug, Default)]
pub struct ExecutorArena {
    syms: Vec<Option<i64>>,
    arrays: Vec<Option<ArrayValue>>,
    live: Vec<bool>,
    extra_syms: Vec<(String, i64)>,
    extra_arrays: Vec<(String, ArrayValue)>,
    stack: Vec<i64>,
    regs: Vec<Scalar>,
    in_vals: Vec<Vec<Scalar>>,
    out_vals: Vec<Vec<Scalar>>,
    lib_dims: Vec<Vec<i64>>,
    /// Shape scratch of [`Executor::allocate`].
    alloc_shape: Vec<i64>,
    dims_buf: Vec<ConcreteRange>,
    point: Vec<i64>,
    fk_regs_f: Vec<[f64; LANES]>,
    fk_regs_b: Vec<[bool; LANES]>,
    fdims: Vec<ConcreteRange>,
    fbases: Vec<i64>,
    fstrides: Vec<i64>,
    /// Wide-integer scratch of the fused precheck, partitioned per access
    /// into net-coefficient / line-stride / array-stride segments.
    fnet: Vec<i128>,
    fodo: Vec<i64>,
    fouter: Vec<f64>,
    frow: Vec<i64>,
    fouts: Vec<ArrayValue>,
    /// Native-kernel call frame (see [`crate::jit::lower::JitLayout`]).
    jframe: Vec<u64>,
}

impl ExecutorArena {
    /// A fresh, empty arena (counted by [`fresh_arena_count`]).
    pub fn new() -> Self {
        FRESH_ARENAS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Self::default()
    }
}

/// A reusable execution context for one [`Program`]: id-indexed `Vec`
/// storage for symbols and arrays plus scratch buffers, all retained
/// between runs so consecutive trials reset buffers in place instead of
/// reallocating.
pub struct Executor<'p> {
    prog: &'p Program,
    a: ExecutorArena,
}

impl<'p> Executor<'p> {
    /// Creates an executor with empty storage sized for `prog`.
    pub fn new(prog: &'p Program) -> Self {
        Self::with_arena(prog, ExecutorArena::new())
    }

    /// Creates an executor over a recycled arena, resizing the id-indexed
    /// storage for `prog` while keeping allocated buffers (retained array
    /// buffers whose dtype/shape still match are reused in place).
    pub fn with_arena(prog: &'p Program, mut a: ExecutorArena) -> Self {
        a.syms.clear();
        a.syms.resize(prog.syms.len(), None);
        a.arrays.truncate(prog.data.len());
        while a.arrays.len() < prog.data.len() {
            a.arrays.push(None);
        }
        a.live.clear();
        a.live.resize(prog.data.len(), false);
        a.extra_syms.clear();
        a.extra_arrays.clear();
        Executor { prog, a }
    }

    /// Detaches the executor's storage for caching; see [`ExecutorArena`].
    pub fn into_arena(self) -> ExecutorArena {
        self.a
    }

    /// Runs the program against `input` without consuming it: inputs are
    /// copied into the executor's reusable buffers, and the resulting
    /// system state stays inside the executor for inspection via
    /// [`Executor::array`], [`Executor::symbol`], [`Executor::compare_on`]
    /// or [`Executor::to_state`]. This is the zero-allocation trial entry
    /// point of the differential fuzzer.
    pub fn execute(
        &mut self,
        input: &ExecState,
        opts: &ExecOptions,
        comm: Option<&dyn CommHandler>,
        cov: Option<&mut CoverageMap>,
    ) -> Result<(), ExecError> {
        self.a.extra_syms.clear();
        self.a.extra_arrays.clear();
        for s in &mut self.a.syms {
            *s = None;
        }
        for (name, v) in input.symbols.iter() {
            match self.prog.sym_id(name) {
                Some(id) => self.a.syms[id.idx()] = Some(v),
                None => self.a.extra_syms.push((name.to_string(), v)),
            }
        }
        for l in &mut self.a.live {
            *l = false;
        }
        for (name, arr) in &input.arrays {
            match self.prog.data_id(name) {
                Some(id) => {
                    match &mut self.a.arrays[id.idx()] {
                        Some(buf) => buf.copy_from(arr),
                        slot @ None => {
                            let mut buf = arr.clone();
                            buf.repoison_guards();
                            *slot = Some(buf);
                        }
                    }
                    self.a.live[id.idx()] = true;
                }
                None => self.a.extra_arrays.push((name.clone(), arr.clone())),
            }
        }
        self.run_loaded(opts, comm, cov)
    }

    /// Runs the program mutating `state` in place — the exact contract of
    /// the tree-walk [`crate::run_with`], including partially-updated
    /// state on error.
    pub fn run_in_place(
        &mut self,
        state: &mut ExecState,
        opts: &ExecOptions,
        comm: Option<&dyn CommHandler>,
        cov: Option<&mut CoverageMap>,
    ) -> Result<(), ExecError> {
        self.a.extra_syms.clear();
        self.a.extra_arrays.clear();
        for s in &mut self.a.syms {
            *s = None;
        }
        for (name, v) in state.symbols.iter() {
            if let Some(id) = self.prog.sym_id(name) {
                self.a.syms[id.idx()] = Some(v);
            }
        }
        for l in &mut self.a.live {
            *l = false;
        }
        for (i, name) in self.prog.data.names.iter().enumerate() {
            if let Some(mut arr) = state.arrays.remove(name) {
                arr.repoison_guards();
                self.a.arrays[i] = Some(arr);
                self.a.live[i] = true;
            }
        }
        let res = self.run_loaded(opts, comm, cov);
        // Write back even on error: the tree-walk engine mutates its state
        // in place, so partial updates must be observable identically.
        for (i, name) in self.prog.data.names.iter().enumerate() {
            if self.a.live[i] {
                if let Some(arr) = self.a.arrays[i].take() {
                    state.arrays.insert(name.clone(), arr);
                }
            }
        }
        for (i, name) in self.prog.syms.names.iter().enumerate() {
            match self.a.syms[i] {
                Some(v) => {
                    state.symbols.set(name.clone(), v);
                }
                None => {
                    state.symbols.remove(name);
                }
            }
        }
        res
    }

    /// Final value of a symbol after [`Executor::execute`].
    pub fn symbol(&self, name: &str) -> Option<i64> {
        match self.prog.sym_id(name) {
            Some(id) => self.a.syms[id.idx()],
            None => self
                .a
                .extra_syms
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v),
        }
    }

    /// Final contents of a container after [`Executor::execute`].
    pub fn array(&self, name: &str) -> Option<&ArrayValue> {
        match self.prog.data_id(name) {
            Some(id) if self.a.live[id.idx()] => self.a.arrays[id.idx()].as_ref(),
            Some(_) => None,
            None => self
                .a
                .extra_arrays
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, a)| a),
        }
    }

    /// Compares the named containers between two executors' final states,
    /// mirroring [`ExecState::compare_on`].
    pub fn compare_on(
        &self,
        other: &Executor<'_>,
        names: &[String],
        tol: f64,
    ) -> Option<StateMismatch> {
        for name in names {
            match (self.array(name), other.array(name)) {
                (Some(a), Some(b)) => {
                    if let Some(i) = a.first_mismatch(b, tol) {
                        let lhs = if i < a.len() {
                            a.get(i).to_string()
                        } else {
                            "<shape>".into()
                        };
                        let rhs = if i < b.len() {
                            b.get(i).to_string()
                        } else {
                            "<shape>".into()
                        };
                        return Some(StateMismatch {
                            data: name.clone(),
                            index: i,
                            lhs,
                            rhs,
                        });
                    }
                }
                (a, b) => {
                    if a.is_some() != b.is_some() {
                        return Some(StateMismatch {
                            data: name.clone(),
                            index: 0,
                            lhs: if a.is_some() {
                                "<present>".into()
                            } else {
                                "<missing>".into()
                            },
                            rhs: if b.is_some() {
                                "<present>".into()
                            } else {
                                "<missing>".into()
                            },
                        });
                    }
                }
            }
        }
        None
    }

    /// Materializes the executor's current state as an [`ExecState`]
    /// (clones all live buffers).
    pub fn to_state(&self) -> ExecState {
        let mut st = ExecState::new();
        for (name, v) in &self.a.extra_syms {
            st.symbols.set(name.clone(), *v);
        }
        for (i, name) in self.prog.syms.names.iter().enumerate() {
            if let Some(v) = self.a.syms[i] {
                st.symbols.set(name.clone(), v);
            }
        }
        for (name, arr) in &self.a.extra_arrays {
            st.arrays.insert(name.clone(), arr.clone());
        }
        for (i, name) in self.prog.data.names.iter().enumerate() {
            if self.a.live[i] {
                if let Some(arr) = &self.a.arrays[i] {
                    st.arrays.insert(name.clone(), arr.clone());
                }
            }
        }
        st
    }

    // ----- runtime ------------------------------------------------------

    fn run_loaded(
        &mut self,
        opts: &ExecOptions,
        comm: Option<&dyn CommHandler>,
        cov: Option<&mut CoverageMap>,
    ) -> Result<(), ExecError> {
        let mut ctx = RunCtx {
            steps: 0,
            max_steps: opts.max_steps,
            comm,
            cov,
            jit: opts.jit,
        };
        self.allocate()?;
        let prog = self.prog;
        let mut current = prog.start;
        loop {
            ctx.tick(1)?;
            let sp = &prog.states[current];
            ctx.cover(sp.site);
            self.exec_block(&sp.body, &mut ctx)?;
            let mut next = None;
            for ep in &sp.edges {
                if self.eval_cond(&ep.cond)? {
                    for (sym, code) in &ep.assigns {
                        let v = self.eval_code(code)?;
                        self.a.syms[sym.idx()] = Some(v);
                    }
                    ctx.cover(ep.cover_loc);
                    next = Some(ep.dst);
                    break;
                }
            }
            match next {
                Some(n) => current = n,
                None => return self.verify_guards(),
            }
        }
    }

    /// Post-trial guard-plane verification: checks every live buffer's
    /// poison bytes (defense-in-depth against engine defects — a handful
    /// of element compares per container, no ticks, no coverage; every
    /// checked access traps first, so this can only fail on an engine
    /// bug, and the engines stay bit-identical).
    fn verify_guards(&mut self) -> Result<(), ExecError> {
        for (i, slot) in self.a.arrays.iter().enumerate() {
            if !self.a.live[i] {
                continue;
            }
            if let Some(arr) = slot {
                if !arr.guards_intact() {
                    return Err(ExecError::GuardViolation {
                        data: self.prog.data.names[i].clone(),
                        shape: arr.shape().to_vec(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Allocates declared containers the caller did not provide: a
    /// retained buffer of matching dtype/shape from a previous run is
    /// refilled in place (host zeros / device garbage, guards re-poisoned),
    /// anything else is allocated. Shapes are evaluated into arena
    /// scratch, so a run whose buffers all fit allocates nothing here.
    fn allocate(&mut self) -> Result<(), ExecError> {
        let mut shape = std::mem::take(&mut self.a.alloc_shape);
        let res = self.allocate_into(&mut shape);
        self.a.alloc_shape = shape;
        res
    }

    fn allocate_into(&mut self, shape: &mut Vec<i64>) -> Result<(), ExecError> {
        let prog = self.prog;
        for ap in &prog.arrays {
            let i = ap.data.idx();
            if self.a.live[i] {
                continue;
            }
            shape.clear();
            for ic in &ap.shape {
                shape.push(self.eval_idx(ic)?);
            }
            check_alloc_shape(&prog.data.names[i], shape)?;
            match &mut self.a.arrays[i] {
                Some(buf) if buf.dtype() == ap.dtype && buf.shape() == shape.as_slice() => {
                    match ap.storage {
                        Storage::Host => buf.fill_zero(),
                        Storage::Device => buf.fill_garbage(),
                    }
                }
                slot => {
                    *slot = Some(match ap.storage {
                        Storage::Host => ArrayValue::zeros(ap.dtype, shape.clone()),
                        Storage::Device => ArrayValue::garbage(ap.dtype, shape.clone()),
                    });
                }
            }
            self.a.live[i] = true;
        }
        Ok(())
    }

    fn exec_block(&mut self, block: &'p BlockPlan, ctx: &mut RunCtx<'_>) -> Result<(), ExecError> {
        if let Some(e) = &block.error {
            return Err(e.clone());
        }
        for step in &block.steps {
            match step {
                Step::Access(d) => {
                    if !self.a.live[d.idx()] {
                        return Err(ExecError::UnknownData(
                            self.prog.data.names[d.idx()].clone(),
                        ));
                    }
                }
                Step::Tasklet(tp) => {
                    ctx.tick(1)?;
                    ctx.cover(tp.cover_loc);
                    self.exec_tasklet(tp, ctx)?;
                }
                Step::Map(mp) => {
                    ctx.cover(mp.cover_loc);
                    self.exec_map_step(mp, ctx)?;
                }
                Step::Library(lp) => {
                    ctx.cover(lp.cover_loc);
                    self.exec_library(lp, ctx)?;
                }
            }
        }
        Ok(())
    }

    /// Executes a map scope: through its fused kernel when the compile-
    /// time plan and the runtime precheck both allow it, through the
    /// generic per-element recursion otherwise. The two are bit-identical
    /// whenever the kernel runs — the precheck proves no error (and hence
    /// no divergence in error ordering, partial writes or step-limit
    /// behavior) can occur anywhere in the iteration box.
    ///
    /// The kernel runs natively when the JIT serves this run, else in the
    /// chunk loop — which runs straight-line bodies only and batches entry
    /// coverage. A select body, or a run that must interleave coverage
    /// records per element (branch records, or several tasklet entries),
    /// that native code cannot serve takes the per-element path, decided
    /// before any tick or coverage record is made.
    fn exec_map_step(&mut self, mp: &'p MapPlan, ctx: &mut RunCtx<'_>) -> Result<(), ExecError> {
        if let Some(fk) = &mp.fused {
            match self.prepare_fused(mp, fk, ctx) {
                FusedReady::ZeroTrip => return Ok(()),
                FusedReady::Run { elems, ticks } => {
                    let interleave =
                        ctx.cov.is_some() && (fk.has_select || fk.cover_locs.len() > 1);
                    let native = match &fk.jit {
                        Ok(lay)
                            if ctx.jit
                                && !interleave
                                && jit_lane_strides_ok(
                                    fk,
                                    lay,
                                    &self.a.fstrides,
                                    self.a.fdims.len(),
                                ) =>
                        {
                            jit_code_for(fk, lay).map(|code| (lay, code))
                        }
                        _ => None,
                    };
                    if native.is_some() || !(fk.has_select || interleave) {
                        return self.exec_fused(fk, native, elems, ticks, ctx);
                    }
                }
                FusedReady::Fallback => {}
            }
        }
        self.exec_map(mp, 0, ctx)
    }

    fn exec_map(
        &mut self,
        mp: &'p MapPlan,
        dim: usize,
        ctx: &mut RunCtx<'_>,
    ) -> Result<(), ExecError> {
        if dim == mp.params.len() {
            ctx.tick(1)?;
            return self.exec_block(&mp.body, ctx);
        }
        let r = self.eval_range(&mp.ranges[dim])?;
        let param = mp.params[dim].idx();
        let saved = self.a.syms[param];
        let len = r.len() as i64;
        for k in 0..len {
            self.a.syms[param] = Some(r.start + k * r.step);
            self.exec_map(mp, dim + 1, ctx)?;
        }
        self.a.syms[param] = saved;
        Ok(())
    }

    // ----- fused map kernels --------------------------------------------

    /// Runtime precheck of a fused kernel: evaluates the map ranges (in
    /// dimension order, stopping at the first empty one exactly like the
    /// per-element recursion), then proves — via exact interval analysis
    /// of every affine subscript over the concrete iteration box — that
    /// no out-of-bounds access, no i64 overflow, no unbound symbol and no
    /// step-budget trip can occur anywhere in the box. Anything it cannot
    /// prove falls back to the generic path, which reproduces errors with
    /// their exact ordering, partial writes and step counts.
    fn prepare_fused(
        &mut self,
        mp: &'p MapPlan,
        fk: &'p FusedKernel,
        ctx: &RunCtx<'_>,
    ) -> FusedReady {
        let mut dims = std::mem::take(&mut self.a.fdims);
        let mut bases = std::mem::take(&mut self.a.fbases);
        let mut strides = std::mem::take(&mut self.a.fstrides);
        let mut wide = std::mem::take(&mut self.a.fnet);
        let ready =
            self.prepare_fused_inner(mp, fk, ctx, &mut dims, &mut bases, &mut strides, &mut wide);
        self.a.fdims = dims;
        self.a.fbases = bases;
        self.a.fstrides = strides;
        self.a.fnet = wide;
        ready
    }

    #[allow(clippy::too_many_arguments)]
    fn prepare_fused_inner(
        &mut self,
        mp: &'p MapPlan,
        fk: &'p FusedKernel,
        ctx: &RunCtx<'_>,
        dims: &mut Vec<ConcreteRange>,
        bases: &mut Vec<i64>,
        strides: &mut Vec<i64>,
        wide: &mut Vec<i128>,
    ) -> FusedReady {
        // Dtype guards: every container the kernel touches must be live
        // with the `F64` dtype the specialization assumed. Otherwise the
        // per-element path produces the exact generic behavior (including
        // `UnknownData` errors or non-f64 semantics for caller-substituted
        // buffers).
        if !fk.guards.iter().all(|d| {
            self.a.live[d.idx()]
                && matches!(&self.a.arrays[d.idx()], Some(a) if a.dtype() == DType::F64)
        }) {
            return FusedReady::Fallback;
        }
        dims.clear();
        for rp in &mp.ranges {
            match self.eval_range(rp) {
                Err(_) => return FusedReady::Fallback,
                Ok(r) if r.is_empty() => return FusedReady::ZeroTrip,
                Ok(r) => dims.push(r),
            }
        }
        let n_map = dims.len();
        if fk.lanes > 1 {
            // Synthetic innermost lane dimension: the odometer, stride and
            // chunk machinery then iterate lanes like any other dimension
            // (the body never loads it — map parameters are all outer).
            dims.push(ConcreteRange {
                start: 0,
                end: fk.lanes as i64,
                step: 1,
            });
        }
        let n_dims = dims.len();
        // Checked: an astronomically large box overflows even u128 and
        // must land in the generic path (which trips the step limit
        // almost immediately), not wrap past the budget check.
        let mut elems: u128 = 1;
        for d in dims[..n_map].iter() {
            match elems.checked_mul(d.len() as u128) {
                Some(t) => elems = t,
                None => return FusedReady::Fallback,
            }
        }
        for insn in &fk.code {
            if let FInsn::LoadSymF { sym, .. } = insn {
                if self.a.syms[sym.idx()].is_none() {
                    return FusedReady::Fallback;
                }
            }
        }

        // Per map element the generic path ticks once for the body entry,
        // once per tasklet, and once per element moved by each read and
        // write — including the pipeline-internal reads, whose volume
        // equals their writer's (always `lanes`).
        let mut ticks_pe: u128 =
            1 + fk.cover_locs.len() as u128 + fk.chained.len() as u128 * fk.lanes as u128;

        bases.clear();
        strides.clear();
        for (ai, acc) in fk.inputs.iter().chain(fk.outputs.iter()).enumerate() {
            let is_out = ai >= fk.inputs.len();
            let arr = self.a.arrays[acc.data.idx()]
                .as_ref()
                .expect("guarded slot holds a buffer");
            let shape = arr.shape();
            if shape.len() != acc.dims.len() {
                return FusedReady::Fallback;
            }
            // Partition the reusable wide scratch: start and end net
            // coefficients, accumulated line strides, row-major array
            // strides.
            wide.clear();
            wide.resize(2 * n_map + n_dims + shape.len(), 0);
            let (net, rest) = wide.split_at_mut(n_map);
            let (net2, rest) = rest.split_at_mut(n_map);
            let (lstr, astr) = rest.split_at_mut(n_dims);
            astr.fill(1);
            // Checked: a zero-length dimension makes huge outer extents
            // allocatable, and their stride product can exceed even i128
            // (such accesses are all out of bounds anyway — fall back).
            for d in (0..shape.len().saturating_sub(1)).rev() {
                match astr[d + 1].checked_mul(shape[d + 1] as i128) {
                    Some(v) => astr[d] = v,
                    None => return FusedReady::Fallback,
                }
            }
            let mut base_off = 0i64;
            let at = strides.len();
            strides.resize(at + n_dims, 0i64);
            let mut vol: u128 = 1;
            // The one ranged dimension spanning more than one element:
            // `(array dim, step value)` — it becomes the lane stride.
            let mut spread: Option<(usize, i128)> = None;
            for (s, fd) in acc.dims.iter().enumerate() {
                let Some((b, lo, hi)) =
                    analyze_fused_idx(&fd.start, &dims[..n_map], &self.a.syms, net)
                else {
                    return FusedReady::Fallback;
                };
                // Length and per-element span of this dimension. Point
                // dimensions cover exactly their start; ranged dimensions
                // must have a box-uniform length (end coefficients equal
                // start coefficients per map parameter) and a positive,
                // parameter-independent step — mirroring how the generic
                // path evaluates `start:end:step` at every element.
                let (len, step_v) = match &fd.span {
                    None => (1i128, 0i128),
                    Some(span) => {
                        let Some((eb, _, _)) =
                            analyze_fused_idx(&span.end, &dims[..n_map], &self.a.syms, net2)
                        else {
                            return FusedReady::Fallback;
                        };
                        if net != net2 {
                            return FusedReady::Fallback;
                        }
                        let Some((sb, slo, shi)) =
                            analyze_fused_idx(&span.step, &dims[..n_map], &self.a.syms, net2)
                        else {
                            return FusedReady::Fallback;
                        };
                        // A non-constant step, or a step ≤ 0 (the generic
                        // path raises `InvalidStep`), is not provably
                        // uniform/safe.
                        if slo != shi || sb <= 0 {
                            return FusedReady::Fallback;
                        }
                        let stp = sb as i128;
                        let diff = eb as i128 - b as i128;
                        let len = if diff <= 0 { 0 } else { (diff + stp - 1) / stp };
                        (len, stp)
                    }
                };
                if len == 0 {
                    // An empty subset dimension: the generic path sees a
                    // volume of 0 (an error for every lane count ≥ 1).
                    return FusedReady::Fallback;
                }
                if len > 1 {
                    if spread.is_some() {
                        return FusedReady::Fallback;
                    }
                    spread = Some((s, step_v));
                }
                // Bounds over everything the dimension touches:
                // `start + j*step` for `j in 0..len`, step > 0.
                let span_off = (len - 1) * step_v;
                if lo < 0 || hi + span_off >= shape[s] as i128 {
                    return FusedReady::Fallback;
                }
                base_off += (b as i128 * astr[s]) as i64;
                vol = match vol.checked_mul(len as u128) {
                    Some(v) => v,
                    None => return FusedReady::Fallback,
                };
                for d in 0..n_map {
                    // Only multi-iteration dimensions need a stride, and
                    // only for those is the product provably bounded (it
                    // is a difference of two in-bounds offsets): a huge
                    // step on a single-iteration dimension could overflow
                    // even i128 here.
                    if dims[d].len() > 1 {
                        lstr[d] += net[d] * dims[d].step as i128 * astr[s];
                    }
                }
            }
            for chk in &acc.checks {
                if analyze_fused_idx(chk, &dims[..n_map], &self.a.syms, net).is_none() {
                    return FusedReady::Fallback;
                }
            }
            // Volume contract of the generic lane loop: inputs broadcast
            // (1) or deliver one value per lane; outputs gather exactly
            // one value per lane. Anything else errors there — fall back.
            if is_out {
                if vol != fk.lanes as u128 {
                    return FusedReady::Fallback;
                }
            } else if vol != 1 && vol != fk.lanes as u128 {
                return FusedReady::Fallback;
            }
            ticks_pe += vol;
            for d in 0..n_map {
                // A dimension iterated more than once has a stride that is
                // the difference of two in-bounds offsets, so it fits i64;
                // single-iteration dimensions never use theirs.
                if dims[d].len() > 1 {
                    let Ok(v) = i64::try_from(lstr[d]) else {
                        return FusedReady::Fallback;
                    };
                    strides[at + d] = v;
                }
            }
            if fk.lanes > 1 && vol == fk.lanes as u128 {
                // Lane-dimension stride: the spread dimension's step times
                // its array stride. Both endpoints are in bounds, so for
                // lanes ≥ 2 the product fits i64 — checked anyway.
                let (s, stp) = spread.expect("volume > 1 has a spread dimension");
                let Ok(v) = i64::try_from(stp * astr[s]) else {
                    return FusedReady::Fallback;
                };
                strides[at + n_map] = v;
            }
            bases.push(base_off);
        }
        let ticks = match elems.checked_mul(ticks_pe) {
            Some(t) if t <= (ctx.max_steps - ctx.steps) as u128 => t,
            _ => return FusedReady::Fallback,
        };
        FusedReady::Run {
            elems: elems as u64,
            ticks: ticks as u64,
        }
    }

    /// Runs a prepared fused kernel: per-element access plans collapse to
    /// hoisted base offsets plus constant per-dimension strides, and the
    /// f64 body runs as native code (`native`, chosen by
    /// [`Executor::exec_map_step`]) or over lane chunks of the innermost
    /// dimension. Bit-identical to the per-element path by the precheck's
    /// no-error proof plus fusion's order-equivalence: the read and write
    /// sets are disjoint except for pointwise in-place updates.
    fn exec_fused(
        &mut self,
        fk: &'p FusedKernel,
        native: Option<(&'p crate::jit::lower::JitLayout, &'p crate::jit::JitCode)>,
        elems: u64,
        ticks: u64,
        ctx: &mut RunCtx<'_>,
    ) -> Result<(), ExecError> {
        // Coverage is edge coverage: consecutive records pair up. Runs
        // that reach here record one location per element (entry
        // coverage), so `loc × elems` batched is order-identical.
        if ctx.cov.is_some() {
            for &loc in &fk.cover_locs {
                for _ in 0..elems {
                    ctx.cover(loc);
                }
            }
        }
        // The precheck proved the whole kernel fits the step budget.
        ctx.steps += ticks;

        let mut rf = std::mem::take(&mut self.a.fk_regs_f);
        let mut rb = std::mem::take(&mut self.a.fk_regs_b);
        if rf.len() < fk.n_regs {
            rf.resize(fk.n_regs, [0.0; LANES]);
        }
        if rb.len() < fk.n_regs {
            rb.resize(fk.n_regs, [false; LANES]);
        }
        let dims = std::mem::take(&mut self.a.fdims);
        let bases = std::mem::take(&mut self.a.fbases);
        let strides = std::mem::take(&mut self.a.fstrides);
        let mut odo = std::mem::take(&mut self.a.fodo);
        let mut outer_vals = std::mem::take(&mut self.a.fouter);
        let mut row = std::mem::take(&mut self.a.frow);
        odo.clear();
        odo.resize(dims.len(), 0);
        outer_vals.clear();
        outer_vals.resize(dims.len(), 0.0);
        row.clear();
        row.resize(bases.len(), 0);

        let mut jframe = std::mem::take(&mut self.a.jframe);
        // Write targets move out of their slots; reads borrow the rest,
        // except in-place reads, which go through their output's buffer.
        let mut outs = std::mem::take(&mut self.a.fouts);
        outs.extend(fk.outputs.iter().map(|o| {
            self.a.arrays[o.data.idx()]
                .take()
                .expect("guarded slot holds a buffer")
        }));
        // Step accounting is already arithmetic, and the precheck's
        // no-error proof covers the native loop exactly as it covers the
        // chunk loop. The walkers take each access's payload from the
        // arena slots (reads) or `outs` (writes and in-place reads).
        match native {
            Some((lay, code)) => {
                // Packed blobs unroll the synthetic lane dim internally;
                // the row walked on the Rust side is the innermost real
                // dim.
                let inner = dims.len() - 1 - usize::from(lay.lanes > 1);
                run_fused_jit(
                    fk,
                    lay,
                    code,
                    inner,
                    &dims,
                    &bases,
                    &strides,
                    &self.a.syms,
                    &self.a.arrays,
                    &mut outs,
                    &mut jframe,
                    &mut odo,
                );
                crate::jit::count_native_run(lay.lanes > 1);
            }
            None => run_fused_loop(
                fk,
                &dims,
                &bases,
                &strides,
                &self.a.syms,
                &self.a.arrays,
                &mut outs,
                &mut rf,
                &mut rb,
                (&mut odo, &mut outer_vals, &mut row),
            ),
        }
        for (o, arr) in fk.outputs.iter().zip(outs.drain(..)) {
            self.a.arrays[o.data.idx()] = Some(arr);
        }
        self.a.fouts = outs;
        self.a.jframe = jframe;
        self.a.fk_regs_f = rf;
        self.a.fk_regs_b = rb;
        self.a.fdims = dims;
        self.a.fbases = bases;
        self.a.fstrides = strides;
        self.a.fodo = odo;
        self.a.fouter = outer_vals;
        self.a.frow = row;
        Ok(())
    }

    fn exec_tasklet(&mut self, tp: &'p TaskletPlan, ctx: &mut RunCtx<'_>) -> Result<(), ExecError> {
        let mut in_vals = std::mem::take(&mut self.a.in_vals);
        let mut out_vals = std::mem::take(&mut self.a.out_vals);
        let mut regs = std::mem::take(&mut self.a.regs);
        if in_vals.len() < tp.n_conn_slots {
            in_vals.resize_with(tp.n_conn_slots, Vec::new);
        }
        if out_vals.len() < tp.n_out_slots {
            out_vals.resize_with(tp.n_out_slots, Vec::new);
        }
        if regs.len() < tp.n_regs {
            regs.resize(tp.n_regs, Scalar::I64(0));
        }
        let res = self.exec_tasklet_inner(tp, ctx, &mut in_vals, &mut out_vals, &mut regs);
        self.a.in_vals = in_vals;
        self.a.out_vals = out_vals;
        self.a.regs = regs;
        res
    }

    fn exec_tasklet_inner(
        &mut self,
        tp: &'p TaskletPlan,
        ctx: &mut RunCtx<'_>,
        in_vals: &mut [Vec<Scalar>],
        out_vals: &mut [Vec<Scalar>],
        regs: &mut [Scalar],
    ) -> Result<(), ExecError> {
        // Gather inputs per connector slot, in memlet order.
        for ip in &tp.inputs {
            match ip {
                InputPlan::Fail(e) => return Err(e.clone()),
                InputPlan::Read { slot, conn, plan } => {
                    let buf = &mut in_vals[*slot];
                    buf.clear();
                    self.read_plan(plan, ctx, buf, &tp.name)?;
                    if buf.len() != 1 && buf.len() != tp.lanes {
                        return Err(ExecError::VolumeMismatch {
                            context: format!("tasklet '{}' input '{conn}'", tp.name),
                            expected: tp.lanes,
                            actual: buf.len(),
                        });
                    }
                }
            }
        }
        // Execute code lane-wise.
        for b in out_vals[..tp.n_out_slots].iter_mut() {
            b.clear();
        }
        for lane in 0..tp.lanes {
            for (reg, vals) in regs.iter_mut().zip(&in_vals[..tp.n_conn_slots]) {
                *reg = if vals.len() == 1 { vals[0] } else { vals[lane] };
            }
            self.run_code(&tp.code, ctx, regs, &tp.name)?;
            for g in &tp.gather {
                match g {
                    GatherSpec::Push { slot, reg } => out_vals[*slot].push(regs[*reg as usize]),
                    GatherSpec::Fail(e) => return Err(e.clone()),
                }
            }
        }
        // Deliver outputs, in memlet order.
        for ow in &tp.out_writes {
            match ow {
                OutWrite::Fail(e) => return Err(e.clone()),
                OutWrite::Write { slot, plan } => {
                    let vals = std::mem::take(&mut out_vals[*slot]);
                    let r = self.write_plan(plan, ctx, &vals, &tp.name);
                    out_vals[*slot] = vals;
                    r?;
                }
            }
        }
        Ok(())
    }

    fn run_code(
        &mut self,
        code: &'p [Insn],
        ctx: &mut RunCtx<'_>,
        regs: &mut [Scalar],
        tasklet: &str,
    ) -> Result<(), ExecError> {
        let mut pc = 0usize;
        let mut site = 0u64;
        let mut sel = 0u64;
        while pc < code.len() {
            match &code[pc] {
                Insn::Stmt { site: s } => {
                    site = *s;
                    sel = 0;
                }
                Insn::Const { dst, val } => regs[*dst as usize] = *val,
                Insn::Mov { dst, src } => regs[*dst as usize] = regs[*src as usize],
                Insn::LoadSym { dst, sym } => match self.a.syms[sym.idx()] {
                    Some(v) => regs[*dst as usize] = Scalar::I64(v),
                    None => {
                        return Err(ExecError::UndefinedRef {
                            tasklet: tasklet.to_string(),
                            name: self.prog.syms.names[sym.idx()].clone(),
                        })
                    }
                },
                Insn::Bin { op, dst, a, b } => {
                    regs[*dst as usize] = apply_bin(*op, regs[*a as usize], regs[*b as usize])?;
                }
                Insn::Un { op, dst, a } => {
                    regs[*dst as usize] = apply_un(*op, regs[*a as usize]);
                }
                Insn::Cmp { op, dst, a, b } => {
                    regs[*dst as usize] =
                        Scalar::Bool(apply_cmp(*op, regs[*a as usize], regs[*b as usize]));
                }
                Insn::CoverSel { cond } => {
                    let cv = regs[*cond as usize].as_bool();
                    sel += 1;
                    ctx.cover_parts(&[site, sel, cv as u64]);
                }
                Insn::JumpIfFalse { cond, target } => {
                    if !regs[*cond as usize].as_bool() {
                        pc = *target as usize;
                        continue;
                    }
                }
                Insn::Jump { target } => {
                    pc = *target as usize;
                    continue;
                }
            }
            pc += 1;
        }
        Ok(())
    }

    // ----- memlet access ------------------------------------------------

    /// Reads the elements a memlet delivers into `out`, with the tree-walk
    /// engine's error order: unknown data, then symbolic evaluation, then
    /// out-of-bounds, then empty-volume, then the step tick.
    fn read_plan(
        &mut self,
        plan: &'p MemPlan,
        ctx: &mut RunCtx<'_>,
        out: &mut Vec<Scalar>,
        context: &str,
    ) -> Result<(), ExecError> {
        let i = plan.data.idx();
        if !self.a.live[i] {
            return Err(ExecError::UnknownData(self.prog.data.names[i].clone()));
        }
        let arr = self.a.arrays[i].take().expect("live slot holds a buffer");
        let mut point = std::mem::take(&mut self.a.point);
        let mut dims = std::mem::take(&mut self.a.dims_buf);
        let res = self.read_plan_inner(plan, ctx, out, context, &arr, &mut point, &mut dims);
        self.a.point = point;
        self.a.dims_buf = dims;
        self.a.arrays[i] = Some(arr);
        res
    }

    #[allow(clippy::too_many_arguments)]
    fn read_plan_inner(
        &mut self,
        plan: &'p MemPlan,
        ctx: &mut RunCtx<'_>,
        out: &mut Vec<Scalar>,
        context: &str,
        arr: &ArrayValue,
        point: &mut Vec<i64>,
        dims: &mut Vec<ConcreteRange>,
    ) -> Result<(), ExecError> {
        match &plan.kind {
            MemKind::Single(idxs) => {
                point.clear();
                for (start, end) in idxs {
                    let v = self.eval_idx(start)?;
                    self.check_end(v, end)?;
                    point.push(v);
                }
                let off =
                    fuzzyflow_ir::DataDesc::linearize(arr.shape(), point).ok_or_else(|| {
                        ExecError::OutOfBounds {
                            data: self.prog.data.names[plan.data.idx()].clone(),
                            point: point.clone(),
                            shape: arr.shape().to_vec(),
                        }
                    })?;
                out.push(arr.get(off));
                ctx.tick(1)?;
            }
            MemKind::Ranges(rps) => {
                dims.clear();
                for rp in rps {
                    let r = self.eval_range(rp)?;
                    dims.push(r);
                }
                iter_points(dims, point, |p| {
                    let off =
                        fuzzyflow_ir::DataDesc::linearize(arr.shape(), p).ok_or_else(|| {
                            ExecError::OutOfBounds {
                                data: self.prog.data.names[plan.data.idx()].clone(),
                                point: p.to_vec(),
                                shape: arr.shape().to_vec(),
                            }
                        })?;
                    out.push(arr.get(off));
                    Ok(())
                })?;
                if out.is_empty() {
                    return Err(ExecError::VolumeMismatch {
                        context: context.to_string(),
                        expected: 1,
                        actual: 0,
                    });
                }
                ctx.tick(out.len() as u64)?;
            }
        }
        Ok(())
    }

    /// Writes `vals` through a memlet, applying WCR; error order matches
    /// the tree-walk engine: symbolic evaluation, then volume mismatch,
    /// then the tick, then unknown data, then per-point bounds.
    fn write_plan(
        &mut self,
        plan: &'p MemPlan,
        ctx: &mut RunCtx<'_>,
        vals: &[Scalar],
        context: &str,
    ) -> Result<(), ExecError> {
        let mut point = std::mem::take(&mut self.a.point);
        let mut dims = std::mem::take(&mut self.a.dims_buf);
        let res = self.write_plan_inner(plan, ctx, vals, context, &mut point, &mut dims);
        self.a.point = point;
        self.a.dims_buf = dims;
        res
    }

    fn write_plan_inner(
        &mut self,
        plan: &'p MemPlan,
        ctx: &mut RunCtx<'_>,
        vals: &[Scalar],
        context: &str,
        point: &mut Vec<i64>,
        dims: &mut Vec<ConcreteRange>,
    ) -> Result<(), ExecError> {
        let volume = match &plan.kind {
            MemKind::Single(idxs) => {
                point.clear();
                for (start, end) in idxs {
                    let v = self.eval_idx(start)?;
                    self.check_end(v, end)?;
                    point.push(v);
                }
                1usize
            }
            MemKind::Ranges(rps) => {
                dims.clear();
                for rp in rps {
                    let r = self.eval_range(rp)?;
                    dims.push(r);
                }
                dims.iter().map(|d| d.len()).product()
            }
        };
        if volume != vals.len() {
            return Err(ExecError::VolumeMismatch {
                context: context.to_string(),
                expected: volume,
                actual: vals.len(),
            });
        }
        ctx.tick(volume as u64)?;
        let i = plan.data.idx();
        if !self.a.live[i] {
            return Err(ExecError::UnknownData(self.prog.data.names[i].clone()));
        }
        let mut arr = self.a.arrays[i].take().expect("live slot holds a buffer");
        let name = &self.prog.data.names[i];
        let res =
            (|| -> Result<(), ExecError> {
                match &plan.kind {
                    MemKind::Single(_) => {
                        let off = fuzzyflow_ir::DataDesc::linearize(arr.shape(), point)
                            .ok_or_else(|| ExecError::OutOfBounds {
                                data: name.clone(),
                                point: point.clone(),
                                shape: arr.shape().to_vec(),
                            })?;
                        let stored = match plan.wcr {
                            None => vals[0],
                            Some(wcr) => combine_wcr(wcr, arr.get(off), vals[0]),
                        };
                        arr.set(off, stored);
                        Ok(())
                    }
                    MemKind::Ranges(_) => {
                        let mut k = 0usize;
                        iter_points(dims, point, |p| {
                            let off = fuzzyflow_ir::DataDesc::linearize(arr.shape(), p)
                                .ok_or_else(|| ExecError::OutOfBounds {
                                    data: name.clone(),
                                    point: p.to_vec(),
                                    shape: arr.shape().to_vec(),
                                })?;
                            let v = vals[k];
                            k += 1;
                            let stored = match plan.wcr {
                                None => v,
                                Some(wcr) => combine_wcr(wcr, arr.get(off), v),
                            };
                            arr.set(off, stored);
                            Ok(())
                        })
                    }
                }
            })();
        self.a.arrays[i] = Some(arr);
        res
    }

    /// Per-dimension block lengths of a memlet's concrete subset
    /// (tree-walk `block_dims`), evaluated without touching the array.
    fn eval_block_dims(&mut self, plan: &'p MemPlan, out: &mut Vec<i64>) -> Result<(), ExecError> {
        match &plan.kind {
            MemKind::Single(idxs) => {
                for (start, end) in idxs {
                    let v = self.eval_idx(start)?;
                    self.check_end(v, end)?;
                    out.push(1);
                }
            }
            MemKind::Ranges(rps) => {
                for rp in rps {
                    let r = self.eval_range(rp)?;
                    out.push(r.len() as i64);
                }
            }
        }
        Ok(())
    }

    // ----- expression evaluation ----------------------------------------

    /// Validates a single-index dimension's end expression given the
    /// start's value; see [`EndCheck`] for the parity argument.
    #[inline]
    fn check_end(&mut self, start: i64, end: &EndCheck) -> Result<(), ExecError> {
        match end {
            EndCheck::IncOfStart => {
                if start == i64::MAX {
                    return Err(ExecError::Sym(SymError::Overflow));
                }
                Ok(())
            }
            EndCheck::Eval(ic) => self.eval_idx(ic).map(|_| ()),
        }
    }

    #[inline]
    fn eval_idx(&mut self, ic: &IdxCode) -> Result<i64, ExecError> {
        match ic {
            IdxCode::Const(v) => Ok(*v),
            IdxCode::Sym(id) => self.a.syms[id.idx()].ok_or_else(|| {
                ExecError::Sym(SymError::Unbound(self.prog.syms.names[id.idx()].clone()))
            }),
            IdxCode::Affine(terms) => {
                let mut acc = 0i64;
                for (k, t) in terms.iter().enumerate() {
                    let v = match t.sym {
                        None => t.coeff,
                        Some(id) => {
                            let s = self.a.syms[id.idx()].ok_or_else(|| {
                                ExecError::Sym(SymError::Unbound(
                                    self.prog.syms.names[id.idx()].clone(),
                                ))
                            })?;
                            t.coeff
                                .checked_mul(s)
                                .ok_or(ExecError::Sym(SymError::Overflow))?
                        }
                    };
                    acc = if k == 0 {
                        v
                    } else if t.sub {
                        acc.checked_sub(v)
                            .ok_or(ExecError::Sym(SymError::Overflow))?
                    } else {
                        acc.checked_add(v)
                            .ok_or(ExecError::Sym(SymError::Overflow))?
                    };
                }
                Ok(acc)
            }
            IdxCode::Code(code) => self.eval_code(code),
        }
    }

    fn eval_code(&mut self, code: &SymCode) -> Result<i64, ExecError> {
        let mut stack = std::mem::take(&mut self.a.stack);
        stack.clear();
        let res = eval_sym_ops(&code.ops, &self.a.syms, &self.prog.syms.names, &mut stack);
        self.a.stack = stack;
        res
    }

    fn eval_range(&mut self, rp: &RangePlan) -> Result<ConcreteRange, ExecError> {
        let start = self.eval_idx(&rp.start)?;
        let end = self.eval_idx(&rp.end)?;
        let step = self.eval_idx(&rp.step)?;
        if step <= 0 {
            return Err(ExecError::Sym(SymError::InvalidStep(step)));
        }
        Ok(ConcreteRange { start, end, step })
    }

    fn eval_cond(&mut self, c: &CondPlan) -> Result<bool, ExecError> {
        Ok(match c {
            CondPlan::True => true,
            CondPlan::Cmp(op, a, b) => {
                let (x, y) = (self.eval_idx(a)?, self.eval_idx(b)?);
                match op {
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Gt => x > y,
                    CmpOp::Ge => x >= y,
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                }
            }
            CondPlan::Not(x) => !self.eval_cond(x)?,
            CondPlan::And(l, r) => self.eval_cond(l)? && self.eval_cond(r)?,
            CondPlan::Or(l, r) => self.eval_cond(l)? || self.eval_cond(r)?,
        })
    }
}

/// Row-major iteration over the points of concrete ranges, reusing the
/// caller's point buffer (no per-point allocation). Calls `f` for every
/// covered multi-index; empty ranges yield no points, a zero-rank subset
/// yields exactly one.
fn iter_points(
    dims: &[ConcreteRange],
    point: &mut Vec<i64>,
    mut f: impl FnMut(&[i64]) -> Result<(), ExecError>,
) -> Result<(), ExecError> {
    if dims.iter().any(|d| d.is_empty()) {
        return Ok(());
    }
    point.clear();
    point.extend(dims.iter().map(|d| d.start));
    loop {
        f(point)?;
        // Advance odometer from the last dimension.
        let mut d = dims.len();
        loop {
            if d == 0 {
                return Ok(());
            }
            d -= 1;
            point[d] += dims[d].step;
            if point[d] < dims[d].end {
                break;
            }
            point[d] = dims[d].start;
        }
    }
}

/// Exact interval analysis of one fused affine subscript over a concrete
/// iteration box, mirroring the left-to-right checked evaluation of
/// [`Executor::eval_idx`]: per-term products and every prefix sum are
/// bounded over the box (affine functions attain their extremes at box
/// corners), so a `Some` result proves no element's evaluation can
/// overflow or hit an unbound symbol. Returns `(value at the box origin,
/// interval low, interval high)` and fills `net` with the subscript's net
/// coefficient per map dimension. `None` means "might error somewhere" —
/// the caller falls back to per-element execution.
fn analyze_fused_idx(
    fidx: &FusedIdx,
    dims: &[ConcreteRange],
    syms: &[Option<i64>],
    net: &mut [i128],
) -> Option<(i64, i128, i128)> {
    for n in net.iter_mut() {
        *n = 0;
    }
    let fits = |v: i128| v >= i64::MIN as i128 && v <= i64::MAX as i128;
    let (mut lo, mut hi, mut base) = (0i128, 0i128, 0i128);
    for (k, t) in fidx.terms.iter().enumerate() {
        let c = t.coeff as i128;
        let (vlo, vhi, vbase, pd) = match t.var {
            FusedVar::None => (c, c, c, None),
            FusedVar::Outer(id) => {
                let s = syms[id.idx()]? as i128;
                let p = c * s;
                if !fits(p) {
                    return None;
                }
                (p, p, p, None)
            }
            FusedVar::Param(d) => {
                let r = &dims[d];
                let first = r.start as i128;
                let last = first + (r.len() as i128 - 1) * r.step as i128;
                let (p1, p2) = (c * first, c * last);
                if !fits(p1) || !fits(p2) {
                    return None;
                }
                (p1.min(p2), p1.max(p2), p1, Some(d))
            }
        };
        if k == 0 {
            (lo, hi, base) = (vlo, vhi, vbase);
        } else if t.sub {
            (lo, hi, base) = (lo - vhi, hi - vlo, base - vbase);
        } else {
            (lo, hi, base) = (lo + vlo, hi + vhi, base + vbase);
        }
        if !fits(lo) || !fits(hi) {
            return None;
        }
        if let Some(d) = pd {
            net[d] += if t.sub && k > 0 { -c } else { c };
        }
    }
    Some((base as i64, lo, hi))
}

/// The native code of a statically eligible kernel, emitted by the
/// first run that asks (concurrent first runs wait for that one emission)
/// and borrowed by every later run. `None` when the OS refused executable
/// pages — the caller falls back to the chunk loop (or per element).
fn jit_code_for<'p>(
    fk: &'p FusedKernel,
    lay: &crate::jit::lower::JitLayout,
) -> Option<&'p crate::jit::JitCode> {
    fk.native_code
        .get_or_init(|| {
            let code = crate::jit::JitCode::publish(&crate::jit::lower::emit(fk, lay))?;
            crate::jit::count_emission(code.code_len());
            Some(Arc::new(code))
        })
        .as_deref()
}

/// Runtime half of packed-JIT eligibility: the emitted lane-pair loads
/// and stores assume the synthetic lane dimension is walked at unit
/// stride (broadcast inputs at stride 0). A run whose concrete subsets
/// spread the lanes any other way — including a statically spanned read
/// that collapses to volume 1 at this shape — falls back per-kernel to
/// the chunk loop, or for select bodies per element
/// (`JitReject::NonUnitStrideLanes`). Scalar blobs
/// have no lane dimension and always pass.
fn jit_lane_strides_ok(
    fk: &FusedKernel,
    lay: &crate::jit::lower::JitLayout,
    strides: &[i64],
    n_dims: usize,
) -> bool {
    if lay.lanes == 1 {
        return true;
    }
    let lane = n_dims - 1;
    let n_in = fk.inputs.len();
    for (ii, slot) in lay.in_ptr.iter().enumerate() {
        if slot.is_none() {
            continue;
        }
        let st = strides[ii * n_dims + lane];
        if st != if lay.in_bcast[ii] { 0 } else { 1 } {
            return false;
        }
    }
    (0..fk.outputs.len()).all(|oi| strides[(n_in + oi) * n_dims + lane] == 1)
}

/// Drives a natively compiled kernel over the iteration box: the Rust
/// side walks the outer odometer exactly like [`run_fused_loop`] and the
/// emitted code executes one inner row per call, reading pointers,
/// strides and parameter values from the frame (see
/// [`crate::jit::lower::JitLayout`]). `inner` is the row dimension —
/// the innermost dim for scalar blobs, the innermost *real* dim for
/// packed blobs (which unroll the synthetic lane dim internally).
/// Bit-identical to the chunk loop by the lowering's construction;
/// the precheck's no-error proof is what makes handing raw row pointers
/// to machine code sound.
#[allow(clippy::too_many_arguments)]
fn run_fused_jit(
    fk: &FusedKernel,
    lay: &crate::jit::lower::JitLayout,
    code: &crate::jit::JitCode,
    inner: usize,
    dims: &[ConcreteRange],
    bases: &[i64],
    strides: &[i64],
    syms: &[Option<i64>],
    arrays: &[Option<ArrayValue>],
    outs: &mut [ArrayValue],
    frame: &mut Vec<u64>,
    k: &mut [i64],
) {
    let n_dims = dims.len();
    let inner_r = dims[inner];
    let n_in = fk.inputs.len();
    frame.clear();
    frame.resize(lay.frame_words, 0);
    frame[0] = inner_r.len() as u64;
    frame[1] = inner_r.start as u64;
    frame[2] = inner_r.step as u64;
    for (ii, slot) in lay.in_ptr.iter().enumerate() {
        if let Some(slot) = slot {
            frame[lay.stride_word(*slot)] = (strides[ii * n_dims + inner] * 8) as u64;
        }
    }
    for (oi, slot) in lay.out_ptr.iter().enumerate() {
        frame[lay.stride_word(*slot)] = (strides[(n_in + oi) * n_dims + inner] * 8) as u64;
    }
    for (si, sym) in lay.sym_slots.iter().enumerate() {
        let v = syms[sym.idx()].expect("precheck resolved symbol") as f64;
        frame[lay.sym_word(si)] = v.to_bits();
    }
    // Pointer and outer-parameter words are maintained incrementally:
    // written once for the box origin (`k` arrives all-zero), then
    // stepped inside the odometer — an incrementing digit adds one
    // stride to each pointer word, a rolling digit takes back the
    // strides it accumulated. Per row that is O(accesses) work on the
    // digits that changed instead of an O(accesses × dims) offset
    // recompute; word values stay bit-identical to the recompute
    // because stride sums and parameter values are exact in i64.
    debug_assert!(k.iter().all(|&v| v == 0), "odometer scratch not reset");
    for (ii, slot) in lay.in_ptr.iter().enumerate() {
        let Some(slot) = slot else { continue };
        if fk.in_place[ii].is_some() {
            continue;
        }
        let ins = fused_input(fk, arrays, ii);
        // SAFETY: the row's first element is an accessed element of the
        // box, proven in-bounds by the precheck.
        frame[lay.ptr_word(*slot)] = unsafe { ins.as_ptr().offset(bases[ii] as isize) } as u64;
    }
    for (oi, slot) in lay.out_ptr.iter().enumerate() {
        // One `as_mut_ptr()` per output: its in-place reads derive their
        // pointers from the same borrow as the writes.
        let buf = fused_output(&mut outs[oi]).as_mut_ptr();
        // SAFETY: as above, for the write set and its in-place reads.
        frame[lay.ptr_word(*slot)] = unsafe { buf.offset(bases[n_in + oi] as isize) } as u64;
        for (ii, islot) in lay.in_ptr.iter().enumerate() {
            if let (Some(islot), Some(o)) = (islot, fk.in_place[ii]) {
                if o == oi {
                    // SAFETY: as above; the read's subset is the write's.
                    frame[lay.ptr_word(*islot)] = unsafe { buf.offset(bases[ii] as isize) } as u64;
                }
            }
        }
    }
    for d in 0..inner {
        frame[lay.param_word(d)] = (dims[d].start as f64).to_bits();
    }
    // SAFETY: the entry was emitted for exactly this layout (the kernel
    // carries both), and the mapping stays RX while the kernel that owns
    // it lives — the executor borrows its program for the whole run.
    let f = unsafe { code.entry() };
    'rows: loop {
        // SAFETY: every pointer slot addresses live, in-bounds f64
        // storage for its row (maintained by the odometer below). A read
        // pointer either addresses a container no output writes, or is
        // an in-place read whose element is the one its paired output
        // writes — both derived from one `as_mut_ptr()`, and the emitted
        // element loads its inputs before it stores.
        unsafe { f(frame.as_mut_ptr()) };
        let mut d = inner;
        loop {
            if d == 0 {
                break 'rows;
            }
            d -= 1;
            k[d] += 1;
            let rolled = k[d] >= dims[d].len() as i64;
            // +1 stride on an increment; a roll walks the digit back to
            // the start of its dimension (len - 1 strides, exactly what
            // the increments deposited).
            let units = if rolled { 1 - k[d] } else { 1 };
            for (ii, slot) in lay.in_ptr.iter().enumerate() {
                let Some(slot) = slot else { continue };
                let w = lay.ptr_word(*slot);
                frame[w] = frame[w].wrapping_add((units * strides[ii * n_dims + d] * 8) as u64);
            }
            for (oi, slot) in lay.out_ptr.iter().enumerate() {
                let w = lay.ptr_word(*slot);
                frame[w] =
                    frame[w].wrapping_add((units * strides[(n_in + oi) * n_dims + d] * 8) as u64);
            }
            if rolled {
                k[d] = 0;
            }
            frame[lay.param_word(d)] = ((dims[d].start + k[d] * dims[d].step) as f64).to_bits();
            if !rolled {
                break;
            }
        }
    }
}

/// The payload fused input access `ii` reads: its container's arena
/// slot. In-place inputs read their output's buffer instead (the slot is
/// empty while the kernel runs).
fn fused_input<'a>(fk: &FusedKernel, arrays: &'a [Option<ArrayValue>], ii: usize) -> &'a [f64] {
    arrays[fk.inputs[ii].data.idx()]
        .as_ref()
        .expect("guarded slot holds a buffer")
        .as_f64_slice()
        .expect("guarded dtype is F64")
}

/// The payload a fused kernel writes through.
fn fused_output(arr: &mut ArrayValue) -> &mut [f64] {
    arr.as_f64_slice_mut().expect("guarded dtype is F64")
}

/// The row walker of the chunk loop: iterates every dimension but the
/// innermost with an odometer over the scratch digits `k` (all zero on
/// entry and on return) and calls `body(row, params)` once per row, in
/// row-major order — `row[a]` the linear offset of access `a`'s first
/// element in the row (hoisted base plus outer strides),
/// `params[..inner]` the outer map-parameter values.
fn for_each_row(
    dims: &[ConcreteRange],
    bases: &[i64],
    strides: &[i64],
    (k, params, row): (&mut [i64], &mut [f64], &mut [i64]),
    mut body: impl FnMut(&[i64], &mut [f64]),
) {
    let n_dims = dims.len();
    let inner = n_dims - 1;
    'rows: loop {
        for (a, r) in row.iter_mut().enumerate() {
            let mut off = bases[a];
            for d in 0..inner {
                off += k[d] * strides[a * n_dims + d];
            }
            *r = off;
        }
        for d in 0..inner {
            params[d] = (dims[d].start + k[d] * dims[d].step) as f64;
        }
        body(row, params);
        let mut d = inner;
        loop {
            if d == 0 {
                break 'rows;
            }
            d -= 1;
            k[d] += 1;
            if k[d] < dims[d].len() as i64 {
                break;
            }
            k[d] = 0;
        }
    }
}

/// The strength-reduced, lane-chunked fused loop: walks the rows (see
/// [`for_each_row`]), steps raw linear offsets by constant strides, and
/// runs the straight-line body over chunks of [`LANES`] elements of the
/// innermost dimension (unit-stride accesses move as slice copies;
/// scatter loops run in lane order, so repeated offsets and WCR
/// accumulation combine in exact element order).
#[allow(clippy::too_many_arguments)]
fn run_fused_loop(
    fk: &FusedKernel,
    dims: &[ConcreteRange],
    bases: &[i64],
    strides: &[i64],
    syms: &[Option<i64>],
    arrays: &[Option<ArrayValue>],
    outs: &mut [ArrayValue],
    rf: &mut [[f64; LANES]],
    rb: &mut [[bool; LANES]],
    scratch: (&mut [i64], &mut [f64], &mut [i64]),
) {
    let n_dims = dims.len();
    let inner = n_dims - 1;
    let inner_r = dims[inner];
    let inner_len = inner_r.len();
    let n_in = fk.inputs.len();
    for_each_row(dims, bases, strides, scratch, |row, outer_vals| {
        let mut j = 0usize;
        while j < inner_len {
            let cl = LANES.min(inner_len - j);
            let mut inner_vals = [0f64; LANES];
            for (l, v) in inner_vals[..cl].iter_mut().enumerate() {
                *v = (inner_r.start + (j + l) as i64 * inner_r.step) as f64;
            }
            for ii in 0..n_in {
                let Some(reg) = fk.in_regs[ii] else { continue };
                // The whole chunk is read before any of it is written, and
                // an in-place element's location is its own.
                let s: &[f64] = match fk.in_place[ii] {
                    Some(oi) => outs[oi].as_f64_slice().expect("guarded dtype is F64"),
                    None => fused_input(fk, arrays, ii),
                };
                let st = strides[ii * n_dims + inner];
                let base = row[ii];
                let lanes = &mut rf[reg as usize];
                if st == 1 {
                    let off = (base + j as i64) as usize;
                    lanes[..cl].copy_from_slice(&s[off..off + cl]);
                } else if st == 0 {
                    let v = s[base as usize];
                    lanes[..cl].fill(v);
                } else {
                    for (l, lane) in lanes[..cl].iter_mut().enumerate() {
                        *lane = s[(base + (j + l) as i64 * st) as usize];
                    }
                }
            }
            run_fk_chunk(&fk.code, rf, rb, syms, outer_vals, &inner_vals, inner);
            for (oi, acc) in fk.outputs.iter().enumerate() {
                let (reg, from_bool) = fk.out_regs[oi];
                let st = strides[(n_in + oi) * n_dims + inner];
                let base = row[n_in + oi];
                let out = fused_output(&mut outs[oi]);
                if acc.wcr.is_none() && !from_bool && st == 1 {
                    let off = (base + j as i64) as usize;
                    out[off..off + cl].copy_from_slice(&rf[reg as usize][..cl]);
                    continue;
                }
                for l in 0..cl {
                    let off = (base + (j + l) as i64 * st) as usize;
                    let v = if from_bool {
                        rb[reg as usize][l] as u8 as f64
                    } else {
                        rf[reg as usize][l]
                    };
                    out[off] = match acc.wcr {
                        None => v,
                        Some(Wcr::Sum) => out[off] + v,
                        Some(Wcr::Prod) => out[off] * v,
                        Some(Wcr::Max) => out[off].max(v),
                        Some(Wcr::Min) => out[off].min(v),
                    };
                }
            }
            j += cl;
        }
    });
}

/// Executes the straight-line fused body over one lane chunk. Every op
/// runs all [`LANES`] lanes (tail lanes hold stale values that cannot
/// fault and are never scattered), as fixed-width loops the compiler
/// autovectorizes.
fn run_fk_chunk(
    code: &[FInsn],
    rf: &mut [[f64; LANES]],
    rb: &mut [[bool; LANES]],
    syms: &[Option<i64>],
    outer_vals: &[f64],
    inner_vals: &[f64; LANES],
    inner: usize,
) {
    for insn in code {
        match insn {
            FInsn::ConstF { dst, val } => rf[*dst as usize] = [*val; LANES],
            FInsn::ConstB { dst, val } => rb[*dst as usize] = [*val; LANES],
            FInsn::MovF { dst, src } => rf[*dst as usize] = rf[*src as usize],
            FInsn::MovB { dst, src } => rb[*dst as usize] = rb[*src as usize],
            FInsn::LoadSymF { dst, sym } => {
                let v = syms[sym.idx()].expect("precheck resolved symbol") as f64;
                rf[*dst as usize] = [v; LANES];
            }
            FInsn::LoadParamF { dst, dim } => {
                rf[*dst as usize] = if *dim as usize == inner {
                    *inner_vals
                } else {
                    [outer_vals[*dim as usize]; LANES]
                };
            }
            FInsn::BinF { op, dst, a, b } => {
                let (x, y) = (rf[*a as usize], rf[*b as usize]);
                let o = &mut rf[*dst as usize];
                let lanes = o.iter_mut().zip(&x).zip(&y);
                match op {
                    BinOp::Add => lanes.for_each(|((o, x), y)| *o = x + y),
                    BinOp::Sub => lanes.for_each(|((o, x), y)| *o = x - y),
                    BinOp::Mul => lanes.for_each(|((o, x), y)| *o = x * y),
                    BinOp::Div => lanes.for_each(|((o, x), y)| *o = x / y),
                    BinOp::Mod => lanes.for_each(|((o, x), y)| *o = x.rem_euclid(*y)),
                    BinOp::Min => lanes.for_each(|((o, x), y)| *o = x.min(*y)),
                    BinOp::Max => lanes.for_each(|((o, x), y)| *o = x.max(*y)),
                    BinOp::Pow => lanes.for_each(|((o, x), y)| *o = x.powf(*y)),
                    BinOp::And | BinOp::Or => unreachable!("lowered to AndB/OrB"),
                }
            }
            FInsn::UnF { op, dst, a } => {
                let x = rf[*a as usize];
                let o = &mut rf[*dst as usize];
                let lanes = o.iter_mut().zip(&x);
                match op {
                    UnOp::Neg => lanes.for_each(|(o, x)| *o = -x),
                    UnOp::Abs => lanes.for_each(|(o, x)| *o = x.abs()),
                    UnOp::Sqrt => lanes.for_each(|(o, x)| *o = x.sqrt()),
                    UnOp::Exp => lanes.for_each(|(o, x)| *o = x.exp()),
                    UnOp::Log => lanes.for_each(|(o, x)| *o = x.ln()),
                    UnOp::Floor => lanes.for_each(|(o, x)| *o = x.floor()),
                    UnOp::Ceil => lanes.for_each(|(o, x)| *o = x.ceil()),
                    UnOp::Tanh => lanes.for_each(|(o, x)| *o = x.tanh()),
                    UnOp::Not => unreachable!("lowered to NotB"),
                }
            }
            FInsn::CmpF { op, dst, a, b } => {
                let (x, y) = (rf[*a as usize], rf[*b as usize]);
                let o = &mut rb[*dst as usize];
                let lanes = o.iter_mut().zip(&x).zip(&y);
                match op {
                    CmpOp::Lt => lanes.for_each(|((o, x), y)| *o = x < y),
                    CmpOp::Le => lanes.for_each(|((o, x), y)| *o = x <= y),
                    CmpOp::Gt => lanes.for_each(|((o, x), y)| *o = x > y),
                    CmpOp::Ge => lanes.for_each(|((o, x), y)| *o = x >= y),
                    CmpOp::Eq => lanes.for_each(|((o, x), y)| *o = x == y),
                    CmpOp::Ne => lanes.for_each(|((o, x), y)| *o = x != y),
                }
            }
            FInsn::NotB { dst, a } => {
                let x = rb[*a as usize];
                rb[*dst as usize]
                    .iter_mut()
                    .zip(&x)
                    .for_each(|(o, x)| *o = !x);
            }
            FInsn::AndB { dst, a, b } => {
                let (x, y) = (rb[*a as usize], rb[*b as usize]);
                rb[*dst as usize]
                    .iter_mut()
                    .zip(&x)
                    .zip(&y)
                    .for_each(|((o, x), y)| *o = *x && *y);
            }
            FInsn::OrB { dst, a, b } => {
                let (x, y) = (rb[*a as usize], rb[*b as usize]);
                rb[*dst as usize]
                    .iter_mut()
                    .zip(&x)
                    .zip(&y)
                    .for_each(|((o, x), y)| *o = *x || *y);
            }
            FInsn::BoolFromF { reg } => {
                let x = rf[*reg as usize];
                rb[*reg as usize]
                    .iter_mut()
                    .zip(&x)
                    .for_each(|(o, x)| *o = *x != 0.0);
            }
            FInsn::FloatFromB { dst, src } => {
                let x = rb[*src as usize];
                rf[*dst as usize]
                    .iter_mut()
                    .zip(&x)
                    .for_each(|(o, x)| *o = *x as u8 as f64);
            }
            FInsn::JumpIfFalse { .. } | FInsn::Jump { .. } => {
                unreachable!("select bodies run natively or per element")
            }
        }
    }
}

/// Postfix evaluation of a compiled symbolic expression, with the same
/// error semantics as [`SymExpr::eval`].
fn eval_sym_ops(
    ops: &[SymOp],
    syms: &[Option<i64>],
    names: &[String],
    stack: &mut Vec<i64>,
) -> Result<i64, ExecError> {
    for op in ops {
        match op {
            SymOp::Push(v) => stack.push(*v),
            SymOp::Load(id) => match syms[id.idx()] {
                Some(v) => stack.push(v),
                None => return Err(ExecError::Sym(SymError::Unbound(names[id.idx()].clone()))),
            },
            SymOp::Add => {
                let b = stack.pop().expect("stack");
                let a = stack.pop().expect("stack");
                stack.push(a.checked_add(b).ok_or(ExecError::Sym(SymError::Overflow))?);
            }
            SymOp::Sub => {
                let b = stack.pop().expect("stack");
                let a = stack.pop().expect("stack");
                stack.push(a.checked_sub(b).ok_or(ExecError::Sym(SymError::Overflow))?);
            }
            SymOp::Mul => {
                let b = stack.pop().expect("stack");
                let a = stack.pop().expect("stack");
                stack.push(a.checked_mul(b).ok_or(ExecError::Sym(SymError::Overflow))?);
            }
            SymOp::EnsureNonZero => {
                if *stack.last().expect("stack") == 0 {
                    return Err(ExecError::Sym(SymError::DivisionByZero));
                }
            }
            SymOp::DivE => {
                let a = stack.pop().expect("stack");
                let b = stack.pop().expect("stack");
                stack.push(
                    a.checked_div_euclid(b)
                        .ok_or(ExecError::Sym(SymError::Overflow))?,
                );
            }
            SymOp::ModE => {
                let a = stack.pop().expect("stack");
                let b = stack.pop().expect("stack");
                stack.push(
                    a.checked_rem_euclid(b)
                        .ok_or(ExecError::Sym(SymError::Overflow))?,
                );
            }
            SymOp::Min => {
                let b = stack.pop().expect("stack");
                let a = stack.pop().expect("stack");
                stack.push(a.min(b));
            }
            SymOp::Max => {
                let b = stack.pop().expect("stack");
                let a = stack.pop().expect("stack");
                stack.push(a.max(b));
            }
            SymOp::Neg => {
                let a = stack.pop().expect("stack");
                stack.push(a.checked_neg().ok_or(ExecError::Sym(SymError::Overflow))?);
            }
        }
    }
    Ok(stack.pop().expect("expression leaves one value"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzyflow_ir::{
        sym, Memlet, ScalarExpr, Schedule, SdfgBuilder, Subset, SymExpr, SymRange, Tasklet, Wcr,
    };

    /// `(total tasklets, specialized tasklets)` across all blocks.
    fn count_fast(p: &Program) -> (usize, usize) {
        fn walk(b: &BlockPlan, n: &mut usize, f: &mut usize) {
            for s in &b.steps {
                match s {
                    Step::Tasklet(tp) => {
                        *n += 1;
                        if tp.fast.is_some() {
                            *f += 1;
                        }
                    }
                    Step::Map(mp) => walk(&mp.body, n, f),
                    _ => {}
                }
            }
        }
        let (mut n, mut f) = (0, 0);
        for st in &p.states {
            walk(&st.body, &mut n, &mut f);
        }
        (n, f)
    }

    fn mapped(body: ScalarExpr) -> Sdfg {
        let mut b = SdfgBuilder::new("spec");
        b.symbol("N");
        b.array("A", DType::F64, &["N"]);
        b.array("B", DType::F64, &["N"]);
        let st = b.start();
        b.in_state(st, |df| {
            let a = df.access("A");
            let o = df.access("B");
            let body = body.clone();
            let m = df.map(
                &["i"],
                vec![SymRange::full(sym("N"))],
                Schedule::Parallel,
                move |mb| {
                    let a = mb.access("A");
                    let o = mb.access("B");
                    let t = mb.tasklet(Tasklet::simple("t", vec!["x"], "y", body.clone()));
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

    #[test]
    fn eligible_f64_tasklets_are_specialized() {
        // The canonical hot-loop shapes must all specialize.
        for body in [
            ScalarExpr::r("x").mul(ScalarExpr::f64(2.0)),
            ScalarExpr::r("x")
                .mul(ScalarExpr::f64(2.0))
                .add(ScalarExpr::r("i")),
            ScalarExpr::r("x").div(ScalarExpr::r("N").sqrt()),
            ScalarExpr::r("x")
                .lt(ScalarExpr::f64(0.0))
                .select(ScalarExpr::r("x").neg(), ScalarExpr::r("x")),
        ] {
            let p = Program::compile(&mapped(body.clone()));
            assert_eq!(count_fast(&p), (1, 1), "{body:?} should specialize");
        }
    }

    #[test]
    fn integer_operated_tasklets_stay_generic() {
        // Integer-integer arithmetic wraps in the generic engine; the
        // eligibility pass must refuse to lower it to float math.
        for body in [
            ScalarExpr::r("i")
                .add(ScalarExpr::i64(1))
                .add(ScalarExpr::r("x")),
            ScalarExpr::r("i")
                .div(ScalarExpr::i64(2))
                .add(ScalarExpr::r("x")),
            ScalarExpr::r("x").add(ScalarExpr::r("i").neg()),
        ] {
            let p = Program::compile(&mapped(body.clone()));
            assert_eq!(count_fast(&p), (1, 0), "{body:?} must stay generic");
        }
    }

    #[test]
    fn non_f64_containers_stay_generic() {
        let mut b = SdfgBuilder::new("i64io");
        b.symbol("N");
        b.array("A", DType::I64, &["N"]);
        b.array("B", DType::F64, &["N"]);
        let st = b.start();
        b.in_state(st, |df| {
            let a = df.access("A");
            let o = df.access("B");
            let t = df.tasklet(Tasklet::simple(
                "t",
                vec!["x"],
                "y",
                ScalarExpr::r("x").mul(ScalarExpr::f64(1.5)),
            ));
            df.read(
                a,
                t,
                Memlet::new("A", Subset::at(vec![fuzzyflow_ir::SymExpr::Int(0)])).to_conn("x"),
            );
            df.write(
                t,
                o,
                Memlet::new("B", Subset::at(vec![fuzzyflow_ir::SymExpr::Int(0)])).from_conn("y"),
            );
        });
        let p = Program::compile(&b.build());
        assert_eq!(count_fast(&p), (1, 0));
    }

    #[test]
    fn specialization_can_be_disabled() {
        let p = Program::compile_with_options(
            &mapped(ScalarExpr::r("x").mul(ScalarExpr::f64(2.0))),
            &CompileOptions {
                specialize_f64: false,
                ..Default::default()
            },
        );
        assert_eq!(count_fast(&p), (1, 0));
    }

    /// Returns the fusion info of every map scope of a compiled program.
    fn fusion(p: &Program) -> Vec<MapFusionInfo> {
        p.tasklet_stats().maps
    }

    #[test]
    fn canonical_elementwise_map_fuses() {
        for body in [
            ScalarExpr::r("x").mul(ScalarExpr::f64(2.0)),
            ScalarExpr::r("x")
                .mul(ScalarExpr::f64(2.0))
                .add(ScalarExpr::r("i")),
            ScalarExpr::r("x").div(ScalarExpr::r("N").sqrt()),
        ] {
            let p = Program::compile(&mapped(body.clone()));
            let maps = fusion(&p);
            assert_eq!(maps.len(), 1);
            assert!(maps[0].fused, "{body:?} should fuse: {:?}", maps[0].reason);
            assert_eq!(maps[0].label, "map[i]");
        }
    }

    #[test]
    fn select_bodies_fuse_with_jump_code() {
        // The PR 4 blocker: jump-based selects now run in-kernel.
        let p = Program::compile(&mapped(
            ScalarExpr::r("x")
                .lt(ScalarExpr::f64(0.0))
                .select(ScalarExpr::r("x").neg(), ScalarExpr::r("x")),
        ));
        let maps = fusion(&p);
        assert!(maps[0].fused, "{:?}", maps[0].reason);
    }

    #[test]
    fn generic_tasklets_do_not_fuse() {
        // Integer-operated body: not f64-specializable, hence not fusable.
        let p = Program::compile(&mapped(
            ScalarExpr::r("i")
                .add(ScalarExpr::i64(1))
                .add(ScalarExpr::r("x")),
        ));
        let maps = fusion(&p);
        assert!(!maps[0].fused);
        assert_eq!(maps[0].reason, Some("tasklet is not f64-specialized"));
    }

    /// `(container, subscript, connector)` of one tasklet read.
    type Read = (&'static str, Vec<SymExpr>, &'static str);

    /// One map over `params`, each in `[0, N)`, whose tasklet computes
    /// `y = body` from `reads` and writes `y` to `write` (container,
    /// subscript, WCR). Every container is `F64` with one `N` extent per
    /// subscript dimension.
    fn one_tasklet_map(
        params: &'static [&'static str],
        reads: Vec<Read>,
        write: (&'static str, Vec<SymExpr>, Option<Wcr>),
        body: ScalarExpr,
    ) -> Sdfg {
        let mut arrays: Vec<(&str, usize)> = Vec::new();
        for (name, rank) in reads
            .iter()
            .map(|r| (r.0, r.1.len()))
            .chain([(write.0, write.1.len())])
        {
            if !arrays.iter().any(|a| a.0 == name) {
                arrays.push((name, rank));
            }
        }
        let mut b = SdfgBuilder::new("one_tasklet");
        b.symbol("N");
        for &(name, rank) in &arrays {
            b.array(name, DType::F64, &vec!["N"; rank]);
        }
        let st = b.start();
        b.in_state(st, move |df| {
            let ins: Vec<_> = arrays
                .iter()
                .filter(|a| reads.iter().any(|r| r.0 == a.0))
                .map(|a| df.access(a.0))
                .collect();
            let out = df.access(write.0);
            let ranges = params.iter().map(|_| SymRange::full(sym("N"))).collect();
            let m = df.map(params, ranges, Schedule::Parallel, move |mb| {
                let conns = reads.iter().map(|r| r.2).collect();
                let t = mb.tasklet(Tasklet::simple("t", conns, "y", body));
                for (name, sub, conn) in reads {
                    let a = mb.access(name);
                    mb.read(a, t, Memlet::new(name, Subset::at(sub)).to_conn(conn));
                }
                let o = mb.access(write.0);
                let mut w = Memlet::new(write.0, Subset::at(write.1)).from_conn("y");
                if let Some(op) = write.2 {
                    w = w.with_wcr(op);
                }
                mb.write(t, o, w);
            });
            df.auto_wire(m, &ins, &[out]);
        });
        b.build()
    }

    #[test]
    fn pointwise_in_place_maps_fuse() {
        // `A[i] = A[i] * 2`: each element reads its own location before
        // writing it, and no other element touches that location.
        let p = Program::compile(&one_tasklet_map(
            &["i"],
            vec![("A", vec![sym("i")], "x")],
            ("A", vec![sym("i")], None),
            ScalarExpr::r("x").mul(ScalarExpr::f64(2.0)),
        ));
        let maps = fusion(&p);
        assert!(maps[0].fused, "{:?}", maps[0].reason);
        if cfg!(all(unix, target_arch = "x86_64")) {
            assert!(maps[0].jit, "{:?}", maps[0].jit_reason);
        }
    }

    #[test]
    fn read_write_overlap_must_not_fuse() {
        // Containers read and written by one scope where an element can
        // observe another element's write: fused execution would diverge.
        let (i, j) = (|| sym("i"), || sym("j"));
        let x2 = || ScalarExpr::r("x").mul(ScalarExpr::f64(2.0));
        let shapes = [
            // Non-injective accumulate: every `j` revisits `s[i]`.
            one_tasklet_map(
                &["i", "j"],
                vec![("s", vec![i()], "x"), ("A", vec![i(), j()], "a")],
                ("s", vec![i()], None),
                ScalarExpr::r("x").add(ScalarExpr::r("a")),
            ),
            // Shifted read: element `i` reads what element `i - 1` wrote.
            one_tasklet_map(
                &["i"],
                vec![("A", vec![i() - SymExpr::Int(1)], "x")],
                ("A", vec![i()], None),
                x2(),
            ),
            // An in-place write with a WCR combiner.
            one_tasklet_map(
                &["i"],
                vec![("A", vec![i()], "x")],
                ("A", vec![i()], Some(Wcr::Sum)),
                x2(),
            ),
            // The write omits map parameter `j`.
            one_tasklet_map(
                &["i", "j"],
                vec![("A", vec![i()], "x")],
                ("A", vec![i()], None),
                x2(),
            ),
            // One dimension names two parameters.
            one_tasklet_map(
                &["i", "j"],
                vec![("A", vec![i() + j()], "x")],
                ("A", vec![i() + j()], None),
                x2(),
            ),
        ];
        for (k, sdfg) in shapes.iter().enumerate() {
            let maps = fusion(&Program::compile(sdfg));
            assert_eq!(
                maps[0].reason,
                Some(FuseReject::Overlap.message()),
                "shape {k}"
            );
        }
    }

    /// `A[i*L .. i*L+L]` — the canonical lane-blocked subset.
    fn lane_sub(l: i64) -> Subset {
        let base = SymExpr::Mul(Box::new(sym("i")), Box::new(SymExpr::Int(l)));
        let end = SymExpr::Add(Box::new(base.clone()), Box::new(SymExpr::Int(l)));
        Subset::new(vec![SymRange::span(base, end)])
    }

    /// `B[out] = A[i*L .. i*L+L] * 2` over `i in [0, N)` with a
    /// `lanes`-wide tasklet body.
    fn lane_mapped(lanes: u32, out: Subset) -> Sdfg {
        let mut b = SdfgBuilder::new("lanes");
        b.symbol("N");
        b.symbol("M");
        b.array("A", DType::F64, &["M"]);
        b.array("B", DType::F64, &["M"]);
        let st = b.start();
        b.in_state(st, move |df| {
            let a = df.access("A");
            let o = df.access("B");
            let out = out.clone();
            let m = df.map(
                &["i"],
                vec![SymRange::full(sym("N"))],
                Schedule::Parallel,
                move |mb| {
                    let a = mb.access("A");
                    let o = mb.access("B");
                    let mut t = Tasklet::simple(
                        "t",
                        vec!["x"],
                        "y",
                        ScalarExpr::r("x").mul(ScalarExpr::f64(2.0)),
                    );
                    t.lanes = lanes;
                    let t = mb.tasklet(t);
                    mb.read(a, t, Memlet::new("A", lane_sub(lanes as i64)).to_conn("x"));
                    mb.write(t, o, Memlet::new("B", out.clone()).from_conn("y"));
                },
            );
            df.auto_wire(m, &[a], &[o]);
        });
        b.build()
    }

    #[test]
    fn vectorized_lane_bodies_fuse() {
        for lanes in [2u32, 4, 8] {
            let p = Program::compile(&lane_mapped(lanes, lane_sub(lanes as i64)));
            let maps = fusion(&p);
            assert!(maps[0].fused, "lanes={lanes}: {:?}", maps[0].reason);
        }
    }

    #[test]
    fn vectorized_single_index_writes_reject() {
        // A lanes=4 tasklet scattering into a one-element memlet can
        // never satisfy the volume contract; reject at compile time.
        let p = Program::compile(&lane_mapped(4, Subset::at(vec![sym("i")])));
        let maps = fusion(&p);
        assert!(!maps[0].fused);
        assert_eq!(maps[0].reason, Some(FuseReject::LaneVolume.message()));
    }

    /// Two-stage pipeline `T[i] = A[i]*2; B[i] = T[reread] + 1` inside one
    /// map scope, with an optional WCR on the intermediate write and
    /// per-stage lane widths.
    fn pipelined(wcr: Option<Wcr>, reread: Subset, lanes: (u32, u32)) -> Sdfg {
        let mut b = SdfgBuilder::new("pipe");
        b.symbol("N");
        b.array("A", DType::F64, &["N"]);
        b.array("T", DType::F64, &["N"]);
        b.array("B", DType::F64, &["N"]);
        let st = b.start();
        b.in_state(st, move |df| {
            let a = df.access("A");
            let tmp = df.access("T");
            let o = df.access("B");
            let reread = reread.clone();
            let m = df.map(
                &["i"],
                vec![SymRange::full(sym("N"))],
                Schedule::Parallel,
                move |mb| {
                    let a = mb.access("A");
                    let tm = mb.access("T");
                    let o = mb.access("B");
                    let mut s1 = Tasklet::simple(
                        "s1",
                        vec!["x"],
                        "y",
                        ScalarExpr::r("x").mul(ScalarExpr::f64(2.0)),
                    );
                    s1.lanes = lanes.0;
                    let mut s2 = Tasklet::simple(
                        "s2",
                        vec!["x"],
                        "y",
                        ScalarExpr::r("x").add(ScalarExpr::f64(1.0)),
                    );
                    s2.lanes = lanes.1;
                    let t1 = mb.tasklet(s1);
                    let t2 = mb.tasklet(s2);
                    mb.read(
                        a,
                        t1,
                        Memlet::new("A", Subset::at(vec![sym("i")])).to_conn("x"),
                    );
                    let mut w = Memlet::new("T", Subset::at(vec![sym("i")])).from_conn("y");
                    if let Some(op) = wcr {
                        w = w.with_wcr(op);
                    }
                    mb.write(t1, tm, w);
                    mb.read(tm, t2, Memlet::new("T", reread.clone()).to_conn("x"));
                    mb.write(
                        t2,
                        o,
                        Memlet::new("B", Subset::at(vec![sym("i")])).from_conn("y"),
                    );
                },
            );
            df.auto_wire(m, &[a], &[tmp, o]);
        });
        b.build()
    }

    #[test]
    fn straight_line_pipelines_fuse() {
        let p = Program::compile(&pipelined(None, Subset::at(vec![sym("i")]), (1, 1)));
        let maps = fusion(&p);
        assert_eq!(maps.len(), 1);
        assert!(maps[0].fused, "{:?}", maps[0].reason);
    }

    #[test]
    fn wcr_intermediates_reject_pipelining() {
        // T accumulates — the reader must observe memory, not the
        // producing tasklet's register.
        let p = Program::compile(&pipelined(
            Some(Wcr::Sum),
            Subset::at(vec![sym("i")]),
            (1, 1),
        ));
        let maps = fusion(&p);
        assert!(!maps[0].fused);
        assert_eq!(maps[0].reason, Some(FuseReject::ChainWcr.message()));
    }

    #[test]
    fn chained_subset_mismatch_rejects_pipelining() {
        // Stage 2 re-reads T through a different subscript than stage 1
        // wrote — the register short-circuit would be wrong.
        let p = Program::compile(&pipelined(None, Subset::at(vec![SymExpr::Int(0)]), (1, 1)));
        let maps = fusion(&p);
        assert!(!maps[0].fused);
        assert_eq!(maps[0].reason, Some(FuseReject::ChainMismatch.message()));
    }

    #[test]
    fn mixed_lane_pipelines_reject() {
        let p = Program::compile(&pipelined(None, Subset::at(vec![sym("i")]), (2, 1)));
        let maps = fusion(&p);
        assert!(!maps[0].fused);
        assert_eq!(maps[0].reason, Some(FuseReject::MixedLanes.message()));
    }

    #[test]
    fn fusion_can_be_disabled() {
        let p = Program::compile_with_options(
            &mapped(ScalarExpr::r("x").mul(ScalarExpr::f64(2.0))),
            &CompileOptions {
                fuse_maps: false,
                ..Default::default()
            },
        );
        let maps = fusion(&p);
        assert!(!maps[0].fused);
        assert_eq!(maps[0].reason, Some("map fusion disabled"));
        // f64 specialization still runs.
        assert_eq!(p.tasklet_stats().specialized, 1);
    }

    #[test]
    fn program_ids_are_unique_and_shared_by_clones() {
        let p1 = Program::compile(&mapped(ScalarExpr::r("x")));
        let p2 = Program::compile(&mapped(ScalarExpr::r("x")));
        assert_ne!(p1.id(), p2.id());
        assert_eq!(p1.id(), p1.clone().id());
    }

    /// Reads `(container, subset, connector)` and writes `(container,
    /// subset, connector, wcr)` of one tasklet in a [`staged_map`].
    type Reads = Vec<(&'static str, Subset, &'static str)>;
    type Writes = Vec<(&'static str, Subset, &'static str, Option<Wcr>)>;

    /// One map `i in [0, N)` whose body runs `stages` in order; every
    /// container is a 1-D `F64` array of length `M`, and a container
    /// written by one stage and read by a later one is a pipeline
    /// intermediate.
    fn staged_map(stages: Vec<(Tasklet, Reads, Writes)>) -> Sdfg {
        let mut names: Vec<&'static str> = Vec::new();
        let mut written: Vec<&'static str> = Vec::new();
        for (_, reads, writes) in &stages {
            for n in reads.iter().map(|r| r.0).chain(writes.iter().map(|w| w.0)) {
                if !names.contains(&n) {
                    names.push(n);
                }
            }
            written.extend(writes.iter().map(|w| w.0));
        }
        let mut b = SdfgBuilder::new("staged");
        b.symbol("N");
        b.symbol("M");
        for n in &names {
            b.array(n, DType::F64, &["M"]);
        }
        let st = b.start();
        b.in_state(st, move |df| {
            let ins: Vec<_> = names
                .iter()
                .filter(|n| !written.contains(n))
                .map(|n| df.access(n))
                .collect();
            let outs: Vec<_> = names
                .iter()
                .filter(|n| written.contains(n))
                .map(|n| df.access(n))
                .collect();
            let m = df.map(
                &["i"],
                vec![SymRange::full(sym("N"))],
                Schedule::Parallel,
                move |mb| {
                    let nodes: Vec<_> = names.iter().map(|n| mb.access(n)).collect();
                    let node = |n: &str| nodes[names.iter().position(|x| *x == n).unwrap()];
                    for (t, reads, writes) in stages {
                        let t = mb.tasklet(t);
                        for (data, sub, conn) in reads {
                            mb.read(node(data), t, Memlet::new(data, sub).to_conn(conn));
                        }
                        for (data, sub, conn, wcr) in writes {
                            let mut w = Memlet::new(data, sub).from_conn(conn);
                            if let Some(op) = wcr {
                                w = w.with_wcr(op);
                            }
                            mb.write(t, node(data), w);
                        }
                    }
                },
            );
            df.auto_wire(m, &ins, &outs);
        });
        b.build()
    }

    /// Pins the machine code `jit::lower::emit` produces for a fixed set
    /// of fused kernels covering every lowering path: scalar straight-line
    /// and select bodies (every comparison recipe and bool op), min/max/
    /// sum/prod WCR stores, packed lanes 2/3/8 (odd remainder, bool
    /// outputs, packed min/max WCR), a broadcast input, lane-scalar
    /// selects, and two-tasklet pipelines (float and bool intermediates).
    /// A refactor of the kernel IR or of fusion must leave every blob
    /// byte-identical; a deliberate codegen change updates the pins.
    #[cfg(all(unix, target_arch = "x86_64"))]
    #[test]
    fn jit_emission_is_pinned() {
        use fuzzyflow_ir::{CmpOp, TaskletStmt};
        use ScalarExpr as E;
        let x = || E::r("x");
        let at_i = || Subset::at(vec![sym("i")]);
        let cmp = |op, a: E, b: E| E::Cmp(op, Box::new(a), Box::new(b));
        let bin = |op, a: E, b: E| E::Bin(op, Box::new(a), Box::new(b));
        let un = |op, a: E| E::Un(op, Box::new(a));
        let lanes = |mut t: Tasklet, l: u32| {
            t.lanes = l;
            t
        };
        let stmt = |dst: &str, value: E| TaskletStmt {
            dst: dst.into(),
            value,
        };
        let simple = |body: E| Tasklet::simple("t", vec!["x"], "y", body);
        let unary = |t: Tasklet, inp: Subset, out: Subset, wcr: Option<Wcr>| {
            staged_map(vec![(t, vec![("A", inp, "x")], vec![("B", out, "y", wcr)])])
        };

        let straight = unary(
            simple(
                x().mul(E::f64(2.0))
                    .add(E::r("i"))
                    .sub(un(UnOp::Abs, x()).div(E::r("N").sqrt()))
                    .neg(),
            ),
            at_i(),
            at_i(),
            None,
        );
        let select_body = unary(
            Tasklet::with_code(
                "t",
                vec!["x"],
                vec!["y"],
                vec![
                    stmt(
                        "c",
                        bin(
                            BinOp::Or,
                            bin(
                                BinOp::And,
                                cmp(CmpOp::Le, x(), E::f64(0.0)),
                                un(UnOp::Not, cmp(CmpOp::Eq, x(), E::f64(-1.0))),
                            ),
                            cmp(CmpOp::Gt, x(), E::f64(2.0)),
                        ),
                    ),
                    stmt(
                        "y",
                        bin(BinOp::And, E::r("c"), E::Const(Scalar::Bool(true))).select(
                            x().neg(),
                            cmp(CmpOp::Ne, x(), E::f64(1.0)).select(
                                x().mul(E::f64(3.0)),
                                cmp(CmpOp::Ge, x(), E::f64(0.5)).select(x(), E::f64(1.0)),
                            ),
                        ),
                    ),
                ],
            ),
            at_i(),
            at_i(),
            None,
        );
        let wcr_all = staged_map(vec![(
            Tasklet::with_code(
                "t",
                vec!["x"],
                vec!["p", "q", "r", "s"],
                vec![
                    stmt("p", x().min(E::f64(2.0))),
                    stmt("q", x().max(E::f64(-1.0))),
                    stmt("r", x().add(E::r("i"))),
                    stmt("s", x().mul(E::f64(0.5))),
                ],
            ),
            vec![("A", at_i(), "x")],
            vec![
                ("B", at_i(), "p", Some(Wcr::Min)),
                ("C", at_i(), "q", Some(Wcr::Max)),
                ("D", at_i(), "r", Some(Wcr::Sum)),
                ("E", at_i(), "s", Some(Wcr::Prod)),
            ],
        )]);
        let lanes2 = unary(
            lanes(simple(x().mul(E::f64(2.0)).add(E::f64(1.0))), 2),
            lane_sub(2),
            lane_sub(2),
            Some(Wcr::Max),
        );
        let lanes3 = unary(
            lanes(
                simple(un(
                    UnOp::Not,
                    bin(
                        BinOp::Or,
                        bin(BinOp::And, x(), cmp(CmpOp::Lt, x(), E::f64(1.0))),
                        cmp(CmpOp::Ge, x(), E::f64(4.0)),
                    ),
                )),
                3,
            ),
            lane_sub(3),
            lane_sub(3),
            None,
        );
        let lanes8 = unary(
            lanes(
                simple(
                    x().min(E::f64(2.0))
                        .max(E::f64(-1.0))
                        .sqrt()
                        .sub(x().neg())
                        .div(E::r("N")),
                ),
                8,
            ),
            lane_sub(8),
            lane_sub(8),
            Some(Wcr::Sum),
        );
        let broadcast = staged_map(vec![(
            lanes(
                Tasklet::simple("t", vec!["x", "s"], "y", x().mul(E::r("s")).add(E::r("i"))),
                4,
            ),
            vec![
                ("A", lane_sub(4), "x"),
                ("S", Subset::at(vec![SymExpr::Int(0)]), "s"),
            ],
            vec![("B", lane_sub(4), "y", None)],
        )]);
        let lane_select = unary(
            lanes(
                simple(cmp(CmpOp::Lt, x(), E::f64(0.0)).select(x().neg(), x())),
                2,
            ),
            lane_sub(2),
            lane_sub(2),
            None,
        );
        let pipeline = pipelined(None, at_i(), (1, 1));
        let bool_pipeline = staged_map(vec![
            (
                simple(cmp(CmpOp::Lt, x(), E::f64(0.5))),
                vec![("A", at_i(), "x")],
                vec![("T", at_i(), "y", None)],
            ),
            (
                simple(x().mul(E::f64(2.0)).add(E::f64(1.0))),
                vec![("T", at_i(), "x")],
                vec![("B", at_i(), "y", None)],
            ),
        ]);

        fn fnv1a(bytes: &[u8]) -> u64 {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
        }
        let cases = [
            ("straight", straight),
            ("select", select_body),
            ("wcr_all", wcr_all),
            ("lanes2", lanes2),
            ("lanes3", lanes3),
            ("lanes8", lanes8),
            ("broadcast", broadcast),
            ("lane_select", lane_select),
            ("pipeline", pipeline),
            ("bool_pipeline", bool_pipeline),
        ];
        let mut variants: Vec<String> = Vec::new();
        let got: Vec<(&str, u64)> = cases
            .iter()
            .map(|(name, sdfg)| {
                let p = Program::compile(sdfg);
                let Some(Step::Map(mp)) = p.states[0]
                    .body
                    .steps
                    .iter()
                    .find(|s| matches!(s, Step::Map(_)))
                else {
                    panic!("{name}: no map scope");
                };
                let fk = mp
                    .fused
                    .as_deref()
                    .unwrap_or_else(|| panic!("{name}: not fused: {:?}", mp.fuse_reason));
                let lay = fk
                    .jit
                    .as_ref()
                    .unwrap_or_else(|r| panic!("{name}: not JIT-eligible: {r:?}"));
                for insn in &fk.code {
                    let dbg = format!("{insn:?}");
                    let variant = dbg.split([' ', '{']).next().unwrap_or("").to_string();
                    if !variants.contains(&variant) {
                        variants.push(variant);
                    }
                }
                (*name, fnv1a(&crate::jit::lower::emit(fk, lay)))
            })
            .collect();
        variants.sort();
        // Every instruction form the lowering handles occurs in the set.
        assert_eq!(
            variants,
            [
                "AndB",
                "BinF",
                "BoolFromF",
                "CmpF",
                "ConstB",
                "ConstF",
                "FloatFromB",
                "Jump",
                "JumpIfFalse",
                "LoadParamF",
                "LoadSymF",
                "MovB",
                "MovF",
                "NotB",
                "OrB",
                "UnF",
            ]
        );
        let pinned: [(&str, u64); 10] = [
            ("straight", 545985061699233664),
            ("select", 14498254805917344522),
            ("wcr_all", 879350122785076308),
            ("lanes2", 12553399554546273977),
            ("lanes3", 14163170585719678352),
            ("lanes8", 16653697822923716822),
            ("broadcast", 17548114817387517000),
            ("lane_select", 17070264254028415888),
            ("pipeline", 9500100380707360959),
            ("bool_pipeline", 12872739561334660076),
        ];
        assert_eq!(got, pinned);
    }
}
