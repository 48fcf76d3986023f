//! Deterministic reference interpreter for the FuzzyFlow dataflow IR.
//!
//! The interpreter plays the role of DaCe's C++ code generation plus native
//! execution in the paper's tool chain: it is the engine differential
//! testing drives (paper Sec. 5). Design goals, in order:
//!
//! 1. **Observability** — every failure mode the paper's fuzzer looks for is
//!    a first-class error: out-of-bounds accesses and integer division by
//!    zero surface as [`ExecError`] ("crashes"), a configurable step limit
//!    catches non-termination ("hangs"), and structurally broken programs
//!    are rejected up front ("generates invalid code").
//! 2. **Determinism** — identical inputs produce bit-identical outputs;
//!    parallel maps execute in canonical iteration order, reductions in a
//!    fixed combine order. Differential comparisons are exact by default.
//! 3. **Coverage feedback** — an AFL-style edge-coverage map
//!    ([`CoverageMap`]) records state transitions, node executions and
//!    branch outcomes, enabling the coverage-guided fuzzing mode of
//!    Sec. 5.1 without external tooling.
//!
//! Two engines implement these semantics:
//!
//! * the **compiled engine** ([`Program`]/[`Executor`]) — SDFGs are
//!   lowered once into interned-id, bytecode-backed programs and executed
//!   many times against id-indexed storage with reusable buffers; this is
//!   what the differential trial loop runs on, and what [`run`] /
//!   [`run_with`] use under the hood;
//! * the **tree-walk engine** ([`run_tree_walk`] / [`run_with_tree_walk`])
//!   — the direct AST interpreter kept as the reference semantics.
//!
//! The two are held bit-identical (results, errors, step accounting,
//! coverage ids) by the engine-equivalence property suite.

pub mod coverage;
pub mod error;
pub mod exec;
pub mod jit;
pub mod program;
pub mod shared;
pub mod value;

pub use coverage::CoverageMap;
pub use error::ExecError;
pub use exec::{
    run, run_tree_walk, run_with, run_with_tree_walk, CommHandler, ExecOptions, ExecState,
    ResetPolicy, StateMismatch,
};
pub use jit::{jit_emissions, jit_native_runs, jit_native_runs_split, JitReject};
pub use program::{
    fresh_arena_count, CompileOptions, Executor, ExecutorArena, FuseReject, MapFusionInfo, Program,
    TaskletStats,
};
pub use shared::{
    cache_capacity, compile_shared, compile_shared_with, set_cache_capacity, shared_cache_stats,
    shared_compile_count, SharedCacheStats,
};
pub use value::ArrayValue;
