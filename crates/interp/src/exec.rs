//! The interpreter proper.

use crate::coverage::{location_id, CoverageMap};
use crate::error::ExecError;
use crate::value::ArrayValue;
use fuzzyflow_ir::{
    BinOp, Bindings, CmpOp, CommOp, DataDesc, Dataflow, DfNode, LibraryOp, MapScope, Memlet,
    Scalar, ScalarExpr, Sdfg, State, Storage, Tasklet, UnOp, Wcr,
};
use std::collections::BTreeMap;

/// How a reused [`Executor`](crate::Executor) restores its retained
/// allocation buffers between trials. There is one way — the name and
/// the [`ExecOptions::reset`] field stay because callers spell them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ResetPolicy {
    /// Refill every reused allocation (host zeros / device garbage) and
    /// re-poison its guard planes.
    #[default]
    Full,
}

/// Options controlling one execution.
#[derive(Clone, Debug)]
pub struct ExecOptions {
    /// Step budget; exceeding it raises [`ExecError::StepLimitExceeded`]
    /// (the hang oracle of paper Sec. 5.1).
    pub max_steps: u64,
    /// Between-trial reset of reused executors; see [`ResetPolicy`].
    pub reset: ResetPolicy,
    /// Whether fused kernels may execute natively-emitted machine code
    /// (see [`crate::jit`]). On by default; bit-identical to the bytecode
    /// rungs wherever it engages, so turning it off only trades speed —
    /// fused kernels run the chunk loop instead, select-bodied ones per
    /// element. Ignored by the tree-walk engine.
    pub jit: bool,
}

impl ExecOptions {
    /// The default step budget of [`ExecOptions::default`].
    pub const DEFAULT_MAX_STEPS: u64 = 50_000_000;
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            max_steps: Self::DEFAULT_MAX_STEPS,
            reset: ResetPolicy::default(),
            jit: true,
        }
    }
}

/// Rejects a concrete shape neither engine may allocate: a negative
/// dimension, or an element count that overflows. Shared by the tree
/// walk and the compiled engine so both report the same error.
pub(crate) fn check_alloc_shape(name: &str, shape: &[i64]) -> Result<(), ExecError> {
    if shape.iter().any(|&d| d < 0) {
        return Err(ExecError::Malformed(format!(
            "container '{name}' has negative dimension in shape {shape:?}"
        )));
    }
    if ArrayValue::element_count(shape).is_none() {
        return Err(ExecError::Malformed(format!(
            "container '{name}' has an overflowing element count in shape {shape:?}"
        )));
    }
    Ok(())
}

/// Handler for distributed collectives, installed by the `fuzzyflow-dist`
/// simulated runtime. Single-node executions run without one; reaching a
/// communication node then fails with [`ExecError::NoCommHandler`].
pub trait CommHandler: Sync {
    /// Executes a collective for the calling `rank`, given its local
    /// contribution; returns the rank's local result buffer.
    fn collective(
        &self,
        node: &str,
        op: &CommOp,
        rank: i64,
        input: &ArrayValue,
    ) -> Result<ArrayValue, ExecError>;
}

/// The mutable program state of an execution: symbol values plus array
/// contents. Pre-populate symbols and input arrays, run, then inspect
/// output arrays — together these are the paper's *input configuration*
/// and *system state*.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecState {
    pub symbols: Bindings,
    pub arrays: BTreeMap<String, ArrayValue>,
}

/// A detected difference between two executions' system states.
#[derive(Clone, Debug, PartialEq)]
pub struct StateMismatch {
    pub data: String,
    /// Linear element index of the first difference.
    pub index: usize,
    pub lhs: String,
    pub rhs: String,
}

impl std::fmt::Display for StateMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "'{}' differs at element {}: {} vs {}",
            self.data, self.index, self.lhs, self.rhs
        )
    }
}

impl ExecState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds a symbol value.
    pub fn bind(&mut self, name: &str, value: i64) -> &mut Self {
        self.symbols.set(name, value);
        self
    }

    /// Installs an input array.
    pub fn set_array(&mut self, name: &str, value: ArrayValue) -> &mut Self {
        self.arrays.insert(name.to_string(), value);
        self
    }

    /// Array accessor.
    pub fn array(&self, name: &str) -> Option<&ArrayValue> {
        self.arrays.get(name)
    }

    /// Compares the named containers between two states. `tol == 0` means
    /// bit-exact comparison (paper Sec. 5.1). Returns the first mismatch.
    pub fn compare_on(
        &self,
        other: &ExecState,
        names: &[String],
        tol: f64,
    ) -> Option<StateMismatch> {
        for name in names {
            match (self.arrays.get(name), other.arrays.get(name)) {
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
}

/// Runs an SDFG to completion with default options and no comm/coverage.
///
/// Thin compile-then-execute convenience over [`crate::Program`]: the SDFG
/// is lowered to a compiled program and executed once. Call sites that run
/// the same SDFG many times should compile once with
/// [`Program::compile`](crate::Program::compile) and reuse an
/// [`Executor`](crate::Executor) instead.
pub fn run(sdfg: &Sdfg, state: &mut ExecState) -> Result<(), ExecError> {
    run_with(sdfg, state, &ExecOptions::default(), None, None)
}

/// Runs an SDFG with explicit options, optional communication handler and
/// optional coverage map (compile-then-execute convenience; see [`run`]).
pub fn run_with(
    sdfg: &Sdfg,
    state: &mut ExecState,
    opts: &ExecOptions,
    comm: Option<&dyn CommHandler>,
    cov: Option<&mut CoverageMap>,
) -> Result<(), ExecError> {
    let program = crate::Program::compile(sdfg);
    program.run_with(state, opts, comm, cov)
}

/// Runs an SDFG on the legacy tree-walk interpreter (default options).
///
/// Kept as the reference semantics the compiled engine is differentially
/// tested against (the engine-equivalence property suite) and as the
/// baseline of the `exec_engine` benchmark.
pub fn run_tree_walk(sdfg: &Sdfg, state: &mut ExecState) -> Result<(), ExecError> {
    run_with_tree_walk(sdfg, state, &ExecOptions::default(), None, None)
}

/// Tree-walk interpreter with explicit options/comm/coverage (see
/// [`run_tree_walk`]).
pub fn run_with_tree_walk(
    sdfg: &Sdfg,
    state: &mut ExecState,
    opts: &ExecOptions,
    comm: Option<&dyn CommHandler>,
    cov: Option<&mut CoverageMap>,
) -> Result<(), ExecError> {
    let mut ex = Exec {
        sdfg,
        opts,
        comm,
        cov,
        steps: 0,
    };
    ex.allocate(state)?;
    ex.run_state_machine(state)
}

struct Exec<'a> {
    sdfg: &'a Sdfg,
    opts: &'a ExecOptions,
    comm: Option<&'a dyn CommHandler>,
    cov: Option<&'a mut CoverageMap>,
    steps: u64,
}

impl<'a> Exec<'a> {
    fn tick(&mut self, n: u64) -> Result<(), ExecError> {
        self.steps += n;
        if self.steps > self.opts.max_steps {
            return Err(ExecError::StepLimitExceeded {
                limit: self.opts.max_steps,
            });
        }
        Ok(())
    }

    fn cover(&mut self, parts: &[u64]) {
        if let Some(c) = self.cov.as_deref_mut() {
            c.record(location_id(parts));
        }
    }

    /// Allocates every container declared by the program that the caller
    /// did not provide. Host containers are zero-initialized; device
    /// containers are filled with a deterministic garbage pattern,
    /// modeling uninitialized accelerator memory (paper Fig. 7).
    fn allocate(&mut self, st: &mut ExecState) -> Result<(), ExecError> {
        for (name, desc) in &self.sdfg.arrays {
            if st.arrays.contains_key(name) {
                continue;
            }
            let shape = desc.concrete_shape(&st.symbols).map_err(ExecError::from)?;
            check_alloc_shape(name, &shape)?;
            let value = match desc.storage {
                Storage::Host => ArrayValue::zeros(desc.dtype, shape),
                Storage::Device => ArrayValue::garbage(desc.dtype, shape),
            };
            st.arrays.insert(name.clone(), value);
        }
        Ok(())
    }

    fn run_state_machine(&mut self, st: &mut ExecState) -> Result<(), ExecError> {
        let mut current = self.sdfg.start;
        loop {
            self.tick(1)?;
            self.cover(&[0x57A7E, current.0 as u64]);
            let state: &State = self.sdfg.state(current);
            let site = location_id(&[0x57A7E, current.0 as u64]);
            self.exec_dataflow(&state.df, st, site)?;

            let mut next = None;
            for &e in self.sdfg.states.out_edge_ids(current) {
                let edge = self.sdfg.states.edge(e);
                if edge.condition.eval(&st.symbols)? {
                    for (sym, val) in &edge.assignments {
                        let v = val.eval(&st.symbols)?;
                        st.symbols.set(sym.clone(), v);
                    }
                    self.cover(&[0xED6E, e.0 as u64]);
                    next = Some(self.sdfg.states.dst(e));
                    break;
                }
            }
            match next {
                Some(n) => current = n,
                None => return Ok(()),
            }
        }
    }

    fn exec_dataflow(
        &mut self,
        df: &Dataflow,
        st: &mut ExecState,
        site: u64,
    ) -> Result<(), ExecError> {
        let order = fuzzyflow_graph::topological_sort(&df.graph)
            .map_err(|e| ExecError::Malformed(format!("cyclic dataflow ({e})")))?;
        for n in order {
            let node_site = location_id(&[site, n.0 as u64]);
            match df.graph.node(n) {
                DfNode::Access(name) => {
                    if !st.arrays.contains_key(name) {
                        return Err(ExecError::UnknownData(name.clone()));
                    }
                }
                DfNode::Tasklet(t) => {
                    self.tick(1)?;
                    self.cover(&[node_site]);
                    self.exec_tasklet(df, n, t, st, node_site)?;
                }
                DfNode::Map(m) => {
                    self.cover(&[node_site]);
                    self.exec_map(m, st, node_site)?;
                }
                DfNode::Library(l) => {
                    self.cover(&[node_site]);
                    self.exec_library(df, n, &l.name, &l.op, st)?;
                }
            }
        }
        Ok(())
    }

    fn exec_map(&mut self, map: &MapScope, st: &mut ExecState, site: u64) -> Result<(), ExecError> {
        self.iterate_map_dim(map, 0, st, site)
    }

    fn iterate_map_dim(
        &mut self,
        map: &MapScope,
        dim: usize,
        st: &mut ExecState,
        site: u64,
    ) -> Result<(), ExecError> {
        if dim == map.params.len() {
            self.tick(1)?;
            return self.exec_dataflow(&map.body, st, site);
        }
        // Ranges may reference outer map parameters *and* earlier
        // parameters of this map (triangular iteration spaces).
        let r = map.ranges[dim].concrete(&st.symbols)?;
        let param = &map.params[dim];
        let saved = st.symbols.get(param);
        let len = r.len() as i64;
        for k in 0..len {
            let v = r.start + k * r.step;
            st.symbols.set(param.clone(), v);
            self.iterate_map_dim(map, dim + 1, st, site)?;
        }
        match saved {
            Some(v) => {
                st.symbols.set(param.clone(), v);
            }
            None => {
                st.symbols.remove(param);
            }
        }
        Ok(())
    }

    /// Reads the elements a memlet delivers, with bounds checking.
    fn read_memlet(
        &mut self,
        st: &ExecState,
        m: &Memlet,
        context: &str,
    ) -> Result<Vec<Scalar>, ExecError> {
        let arr = st
            .arrays
            .get(&m.data)
            .ok_or_else(|| ExecError::UnknownData(m.data.clone()))?;
        let c = m.subset.concrete(&st.symbols)?;
        let mut out = Vec::with_capacity(c.volume());
        for point in c.iter_points() {
            let off =
                DataDesc::linearize(arr.shape(), &point).ok_or_else(|| ExecError::OutOfBounds {
                    data: m.data.clone(),
                    point: point.clone(),
                    shape: arr.shape().to_vec(),
                })?;
            out.push(arr.get(off));
        }
        if out.is_empty() {
            return Err(ExecError::VolumeMismatch {
                context: context.to_string(),
                expected: 1,
                actual: 0,
            });
        }
        self.tick(out.len() as u64)?;
        Ok(out)
    }

    /// Writes elements through a memlet, applying WCR if present.
    fn write_memlet(
        &mut self,
        st: &mut ExecState,
        m: &Memlet,
        values: &[Scalar],
        context: &str,
    ) -> Result<(), ExecError> {
        let c = m.subset.concrete(&st.symbols)?;
        let points: Vec<Vec<i64>> = c.iter_points().collect();
        if points.len() != values.len() {
            return Err(ExecError::VolumeMismatch {
                context: context.to_string(),
                expected: points.len(),
                actual: values.len(),
            });
        }
        self.tick(points.len() as u64)?;
        let arr = st
            .arrays
            .get_mut(&m.data)
            .ok_or_else(|| ExecError::UnknownData(m.data.clone()))?;
        for (point, &v) in points.iter().zip(values) {
            let off =
                DataDesc::linearize(arr.shape(), point).ok_or_else(|| ExecError::OutOfBounds {
                    data: m.data.clone(),
                    point: point.clone(),
                    shape: arr.shape().to_vec(),
                })?;
            let stored = match m.wcr {
                None => v,
                Some(wcr) => combine_wcr(wcr, arr.get(off), v),
            };
            arr.set(off, stored);
        }
        Ok(())
    }

    fn exec_tasklet(
        &mut self,
        df: &Dataflow,
        n: fuzzyflow_graph::NodeId,
        t: &Tasklet,
        st: &mut ExecState,
        site: u64,
    ) -> Result<(), ExecError> {
        let lanes = t.lanes.max(1) as usize;
        // Gather inputs per connector.
        let mut inputs: BTreeMap<String, Vec<Scalar>> = BTreeMap::new();
        for (_, m) in df.in_memlets(n) {
            let conn = m.dst_conn.clone().ok_or_else(|| {
                ExecError::Malformed(format!(
                    "input memlet of tasklet '{}' has no connector",
                    t.name
                ))
            })?;
            let vals = self.read_memlet(st, m, &t.name)?;
            if vals.len() != 1 && vals.len() != lanes {
                return Err(ExecError::VolumeMismatch {
                    context: format!("tasklet '{}' input '{conn}'", t.name),
                    expected: lanes,
                    actual: vals.len(),
                });
            }
            inputs.insert(conn, vals);
        }
        // Execute code lane-wise.
        let mut outputs: BTreeMap<String, Vec<Scalar>> = BTreeMap::new();
        for lane in 0..lanes {
            let mut scope: BTreeMap<String, Scalar> = BTreeMap::new();
            for (conn, vals) in &inputs {
                let v = if vals.len() == 1 { vals[0] } else { vals[lane] };
                scope.insert(conn.clone(), v);
            }
            for (si, stmt) in t.code.iter().enumerate() {
                let mut sel = 0u64;
                let v = self.eval_expr(
                    &stmt.value,
                    &scope,
                    &st.symbols,
                    &t.name,
                    location_id(&[site, si as u64]),
                    &mut sel,
                )?;
                scope.insert(stmt.dst.clone(), v);
            }
            for out in &t.outputs {
                let v = *scope.get(out).ok_or_else(|| {
                    ExecError::Malformed(format!(
                        "tasklet '{}' never assigns output connector '{out}'",
                        t.name
                    ))
                })?;
                outputs.entry(out.clone()).or_default().push(v);
            }
        }
        // Deliver outputs.
        for (_, m) in df.out_memlets(n) {
            let conn = m.src_conn.clone().ok_or_else(|| {
                ExecError::Malformed(format!(
                    "output memlet of tasklet '{}' has no connector",
                    t.name
                ))
            })?;
            let vals = outputs.get(&conn).ok_or_else(|| ExecError::UndefinedRef {
                tasklet: t.name.clone(),
                name: conn.clone(),
            })?;
            self.write_memlet(st, m, vals, &t.name)?;
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_expr(
        &mut self,
        e: &ScalarExpr,
        scope: &BTreeMap<String, Scalar>,
        symbols: &Bindings,
        tasklet: &str,
        site: u64,
        sel: &mut u64,
    ) -> Result<Scalar, ExecError> {
        Ok(match e {
            ScalarExpr::Const(c) => *c,
            ScalarExpr::Ref(name) => match scope.get(name) {
                Some(v) => *v,
                None => match symbols.get(name) {
                    Some(v) => Scalar::I64(v),
                    None => {
                        return Err(ExecError::UndefinedRef {
                            tasklet: tasklet.to_string(),
                            name: name.clone(),
                        })
                    }
                },
            },
            ScalarExpr::Bin(op, a, b) => {
                let x = self.eval_expr(a, scope, symbols, tasklet, site, sel)?;
                let y = self.eval_expr(b, scope, symbols, tasklet, site, sel)?;
                apply_bin(*op, x, y)?
            }
            ScalarExpr::Un(op, a) => {
                let x = self.eval_expr(a, scope, symbols, tasklet, site, sel)?;
                apply_un(*op, x)
            }
            ScalarExpr::Cmp(op, a, b) => {
                let x = self.eval_expr(a, scope, symbols, tasklet, site, sel)?;
                let y = self.eval_expr(b, scope, symbols, tasklet, site, sel)?;
                Scalar::Bool(apply_cmp(*op, x, y))
            }
            ScalarExpr::Select(c, a, b) => {
                let cv = self
                    .eval_expr(c, scope, symbols, tasklet, site, sel)?
                    .as_bool();
                *sel += 1;
                self.cover(&[site, *sel, cv as u64]);
                if cv {
                    self.eval_expr(a, scope, symbols, tasklet, site, sel)?
                } else {
                    self.eval_expr(b, scope, symbols, tasklet, site, sel)?
                }
            }
        })
    }

    fn exec_library(
        &mut self,
        df: &Dataflow,
        n: fuzzyflow_graph::NodeId,
        name: &str,
        op: &LibraryOp,
        st: &mut ExecState,
    ) -> Result<(), ExecError> {
        // Collect input blocks by connector.
        let mut ins: BTreeMap<String, (Vec<i64>, Vec<Scalar>)> = BTreeMap::new();
        for (_, m) in df.in_memlets(n) {
            let conn = m.dst_conn.clone().ok_or_else(|| {
                ExecError::Malformed(format!("input memlet of library '{name}' has no connector"))
            })?;
            let dims = block_dims(st, m)?;
            let vals = self.read_memlet(st, m, name)?;
            ins.insert(conn, (dims, vals));
        }
        let get = |conn: &str| -> Result<&(Vec<i64>, Vec<Scalar>), ExecError> {
            ins.get(conn).ok_or_else(|| {
                ExecError::Malformed(format!("library '{name}' missing input connector '{conn}'"))
            })
        };

        let mut out_by_conn: BTreeMap<String, Vec<Scalar>> = BTreeMap::new();
        match op {
            LibraryOp::MatMul => {
                let (da, a) = get("A")?;
                let (db, b) = get("B")?;
                let c = matmul(name, da, a, db, b)?;
                self.tick(c.len() as u64)?;
                out_by_conn.insert("C".into(), c);
            }
            LibraryOp::Transpose => {
                let (d, v) = get("in")?;
                if d.len() != 2 {
                    return Err(ExecError::ShapeError {
                        node: name.into(),
                        detail: format!("transpose expects 2-D input, got {d:?}"),
                    });
                }
                let (r, cdim) = (d[0] as usize, d[1] as usize);
                let mut out = vec![Scalar::F64(0.0); v.len()];
                for i in 0..r {
                    for j in 0..cdim {
                        out[j * r + i] = v[i * cdim + j];
                    }
                }
                out_by_conn.insert("out".into(), out);
            }
            LibraryOp::Reduce { op, axis } => {
                let (d, v) = get("in")?;
                let out = reduce(name, *op, *axis, d, v)?;
                out_by_conn.insert("out".into(), out);
            }
            LibraryOp::Copy => {
                let (_, v) = get("in")?;
                out_by_conn.insert("out".into(), v.clone());
            }
            LibraryOp::Softmax => {
                let (d, v) = get("in")?;
                out_by_conn.insert("out".into(), softmax(d, v));
            }
            LibraryOp::Comm(comm_op) => {
                let (d, v) = get("in")?;
                let handler = self.comm.ok_or_else(|| ExecError::NoCommHandler {
                    node: name.to_string(),
                })?;
                let rank = st.symbols.get("rank").unwrap_or(0);
                let mut buf = ArrayValue::zeros(
                    st.arrays
                        .get(&df.in_memlets(n)[0].1.data)
                        .map(|a| a.dtype())
                        .unwrap_or(fuzzyflow_ir::DType::F64),
                    d.clone(),
                );
                for (i, &s) in v.iter().enumerate() {
                    buf.set(i, s);
                }
                let result = handler.collective(name, comm_op, rank, &buf)?;
                let out: Vec<Scalar> = (0..result.len()).map(|i| result.get(i)).collect();
                out_by_conn.insert("out".into(), out);
            }
        }

        for (_, m) in df.out_memlets(n) {
            let conn = m.src_conn.clone().ok_or_else(|| {
                ExecError::Malformed(format!(
                    "output memlet of library '{name}' has no connector"
                ))
            })?;
            let vals = out_by_conn
                .get(&conn)
                .ok_or_else(|| {
                    ExecError::Malformed(format!(
                        "library '{name}' has no output connector '{conn}'"
                    ))
                })?
                .clone();
            self.write_memlet(st, m, &vals, name)?;
        }
        Ok(())
    }
}

/// Per-dimension lengths of a memlet's concrete subset.
fn block_dims(st: &ExecState, m: &Memlet) -> Result<Vec<i64>, ExecError> {
    let c = m.subset.concrete(&st.symbols)?;
    Ok(c.dims.iter().map(|d| d.len() as i64).collect())
}

pub(crate) fn combine_wcr(wcr: Wcr, old: Scalar, new: Scalar) -> Scalar {
    let float = old.dtype().is_float() || new.dtype().is_float();
    if float {
        let (a, b) = (old.as_f64(), new.as_f64());
        Scalar::F64(match wcr {
            Wcr::Sum => a + b,
            Wcr::Prod => a * b,
            Wcr::Max => a.max(b),
            Wcr::Min => a.min(b),
        })
        .cast(old.dtype())
    } else {
        let (a, b) = (old.as_i64(), new.as_i64());
        Scalar::I64(match wcr {
            Wcr::Sum => a.wrapping_add(b),
            Wcr::Prod => a.wrapping_mul(b),
            Wcr::Max => a.max(b),
            Wcr::Min => a.min(b),
        })
        .cast(old.dtype())
    }
}

pub(crate) fn apply_bin(op: BinOp, x: Scalar, y: Scalar) -> Result<Scalar, ExecError> {
    let float = x.dtype().is_float() || y.dtype().is_float();
    Ok(match op {
        BinOp::And => Scalar::Bool(x.as_bool() && y.as_bool()),
        BinOp::Or => Scalar::Bool(x.as_bool() || y.as_bool()),
        BinOp::Pow => Scalar::F64(x.as_f64().powf(y.as_f64())),
        _ if float => {
            let (a, b) = (x.as_f64(), y.as_f64());
            Scalar::F64(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                BinOp::Mod => a.rem_euclid(b),
                BinOp::Min => a.min(b),
                BinOp::Max => a.max(b),
                _ => unreachable!("handled above"),
            })
        }
        _ => {
            let (a, b) = (x.as_i64(), y.as_i64());
            match op {
                BinOp::Add => Scalar::I64(a.wrapping_add(b)),
                BinOp::Sub => Scalar::I64(a.wrapping_sub(b)),
                BinOp::Mul => Scalar::I64(a.wrapping_mul(b)),
                BinOp::Div => {
                    if b == 0 {
                        return Err(ExecError::IntegerDivisionByZero);
                    }
                    Scalar::I64(a.wrapping_div(b))
                }
                BinOp::Mod => {
                    if b == 0 {
                        return Err(ExecError::IntegerDivisionByZero);
                    }
                    Scalar::I64(a.wrapping_rem(b))
                }
                BinOp::Min => Scalar::I64(a.min(b)),
                BinOp::Max => Scalar::I64(a.max(b)),
                _ => unreachable!("handled above"),
            }
        }
    })
}

pub(crate) fn apply_un(op: UnOp, x: Scalar) -> Scalar {
    match op {
        UnOp::Not => Scalar::Bool(!x.as_bool()),
        UnOp::Neg => {
            if x.dtype().is_float() {
                Scalar::F64(-x.as_f64()).cast(x.dtype())
            } else {
                Scalar::I64(x.as_i64().wrapping_neg()).cast(x.dtype())
            }
        }
        UnOp::Abs => {
            if x.dtype().is_float() {
                Scalar::F64(x.as_f64().abs()).cast(x.dtype())
            } else {
                Scalar::I64(x.as_i64().wrapping_abs()).cast(x.dtype())
            }
        }
        UnOp::Sqrt => Scalar::F64(x.as_f64().sqrt()),
        UnOp::Exp => Scalar::F64(x.as_f64().exp()),
        UnOp::Log => Scalar::F64(x.as_f64().ln()),
        UnOp::Floor => Scalar::F64(x.as_f64().floor()),
        UnOp::Ceil => Scalar::F64(x.as_f64().ceil()),
        UnOp::Tanh => Scalar::F64(x.as_f64().tanh()),
    }
}

pub(crate) fn apply_cmp(op: CmpOp, x: Scalar, y: Scalar) -> bool {
    if x.dtype().is_float() || y.dtype().is_float() {
        let (a, b) = (x.as_f64(), y.as_f64());
        match op {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    } else {
        let (a, b) = (x.as_i64(), y.as_i64());
        match op {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }
}

/// (Batched) matrix product of row-major operands, the tree walk's
/// reference kernel: the operands are widened to `f64` once, and every
/// output element sums its `k` products in index order.
pub(crate) fn matmul(
    name: &str,
    da: &[i64],
    a: &[Scalar],
    db: &[i64],
    b: &[Scalar],
) -> Result<Vec<Scalar>, ExecError> {
    let widen = |v: &[Scalar]| v.iter().map(|s| s.as_f64()).collect::<Vec<f64>>();
    match (da.len(), db.len()) {
        (2, 2) => {
            let (m, k) = (da[0] as usize, da[1] as usize);
            let (k2, n) = (db[0] as usize, db[1] as usize);
            if k != k2 {
                return Err(ExecError::ShapeError {
                    node: name.into(),
                    detail: format!("matmul inner dims differ: {k} vs {k2}"),
                });
            }
            let (a, b) = (widen(a), widen(b));
            let mut c = vec![Scalar::F64(0.0); m * n];
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0;
                    for l in 0..k {
                        acc += a[i * k + l] * b[l * n + j];
                    }
                    c[i * n + j] = Scalar::F64(acc);
                }
            }
            Ok(c)
        }
        (3, 3) => {
            let (bs, m, k) = (da[0] as usize, da[1] as usize, da[2] as usize);
            let (bs2, k2, n) = (db[0] as usize, db[1] as usize, db[2] as usize);
            if bs != bs2 || k != k2 {
                return Err(ExecError::ShapeError {
                    node: name.into(),
                    detail: format!("batched matmul dims mismatch: {da:?} @ {db:?}"),
                });
            }
            let (a, b) = (widen(a), widen(b));
            let mut c = vec![Scalar::F64(0.0); bs * m * n];
            for t in 0..bs {
                for i in 0..m {
                    for j in 0..n {
                        let mut acc = 0.0;
                        for l in 0..k {
                            acc += a[t * m * k + i * k + l] * b[t * k * n + l * n + j];
                        }
                        c[t * m * n + i * n + j] = Scalar::F64(acc);
                    }
                }
            }
            Ok(c)
        }
        _ => Err(ExecError::ShapeError {
            node: name.into(),
            detail: format!("matmul expects 2-D or 3-D operands, got {da:?} @ {db:?}"),
        }),
    }
}

pub(crate) fn reduce(
    name: &str,
    op: Wcr,
    axis: usize,
    dims: &[i64],
    v: &[Scalar],
) -> Result<Vec<Scalar>, ExecError> {
    if axis >= dims.len() {
        return Err(ExecError::ShapeError {
            node: name.into(),
            detail: format!("reduce axis {axis} out of range for {dims:?}"),
        });
    }
    let outer: i64 = dims[..axis].iter().product();
    let red = dims[axis];
    let inner: i64 = dims[axis + 1..].iter().product();
    let init = match op {
        Wcr::Sum => 0.0,
        Wcr::Prod => 1.0,
        Wcr::Max => f64::NEG_INFINITY,
        Wcr::Min => f64::INFINITY,
    };
    let mut out = vec![init; (outer * inner) as usize];
    for o in 0..outer {
        for r in 0..red {
            for i in 0..inner {
                let idx = ((o * red + r) * inner + i) as usize;
                let dst = (o * inner + i) as usize;
                let x = v[idx].as_f64();
                out[dst] = match op {
                    Wcr::Sum => out[dst] + x,
                    Wcr::Prod => out[dst] * x,
                    Wcr::Max => out[dst].max(x),
                    Wcr::Min => out[dst].min(x),
                };
            }
        }
    }
    Ok(out.into_iter().map(Scalar::F64).collect())
}

pub(crate) fn softmax(dims: &[i64], v: &[Scalar]) -> Vec<Scalar> {
    if dims.is_empty() {
        return vec![Scalar::F64(1.0)];
    }
    let row = *dims.last().expect("non-empty dims") as usize;
    let rows = v.len() / row.max(1);
    let mut out = vec![Scalar::F64(0.0); v.len()];
    for r in 0..rows {
        let slice = &v[r * row..(r + 1) * row];
        let max = slice
            .iter()
            .map(|s| s.as_f64())
            .fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = slice.iter().map(|s| (s.as_f64() - max).exp()).collect();
        let sum: f64 = exps.iter().sum();
        for (i, e) in exps.iter().enumerate() {
            out[r * row + i] = Scalar::F64(e / sum);
        }
    }
    out
}
