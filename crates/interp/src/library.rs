//! Library nodes of the compiled engine. The `Scalar` path reads operands
//! into `Vec<Scalar>`s and runs the tree walk's kernels, reproducing its
//! errors, their order and its step count. The f64 slot path runs straight
//! off the arena's `F64` buffers once a precheck proves the `Scalar` path
//! raises no error; its kernels visit elements in the tree walk's order
//! (`MatMul` sums each element's products from `0.0` in index order).

use super::{Compiler, DataId, Executor, MemKind, MemPlan, RangePlan, RunCtx};
use crate::coverage::location_id;
use crate::error::ExecError;
use crate::exec::{matmul, reduce, softmax};
use crate::value::ArrayValue;
use fuzzyflow_ir::{DType, LibraryOp, Scalar, Wcr};

/// Compiled library node.
#[derive(Clone, Debug)]
pub(super) struct LibraryPlan {
    name: String,
    pub(super) cover_loc: u64,
    op: LibraryOp,
    inputs: Vec<LibInput>,
    n_slots: usize,
    /// Input-connector slots in the order the operation consumes them
    /// (`A`, `B` for MatMul; `in` otherwise), or the "missing input
    /// connector" error.
    args: Vec<Result<usize, ExecError>>,
    /// Data container of the first incoming memlet (dtype source for the
    /// simulated collective's send buffer).
    first_in_data: Option<DataId>,
    out_writes: Vec<LibOutWrite>,
    /// The f64 slot plan, when the node's shape allows one.
    slots: Option<SlotPlan>,
}

#[derive(Clone, Debug)]
enum LibInput {
    Fail(ExecError),
    Read { slot: usize, plan: MemPlan },
}

#[derive(Clone, Debug)]
enum LibOutWrite {
    Fail(ExecError),
    Write(MemPlan),
}

/// The containers of a non-collective library node whose containers are
/// declared `F64`, whose operand connectors each have one `Ranges` read and
/// whose output has one plain `Ranges` write, with each memlet's ranges.
#[derive(Clone, Debug)]
struct SlotPlan {
    /// Operands in the order the op consumes them.
    ins: Vec<(DataId, Vec<RangePlan>)>,
    out: (DataId, Vec<RangePlan>),
}

impl Compiler<'_> {
    pub(super) fn library(
        &mut self,
        df: &fuzzyflow_ir::Dataflow,
        n: fuzzyflow_graph::NodeId,
        l: &fuzzyflow_ir::LibraryNode,
        node_site: u64,
    ) -> LibraryPlan {
        let mut conn_slots: Vec<String> = Vec::new();
        let mut inputs = Vec::new();
        let in_memlets = df.in_memlets(n);
        for (_, m) in &in_memlets {
            match &m.dst_conn {
                None => inputs.push(LibInput::Fail(ExecError::Malformed(format!(
                    "input memlet of library '{}' has no connector",
                    l.name
                )))),
                Some(conn) => {
                    let slot = match conn_slots.iter().position(|c| c == conn) {
                        Some(i) => i,
                        None => {
                            conn_slots.push(conn.clone());
                            conn_slots.len() - 1
                        }
                    };
                    inputs.push(LibInput::Read {
                        slot,
                        plan: self.memlet(m),
                    });
                }
            }
        }
        let args: Vec<Result<usize, ExecError>> =
            l.op.input_conns()
                .iter()
                .map(|conn| {
                    conn_slots.iter().position(|c| c == conn).ok_or_else(|| {
                        ExecError::Malformed(format!(
                            "library '{}' missing input connector '{conn}'",
                            l.name
                        ))
                    })
                })
                .collect();
        let out_conn = l.op.output_conns()[0];
        let out_writes: Vec<LibOutWrite> = df
            .out_memlets(n)
            .iter()
            .map(|(_, m)| match &m.src_conn {
                None => LibOutWrite::Fail(ExecError::Malformed(format!(
                    "output memlet of library '{}' has no connector",
                    l.name
                ))),
                Some(conn) if conn == out_conn => LibOutWrite::Write(self.memlet(m)),
                Some(conn) => LibOutWrite::Fail(ExecError::Malformed(format!(
                    "library '{}' has no output connector '{conn}'",
                    l.name
                ))),
            })
            .collect();
        let slots = self.slot_plan(&l.op, &inputs, &args, &out_writes);
        LibraryPlan {
            name: l.name.clone(),
            cover_loc: location_id(&[node_site]),
            op: l.op.clone(),
            n_slots: conn_slots.len(),
            inputs,
            args,
            first_in_data: in_memlets
                .first()
                .map(|(_, m)| DataId(self.data.intern(&m.data))),
            out_writes,
            slots,
        }
    }

    /// The node's [`SlotPlan`]; `None` when its shape rules one out or specialization is off.
    fn slot_plan(
        &self,
        op: &LibraryOp,
        inputs: &[LibInput],
        args: &[Result<usize, ExecError>],
        out_writes: &[LibOutWrite],
    ) -> Option<SlotPlan> {
        if !self.specialize || matches!(op, LibraryOp::Comm(_)) || inputs.len() != args.len() {
            return None;
        }
        let f64_ranges = |plan: &MemPlan| {
            let desc = self.sdfg.array(&self.data.names[plan.data.idx()])?;
            match &plan.kind {
                MemKind::Ranges(rps) if desc.dtype == DType::F64 => Some((plan.data, rps.clone())),
                _ => None,
            }
        };
        // One read per connector: `args` then names every input once.
        let ins = args
            .iter()
            .map(|arg| {
                let slot = *arg.as_ref().ok()?;
                inputs.iter().find_map(|li| match li {
                    LibInput::Read { slot: s, plan } if *s == slot => f64_ranges(plan),
                    _ => None,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let out = match out_writes {
            [LibOutWrite::Write(plan)] if plan.wcr.is_none() => f64_ranges(plan)?,
            _ => return None,
        };
        Some(SlotPlan { ins, out })
    }
}

impl<'p> Executor<'p> {
    pub(super) fn exec_library(
        &mut self,
        lp: &'p LibraryPlan,
        ctx: &mut RunCtx<'_>,
    ) -> Result<(), ExecError> {
        if let Some(sp) = &lp.slots {
            if let Some(ticks) = self.slots_ready(&lp.op, sp, ctx) {
                // The precheck proved the node's ticks fit the step budget.
                ctx.steps += ticks;
                self.exec_library_slots(&lp.op, sp);
                return Ok(());
            }
        }
        let mut in_vals = std::mem::take(&mut self.a.in_vals);
        let mut lib_dims = std::mem::take(&mut self.a.lib_dims);
        if in_vals.len() < lp.n_slots {
            in_vals.resize_with(lp.n_slots, Vec::new);
        }
        if lib_dims.len() < lp.n_slots {
            lib_dims.resize_with(lp.n_slots, Vec::new);
        }
        let res = self.exec_library_inner(lp, ctx, &mut in_vals, &mut lib_dims);
        self.a.in_vals = in_vals;
        self.a.lib_dims = lib_dims;
        res
    }

    /// The slot path's precheck: `Some(ticks)`, what the `Scalar` path
    /// would tick, when that path provably raises no error. Every container
    /// is live and `F64`, every memlet is `0..shape[d]` with unit step and
    /// no dimension is zero, the output aliases no operand, the shapes suit
    /// the op and the output's, and the ticks fit the step budget. `MatMul`
    /// and `Reduce` operands also hold no NaN: their kernels vectorize, and
    /// a vector unit may pick the other of two NaN operands than scalar
    /// code does, which only shows when some NaN is not the hardware's.
    fn slots_ready(&mut self, op: &LibraryOp, sp: &SlotPlan, ctx: &RunCtx<'_>) -> Option<u64> {
        let mut ticks = 0u64;
        for (data, ranges) in sp.ins.iter().chain([&sp.out]) {
            ticks += self.full_f64_box(*data, ranges)? as u64;
        }
        if sp.ins.iter().any(|(d, _)| *d == sp.out.0) {
            return None;
        }
        let (da, a) = self.operand(sp, 0);
        let result_len = match op {
            LibraryOp::MatMul => {
                let (db, b) = self.operand(sp, 1);
                let [bs, m, _, n] = matmul_dims(da, db).filter(|_| !has_nan(a) && !has_nan(b))?;
                let c_len = bs.checked_mul(m)?.checked_mul(n)?;
                ticks += c_len as u64;
                c_len
            }
            LibraryOp::Transpose if da.len() != 2 => return None,
            LibraryOp::Reduce { axis, .. } if *axis >= da.len() || has_nan(a) => return None,
            LibraryOp::Reduce { axis, .. } => a.len() / da[*axis] as usize,
            _ => a.len(),
        };
        (result_len == self.slot(sp.out.0).len() && ticks <= ctx.max_steps - ctx.steps)
            .then_some(ticks)
    }

    /// The volume of a memlet over `data` when `data` is live and `F64` and
    /// `ranges` evaluate to exactly its full, non-empty box.
    fn full_f64_box(&mut self, data: DataId, ranges: &[RangePlan]) -> Option<usize> {
        let live = self.a.live[data.idx()] && self.slot(data).dtype() == DType::F64;
        if !live || self.slot(data).shape().len() != ranges.len() {
            return None;
        }
        for (d, rp) in ranges.iter().enumerate() {
            let r = self.eval_range(rp).ok()?;
            if (r.start, r.step) != (0, 1) || r.end != self.slot(data).shape()[d] || r.end <= 0 {
                return None;
            }
        }
        Some(self.slot(data).len())
    }

    /// The buffer of a live container.
    fn slot(&self, data: DataId) -> &ArrayValue {
        self.a.arrays[data.idx()]
            .as_ref()
            .expect("live slot holds a buffer")
    }

    /// The shape and payload of operand `i` of a node whose containers
    /// [`Executor::full_f64_box`] accepted.
    fn operand(&self, sp: &SlotPlan, i: usize) -> (&[i64], &[f64]) {
        let a = self.slot(sp.ins[i].0);
        (a.shape(), a.as_f64_slice().expect("checked dtype is F64"))
    }

    /// Runs a node [`Executor::slots_ready`] accepted: the output moves
    /// out of its slot and the op writes it in place from its operands'
    /// payloads.
    fn exec_library_slots(&mut self, op: &LibraryOp, sp: &SlotPlan) {
        let mut out_arr = self.a.arrays[sp.out.0.idx()]
            .take()
            .expect("live slot holds a buffer");
        let out = out_arr.as_f64_slice_mut().expect("checked dtype is F64");
        let (da, a) = self.operand(sp, 0);
        match op {
            LibraryOp::MatMul => {
                let (db, b) = self.operand(sp, 1);
                matmul_f64(matmul_dims(da, db).expect("checked shapes"), a, b, out);
            }
            LibraryOp::Transpose => {
                // Row `i` of the input is column `i` of the output.
                for (i, row) in a.chunks_exact(da[1] as usize).enumerate() {
                    let col = out.iter_mut().skip(i).step_by(da[0] as usize);
                    col.zip(row).for_each(|(o, &x)| *o = x);
                }
            }
            LibraryOp::Reduce { op, axis } => reduce_f64(*op, *axis, da, a, out),
            LibraryOp::Copy => out.copy_from_slice(a),
            LibraryOp::Softmax => softmax_f64(*da.last().expect("rank >= 1") as usize, a, out),
            LibraryOp::Comm(_) => unreachable!("collectives have no slot plan"),
        }
        self.a.arrays[sp.out.0.idx()] = Some(out_arr);
    }

    fn exec_library_inner(
        &mut self,
        lp: &'p LibraryPlan,
        ctx: &mut RunCtx<'_>,
        in_vals: &mut [Vec<Scalar>],
        lib_dims: &mut [Vec<i64>],
    ) -> Result<(), ExecError> {
        for li in &lp.inputs {
            match li {
                LibInput::Fail(e) => return Err(e.clone()),
                LibInput::Read { slot, plan } => {
                    // Block dims evaluate before the read, like the
                    // tree-walk engine's `block_dims` call.
                    let dims = &mut lib_dims[*slot];
                    dims.clear();
                    self.eval_block_dims(plan, dims)?;
                    let buf = &mut in_vals[*slot];
                    buf.clear();
                    self.read_plan(plan, ctx, buf, &lp.name)?;
                }
            }
        }
        let arg = |i: usize| -> Result<(&Vec<i64>, &Vec<Scalar>), ExecError> {
            match &lp.args[i] {
                Ok(slot) => Ok((&lib_dims[*slot], &in_vals[*slot])),
                Err(e) => Err(e.clone()),
            }
        };

        let out: Vec<Scalar> = match &lp.op {
            LibraryOp::MatMul => {
                let (da, a) = arg(0)?;
                let (db, b) = arg(1)?;
                let c = matmul(&lp.name, da, a, db, b)?;
                ctx.tick(c.len() as u64)?;
                c
            }
            LibraryOp::Transpose => {
                let (d, v) = arg(0)?;
                if d.len() != 2 {
                    return Err(ExecError::ShapeError {
                        node: lp.name.clone(),
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
                out
            }
            LibraryOp::Reduce { op, axis } => {
                let (d, v) = arg(0)?;
                reduce(&lp.name, *op, *axis, d, v)?
            }
            LibraryOp::Copy => {
                let (_, v) = arg(0)?;
                v.clone()
            }
            LibraryOp::Softmax => {
                let (d, v) = arg(0)?;
                softmax(d, v)
            }
            LibraryOp::Comm(comm_op) => {
                let (d, v) = arg(0)?;
                let handler = ctx.comm.ok_or_else(|| ExecError::NoCommHandler {
                    node: lp.name.clone(),
                })?;
                let rank = self
                    .prog
                    .sym_id("rank")
                    .and_then(|id| self.a.syms[id.idx()])
                    .unwrap_or(0);
                let dtype = lp
                    .first_in_data
                    .filter(|id| self.a.live[id.idx()])
                    .and_then(|id| self.a.arrays[id.idx()].as_ref())
                    .map(|a| a.dtype())
                    .unwrap_or(DType::F64);
                let mut buf = ArrayValue::zeros(dtype, d.clone());
                for (i, &s) in v.iter().enumerate() {
                    buf.set(i, s);
                }
                let result = handler.collective(&lp.name, comm_op, rank, &buf)?;
                (0..result.len()).map(|i| result.get(i)).collect()
            }
        };

        for ow in &lp.out_writes {
            match ow {
                LibOutWrite::Fail(e) => return Err(e.clone()),
                LibOutWrite::Write(plan) => self.write_plan(plan, ctx, &out, &lp.name)?,
            }
        }
        Ok(())
    }
}

/// True when `v` holds a NaN (a branch-free scan, so it vectorizes).
fn has_nan(v: &[f64]) -> bool {
    v.iter().fold(false, |nan, x| nan | x.is_nan())
}

/// `[batch, m, k, n]` of a 2-D (`batch` 1) or batched 3-D matrix product
/// of row-major operands of shapes `da` and `db`; `None` when the ranks
/// or the shared dimensions do not match ([`matmul`]'s shape errors).
fn matmul_dims(da: &[i64], db: &[i64]) -> Option<[usize; 4]> {
    let d = match (da, db) {
        ([m, k], [k2, n]) if k == k2 => [1, *m, *k, *n],
        ([bs, m, k], [bs2, k2, n]) if bs == bs2 && k == k2 => [*bs, *m, *k, *n],
        _ => return None,
    };
    Some(d.map(|x| x as usize))
}

/// `c = a @ b` in i-l-j order: each output row is zeroed, then gains
/// `a[i][l] * b[l]` for `l` in index order, so every element sums its `k`
/// products from `0.0` exactly as [`matmul`]'s i-j-l loop does, while the
/// inner loop runs over unit-stride rows.
fn matmul_f64([_, m, k, n]: [usize; 4], a: &[f64], b: &[f64], c: &mut [f64]) {
    let batches = a.chunks_exact(m * k).zip(b.chunks_exact(k * n));
    for ((a, b), c) in batches.zip(c.chunks_exact_mut(m * n)) {
        for (a_row, c_row) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
            c_row.fill(0.0);
            for (x, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
                for (cj, bj) in c_row.iter_mut().zip(b_row) {
                    *cj += x * bj;
                }
            }
        }
    }
}

/// [`reduce`] over `axis` of a row-major `dims` payload, into `out`.
fn reduce_f64(op: Wcr, axis: usize, dims: &[i64], v: &[f64], out: &mut [f64]) {
    let inner = dims[axis + 1..].iter().product::<i64>() as usize;
    out.fill(match op {
        Wcr::Sum => 0.0,
        Wcr::Prod => 1.0,
        Wcr::Max => f64::NEG_INFINITY,
        Wcr::Min => f64::INFINITY,
    });
    let slabs = v.chunks_exact(dims[axis] as usize * inner);
    for (slab, accs) in slabs.zip(out.chunks_exact_mut(inner)) {
        for row in slab.chunks_exact(inner) {
            for (acc, &x) in accs.iter_mut().zip(row) {
                *acc = match op {
                    Wcr::Sum => *acc + x,
                    Wcr::Prod => *acc * x,
                    Wcr::Max => acc.max(x),
                    Wcr::Min => acc.min(x),
                };
            }
        }
    }
}

/// [`softmax`] over rows of length `row`, into `out`: the exponentials go
/// into the output row, which is then divided by their sum.
fn softmax_f64(row: usize, v: &[f64], out: &mut [f64]) {
    for (x, y) in v.chunks_exact(row).zip(out.chunks_exact_mut(row)) {
        let max = x.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for (e, &xi) in y.iter_mut().zip(x) {
            *e = (xi - max).exp();
        }
        let sum: f64 = y.iter().sum();
        for e in y.iter_mut() {
            *e /= sum;
        }
    }
}
