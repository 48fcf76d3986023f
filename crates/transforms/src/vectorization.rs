//! Vectorization — the paper's *input-dependent* transformation (Table 2,
//! Sec. 6.1): correct exactly when the vectorized dimension is divisible by
//! the vector width.
//!
//! The pass strides the innermost map by the vector width `W` and widens
//! the tasklet to `W` SIMD lanes; memlets indexing the map parameter are
//! widened from `[i]` to `[i : i+W)`. No remainder loop is generated —
//! whenever the iteration count is not a multiple of `W`, the last vector
//! load/store runs out of bounds. FuzzyFlow uncovers this only when fuzzing
//! samples a non-divisible size (paper: AFL++ needed ~157 trials; gray-box
//! constraint sampling ~1).

use crate::framework::{
    expect_map, single_node, top_level_maps, ChangeSet, MapRewrite, MatchSite, TransformError,
    Transformation, TransformationMatch,
};
use fuzzyflow_ir::{DfNode, Sdfg, Subset, SymExpr, SymRange};

/// Loop vectorization by striding + SIMD lanes.
#[derive(Clone, Debug)]
pub struct Vectorization {
    /// Vector width (paper default: 4).
    pub width: i64,
}

impl Default for Vectorization {
    fn default() -> Self {
        Vectorization { width: 4 }
    }
}

impl Vectorization {
    pub fn new(width: i64) -> Self {
        assert!(width > 1);
        Vectorization { width }
    }
}

/// True if the last dimension of the subset is exactly the index `[p]`.
fn last_dim_is_param(subset: &Subset, p: &str) -> bool {
    subset
        .dims()
        .last()
        .map(|r| r.is_index() && r.start == SymExpr::sym(p))
        .unwrap_or(false)
}

/// A map is vectorizable if its *innermost* (last) parameter is
/// unit-stride, its body is a single scalar tasklet, and every memlet
/// either indexes that parameter in its *last* dimension or does not
/// reference it at all (broadcast operand / outer-parameter indexing).
fn vectorizable(sdfg: &Sdfg, state: fuzzyflow_ir::StateId, node: fuzzyflow_graph::NodeId) -> bool {
    let map = match sdfg.state(state).df.graph.node(node).as_map() {
        Some(m) => m,
        None => return false,
    };
    // Sequential maps may carry loop dependences (in-place sweeps) that
    // lane-grouping would reorder; only parallel maps are vectorized.
    if map.schedule != fuzzyflow_ir::Schedule::Parallel
        || map.params.is_empty()
        || map.ranges.last().and_then(|r| r.step.as_int()) != Some(1)
    {
        return false;
    }
    let p = map.params.last().expect("non-empty params");
    let tasklets: Vec<_> = map
        .body
        .computation_nodes()
        .into_iter()
        .filter(|&n| map.body.graph.node(n).as_tasklet().is_some())
        .collect();
    if tasklets.len() != 1 || map.body.computation_nodes().len() != 1 {
        return false;
    }
    let t = map
        .body
        .graph
        .node(tasklets[0])
        .as_tasklet()
        .expect("tasklet");
    if t.lanes != 1 {
        return false;
    }
    for e in map.body.graph.edge_ids() {
        let m = map.body.graph.edge(e);
        let refs_param = m.subset.free_symbols().iter().any(|s| s == p);
        if refs_param && !last_dim_is_param(&m.subset, p) {
            return false;
        }
    }
    // Writes must index the parameter (otherwise lanes collide).
    for (_, m) in map.body.out_memlets(tasklets[0]) {
        if !last_dim_is_param(&m.subset, p) {
            return false;
        }
    }
    true
}

impl Transformation for Vectorization {
    fn name(&self) -> &'static str {
        "Vectorization"
    }
    fn description(&self) -> &'static str {
        "Vectorizes innermost maps by striding + SIMD lanes; correct only for sizes divisible by the vector width (Table 2: input dependent)"
    }

    fn find_matches(&self, sdfg: &Sdfg) -> Vec<TransformationMatch> {
        top_level_maps(sdfg)
            .into_iter()
            .filter(|&(st, n)| vectorizable(sdfg, st, n))
            .map(|(state, node)| TransformationMatch {
                site: MatchSite::Nodes {
                    state,
                    nodes: vec![node],
                },
                description: format!("vectorize map {node} in state {state} by {}", self.width),
            })
            .collect()
    }

    fn apply(&self, sdfg: &mut Sdfg, m: &TransformationMatch) -> Result<ChangeSet, TransformError> {
        Ok(self.rewrite(sdfg, m)?.commit(sdfg))
    }
    fn changes(&self, sdfg: &Sdfg, m: &TransformationMatch) -> Result<ChangeSet, TransformError> {
        Ok(self.rewrite(sdfg, m)?.change_set())
    }
}

impl Vectorization {
    fn rewrite(&self, sdfg: &Sdfg, m: &TransformationMatch) -> Result<MapRewrite, TransformError> {
        let (state, node) = single_node(m)?;
        let mut map = expect_map(sdfg, state, node)?.clone();
        if map.params.is_empty() {
            return Err(TransformError::MatchInvalid(
                "vectorization requires a map with parameters".into(),
            ));
        }
        let p = map.params.last().expect("non-empty").clone();
        let w = self.width;

        // Stride the innermost dimension by W. BUG (seeded, paper
        // Sec. 6.1): the range end is left unchanged and no remainder loop
        // is emitted, so the last vector access overruns unless the extent
        // divides W.
        let last = map.ranges.len() - 1;
        map.ranges[last] = SymRange::strided(
            map.ranges[last].start.clone(),
            map.ranges[last].end.clone(),
            SymExpr::Int(w),
        );

        // Widen lane-indexed memlets from [p] to [p : p+W).
        let edges: Vec<fuzzyflow_graph::EdgeId> = map.body.graph.edge_ids().collect();
        for e in edges {
            let mem = map.body.graph.edge_mut(e);
            if last_dim_is_param(&mem.subset, &p) {
                let mut dims = mem.subset.dims().to_vec();
                let last = dims.len() - 1;
                dims[last] = SymRange::span(SymExpr::sym(&p), SymExpr::sym(&p) + SymExpr::Int(w));
                mem.subset = Subset::new(dims);
            }
        }

        // Widen the tasklet to W lanes.
        let nodes: Vec<fuzzyflow_graph::NodeId> = map.body.graph.node_ids().collect();
        for n in nodes {
            if let DfNode::Tasklet(t) = map.body.graph.node_mut(n) {
                t.lanes = w as u32;
            }
        }

        Ok(MapRewrite { state, node, map })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::apply_to_clone;
    use fuzzyflow_interp::{run, ArrayValue, ExecState};
    use fuzzyflow_ir::{sym, validate, DType, Memlet, ScalarExpr, Schedule, SdfgBuilder, Tasklet};

    /// `B[i] = A[i] * scale` — the Fig. 5 loop-nest shape in miniature.
    fn scale_program() -> Sdfg {
        let mut b = SdfgBuilder::new("scale");
        b.symbol("N");
        b.array("A", DType::F64, &["N"]);
        b.array("B", DType::F64, &["N"]);
        b.scalar("scale", DType::F64);
        let st = b.start();
        b.in_state(st, |df| {
            let a = df.access("A");
            let s = df.access("scale");
            let o = df.access("B");
            let m = df.map(
                &["i"],
                vec![SymRange::full(sym("N"))],
                Schedule::Parallel,
                |body| {
                    let a = body.access("A");
                    let s = body.access("scale");
                    let o = body.access("B");
                    let t = body.tasklet(Tasklet::simple(
                        "sc",
                        vec!["x", "f"],
                        "y",
                        ScalarExpr::r("x").mul(ScalarExpr::r("f")),
                    ));
                    body.read(
                        a,
                        t,
                        Memlet::new("A", Subset::at(vec![sym("i")])).to_conn("x"),
                    );
                    body.read(s, t, Memlet::new("scale", Subset::new(vec![])).to_conn("f"));
                    body.write(
                        t,
                        o,
                        Memlet::new("B", Subset::at(vec![sym("i")])).from_conn("y"),
                    );
                },
            );
            df.auto_wire(m, &[a, s], &[o]);
        });
        b.build()
    }

    fn run_it(p: &Sdfg, n: i64) -> Result<Vec<f64>, fuzzyflow_interp::ExecError> {
        let mut st = ExecState::new();
        st.bind("N", n);
        let vals: Vec<f64> = (0..n).map(|i| i as f64).collect();
        st.set_array("A", ArrayValue::from_f64(vec![n], &vals));
        st.set_array("scale", ArrayValue::from_f64(vec![], &[3.0]));
        run(p, &mut st)?;
        Ok(st.array("B").unwrap().to_f64_vec())
    }

    #[test]
    fn matches_elementwise_map() {
        let p = scale_program();
        let v = Vectorization::default();
        assert_eq!(v.find_matches(&p).len(), 1);
    }

    #[test]
    fn correct_for_divisible_sizes() {
        let p = scale_program();
        let v = Vectorization::new(4);
        let m = &v.find_matches(&p)[0];
        let (vp, _) = apply_to_clone(&p, &v, m).unwrap();
        assert!(validate(&vp).is_ok());
        assert_eq!(run_it(&p, 8).unwrap(), run_it(&vp, 8).unwrap());
        assert_eq!(run_it(&p, 16).unwrap(), run_it(&vp, 16).unwrap());
    }

    #[test]
    fn crashes_for_non_divisible_sizes() {
        let p = scale_program();
        let v = Vectorization::new(4);
        let m = &v.find_matches(&p)[0];
        let (vp, _) = apply_to_clone(&p, &v, m).unwrap();
        let err = run_it(&vp, 10).unwrap_err();
        assert!(err.is_crash());
    }

    #[test]
    fn does_not_match_reduction_writes() {
        // s[0] += A[i]: write does not index the param -> lanes collide.
        let mut b = SdfgBuilder::new("red");
        b.symbol("N");
        b.array("A", DType::F64, &["N"]);
        b.array("s", DType::F64, &["1"]);
        let st = b.start();
        b.in_state(st, |df| {
            let a = df.access("A");
            let s = df.access("s");
            let m = df.map(
                &["i"],
                vec![SymRange::full(sym("N"))],
                Schedule::Parallel,
                |body| {
                    let a = body.access("A");
                    let s = body.access("s");
                    let t = body.tasklet(Tasklet::simple("id", vec!["x"], "y", ScalarExpr::r("x")));
                    body.read(
                        a,
                        t,
                        Memlet::new("A", Subset::at(vec![sym("i")])).to_conn("x"),
                    );
                    body.write(
                        t,
                        s,
                        Memlet::new("s", Subset::at(vec![SymExpr::Int(0)]))
                            .from_conn("y")
                            .with_wcr(fuzzyflow_ir::Wcr::Sum),
                    );
                },
            );
            df.auto_wire(m, &[a], &[s]);
        });
        let p = b.build();
        assert!(Vectorization::default().find_matches(&p).is_empty());
    }
}
