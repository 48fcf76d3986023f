//! Minimum input-flow cut (paper Sec. 4): minimizing a cutout's input
//! configuration by expanding it with upstream producers.
//!
//! The dataflow graph is rewired into a flow network:
//!
//! * a virtual source `S` feeds every graph source and every access of
//!   external (non-transient) data, with capacity equal to the container
//!   size — external data is always a potential input;
//! * the cutout collapses into a virtual sink `T`: incoming edges of the
//!   cutout's input access nodes are redirected to `T` with capacity equal
//!   to the moved volume;
//! * outgoing edges of data nodes get capacity ∞ so cuts happen *before*
//!   data nodes (a cut through such an edge would sever a dependency
//!   without including the data).
//!
//! The min s-t cut (Edmonds-Karp, `fuzzyflow-graph`) then yields the
//! expansion with the smallest total input volume; everything on the sink
//! side that reaches `T` joins the cutout, trading recomputation for a
//! smaller input space.

use crate::analysis::ProgramAnalysis;
use crate::extract::Cutout;
use crate::side_effects::{CutoutLocation, SideEffectContext};
use fuzzyflow_graph::{max_flow_min_cut, reachable_from, DiGraph, NodeId};
use fuzzyflow_ir::{Bindings, Sdfg, StateId};

/// Outcome of an input-configuration minimization attempt.
#[derive(Clone, Debug)]
pub struct MinCutOutcome {
    /// Original-graph nodes the min cut adds to the cutout (empty when the
    /// input space cannot be reduced).
    pub added_nodes: Vec<NodeId>,
    /// Input volume (bytes) of the original cutout.
    pub volume_before: u64,
    /// Input volume (bytes) after expansion (== before when not reduced).
    pub volume_after: u64,
    /// Value of the minimum cut (concretized element volume).
    pub cut_value: f64,
}

impl MinCutOutcome {
    /// Fractional reduction of the input space, e.g. `0.75` for the
    /// paper's Fig. 5 BERT case.
    pub fn reduction(&self) -> f64 {
        if self.volume_before == 0 {
            0.0
        } else {
            1.0 - (self.volume_after as f64 / self.volume_before as f64)
        }
    }
}

/// Builds the flow network and runs the min s-t cut, returning the set of
/// original nodes to add to the cutout (possibly empty).
fn min_input_flow_cut(
    sdfg: &Sdfg,
    state: StateId,
    cutout_nodes: &[NodeId],
    input_config: &[String],
    bindings: &Bindings,
) -> (Vec<NodeId>, f64) {
    let df = &sdfg.state(state).df;
    let in_cutout = |n: NodeId| cutout_nodes.contains(&n);

    // Flow graph: one node per non-cutout dataflow node, plus S and T.
    let mut flow: DiGraph<Option<NodeId>, f64> = DiGraph::new();
    let s = flow.add_node(None);
    let t = flow.add_node(None);
    let mut fmap = std::collections::BTreeMap::new();
    for n in df.graph.node_ids() {
        if !in_cutout(n) {
            fmap.insert(n, flow.add_node(Some(n)));
        }
    }

    let container_size = |name: &str| -> f64 {
        sdfg.array(name)
            .and_then(|d| d.total_size().eval(bindings).ok())
            .map(|v| v.max(0) as f64)
            .unwrap_or(f64::INFINITY)
    };
    let volume = |e: fuzzyflow_graph::EdgeId| -> f64 {
        df.graph
            .edge(e)
            .volume()
            .eval(bindings)
            .map(|v| v.max(0) as f64)
            .unwrap_or(f64::INFINITY)
    };

    // Graph edges.
    for e in df.graph.edge_ids() {
        let (u, v) = df.graph.endpoints(e);
        match (in_cutout(u), in_cutout(v)) {
            (false, false) => {
                let u_node = df.graph.node(u);
                let v_node = df.graph.node(v);
                // Cuts must land *before* data nodes: outgoing edges of
                // access nodes are uncuttable.
                let mut cap = if u_node.is_access() {
                    f64::INFINITY
                } else {
                    volume(e)
                };
                // External data is always an input: only the S-edge in
                // front of it may be cut.
                if let Some(name) = v_node.as_access() {
                    if sdfg.array(name).map(|d| !d.transient).unwrap_or(true) {
                        cap = f64::INFINITY;
                    }
                }
                flow.add_edge(fmap[&u], fmap[&v], cap);
            }
            // Incoming edges of the cutout's input access nodes redirect
            // to T, carrying the volume moved across them.
            (false, true) => {
                let is_input_access = df
                    .graph
                    .node(v)
                    .as_access()
                    .map(|name| input_config.contains(&name.to_string()))
                    .unwrap_or(false);
                if is_input_access {
                    flow.add_edge(fmap[&u], t, volume(e));
                }
            }
            // Edges out of the cutout do not constrain the input flow.
            (true, _) => {}
        }
    }

    // Source edges.
    for n in df.graph.node_ids() {
        if in_cutout(n) {
            continue;
        }
        match df.graph.node(n).as_access() {
            Some(name) => {
                let external = sdfg.array(name).map(|d| !d.transient).unwrap_or(true);
                if external || df.graph.in_degree(n) == 0 {
                    flow.add_edge(s, fmap[&n], container_size(name));
                }
            }
            None => {
                if df.graph.in_degree(n) == 0 {
                    // Pure generators cost nothing to include.
                    flow.add_edge(s, fmap[&n], 0.0);
                }
            }
        }
    }

    // Input access nodes *inside* the cutout with no producer are fixed
    // inputs; they do not appear in the network (constant cost on both
    // sides of any cut).

    let result = max_flow_min_cut(&flow, s, t, |_, &c| c);
    if !result.max_flow.is_finite() {
        return (Vec::new(), result.max_flow);
    }

    // Expand by sink-side nodes that can reach T.
    let mut reverse: DiGraph<(), ()> = DiGraph::new();
    for _ in 0..flow.upper_node_bound() {
        reverse.add_node(());
    }
    for e in flow.edge_ids() {
        let (u, v) = flow.endpoints(e);
        reverse.add_edge(NodeId(v.0), NodeId(u.0), ());
    }
    let reaches_t = reachable_from(&reverse, &[NodeId(t.0)]);
    let added: Vec<NodeId> = result
        .sink_side
        .iter()
        .filter(|&&fnode| fnode != t && reaches_t.contains(&NodeId(fnode.0)))
        .filter_map(|&fnode| *flow.node(fnode))
        .collect();
    (added, result.max_flow)
}

/// Attempts to minimize a cutout's input configuration (paper Sec. 4.2):
/// [`ProgramAnalysis::minimize_input_configuration`] over a throwaway
/// analysis.
pub fn minimize_input_configuration(
    sdfg: &Sdfg,
    cutout: Cutout,
    ctx: &SideEffectContext,
    bindings: &Bindings,
) -> (Cutout, MinCutOutcome) {
    ProgramAnalysis::with_context(sdfg, ctx.clone()).minimize_input_configuration(cutout, bindings)
}

impl ProgramAnalysis<'_> {
    /// Attempts to minimize a cutout's input configuration (paper Sec. 4.2).
    /// Returns the (possibly expanded) cutout and the outcome. "If the input
    /// space cannot be further minimized, the original cutout is used."
    pub fn minimize_input_configuration(
        &self,
        cutout: Cutout,
        bindings: &Bindings,
    ) -> (Cutout, MinCutOutcome) {
        let sdfg = self.sdfg();
        let volume_before = cutout.input_volume_bytes(bindings).unwrap_or(u64::MAX);
        let (state, delta_nodes) = match &cutout.location {
            CutoutLocation::Nodes { state, nodes } => (*state, nodes.clone()),
            // State-level cutouts are not minimized (the flow formulation is
            // per-dataflow-graph).
            CutoutLocation::States(_) => {
                let outcome = MinCutOutcome {
                    added_nodes: Vec::new(),
                    volume_before,
                    volume_after: volume_before,
                    cut_value: 0.0,
                };
                return (cutout, outcome);
            }
        };

        // The full cutout node set (ΔT + access neighbors) is what collapses
        // into T.
        let cutout_node_set: Vec<NodeId> = cutout.node_map.keys().copied().collect();
        let (added, cut_value) = min_input_flow_cut(
            sdfg,
            state,
            &cutout_node_set,
            &cutout.input_config,
            bindings,
        );
        // Never absorb communication nodes: cutouts must stay testable on a
        // single rank (paper Sec. 6.2) — data received through collectives is
        // exposed as a regular input instead.
        let df = &sdfg.state(state).df;
        let adds_comm = added.iter().any(|&n| {
            fn has_comm(node: &fuzzyflow_ir::DfNode) -> bool {
                match node {
                    fuzzyflow_ir::DfNode::Library(l) => l.op.is_comm(),
                    fuzzyflow_ir::DfNode::Map(m) => m
                        .body
                        .graph
                        .node_ids()
                        .any(|k| has_comm(m.body.graph.node(k))),
                    _ => false,
                }
            }
            has_comm(df.graph.node(n))
        });
        if added.is_empty() || adds_comm {
            let outcome = MinCutOutcome {
                added_nodes: Vec::new(),
                volume_before,
                volume_after: volume_before,
                cut_value,
            };
            return (cutout, outcome);
        }

        // Re-extract with the expanded node set (computation nodes only; the
        // access closure is recomputed).
        let mut expanded: Vec<NodeId> = delta_nodes;
        for n in &added {
            if !expanded.contains(n) && !sdfg.state(state).df.graph.node(*n).is_access() {
                expanded.push(*n);
            }
        }
        match self.extract_dataflow_cutout(state, &expanded) {
            Ok(bigger) => {
                let volume_after = bigger.input_volume_bytes(bindings).unwrap_or(u64::MAX);
                if volume_after < volume_before {
                    let outcome = MinCutOutcome {
                        added_nodes: added,
                        volume_before,
                        volume_after,
                        cut_value,
                    };
                    (bigger, outcome)
                } else {
                    let outcome = MinCutOutcome {
                        added_nodes: Vec::new(),
                        volume_before,
                        volume_after: volume_before,
                        cut_value,
                    };
                    (cutout, outcome)
                }
            }
            Err(_) => {
                let outcome = MinCutOutcome {
                    added_nodes: Vec::new(),
                    volume_before,
                    volume_after: volume_before,
                    cut_value,
                };
                (cutout, outcome)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_cutout;
    use fuzzyflow_ir::{
        sym, DType, Memlet, ScalarExpr, Schedule, SdfgBuilder, Subset, SymRange, Tasklet,
    };
    use fuzzyflow_transforms::ChangeSet;

    /// The paper's Fig. 4 shape, array-valued so volumes matter:
    ///   f: a[i] = x[i]+1       (x external, N elements)
    ///   g: b[i] = x[i]*2
    ///   mul: tmp[i] = b[i]*2
    ///   h: out[i] = a[i]+tmp[i]
    /// Cutout around {mul, h} initially needs inputs {a, tmp... } — the
    /// min cut expands to include f and g so that only x remains.
    fn fig4_like() -> (Sdfg, StateId, Vec<NodeId>) {
        let mut b = SdfgBuilder::new("fig4");
        b.symbol("N");
        b.array("x", DType::F64, &["N"]);
        b.transient("a", DType::F64, &["N"]);
        b.transient("bb", DType::F64, &["N"]);
        b.transient("tmp", DType::F64, &["N"]);
        b.array("out", DType::F64, &["N"]);
        let st = b.start();
        let mut picks = Vec::new();
        b.in_state(st, |df| {
            let x = df.access("x");
            let a = df.access("a");
            let bacc = df.access("bb");
            let tmp = df.access("tmp");
            let out = df.access("out");
            let mk_map = |df: &mut fuzzyflow_ir::DataflowBuilder,
                          name: &str,
                          src: &str,
                          dst: &str,
                          expr: ScalarExpr|
             -> NodeId {
                df.map(
                    &["i"],
                    vec![SymRange::full(sym("N"))],
                    Schedule::Parallel,
                    |body| {
                        let s = body.access(src);
                        let d = body.access(dst);
                        let t = body.tasklet(Tasklet::simple(name, vec!["v"], "y", expr.clone()));
                        body.read(
                            s,
                            t,
                            Memlet::new(src, Subset::at(vec![sym("i")])).to_conn("v"),
                        );
                        body.write(
                            t,
                            d,
                            Memlet::new(dst, Subset::at(vec![sym("i")])).from_conn("y"),
                        );
                    },
                )
            };
            let f = mk_map(
                df,
                "f",
                "x",
                "a",
                ScalarExpr::r("v").add(ScalarExpr::f64(1.0)),
            );
            df.auto_wire(f, &[x], &[a]);
            let g = mk_map(
                df,
                "g",
                "x",
                "bb",
                ScalarExpr::r("v").mul(ScalarExpr::f64(2.0)),
            );
            df.auto_wire(g, &[x], &[bacc]);
            let mul = mk_map(
                df,
                "mul",
                "bb",
                "tmp",
                ScalarExpr::r("v").mul(ScalarExpr::f64(2.0)),
            );
            df.auto_wire(mul, &[bacc], &[tmp]);
            // h: out[i] = a[i] + tmp[i]
            let h = df.map(
                &["i"],
                vec![SymRange::full(sym("N"))],
                Schedule::Parallel,
                |body| {
                    let a = body.access("a");
                    let tm = body.access("tmp");
                    let o = body.access("out");
                    let t = body.tasklet(Tasklet::simple(
                        "h",
                        vec!["p", "q"],
                        "y",
                        ScalarExpr::r("p").add(ScalarExpr::r("q")),
                    ));
                    body.read(
                        a,
                        t,
                        Memlet::new("a", Subset::at(vec![sym("i")])).to_conn("p"),
                    );
                    body.read(
                        tm,
                        t,
                        Memlet::new("tmp", Subset::at(vec![sym("i")])).to_conn("q"),
                    );
                    body.write(
                        t,
                        o,
                        Memlet::new("out", Subset::at(vec![sym("i")])).from_conn("y"),
                    );
                },
            );
            df.auto_wire(h, &[a, tmp], &[out]);
            picks = vec![mul, h];
        });
        let p = b.build();
        (p, st, picks)
    }

    fn ctx() -> SideEffectContext {
        SideEffectContext::with_size_symbols(&["N".to_string()], 1 << 20)
    }

    #[test]
    fn mincut_halves_fig4_input_space() {
        let (p, st, picks) = fig4_like();
        let changes = ChangeSet::nodes_in_state(st, picks);
        let c = extract_cutout(&p, &changes, &ctx()).unwrap();
        // Initial inputs: a and bb (two N-element containers).
        assert_eq!(c.input_config, vec!["a".to_string(), "bb".to_string()]);
        let bindings = fuzzyflow_ir::Bindings::from_pairs([("N", 64)]);
        let (min_c, outcome) = minimize_input_configuration(&p, c, &ctx(), &bindings);
        // After the cut, only x is needed: one container instead of two.
        assert_eq!(min_c.input_config, vec!["x".to_string()]);
        assert!(!outcome.added_nodes.is_empty());
        assert!(outcome.volume_after < outcome.volume_before);
        // Reduction is ~50% (one of two equal-size containers).
        assert!(
            (outcome.reduction() - 0.5).abs() < 0.02,
            "{}",
            outcome.reduction()
        );
    }

    #[test]
    fn mincut_keeps_cutout_when_no_gain() {
        // Cutout already reads only the external input: nothing to gain.
        let (p, st, _) = fig4_like();
        let df = &p.state(st).df;
        // Find map "f" (first map reading x).
        let f = df.computation_nodes()[0];
        let changes = ChangeSet::nodes_in_state(st, [f]);
        let c = extract_cutout(&p, &changes, &ctx()).unwrap();
        assert_eq!(c.input_config, vec!["x".to_string()]);
        let bindings = fuzzyflow_ir::Bindings::from_pairs([("N", 64)]);
        let before = c.input_config.clone();
        let (min_c, outcome) = minimize_input_configuration(&p, c, &ctx(), &bindings);
        assert_eq!(min_c.input_config, before);
        assert!(outcome.added_nodes.is_empty());
        assert_eq!(outcome.volume_before, outcome.volume_after);
    }

    #[test]
    fn minimized_cutout_still_executes() {
        let (p, st, picks) = fig4_like();
        let changes = ChangeSet::nodes_in_state(st, picks);
        let c = extract_cutout(&p, &changes, &ctx()).unwrap();
        let bindings = fuzzyflow_ir::Bindings::from_pairs([("N", 8)]);
        let (min_c, _) = minimize_input_configuration(&p, c, &ctx(), &bindings);
        assert!(fuzzyflow_ir::validate(&min_c.sdfg).is_ok());
        let mut stx = fuzzyflow_interp::ExecState::new();
        stx.bind("N", 4);
        stx.set_array(
            "x",
            fuzzyflow_interp::ArrayValue::from_f64(vec![4], &[1.0, 2.0, 3.0, 4.0]),
        );
        fuzzyflow_interp::run(&min_c.sdfg, &mut stx).unwrap();
        // out[i] = (x+1) + (x*2)*2 = 5x + 1... check: a = x+1; tmp = (2x)*2 = 4x.
        assert_eq!(
            stx.array("out").unwrap().to_f64_vec(),
            vec![6.0, 11.0, 16.0, 21.0]
        );
    }
}
