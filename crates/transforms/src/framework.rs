//! The transformation framework: matching, application, change reporting.

use fuzzyflow_graph::NodeId;
use fuzzyflow_ir::{Dataflow, DfNode, MapScope, NodeRef, Sdfg, StateId};
use std::fmt;

/// Where a transformation matched.
#[derive(Clone, Debug, PartialEq)]
pub enum MatchSite {
    /// A set of top-level dataflow nodes inside one state.
    Nodes { state: StateId, nodes: Vec<NodeId> },
    /// A canonical state-machine loop, identified by its guard state.
    Loop { guard: StateId },
    /// A set of states (state-level rewrites).
    States { states: Vec<StateId> },
    /// One inter-state edge (assignment/condition rewrites).
    InterstateEdge { edge: fuzzyflow_graph::EdgeId },
}

/// One applicable instance of a transformation.
#[derive(Clone, Debug, PartialEq)]
pub struct TransformationMatch {
    pub site: MatchSite,
    /// Human-readable description for reports.
    pub description: String,
}

/// The set of program elements a transformation modified — the paper's ΔT.
/// White-box transformations report this directly (Sec. 3 step 2), so no
/// graph-diff is needed.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct ChangeSet {
    /// Modified/created dataflow nodes (top-level references).
    pub nodes: Vec<NodeRef>,
    /// States whose control-flow context changed (loop rewrites, state
    /// eliminations). When non-empty, cutouts must be taken at state
    /// granularity.
    pub states: Vec<StateId>,
}

impl ChangeSet {
    /// Change set of top-level dataflow nodes within one state.
    pub fn nodes_in_state(state: StateId, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        ChangeSet {
            nodes: nodes.into_iter().map(|n| NodeRef::top(state, n)).collect(),
            states: Vec::new(),
        }
    }

    /// Change set of whole states.
    pub fn of_states(states: Vec<StateId>) -> Self {
        ChangeSet {
            nodes: Vec::new(),
            states,
        }
    }

    /// True if the change involves control-flow structure.
    pub fn is_state_level(&self) -> bool {
        !self.states.is_empty()
    }
}

/// Errors raised while applying a transformation.
#[derive(Clone, Debug, PartialEq)]
pub enum TransformError {
    /// The match does not (or no longer does) describe a valid pattern in
    /// the given program. Raised e.g. when a transformation is replayed on
    /// a cutout that does not contain the elements it wants to change —
    /// the paper treats this as an exposed problem (Sec. 3 step 2).
    MatchInvalid(String),
    /// The transformation cannot be applied for a stated reason.
    NotApplicable(String),
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::MatchInvalid(m) => write!(f, "invalid match: {m}"),
            TransformError::NotApplicable(m) => write!(f, "not applicable: {m}"),
        }
    }
}

impl std::error::Error for TransformError {}

/// A program transformation: pattern matching plus rewriting with
/// white-box change reporting.
pub trait Transformation: Send + Sync {
    /// Unique pass name (used in reports and Table-2 style summaries).
    fn name(&self) -> &'static str;

    /// One-line description of what the pass does.
    fn description(&self) -> &'static str;

    /// All applicable instances in the program.
    fn find_matches(&self, sdfg: &Sdfg) -> Vec<TransformationMatch>;

    /// Applies one instance in place, returning the change set.
    fn apply(&self, sdfg: &mut Sdfg, m: &TransformationMatch) -> Result<ChangeSet, TransformError>;

    /// The change set [`apply`](Self::apply) would return for `m` on
    /// `sdfg`, without modifying `sdfg`: the same nodes in the same order
    /// (the verification pipeline's cutout memo keys on it), or the same
    /// error. The default applies the pass to a clone of the whole
    /// program; white-box passes override it to build their rewrite from
    /// the borrowed program and report ΔT without committing it.
    fn changes(&self, sdfg: &Sdfg, m: &TransformationMatch) -> Result<ChangeSet, TransformError> {
        self.apply(&mut sdfg.clone(), m)
    }
}

/// A rewrite of one top-level map scope, built from a borrowed program.
/// The map passes' `apply` commits it; their `changes` reads its change
/// set and drops it, so both run the pass's one copy of the logic.
pub(crate) struct MapRewrite {
    pub(crate) state: StateId,
    pub(crate) node: NodeId,
    /// The scope that replaces the matched one.
    pub(crate) map: MapScope,
}

impl MapRewrite {
    /// ΔT of the rewrite: the rewritten map node.
    pub(crate) fn change_set(&self) -> ChangeSet {
        ChangeSet::nodes_in_state(self.state, [self.node])
    }

    /// Replaces the matched map with the rewritten one.
    pub(crate) fn commit(self, sdfg: &mut Sdfg) -> ChangeSet {
        let changes = self.change_set();
        *sdfg.state_mut(self.state).df.graph.node_mut(self.node) = DfNode::Map(self.map);
        changes
    }
}

/// Applies a transformation to a clone of the program, returning the
/// transformed program and its change set. The verification pipeline
/// learns ΔT through [`Transformation::changes`] instead; tests and
/// replays that want the whole transformed program use this.
pub fn apply_to_clone(
    sdfg: &Sdfg,
    t: &dyn Transformation,
    m: &TransformationMatch,
) -> Result<(Sdfg, ChangeSet), TransformError> {
    let mut clone = sdfg.clone();
    let changes = t.apply(&mut clone, m)?;
    Ok((clone, changes))
}

// ---------------------------------------------------------------------
// Shared matching helpers used by the concrete passes.
// ---------------------------------------------------------------------

/// All `(state, node)` pairs of top-level map scopes.
pub fn top_level_maps(sdfg: &Sdfg) -> Vec<(StateId, NodeId)> {
    let mut out = Vec::new();
    for st in sdfg.states.node_ids() {
        let df = &sdfg.states.node(st).df;
        for n in df.graph.node_ids() {
            if matches!(df.graph.node(n), DfNode::Map(_)) {
                out.push((st, n));
            }
        }
    }
    out
}

/// Renames every reference to container `from` to `to` in a dataflow graph
/// (access nodes, memlet data fields), recursing into map bodies.
pub fn rename_container(df: &mut Dataflow, from: &str, to: &str) {
    let nodes: Vec<NodeId> = df.graph.node_ids().collect();
    for n in nodes {
        match df.graph.node_mut(n) {
            DfNode::Access(name) if name == from => *name = to.to_string(),
            DfNode::Map(m) => rename_container(&mut m.body, from, to),
            _ => {}
        }
    }
    let edges: Vec<fuzzyflow_graph::EdgeId> = df.graph.edge_ids().collect();
    for e in edges {
        let m = df.graph.edge_mut(e);
        if m.data == from {
            m.data = to.to_string();
        }
    }
}

/// Extracts the single node id of a `Nodes` match site, if it has exactly
/// one node.
pub fn single_node(m: &TransformationMatch) -> Result<(StateId, NodeId), TransformError> {
    match &m.site {
        MatchSite::Nodes { state, nodes } if nodes.len() == 1 => Ok((*state, nodes[0])),
        other => Err(TransformError::MatchInvalid(format!(
            "expected single-node match site, got {other:?}"
        ))),
    }
}

/// Looks up a map scope node, erroring politely when the element is not in
/// the program (e.g. replay on a cutout that lacks it).
pub fn expect_map(
    sdfg: &Sdfg,
    state: StateId,
    node: NodeId,
) -> Result<&fuzzyflow_ir::MapScope, TransformError> {
    let st = sdfg
        .states
        .try_node(state)
        .ok_or_else(|| TransformError::MatchInvalid(format!("state {state} not in program")))?;
    if !st.df.graph.contains_node(node) {
        return Err(TransformError::MatchInvalid(format!(
            "node {node} not in state {state}"
        )));
    }
    st.df
        .graph
        .node(node)
        .as_map()
        .ok_or_else(|| TransformError::MatchInvalid(format!("node {node} is not a map scope")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzyflow_ir::{
        sym, DType, Memlet, ScalarExpr, Schedule, SdfgBuilder, Subset, SymRange, Tasklet,
    };

    fn map_program() -> Sdfg {
        let mut b = SdfgBuilder::new("p");
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
                    let t = body.tasklet(Tasklet::simple("id", vec!["x"], "y", ScalarExpr::r("x")));
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

    #[test]
    fn finds_top_level_maps() {
        let p = map_program();
        let maps = top_level_maps(&p);
        assert_eq!(maps.len(), 1);
        assert_eq!(maps[0].0, p.start);
    }

    #[test]
    fn rename_container_recurses() {
        let mut p = map_program();
        let st = p.start;
        rename_container(&mut p.state_mut(st).df, "A", "gpu_A");
        let df = &p.state(st).df;
        assert!(df.find_access("A").is_none() || df.find_access("gpu_A").is_some());
        assert!(df.referenced_containers().contains(&"gpu_A".to_string()));
        assert!(!df.referenced_containers().contains(&"A".to_string()));
    }

    #[test]
    fn change_set_constructors() {
        let p = map_program();
        let cs = ChangeSet::nodes_in_state(p.start, [NodeId(2)]);
        assert_eq!(cs.nodes.len(), 1);
        assert!(!cs.is_state_level());
        let cs = ChangeSet::of_states(vec![p.start]);
        assert!(cs.is_state_level());
    }
}
