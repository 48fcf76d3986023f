//! The top-level program container: a state machine over dataflow states.

use crate::data::DataDesc;
use crate::dataflow::Dataflow;
use crate::dtype::DType;
use crate::node::DfNode;
pub use crate::tasklet::CmpOp;
use fuzzyflow_graph::{DiGraph, NodeId};
use fuzzyflow_sym::{Bindings, SymError, SymExpr};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a state in the state machine (a node of `Sdfg::states`).
pub type StateId = NodeId;

/// One state: a label plus an acyclic dataflow graph.
#[derive(Clone, Debug, Default, Hash)]
pub struct State {
    pub label: String,
    pub df: Dataflow,
}

impl State {
    /// Creates an empty state with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        State {
            label: label.into(),
            df: Dataflow::new(),
        }
    }
}

/// Boolean condition over integer symbols, used on inter-state edges.
#[derive(Clone, Debug, PartialEq, Hash)]
pub enum CondExpr {
    /// Always true (unconditional edge).
    True,
    Cmp(CmpOp, SymExpr, SymExpr),
    Not(Box<CondExpr>),
    And(Box<CondExpr>, Box<CondExpr>),
    Or(Box<CondExpr>, Box<CondExpr>),
}

impl CondExpr {
    /// `a < b` and friends.
    pub fn cmp(op: CmpOp, a: SymExpr, b: SymExpr) -> Self {
        CondExpr::Cmp(op, a, b)
    }

    /// Logical negation.
    pub fn negate(self) -> Self {
        match self {
            // Keep comparisons primitive so loop detection can match them.
            CondExpr::Cmp(CmpOp::Lt, a, b) => CondExpr::Cmp(CmpOp::Ge, a, b),
            CondExpr::Cmp(CmpOp::Le, a, b) => CondExpr::Cmp(CmpOp::Gt, a, b),
            CondExpr::Cmp(CmpOp::Gt, a, b) => CondExpr::Cmp(CmpOp::Le, a, b),
            CondExpr::Cmp(CmpOp::Ge, a, b) => CondExpr::Cmp(CmpOp::Lt, a, b),
            CondExpr::Cmp(CmpOp::Eq, a, b) => CondExpr::Cmp(CmpOp::Ne, a, b),
            CondExpr::Cmp(CmpOp::Ne, a, b) => CondExpr::Cmp(CmpOp::Eq, a, b),
            other => CondExpr::Not(Box::new(other)),
        }
    }

    /// Evaluates under concrete symbol bindings.
    pub fn eval(&self, b: &Bindings) -> Result<bool, SymError> {
        Ok(match self {
            CondExpr::True => true,
            CondExpr::Cmp(op, x, y) => {
                let (xv, yv) = (x.eval(b)?, y.eval(b)?);
                match op {
                    CmpOp::Lt => xv < yv,
                    CmpOp::Le => xv <= yv,
                    CmpOp::Gt => xv > yv,
                    CmpOp::Ge => xv >= yv,
                    CmpOp::Eq => xv == yv,
                    CmpOp::Ne => xv != yv,
                }
            }
            CondExpr::Not(c) => !c.eval(b)?,
            CondExpr::And(l, r) => l.eval(b)? && r.eval(b)?,
            CondExpr::Or(l, r) => l.eval(b)? || r.eval(b)?,
        })
    }

    /// Free symbols referenced by the condition.
    pub fn free_symbols(&self) -> Vec<String> {
        let mut v = Vec::new();
        self.collect_symbols(&mut v);
        v
    }

    fn collect_symbols(&self, out: &mut Vec<String>) {
        match self {
            CondExpr::True => {}
            CondExpr::Cmp(_, a, b) => {
                a.collect_symbols(out);
                b.collect_symbols(out);
            }
            CondExpr::Not(c) => c.collect_symbols(out),
            CondExpr::And(l, r) | CondExpr::Or(l, r) => {
                l.collect_symbols(out);
                r.collect_symbols(out);
            }
        }
    }
}

impl fmt::Display for CondExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CondExpr::True => write!(f, "true"),
            CondExpr::Cmp(op, a, b) => {
                let s = match op {
                    CmpOp::Lt => "<",
                    CmpOp::Le => "<=",
                    CmpOp::Gt => ">",
                    CmpOp::Ge => ">=",
                    CmpOp::Eq => "==",
                    CmpOp::Ne => "!=",
                };
                write!(f, "{a} {s} {b}")
            }
            CondExpr::Not(c) => write!(f, "!({c})"),
            CondExpr::And(l, r) => write!(f, "({l}) && ({r})"),
            CondExpr::Or(l, r) => write!(f, "({l}) || ({r})"),
        }
    }
}

/// An inter-state edge: taken when `condition` holds; applies symbol
/// `assignments` on traversal. Together these express arbitrary structured
/// and unstructured control flow (paper Sec. 2.3).
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct InterstateEdge {
    pub condition: CondExpr,
    pub assignments: Vec<(String, SymExpr)>,
}

impl InterstateEdge {
    /// Unconditional edge without assignments.
    pub fn always() -> Self {
        InterstateEdge {
            condition: CondExpr::True,
            assignments: Vec::new(),
        }
    }

    /// Conditional edge.
    pub fn when(condition: CondExpr) -> Self {
        InterstateEdge {
            condition,
            assignments: Vec::new(),
        }
    }

    /// Adds a symbol assignment applied when the edge is taken.
    pub fn assign(mut self, sym: impl Into<String>, value: SymExpr) -> Self {
        self.assignments.push((sym.into(), value));
        self
    }
}

/// Reference to a dataflow node anywhere in an SDFG: the owning state plus
/// the path of node ids descending through nested map bodies. The last path
/// element is the referenced node itself.
///
/// Change sets ([`crate::sdfg`]-level ΔT in the paper, Sec. 3 step 2) are
/// sets of `NodeRef`s.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeRef {
    pub state: StateId,
    pub path: Vec<NodeId>,
}

impl NodeRef {
    /// A node directly inside a state (not nested in any map).
    pub fn top(state: StateId, node: NodeId) -> Self {
        NodeRef {
            state,
            path: vec![node],
        }
    }

    /// The node id at the top level of the state this reference descends
    /// through (for nested nodes: the enclosing outermost map).
    pub fn top_node(&self) -> NodeId {
        self.path[0]
    }

    /// The referenced node id (last path element).
    pub fn leaf(&self) -> NodeId {
        *self.path.last().expect("NodeRef path is never empty")
    }

    /// True if the referenced node is nested inside a map.
    pub fn is_nested(&self) -> bool {
        self.path.len() > 1
    }
}

impl fmt::Display for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:", self.state)?;
        for (i, n) in self.path.iter().enumerate() {
            if i > 0 {
                write!(f, "/")?;
            }
            write!(f, "{n}")?;
        }
        Ok(())
    }
}

/// A stateful dataflow program.
#[derive(Clone, Debug, Hash)]
pub struct Sdfg {
    /// Program name.
    pub name: String,
    /// Scalar program parameters (symbols) and their types. Symbol values
    /// are part of a test case's input configuration.
    pub symbols: BTreeMap<String, DType>,
    /// Data container descriptors.
    pub arrays: BTreeMap<String, DataDesc>,
    /// The state machine.
    pub states: DiGraph<State, InterstateEdge>,
    /// Entry state.
    pub start: StateId,
}

impl Sdfg {
    /// Creates an SDFG with a single empty start state.
    pub fn new(name: impl Into<String>) -> Self {
        let mut states = DiGraph::new();
        let start = states.add_node(State::new("start"));
        Sdfg {
            name: name.into(),
            symbols: BTreeMap::new(),
            arrays: BTreeMap::new(),
            states,
            start,
        }
    }

    /// Adds a state, returning its id.
    pub fn add_state(&mut self, label: impl Into<String>) -> StateId {
        self.states.add_node(State::new(label))
    }

    /// Adds an inter-state edge.
    pub fn add_interstate_edge(
        &mut self,
        from: StateId,
        to: StateId,
        edge: InterstateEdge,
    ) -> fuzzyflow_graph::EdgeId {
        self.states.add_edge(from, to, edge)
    }

    /// State accessor.
    pub fn state(&self, id: StateId) -> &State {
        self.states.node(id)
    }

    /// Mutable state accessor.
    pub fn state_mut(&mut self, id: StateId) -> &mut State {
        self.states.node_mut(id)
    }

    /// Container descriptor accessor.
    pub fn array(&self, name: &str) -> Option<&DataDesc> {
        self.arrays.get(name)
    }

    /// Resolves a [`NodeRef`] to the referenced node.
    pub fn resolve(&self, r: &NodeRef) -> Option<&DfNode> {
        let state = self.states.try_node(r.state)?;
        let mut df = &state.df;
        for (i, &nid) in r.path.iter().enumerate() {
            if !df.graph.contains_node(nid) {
                return None;
            }
            let node = df.graph.node(nid);
            if i + 1 == r.path.len() {
                return Some(node);
            }
            df = &node.as_map()?.body;
        }
        None
    }

    /// Non-transient containers: candidates for program inputs/outputs
    /// (paper Sec. 3.1 *external data analysis*).
    pub fn external_containers(&self) -> Vec<String> {
        self.arrays
            .iter()
            .filter(|(_, d)| !d.transient)
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// All symbols assigned by some inter-state edge (loop variables etc.).
    pub fn assigned_symbols(&self) -> Vec<String> {
        let mut out = Vec::new();
        for e in self.states.edge_ids() {
            for (s, _) in &self.states.edge(e).assignments {
                if !out.contains(s) {
                    out.push(s.clone());
                }
            }
        }
        out
    }

    /// Free symbols of the program: symbols referenced anywhere (shapes,
    /// memlets, map ranges, conditions) minus those assigned internally.
    /// These must be bound by the input configuration.
    pub fn free_symbols(&self) -> Vec<String> {
        let mut used = Vec::new();
        for desc in self.arrays.values() {
            for s in desc.shape_symbols() {
                if !used.contains(&s) {
                    used.push(s);
                }
            }
        }
        for st in self.states.node_ids() {
            collect_df_symbols(&self.states.node(st).df, &mut used, &mut Vec::new());
        }
        for e in self.states.edge_ids() {
            let edge = self.states.edge(e);
            for s in edge.condition.free_symbols() {
                if !used.contains(&s) {
                    used.push(s);
                }
            }
            for (_, v) in &edge.assignments {
                for s in v.free_symbols() {
                    if !used.contains(&s) {
                        used.push(s);
                    }
                }
            }
        }
        let assigned = self.assigned_symbols();
        used.retain(|s| !assigned.contains(s));
        used
    }
}

fn collect_df_symbols(df: &Dataflow, out: &mut Vec<String>, scope_params: &mut Vec<String>) {
    for e in df.graph.edge_ids() {
        for s in df.graph.edge(e).subset.free_symbols() {
            if !out.contains(&s) && !scope_params.contains(&s) {
                out.push(s);
            }
        }
    }
    for n in df.graph.node_ids() {
        if let DfNode::Map(m) = df.graph.node(n) {
            for r in &m.ranges {
                for s in r.free_symbols() {
                    if !out.contains(&s) && !scope_params.contains(&s) {
                        out.push(s);
                    }
                }
            }
            let added = m.params.len();
            scope_params.extend(m.params.iter().cloned());
            collect_df_symbols(&m.body, out, scope_params);
            scope_params.truncate(scope_params.len() - added);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzyflow_sym::sym;

    #[test]
    fn new_sdfg_has_start_state() {
        let s = Sdfg::new("p");
        assert_eq!(s.state(s.start).label, "start");
    }

    #[test]
    fn cond_eval() {
        let c = CondExpr::cmp(CmpOp::Lt, sym("i"), sym("N"));
        let mut b = Bindings::new();
        b.set("i", 3).set("N", 5);
        assert!(c.eval(&b).unwrap());
        b.set("i", 5);
        assert!(!c.eval(&b).unwrap());
    }

    #[test]
    fn negate_keeps_primitive_comparisons() {
        let c = CondExpr::cmp(CmpOp::Le, sym("i"), sym("N")).negate();
        assert_eq!(c, CondExpr::cmp(CmpOp::Gt, sym("i"), sym("N")));
    }

    #[test]
    fn free_symbols_exclude_assigned() {
        let mut s = Sdfg::new("p");
        s.symbols.insert("N".into(), DType::I64);
        s.arrays
            .insert("A".into(), DataDesc::array(DType::F64, vec![sym("N")]));
        let st2 = s.add_state("loop");
        s.add_interstate_edge(
            s.start,
            st2,
            InterstateEdge::always().assign("i", SymExpr::Int(0)),
        );
        let free = s.free_symbols();
        assert!(free.contains(&"N".to_string()));
        assert!(!free.contains(&"i".to_string()));
    }

    #[test]
    fn node_ref_resolution() {
        let mut s = Sdfg::new("p");
        let st = s.start;
        let a = s.state_mut(st).df.add_access("A");
        let r = NodeRef::top(st, a);
        assert!(matches!(s.resolve(&r), Some(DfNode::Access(name)) if name == "A"));
        assert_eq!(r.leaf(), a);
        assert!(!r.is_nested());
    }

    #[test]
    fn external_containers_filters_transients() {
        let mut s = Sdfg::new("p");
        s.arrays
            .insert("A".into(), DataDesc::array(DType::F64, vec![sym("N")]));
        s.arrays.insert(
            "tmp".into(),
            DataDesc::array(DType::F64, vec![sym("N")]).transient(),
        );
        assert_eq!(s.external_containers(), vec!["A".to_string()]);
    }
}
