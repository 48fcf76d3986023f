//! The dataflow graph: an acyclic directed multigraph of [`DfNode`]s
//! connected by [`Memlet`] edges. Used both as the body of a [`State`](crate::State)
//! (crate::sdfg) and as the nested body of a [`MapScope`](crate::node).

use crate::memlet::Memlet;
use crate::node::DfNode;
use fuzzyflow_graph::{DiGraph, EdgeId, NodeId};

/// An acyclic dataflow graph.
#[derive(Clone, Debug, Default, Hash)]
pub struct Dataflow {
    pub graph: DiGraph<DfNode, Memlet>,
}

impl Dataflow {
    /// An empty dataflow graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an access node for container `name`.
    pub fn add_access(&mut self, name: impl Into<String>) -> NodeId {
        self.graph.add_node(DfNode::Access(name.into()))
    }

    /// Adds an arbitrary node.
    pub fn add_node(&mut self, node: DfNode) -> NodeId {
        self.graph.add_node(node)
    }

    /// Connects two nodes with a memlet.
    pub fn connect(&mut self, src: NodeId, dst: NodeId, memlet: Memlet) -> EdgeId {
        self.graph.add_edge(src, dst, memlet)
    }

    /// First access node of container `name`, if any.
    pub fn find_access(&self, name: &str) -> Option<NodeId> {
        self.graph
            .node_ids()
            .find(|&n| self.graph.node(n).as_access() == Some(name))
    }

    /// All access nodes of container `name`.
    pub fn accesses_of(&self, name: &str) -> Vec<NodeId> {
        self.graph
            .node_ids()
            .filter(|&n| self.graph.node(n).as_access() == Some(name))
            .collect()
    }

    /// All container names referenced by access nodes (deduplicated,
    /// first-occurrence order), including nested map bodies.
    pub fn referenced_containers(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_containers(&mut out);
        out
    }

    fn collect_containers(&self, out: &mut Vec<String>) {
        for n in self.graph.node_ids() {
            match self.graph.node(n) {
                DfNode::Access(d) if !out.contains(d) => {
                    out.push(d.clone());
                }
                DfNode::Map(m) => m.body.collect_containers(out),
                _ => {}
            }
        }
        for e in self.graph.edge_ids() {
            let d = &self.graph.edge(e).data;
            if !out.contains(d) {
                out.push(d.clone());
            }
        }
    }

    /// Incoming `(edge, memlet)` pairs of a node.
    pub fn in_memlets(&self, n: NodeId) -> Vec<(EdgeId, &Memlet)> {
        self.graph
            .in_edge_ids(n)
            .iter()
            .map(|&e| (e, self.graph.edge(e)))
            .collect()
    }

    /// Outgoing `(edge, memlet)` pairs of a node.
    pub fn out_memlets(&self, n: NodeId) -> Vec<(EdgeId, &Memlet)> {
        self.graph
            .out_edge_ids(n)
            .iter()
            .map(|&e| (e, self.graph.edge(e)))
            .collect()
    }

    /// Non-access computation nodes (tasklets, maps, library nodes).
    pub fn computation_nodes(&self) -> Vec<NodeId> {
        self.graph
            .node_ids()
            .filter(|&n| !self.graph.node(n).is_access())
            .collect()
    }

    /// Renames a symbol in every memlet subset (recursing into map bodies).
    /// Used when inlining cutouts and by transformations that rename
    /// iteration parameters.
    pub fn substitute_symbol(&mut self, name: &str, value: &fuzzyflow_sym::SymExpr) {
        let edge_ids: Vec<EdgeId> = self.graph.edge_ids().collect();
        for e in edge_ids {
            let m = self.graph.edge(e).substitute(name, value);
            *self.graph.edge_mut(e) = m;
        }
        let node_ids: Vec<NodeId> = self.graph.node_ids().collect();
        for n in node_ids {
            if let DfNode::Map(map) = self.graph.node_mut(n) {
                // Do not substitute shadowed parameters.
                if map.params.iter().any(|p| p == name) {
                    continue;
                }
                for r in &mut map.ranges {
                    *r = r.substitute(name, value);
                }
                map.body.substitute_symbol(name, value);
            }
        }
    }

    /// Deep node count, recursing into map bodies — a size measure used in
    /// reports ("cutout has K nodes").
    pub fn deep_node_count(&self) -> usize {
        let mut count = 0;
        for n in self.graph.node_ids() {
            count += 1;
            if let DfNode::Map(m) = self.graph.node(n) {
                count += m.body.deep_node_count();
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasklet::{ScalarExpr, Tasklet};
    use fuzzyflow_sym::{sym, Subset};

    fn simple_df() -> (Dataflow, NodeId, NodeId, NodeId) {
        // A --[A[i]]--> t --[B[i]]--> B
        let mut df = Dataflow::new();
        let a = df.add_access("A");
        let b = df.add_access("B");
        let t = df.add_node(DfNode::Tasklet(Tasklet::simple(
            "copy",
            vec!["x"],
            "y",
            ScalarExpr::r("x"),
        )));
        df.connect(
            a,
            t,
            Memlet::new("A", Subset::at(vec![sym("i")])).to_conn("x"),
        );
        df.connect(
            t,
            b,
            Memlet::new("B", Subset::at(vec![sym("i")])).from_conn("y"),
        );
        (df, a, t, b)
    }

    #[test]
    fn find_access_works() {
        let (df, a, _, _) = simple_df();
        assert_eq!(df.find_access("A"), Some(a));
        assert_eq!(df.find_access("Z"), None);
    }

    #[test]
    fn referenced_containers_includes_memlet_data() {
        let (df, _, _, _) = simple_df();
        assert_eq!(
            df.referenced_containers(),
            vec!["A".to_string(), "B".to_string()]
        );
    }

    #[test]
    fn computation_nodes_excludes_accesses() {
        let (df, _, t, _) = simple_df();
        assert_eq!(df.computation_nodes(), vec![t]);
    }

    #[test]
    fn substitute_symbol_in_memlets() {
        let (mut df, _, t, _) = simple_df();
        df.substitute_symbol("i", &fuzzyflow_sym::SymExpr::Int(3));
        let ins = df.in_memlets(t);
        let b = fuzzyflow_sym::Bindings::new();
        let c = ins[0].1.subset.concrete(&b).unwrap();
        assert_eq!(c.dims[0].start, 3);
    }

    #[test]
    fn deep_node_count_recurses() {
        let (inner, ..) = simple_df();
        let mut outer = Dataflow::new();
        outer.add_node(DfNode::Map(crate::node::MapScope {
            params: vec!["i".into()],
            ranges: vec![fuzzyflow_sym::SymRange::full(sym("N"))],
            schedule: crate::node::Schedule::Parallel,
            body: inner,
        }));
        assert_eq!(outer.deep_node_count(), 4);
    }
}
