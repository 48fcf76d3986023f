//! A directed multigraph with stable node/edge identifiers.
//!
//! Nodes and edges are stored in slot vectors; removal leaves a hole so that
//! identifiers held elsewhere (e.g. a transformation's change set) remain
//! valid for the surviving elements. Parallel edges and self-loops are
//! allowed — dataflow graphs routinely have several memlets between the same
//! pair of nodes.

use std::fmt;

/// Identifier of a node within one [`DiGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifier of an edge within one [`DiGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[derive(Clone, Debug, Hash)]
struct EdgeSlot<E> {
    src: NodeId,
    dst: NodeId,
    weight: E,
}

/// A directed multigraph with node weights `N` and edge weights `E`.
#[derive(Clone, Debug, Hash)]
pub struct DiGraph<N, E> {
    nodes: Vec<Option<N>>,
    edges: Vec<Option<EdgeSlot<E>>>,
    out_edges: Vec<Vec<EdgeId>>,
    in_edges: Vec<Vec<EdgeId>>,
}

impl<N, E> Default for DiGraph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N, E> DiGraph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            out_edges: Vec::new(),
            in_edges: Vec::new(),
        }
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, weight: N) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Some(weight));
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        id
    }

    /// Adds an edge `src -> dst`, returning its id. Panics if either
    /// endpoint does not exist.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, weight: E) -> EdgeId {
        assert!(self.contains_node(src), "source {src} not in graph");
        assert!(self.contains_node(dst), "destination {dst} not in graph");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Some(EdgeSlot { src, dst, weight }));
        self.out_edges[src.index()].push(id);
        self.in_edges[dst.index()].push(id);
        id
    }

    /// True if `id` refers to a live node.
    pub fn contains_node(&self, id: NodeId) -> bool {
        self.nodes.get(id.index()).is_some_and(|n| n.is_some())
    }

    /// True if `id` refers to a live edge.
    pub fn contains_edge(&self, id: EdgeId) -> bool {
        self.edges.get(id.index()).is_some_and(|e| e.is_some())
    }

    /// Node weight accessor.
    pub fn node(&self, id: NodeId) -> &N {
        self.nodes[id.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("node {id} was removed"))
    }

    /// Mutable node weight accessor.
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        self.nodes[id.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("node {id} was removed"))
    }

    /// Node weight accessor that does not panic.
    pub fn try_node(&self, id: NodeId) -> Option<&N> {
        self.nodes.get(id.index()).and_then(|n| n.as_ref())
    }

    /// Mutable node weight accessor that does not panic.
    pub fn try_node_mut(&mut self, id: NodeId) -> Option<&mut N> {
        self.nodes.get_mut(id.index()).and_then(|n| n.as_mut())
    }

    /// Edge weight accessor.
    pub fn edge(&self, id: EdgeId) -> &E {
        &self.edge_slot(id).weight
    }

    /// Mutable edge weight accessor.
    pub fn edge_mut(&mut self, id: EdgeId) -> &mut E {
        &mut self.edges[id.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("edge {id} was removed"))
            .weight
    }

    fn edge_slot(&self, id: EdgeId) -> &EdgeSlot<E> {
        self.edges[id.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("edge {id} was removed"))
    }

    /// Endpoints `(src, dst)` of an edge.
    pub fn endpoints(&self, id: EdgeId) -> (NodeId, NodeId) {
        let s = self.edge_slot(id);
        (s.src, s.dst)
    }

    /// Source node of an edge.
    pub fn src(&self, id: EdgeId) -> NodeId {
        self.edge_slot(id).src
    }

    /// Destination node of an edge.
    pub fn dst(&self, id: EdgeId) -> NodeId {
        self.edge_slot(id).dst
    }

    /// Removes a node and all incident edges. Returns the node weight.
    pub fn remove_node(&mut self, id: NodeId) -> Option<N> {
        let weight = self.nodes.get_mut(id.index())?.take()?;
        let incident: Vec<EdgeId> = self.out_edges[id.index()]
            .iter()
            .chain(self.in_edges[id.index()].iter())
            .copied()
            .collect();
        for e in incident {
            self.remove_edge(e);
        }
        self.out_edges[id.index()].clear();
        self.in_edges[id.index()].clear();
        Some(weight)
    }

    /// Removes an edge, returning its weight.
    pub fn remove_edge(&mut self, id: EdgeId) -> Option<E> {
        let slot = self.edges.get_mut(id.index())?.take()?;
        self.out_edges[slot.src.index()].retain(|&e| e != id);
        self.in_edges[slot.dst.index()].retain(|&e| e != id);
        Some(slot.weight)
    }

    /// Redirects an edge to a new destination, keeping its weight and id.
    pub fn redirect_dst(&mut self, id: EdgeId, new_dst: NodeId) {
        assert!(
            self.contains_node(new_dst),
            "destination {new_dst} not in graph"
        );
        let old_dst = self.dst(id);
        self.in_edges[old_dst.index()].retain(|&e| e != id);
        self.edges[id.index()].as_mut().expect("live edge").dst = new_dst;
        self.in_edges[new_dst.index()].push(id);
    }

    /// Redirects an edge to a new source, keeping its weight and id.
    pub fn redirect_src(&mut self, id: EdgeId, new_src: NodeId) {
        assert!(self.contains_node(new_src), "source {new_src} not in graph");
        let old_src = self.src(id);
        self.out_edges[old_src.index()].retain(|&e| e != id);
        self.edges[id.index()].as_mut().expect("live edge").src = new_src;
        self.out_edges[new_src.index()].push(id);
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Number of live edges.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().filter(|e| e.is_some()).count()
    }

    /// Iterates over live node ids in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|_| NodeId(i as u32)))
    }

    /// Iterates over live edge ids in insertion order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|_| EdgeId(i as u32)))
    }

    /// Outgoing edges of a node.
    pub fn out_edge_ids(&self, id: NodeId) -> &[EdgeId] {
        &self.out_edges[id.index()]
    }

    /// Incoming edges of a node.
    pub fn in_edge_ids(&self, id: NodeId) -> &[EdgeId] {
        &self.in_edges[id.index()]
    }

    /// Successor nodes (may repeat under parallel edges).
    pub fn successors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges[id.index()].iter().map(|&e| self.dst(e))
    }

    /// Predecessor nodes (may repeat under parallel edges).
    pub fn predecessors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_edges[id.index()].iter().map(|&e| self.src(e))
    }

    /// In-degree (number of incoming edges).
    pub fn in_degree(&self, id: NodeId) -> usize {
        self.in_edges[id.index()].len()
    }

    /// Out-degree (number of outgoing edges).
    pub fn out_degree(&self, id: NodeId) -> usize {
        self.out_edges[id.index()].len()
    }

    /// Nodes without incoming edges.
    pub fn source_nodes(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.in_degree(n) == 0)
            .collect()
    }

    /// Nodes without outgoing edges.
    pub fn sink_nodes(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.out_degree(n) == 0)
            .collect()
    }

    /// Maps node weights to a new graph with identical topology and ids.
    pub fn map<N2, E2>(
        &self,
        mut node_f: impl FnMut(NodeId, &N) -> N2,
        mut edge_f: impl FnMut(EdgeId, &E) -> E2,
    ) -> DiGraph<N2, E2> {
        DiGraph {
            nodes: self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, n)| n.as_ref().map(|w| node_f(NodeId(i as u32), w)))
                .collect(),
            edges: self
                .edges
                .iter()
                .enumerate()
                .map(|(i, e)| {
                    e.as_ref().map(|s| EdgeSlot {
                        src: s.src,
                        dst: s.dst,
                        weight: edge_f(EdgeId(i as u32), &s.weight),
                    })
                })
                .collect(),
            out_edges: self.out_edges.clone(),
            in_edges: self.in_edges.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph<&'static str, u32>, [NodeId; 4]) {
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, 1);
        g.add_edge(a, c, 2);
        g.add_edge(b, d, 3);
        g.add_edge(c, d, 4);
        (g, [a, b, c, d])
    }

    #[test]
    fn add_and_query() {
        let (g, [a, b, _, d]) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(*g.node(a), "a");
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(d), 2);
        assert_eq!(g.successors(a).collect::<Vec<_>>(), vec![b, NodeId(2)]);
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut g: DiGraph<(), u32> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(a, b, 2);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_degree(a), 2);
    }

    #[test]
    fn remove_edge_updates_adjacency() {
        let (mut g, [a, b, _, _]) = diamond();
        let e = g.out_edge_ids(a)[0];
        assert_eq!(g.remove_edge(e), Some(1));
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.in_degree(b), 0);
        assert!(!g.contains_edge(e));
    }

    #[test]
    fn remove_node_removes_incident_edges() {
        let (mut g, [_, b, _, d]) = diamond();
        g.remove_node(b);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.in_degree(d), 1);
    }

    #[test]
    fn ids_stable_after_removal() {
        let (mut g, [a, b, c, d]) = diamond();
        g.remove_node(b);
        assert_eq!(*g.node(a), "a");
        assert_eq!(*g.node(c), "c");
        assert_eq!(*g.node(d), "d");
        let e = g.add_node("e");
        assert_eq!(e, NodeId(4));
    }

    #[test]
    fn redirect_dst_moves_edge() {
        let (mut g, [a, b, c, _]) = diamond();
        let e = g.out_edge_ids(a)[0]; // a -> b
        g.redirect_dst(e, c);
        assert_eq!(g.dst(e), c);
        assert_eq!(g.in_degree(b), 0);
        assert_eq!(g.in_degree(c), 2);
    }

    #[test]
    fn redirect_src_moves_edge() {
        let (mut g, [a, _b, c, _]) = diamond();
        let e = g.out_edge_ids(a)[0]; // a -> b
        g.redirect_src(e, c);
        assert_eq!(g.src(e), c);
        assert_eq!(g.out_degree(a), 1);
        assert!(g.out_edge_ids(c).contains(&e));
    }

    #[test]
    fn sources_and_sinks() {
        let (g, [a, _, _, d]) = diamond();
        assert_eq!(g.source_nodes(), vec![a]);
        assert_eq!(g.sink_nodes(), vec![d]);
    }

    #[test]
    fn self_loop() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, a, ());
        assert_eq!(g.in_degree(a), 1);
        assert_eq!(g.out_degree(a), 1);
    }

    #[test]
    fn map_preserves_topology() {
        let (g, [a, _, _, d]) = diamond();
        let g2 = g.map(|_, w| w.len(), |_, e| *e as f64);
        assert_eq!(*g2.node(a), 1);
        assert_eq!(g2.in_degree(d), 2);
        assert_eq!(g2.edge_count(), 4);
    }
}
