//! Cutout extraction (paper Sec. 3, steps 2–3).

use crate::analysis::ProgramAnalysis;
use crate::side_effects::{CutoutLocation, SideEffectContext};
use fuzzyflow_graph::NodeId;
use fuzzyflow_ir::analysis::AccessSets;
use fuzzyflow_ir::{CondExpr, DataDesc, InterstateEdge, Sdfg, State, StateId, Subset, SymExpr};
use std::collections::BTreeMap;
use std::fmt;

/// Errors during cutout extraction.
#[derive(Clone, Debug, PartialEq)]
pub enum CutoutError {
    EmptyChangeSet,
    MissingState(StateId),
    MissingNode(StateId, NodeId),
}

impl fmt::Display for CutoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CutoutError::EmptyChangeSet => write!(f, "change set is empty"),
            CutoutError::MissingState(s) => write!(f, "state {s} not in program"),
            CutoutError::MissingNode(s, n) => write!(f, "node {n} not in state {s}"),
        }
    }
}

impl std::error::Error for CutoutError {}

/// Size statistics of a cutout, for reports and benchmarks.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CutoutStats {
    /// Deep node count of the cutout program.
    pub nodes: usize,
    /// Number of data containers declared.
    pub containers: usize,
    /// Number of containers in the input configuration.
    pub input_containers: usize,
    /// Number of free symbols (also inputs).
    pub input_symbols: usize,
    /// Number of containers in the system state.
    pub system_state_containers: usize,
}

/// A standalone, executable sub-program extracted around a change set,
/// with its input configuration and system state (paper Sec. 2: "a
/// sub-program c ⊆ p with a clear input configuration and system state").
#[derive(Clone, Debug)]
pub struct Cutout {
    /// The extracted program.
    pub sdfg: Sdfg,
    /// Containers that may hold data before execution — these (plus the
    /// input symbols) span the space differential fuzzing samples from.
    pub input_config: Vec<String>,
    /// Free symbols of the cutout (sizes, loop variables, parameters).
    pub input_symbols: Vec<String>,
    /// Containers compared after execution to decide `c(s) = c'(s)`.
    pub system_state: Vec<String>,
    /// Symbols assigned inside the cutout whose values are read by the
    /// rest of the program — scalar program state is state too, so these
    /// final values are part of the differential comparison.
    pub symbol_state: Vec<String>,
    /// Original top-level node id → cutout node id (dataflow-level cutouts).
    pub node_map: BTreeMap<NodeId, NodeId>,
    /// Original state id → cutout state id.
    pub state_map: BTreeMap<StateId, StateId>,
    /// The state holding the extracted dataflow (dataflow-level cutouts).
    pub main_state: StateId,
    /// Where the cutout was taken from, in original coordinates.
    pub location: CutoutLocation,
    pub stats: CutoutStats,
}

impl Cutout {
    /// Total input-configuration volume in bytes under concrete symbol
    /// values — the size of the space one fuzzing sample must fill (paper
    /// Sec. 4: the quantity the min input-flow cut minimizes).
    pub fn input_volume_bytes(&self, bindings: &fuzzyflow_ir::Bindings) -> Option<u64> {
        let mut total = 0u64;
        for c in &self.input_config {
            let desc = self.sdfg.array(c)?;
            let bytes = desc.total_bytes().eval(bindings).ok()?;
            total += bytes.max(0) as u64;
        }
        // Each input symbol is one i64.
        total += self.input_symbols.len() as u64 * 8;
        Some(total)
    }
}

/// The top-level nodes a dataflow change set selects, including the direct
/// access-node neighbors that carry the data dependencies (paper Sec. 3
/// step 3: "this ensures that all direct data dependencies for the nodes
/// affected by T are part of Gc").
pub fn closure_with_access_neighbors(
    sdfg: &Sdfg,
    state: StateId,
    nodes: &[NodeId],
) -> Result<Vec<NodeId>, CutoutError> {
    let st = sdfg
        .states
        .try_node(state)
        .ok_or(CutoutError::MissingState(state))?;
    let mut selected: Vec<NodeId> = Vec::new();
    for &n in nodes {
        if !st.df.graph.contains_node(n) {
            return Err(CutoutError::MissingNode(state, n));
        }
        if !selected.contains(&n) {
            selected.push(n);
        }
    }
    for &n in nodes {
        for p in st.df.graph.predecessors(n) {
            if st.df.graph.node(p).is_access() && !selected.contains(&p) {
                selected.push(p);
            }
        }
        for s in st.df.graph.successors(n) {
            if st.df.graph.node(s).is_access() && !selected.contains(&s) {
                selected.push(s);
            }
        }
    }
    Ok(selected)
}

/// Extracts a cutout for a transformation's change set:
/// [`ProgramAnalysis::extract_cutout`] over a throwaway analysis.
pub fn extract_cutout(
    sdfg: &Sdfg,
    changes: &fuzzyflow_transforms::ChangeSet,
    ctx: &SideEffectContext,
) -> Result<Cutout, CutoutError> {
    ProgramAnalysis::with_context(sdfg, ctx.clone()).extract_cutout(changes)
}

impl ProgramAnalysis<'_> {
    /// Extracts a cutout for a transformation's change set.
    pub fn extract_cutout(
        &self,
        changes: &fuzzyflow_transforms::ChangeSet,
    ) -> Result<Cutout, CutoutError> {
        if changes.nodes.is_empty() && changes.states.is_empty() {
            return Err(CutoutError::EmptyChangeSet);
        }

        // Group node references by owning state (nested refs resolve to their
        // outermost enclosing node).
        let mut by_state: BTreeMap<StateId, Vec<NodeId>> = BTreeMap::new();
        for r in &changes.nodes {
            let e = by_state.entry(r.state).or_default();
            if !e.contains(&r.top_node()) {
                e.push(r.top_node());
            }
        }

        if !changes.states.is_empty() || by_state.len() > 1 {
            // State-level cutout.
            let mut states: Vec<StateId> = changes.states.clone();
            for s in by_state.keys() {
                if !states.contains(s) {
                    states.push(*s);
                }
            }
            self.extract_state_cutout(&states)
        } else {
            let (&state, nodes) = by_state.iter().next().expect("non-empty");
            self.extract_dataflow_cutout(state, nodes)
        }
    }

    /// Dataflow-level cutout: the selected nodes plus access neighbors, as a
    /// single-state program.
    pub fn extract_dataflow_cutout(
        &self,
        state: StateId,
        nodes: &[NodeId],
    ) -> Result<Cutout, CutoutError> {
        let sdfg = self.sdfg();
        let selected = closure_with_access_neighbors(sdfg, state, nodes)?;
        let st = sdfg.states.node(state);

        let mut cut = Sdfg::new(format!("{}_cutout", sdfg.name));
        let main = cut.start;
        cut.state_mut(main).label = format!("cutout_of_{}", st.label);

        // Copy nodes and the edges among them.
        let mut node_map: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        for &n in &selected {
            let new = cut
                .state_mut(main)
                .df
                .graph
                .add_node(st.df.graph.node(n).clone());
            node_map.insert(n, new);
        }
        for e in st.df.graph.edge_ids() {
            let (u, v) = st.df.graph.endpoints(e);
            if let (Some(&nu), Some(&nv)) = (node_map.get(&u), node_map.get(&v)) {
                cut.state_mut(main)
                    .df
                    .graph
                    .add_edge(nu, nv, st.df.graph.edge(e).clone());
            }
        }

        // Side-effect analyses on the original program.
        let here = self.state(state);
        let mut cutout_sets = AccessSets::default();
        for &n in nodes {
            if let Some(region) = here.node(n) {
                cutout_sets.merge(region.sets.clone());
            }
        }
        let location = CutoutLocation::Nodes {
            state,
            nodes: nodes.to_vec(),
        };
        let input_config = self.input_configuration(&cutout_sets, &location);
        let sys_state = self.system_state(&cutout_sets, &location);

        finish_cutout(
            sdfg,
            cut,
            main,
            node_map,
            BTreeMap::from([(state, main)]),
            input_config,
            sys_state,
            &cutout_sets,
            location,
        )
    }

    /// State-level cutout: whole states plus a synthetic entry and exit.
    pub fn extract_state_cutout(&self, states: &[StateId]) -> Result<Cutout, CutoutError> {
        let sdfg = self.sdfg();
        for &s in states {
            if sdfg.states.try_node(s).is_none() {
                return Err(CutoutError::MissingState(s));
            }
        }
        let mut cut = Sdfg::new(format!("{}_cutout", sdfg.name));
        let entry = cut.start;
        cut.state_mut(entry).label = "cutout_entry".into();

        let mut state_map: BTreeMap<StateId, StateId> = BTreeMap::new();
        for &s in states {
            let new = cut.states.add_node(sdfg.states.node(s).clone());
            state_map.insert(s, new);
        }
        let exit = cut.states.add_node(State::new("cutout_exit"));

        // States strictly *downstream* of the cutout region: edges flowing
        // back from them (loop back edges around the region) are not entry
        // points — their assignments reference values computed downstream.
        // The cutout conservatively covers one pass through the region.
        let downstream: Vec<StateId> = {
            let mut succ: Vec<StateId> = Vec::new();
            for &s in states {
                for t in sdfg.states.successors(s) {
                    if !states.contains(&t) && !succ.contains(&t) {
                        succ.push(t);
                    }
                }
            }
            fuzzyflow_graph::reachable_from(&sdfg.states, &succ)
        };

        // Internal edges.
        for e in sdfg.states.edge_ids() {
            let (u, v) = sdfg.states.endpoints(e);
            match (state_map.get(&u), state_map.get(&v)) {
                (Some(&nu), Some(&nv)) => {
                    cut.states.add_edge(nu, nv, sdfg.states.edge(e).clone());
                }
                // Boundary in: keep the assignments (they seed loop variables
                // etc.), drop the condition (context not available).
                (None, Some(&nv)) => {
                    if downstream.contains(&u) {
                        continue;
                    }
                    let orig = sdfg.states.edge(e);
                    let mut edge = InterstateEdge::always();
                    edge.assignments = orig.assignments.clone();
                    edge.condition = CondExpr::True;
                    cut.states.add_edge(entry, nv, edge);
                }
                // Boundary out: everything after the cutout is irrelevant; the
                // edge collapses onto a shared empty exit state.
                (Some(&nu), None) => {
                    cut.states.add_edge(nu, exit, sdfg.states.edge(e).clone());
                }
                (None, None) => {}
            }
        }

        // Region states without any incoming edge (e.g. the program's start
        // state) are reached directly from the synthetic entry.
        for &s in states {
            let mapped = state_map[&s];
            if cut.states.in_degree(mapped) == 0 {
                cut.states.add_edge(entry, mapped, InterstateEdge::always());
            }
        }

        let mut cutout_sets = AccessSets::default();
        for &s in states {
            cutout_sets.merge(self.state(s).all.sets.clone());
        }
        let location = CutoutLocation::States(states.to_vec());
        let input_config = self.input_configuration(&cutout_sets, &location);
        let sys_state = self.system_state(&cutout_sets, &location);

        // Symbol side effects: symbols assigned on edges inside the region and
        // referenced anywhere downstream of it.
        let assigned: Vec<String> = {
            let mut v = Vec::new();
            for e in sdfg.states.edge_ids() {
                let (u, vdst) = sdfg.states.endpoints(e);
                if states.contains(&u) || states.contains(&vdst) {
                    for (s, _) in &sdfg.states.edge(e).assignments {
                        if !v.contains(s) {
                            v.push(s.clone());
                        }
                    }
                }
            }
            v
        };
        let mut symbol_state: Vec<String> = Vec::new();
        for d in &downstream {
            if states.contains(d) {
                continue;
            }
            // Symbols referenced by the state's dataflow.
            for e in sdfg.state(*d).df.graph.edge_ids() {
                for s in sdfg.state(*d).df.graph.edge(e).subset.free_symbols() {
                    if assigned.contains(&s) && !symbol_state.contains(&s) {
                        symbol_state.push(s.clone());
                    }
                }
            }
            // ... and by its outgoing edges' conditions/assignments.
            for e in sdfg.states.out_edge_ids(*d) {
                let edge = sdfg.states.edge(*e);
                for s in edge.condition.free_symbols() {
                    if assigned.contains(&s) && !symbol_state.contains(&s) {
                        symbol_state.push(s);
                    }
                }
                for (_, value) in &edge.assignments {
                    for s in value.free_symbols() {
                        if assigned.contains(&s) && !symbol_state.contains(&s) {
                            symbol_state.push(s);
                        }
                    }
                }
            }
        }

        let main = *state_map.values().next().expect("non-empty");
        let mut cutout = finish_cutout(
            sdfg,
            cut,
            main,
            BTreeMap::new(),
            state_map,
            input_config,
            sys_state,
            &cutout_sets,
            location,
        )?;
        cutout.symbol_state = symbol_state;
        Ok(cutout)
    }
}

/// Shared tail: declare containers (shrunk to accessed sub-regions where
/// possible) and symbols, mark inputs/outputs non-transient, compute stats.
#[allow(clippy::too_many_arguments)]
fn finish_cutout(
    sdfg: &Sdfg,
    mut cut: Sdfg,
    main: StateId,
    node_map: BTreeMap<NodeId, NodeId>,
    state_map: BTreeMap<StateId, StateId>,
    input_config: Vec<String>,
    sys_state: Vec<String>,
    cutout_sets: &AccessSets,
    location: CutoutLocation,
) -> Result<Cutout, CutoutError> {
    // Containers referenced anywhere in the cutout.
    let mut containers: Vec<String> = Vec::new();
    for s in cut.states.node_ids() {
        for c in cut.states.node(s).df.referenced_containers() {
            if !containers.contains(&c) {
                containers.push(c);
            }
        }
    }
    for name in &containers {
        let Some(desc) = sdfg.array(name) else {
            continue;
        };
        let mut desc = desc.clone();
        // Minimize the container to the accessed sub-region when the
        // bounding hull starts at zero in every dimension (paper Sec. 3
        // step 3: "only the first 10 elements of my_arr need to be
        // included"). Containers that must match the original program's
        // observable layout (inputs read externally / system state) keep
        // their shape so comparisons stay positional.
        if desc.transient && !input_config.contains(name) && !sys_state.contains(name) {
            if let Some(shrunk) = shrink_shape(&desc, cutout_sets, name) {
                desc.shape = shrunk;
            }
        }
        // Inputs and system state must be externally observable in the
        // cutout, even if they were transient in the original program.
        if input_config.contains(name) || sys_state.contains(name) {
            desc.transient = false;
        }
        cut.arrays.insert(name.clone(), desc);
    }

    // Free symbols of the cutout become declared parameters (inputs).
    let input_symbols = cut.free_symbols();
    for s in &input_symbols {
        cut.symbols.insert(s.clone(), fuzzyflow_ir::DType::I64);
    }

    let stats = CutoutStats {
        nodes: cut
            .states
            .node_ids()
            .map(|s| cut.states.node(s).df.deep_node_count())
            .sum(),
        containers: cut.arrays.len(),
        input_containers: input_config.len(),
        input_symbols: input_symbols.len(),
        system_state_containers: sys_state.len(),
    };

    Ok(Cutout {
        sdfg: cut,
        input_config,
        input_symbols,
        system_state: sys_state,
        symbol_state: Vec::new(),
        node_map,
        state_map,
        main_state: main,
        location,
        stats,
    })
}

/// If every access of `name` starts at index 0, the container can shrink
/// to the bounding hull of the accessed subsets.
fn shrink_shape(desc: &DataDesc, sets: &AccessSets, name: &str) -> Option<Vec<SymExpr>> {
    let mut hull: Option<Subset> = None;
    for a in sets.reads_from(name).chain(sets.writes_to(name)) {
        if a.subset.rank() != desc.rank() {
            return None;
        }
        hull = Some(match hull {
            None => a.subset.clone(),
            Some(h) => h.hull(&a.subset),
        });
    }
    let hull = hull?;
    let mut shape = Vec::with_capacity(hull.rank());
    for d in hull.dims() {
        if d.start.simplify().as_int() != Some(0) {
            return None;
        }
        let end = d.end.simplify();
        // Do not "shrink" to something referencing unavailable params.
        if end.free_symbols().iter().any(|s| s.starts_with("__")) {
            return None;
        }
        shape.push(end);
    }
    Some(shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzyflow_interp::{run, ArrayValue, ExecState};
    use fuzzyflow_ir::{
        sym, validate, DType, Memlet, ScalarExpr, Schedule, SdfgBuilder, SymRange, Tasklet,
    };
    use fuzzyflow_transforms::ChangeSet;

    /// Two-stage pipeline; cutout around the second map.
    fn pipeline() -> (Sdfg, StateId, NodeId) {
        let mut b = SdfgBuilder::new("pipe");
        b.symbol("N");
        b.array("A", DType::F64, &["N"]);
        b.transient("tmp", DType::F64, &["N"]);
        b.array("Out", DType::F64, &["N"]);
        let st = b.start();
        let mut m2id = None;
        b.in_state(st, |df| {
            let a = df.access("A");
            let tmp = df.access("tmp");
            let out = df.access("Out");
            let m1 = df.map(
                &["i"],
                vec![SymRange::full(sym("N"))],
                Schedule::Parallel,
                |body| {
                    let a = body.access("A");
                    let t = body.access("tmp");
                    let k = body.tasklet(Tasklet::simple(
                        "inc",
                        vec!["x"],
                        "y",
                        ScalarExpr::r("x").add(ScalarExpr::f64(1.0)),
                    ));
                    body.read(
                        a,
                        k,
                        Memlet::new("A", Subset::at(vec![sym("i")])).to_conn("x"),
                    );
                    body.write(
                        k,
                        t,
                        Memlet::new("tmp", Subset::at(vec![sym("i")])).from_conn("y"),
                    );
                },
            );
            let m2 = df.map(
                &["i"],
                vec![SymRange::full(sym("N"))],
                Schedule::Parallel,
                |body| {
                    let t = body.access("tmp");
                    let o = body.access("Out");
                    let k = body.tasklet(Tasklet::simple(
                        "dbl",
                        vec!["x"],
                        "y",
                        ScalarExpr::r("x").mul(ScalarExpr::f64(2.0)),
                    ));
                    body.read(
                        t,
                        k,
                        Memlet::new("tmp", Subset::at(vec![sym("i")])).to_conn("x"),
                    );
                    body.write(
                        k,
                        o,
                        Memlet::new("Out", Subset::at(vec![sym("i")])).from_conn("y"),
                    );
                },
            );
            df.auto_wire(m1, &[a], &[tmp]);
            df.auto_wire(m2, &[tmp], &[out]);
            m2id = Some(m2);
        });
        let p = b.build();
        (p, st, m2id.expect("m2"))
    }

    fn ctx() -> SideEffectContext {
        SideEffectContext::with_size_symbols(&["N".to_string()], 1 << 20)
    }

    #[test]
    fn dataflow_cutout_is_standalone_and_executable() {
        let (p, st, m2) = pipeline();
        let changes = ChangeSet::nodes_in_state(st, [m2]);
        let c = extract_cutout(&p, &changes, &ctx()).unwrap();
        assert!(validate(&c.sdfg).is_ok(), "{:?}", validate(&c.sdfg));
        assert_eq!(c.input_config, vec!["tmp".to_string()]);
        assert_eq!(c.system_state, vec!["Out".to_string()]);
        assert_eq!(c.input_symbols, vec!["N".to_string()]);

        // The cutout executes standalone: feeding tmp yields Out.
        let mut stx = ExecState::new();
        stx.bind("N", 4);
        stx.set_array("tmp", ArrayValue::from_f64(vec![4], &[1.0, 2.0, 3.0, 4.0]));
        run(&c.sdfg, &mut stx).unwrap();
        assert_eq!(
            stx.array("Out").unwrap().to_f64_vec(),
            vec![2.0, 4.0, 6.0, 8.0]
        );
    }

    #[test]
    fn cutout_much_smaller_than_program() {
        let (p, st, m2) = pipeline();
        let changes = ChangeSet::nodes_in_state(st, [m2]);
        let c = extract_cutout(&p, &changes, &ctx()).unwrap();
        let orig_nodes: usize = p
            .states
            .node_ids()
            .map(|s| p.state(s).df.deep_node_count())
            .sum();
        assert!(c.stats.nodes < orig_nodes);
        // Only the containers the cutout touches are declared.
        assert_eq!(c.stats.containers, 2); // tmp + Out
        assert!(!c.sdfg.arrays.contains_key("A"));
    }

    #[test]
    fn inputs_made_observable() {
        let (p, st, m2) = pipeline();
        let changes = ChangeSet::nodes_in_state(st, [m2]);
        let c = extract_cutout(&p, &changes, &ctx()).unwrap();
        // tmp was transient in p; as a cutout input it must not be.
        assert!(!c.sdfg.array("tmp").unwrap().transient);
    }

    #[test]
    fn cutout_behaves_like_program_fragment() {
        // Running the whole program and the cutout (fed with the
        // intermediate) must agree on the system state — the cutout
        // soundness property.
        let (p, st, m2) = pipeline();
        let changes = ChangeSet::nodes_in_state(st, [m2]);
        let c = extract_cutout(&p, &changes, &ctx()).unwrap();

        let n = 6i64;
        let a: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let mut full = ExecState::new();
        full.bind("N", n);
        full.set_array("A", ArrayValue::from_f64(vec![n], &a));
        run(&p, &mut full).unwrap();

        let mut frag = ExecState::new();
        frag.bind("N", n);
        frag.set_array("tmp", full.array("tmp").unwrap().clone());
        run(&c.sdfg, &mut frag).unwrap();

        assert_eq!(
            full.array("Out").unwrap().to_f64_vec(),
            frag.array("Out").unwrap().to_f64_vec()
        );
    }

    #[test]
    fn empty_change_set_rejected() {
        let (p, _, _) = pipeline();
        let changes = ChangeSet::default();
        assert_eq!(
            extract_cutout(&p, &changes, &ctx()).unwrap_err(),
            CutoutError::EmptyChangeSet
        );
    }

    #[test]
    fn state_cutout_preserves_loop_semantics() {
        // sum += i over a loop; cutout of {guard, body} must still loop.
        let mut b = SdfgBuilder::new("loop");
        b.symbol("N");
        b.scalar("sum", DType::I64);
        let lh = b.for_loop(
            b.start(),
            "i",
            fuzzyflow_ir::SymExpr::Int(0),
            sym("N") - fuzzyflow_ir::SymExpr::Int(1),
            1,
            "l",
        );
        b.in_state(lh.body, |df| {
            let sin = df.access("sum");
            let sout = df.access("sum");
            let t = df.tasklet(Tasklet::simple(
                "acc",
                vec!["s"],
                "o",
                ScalarExpr::r("s").add(ScalarExpr::r("i")),
            ));
            df.read(sin, t, Memlet::new("sum", Subset::new(vec![])).to_conn("s"));
            df.write(
                t,
                sout,
                Memlet::new("sum", Subset::new(vec![])).from_conn("o"),
            );
        });
        let p = b.build();
        let changes = ChangeSet::of_states(vec![lh.guard, lh.body]);
        let c = extract_cutout(&p, &changes, &ctx()).unwrap();
        assert!(validate(&c.sdfg).is_ok(), "{:?}", validate(&c.sdfg));
        // `i` is assigned by the boundary/back edges, so the only input
        // symbol is N; `sum` is both input and system state.
        assert!(c.input_symbols.contains(&"N".to_string()));
        assert!(c.system_state.contains(&"sum".to_string()));

        let mut stx = ExecState::new();
        stx.bind("N", 10);
        run(&c.sdfg, &mut stx).unwrap();
        assert_eq!(stx.array("sum").unwrap().get(0).as_i64(), 45);
    }

    #[test]
    fn input_volume_accounts_for_containers_and_symbols() {
        let (p, st, m2) = pipeline();
        let changes = ChangeSet::nodes_in_state(st, [m2]);
        let c = extract_cutout(&p, &changes, &ctx()).unwrap();
        let b = fuzzyflow_ir::Bindings::from_pairs([("N", 8)]);
        // tmp: 8 f64 = 64 bytes, plus N as symbol: 8 bytes.
        assert_eq!(c.input_volume_bytes(&b), Some(72));
    }
}
