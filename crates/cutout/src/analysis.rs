//! The per-program half of the side-effect analyses (paper Sec. 3).
//!
//! Widening every map's accesses over its iteration space (symbolic
//! substitute + simplify + hull) is the expensive part of cutout
//! extraction, and it depends only on the *program*, not on the change
//! set a cutout is taken for. A [`ProgramAnalysis`] computes those sets —
//! per top-level node and per state, indexed by container — once, along
//! with the other program-only facts the pipeline needs: state
//! reachability in both directions, the size-symbol bounds, the canonical
//! loops and the deep node count. Every cutout of one program reads them
//! from here: extraction, the two side-effect analyses, the min-cut's
//! re-extraction and constraint derivation.
//!
//! Everything is filled on first use, so an analysis built for a single
//! extraction pays for the states that extraction looks at and nothing
//! else; the standalone stage functions ([`crate::extract_cutout`],
//! [`crate::minimize_input_configuration`], …) are this same code over a
//! throwaway analysis.

use crate::side_effects::SideEffectContext;
use fuzzyflow_graph::{reachable_from, reverse_reachable_from, NodeId};
use fuzzyflow_ir::analysis::{node_access_sets, Access, AccessSets};
use fuzzyflow_ir::loops::{detect_all_loops, LoopInfo};
use fuzzyflow_ir::{Sdfg, StateId};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// The access sets of one region (a top-level node or a whole state)
/// with a per-container index, so the overlap scans visit same-container
/// pairs only.
pub(crate) struct RegionAccess {
    pub sets: AccessSets,
    /// Container → positions in `sets.reads` / `sets.writes`.
    by_container: BTreeMap<String, (Vec<usize>, Vec<usize>)>,
}

impl RegionAccess {
    fn new(sets: AccessSets) -> Self {
        let mut by_container: BTreeMap<String, (Vec<usize>, Vec<usize>)> = BTreeMap::new();
        for (i, a) in sets.reads.iter().enumerate() {
            by_container.entry(a.data.clone()).or_default().0.push(i);
        }
        for (i, a) in sets.writes.iter().enumerate() {
            by_container.entry(a.data.clone()).or_default().1.push(i);
        }
        RegionAccess { sets, by_container }
    }

    /// The region's reads of `data`.
    pub fn reads_of<'a>(&'a self, data: &str) -> impl Iterator<Item = &'a Access> + 'a {
        let at = self.by_container.get(data).map_or(&[][..], |(r, _)| r);
        at.iter().map(move |&i| &self.sets.reads[i])
    }

    /// The region's writes to `data`.
    pub fn writes_of<'a>(&'a self, data: &str) -> impl Iterator<Item = &'a Access> + 'a {
        let at = self.by_container.get(data).map_or(&[][..], |(_, w)| w);
        at.iter().map(move |&i| &self.sets.writes[i])
    }
}

/// What the analysis knows about one state.
pub(crate) struct StateAnalysis {
    /// Widened sets of every top-level computation node.
    nodes: BTreeMap<NodeId, RegionAccess>,
    /// Their union, in `computation_nodes()` order — `graph_access_sets`
    /// of the state.
    pub all: RegionAccess,
    /// States reachable from this state's successors (the state itself
    /// only when it sits on a cycle), in BFS order.
    pub after: Vec<StateId>,
    /// States that reach this state's predecessors, likewise.
    pub before: Vec<StateId>,
}

impl StateAnalysis {
    /// The sets of top-level node `n`; `None` for access nodes, which
    /// are the objects of accesses and have none of their own.
    pub fn node(&self, n: NodeId) -> Option<&RegionAccess> {
        self.nodes.get(&n)
    }
}

/// States reachable from the successors of `starts` (exclusive of
/// `starts` unless re-reachable through a cycle), in BFS order.
pub(crate) fn reachable_states(sdfg: &Sdfg, starts: &[StateId]) -> Vec<StateId> {
    let mut succ: Vec<StateId> = Vec::new();
    for &s in starts {
        for t in sdfg.states.successors(s) {
            if !succ.contains(&t) {
                succ.push(t);
            }
        }
    }
    reachable_from(&sdfg.states, &succ)
}

/// States that can reach `starts` (exclusive unless on a cycle).
pub(crate) fn co_reachable_states(sdfg: &Sdfg, starts: &[StateId]) -> Vec<StateId> {
    let mut pred: Vec<StateId> = Vec::new();
    for &s in starts {
        for t in sdfg.states.predecessors(s) {
            if !pred.contains(&t) {
                pred.push(t);
            }
        }
    }
    reverse_reachable_from(&sdfg.states, &pred)
}

/// Everything cutout extraction needs to know about a program that does
/// not depend on the change set. Borrows the program it was built for;
/// build one per program and take every cutout of that program from it.
pub struct ProgramAnalysis<'p> {
    sdfg: &'p Sdfg,
    ctx: SideEffectContext,
    /// Indexed by `StateId::index()`.
    states: Vec<OnceLock<StateAnalysis>>,
    loops: OnceLock<Vec<LoopInfo>>,
    program_nodes: OnceLock<usize>,
}

impl<'p> ProgramAnalysis<'p> {
    /// Analysis of `sdfg` in which every free symbol of the program is a
    /// size in `[1, max_size]` — the context the verification pipeline
    /// uses.
    pub fn new(sdfg: &'p Sdfg, max_size: i64) -> Self {
        let ctx = SideEffectContext::with_size_symbols(&sdfg.free_symbols(), max_size);
        Self::with_context(sdfg, ctx)
    }

    /// Analysis of `sdfg` under caller-chosen symbol bounds.
    pub fn with_context(sdfg: &'p Sdfg, ctx: SideEffectContext) -> Self {
        let mut states = Vec::new();
        states.resize_with(sdfg.states.upper_node_bound(), OnceLock::new);
        ProgramAnalysis {
            sdfg,
            ctx,
            states,
            loops: OnceLock::new(),
            program_nodes: OnceLock::new(),
        }
    }

    /// The analysed program.
    pub fn sdfg(&self) -> &'p Sdfg {
        self.sdfg
    }

    /// The symbol bounds overlap decisions are made under.
    pub fn context(&self) -> &SideEffectContext {
        &self.ctx
    }

    /// Every canonical loop of the program (`detect_all_loops`).
    pub fn loops(&self) -> &[LoopInfo] {
        self.loops.get_or_init(|| detect_all_loops(self.sdfg))
    }

    /// Deep node count of the whole program, for `c ≪ p` comparisons.
    pub fn program_nodes(&self) -> usize {
        *self.program_nodes.get_or_init(|| {
            let states = &self.sdfg.states;
            states
                .node_ids()
                .map(|s| states.node(s).df.deep_node_count())
                .sum()
        })
    }

    /// The analysis of state `s`, which must be a state of the program.
    pub(crate) fn state(&self, s: StateId) -> &StateAnalysis {
        self.states[s.index()].get_or_init(|| {
            let df = &self.sdfg.state(s).df;
            let mut all = AccessSets::default();
            let nodes = df
                .computation_nodes()
                .into_iter()
                .map(|n| {
                    let sets = node_access_sets(df, n);
                    all.merge(sets.clone());
                    (n, RegionAccess::new(sets))
                })
                .collect();
            StateAnalysis {
                nodes,
                all: RegionAccess::new(all),
                after: reachable_states(self.sdfg, &[s]),
                before: co_reachable_states(self.sdfg, &[s]),
            }
        })
    }
}
