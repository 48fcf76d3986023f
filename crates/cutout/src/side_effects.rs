//! The two side-effect analyses of paper Secs. 3.1 and 3.2.
//!
//! **System state**: any container (or sub-region) written inside the
//! cutout that may be read again after the cutout executes, were the cutout
//! placed back into the original program. Determined by an *external data
//! analysis* (non-transient containers persist) plus a *program flow
//! analysis* (BFS from the cutout through the program, checking read
//! subsets against the cutout's written subsets).
//!
//! **Input configuration**: any container that may already hold data when
//! the cutout starts. External data analysis (non-transient reads) plus a
//! reversed BFS checking upstream writes against the cutout's read subsets.

use crate::analysis::{co_reachable_states, reachable_states, ProgramAnalysis, RegionAccess};
use fuzzyflow_graph::{reachable_from, reverse_reachable_from, NodeId};
use fuzzyflow_ir::analysis::AccessSets;
use fuzzyflow_ir::{Sdfg, StateId, SymBounds};

/// Context for subset-overlap decisions: bounds for size symbols etc.
/// Undecidable comparisons are treated as overlapping (sound).
#[derive(Clone, Debug, Default)]
pub struct SideEffectContext {
    pub bounds: SymBounds,
}

impl SideEffectContext {
    /// Context asserting that every listed symbol is a size in
    /// `[1, max_size]` — mirrors the paper's "a data container can never
    /// have a size of <= 0".
    pub fn with_size_symbols(symbols: &[String], max_size: i64) -> Self {
        let mut bounds = SymBounds::new();
        for s in symbols {
            bounds.set(s.clone(), 1, max_size);
        }
        SideEffectContext { bounds }
    }
}

/// Where a cutout was taken from, in original-program coordinates.
#[derive(Clone, Debug)]
pub enum CutoutLocation {
    /// A set of top-level dataflow nodes within one state.
    Nodes { state: StateId, nodes: Vec<NodeId> },
    /// Whole states.
    States(Vec<StateId>),
}

/// Which side of the cutout a flow scan looks at.
#[derive(Clone, Copy)]
enum Direction {
    /// Later reads of what the cutout writes (system state).
    Downstream,
    /// Earlier writes of what the cutout reads (input configuration).
    Upstream,
}

impl ProgramAnalysis<'_> {
    /// Computes the cutout's **system state** (paper Sec. 3.1): the
    /// containers whose contents after the cutout's execution can
    /// influence the rest of the program.
    pub fn system_state(&self, cutout_sets: &AccessSets, location: &CutoutLocation) -> Vec<String> {
        self.flow_scan(cutout_sets, location, Direction::Downstream)
    }

    /// Computes the cutout's **input configuration** (paper Sec. 3.2): the
    /// containers that may already contain data before the cutout executes.
    pub fn input_configuration(
        &self,
        cutout_sets: &AccessSets,
        location: &CutoutLocation,
    ) -> Vec<String> {
        self.flow_scan(cutout_sets, location, Direction::Upstream)
    }

    /// Both analyses are one scan run in opposite directions: an
    /// *external data analysis* (non-transient containers the cutout
    /// touches on its side always count) followed by a *program flow
    /// analysis* — BFS away from the cutout, checking the other regions'
    /// opposite accesses against the cutout's subsets. Only containers
    /// the first step left undecided are scanned for, and only against
    /// accesses of that same container.
    fn flow_scan(
        &self,
        cutout_sets: &AccessSets,
        location: &CutoutLocation,
        dir: Direction,
    ) -> Vec<String> {
        let sdfg = self.sdfg();
        let bounds = &self.context().bounds;
        let touched = match dir {
            Direction::Downstream => cutout_sets.written_containers(),
            Direction::Upstream => cutout_sets.read_containers(),
        };
        let (mut found, mut pending): (Vec<String>, Vec<String>) = touched
            .into_iter()
            .partition(|c| sdfg.array(c).map(|d| !d.transient).unwrap_or(true));

        let mut scan = |region: &RegionAccess| {
            pending.retain(|c| {
                let hit = match dir {
                    Direction::Downstream => region.reads_of(c).any(|r| {
                        cutout_sets
                            .writes_to(c)
                            .any(|w| r.subset.overlaps(&w.subset, bounds).may())
                    }),
                    Direction::Upstream => region.writes_of(c).any(|w| {
                        cutout_sets
                            .reads_from(c)
                            .any(|r| w.subset.overlaps(&r.subset, bounds).may())
                    }),
                };
                if hit {
                    found.push(c.clone());
                }
                !hit
            });
        };

        match location {
            CutoutLocation::Nodes { state, nodes } => {
                let here = self.state(*state);
                // Within the state: the nodes the cutout's data flows to
                // (or comes from).
                let graph = &sdfg.state(*state).df.graph;
                let neighbours = match dir {
                    Direction::Downstream => reachable_from(graph, nodes),
                    Direction::Upstream => reverse_reachable_from(graph, nodes),
                };
                for n in neighbours {
                    if nodes.contains(&n) {
                        continue;
                    }
                    if let Some(region) = here.node(n) {
                        scan(region);
                    }
                }
                // Other states — and the own state again if it sits on a
                // cycle: every access in it may re-execute.
                let reach = match dir {
                    Direction::Downstream => &here.after,
                    Direction::Upstream => &here.before,
                };
                for &s in reach {
                    scan(&self.state(s).all);
                }
            }
            CutoutLocation::States(states) => {
                let reach = match dir {
                    Direction::Downstream => reachable_states(sdfg, states),
                    Direction::Upstream => co_reachable_states(sdfg, states),
                };
                for s in reach {
                    if !states.contains(&s) {
                        scan(&self.state(s).all);
                    }
                }
            }
        }

        found.sort();
        found
    }
}

/// [`ProgramAnalysis::system_state`] over a throwaway analysis.
pub fn system_state(
    sdfg: &Sdfg,
    cutout_sets: &AccessSets,
    location: &CutoutLocation,
    ctx: &SideEffectContext,
) -> Vec<String> {
    ProgramAnalysis::with_context(sdfg, ctx.clone()).system_state(cutout_sets, location)
}

/// [`ProgramAnalysis::input_configuration`] over a throwaway analysis.
pub fn input_configuration(
    sdfg: &Sdfg,
    cutout_sets: &AccessSets,
    location: &CutoutLocation,
    ctx: &SideEffectContext,
) -> Vec<String> {
    ProgramAnalysis::with_context(sdfg, ctx.clone()).input_configuration(cutout_sets, location)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzyflow_ir::analysis::node_access_sets;
    use fuzzyflow_ir::{
        sym, DType, Memlet, ScalarExpr, Schedule, SdfgBuilder, Subset, SymExpr, SymRange, Tasklet,
    };

    /// state0: tmp[i] = A[i]+1 (map M1); V[i] = tmp[i]*2 (map M2)
    /// state1: R[i] = V[i] + tmp[0]
    /// Cutout = {M2}: system state must include V (read downstream) and
    /// input config must include tmp (written upstream).
    fn program() -> (Sdfg, StateId, NodeId) {
        let mut b = SdfgBuilder::new("p");
        b.symbol("N");
        b.array("A", DType::F64, &["N"]);
        b.transient("tmp", DType::F64, &["N"]);
        b.transient("V", DType::F64, &["N"]);
        b.array("R", DType::F64, &["N"]);
        let st0 = b.start();
        let mut m2_id = None;
        b.in_state(st0, |df| {
            let a = df.access("A");
            let tmp = df.access("tmp");
            let v = df.access("V");
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
                    let v = body.access("V");
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
                        v,
                        Memlet::new("V", Subset::at(vec![sym("i")])).from_conn("y"),
                    );
                },
            );
            df.auto_wire(m1, &[a], &[tmp]);
            df.auto_wire(m2, &[tmp], &[v]);
            m2_id = Some(m2);
        });
        let st1 = b.add_state_after(st0, "consume");
        b.in_state(st1, |df| {
            let v = df.access("V");
            let tmp = df.access("tmp");
            let r = df.access("R");
            let m = df.map(
                &["i"],
                vec![SymRange::full(sym("N"))],
                Schedule::Parallel,
                |body| {
                    let v = body.access("V");
                    let t = body.access("tmp");
                    let r = body.access("R");
                    let k = body.tasklet(Tasklet::simple(
                        "add",
                        vec!["a", "b"],
                        "y",
                        ScalarExpr::r("a").add(ScalarExpr::r("b")),
                    ));
                    body.read(
                        v,
                        k,
                        Memlet::new("V", Subset::at(vec![sym("i")])).to_conn("a"),
                    );
                    body.read(
                        t,
                        k,
                        Memlet::new("tmp", Subset::at(vec![SymExpr::Int(0)])).to_conn("b"),
                    );
                    body.write(
                        k,
                        r,
                        Memlet::new("R", Subset::at(vec![sym("i")])).from_conn("y"),
                    );
                },
            );
            df.auto_wire(m, &[v, tmp], &[r]);
        });
        let sdfg = b.build();
        (sdfg, st0, m2_id.expect("m2 built"))
    }

    fn ctx() -> SideEffectContext {
        SideEffectContext::with_size_symbols(&["N".to_string()], 1 << 20)
    }

    #[test]
    fn system_state_includes_downstream_read() {
        let (p, st, m2) = program();
        let df = &p.state(st).df;
        let sets = node_access_sets(df, m2);
        let loc = CutoutLocation::Nodes {
            state: st,
            nodes: vec![m2],
        };
        let ss = system_state(&p, &sets, &loc, &ctx());
        assert!(
            ss.contains(&"V".to_string()),
            "V read in next state: {ss:?}"
        );
        // tmp is only *read* by the cutout; not part of the system state.
        assert!(!ss.contains(&"tmp".to_string()));
    }

    #[test]
    fn input_config_includes_upstream_write() {
        let (p, st, m2) = program();
        let df = &p.state(st).df;
        let sets = node_access_sets(df, m2);
        let loc = CutoutLocation::Nodes {
            state: st,
            nodes: vec![m2],
        };
        let ic = input_configuration(&p, &sets, &loc, &ctx());
        assert!(
            ic.contains(&"tmp".to_string()),
            "tmp written upstream: {ic:?}"
        );
        assert!(
            !ic.contains(&"A".to_string()),
            "A not read by cutout: {ic:?}"
        );
        // V is written (not read) by the cutout -> not an input.
        assert!(!ic.contains(&"V".to_string()));
    }

    #[test]
    fn external_containers_always_counted() {
        let (p, st, _) = program();
        let df = &p.state(st).df;
        // Cutout = M1 (reads non-transient A, writes transient tmp).
        let m1 = df.computation_nodes()[0];
        let sets = node_access_sets(df, m1);
        let loc = CutoutLocation::Nodes {
            state: st,
            nodes: vec![m1],
        };
        let ic = input_configuration(&p, &sets, &loc, &ctx());
        assert!(ic.contains(&"A".to_string()));
        let ss = system_state(&p, &sets, &loc, &ctx());
        // tmp is read downstream (both M2 and next state).
        assert!(ss.contains(&"tmp".to_string()));
    }

    #[test]
    fn disjoint_subsets_not_flagged() {
        // Writer touches A[0:4], downstream reads A[4:8]: no side effect.
        let mut b = SdfgBuilder::new("d");
        b.array("A", DType::F64, &["8"]);
        b.transient("B", DType::F64, &["8"]);
        b.scalar("x", DType::F64);
        let st = b.start();
        let mut writer = None;
        b.in_state(st, |df| {
            let xa = df.access("x");
            let a = df.access("B");
            let t = df.tasklet(Tasklet::simple("w", vec!["v"], "y", ScalarExpr::r("v")));
            df.read(xa, t, Memlet::new("x", Subset::new(vec![])).to_conn("v"));
            df.write(
                t,
                a,
                Memlet::new(
                    "B",
                    Subset::new(vec![SymRange::span(SymExpr::Int(0), SymExpr::Int(4))]),
                )
                .from_conn("y"),
            );
            writer = Some(t);
        });
        let st1 = b.add_state_after(st, "next");
        b.in_state(st1, |df| {
            let a = df.access("B");
            let o = df.access("A");
            let t = df.tasklet(Tasklet::simple("r", vec!["v"], "y", ScalarExpr::r("v")));
            df.read(
                a,
                t,
                Memlet::new(
                    "B",
                    Subset::new(vec![SymRange::span(SymExpr::Int(4), SymExpr::Int(8))]),
                )
                .to_conn("v"),
            );
            df.write(
                t,
                o,
                Memlet::new("A", Subset::at(vec![SymExpr::Int(0)])).from_conn("y"),
            );
        });
        let p = b.build();
        let df = &p.state(st).df;
        let sets = node_access_sets(df, writer.expect("writer"));
        let loc = CutoutLocation::Nodes {
            state: st,
            nodes: vec![writer.unwrap()],
        };
        let ss = system_state(&p, &sets, &loc, &SideEffectContext::default());
        assert!(
            !ss.contains(&"B".to_string()),
            "disjoint sub-regions must not alias: {ss:?}"
        );
    }

    use fuzzyflow_graph::NodeId;
}
