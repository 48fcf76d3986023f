//! Gray-box constraint derivation (paper Sec. 5.1).
//!
//! Two analyses bound the sampled input space, cutting uninteresting
//! crashes and shrinking `|S_c|`:
//!
//! 1. **Index analysis** on the cutout: a symbol used to index dimension
//!    `d` of container `A` is bounded to `[0, size_d)`.
//! 2. **Program context analysis** on the original program: a symbol that
//!    is the iteration variable of a loop the cutout was taken from is
//!    bounded to that loop's range.
//!
//! Size symbols (appearing in container shapes) are bounded to
//! `[1, S_max]` since containers can never have non-positive sizes.
//! Engineers may add custom constraints on top.

use fuzzyflow_cutout::Cutout;
use fuzzyflow_ir::loops::{detect_all_loops, LoopInfo};
use fuzzyflow_ir::{DfNode, Sdfg, SymExpr};
use std::collections::BTreeMap;

/// How a cutout input symbol is used, which decides its sampling range.
#[derive(Clone, Debug, PartialEq)]
pub enum SymbolRole {
    /// Appears in a container shape: sampled in `[1, S_max]`.
    Size,
    /// Used to index into a container dimension: sampled in
    /// `[0, dim_size)` where `dim_size` is evaluated after sizes are bound.
    Index { dim_size: SymExpr },
    /// Loop iteration variable of an enclosing loop: sampled within the
    /// loop bounds (evaluated after sizes are bound).
    LoopVar { lo: SymExpr, hi: SymExpr },
    /// No derived constraint: sampled in `[0, S_max]`.
    Free,
}

/// Derived sampling constraints for a cutout.
#[derive(Clone, Debug, Default)]
pub struct Constraints {
    pub roles: BTreeMap<String, SymbolRole>,
    /// Engineer-provided overrides (paper: "an engineer may further
    /// constrain the testing process").
    pub custom: BTreeMap<String, (i64, i64)>,
}

impl Constraints {
    /// Adds a custom inclusive range for a symbol.
    pub fn constrain(&mut self, symbol: impl Into<String>, lo: i64, hi: i64) -> &mut Self {
        assert!(lo <= hi);
        self.custom.insert(symbol.into(), (lo, hi));
        self
    }

    /// Symbols ordered so that sizes are sampled before dependent symbols.
    pub fn sampling_order(&self) -> Vec<String> {
        self.ordered_roles().map(|(name, _)| name.clone()).collect()
    }

    /// The roles in [`Constraints::sampling_order`], without allocating:
    /// sizes first, then every other role, each group in name order.
    pub(crate) fn ordered_roles(&self) -> impl Iterator<Item = (&String, &SymbolRole)> {
        let sizes = self.roles.iter().filter(|(_, r)| r.is_size());
        let rest = self.roles.iter().filter(|(_, r)| !r.is_size());
        sizes.chain(rest)
    }

    /// True when `earlier` is a role symbol drawn before role symbol
    /// `name` in [`Constraints::sampling_order`] — that is, bound by the
    /// time `name`'s bounds are evaluated.
    pub(crate) fn drawn_before(&self, earlier: &str, name: &str) -> bool {
        let rank = |s: &str| self.roles.get(s).map(|r| !r.is_size());
        match (rank(earlier), rank(name)) {
            (Some(a), Some(b)) => (a, earlier) < (b, name),
            _ => false,
        }
    }
}

impl SymbolRole {
    fn is_size(&self) -> bool {
        matches!(self, SymbolRole::Size)
    }
}

/// Collects, per symbol, the tightest dimension bound from index usage in
/// a dataflow graph (recursing into map bodies; map parameters shadow).
fn index_bounds(
    sdfg: &Sdfg,
    df: &fuzzyflow_ir::Dataflow,
    shadow: &mut Vec<String>,
    out: &mut BTreeMap<String, SymExpr>,
) {
    for e in df.graph.edge_ids() {
        let m = df.graph.edge(e);
        let Some(desc) = sdfg.array(&m.data) else {
            continue;
        };
        if m.subset.rank() != desc.rank() {
            continue;
        }
        for (d, range) in m.subset.dims().iter().enumerate() {
            for s in range.free_symbols() {
                if shadow.contains(&s) || out.contains_key(&s) {
                    continue;
                }
                out.insert(s, desc.shape[d].clone());
            }
        }
    }
    for n in df.graph.node_ids() {
        if let DfNode::Map(map) = df.graph.node(n) {
            let added = map.params.len();
            shadow.extend(map.params.iter().cloned());
            index_bounds(sdfg, &map.body, shadow, out);
            shadow.truncate(shadow.len() - added);
        }
    }
}

/// Derives constraints for a cutout, consulting the original program for
/// loop context (paper: "of particular interest here are loop iteration
/// variables that may be constrained to certain loop bounds").
pub fn derive_constraints(cutout: &Cutout, original: &Sdfg) -> Constraints {
    derive_constraints_with_loops(cutout, &detect_all_loops(original))
}

/// [`derive_constraints`] given the original program's loops
/// (`ProgramAnalysis::loops`), which every cutout of one program shares.
pub fn derive_constraints_with_loops(cutout: &Cutout, loops: &[LoopInfo]) -> Constraints {
    let mut roles: BTreeMap<String, SymbolRole> = BTreeMap::new();

    // Size symbols from the cutout's container shapes.
    let mut size_syms: Vec<String> = Vec::new();
    for desc in cutout.sdfg.arrays.values() {
        for s in desc.shape_symbols() {
            if !size_syms.contains(&s) {
                size_syms.push(s);
            }
        }
    }

    // Index bounds from the cutout graphs.
    let mut idx: BTreeMap<String, SymExpr> = BTreeMap::new();
    for st in cutout.sdfg.states.node_ids() {
        index_bounds(
            &cutout.sdfg,
            &cutout.sdfg.state(st).df,
            &mut Vec::new(),
            &mut idx,
        );
    }

    for sym in &cutout.input_symbols {
        let role = if size_syms.contains(sym) {
            SymbolRole::Size
        } else if let Some(lp) = loops.iter().find(|l| &l.var == sym) {
            // Inclusive bounds; the guard comparison tells the direction.
            let (lo, hi) = match lp.cmp {
                fuzzyflow_ir::SymCmpOp::Ge | fuzzyflow_ir::SymCmpOp::Gt => {
                    (lp.end.clone().simplify(), lp.start.clone().simplify())
                }
                _ => (lp.start.clone().simplify(), lp.end.clone().simplify()),
            };
            SymbolRole::LoopVar { lo, hi }
        } else if let Some(dim) = idx.get(sym) {
            SymbolRole::Index {
                dim_size: dim.clone(),
            }
        } else {
            SymbolRole::Free
        };
        roles.insert(sym.clone(), role);
    }

    Constraints {
        roles,
        custom: BTreeMap::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzyflow_cutout::{extract_cutout, SideEffectContext};
    use fuzzyflow_ir::{
        sym, DType, Memlet, ScalarExpr, Schedule, SdfgBuilder, Subset, SymRange, Tasklet,
    };
    use fuzzyflow_transforms::ChangeSet;

    /// Loop over k; body reads A[k, 0:N] and writes B[k].
    fn loop_program() -> (Sdfg, fuzzyflow_ir::StateId, fuzzyflow_graph::NodeId) {
        let mut b = SdfgBuilder::new("lp");
        b.symbol("N");
        b.array("A", DType::F64, &["N", "N"]);
        b.array("B", DType::F64, &["N"]);
        let lh = b.for_loop(
            b.start(),
            "k",
            SymExpr::Int(0),
            sym("N") - SymExpr::Int(1),
            1,
            "l",
        );
        b.in_state(lh.body, |df| {
            let a = df.access("A");
            let o = df.access("B");
            let m = df.map(
                &["j"],
                vec![SymRange::full(sym("N"))],
                Schedule::Sequential,
                |body| {
                    let a = body.access("A");
                    let o = body.access("B");
                    let t = body.tasklet(Tasklet::simple("id", vec!["x"], "y", ScalarExpr::r("x")));
                    body.read(
                        a,
                        t,
                        Memlet::new("A", Subset::at(vec![sym("k"), sym("j")])).to_conn("x"),
                    );
                    body.write(
                        t,
                        o,
                        Memlet::new("B", Subset::at(vec![sym("k")]))
                            .from_conn("y")
                            .with_wcr(fuzzyflow_ir::Wcr::Sum),
                    );
                },
            );
            df.auto_wire(m, &[a], &[o]);
        });
        let p = b.build();
        let m = p.state(lh.body).df.computation_nodes()[0];
        (p, lh.body, m)
    }

    #[test]
    fn loop_var_and_size_roles() {
        let (p, st, m) = loop_program();
        let changes = ChangeSet::nodes_in_state(st, [m]);
        let ctx = SideEffectContext::with_size_symbols(&["N".to_string()], 1 << 20);
        let c = extract_cutout(&p, &changes, &ctx).unwrap();
        // Inputs: A (container), symbols N (size) and k (loop var).
        assert!(c.input_symbols.contains(&"N".to_string()));
        assert!(c.input_symbols.contains(&"k".to_string()));
        let cons = derive_constraints(&c, &p);
        assert_eq!(cons.roles["N"], SymbolRole::Size);
        match &cons.roles["k"] {
            SymbolRole::LoopVar { lo, hi } => {
                assert_eq!(lo.as_int(), Some(0));
                assert_eq!(hi.to_string(), "N - 1");
            }
            other => panic!("expected loop-var role for k, got {other:?}"),
        }
    }

    #[test]
    fn index_role_without_loop_context() {
        // Program without state-machine loop: k only appears as an index.
        let mut b = SdfgBuilder::new("idx");
        b.symbol("N");
        b.symbol("k");
        b.array("A", DType::F64, &["N"]);
        b.scalar("out", DType::F64);
        let st = b.start();
        let mut tid = None;
        b.in_state(st, |df| {
            let a = df.access("A");
            let o = df.access("out");
            let t = df.tasklet(Tasklet::simple("rd", vec!["x"], "y", ScalarExpr::r("x")));
            df.read(
                a,
                t,
                Memlet::new("A", Subset::at(vec![sym("k")])).to_conn("x"),
            );
            df.write(t, o, Memlet::new("out", Subset::new(vec![])).from_conn("y"));
            tid = Some(t);
        });
        let p = b.build();
        let changes = ChangeSet::nodes_in_state(st, [tid.unwrap()]);
        let c = extract_cutout(&p, &changes, &SideEffectContext::default()).unwrap();
        let cons = derive_constraints(&c, &p);
        match &cons.roles["k"] {
            SymbolRole::Index { dim_size } => assert_eq!(dim_size.to_string(), "N"),
            other => panic!("expected index role, got {other:?}"),
        }
    }

    #[test]
    fn sampling_order_sizes_first() {
        let (p, st, m) = loop_program();
        let changes = ChangeSet::nodes_in_state(st, [m]);
        let ctx = SideEffectContext::with_size_symbols(&["N".to_string()], 1 << 20);
        let c = extract_cutout(&p, &changes, &ctx).unwrap();
        let cons = derive_constraints(&c, &p);
        let order = cons.sampling_order();
        assert_eq!(order[0], "N");
        assert!(cons.drawn_before("N", "k"));
        assert!(!cons.drawn_before("k", "N"));
        assert!(
            !cons.drawn_before("k", "k"),
            "a symbol is not drawn before itself"
        );
        assert!(
            !cons.drawn_before("Q", "k"),
            "a role-less symbol is never drawn"
        );
    }

    #[test]
    fn custom_constraints_recorded() {
        let mut c = Constraints::default();
        c.constrain("NBLOCKS", 1, 16);
        assert_eq!(c.custom["NBLOCKS"], (1, 16));
    }

    use fuzzyflow_ir::Sdfg;
}
