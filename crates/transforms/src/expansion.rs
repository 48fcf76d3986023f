//! Map expansion (buggy, Table 2: generates invalid code) and map
//! collapse (correct inverse).

use crate::framework::{
    expect_map, single_node, top_level_maps, ChangeSet, MapRewrite, MatchSite, TransformError,
    Transformation, TransformationMatch,
};
use fuzzyflow_ir::{Dataflow, DfNode, MapScope, Schedule, Sdfg};

/// Map expansion: splits a multi-dimensional map into nested
/// one-dimensional maps ("removes collapsing from parallel nested loops").
///
/// **Seeded bug (Table 2, ὒ8 generates invalid code):** when rebuilding the
/// nested structure, the pass forgets to re-attach body memlets whose
/// subsets do not reference any *inner* parameter (e.g. a scalar operand
/// broadcast across the inner dimensions). The affected tasklet is left
/// with a dangling input connector, which fails IR validation — the moral
/// equivalent of emitting C++ that does not compile.
#[derive(Clone, Debug, Default)]
pub struct MapExpansion;

impl Transformation for MapExpansion {
    fn name(&self) -> &'static str {
        "MapExpansion"
    }
    fn description(&self) -> &'static str {
        "Expands multi-dimensional maps into nested maps (Table 2: generates invalid code)"
    }

    fn find_matches(&self, sdfg: &Sdfg) -> Vec<TransformationMatch> {
        top_level_maps(sdfg)
            .into_iter()
            .filter(|&(st, n)| {
                sdfg.state(st)
                    .df
                    .graph
                    .node(n)
                    .as_map()
                    .map(|m| m.params.len() >= 2)
                    .unwrap_or(false)
            })
            .map(|(state, node)| TransformationMatch {
                site: MatchSite::Nodes {
                    state,
                    nodes: vec![node],
                },
                description: format!("expand map {node} in state {state}"),
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

impl MapExpansion {
    fn rewrite(&self, sdfg: &Sdfg, m: &TransformationMatch) -> Result<MapRewrite, TransformError> {
        let (state, node) = single_node(m)?;
        let map = expect_map(sdfg, state, node)?;
        if map.params.len() < 2 {
            return Err(TransformError::MatchInvalid(
                "map expansion needs >= 2 parameters".into(),
            ));
        }
        let inner_params: Vec<String> = map.params[1..].to_vec();

        let mut inner_body = map.body.clone();
        // BUG (seeded): drop access->computation edges whose subsets do not
        // reference any inner parameter, "assuming" they belong to the
        // outer scope. Their consumers keep the (now dangling) connector.
        let edges: Vec<fuzzyflow_graph::EdgeId> = inner_body.graph.edge_ids().collect();
        for e in edges {
            let mem = inner_body.graph.edge(e);
            let (src, _) = inner_body.graph.endpoints(e);
            let is_read = inner_body.graph.node(src).is_access();
            let refs_inner = mem
                .subset
                .free_symbols()
                .iter()
                .any(|s| inner_params.contains(s));
            if is_read && !refs_inner && mem.subset.rank() == 0 {
                let src_node = src;
                inner_body.graph.remove_edge(e);
                if inner_body.graph.out_degree(src_node) == 0
                    && inner_body.graph.in_degree(src_node) == 0
                {
                    inner_body.graph.remove_node(src_node);
                }
            }
        }

        let inner = MapScope {
            params: inner_params,
            ranges: map.ranges[1..].to_vec(),
            schedule: Schedule::Sequential,
            body: inner_body,
        };
        let mut outer_body = Dataflow::new();
        outer_body.add_node(DfNode::Map(inner));
        let outer = MapScope {
            params: vec![map.params[0].clone()],
            ranges: vec![map.ranges[0].clone()],
            schedule: map.schedule,
            body: outer_body,
        };
        Ok(MapRewrite {
            state,
            node,
            map: outer,
        })
    }
}

/// Map collapse: merges a map whose body is exactly one nested map into a
/// single multi-dimensional map (correct).
#[derive(Clone, Debug, Default)]
pub struct MapCollapse;

impl Transformation for MapCollapse {
    fn name(&self) -> &'static str {
        "MapCollapse"
    }
    fn description(&self) -> &'static str {
        "Collapses directly nested maps into one multi-dimensional map (correct reference version)"
    }

    fn find_matches(&self, sdfg: &Sdfg) -> Vec<TransformationMatch> {
        top_level_maps(sdfg)
            .into_iter()
            .filter(|&(st, n)| {
                let map = sdfg.state(st).df.graph.node(n).as_map().expect("map");
                let comp = map.body.computation_nodes();
                comp.len() == 1
                    && map.body.graph.node_count() == 1
                    && map.body.graph.node(comp[0]).as_map().is_some()
            })
            .map(|(state, node)| TransformationMatch {
                site: MatchSite::Nodes {
                    state,
                    nodes: vec![node],
                },
                description: format!("collapse nested map {node} in state {state}"),
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

impl MapCollapse {
    fn rewrite(&self, sdfg: &Sdfg, m: &TransformationMatch) -> Result<MapRewrite, TransformError> {
        let (state, node) = single_node(m)?;
        let outer = expect_map(sdfg, state, node)?;
        let inner_id = outer
            .body
            .computation_nodes()
            .first()
            .copied()
            .ok_or_else(|| TransformError::MatchInvalid("no nested map".into()))?;
        let inner = outer
            .body
            .graph
            .node(inner_id)
            .as_map()
            .ok_or_else(|| TransformError::MatchInvalid("body node is not a map".into()))?;
        let collapsed = MapScope {
            params: outer.params.iter().chain(&inner.params).cloned().collect(),
            ranges: outer.ranges.iter().chain(&inner.ranges).cloned().collect(),
            schedule: outer.schedule,
            body: inner.body.clone(),
        };
        Ok(MapRewrite {
            state,
            node,
            map: collapsed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::apply_to_clone;
    use fuzzyflow_interp::{run, ArrayValue, ExecState};
    use fuzzyflow_ir::{
        sym, validate, DType, Memlet, ScalarExpr, SdfgBuilder, Subset, SymRange, Tasklet,
        ValidationError,
    };

    /// 2-D scale: B[i,j] = A[i,j] * scale (scalar broadcast triggers the bug).
    fn program_with_scalar(with_scalar: bool) -> Sdfg {
        let mut b = SdfgBuilder::new("p");
        b.symbol("N");
        b.array("A", DType::F64, &["N", "N"]);
        b.array("B", DType::F64, &["N", "N"]);
        if with_scalar {
            b.scalar("scale", DType::F64);
        }
        let st = b.start();
        b.in_state(st, |df| {
            let a = df.access("A");
            let o = df.access("B");
            let s = if with_scalar {
                Some(df.access("scale"))
            } else {
                None
            };
            let m = df.map(
                &["i", "j"],
                vec![SymRange::full(sym("N")), SymRange::full(sym("N"))],
                Schedule::Parallel,
                |body| {
                    let a = body.access("A");
                    let o = body.access("B");
                    let expr = if with_scalar {
                        ScalarExpr::r("x").mul(ScalarExpr::r("f"))
                    } else {
                        ScalarExpr::r("x").mul(ScalarExpr::f64(2.0))
                    };
                    let ins = if with_scalar {
                        vec!["x", "f"]
                    } else {
                        vec!["x"]
                    };
                    let t = body.tasklet(Tasklet::simple("sc", ins, "y", expr));
                    body.read(
                        a,
                        t,
                        Memlet::new("A", Subset::at(vec![sym("i"), sym("j")])).to_conn("x"),
                    );
                    if with_scalar {
                        let sa = body.access("scale");
                        body.read(
                            sa,
                            t,
                            Memlet::new("scale", Subset::new(vec![])).to_conn("f"),
                        );
                    }
                    body.write(
                        t,
                        o,
                        Memlet::new("B", Subset::at(vec![sym("i"), sym("j")])).from_conn("y"),
                    );
                },
            );
            let mut ins = vec![a];
            if let Some(s) = s {
                ins.push(s);
            }
            df.auto_wire(m, &ins, &[o]);
        });
        b.build()
    }

    #[test]
    fn expansion_without_broadcast_is_correct() {
        let p = program_with_scalar(false);
        let t = MapExpansion;
        let m = &t.find_matches(&p)[0];
        let (ep, _) = apply_to_clone(&p, &t, m).unwrap();
        assert!(validate(&ep).is_ok(), "{:?}", validate(&ep));
        let exec = |p: &Sdfg| {
            let mut st = ExecState::new();
            st.bind("N", 3);
            let vals: Vec<f64> = (0..9).map(|i| i as f64).collect();
            st.set_array("A", ArrayValue::from_f64(vec![3, 3], &vals));
            run(p, &mut st).unwrap();
            st.array("B").unwrap().to_f64_vec()
        };
        assert_eq!(exec(&p), exec(&ep));
    }

    #[test]
    fn expansion_with_broadcast_generates_invalid_code() {
        let p = program_with_scalar(true);
        let t = MapExpansion;
        let m = &t.find_matches(&p)[0];
        let (ep, _) = apply_to_clone(&p, &t, m).unwrap();
        let errs = validate(&ep).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::DanglingInputConnector { connector, .. } if connector == "f")));
    }

    #[test]
    fn collapse_roundtrips_expansion() {
        let p = program_with_scalar(false);
        let e = MapExpansion;
        let m = &e.find_matches(&p)[0];
        let (ep, _) = apply_to_clone(&p, &e, m).unwrap();
        let c = MapCollapse;
        let matches = c.find_matches(&ep);
        assert_eq!(matches.len(), 1);
        let (cp, _) = apply_to_clone(&ep, &c, &matches[0]).unwrap();
        assert!(validate(&cp).is_ok());
        // Collapsed map is 2-D again.
        let (st, n) = crate::framework::top_level_maps(&cp)[0];
        assert_eq!(
            cp.state(st).df.graph.node(n).as_map().unwrap().params.len(),
            2
        );
    }

    #[test]
    fn expansion_only_matches_multidim() {
        let mut b = SdfgBuilder::new("p1");
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
        let p = b.build();
        assert!(MapExpansion.find_matches(&p).is_empty());
    }

    use fuzzyflow_ir::Schedule;
}
