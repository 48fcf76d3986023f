//! Loop (map) tiling, in one correct and two buggy variants.
//!
//! The running example of the paper (Fig. 2/3): tiling a map splits each
//! iteration dimension `i in [b, e)` into an outer tile loop `i_t` with
//! step `T` and an inner loop `i in [i_t, min(i_t + T, e))`.
//!
//! * [`MapTiling`] — correct.
//! * [`MapTilingOffByOne`] — the Fig. 2 bug: the inner bound is computed
//!   with a `<=`-style off-by-one (`min(i_t + T + 1, e)`), so consecutive
//!   tiles overlap by one iteration. On accumulating computations (e.g.
//!   the `k` loop of a matrix multiplication) overlapped iterations are
//!   executed twice, silently changing results.
//! * [`MapTilingNoRemainder`] — the Sec. 2.1 bug: the inner bound is
//!   `i_t + T` without clamping to `e`, causing out-of-bounds accesses for
//!   any size that is not a multiple of the tile size.
//!
//! All three match identical sites, so sweeps can compare them directly.

use crate::framework::{
    expect_map, single_node, top_level_maps, ChangeSet, MapRewrite, MatchSite, TransformError,
    Transformation, TransformationMatch,
};
use fuzzyflow_ir::{DfNode, MapScope, Schedule, Sdfg, SymExpr, SymRange};

fn find_tilable(sdfg: &Sdfg) -> Vec<TransformationMatch> {
    top_level_maps(sdfg)
        .into_iter()
        .filter(|&(st, n)| {
            let map = sdfg.state(st).df.graph.node(n).as_map().expect("is map");
            // Only tile unit-stride *parallel* maps that are not already
            // tiled: sequential maps may carry loop dependences whose
            // order tiling would change (e.g. Gauss-Seidel sweeps).
            map.schedule == Schedule::Parallel
                && map.ranges.iter().all(|r| r.step.as_int() == Some(1))
        })
        .map(|(state, node)| TransformationMatch {
            site: MatchSite::Nodes {
                state,
                nodes: vec![node],
            },
            description: format!("map {node} in state {state}"),
        })
        .collect()
}

/// Shared tiling rewrite. `inner_end` computes the inner loop's end
/// expression from `(tile_start, tile, range_end)` — the three variants
/// differ only here.
fn tile_map(
    sdfg: &Sdfg,
    m: &TransformationMatch,
    tile: i64,
    inner_end: impl Fn(SymExpr, i64, SymExpr) -> SymExpr,
) -> Result<MapRewrite, TransformError> {
    let (state, node) = single_node(m)?;
    let map = expect_map(sdfg, state, node)?;

    let mut outer_params = Vec::new();
    let mut outer_ranges = Vec::new();
    let mut inner_ranges = Vec::new();
    for (p, r) in map.params.iter().zip(&map.ranges) {
        let tp = format!("{p}_t");
        outer_params.push(tp.clone());
        outer_ranges.push(SymRange::strided(
            r.start.clone(),
            r.end.clone(),
            SymExpr::Int(tile),
        ));
        inner_ranges.push(SymRange::span(
            SymExpr::sym(&tp),
            inner_end(SymExpr::sym(&tp), tile, r.end.clone()),
        ));
    }

    let inner = MapScope {
        params: map.params.clone(),
        ranges: inner_ranges,
        schedule: Schedule::Sequential,
        body: map.body.clone(),
    };
    let mut inner_df = fuzzyflow_ir::Dataflow::new();
    inner_df.add_node(DfNode::Map(inner));
    let tiled = MapScope {
        params: outer_params,
        ranges: outer_ranges,
        schedule: map.schedule,
        body: inner_df,
    };
    Ok(MapRewrite {
        state,
        node,
        map: tiled,
    })
}

/// Correct map tiling: inner bound `min(i_t + T, e)`.
#[derive(Clone, Debug)]
pub struct MapTiling {
    pub tile: i64,
}

impl Default for MapTiling {
    fn default() -> Self {
        MapTiling { tile: 8 }
    }
}

impl MapTiling {
    /// Tiling with an explicit tile size.
    pub fn new(tile: i64) -> Self {
        assert!(tile > 0);
        MapTiling { tile }
    }

    fn rewrite(&self, sdfg: &Sdfg, m: &TransformationMatch) -> Result<MapRewrite, TransformError> {
        tile_map(sdfg, m, self.tile, |tstart, tile, end| {
            (tstart + SymExpr::Int(tile)).min(end)
        })
    }
}

impl Transformation for MapTiling {
    fn name(&self) -> &'static str {
        "MapTiling"
    }
    fn description(&self) -> &'static str {
        "Tiles map iteration spaces for locality (correct reference version)"
    }
    fn find_matches(&self, sdfg: &Sdfg) -> Vec<TransformationMatch> {
        find_tilable(sdfg)
    }
    fn apply(&self, sdfg: &mut Sdfg, m: &TransformationMatch) -> Result<ChangeSet, TransformError> {
        Ok(self.rewrite(sdfg, m)?.commit(sdfg))
    }
    fn changes(&self, sdfg: &Sdfg, m: &TransformationMatch) -> Result<ChangeSet, TransformError> {
        Ok(self.rewrite(sdfg, m)?.change_set())
    }
}

/// Buggy tiling with the Fig. 2 off-by-one: tiles overlap by one iteration.
#[derive(Clone, Debug)]
pub struct MapTilingOffByOne {
    pub tile: i64,
}

impl Default for MapTilingOffByOne {
    fn default() -> Self {
        MapTilingOffByOne { tile: 8 }
    }
}

impl MapTilingOffByOne {
    pub fn new(tile: i64) -> Self {
        assert!(tile > 0);
        MapTilingOffByOne { tile }
    }

    fn rewrite(&self, sdfg: &Sdfg, m: &TransformationMatch) -> Result<MapRewrite, TransformError> {
        // BUG (seeded, from paper Fig. 2): `<=` comparison — one extra
        // iteration per tile, clamped to the global end so it never goes
        // out of bounds, only double-executes boundary iterations.
        tile_map(sdfg, m, self.tile, |tstart, tile, end| {
            (tstart + SymExpr::Int(tile + 1)).min(end)
        })
    }
}

impl Transformation for MapTilingOffByOne {
    fn name(&self) -> &'static str {
        "MapTilingOffByOne"
    }
    fn description(&self) -> &'static str {
        "Map tiling with an off-by-one inner bound (<= instead of <, Fig. 2)"
    }
    fn find_matches(&self, sdfg: &Sdfg) -> Vec<TransformationMatch> {
        find_tilable(sdfg)
    }
    fn apply(&self, sdfg: &mut Sdfg, m: &TransformationMatch) -> Result<ChangeSet, TransformError> {
        Ok(self.rewrite(sdfg, m)?.commit(sdfg))
    }
    fn changes(&self, sdfg: &Sdfg, m: &TransformationMatch) -> Result<ChangeSet, TransformError> {
        Ok(self.rewrite(sdfg, m)?.change_set())
    }
}

/// Buggy tiling without remainder handling: out of bounds whenever the
/// iteration count is not a multiple of the tile size (paper Sec. 2.1).
#[derive(Clone, Debug)]
pub struct MapTilingNoRemainder {
    pub tile: i64,
}

impl Default for MapTilingNoRemainder {
    fn default() -> Self {
        MapTilingNoRemainder { tile: 8 }
    }
}

impl MapTilingNoRemainder {
    pub fn new(tile: i64) -> Self {
        assert!(tile > 0);
        MapTilingNoRemainder { tile }
    }

    fn rewrite(&self, sdfg: &Sdfg, m: &TransformationMatch) -> Result<MapRewrite, TransformError> {
        // BUG (seeded, from paper Sec. 2.1): inner bound not clamped.
        tile_map(sdfg, m, self.tile, |tstart, tile, _end| {
            tstart + SymExpr::Int(tile)
        })
    }
}

impl Transformation for MapTilingNoRemainder {
    fn name(&self) -> &'static str {
        "MapTilingNoRemainder"
    }
    fn description(&self) -> &'static str {
        "Map tiling that assumes sizes divide the tile size (Sec. 2.1 bug)"
    }
    fn find_matches(&self, sdfg: &Sdfg) -> Vec<TransformationMatch> {
        find_tilable(sdfg)
    }
    fn apply(&self, sdfg: &mut Sdfg, m: &TransformationMatch) -> Result<ChangeSet, TransformError> {
        Ok(self.rewrite(sdfg, m)?.commit(sdfg))
    }
    fn changes(&self, sdfg: &Sdfg, m: &TransformationMatch) -> Result<ChangeSet, TransformError> {
        Ok(self.rewrite(sdfg, m)?.change_set())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzyflow_interp::{run, ArrayValue, ExecState};
    use fuzzyflow_ir::{
        sym, validate, DType, Memlet, ScalarExpr, SdfgBuilder, Subset, Tasklet, Wcr,
    };

    /// `s[0] += A[i]` over i in [0,N) — accumulation makes overlap visible.
    fn acc_program() -> Sdfg {
        let mut b = SdfgBuilder::new("acc");
        b.symbol("N");
        b.array("A", DType::F64, &["N"]);
        b.array("s", DType::F64, &["1"]);
        let st = b.start();
        b.in_state(st, |df| {
            let a = df.access("A");
            let s = df.access("s");
            let m = df.map(
                &["i"],
                vec![SymRange::full(sym("N"))],
                Schedule::Parallel,
                |body| {
                    let a = body.access("A");
                    let s = body.access("s");
                    let t = body.tasklet(Tasklet::simple("id", vec!["x"], "y", ScalarExpr::r("x")));
                    body.read(
                        a,
                        t,
                        Memlet::new("A", Subset::at(vec![sym("i")])).to_conn("x"),
                    );
                    body.write(
                        t,
                        s,
                        Memlet::new("s", Subset::at(vec![SymExpr::Int(0)]))
                            .from_conn("y")
                            .with_wcr(Wcr::Sum),
                    );
                },
            );
            df.auto_wire(m, &[a], &[s]);
        });
        b.build()
    }

    fn run_sum(p: &Sdfg, n: i64) -> Result<f64, fuzzyflow_interp::ExecError> {
        let mut st = ExecState::new();
        st.bind("N", n);
        let vals: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        st.set_array("A", ArrayValue::from_f64(vec![n], &vals));
        run(p, &mut st)?;
        Ok(st.array("s").unwrap().get(0).as_f64())
    }

    #[test]
    fn correct_tiling_preserves_semantics() {
        let p = acc_program();
        let t = MapTiling::new(4);
        let matches = t.find_matches(&p);
        assert_eq!(matches.len(), 1);
        let (tiled, changes) =
            crate::framework::apply_to_clone(&p, &t, &matches[0]).expect("applies");
        assert!(validate(&tiled).is_ok());
        assert_eq!(changes.nodes.len(), 1);
        for n in [4, 7, 8, 13] {
            assert_eq!(run_sum(&p, n).unwrap(), run_sum(&tiled, n).unwrap());
        }
    }

    #[test]
    fn off_by_one_changes_accumulation() {
        let p = acc_program();
        let t = MapTilingOffByOne::new(4);
        let m = &t.find_matches(&p)[0];
        let (tiled, _) = crate::framework::apply_to_clone(&p, &t, m).unwrap();
        assert!(validate(&tiled).is_ok());
        // N=8 with tile 4: iteration 4 runs in both tiles -> sum too large.
        let correct = run_sum(&p, 8).unwrap();
        let buggy = run_sum(&tiled, 8).unwrap();
        assert_ne!(correct, buggy);
        assert!(buggy > correct);
    }

    #[test]
    fn off_by_one_never_goes_oob() {
        let p = acc_program();
        let t = MapTilingOffByOne::new(4);
        let m = &t.find_matches(&p)[0];
        let (tiled, _) = crate::framework::apply_to_clone(&p, &t, m).unwrap();
        for n in [1, 3, 4, 5, 9, 16] {
            assert!(run_sum(&tiled, n).is_ok());
        }
    }

    #[test]
    fn no_remainder_crashes_on_nondivisible_sizes() {
        let p = acc_program();
        let t = MapTilingNoRemainder::new(4);
        let m = &t.find_matches(&p)[0];
        let (tiled, _) = crate::framework::apply_to_clone(&p, &t, m).unwrap();
        // Divisible size: identical results.
        assert_eq!(run_sum(&p, 8).unwrap(), run_sum(&tiled, 8).unwrap());
        // Non-divisible size: out of bounds.
        let err = run_sum(&tiled, 10).unwrap_err();
        assert!(err.is_crash());
    }

    #[test]
    fn tiled_map_not_rematched() {
        let p = acc_program();
        let t = MapTiling::new(4);
        let m = &t.find_matches(&p)[0];
        let (tiled, _) = crate::framework::apply_to_clone(&p, &t, m).unwrap();
        // The outer map now has stride 4, so it no longer matches.
        assert!(t.find_matches(&tiled).is_empty());
    }

    #[test]
    fn replay_on_missing_node_fails_gracefully() {
        let p = acc_program();
        let t = MapTiling::new(4);
        let m = TransformationMatch {
            site: MatchSite::Nodes {
                state: p.start,
                nodes: vec![fuzzyflow_graph::NodeId(99)],
            },
            description: "bogus".into(),
        };
        let mut clone = p.clone();
        assert!(matches!(
            t.apply(&mut clone, &m),
            Err(TransformError::MatchInvalid(_))
        ));
    }
}
