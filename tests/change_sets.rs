//! White-box change sets: `Transformation::changes` reports exactly what
//! `apply` on a copy of the program returns — the same change set in the
//! same order (the cutout memo keys on it), or the same error — on every
//! Table-2 instance, and on bad matches for the passes that compute it
//! without applying.

mod common;

use fuzzyflow::graph::NodeId;
use fuzzyflow::ir::{DfNode, Sdfg};
use fuzzyflow::transforms::{
    apply_to_clone, GpuKernelExtraction, MatchSite, TransformError, Transformation,
    TransformationMatch,
};

/// The passes that override `changes` instead of applying to a clone.
const WHITE_BOX: [&str; 7] = [
    "MapTiling",
    "MapTilingOffByOne",
    "MapTilingNoRemainder",
    "GpuKernelExtraction",
    "MapExpansion",
    "Vectorization",
    "MapCollapse",
];

fn assert_agrees(
    p: &Sdfg,
    t: &dyn Transformation,
    m: &TransformationMatch,
) -> Result<(), TransformError> {
    let applied = apply_to_clone(p, t, m).map(|(_, changes)| changes);
    assert_eq!(
        t.changes(p, m),
        applied,
        "{} @ {} on {}",
        t.name(),
        m.description,
        p.name
    );
    applied.map(drop)
}

#[test]
fn changes_agree_with_apply_on_every_table2_instance() {
    let passes = common::table2_passes();
    let mut instances = 0;
    for (_, p, _) in common::table2_programs() {
        for t in &passes {
            for m in t.find_matches(&p) {
                // Matched instances of some passes fail to apply; the
                // error must agree too.
                let _ = assert_agrees(&p, t.as_ref(), &m);
                instances += 1;
            }
        }
    }
    assert_eq!(instances, 489, "the Table-2 instance set moved");
}

#[test]
fn changes_agree_with_apply_on_bad_matches() {
    let passes = common::table2_passes();
    let programs = common::table2_programs();
    let white_box: Vec<_> = passes
        .iter()
        .filter(|t| WHITE_BOX.contains(&t.name()))
        .collect();
    assert_eq!(white_box.len(), WHITE_BOX.len());
    for t in white_box {
        let (p, m) = programs
            .iter()
            .find_map(|(_, p, _)| t.find_matches(p).into_iter().next().map(|m| (p, m)))
            .expect("every white-box pass matches some Table-2 program");
        let MatchSite::Nodes { state, .. } = m.site else {
            panic!("{} matches a map node", t.name());
        };
        let g = &p.state(state).df.graph;
        let access = g
            .node_ids()
            .find(|&n| matches!(g.node(n), DfNode::Access(_)))
            .expect("the matched state has an access node");
        for site in [
            MatchSite::Loop { guard: state },
            MatchSite::Nodes {
                state,
                nodes: vec![access],
            },
            MatchSite::Nodes {
                state,
                nodes: vec![NodeId(u32::MAX)],
            },
        ] {
            let bad = TransformationMatch {
                description: format!("{site:?}"),
                site,
            };
            assert!(assert_agrees(p, t.as_ref(), &bad).is_err());
        }
    }

    // GPU kernel extraction of a map that touches an undeclared container.
    let gpu = GpuKernelExtraction;
    let mut checked = 0;
    for (_, p, _) in &programs {
        for m in gpu.find_matches(p) {
            let MatchSite::Nodes { state, ref nodes } = m.site else {
                panic!("GPU extraction matches a map node");
            };
            let g = &p.state(state).df.graph;
            let edge = g.in_edge_ids(nodes[0]).iter().next().copied();
            let Some(edge) = edge else { continue };
            let mut q = p.clone();
            let container = g.edge(edge).data.clone();
            q.arrays.remove(&container);
            assert_eq!(
                assert_agrees(&q, &gpu, &m),
                Err(TransformError::MatchInvalid(format!(
                    "unknown container '{container}'"
                )))
            );
            checked += 1;
        }
    }
    assert!(checked > 0);
}
