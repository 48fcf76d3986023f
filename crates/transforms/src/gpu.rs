//! GPU kernel extraction (the custom CLOUDSC transformation of paper
//! Sec. 6.4, Fig. 7 — 48 of 62 instances alter program semantics).

use crate::framework::{
    expect_map, rename_container, single_node, top_level_maps, ChangeSet, MatchSite,
    TransformError, Transformation, TransformationMatch,
};
use fuzzyflow_graph::NodeId;
use fuzzyflow_ir::{
    analysis, DataDesc, DfNode, LibraryNode, LibraryOp, Memlet, Schedule, Sdfg, StateId, Storage,
    Subset,
};

/// Extracts parallel maps as (simulated) GPU kernels: device buffers are
/// allocated for every container the kernel touches, the body is retargeted
/// to device memory, and host<->device copies are inserted around the
/// kernel.
///
/// **Seeded bug (Sec. 6.4, Fig. 7):** the pass "generates data copies for
/// the entire data containers touched by extracted GPU kernels, even if
/// the kernel only reads or writes a subset of the data". Containers that
/// are *written but never read* by the kernel are not copied to the device
/// first; the copy-back then transfers the whole container, overwriting
/// host elements outside the kernel's write subset with uninitialized
/// device memory (a deterministic garbage pattern in this simulation).
#[derive(Clone, Debug, Default)]
pub struct GpuKernelExtraction;

fn has_comm(df: &fuzzyflow_ir::Dataflow) -> bool {
    df.graph.node_ids().any(|n| match df.graph.node(n) {
        DfNode::Library(l) => l.op.is_comm(),
        DfNode::Map(m) => has_comm(&m.body),
        _ => false,
    })
}

impl Transformation for GpuKernelExtraction {
    fn name(&self) -> &'static str {
        "GpuKernelExtraction"
    }
    fn description(&self) -> &'static str {
        "Extracts parallel maps as GPU kernels with whole-container copies (Sec. 6.4: overwrites host data)"
    }

    fn find_matches(&self, sdfg: &Sdfg) -> Vec<TransformationMatch> {
        top_level_maps(sdfg)
            .into_iter()
            .filter(|&(st, n)| {
                let map = sdfg.state(st).df.graph.node(n).as_map().expect("map");
                if map.schedule != Schedule::Parallel || has_comm(&map.body) {
                    return false;
                }
                // All touched containers must be host memory.
                map.body.referenced_containers().iter().all(|c| {
                    sdfg.array(c)
                        .map(|d| d.storage == Storage::Host)
                        .unwrap_or(false)
                })
            })
            .map(|(state, node)| TransformationMatch {
                site: MatchSite::Nodes {
                    state,
                    nodes: vec![node],
                },
                description: format!("extract map {node} in state {state} as GPU kernel"),
            })
            .collect()
    }

    fn apply(&self, sdfg: &mut Sdfg, m: &TransformationMatch) -> Result<ChangeSet, TransformError> {
        let KernelPlan {
            state,
            node,
            touched,
            changes,
        } = plan_kernel(sdfg, m)?;
        let mut map = expect_map(sdfg, state, node)?.clone();

        // Device mirrors for every touched container.
        for x in &touched {
            let desc = sdfg.array(x).expect("planned");
            let mirror = DataDesc::array(desc.dtype, desc.shape.clone())
                .transient()
                .in_storage(Storage::Device);
            let gpu_name = format!("gpu_{x}");
            sdfg.arrays.entry(gpu_name.clone()).or_insert(mirror);
            rename_container(&mut map.body, x, &gpu_name);
        }
        map.schedule = Schedule::GpuKernel;

        let shapes: std::collections::BTreeMap<String, Vec<fuzzyflow_ir::SymExpr>> = touched
            .iter()
            .map(|x| (x.clone(), sdfg.array(x).expect("planned").shape.clone()))
            .collect();

        let df = &mut sdfg.states.node_mut(state).df;

        // Copy-in for every container the kernel READS. BUG (seeded):
        // write-only containers get no copy-in.
        let in_edges: Vec<_> = df.graph.in_edge_ids(node).to_vec();
        for e in in_edges {
            let memlet = df.graph.edge(e).clone();
            let x = memlet.data.clone();
            let gpu_name = format!("gpu_{x}");
            let full_x = Subset::full(&shapes[&x]);
            let src_access = df.graph.src(e);
            let copy = df.graph.add_node(DfNode::Library(LibraryNode {
                name: format!("copyin_{x}"),
                op: LibraryOp::Copy,
            }));
            let g_in = df.graph.add_node(DfNode::Access(gpu_name.clone()));
            // Whole-container host -> device copy.
            df.graph.add_edge(
                src_access,
                copy,
                Memlet::new(&x, full_x.clone()).to_conn("in"),
            );
            df.graph.add_edge(
                copy,
                g_in,
                Memlet::new(&gpu_name, full_x.clone()).from_conn("out"),
            );
            // Kernel reads from the device buffer (original subset).
            let mut kernel_memlet = memlet.clone();
            kernel_memlet.data = gpu_name.clone();
            df.graph.remove_edge(e);
            df.graph.add_edge(g_in, node, kernel_memlet);
        }

        // Copy-back for every container the kernel WRITES — the *entire*
        // container (BUG: unwritten elements carry device garbage).
        let out_edges: Vec<_> = df.graph.out_edge_ids(node).to_vec();
        for e in out_edges {
            let memlet = df.graph.edge(e).clone();
            let x = memlet.data.clone();
            let gpu_name = format!("gpu_{x}");
            let full_x = Subset::full(&shapes[&x]);
            let dst_access = df.graph.dst(e);
            let copy = df.graph.add_node(DfNode::Library(LibraryNode {
                name: format!("copyout_{x}"),
                op: LibraryOp::Copy,
            }));
            let g_out = df.graph.add_node(DfNode::Access(gpu_name.clone()));
            let mut kernel_memlet = memlet.clone();
            kernel_memlet.data = gpu_name.clone();
            df.graph.remove_edge(e);
            df.graph.add_edge(node, g_out, kernel_memlet);
            df.graph.add_edge(
                g_out,
                copy,
                Memlet::new(&gpu_name, full_x.clone()).to_conn("in"),
            );
            df.graph
                .add_edge(copy, dst_access, Memlet::new(&x, full_x).from_conn("out"));
        }

        *df.graph.node_mut(node) = DfNode::Map(map);
        Ok(changes)
    }

    fn changes(&self, sdfg: &Sdfg, m: &TransformationMatch) -> Result<ChangeSet, TransformError> {
        Ok(plan_kernel(sdfg, m)?.changes)
    }
}

/// What extracting one map as a kernel touches, read from the borrowed
/// program before anything is rewritten.
struct KernelPlan {
    state: StateId,
    node: NodeId,
    /// Host containers the kernel reads or writes (reads first), each
    /// declared in the program; each gets a device mirror.
    touched: Vec<String>,
    /// ΔT: the map, then the sources of its in-edges, then the
    /// destinations of its out-edges — the access nodes the copies attach to.
    changes: ChangeSet,
}

fn plan_kernel(sdfg: &Sdfg, m: &TransformationMatch) -> Result<KernelPlan, TransformError> {
    let (state, node) = single_node(m)?;
    expect_map(sdfg, state, node)?;
    let df = &sdfg.state(state).df;
    let sets = analysis::node_access_sets(df, node);
    let mut touched = sets.read_containers();
    for w in sets.written_containers() {
        if !touched.contains(&w) {
            touched.push(w);
        }
    }
    if let Some(x) = touched.iter().find(|x| sdfg.array(x).is_none()) {
        return Err(TransformError::MatchInvalid(format!(
            "unknown container '{x}'"
        )));
    }
    let g = &df.graph;
    let sources = g.in_edge_ids(node).iter().map(|&e| g.src(e));
    let sinks = g.out_edge_ids(node).iter().map(|&e| g.dst(e));
    let changes =
        ChangeSet::nodes_in_state(state, std::iter::once(node).chain(sources).chain(sinks));
    Ok(KernelPlan {
        state,
        node,
        touched,
        changes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::apply_to_clone;
    use fuzzyflow_interp::{run, ArrayValue, ExecState};
    use fuzzyflow_ir::{sym, validate, DType, ScalarExpr, SdfgBuilder, SymRange, Tasklet};

    /// Kernel writes B[0:K] of a container of size N (partial when K < N).
    fn program(partial: bool) -> Sdfg {
        let mut b = SdfgBuilder::new("gpu");
        b.symbol("N");
        b.symbol("K");
        b.array("A", DType::F64, &["N"]);
        b.array("B", DType::F64, &["N"]);
        let st = b.start();
        let bound = if partial { "K" } else { "N" };
        b.in_state(st, |df| {
            let a = df.access("A");
            let o = df.access("B");
            let m = df.map(
                &["i"],
                vec![SymRange::full(sym(bound))],
                Schedule::Parallel,
                |body| {
                    let a = body.access("A");
                    let o = body.access("B");
                    let t = body.tasklet(Tasklet::simple(
                        "sc",
                        vec!["x"],
                        "y",
                        ScalarExpr::r("x").mul(ScalarExpr::f64(2.0)),
                    ));
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
        b.build()
    }

    fn exec(p: &Sdfg, n: i64, k: i64, b_init: f64) -> Vec<f64> {
        let mut st = ExecState::new();
        st.bind("N", n).bind("K", k);
        let vals: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        st.set_array("A", ArrayValue::from_f64(vec![n], &vals));
        st.set_array(
            "B",
            ArrayValue::from_f64(vec![n], &vec![b_init; n as usize]),
        );
        run(p, &mut st).unwrap();
        st.array("B").unwrap().to_f64_vec()
    }

    #[test]
    fn extraction_validates_and_matches() {
        let p = program(true);
        let t = GpuKernelExtraction;
        let matches = t.find_matches(&p);
        assert_eq!(matches.len(), 1);
        let (gp, _) = apply_to_clone(&p, &t, &matches[0]).unwrap();
        assert!(validate(&gp).is_ok(), "{:?}", validate(&gp));
    }

    #[test]
    fn full_write_extraction_is_correct() {
        let p = program(false);
        let t = GpuKernelExtraction;
        let m = &t.find_matches(&p)[0];
        let (gp, _) = apply_to_clone(&p, &t, m).unwrap();
        assert_eq!(exec(&p, 6, 6, 7.0), exec(&gp, 6, 6, 7.0));
    }

    #[test]
    fn partial_write_overwrites_host_data_with_garbage() {
        // Fig. 7: the kernel writes B[0:K]; host B[K:N] holds prior data
        // (7.0) that the whole-container copy-back clobbers with garbage.
        let p = program(true);
        let t = GpuKernelExtraction;
        let m = &t.find_matches(&p)[0];
        let (gp, _) = apply_to_clone(&p, &t, m).unwrap();
        let good = exec(&p, 6, 3, 7.0);
        let bad = exec(&gp, 6, 3, 7.0);
        assert_eq!(good[..3], bad[..3], "kernel results intact");
        assert_ne!(
            good[3..],
            bad[3..],
            "host data beyond the write subset clobbered"
        );
        assert!(bad[3..].iter().all(|&v| v != 7.0));
    }

    #[test]
    fn gpu_maps_not_rematched() {
        let p = program(false);
        let t = GpuKernelExtraction;
        let m = &t.find_matches(&p)[0];
        let (gp, _) = apply_to_clone(&p, &t, m).unwrap();
        assert!(t.find_matches(&gp).is_empty());
    }

    #[test]
    fn change_set_spans_map_and_accesses() {
        let p = program(true);
        let t = GpuKernelExtraction;
        let m = &t.find_matches(&p)[0];
        let (_, changes) = apply_to_clone(&p, &t, m).unwrap();
        // The map, then its in-edge sources (A), then its out-edge
        // destinations (B): the order the cutout memo keys on.
        let df = &p.state(p.start).df;
        let (a, b) = (df.find_access("A").unwrap(), df.find_access("B").unwrap());
        let (state, map) = single_node(m).unwrap();
        assert_eq!(changes, ChangeSet::nodes_in_state(state, [map, a, b]));
        assert_eq!(t.changes(&p, m), Ok(changes));
    }
}
