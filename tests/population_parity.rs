//! Engine parity on the population the tool runs, for library nodes: the
//! Table-2 instances whose cutout or transformed cutout holds a library
//! node, plus the MHA tiling of map `n6` and every `matmul_chain`
//! instance at sizes 28..=32 (where the library nodes' f64 slot kernels
//! and the fused map kernels see realistic shapes).
//!
//! Each instance is prepared with the public stage functions in the order
//! the session uses them (apply to a clone → side-effect context →
//! extract → min-cut → re-find → replay on the cutout → constraints).
//! Trial `k` (1..=4) draws its input from the campaign's stream
//! `rng_split(48879, k)`: the first sample the original cutout accepts,
//! or the last one drawn. Both cutouts then run on the tree walk and on
//! the compiled `Program` (default options, and with the JIT off), and
//! the result or error, the symbols and every container must agree bit
//! for bit.

mod common;

use fuzzyflow::cutout::{
    extract_cutout, minimize_input_configuration, refind_match, Cutout, SideEffectContext,
};
use fuzzyflow::fuzz::{
    derive_constraints, rng_split, sample_state, Constraints, SymbolRole, ValueProfile, Xoshiro256,
};
use fuzzyflow::interp::{run_with_tree_walk, ExecOptions, ExecState, Program};
use fuzzyflow::ir::{validate, Bindings, Dataflow, DfNode, Sdfg};
use fuzzyflow::transforms::{apply_to_clone, Transformation, TransformationMatch};

/// The campaign's step and resampling budgets, and its Table-2 sizes.
const MAX_STEPS: u64 = 20_000_000;
const MAX_RESAMPLES: usize = 200;
const TABLE2_SIZE_MAX: i64 = 10;

/// One prepared instance: its cutout, its transformed cutout (absent when
/// that fails validation, so no run happens), and its constraints.
struct Instance {
    label: String,
    cutout: Cutout,
    transformed: Option<Sdfg>,
    constraints: Constraints,
}

/// Prepares one instance as the benchmark's traced replay does; `None`
/// is a pipeline error. With `sizes`, every size symbol is constrained
/// to that inclusive range.
fn prepare(
    (name, sdfg, bindings): &(&str, Sdfg, Bindings),
    t: &dyn Transformation,
    m: &TransformationMatch,
    size_max: i64,
    sizes: Option<(i64, i64)>,
) -> Option<Instance> {
    let (_, changes) = apply_to_clone(sdfg, t, m).ok()?;
    let ctx = SideEffectContext::with_size_symbols(&sdfg.free_symbols(), size_max);
    let cutout = extract_cutout(sdfg, &changes, &ctx).ok()?;
    let (cutout, _) = minimize_input_configuration(sdfg, cutout, &ctx, bindings);
    let translated = refind_match(&cutout, t, m).ok()?;
    let mut transformed = cutout.sdfg.clone();
    t.apply(&mut transformed, &translated).ok()?;
    let mut constraints = derive_constraints(&cutout, sdfg);
    if let Some((lo, hi)) = sizes {
        let size_syms: Vec<String> = constraints
            .roles
            .iter()
            .filter(|(_, role)| **role == SymbolRole::Size)
            .map(|(s, _)| s.clone())
            .collect();
        for s in size_syms {
            constraints.constrain(s, lo, hi);
        }
    }
    Some(Instance {
        label: format!("{name} x {} ({})", t.name(), m.description),
        transformed: validate(&transformed).is_ok().then_some(transformed),
        cutout,
        constraints,
    })
}

/// True when any dataflow graph of `sdfg`, map bodies included, holds a
/// library node.
fn holds_library_node(sdfg: &Sdfg) -> bool {
    fn in_df(df: &Dataflow) -> bool {
        df.graph.node_ids().any(|n| match df.graph.node(n) {
            DfNode::Library(_) => true,
            DfNode::Map(m) => in_df(&m.body),
            _ => false,
        })
    }
    sdfg.states.node_ids().any(|s| in_df(&sdfg.state(s).df))
}

/// Every instance of the population, with its `ValueProfile`.
fn population() -> Vec<(Instance, ValueProfile)> {
    let profile = |size_max| ValueProfile {
        size_max,
        ..ValueProfile::default()
    };
    let mut out = Vec::new();
    for program in common::table2_programs() {
        for t in common::table2_passes() {
            for m in t.find_matches(&program.1) {
                let large = program.0 == "matmul_chain"
                    || (program.0 == "mha_encoder"
                        && t.name() == "MapTiling"
                        && m.description.starts_with("map n6 "));
                if large {
                    if let Some(inst) = prepare(&program, t.as_ref(), &m, 32, Some((28, 32))) {
                        out.push((inst, profile(32)));
                    }
                }
                let Some(inst) = prepare(&program, t.as_ref(), &m, TABLE2_SIZE_MAX, None) else {
                    continue;
                };
                let transformed_holds = inst.transformed.as_ref().is_some_and(holds_library_node);
                if holds_library_node(&inst.cutout.sdfg) || transformed_holds {
                    out.push((inst, profile(TABLE2_SIZE_MAX)));
                }
            }
        }
    }
    out
}

/// Runs `sdfg` on `input` with the tree walk and the compiled engine (JIT
/// on and off) and returns how the compiled runs differ from the tree
/// walk's, if they do.
fn disagreement(sdfg: &Sdfg, input: &ExecState) -> Option<String> {
    let opts = ExecOptions {
        max_steps: MAX_STEPS,
        ..ExecOptions::default()
    };
    let mut want = input.clone();
    let want_res = run_with_tree_walk(sdfg, &mut want, &opts, None, None);
    let program = Program::compile(sdfg);
    for jit in [true, false] {
        let opts = ExecOptions {
            jit,
            ..opts.clone()
        };
        let mut got = input.clone();
        let got_res = program.run_with(&mut got, &opts, None, None);
        let diff = if got_res != want_res {
            Some(format!("result {got_res:?}, tree walk {want_res:?}"))
        } else if got.symbols != want.symbols {
            Some("symbols".to_string())
        } else if !got.arrays.keys().eq(want.arrays.keys()) {
            Some("container set".to_string())
        } else {
            want.arrays
                .iter()
                .find(|(name, a)| a.first_mismatch(&got.arrays[*name], 0.0).is_some())
                .map(|(name, _)| format!("container '{name}'"))
        };
        if let Some(diff) = diff {
            return Some(format!("jit {jit}: {diff}"));
        }
    }
    None
}

#[test]
fn library_node_population_executes_identically_on_both_engines() {
    let population = population();
    let opts = ExecOptions {
        max_steps: MAX_STEPS,
        ..ExecOptions::default()
    };
    let mut disagreements = Vec::new();
    let mut runs = 0usize;
    for (inst, profile) in &population {
        let original = Program::compile(&inst.cutout.sdfg);
        for k in 1..=4u64 {
            let mut rng = Xoshiro256::seed_from(rng_split(48879, k));
            let mut input = None;
            for _ in 0..=MAX_RESAMPLES {
                let Some(candidate) =
                    sample_state(&inst.cutout, &inst.constraints, profile, &mut rng)
                else {
                    continue;
                };
                let mut probe = candidate.clone();
                let accepted = original.run_with(&mut probe, &opts, None, None).is_ok();
                input = Some(candidate);
                if accepted {
                    break;
                }
            }
            let Some(input) = input else { continue };
            let sdfgs = [Some(&inst.cutout.sdfg), inst.transformed.as_ref()];
            for (role, sdfg) in ["original", "transformed"].iter().zip(sdfgs) {
                let Some(sdfg) = sdfg else { continue };
                runs += 1;
                if let Some(d) = disagreement(sdfg, &input) {
                    disagreements.push(format!("{}: trial {k}, {role} cutout: {d}", inst.label));
                }
            }
        }
    }
    println!(
        "{} instances, {runs} runs per engine, {} disagreements",
        population.len(),
        disagreements.len()
    );
    assert!(
        population
            .iter()
            .any(|(i, _)| i.label.starts_with("mha_encoder x MapTiling (map n6 ")),
        "the MHA tiling of map n6 is in the population"
    );
    assert!(disagreements.is_empty(), "{disagreements:#?}");
}
