//! A cutout taken through a shared, already-used [`ProgramAnalysis`] is
//! the cutout the standalone stage functions produce: over every
//! instance of the Table-2 set, extraction, the min input-flow cut and
//! the derived constraints agree field by field. The shared analysis has
//! by then served every earlier instance of its program, so anything it
//! kept that depended on a previous change set would show here.

use fuzzyflow::cutout::{
    extract_cutout, minimize_input_configuration, Cutout, MinCutOutcome, ProgramAnalysis,
    SideEffectContext,
};
use fuzzyflow::fuzz::{derive_constraints, derive_constraints_with_loops};
use fuzzyflow::transforms::apply_to_clone;
use fuzzyflow::workloads;

mod common;
use common::{table2_passes, table2_programs};

const SIZE_MAX: i64 = 10;

fn assert_same_cutout(a: &Cutout, b: &Cutout, what: &str) {
    assert_eq!(
        format!("{:?}", a.sdfg),
        format!("{:?}", b.sdfg),
        "{what}: sdfg"
    );
    assert_eq!(a.input_config, b.input_config, "{what}: input_config");
    assert_eq!(a.input_symbols, b.input_symbols, "{what}: input_symbols");
    assert_eq!(a.system_state, b.system_state, "{what}: system_state");
    assert_eq!(a.symbol_state, b.symbol_state, "{what}: symbol_state");
    assert_eq!(a.node_map, b.node_map, "{what}: node_map");
    assert_eq!(a.state_map, b.state_map, "{what}: state_map");
    assert_eq!(a.main_state, b.main_state, "{what}: main_state");
    assert_eq!(a.stats, b.stats, "{what}: stats");
}

fn assert_same_outcome(a: &MinCutOutcome, b: &MinCutOutcome, what: &str) {
    assert_eq!(a.added_nodes, b.added_nodes, "{what}: added_nodes");
    assert_eq!(a.volume_before, b.volume_before, "{what}: volume_before");
    assert_eq!(a.volume_after, b.volume_after, "{what}: volume_after");
    assert_eq!(
        a.cut_value.to_bits(),
        b.cut_value.to_bits(),
        "{what}: cut_value"
    );
}

#[test]
fn shared_analysis_matches_the_standalone_stage_functions() {
    let passes = table2_passes();
    let (mut instances, mut extracted) = (0, 0);
    for (name, program, bindings) in table2_programs() {
        let ctx = SideEffectContext::with_size_symbols(&program.free_symbols(), SIZE_MAX);
        let analysis = ProgramAnalysis::new(&program, SIZE_MAX);
        for t in &passes {
            for m in t.find_matches(&program) {
                instances += 1;
                let what = format!("{name} × {} @ {}", t.name(), m.description);
                let Ok((_, changes)) = apply_to_clone(&program, t.as_ref(), &m) else {
                    continue;
                };
                let alone = extract_cutout(&program, &changes, &ctx);
                let shared = analysis.extract_cutout(&changes);
                let (alone, shared) = match (alone, shared) {
                    (Ok(a), Ok(s)) => (a, s),
                    (Err(a), Err(s)) => {
                        assert_eq!(a, s, "{what}: extraction error");
                        continue;
                    }
                    (a, s) => panic!("{what}: {:?} vs {:?}", a.err(), s.err()),
                };
                extracted += 1;
                assert_same_cutout(&alone, &shared, &what);

                let (alone, alone_cut) =
                    minimize_input_configuration(&program, alone, &ctx, &bindings);
                let (shared, shared_cut) = analysis.minimize_input_configuration(shared, &bindings);
                assert_same_cutout(&alone, &shared, &format!("{what} (minimized)"));
                assert_same_outcome(&alone_cut, &shared_cut, &what);

                let alone = derive_constraints(&alone, &program);
                let shared = derive_constraints_with_loops(&shared, analysis.loops());
                assert_eq!(alone.roles, shared.roles, "{what}: constraint roles");
                assert_eq!(alone.custom, shared.custom, "{what}: custom constraints");
            }
        }
        assert_eq!(
            analysis.program_nodes(),
            program
                .states
                .node_ids()
                .map(|s| program.state(s).df.deep_node_count())
                .sum::<usize>(),
            "{name}: program node count"
        );
    }
    // The benchmark's Table-2 campaign: 489 instances; nearly all extract.
    assert_eq!(instances, 489, "the Table-2 instance set changed");
    assert!(extracted > 400, "only {extracted} instances extracted");
}

/// One analysis serves concurrent instances: eight threads cutting
/// `cloudsc_like` from a single fresh analysis — each starting at a
/// different instance, so they fill its states in different orders and
/// collide on some — get the cutouts a thread of its own would.
#[test]
fn one_analysis_serves_concurrent_extractions() {
    let program = workloads::cloudsc_like();
    let ctx = SideEffectContext::with_size_symbols(&program.free_symbols(), SIZE_MAX);
    let passes = table2_passes();
    let mut cases = Vec::new();
    for t in &passes {
        for m in t.find_matches(&program) {
            if let Ok((_, changes)) = apply_to_clone(&program, t.as_ref(), &m) {
                let alone = extract_cutout(&program, &changes, &ctx).map(|c| format!("{c:?}"));
                cases.push((changes, alone));
            }
        }
    }
    assert!(cases.len() > 100, "{} instances", cases.len());

    let analysis = ProgramAnalysis::new(&program, SIZE_MAX);
    let go = std::sync::Barrier::new(8);
    std::thread::scope(|s| {
        for k in 0..8 {
            let (analysis, cases, go) = (&analysis, &cases, &go);
            s.spawn(move || {
                go.wait();
                for i in 0..cases.len() {
                    let (changes, alone) = &cases[(i + k * cases.len() / 8) % cases.len()];
                    let shared = analysis.extract_cutout(changes).map(|c| format!("{c:?}"));
                    assert!(&shared == alone, "thread {k}: instance {i} diverged");
                }
            });
        }
    });
}
