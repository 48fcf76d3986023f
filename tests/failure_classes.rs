//! Integration: every failure class of Table 2 flows through the full
//! pipeline (change set → cutout → min-cut → differential fuzzing) and is
//! classified correctly, while correct passes never raise false alarms.

use fuzzyflow::prelude::*;
use fuzzyflow::{verify_instance, VerifyConfig};

fn cfg() -> VerifyConfig {
    VerifyConfig::new()
        .with_trials(60)
        .with_size_max(12)
        .with_seed(0xCAFE)
}

fn first_verdict(program: &fuzzyflow::ir::Sdfg, t: &dyn Transformation, idx: usize) -> Verdict {
    let matches = t.find_matches(program);
    assert!(
        matches.len() > idx,
        "{} has only {} matches",
        t.name(),
        matches.len()
    );
    verify_instance(program, t, &matches[idx], &cfg())
        .unwrap_or_else(|e| panic!("pipeline failed for {}: {e}", t.name()))
        .verdict
}

#[test]
fn semantic_change_class_off_by_one_tiling() {
    let p = fuzzyflow::workloads::matmul_chain();
    let v = first_verdict(&p, &MapTilingOffByOne::new(4), 1);
    assert!(matches!(v, Verdict::SemanticChange { .. }), "{v:?}");
}

#[test]
fn crash_class_no_remainder_tiling() {
    let p = fuzzyflow::workloads::matmul_chain();
    let v = first_verdict(&p, &MapTilingNoRemainder::new(4), 0);
    assert!(matches!(v, Verdict::Crash { .. }), "{v:?}");
}

#[test]
fn input_dependent_class_vectorization() {
    // Correct for divisible sizes; the fuzzer must find a non-divisible
    // one. With size_max 12 and width 4, 3/4 of sampled sizes crash.
    let p = fuzzyflow::workloads::mha_encoder();
    let v = first_verdict(&p, &Vectorization::new(4), 0);
    assert!(v.is_fault(), "{v:?}");
}

#[test]
fn invalid_code_class_map_expansion() {
    // The MHA scale nest has a broadcast scalar operand — the expansion
    // bug drops its memlet, leaving a dangling connector.
    let p = fuzzyflow::workloads::mha_encoder();
    let t = fuzzyflow::transforms::MapExpansion;
    let v = first_verdict(&p, &t, 0);
    assert!(matches!(v, Verdict::InvalidCode { .. }), "{v:?}");
}

#[test]
fn correct_passes_produce_no_false_positives() {
    let p = fuzzyflow::workloads::matmul_chain();
    for t in [&MapTiling::new(4) as &dyn Transformation] {
        for (i, _) in t.find_matches(&p).iter().enumerate() {
            let v = first_verdict(&p, t, i);
            assert!(
                matches!(v, Verdict::Equivalent { .. }),
                "{} instance {i}: {v:?}",
                t.name()
            );
        }
    }
}

#[test]
fn gpu_extraction_fig7_flow() {
    // Fig. 7: whole-container copy-back clobbers host data — detected with
    // the deterministic garbage pattern in one or two trials.
    let p = fuzzyflow::workloads::cloudsc_like();
    let t = GpuKernelExtraction;
    let matches = t.find_matches(&p);
    // The condensation adjustment (first interior-write stage).
    let m = matches
        .iter()
        .find(|m| m.description.contains("state n1 "))
        .or(matches.get(1))
        .expect("instances exist");
    let report = verify_instance(&p, &t, m, &cfg()).unwrap();
    assert!(report.verdict.is_fault(), "{:?}", report.verdict);
    assert!(
        report.trials_to_detection.unwrap() <= 2,
        "paper: 1-2 trials"
    );
}

#[test]
fn hang_class_detected_via_step_limit() {
    // A transformation that breaks loop termination -> hang verdict.
    // Simulated directly: a cutout pair where the "transformed" version
    // spins forever.
    use fuzzyflow::cutout::{extract_cutout, SideEffectContext};
    use fuzzyflow::ir::{InterstateEdge, SdfgBuilder};
    use fuzzyflow_transforms::ChangeSet;

    let mut b = SdfgBuilder::new("loopy");
    b.symbol("N");
    b.scalar("acc", fuzzyflow::ir::DType::F64);
    let lh = b.for_loop(
        b.start(),
        "i",
        fuzzyflow::ir::SymExpr::Int(0),
        fuzzyflow::ir::sym("N"),
        1,
        "l",
    );
    b.in_state(lh.body, |df| {
        let a_in = df.access("acc");
        let a_out = df.access("acc");
        let t = df.tasklet(fuzzyflow::ir::Tasklet::simple(
            "inc",
            vec!["v"],
            "o",
            fuzzyflow::ir::ScalarExpr::r("v").add(fuzzyflow::ir::ScalarExpr::f64(1.0)),
        ));
        df.read(
            a_in,
            t,
            fuzzyflow::ir::Memlet::new("acc", fuzzyflow::ir::Subset::new(vec![])).to_conn("v"),
        );
        df.write(
            t,
            a_out,
            fuzzyflow::ir::Memlet::new("acc", fuzzyflow::ir::Subset::new(vec![])).from_conn("o"),
        );
    });
    let p = b.build();
    let ctx = SideEffectContext::with_size_symbols(&p.free_symbols(), 16);
    let cutout = extract_cutout(&p, &ChangeSet::of_states(vec![lh.guard, lh.body]), &ctx).unwrap();
    // "Transformed": drop the loop increment -> infinite loop.
    let mut broken = cutout.sdfg.clone();
    let back = broken
        .states
        .edge_ids()
        .find(|&e| {
            !broken.states.edge(e).assignments.is_empty()
                && broken.states.edge(e).assignments[0].1.references("i")
        })
        .expect("back edge");
    *broken.states.edge_mut(back) = InterstateEdge::always();
    let constraints = fuzzyflow_fuzz::derive_constraints(&cutout, &p);
    let tester = DiffTester {
        trials: 5,
        seed: 1,
        max_steps: 50_000,
        ..Default::default()
    };
    let report = tester.test_compiled(
        fuzzyflow::pool::WorkerPool::global(),
        &cutout,
        &Program::compile(&cutout.sdfg),
        &Program::compile(&broken),
        &constraints,
        &fuzzyflow_fuzz::ArenaStash::new(),
        None,
    );
    assert!(
        matches!(report.verdict, Verdict::Hang { .. }),
        "{:?}",
        report.verdict
    );
}

#[test]
fn failing_cases_replay_bit_exactly() {
    let p = fuzzyflow::workloads::matmul_chain();
    let t = MapTilingOffByOne::new(4);
    let matches = t.find_matches(&p);
    let report = verify_instance(&p, &t, &matches[1], &cfg()).unwrap();
    let Verdict::SemanticChange { case, .. } = &report.verdict else {
        panic!("expected semantic change: {:?}", report.verdict);
    };
    let reparsed = TestCase::from_json(&case.to_json()).unwrap();
    assert_eq!(reparsed.state, case.state, "bit-exact round trip");
}

/// `B[i + off] = A[i]` over `i < N`, then `k = N - 1 + k_off` on the edge
/// into an empty state, then a later state reading `A[k]` — so `k` is a
/// symbol side effect of the first two states.
fn copy_then_assign(off: i64, k_off: i64) -> (fuzzyflow::ir::Sdfg, Vec<fuzzyflow::ir::StateId>) {
    use fuzzyflow::ir::{
        sym, InterstateEdge, Memlet, ScalarExpr, Schedule, Subset, SymExpr, SymRange, Tasklet,
    };
    let copy = |df: &mut fuzzyflow::ir::DataflowBuilder, src: SymExpr, dst: (&str, SymExpr)| {
        let (a, o) = (df.access("A"), df.access(dst.0));
        let t = df.tasklet(Tasklet::simple("cp", vec!["x"], "y", ScalarExpr::r("x")));
        df.read(a, t, Memlet::new("A", Subset::at(vec![src])).to_conn("x"));
        df.write(
            t,
            o,
            Memlet::new(dst.0, Subset::at(vec![dst.1])).from_conn("y"),
        );
    };
    let mut b = SdfgBuilder::new("copy_then_assign");
    b.symbol("N");
    b.array("A", DType::F64, &["N"]);
    b.array("B", DType::F64, &["N"]);
    b.array("C", DType::F64, &["1"]);
    let start = b.start();
    b.in_state(start, |df| {
        let (a, o) = (df.access("A"), df.access("B"));
        let m = df.map(
            &["i"],
            vec![SymRange::full(sym("N"))],
            Schedule::Parallel,
            |body| copy(body, sym("i"), ("B", sym("i") + SymExpr::Int(off))),
        );
        df.auto_wire(m, &[a], &[o]);
    });
    let mid = b.add_state("mid");
    let k = sym("N") + SymExpr::Int(k_off - 1);
    b.edge(start, mid, InterstateEdge::always().assign("k", k));
    let last = b.add_state_after(mid, "last");
    b.in_state(last, |df| copy(df, sym("k"), ("C", SymExpr::Int(0))));
    (b.build(), vec![start, mid])
}

/// One oracle: on a pair whose only divergence is an inter-state symbol
/// assignment, and on an out-of-bounds crash pair, the one-shot trial
/// loop, `replay_on` of every captured input, the evolutionary loop's
/// first fault and the coverage-guided baseline all classify alike —
/// same label, error kind, container and failure text.
#[test]
fn all_fuzzing_loops_agree_on_symbol_state_and_crash_faults() {
    use fuzzyflow::evo::EvolutionFuzzer;
    use fuzzyflow_fuzz::{derive_constraints, failure_text, ArenaStash, CaseOutcome};
    use fuzzyflow_transforms::ChangeSet;

    let (program, region) = copy_then_assign(0, 0);
    let ctx = SideEffectContext::with_size_symbols(&program.free_symbols(), 16);
    let cutout = extract_cutout(&program, &ChangeSet::of_states(region.clone()), &ctx).unwrap();
    assert_eq!(cutout.symbol_state, ["k"], "k is read downstream");
    let constraints = derive_constraints(&cutout, &program);
    let orig = Program::compile(&cutout.sdfg);
    let seed = Bindings::from_pairs([("N", 4)]);

    // (transformed variant, label, kind, container, failure text if it
    // does not depend on the input)
    let cases = [
        (
            copy_then_assign(0, 1),
            ("semantic change", "symbol-change", "k"),
            Some("symbol state change: 'k'"),
        ),
        (
            copy_then_assign(1, 0),
            ("crash", "out-of-bounds", "B"),
            None,
        ),
    ];
    for ((variant, _), expected, text) in cases {
        let transformed = extract_cutout(&variant, &ChangeSet::of_states(region.clone()), &ctx)
            .unwrap()
            .sdfg;
        let trans = Program::compile(&transformed);
        let tester = DiffTester {
            trials: 10,
            ..Default::default()
        };
        let (mut oe, mut te) = (orig.executor(), trans.executor());
        // Replays a reported fault and checks the report against it.
        let mut check = |who: &str, label: &str, case: &TestCase| {
            let replay = tester.replay_on(&cutout, &case.state, &mut oe, &mut te);
            assert_eq!(label, replay.label(), "{who}: label");
            assert_eq!(case.failure, failure_text(&replay), "{who}: failure text");
            assert_eq!(
                (replay.label(), replay.kind(), replay.container()),
                (expected.0, expected.1, Some(expected.2)),
                "{who}: {replay:?}"
            );
            if let Some(text) = text {
                assert_eq!(case.failure, text, "{who}");
            }
        };
        let case_of = |v: &Verdict| match v {
            Verdict::SemanticChange { case, .. } | Verdict::Crash { case, .. } => case.clone(),
            other => panic!("expected a fault with a captured case, got {other:?}"),
        };

        let one_shot = tester
            .test_compiled(
                fuzzyflow::pool::WorkerPool::global(),
                &cutout,
                &orig,
                &trans,
                &constraints,
                &ArenaStash::new(),
                None,
            )
            .verdict;
        check("trial loop", one_shot.label(), &case_of(&one_shot));

        let evolved = EvolutionFuzzer {
            trials: 20,
            max_faults: 1,
            ..Default::default()
        }
        .evolve(
            &cutout,
            &orig,
            &trans,
            &constraints,
            &seed,
            None,
            &mut |_| {},
        );
        let first = evolved.first_fault.expect("evolution finds the fault");
        assert!(!matches!(first.outcome, CaseOutcome::Pass));
        let case = TestCase::capture("evolve", &failure_text(&first.outcome), &first.state);
        check("evolve", first.outcome.label(), &case);

        let covered = CoverageFuzzer {
            max_trials: 50,
            ..Default::default()
        }
        .run(&cutout, &transformed, &seed)
        .verdict;
        check("coverage fuzzer", covered.label(), &case_of(&covered));
    }
}

/// Both sources that keep coverage — evo's corpus and the byte-level
/// baseline — count each edge they hit once: `edges_seen` equals the
/// number of edges with hits when the campaign ends at a fault, and when
/// the original cutout rejects the seed input and every draw after it.
/// (The gray-box random source runs uninstrumented and keeps none.)
#[test]
fn coverage_sources_count_every_edge_they_hit() {
    use fuzzyflow::evo::EvolutionFuzzer;
    use fuzzyflow_fuzz::derive_constraints;
    use fuzzyflow_transforms::ChangeSet;

    // `off = 1` stores one element past the end of `B` on every input.
    let [(sound_program, region), (oob_program, _)] = [0, 1].map(|off| copy_then_assign(off, 0));
    let ctx = SideEffectContext::with_size_symbols(&sound_program.free_symbols(), 16);
    let cut = |p: &fuzzyflow::ir::Sdfg| {
        extract_cutout(p, &ChangeSet::of_states(region.clone()), &ctx).unwrap()
    };
    let (sound, oob) = (cut(&sound_program), cut(&oob_program));
    let seed = Bindings::from_pairs([("N", 4)]);
    let pairs = [
        (&sound, &sound_program, &oob, "faulting transformed cutout"),
        (&oob, &oob_program, &sound, "original rejects every input"),
    ];
    for (original, program, transformed, case) in pairs {
        let bytes = CoverageFuzzer {
            max_trials: 50,
            ..Default::default()
        }
        .run(original, &transformed.sdfg, &seed);
        assert!(
            bytes.edges_seen > 0,
            "{case}: the byte-level runs hit no edge"
        );
        assert_eq!(
            bytes.edges_seen,
            bytes.edge_hits.len(),
            "{case}: byte-level"
        );

        let constraints = derive_constraints(original, program);
        let (orig, trans) = (
            Program::compile(&original.sdfg),
            Program::compile(&transformed.sdfg),
        );
        let evolved = EvolutionFuzzer {
            trials: 50,
            ..Default::default()
        }
        .evolve(
            original,
            &orig,
            &trans,
            &constraints,
            &seed,
            None,
            &mut |_| {},
        );
        assert!(evolved.edges_seen > 0, "{case}: evolution hit no edge");
        assert_eq!(
            evolved.edges_seen,
            evolved.edge_hits.len(),
            "{case}: evolution"
        );
        let rejected = std::ptr::eq(original, &oob);
        assert_eq!(evolved.seed_rejected, rejected, "{case}");
        assert_eq!(
            bytes.verdict.is_fault(),
            !rejected,
            "{case}: {:?}",
            bytes.verdict
        );
    }
}
