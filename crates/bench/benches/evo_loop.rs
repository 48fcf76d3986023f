//! Evolutionary campaign loop: coverage-guided corpus evolution vs
//! blind constraint-derived sampling, plus bisection-based fault
//! deduplication.
//!
//! Two seeded-fault experiments, both asserted (they are acceptance
//! bars, not just measurements):
//!
//! 1. **Guard staircase.** A bug hidden behind a conjunction of three
//!    symbol guards (`M > 22 && L > 22 && K > 22`, each symbol sampled
//!    from `0..=24`). Blind sampling must jackpot the three-way
//!    conjunction (~1 in 2000 per trial); the evolutionary loop starts
//!    from a seed just below the guards, gets a novel-coverage signal
//!    every time a nudge crosses one state guard, and climbs the
//!    staircase one admitted corpus entry at a time. The evolved loop
//!    must reach the fault in at least 2x fewer trials than blind
//!    sampling's budget-or-detection.
//!
//! 2. **Triage dedup.** Vectorization's lane-remainder bug found over
//!    and over by different mutation lineages (nudges and resizes of
//!    `N`); bisection triage must collapse >= 10 collected duplicate
//!    faults into <= 2 buckets.
//!
//! Results land in `BENCH_evo.json`.

use criterion::Criterion;
use fuzzyflow::evo::EvolutionFuzzer;
use fuzzyflow::ir::{
    sym, CondExpr, DfNode, InterstateEdge, Memlet, ScalarExpr, Schedule, Sdfg, SdfgBuilder,
    StateId, Subset, SymCmpOp, SymExpr, SymRange, Tasklet,
};
use fuzzyflow::prelude::*;
use fuzzyflow::transforms::{ChangeSet, MatchSite, TransformError, TransformationMatch};
use fuzzyflow_bench::{prepare_pair, row, write_bench_record};
use fuzzyflow_fuzz::ValueProfile;

const TRIAL_BUDGET: usize = 600;

/// A simple scaled copy in every state, with the interesting compute
/// locked behind three independent symbol guards:
///
/// ```text
/// warmup --M>22--> mid --L>22--> inner --K>22--> deep
/// ```
///
/// Execution halts at the first unsatisfied guard, so the deep state
/// only runs when all three hold.
fn staircase_workload() -> Sdfg {
    let mut b = SdfgBuilder::new("staircase");
    b.symbol("N");
    b.symbol("M");
    b.symbol("L");
    b.symbol("K");
    b.array("A", DType::F64, &["N"]);
    b.array("B", DType::F64, &["N"]);
    let copy_map = |df: &mut fuzzyflow::ir::DataflowBuilder, factor: f64| {
        let a = df.access("A");
        let o = df.access("B");
        let m = df.map(
            &["i"],
            vec![SymRange::full(sym("N"))],
            Schedule::Parallel,
            |body| {
                let a = body.access("A");
                let o = body.access("B");
                let t = body.tasklet(Tasklet::simple(
                    "sc",
                    vec!["x"],
                    "y",
                    ScalarExpr::r("x").mul(ScalarExpr::f64(factor)),
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
    };
    let s0 = b.start();
    b.in_state(s0, |df| copy_map(df, 2.0));
    let s1 = b.add_state("mid");
    b.in_state(s1, |df| copy_map(df, 3.0));
    let s2 = b.add_state("inner");
    b.in_state(s2, |df| copy_map(df, 4.0));
    let s3 = b.add_state("deep");
    b.in_state(s3, |df| copy_map(df, 5.0));
    let guard =
        |s: &str| InterstateEdge::when(CondExpr::cmp(SymCmpOp::Gt, sym(s), SymExpr::int(22)));
    b.edge(s0, s1, guard("M"));
    b.edge(s1, s2, guard("L"));
    b.edge(s2, s3, guard("K"));
    b.build()
}

/// The seeded fault: an off-by-one read (`A[i]` -> `A[i+1]`) in the
/// `deep` state's map, out of bounds on the last iteration — but only
/// reachable when all three guards hold. The change set spans every
/// state so the cutout keeps the guard staircase.
struct GuardStaircaseBug;

impl GuardStaircaseBug {
    fn deep_state(sdfg: &Sdfg) -> Option<StateId> {
        sdfg.states
            .node_ids()
            .find(|&s| sdfg.state(s).label == "deep")
    }
}

impl Transformation for GuardStaircaseBug {
    fn name(&self) -> &'static str {
        "GuardStaircaseBug"
    }

    fn description(&self) -> &'static str {
        "seeded off-by-one read behind a three-symbol guard staircase"
    }

    fn find_matches(&self, sdfg: &Sdfg) -> Vec<TransformationMatch> {
        match Self::deep_state(sdfg) {
            Some(_) => vec![TransformationMatch {
                site: MatchSite::States {
                    states: sdfg.states.node_ids().collect(),
                },
                description: "off-by-one read in the deep state".into(),
            }],
            None => Vec::new(),
        }
    }

    fn apply(
        &self,
        sdfg: &mut Sdfg,
        _m: &TransformationMatch,
    ) -> Result<ChangeSet, TransformError> {
        let deep = Self::deep_state(sdfg)
            .ok_or_else(|| TransformError::MatchInvalid("no deep state in program".into()))?;
        let all_states: Vec<StateId> = sdfg.states.node_ids().collect();
        let df = &mut sdfg.state_mut(deep).df;
        let nodes: Vec<_> = df.graph.node_ids().collect();
        for n in nodes {
            if let DfNode::Map(scope) = df.graph.node_mut(n) {
                let edges: Vec<_> = scope.body.graph.edge_ids().collect();
                for e in edges {
                    let mem = scope.body.graph.edge_mut(e);
                    if mem.data == "A" {
                        mem.subset = Subset::at(vec![sym("i") + SymExpr::int(1)]);
                        return Ok(ChangeSet::of_states(all_states));
                    }
                }
            }
        }
        Err(TransformError::MatchInvalid(
            "no read of A in the deep map".into(),
        ))
    }
}

/// The Fig. 5-style scale loop whose `Vectorization(4)` reads out of
/// bounds whenever `N % 4 != 0`; the divisible seed passes, so every
/// fault the loop collects comes from a mutation of `N`.
fn scale_workload() -> (Sdfg, Bindings) {
    let mut b = SdfgBuilder::new("scale");
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
    (b.build(), Bindings::from_pairs([("N".to_string(), 16)]))
}

fn main() {
    println!("== evolutionary loop vs blind sampling, and triage dedup ==");

    // ---- Part 1: the guard staircase race. -------------------------
    let program = staircase_workload();
    let bug = GuardStaircaseBug;
    let matches = bug.find_matches(&program);
    // Seed just below every guard: one nudge (+1..+3) crosses each.
    let seed_bindings = Bindings::from_pairs([
        ("N".to_string(), 8),
        ("M".to_string(), 22),
        ("L".to_string(), 22),
        ("K".to_string(), 22),
    ]);
    let (cutout, transformed, constraints) =
        prepare_pair(&program, &bug, &matches[0], false, &seed_bindings);

    let orig_prog = fuzzyflow_interp::Program::compile(&cutout.sdfg);
    let trans_prog = fuzzyflow_interp::Program::compile(&transformed);
    let run_evolved = || {
        let fuzzer = EvolutionFuzzer {
            trials: TRIAL_BUDGET,
            max_faults: 1,
            seed: 7,
            size_max: 24,
            ..EvolutionFuzzer::default()
        };
        fuzzer.evolve(
            &cutout,
            &orig_prog,
            &trans_prog,
            &constraints,
            &seed_bindings,
            None,
            &mut |_| {},
        )
    };
    let evolved = run_evolved();
    assert!(!evolved.seed_rejected, "staircase seed must be accepted");
    let evolved_trials = evolved
        .first_fault
        .as_ref()
        .map(|f| f.trial)
        .expect("evolution reaches the staircase fault within budget");
    row("evolved trials to staircase fault", evolved_trials);
    row("corpus entries on the way", evolved.corpus_size);
    row("distinct coverage sites", evolved.edges_seen);

    let run_blind = || {
        let tester = DiffTester {
            trials: TRIAL_BUDGET,
            seed: 7,
            profile: ValueProfile {
                size_max: 24,
                ..Default::default()
            },
            ..Default::default()
        };
        tester.test_compiled(
            fuzzyflow::pool::WorkerPool::global(),
            &cutout,
            &orig_prog,
            &trans_prog,
            &constraints,
            &fuzzyflow_fuzz::ArenaStash::new(),
            None,
        )
    };
    let blind = run_blind();
    let blind_found = blind.trials_to_detection.is_some();
    let blind_trials = blind.trials_to_detection.unwrap_or(TRIAL_BUDGET);
    row(
        "blind trials to staircase fault",
        if blind_found {
            format!("{blind_trials}")
        } else {
            format!("not found in {TRIAL_BUDGET} (budget)")
        },
    );
    let speedup = blind_trials as f64 / evolved_trials as f64;
    row("evolved speedup over blind", format!("{speedup:.1}x"));
    assert!(
        blind_trials >= 2 * evolved_trials,
        "evolution must reach the seeded fault in >=2x fewer trials \
         (evolved {evolved_trials}, blind {blind_trials})"
    );

    // ---- Part 2: bisection triage collapses duplicates. ------------
    let (scale, scale_bindings) = scale_workload();
    let vect = Vectorization::new(4);
    let vmatches = vect.find_matches(&scale);
    let (vcut, vtrans, vconstraints) =
        prepare_pair(&scale, &vect, &vmatches[0], false, &scale_bindings);
    let vorig = fuzzyflow_interp::Program::compile(&vcut.sdfg);
    let vtran = fuzzyflow_interp::Program::compile(&vtrans);
    let dedup = EvolutionFuzzer {
        trials: TRIAL_BUDGET,
        max_faults: 12,
        seed: 11,
        size_max: 12,
        ..EvolutionFuzzer::default()
    }
    .evolve(
        &vcut,
        &vorig,
        &vtran,
        &vconstraints,
        &scale_bindings,
        None,
        &mut |_| {},
    );
    row("duplicate faults collected", dedup.faults_found);
    row("buckets after bisection triage", dedup.buckets.len());
    for b in &dedup.buckets {
        row(
            &format!("  bucket [{} | {} | {}]", b.culprit, b.kind, b.container),
            format!("{} duplicates", b.duplicates),
        );
    }
    assert!(
        dedup.faults_found >= 10,
        "expected >=10 duplicate faults, got {}",
        dedup.faults_found
    );
    assert!(
        dedup.buckets.len() <= 2,
        "triage must collapse duplicates into <=2 buckets, got {}",
        dedup.buckets.len()
    );

    write_bench_record(
        "evo",
        "evo_loop",
        TRIAL_BUDGET,
        &[
            ("evolved_trials_to_fault", evolved_trials.to_string()),
            ("blind_found", blind_found.to_string()),
            ("blind_trials_or_budget", blind_trials.to_string()),
            ("evolved_speedup_x", format!("{speedup:.2}")),
            ("corpus_size", evolved.corpus_size.to_string()),
            ("edges_seen", evolved.edges_seen.to_string()),
            ("dedup_faults_found", dedup.faults_found.to_string()),
            ("dedup_buckets", dedup.buckets.len().to_string()),
        ],
    );

    let mut c = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    let mut group = c.benchmark_group("evo_loop");
    group.bench_function("evolved_staircase_campaign", |b| {
        b.iter(|| {
            let out = run_evolved();
            assert!(out.first_fault.is_some());
        })
    });
    group.bench_function("blind_staircase_budget", |b| {
        b.iter(|| {
            let _ = run_blind();
        })
    });
    group.finish();
    c.final_summary();
}
