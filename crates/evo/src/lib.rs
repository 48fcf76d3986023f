//! Coverage-guided corpus evolution with bisection-based fault triage.
//!
//! The one-shot samplers ([`DiffTester`](fuzzyflow_fuzz::DiffTester)'s
//! gray-box trials, [`CoverageFuzzer`](fuzzyflow_fuzz::CoverageFuzzer)'s
//! AFL-style loop) treat every input independently and stop at the first
//! fault. This crate turns verification into a real evolutionary
//! campaign:
//!
//! * a [`Corpus`] retains inputs that discover new coverage and
//!   schedules them by *novelty energy* — entries touching edges the
//!   campaign rarely hits are mutated more often (sfuzz-style rare-edge
//!   seed scheduling over the per-edge hit counts the instrumented
//!   interpreter already produces);
//! * a [`Mutator`] suite perturbs serialized cases — element
//!   perturbation, dimension resize within the derived constraints,
//!   splice/crossover between corpus members, symbol nudges — with every
//!   [`MutOp`] self-contained, so any lineage replays byte-exactly
//!   without the PRNG;
//! * fuzzing continues past the first fault, and a [`mod@triage`] stage
//!   deduplicates the collected faults by **bisecting each lineage** to
//!   its minimal failure-inducing prefix, bucketing by `(culprit op,
//!   structured error kind, faulting container)` — ten duplicate
//!   crashes collapse into one [`FaultBucket`] with a replayable
//!   representative [`TestCase`](fuzzyflow_fuzz::TestCase).
//!
//! Everything is sequential and deterministic per instance; campaign
//! sessions (`fuzzyflow::session`) fan instances out on the shared
//! worker pool and still produce byte-identical reports for any thread
//! count.

pub mod corpus;
pub mod evolve;
pub mod mutate;
pub mod triage;

pub use corpus::{Corpus, CorpusEntry};
pub use evolve::{EvoEvent, EvoFault, EvoOutcome, EvolutionFuzzer, EvolveConfig};
pub use fuzzyflow_fuzz::rng_split;
pub use mutate::{scalar_bits, scalar_from_bits, symbol_bounds, MutOp, Mutator};
pub use triage::{bisect, materialize, triage, FaultBucket};

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzyflow_cutout::{extract_cutout, Cutout, SideEffectContext};
    use fuzzyflow_fuzz::{derive_constraints, CaseOutcome, Constraints, Xoshiro256};
    use fuzzyflow_interp::Program;
    use fuzzyflow_ir::{
        sym, Bindings, DType, Memlet, Scalar, ScalarExpr, Schedule, Sdfg, SdfgBuilder, Subset,
        SymRange, Tasklet,
    };
    use fuzzyflow_transforms::{apply_to_clone, Transformation, Vectorization};

    /// The Fig. 5-style scale loop, vectorized (size-dependent OOB bug).
    fn vectorized_pair() -> (Cutout, Sdfg, Constraints) {
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
        let p = b.build();
        let v = Vectorization::new(4);
        let m = &v.find_matches(&p)[0];
        let (_, changes) = apply_to_clone(&p, &v, m).unwrap();
        let ctx = SideEffectContext::with_size_symbols(&["N".to_string()], 64);
        let c = extract_cutout(&p, &changes, &ctx).unwrap();
        let translated = fuzzyflow_cutout::translate_match(&c, m).unwrap();
        let mut transformed = c.sdfg.clone();
        v.apply(&mut transformed, &translated).unwrap();
        let constraints = derive_constraints(&c, &p);
        (c, transformed, constraints)
    }

    fn run(
        fuzzer: &EvolutionFuzzer,
        c: &Cutout,
        transformed: &Sdfg,
        constraints: &Constraints,
        seed: &Bindings,
    ) -> (EvoOutcome, Vec<EvoEvent>) {
        let orig = Program::compile(&c.sdfg);
        let trans = Program::compile(transformed);
        let mut events = Vec::new();
        let outcome = fuzzer.evolve(c, &orig, &trans, constraints, seed, None, &mut |e| {
            events.push(e.clone())
        });
        (outcome, events)
    }

    #[test]
    fn mutops_are_total_and_replayable() {
        let (c, _, constraints) = vectorized_pair();
        let fuzzer = EvolutionFuzzer::default();
        let mut rng = Xoshiro256::seed_from(11);
        let seed = {
            let mut srng = Xoshiro256::seed_from(fuzzer.seed);
            fuzzer.seed_state(
                &c,
                &constraints,
                &Bindings::from_pairs([("N", 8)]),
                &mut srng,
            )
        };
        let mutator = Mutator { size_max: 24 };
        let mut lineage = Vec::new();
        let mut state = seed.clone();
        for _ in 0..50 {
            let op = mutator.generate(&mut rng, &c, &constraints, &state, Some(&seed));
            op.apply(&c, &mut state);
            lineage.push(op);
        }
        // Replaying the whole lineage from the seed reproduces the state
        // bit for bit — no PRNG involved.
        let replayed = materialize(&c, &seed, &lineage);
        assert_eq!(replayed, state);
        // And every prefix is applicable (totality).
        for k in 0..=lineage.len() {
            let _ = materialize(&c, &seed, &lineage[..k]);
        }
    }

    #[test]
    fn resize_preserves_overlap_and_fills_deterministically() {
        let (c, _, _) = vectorized_pair();
        let mut st = fuzzyflow_interp::ExecState::new();
        st.bind("N", 4);
        let vals: Vec<f64> = vec![1.0, 2.0, 3.0, 4.0];
        st.set_array("A", fuzzyflow_interp::ArrayValue::from_f64(vec![4], &vals));
        st.set_array(
            "B",
            fuzzyflow_interp::ArrayValue::from_f64(vec![4], &[0.0; 4]),
        );
        let op = MutOp::Resize {
            symbol: "N".into(),
            value: 7,
            fill: 99,
        };
        let mut a = st.clone();
        op.apply(&c, &mut a);
        assert_eq!(a.symbols.get("N"), Some(7));
        let arr = a.array("A").unwrap();
        assert_eq!(arr.len(), 7);
        assert_eq!(arr.to_f64_vec()[..4], vals[..]);
        // Deterministic: applying again from the same base gives the
        // same filled tail.
        let mut b = st.clone();
        op.apply(&c, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn evolution_finds_size_dependent_bug_and_triages_duplicates() {
        let (c, transformed, constraints) = vectorized_pair();
        // Seed divisible by the vector width: the bug needs mutation.
        let seed = Bindings::from_pairs([("N", 16)]);
        let fuzzer = EvolutionFuzzer {
            trials: 400,
            max_faults: 10,
            seed: 77,
            ..Default::default()
        };
        let (outcome, events) = run(&fuzzer, &c, &transformed, &constraints, &seed);
        assert!(outcome.faults_found > 0, "no fault found: {outcome:?}");
        let first = outcome.first_fault.as_ref().unwrap();
        assert!(
            matches!(first.outcome, CaseOutcome::Crash(_)),
            "expected OOB crash, got {:?}",
            first.outcome
        );
        assert!(first.trial > 1, "seed is divisible; a mutation was needed");
        // Many duplicate faults collapse into very few buckets.
        assert!(outcome.faults_found >= 3);
        assert!(
            outcome.buckets.len() <= 2,
            "expected tight dedup, got {} buckets: {:?}",
            outcome.buckets.len(),
            outcome.buckets
        );
        let total_dups: usize = outcome.buckets.iter().map(|b| b.duplicates).sum();
        assert_eq!(total_dups, outcome.faults_found);
        // Events streamed: growth, novelty and the final buckets.
        assert!(events.iter().any(|e| matches!(e, EvoEvent::Novelty { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, EvoEvent::FaultBucket { .. })));
    }

    #[test]
    fn representative_cases_replay_to_the_bucket_class() {
        let (c, transformed, constraints) = vectorized_pair();
        let seed = Bindings::from_pairs([("N", 16)]);
        let fuzzer = EvolutionFuzzer {
            trials: 400,
            max_faults: 6,
            seed: 77,
            ..Default::default()
        };
        let (outcome, _) = run(&fuzzer, &c, &transformed, &constraints, &seed);
        assert!(!outcome.buckets.is_empty());
        let orig = Program::compile(&c.sdfg);
        let trans = Program::compile(&transformed);
        let tester = fuzzyflow_fuzz::DiffTester::default();
        for b in &outcome.buckets {
            // Round-trip the representative through its serialized form
            // first — replay must work from a parsed report.
            let parsed = fuzzyflow_fuzz::TestCase::from_json(&b.representative.to_json()).unwrap();
            let replay = tester.replay_on(
                &c,
                &parsed.state,
                &mut orig.executor(),
                &mut trans.executor(),
            );
            assert_eq!(replay.kind(), b.kind, "bucket {b:?} replayed as {replay:?}");
            assert_eq!(replay.label(), b.label);
        }
    }

    #[test]
    fn evolution_is_deterministic() {
        let (c, transformed, constraints) = vectorized_pair();
        let seed = Bindings::from_pairs([("N", 16)]);
        let fuzzer = EvolutionFuzzer {
            trials: 250,
            max_faults: 5,
            seed: 1234,
            ..Default::default()
        };
        let (a, ea) = run(&fuzzer, &c, &transformed, &constraints, &seed);
        let (b, eb) = run(&fuzzer, &c, &transformed, &constraints, &seed);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(ea, eb);
    }

    #[test]
    fn corpus_energy_favors_rare_edges() {
        let mut corpus = Corpus::new();
        let mut cov_a = fuzzyflow_interp::CoverageMap::new();
        cov_a.record(1);
        cov_a.record(2);
        let mut cov_b = fuzzyflow_interp::CoverageMap::new();
        cov_b.record(3);
        cov_b.record(4);
        // A's edges get hammered; B's stay rare.
        for _ in 0..50 {
            corpus.record_execution(&cov_a);
        }
        corpus.record_execution(&cov_b);
        corpus.admit(fuzzyflow_interp::ExecState::new(), Vec::new(), &cov_a);
        corpus.admit(fuzzyflow_interp::ExecState::new(), Vec::new(), &cov_b);
        assert!(
            corpus.energy(1) > corpus.energy(0),
            "rare-edge entry should be hotter: {} vs {}",
            corpus.energy(1),
            corpus.energy(0)
        );
        // Selection is deterministic for a fixed PRNG state.
        let mut r1 = Xoshiro256::seed_from(5);
        let mut r2 = Xoshiro256::seed_from(5);
        let picks1: Vec<usize> = (0..20).map(|_| corpus.select(&mut r1)).collect();
        let picks2: Vec<usize> = (0..20).map(|_| corpus.select(&mut r2)).collect();
        assert_eq!(picks1, picks2);
    }

    #[test]
    fn scalar_bits_roundtrip_preserves_payloads() {
        for v in [
            Scalar::F64(f64::NAN),
            Scalar::F64(-0.0),
            Scalar::F64(1e300),
            Scalar::F32(-0.0),
            Scalar::I64(-1),
            Scalar::I32(i32::MIN),
            Scalar::Bool(true),
        ] {
            let bits = scalar_bits(v);
            let back = scalar_from_bits(v.dtype(), bits);
            assert_eq!(scalar_bits(back), bits);
        }
    }
}
