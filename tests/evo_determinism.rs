//! Evolution-mode campaign semantics: byte-identical reports for every
//! thread count, deterministic budgeted/warm prefixes, triage bucket
//! replay from the serialized report, and byte-compatibility of
//! one-shot reports (no `triage` key unless evolution ran).

use fuzzyflow::prelude::*;
use fuzzyflow::session::{Campaign, CollectingSink, EvolveConfig, NullSink};
use fuzzyflow_cutout::{extract_cutout, refind_match, SideEffectContext};
use fuzzyflow_fuzz::{derive_constraints, DiffTester};
use fuzzyflow_interp::compile_shared;
use fuzzyflow_ir::{
    sym, DType, Memlet, ScalarExpr, Schedule, SdfgBuilder, Subset, SymRange, Tasklet,
};

mod common;

/// The Fig. 5-style scale loop: `B[i] = 2 * A[i]` over `i < N`.
/// `Vectorization(4)` reads past the end whenever `N % 4 != 0`, so the
/// divisible seed passes and evolution has a genuine size-dependent bug
/// to find by resizing/nudging `N`.
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

fn evo_campaign() -> Campaign {
    let (scale, scale_bindings) = scale_workload();
    Campaign::new("evo-determinism")
        .with_workload("scale", scale, scale_bindings)
        .with_workload(
            "matmul_chain",
            fuzzyflow::workloads::matmul_chain(),
            fuzzyflow::workloads::matmul_chain::default_bindings(),
        )
        .with_transformations(vec![
            Box::new(Vectorization::new(4)),
            Box::new(MapTilingOffByOne::new(4)),
        ])
        // `minimize: false` keeps the cutout equal to a plain extraction,
        // which the replay test below reconstructs by hand.
        .with_verify(
            VerifyConfig::new()
                .with_size_max(12)
                .with_minimize(false)
                .with_seed(0xD5EED),
        )
        .with_evolve(
            EvolveConfig::new()
                .with_trials(90)
                .with_max_faults(6)
                .with_seed(41),
        )
}

/// The `caches` block reports live counter deltas, which legitimately
/// differ between cold and warm runs; byte-identity claims hold for
/// everything else.
fn sans_caches(report: &CampaignReport) -> CampaignReport {
    let mut r = report.clone();
    r.caches = Default::default();
    r
}

/// Tentpole acceptance: the evolutionary loop is sequential and seeded
/// per instance index, so the whole campaign report — verdicts, corpus
/// statistics streamed as events, triage buckets and their replayable
/// representatives — is byte-identical for every thread count. (The
/// `config.threads` field faithfully records the differing knob and is
/// normalized before comparing, like the live `caches` counters.)
#[test]
fn evolution_reports_are_byte_identical_across_thread_counts() {
    let run = |threads: usize| {
        let mut r = sans_caches(
            &evo_campaign()
                .with_threads(threads)
                .session()
                .run(&NullSink),
        );
        r.config.threads = 0;
        r.to_json()
    };
    let base = run(1);
    assert!(base.contains("\"triage\""), "evolution report has triage");
    for threads in [2usize, 8] {
        assert_eq!(run(threads), base, "report diverged at {threads} threads");
    }
}

/// The evolution campaign finds faults, and triage collapses the
/// duplicates: strictly fewer buckets than collected faults, every
/// bucket non-empty, and bucket duplicate counts adding back up.
#[test]
fn triage_deduplicates_evolution_faults() {
    let report = evo_campaign().session().run(&NullSink);
    let triage = report.triage.as_ref().expect("evolution ran");
    assert!(triage.faults_found >= 3, "{triage:?}");
    assert!(triage.bucket_count() < triage.faults_found, "{triage:?}");
    let dup_sum: usize = triage.buckets.iter().map(|b| b.duplicates).sum();
    assert_eq!(dup_sum, triage.faults_found);
    for b in &triage.buckets {
        assert!(b.duplicates >= 1);
        assert!(!b.culprit.is_empty());
        assert!(!b.kind.is_empty());
    }
    // The scale × Vectorization instance (index 0) finds the
    // size-dependent bug through mutation, not in the seed: the seed is
    // divisible by the lane width, so the culprit is a symbol mutation.
    let scale_buckets: Vec<_> = triage.buckets.iter().filter(|b| b.instance == 0).collect();
    assert!(!scale_buckets.is_empty(), "{triage:?}");
    for b in &scale_buckets {
        assert!(
            b.culprit.ends_with(" N"),
            "culprit should be a mutation of N: {b:?}"
        );
    }
}

/// Serialized evolution reports round-trip canonically, and every
/// triage bucket's representative test case replays — from the parsed
/// JSON, through a freshly prepared pipeline — to the bucket's own
/// fault class.
#[test]
fn bucket_representatives_replay_from_serialized_report() {
    let report = evo_campaign().session().run(&NullSink);
    let json = report.to_json();
    let parsed = CampaignReport::from_json(&json).expect("parses");
    assert_eq!(parsed, report);
    assert_eq!(parsed.to_json(), json, "canonical encoding");

    // Rebuild the compiled pair of instance 0 (scale × Vectorization)
    // exactly as the session prepared it (minimize was off).
    let (program, _) = scale_workload();
    let t = Vectorization::new(4);
    let m = &t.find_matches(&program)[0];
    let (_, changes) = apply_to_clone(&program, &t, m).unwrap();
    let ctx = SideEffectContext::with_size_symbols(&program.free_symbols(), 12);
    let cutout = extract_cutout(&program, &changes, &ctx).unwrap();
    let translated = refind_match(&cutout, &t, m).unwrap();
    let mut transformed = cutout.sdfg.clone();
    t.apply(&mut transformed, &translated).unwrap();
    let _ = derive_constraints(&cutout, &program);
    let orig = compile_shared(&cutout.sdfg);
    let trans = compile_shared(&transformed);

    let tester = DiffTester::default();
    let triage = parsed.triage.as_ref().expect("evolution ran");
    let mut replayed = 0;
    for b in triage.buckets.iter().filter(|b| b.instance == 0) {
        let outcome = tester.replay_on(
            &cutout,
            &b.representative.state,
            &mut orig.executor(),
            &mut trans.executor(),
        );
        assert_eq!(outcome.kind(), b.kind, "{b:?}");
        assert_eq!(outcome.label(), b.label, "{b:?}");
        replayed += 1;
    }
    assert!(replayed >= 1, "no instance-0 buckets to replay");
}

/// Budgets and warm re-runs preserve the deterministic prefix in
/// evolution mode: a budgeted run matches the head of the full run, and
/// resuming on the same (now warm) session completes the rest
/// byte-identically — constructing no fresh preparations.
#[test]
fn budgeted_evolution_prefix_matches_uninterrupted_run() {
    let full = sans_caches(&evo_campaign().with_threads(1).session().run(&NullSink));
    let total = full.completed();
    assert!(total >= 2, "campaign enumerates {total} instances");

    // A budgeted campaign completes the exact one-instance prefix.
    let budgeted = evo_campaign()
        .with_max_instances(1)
        .session()
        .run(&NullSink);
    assert_eq!(budgeted.completed(), 1);
    assert_eq!(
        format!("{:?}", budgeted.instances[0]),
        format!("{:?}", full.instances[0]),
        "budgeted prefix diverged"
    );
    // The budgeted run's triage is the full run's, filtered to the
    // completed prefix.
    let full_triage = full.triage.as_ref().unwrap();
    let prefix_triage = budgeted.triage.as_ref().unwrap();
    let expected: Vec<_> = full_triage
        .buckets
        .iter()
        .filter(|b| b.instance == 0)
        .collect();
    assert_eq!(
        format!("{:?}", prefix_triage.buckets.iter().collect::<Vec<_>>()),
        format!("{expected:?}"),
    );

    // Interrupt a session mid-campaign, then resume it: the second run
    // replays the completed prefix from cached artifacts (warm — zero
    // new preparations for it) and completes the rest byte-identically
    // to the uninterrupted run.
    let session = evo_campaign().with_threads(1).session();
    let token = CancelToken::new();
    let sink = |e: &Event| {
        if matches!(e, Event::InstanceFinished { .. }) {
            token.cancel();
        }
    };
    let interrupted = session.run_cancellable(&sink, &token);
    let k = interrupted.completed();
    assert!(k >= 1 && k < total, "cancel left {k} of {total}");
    assert_eq!(
        format!("{:?}", interrupted.instances),
        format!("{:?}", &full.instances[..k]),
        "interrupted prefix diverged"
    );
    let prepared_before = session.prepared_instances();
    assert_eq!(prepared_before, k);
    let resumed = sans_caches(&session.run(&NullSink));
    assert_eq!(resumed.to_json(), full.to_json(), "warm resume diverged");
    assert_eq!(
        session.prepared_instances(),
        total,
        "only the unseen instances prepare cold"
    );
}

/// Evolution campaigns stream the new event variants, and their payloads
/// are consistent with the final report.
#[test]
fn evolution_events_stream_and_match_the_report() {
    let sink = CollectingSink::new();
    let report = evo_campaign().with_threads(1).session().run(&sink);
    let events = sink.take();
    let novelty = events
        .iter()
        .filter(|e| matches!(e, Event::Novelty { .. }))
        .count();
    let growth = events
        .iter()
        .filter(|e| matches!(e, Event::CorpusGrowth { .. }))
        .count();
    assert!(novelty >= 1, "no novelty events");
    assert!(growth >= 1, "no corpus-growth events");
    let mut bucket_events = 0;
    for e in &events {
        if let Event::FaultBucket {
            index,
            culprit,
            kind,
            duplicates,
            ..
        } = e
        {
            bucket_events += 1;
            let triage = report.triage.as_ref().unwrap();
            assert!(
                triage.buckets.iter().any(|b| b.instance == *index
                    && &b.culprit == culprit
                    && &b.kind == kind
                    && b.duplicates == *duplicates),
                "streamed bucket missing from report: {e:?}"
            );
        }
    }
    assert_eq!(
        bucket_events,
        report.triage.as_ref().unwrap().bucket_count(),
        "one FaultBucket event per report bucket"
    );
}

/// One-shot (non-evolution) campaigns are untouched: no `triage` key in
/// the JSON, `triage: None` after parsing, and pre-existing reports
/// (which never had the key) still parse.
#[test]
fn one_shot_reports_have_no_triage_and_stay_byte_compatible() {
    let session = Campaign::new("one-shot")
        .with_workload(
            "matmul_chain",
            fuzzyflow::workloads::matmul_chain(),
            fuzzyflow::workloads::matmul_chain::default_bindings(),
        )
        .with_transformation(Box::new(MapTilingOffByOne::new(4)))
        .with_verify(VerifyConfig::new().with_trials(10).with_size_max(8))
        .session();
    let report = session.run(&NullSink);
    assert!(report.triage.is_none());
    let json = report.to_json();
    assert!(!json.contains("\"triage\""));
    let parsed = CampaignReport::from_json(&json).expect("parses");
    assert!(parsed.triage.is_none());
    assert_eq!(parsed.to_json(), json);
}

/// Cross-commit byte identity in evolution mode: the report (verdicts,
/// triage buckets, representatives) of a small campaign with sound,
/// crashing, semantic-change and invalid-code rows hashes to a pinned
/// value. Without the `fusion` line the hash is host-independent and has
/// held since the verification paths were unified; with it (JIT
/// eligibility is host-specific) the constant is pinned for x86_64 unix
/// hosts and moves only when fusion eligibility does.
#[test]
fn pinned_evolve_report_fingerprint() {
    let report = Campaign::new("pinned-evolve")
        .with_workload(
            "matmul_chain",
            fuzzyflow::workloads::matmul_chain(),
            fuzzyflow::workloads::matmul_chain::default_bindings(),
        )
        .with_workload(
            "cloudsc_like",
            fuzzyflow::workloads::cloudsc_like(),
            fuzzyflow::workloads::cloudsc::default_bindings(),
        )
        .with_transformations(vec![
            Box::new(MapTiling::new(4)),
            Box::new(MapTilingOffByOne::new(4)),
            Box::new(MapTilingNoRemainder::new(4)),
            Box::new(GpuKernelExtraction),
            Box::new(fuzzyflow::transforms::StateAssignElimination),
        ])
        .with_verify(VerifyConfig::new().with_size_max(8).with_seed(0xF1A9))
        .with_evolve(
            EvolveConfig::new()
                .with_trials(24)
                .with_max_faults(4)
                .with_seed(7),
        )
        .with_threads(1)
        .session()
        .run(&NullSink);
    let mut labels: Vec<&str> = report.instances.iter().map(|i| i.label.as_str()).collect();
    labels.sort_unstable();
    labels.dedup();
    for class in ["ok", "crash", "semantic change", "invalid code"] {
        assert!(labels.contains(&class), "campaign has no '{class}' row");
    }
    assert!(report.triage.as_ref().is_some_and(|t| t.bucket_count() > 0));
    assert_eq!(
        common::report_fingerprint(&report, &["caches", "fusion"]),
        PINNED_EVOLVE_VERDICTS
    );
    if cfg!(all(unix, target_arch = "x86_64")) {
        assert_eq!(
            common::report_fingerprint(&report, &["caches"]),
            PINNED_EVOLVE_FINGERPRINT
        );
    }
}

const PINNED_EVOLVE_VERDICTS: u64 = 0x499f_589d_5dba_4a3d;
const PINNED_EVOLVE_FINGERPRINT: u64 = 0xb37f_f811_74ea_e12a;
