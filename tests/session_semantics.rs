//! Campaign-session semantics: deterministic prefixes under budgets and
//! cancellation, warm-cache byte-identity, event-stream shape, and
//! campaign-report round-trips with replayable faults.

use fuzzyflow::prelude::*;
use fuzzyflow::session::{Campaign, CollectingSink, NullSink};
use std::sync::atomic::{AtomicUsize, Ordering};

mod common;

fn base_campaign() -> Campaign {
    Campaign::new("semantics")
        .with_workload(
            "matmul_chain",
            fuzzyflow::workloads::matmul_chain(),
            fuzzyflow::workloads::matmul_chain::default_bindings(),
        )
        .with_transformations(vec![
            Box::new(MapTiling::new(4)),
            Box::new(MapTilingOffByOne::new(4)),
            Box::new(MapTilingNoRemainder::new(4)),
        ])
        .with_verify(VerifyConfig::new().with_trials(15).with_size_max(8))
}

/// 3 GEMMs × 3 passes.
const INSTANCES: usize = 9;

/// The `caches` block reports live counter deltas, which legitimately
/// differ between cold and warm runs; byte-identity claims hold for
/// everything else.
fn sans_caches(report: &CampaignReport) -> CampaignReport {
    let mut r = report.clone();
    r.caches = Default::default();
    r
}

/// The `caches` tallies are deltas of process-wide counters, so a test
/// asserting "this warm run compiled nothing" races any other test that
/// compiles *new* programs meanwhile. Tests that assert on the tallies,
/// and tests that compile programs no other test shares (`cloudsc_like`),
/// hold this lock; the remaining tests only ever compile the
/// `matmul_chain` tilings, which the asserting tests have already
/// compiled by the time their warm window opens.
static PROCESS_COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn counters_lock() -> std::sync::MutexGuard<'static, ()> {
    PROCESS_COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
}

fn reference_report() -> CampaignReport {
    base_campaign().with_threads(1).session().run(&NullSink)
}

/// Satellite acceptance: cancelling after k completed instances yields a
/// report byte-identical to an index-ordered prefix (of length >= k) of
/// an uncancelled run, for threads in {1, 2, 8}.
#[test]
fn cancellation_yields_a_deterministic_prefix() {
    let full = reference_report();
    assert_eq!(full.completed(), INSTANCES);
    for threads in [1usize, 2, 8] {
        for k in [1usize, 3] {
            let session = base_campaign().with_threads(threads).session();
            let token = CancelToken::new();
            let finished = AtomicUsize::new(0);
            let sink = |e: &Event| {
                if let Event::InstanceFinished { .. } = e {
                    if finished.fetch_add(1, Ordering::SeqCst) + 1 >= k {
                        token.cancel();
                    }
                }
            };
            let report = session.run_cancellable(&sink, &token);
            let m = report.completed();
            assert!(m >= k, "threads={threads} k={k}: only {m} completed");
            assert_eq!(
                format!("{:?}", report.instances),
                format!("{:?}", &full.instances[..m]),
                "threads={threads} k={k}: prefix diverged"
            );
            assert!(
                report.status == StopReason::Cancelled || m == INSTANCES,
                "threads={threads} k={k}: {:?}",
                report.status
            );
            // Trials spent must equal the prefix's own accounting.
            let expect: u64 = full.instances[..m]
                .iter()
                .map(|i| i.trials_run as u64)
                .sum();
            assert_eq!(report.trials_spent, expect);
        }
    }
}

/// `max_instances` is an exact cap: precisely the first k index-ordered
/// instances run, byte-identically, for every thread count.
#[test]
fn instance_budget_is_an_exact_prefix() {
    let full = reference_report();
    for threads in [1usize, 2, 8] {
        for k in [0usize, 1, 4, INSTANCES, INSTANCES + 3] {
            let session = base_campaign()
                .with_threads(threads)
                .with_max_instances(k)
                .session();
            let report = session.run(&NullSink);
            let expect = k.min(INSTANCES);
            assert_eq!(report.completed(), expect, "threads={threads} k={k}");
            assert_eq!(
                format!("{:?}", report.instances),
                format!("{:?}", &full.instances[..expect]),
                "threads={threads} k={k}: prefix diverged"
            );
            let status = if expect == INSTANCES {
                StopReason::Completed
            } else {
                StopReason::MaxItems
            };
            assert_eq!(report.status, status, "threads={threads} k={k}");
            assert_eq!(report.total_instances, INSTANCES);
        }
    }
}

/// The trial budget stops claiming new instances once spent; the
/// completed set is always an index-ordered prefix of the full run.
#[test]
fn trial_budget_stops_with_a_deterministic_prefix() {
    let full = reference_report();
    // Sequentially: two 15-trial instances exhaust a budget of 30.
    let session = base_campaign()
        .with_threads(1)
        .with_max_trials(30)
        .session();
    let report = session.run(&NullSink);
    assert_eq!(report.completed(), 2);
    assert_eq!(report.status, StopReason::CostBudget);
    assert_eq!(report.trials_spent, 30);
    // In parallel the prefix length depends on in-flight work, but every
    // completed instance is still byte-identical to the full run's.
    for threads in [2usize, 8] {
        let session = base_campaign()
            .with_threads(threads)
            .with_max_trials(30)
            .session();
        let report = session.run(&NullSink);
        let m = report.completed();
        assert!(m >= 2, "threads={threads}: {m}");
        assert_eq!(
            format!("{:?}", report.instances),
            format!("{:?}", &full.instances[..m]),
            "threads={threads}: prefix diverged"
        );
    }
}

/// Tentpole acceptance: a warm re-run of an unchanged campaign is
/// byte-identical and performs zero fresh pipeline preparations.
#[test]
fn warm_rerun_is_byte_identical_and_prepares_nothing() {
    let _counters = counters_lock();
    let session = base_campaign().with_threads(2).session();
    assert_eq!(session.instance_count(), INSTANCES);
    assert_eq!(session.prepared_instances(), 0);
    let cold = session.run(&NullSink);
    assert_eq!(session.prepared_instances(), INSTANCES);
    assert_eq!(session.cached_instances(), INSTANCES);
    for _ in 0..2 {
        let warm = session.run(&NullSink);
        // Everything except the live cache-counter block is
        // byte-identical; the block itself must prove the re-run was
        // warm: zero program compiles, zero native bytes emitted.
        assert_eq!(
            format!("{:?}", sans_caches(&warm)),
            format!("{:?}", sans_caches(&cold)),
            "warm re-run diverged from the cold run"
        );
        assert_eq!(warm.caches.program_compiles, 0, "{:?}", warm.caches);
        assert_eq!(warm.caches.code_bytes, 0, "{:?}", warm.caches);
    }
    assert_eq!(
        session.prepared_instances(),
        INSTANCES,
        "warm re-runs must not re-prepare instances"
    );
    // Dropping the cache makes the next run cold again — and still
    // byte-identical.
    session.clear_cache();
    assert_eq!(session.cached_instances(), 0);
    let recold = session.run(&NullSink);
    assert_eq!(
        format!("{:?}", sans_caches(&recold)),
        format!("{:?}", sans_caches(&cold))
    );
    assert_eq!(session.prepared_instances(), 2 * INSTANCES);
}

/// Instances that report the same change set share one cutout: the three
/// tiling passes touch each GEMM's map alike, so nine instances are
/// prepared from three extractions — whatever the thread width, since
/// concurrent instances of one change set wait for its one extraction —
/// and the report does not depend on who extracted.
#[test]
fn passes_on_one_map_share_one_cutout() {
    let reference = reference_report();
    for threads in [1usize, 2, 8] {
        let session = base_campaign().with_threads(threads).session();
        assert_eq!(session.extracted_cutouts(), 0);
        let cold = session.run(&NullSink);
        // The report echoes `threads`; everything verified must agree.
        assert!(
            cold.instances == reference.instances && cold.fusion == reference.fusion,
            "report diverged at threads={threads}"
        );
        assert_eq!(session.prepared_instances(), INSTANCES);
        assert_eq!(
            session.extracted_cutouts(),
            3,
            "one cutout per GEMM at threads={threads}"
        );
        // Warm re-runs extract nothing; a cleared cache extracts afresh.
        session.run(&NullSink);
        assert_eq!(session.extracted_cutouts(), 3);
        session.clear_cache();
        let recold = session.run(&NullSink);
        assert!(recold.instances == reference.instances);
        assert_eq!(session.extracted_cutouts(), 6);
    }
}

/// Runs on one session serialize: concurrent `run` calls cannot race
/// the artifact cache into duplicate preparations or fresh arenas, and
/// every call still returns the byte-identical report.
#[test]
fn concurrent_runs_serialize_and_stay_warm() {
    let _counters = counters_lock();
    let session = std::sync::Arc::new(base_campaign().with_threads(2).session());
    let cold = format!("{:?}", sans_caches(&session.run(&NullSink)));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let session = std::sync::Arc::clone(&session);
            let reference = cold.clone();
            std::thread::spawn(move || {
                let warm = session.run(&NullSink);
                assert_eq!(format!("{:?}", sans_caches(&warm)), reference);
                assert_eq!(warm.caches.program_compiles, 0, "{:?}", warm.caches);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("concurrent run panicked");
    }
    assert_eq!(
        session.prepared_instances(),
        INSTANCES,
        "racing runs must not duplicate preparations"
    );
}

/// Both entry points ride the same path: a per-instance
/// `verify_instance` call yields exactly the campaign's row for that
/// instance — classification, trial accounting, cutout shape and the
/// bit-exact failing case.
#[test]
fn campaign_and_verify_instance_agree() {
    let program = fuzzyflow::workloads::matmul_chain();
    let bindings = fuzzyflow::workloads::matmul_chain::default_bindings();
    let transformations: Vec<Box<dyn Transformation>> = vec![
        Box::new(MapTiling::new(4)),
        Box::new(MapTilingOffByOne::new(4)),
    ];
    let verify = VerifyConfig::new().with_trials(20).with_size_max(8);

    // Concretization is defaulted per workload exactly like the
    // campaign does.
    let per_instance_cfg = verify.clone().with_concretization(bindings.clone());
    let mut standalone = Vec::new();
    for t in &transformations {
        for m in t.find_matches(&program) {
            standalone.push(verify_instance(&program, t.as_ref(), &m, &per_instance_cfg).unwrap());
        }
    }

    let report = Campaign::new("agree")
        .with_workload("matmul_chain", program, bindings)
        .with_transformations(transformations)
        .with_verify(verify)
        .with_threads(2)
        .session()
        .run(&NullSink);
    assert_eq!(report.completed(), standalone.len());
    for (inst, alone) in report.instances.iter().zip(&standalone) {
        assert_eq!(inst.transformation, alone.transformation);
        assert_eq!(inst.match_description, alone.match_description);
        assert_eq!(inst.label, alone.verdict.label());
        assert_eq!(inst.trials_run, alone.trials_run);
        assert_eq!(inst.trials_to_detection, alone.trials_to_detection);
        assert_eq!(inst.cutout_nodes, alone.cutout_stats.nodes);
        assert_eq!(inst.program_nodes, alone.program_nodes);
        assert_eq!(
            inst.mincut_reduction,
            alone.mincut.as_ref().map(|m| m.reduction())
        );
        assert_eq!(inst.system_state, alone.system_state);
        assert_eq!(inst.input_config, alone.input_config);
        assert!(inst.error.is_none());
        match (&inst.fault, &alone.verdict) {
            (None, Verdict::Equivalent { trials }) => assert_eq!(*trials, inst.trials_run),
            (
                Some(fault),
                Verdict::SemanticChange {
                    trial,
                    mismatch,
                    case,
                },
            ) => {
                assert_eq!(fault.trial, Some(*trial));
                assert_eq!(&fault.detail, mismatch);
                assert_eq!(fault.case.as_ref(), Some(case));
            }
            other => panic!("campaign row and standalone verdict disagree: {other:?}"),
        }
    }
    // The Table-2 aggregation sees the same classification.
    let rows = report.table_rows();
    assert_eq!(rows.len(), 2);
    assert_eq!(
        (rows[0].transformation.as_str(), rows[0].passed),
        ("MapTiling", 3)
    );
    assert_eq!(rows[1].faults, 3, "{:?}", rows[1]);
    assert_eq!(rows[1].by_class.get("semantic change"), Some(&3));
    assert!(report.format_table().contains("MapTilingOffByOne"));
}

/// The event stream has the documented shape: session start/finish
/// bracket everything, every instance starts before it finishes, faults
/// and trial progress are reported.
#[test]
fn event_stream_has_the_documented_shape() {
    let session = base_campaign().with_threads(2).session();
    let sink = CollectingSink::new();
    let report = session.run(&sink);
    let events = sink.take();
    assert!(matches!(
        events.first(),
        Some(Event::SessionStarted {
            instances: INSTANCES
        })
    ));
    assert!(matches!(
        events.last(),
        Some(Event::SessionFinished {
            completed: INSTANCES,
            total: INSTANCES,
            stop: StopReason::Completed,
        })
    ));
    let mut started = [false; INSTANCES];
    let mut finished = 0;
    let mut faults = 0;
    let mut progress = 0;
    for e in &events {
        match e {
            Event::InstanceStarted { index, .. } => started[*index] = true,
            Event::InstanceFinished { index, cached, .. } => {
                assert!(started[*index], "instance {index} finished before starting");
                assert!(!cached, "first run cannot be cached");
                finished += 1;
            }
            Event::TrialProgress {
                trials_done,
                trials_total,
                ..
            } => {
                assert!(trials_done <= trials_total);
                progress += 1;
            }
            Event::FaultFound { label, .. } => {
                assert!(!label.is_empty());
                faults += 1;
            }
            _ => {}
        }
    }
    assert_eq!(finished, INSTANCES);
    assert_eq!(faults, report.fault_count());
    assert!(faults >= 3, "the off-by-one pass faults on every GEMM");
    assert!(progress > 0, "trial progress must stream");

    // A warm re-run flags every instance as cached.
    let sink = CollectingSink::new();
    session.run(&sink);
    let cached_count = sink
        .take()
        .iter()
        .filter(|e| matches!(e, Event::InstanceFinished { cached: true, .. }))
        .count();
    assert_eq!(cached_count, INSTANCES);
}

/// The JSON report round-trips losslessly and canonically.
#[test]
fn campaign_report_json_round_trips() {
    let report = base_campaign().with_threads(2).session().run(&NullSink);
    assert!(report.fault_count() >= 3);
    let json = report.to_json();
    let parsed = CampaignReport::from_json(&json).expect("parses");
    assert_eq!(parsed, report, "lossless round trip");
    assert_eq!(parsed.to_json(), json, "canonical encoding");
    // Structured errors and faults survive: every fault carries its
    // label, and execution-exposed faults carry a replayable case.
    for fault in parsed.faults() {
        let f = fault.fault.as_ref().unwrap();
        assert!(!f.label.is_empty());
        if f.label != "invalid code" {
            assert!(f.case.is_some(), "{} has no case", fault.index);
        }
    }
}

/// Satellite acceptance: a fault replayed from a *serialized* campaign
/// report reproduces the identical verdict — the cutout pair is rebuilt
/// from scratch, the parsed bit-exact inputs are run through both sides,
/// and the divergence matches the recorded one.
#[test]
fn replayed_fault_from_serialized_report_reproduces_the_verdict() {
    let verify = VerifyConfig::new().with_trials(50).with_size_max(8);
    let session = Campaign::new("replay")
        .with_workload(
            "matmul_chain",
            fuzzyflow::workloads::matmul_chain(),
            fuzzyflow::workloads::matmul_chain::default_bindings(),
        )
        .with_transformation(Box::new(MapTilingOffByOne::new(4)))
        .with_verify(verify.clone())
        .session();
    let json = session.run(&NullSink).to_json();

    // Elsewhere, later: parse the shipped report and replay.
    let parsed = CampaignReport::from_json(&json).expect("parses");
    let fault = parsed.faults().next().expect("off-by-one tiling faults");
    let record = fault.fault.as_ref().unwrap();
    let case = record.case.as_ref().expect("execution fault has a case");

    // Rebuild the cutout pair the pipeline used (same config ⇒ same
    // cutout, bit for bit).
    let program = fuzzyflow::workloads::matmul_chain();
    let t = MapTilingOffByOne::new(4);
    let m = &t.find_matches(&program)[fault.index];
    let (_, changes) = apply_to_clone(&program, &t, m).unwrap();
    let ctx = SideEffectContext::with_size_symbols(&program.free_symbols(), 8);
    let cutout = extract_cutout(&program, &changes, &ctx).unwrap();
    let (cutout, _) = fuzzyflow::cutout::minimize_input_configuration(
        &program,
        cutout,
        &ctx,
        &fuzzyflow::workloads::matmul_chain::default_bindings(),
    );
    let translated = fuzzyflow::cutout::refind_match(&cutout, &t, m).unwrap();
    let mut transformed = cutout.sdfg.clone();
    t.apply(&mut transformed, &translated).unwrap();

    // Replaying the parsed bit-exact inputs reproduces the divergence,
    // with the identical mismatch description.
    let mut orig_state = case.state.clone();
    let mut trans_state = case.state.clone();
    fuzzyflow::interp::run(&cutout.sdfg, &mut orig_state).expect("original executes");
    fuzzyflow::interp::run(&transformed, &mut trans_state).expect("transformed executes");
    let mismatch = orig_state
        .compare_on(&trans_state, &cutout.system_state, parsed.config.tolerance)
        .expect("replay reproduces the divergence");
    assert_eq!(
        mismatch.to_string(),
        record.detail,
        "verdict detail differs"
    );

    // And an independent re-verification reproduces the identical
    // verdict record (label, detecting trial, bit-exact case).
    let fresh = verify_instance(
        &program,
        &t,
        m,
        &verify.with_concretization(fuzzyflow::workloads::matmul_chain::default_bindings()),
    )
    .unwrap();
    assert_eq!(fresh.verdict.label(), record.label);
    assert_eq!(fresh.trials_to_detection, record.trial);
    match &fresh.verdict {
        Verdict::SemanticChange { case: c, .. } => assert_eq!(c.to_json(), case.to_json()),
        other => panic!("expected a semantic change, got {other:?}"),
    }
}

/// Tentpole acceptance: a `lanes > 1` min/max workload — rejected by the
/// scalar JIT tier as `Vectorized`/`UnsupportedOp` before packed
/// emission — now runs packed native code during a campaign (the report
/// tallies the split), and warm re-runs stay byte-identical modulo the
/// live cache/jit tallies with zero native recompilation.
#[test]
fn vectorized_minmax_campaign_runs_packed_native() {
    let _counters = counters_lock();
    let session = Campaign::new("packed_minmax")
        .with_workload(
            "cloudsc_like",
            fuzzyflow::workloads::cloudsc_like(),
            fuzzyflow::workloads::cloudsc::default_bindings(),
        )
        .with_transformation(Box::new(Vectorization::new(4)))
        .with_verify(VerifyConfig::new().with_trials(10).with_size_max(8))
        .session();
    let cold = session.run(&NullSink);
    assert!(cold.completed() > 0, "vectorization found no instances");
    if cfg!(all(unix, target_arch = "x86_64")) {
        assert!(
            cold.caches.jit_packed_runs > 0,
            "no packed native runs recorded: {:?}",
            cold.caches
        );
    }
    let warm = session.run(&NullSink);
    assert_eq!(
        format!("{:?}", sans_caches(&warm)),
        format!("{:?}", sans_caches(&cold)),
        "warm report differs beyond cache tallies"
    );
    assert_eq!(warm.caches.code_compiles, 0, "{:?}", warm.caches);
    assert_eq!(warm.caches.code_bytes, 0, "{:?}", warm.caches);
}

/// [`MapTiling`] that panics when asked to apply one chosen match — an
/// instance-level defect among sound instances.
struct PanickyTiling {
    inner: MapTiling,
    panic_on: Option<String>,
}

impl Transformation for PanickyTiling {
    fn name(&self) -> &'static str {
        "PanickyTiling"
    }

    fn description(&self) -> &'static str {
        self.inner.description()
    }

    fn find_matches(&self, sdfg: &Sdfg) -> Vec<fuzzyflow::transforms::TransformationMatch> {
        self.inner.find_matches(sdfg)
    }

    fn apply(
        &self,
        sdfg: &mut Sdfg,
        m: &fuzzyflow::transforms::TransformationMatch,
    ) -> Result<fuzzyflow::transforms::ChangeSet, fuzzyflow::transforms::TransformError> {
        if self.panic_on.as_ref() == Some(&m.description) {
            panic!("tiling blew up on {}", m.description);
        }
        self.inner.apply(sdfg, m)
    }
}

/// A panicking instance is that instance's pipeline error, not a lost
/// campaign: the run completes at every thread width, the row is kind
/// `panic` with the payload as its message, every other row is
/// byte-identical to the same campaign without the panic, and a warm
/// re-run replays the cached error instead of panicking again.
#[test]
fn panicking_instance_is_a_pipeline_error_not_a_lost_campaign() {
    let program = fuzzyflow::workloads::matmul_chain();
    let doomed = MapTiling::new(4).find_matches(&program)[1]
        .description
        .clone();
    let campaign = |panic_on: Option<String>, threads: usize| {
        Campaign::new("panicky")
            .with_workload(
                "matmul_chain",
                fuzzyflow::workloads::matmul_chain(),
                fuzzyflow::workloads::matmul_chain::default_bindings(),
            )
            .with_transformations(vec![
                Box::new(MapTiling::new(4)),
                Box::new(PanickyTiling {
                    inner: MapTiling::new(4),
                    panic_on,
                }),
            ])
            .with_verify(VerifyConfig::new().with_trials(15).with_size_max(8))
            .with_threads(threads)
    };
    let sound = campaign(None, 1).session().run(&NullSink);
    assert_eq!(sound.completed(), 6);
    assert!(sound.instances.iter().all(|i| i.label == "ok"));

    for threads in [1usize, 2, 8] {
        let session = campaign(Some(doomed.clone()), threads).session();
        let sink = CollectingSink::new();
        let report = session.run(&sink);
        assert_eq!(report.completed(), 6, "threads={threads}");
        assert_eq!(report.status, StopReason::Completed);
        let panicked: Vec<&_> = report
            .instances
            .iter()
            .filter(|i| i.error.as_ref().is_some_and(|e| e.kind == "panic"))
            .collect();
        assert_eq!(panicked.len(), 1, "threads={threads}");
        let row = panicked[0];
        assert_eq!(row.label, "pipeline error");
        assert_eq!(row.transformation, "PanickyTiling");
        assert_eq!(row.match_description, doomed);
        assert_eq!(
            row.error.as_ref().unwrap().message,
            format!("tiling blew up on {doomed}")
        );
        for (got, want) in report.instances.iter().zip(&sound.instances) {
            if got.index != row.index {
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "threads={threads}: a sound row changed"
                );
            }
        }
        let events = sink.take();
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::PipelineError { index, .. } if *index == row.index)));
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, Event::InstanceFinished { .. }))
                .count(),
            6
        );
        let parsed = CampaignReport::from_json(&report.to_json()).expect("parses");
        assert_eq!(parsed, report, "the panic row round-trips");

        // The error is a complete cache entry like any other: the warm
        // run prepares nothing and reports the same rows.
        assert_eq!(session.cached_instances(), 6);
        let warm = session.run(&NullSink);
        assert_eq!(session.prepared_instances(), 6);
        assert!(warm.instances == report.instances, "threads={threads}");
    }
}

/// Cross-commit byte identity: the one-shot report of a small campaign
/// with sound, crashing, semantic-change and invalid-code rows hashes to
/// a pinned value. Without the `fusion` line the hash is
/// host-independent and has held since the verification paths were
/// unified; with it (JIT eligibility is host-specific) the constant is
/// pinned for x86_64 unix hosts and moves only when fusion eligibility
/// does.
#[test]
fn pinned_one_shot_report_fingerprint() {
    let _counters = counters_lock();
    let report = Campaign::new("pinned")
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
        .with_verify(
            VerifyConfig::new()
                .with_trials(12)
                .with_size_max(8)
                .with_seed(0xF1A9),
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
    assert_eq!(
        common::report_fingerprint(&report, &["caches", "fusion"]),
        PINNED_ONE_SHOT_VERDICTS
    );
    if cfg!(all(unix, target_arch = "x86_64")) {
        assert_eq!(
            common::report_fingerprint(&report, &["caches"]),
            PINNED_ONE_SHOT_FINGERPRINT
        );
    }
}

const PINNED_ONE_SHOT_VERDICTS: u64 = 0xcd43_d095_cebb_5b4c;
const PINNED_ONE_SHOT_FINGERPRINT: u64 = 0xc6b1_edc7_7188_7d67;
