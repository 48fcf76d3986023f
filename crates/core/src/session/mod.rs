//! Campaign sessions: the streaming, resumable verification service API.
//!
//! The paper's workflow (Fig. 1) is a long-running *campaign* —
//! thousands of transformation instances × fuzzing trials over whole
//! benchmark suites. This module is the service-shaped top of the
//! stack:
//!
//! * a [`Campaign`] builder declares the work — workloads ×
//!   transformations × an instance filter × a [`VerifyConfig`] × budgets;
//! * a [`Session`] executes it on the shared
//!   [`WorkerPool`], streaming structured
//!   [`Event`]s through an [`EventSink`] while running;
//! * trial/time/instance budgets and a cooperative [`CancelToken`] stop
//!   the run early with a **deterministic prefix**: the completed
//!   instances are a contiguous, index-ordered prefix of the work list,
//!   each byte-identical to the same index of an uninterrupted run;
//! * compiled artifacts — cutout pairs, compiled
//!   [`Program`](fuzzyflow_interp::Program)s, executor arenas — are
//!   cached per instance across [`Session::run`] calls, so re-verifying
//!   an unchanged campaign skips pipeline steps 1–4 and constructs
//!   **zero** fresh executor arenas;
//! * a cold run prepares once per program and extracts once per change
//!   set: every instance of a workload reads one
//!   [`ProgramAnalysis`] (built inside
//!   the run by the first instance that needs it), and instances whose
//!   transformations report the same ΔT share one extracted, minimized
//!   cutout with its constraints and compiled original
//!   ([`Session::extracted_cutouts`]); applying, replaying, validating
//!   and compiling the transformed side, and the arenas, stay per
//!   instance, and [`Session::prepared_instances`] still counts one
//!   preparation per instance;
//! * each run yields a serializable [`CampaignReport`] with structured
//!   errors and bit-exact, replayable test cases.
//!
//! [`verify_instance`](crate::verify_instance) is the one-instance entry
//! point over the same two steps a session runs per instance (prepare,
//! then trials through the one differential oracle,
//! [`fuzzyflow_fuzz::judge`]), so its verdict is the campaign's row for
//! that instance.
//!
//! ```
//! use fuzzyflow::session::{Campaign, Event};
//! use fuzzyflow::VerifyConfig;
//! use fuzzyflow_transforms::{MapTiling, MapTilingOffByOne};
//!
//! let session = Campaign::new("tiling-audit")
//!     .with_workload(
//!         "matmul_chain",
//!         fuzzyflow_workloads::matmul_chain(),
//!         fuzzyflow_workloads::matmul_chain::default_bindings(),
//!     )
//!     .with_transformation(Box::new(MapTiling::new(4)))
//!     .with_transformation(Box::new(MapTilingOffByOne::new(4)))
//!     .with_verify(VerifyConfig::new().with_trials(25).with_size_max(10))
//!     .session();
//! let report = session.run(&|e: &Event| {
//!     if let Event::FaultFound { index, label, .. } = e {
//!         println!("instance {index}: {label}");
//!     }
//! });
//! assert_eq!(report.completed(), 6); // 3 GEMMs × 2 passes
//! assert_eq!(report.fault_count(), 3); // the off-by-one pass
//! // Warm re-run: cached artifacts, byte-identical report — except the
//! // `caches` block, whose live counters are the point: the warm run
//! // compiled zero programs and emitted zero bytes of native code.
//! let warm = session.run(&fuzzyflow::session::NullSink);
//! assert_eq!(warm.caches.program_compiles, 0);
//! assert_eq!(warm.caches.code_bytes, 0);
//! let (mut a, mut b) = (warm, report);
//! a.caches = Default::default();
//! b.caches = Default::default();
//! assert_eq!(a, b);
//! ```

mod drive;
mod event;
mod report;

pub use drive::{CancelToken, SessionBudget, StopReason};
pub use event::{CollectingSink, Event, EventSink, NullSink};
pub use fuzzyflow_evo::EvolveConfig;
pub use report::{
    BucketRecord, CacheTally, CampaignReport, ErrorRecord, FaultRecord, FusionTally,
    InstanceReport, ReportConfig, ReportParseError, TableRow, TriageReport,
};

use crate::verify::{
    catch_panic, prepare_instance, run_prepared, CutoutMemo, PreparedInstance, VerifyConfig,
    VerifyError,
};
use fuzzyflow_cutout::ProgramAnalysis;
use fuzzyflow_evo::{EvoEvent, EvolutionFuzzer};
use fuzzyflow_fuzz::{rng_split, DiffReport, Verdict};
use fuzzyflow_ir::{Bindings, Sdfg};
use fuzzyflow_pool::{resolve_threads, WorkerPool};
use fuzzyflow_transforms::{Transformation, TransformationMatch};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Identity of one enumerated instance, handed to campaign filters.
#[derive(Clone, Copy, Debug)]
pub struct InstanceMeta<'a> {
    pub workload: &'a str,
    pub transformation: &'a str,
    pub match_description: &'a str,
}

type InstanceFilter = Box<dyn Fn(&InstanceMeta<'_>) -> bool + Send + Sync>;

/// Declares a verification campaign: which workloads, which
/// transformations, which instances, under which configuration and
/// budgets. Built fluently, then turned into a [`Session`] with
/// [`Campaign::session`].
pub struct Campaign {
    name: String,
    workloads: Vec<(String, Sdfg, Bindings)>,
    transformations: Vec<Box<dyn Transformation>>,
    filter: Option<InstanceFilter>,
    verify: VerifyConfig,
    evolve: Option<EvolveConfig>,
    threads: usize,
    budget: SessionBudget,
}

impl Campaign {
    /// An empty campaign with default configuration and no budgets.
    pub fn new(name: impl Into<String>) -> Campaign {
        Campaign {
            name: name.into(),
            workloads: Vec::new(),
            transformations: Vec::new(),
            filter: None,
            verify: VerifyConfig::default(),
            evolve: None,
            threads: 0,
            budget: SessionBudget::unlimited(),
        }
    }

    /// Adds a workload; `bindings` concretizes min-cut capacities when
    /// [`VerifyConfig::concretization`] is unset.
    pub fn with_workload(
        mut self,
        name: impl Into<String>,
        sdfg: Sdfg,
        bindings: Bindings,
    ) -> Campaign {
        self.workloads.push((name.into(), sdfg, bindings));
        self
    }

    /// Adds one transformation under test.
    pub fn with_transformation(mut self, t: Box<dyn Transformation>) -> Campaign {
        self.transformations.push(t);
        self
    }

    /// Adds a whole suite of transformations.
    pub fn with_transformations(mut self, ts: Vec<Box<dyn Transformation>>) -> Campaign {
        self.transformations.extend(ts);
        self
    }

    /// Keeps only instances the predicate accepts (applied at
    /// enumeration time, before any instance runs).
    pub fn with_filter(
        mut self,
        f: impl Fn(&InstanceMeta<'_>) -> bool + Send + Sync + 'static,
    ) -> Campaign {
        self.filter = Some(Box::new(f));
        self
    }

    /// Sets the per-instance verification configuration.
    pub fn with_verify(mut self, verify: VerifyConfig) -> Campaign {
        self.verify = verify;
        self
    }

    /// Switches the campaign to evolution mode: instead of independent
    /// one-shot sampling, each instance runs a coverage-guided
    /// evolutionary loop (corpus + mutators + bisection triage). The run
    /// streams [`Event::Novelty`], [`Event::CorpusGrowth`] and
    /// [`Event::FaultBucket`] in addition to the usual lifecycle events,
    /// and the report carries a [`TriageReport`] of deduplicated fault
    /// classes. [`VerifyConfig`] still supplies tolerance, size ceiling
    /// and concretization; `evolve` supplies the trial budget, fault cap
    /// and evolution seed.
    pub fn with_evolve(mut self, evolve: EvolveConfig) -> Campaign {
        self.evolve = Some(evolve);
        self
    }

    /// Caps concurrent instances on the shared pool (`0` = one per core).
    pub fn with_threads(mut self, threads: usize) -> Campaign {
        self.threads = threads;
        self
    }

    /// Sets all budgets at once.
    pub fn with_budget(mut self, budget: SessionBudget) -> Campaign {
        self.budget = budget;
        self
    }

    /// Caps the number of instances run (exact prefix).
    pub fn with_max_instances(mut self, n: usize) -> Campaign {
        self.budget.max_items = Some(n);
        self
    }

    /// Caps the total fuzzing trials executed across instances.
    pub fn with_max_trials(mut self, trials: u64) -> Campaign {
        self.budget.max_cost = Some(trials);
        self
    }

    /// Stops claiming instances after a wall-clock limit.
    pub fn with_time_limit(mut self, limit: Duration) -> Campaign {
        self.budget.time_limit = Some(limit);
        self
    }

    /// Enumerates the instances (workload-major, then transformation,
    /// then match order) and returns the executable session. The
    /// campaign is immutable from here on, which is what makes the
    /// instance index a stable identity for the session's artifact cache.
    pub fn session(self) -> Session {
        let mut specs = Vec::new();
        for (wi, (name, sdfg, _)) in self.workloads.iter().enumerate() {
            for (ti, t) in self.transformations.iter().enumerate() {
                for m in t.find_matches(sdfg) {
                    let keep = self.filter.as_ref().is_none_or(|f| {
                        f(&InstanceMeta {
                            workload: name,
                            transformation: t.name(),
                            match_description: &m.description,
                        })
                    });
                    if keep {
                        specs.push(Spec {
                            workload: wi,
                            transformation: ti,
                            m,
                        });
                    }
                }
            }
        }
        // Each workload's bindings concretize its min-cut capacities
        // unless the campaign's configuration names its own.
        let verify = self
            .workloads
            .iter()
            .map(|(_, _, bindings)| {
                let mut vcfg = self.verify.clone();
                vcfg.concretization.get_or_insert_with(|| bindings.clone());
                vcfg
            })
            .collect();
        let cutouts = self
            .workloads
            .iter()
            .map(|_| CutoutMemo::default())
            .collect();
        Session {
            campaign: self,
            specs,
            verify,
            cutouts,
            cache: Mutex::new(HashMap::new()),
            prepares: AtomicUsize::new(0),
            run_lock: Mutex::new(()),
        }
    }
}

/// One enumerated instance of a campaign, by index into its owner.
struct Spec {
    workload: usize,
    transformation: usize,
    m: TransformationMatch,
}

/// Cached outcome of the prepare pipeline for one instance.
type PreparedEntry = Arc<Result<PreparedInstance, VerifyError>>;

/// The per-session artifact cache, keyed by instance index (stable
/// because the owning campaign is immutable).
type SessionCache = Mutex<HashMap<usize, PreparedEntry>>;

/// An executable campaign. Each [`Session::run`] call executes the whole
/// work list (or the budgeted/uncancelled prefix of it); compiled
/// artifacts persist in the session across calls, so repeat runs are
/// warm: pipeline steps 1–4 are skipped and executor arenas are checked
/// back out of the per-instance stashes instead of being constructed.
pub struct Session {
    campaign: Campaign,
    specs: Vec<Spec>,
    /// The campaign's [`VerifyConfig`] resolved per workload.
    verify: Vec<VerifyConfig>,
    /// Per workload: change set → the cutout every instance with that
    /// change set shares (pipeline steps 2–3, extracted once).
    cutouts: Vec<CutoutMemo>,
    cache: SessionCache,
    prepares: AtomicUsize,
    /// Serializes whole runs: two concurrent `run` calls on one session
    /// would race each other for the per-instance arena stashes
    /// (draining them and constructing fresh arenas) and duplicate cold
    /// preparations — see [`Session::run_on`].
    run_lock: Mutex<()>,
}

impl Session {
    /// Number of enumerated instances (after filtering).
    pub fn instance_count(&self) -> usize {
        self.specs.len()
    }

    /// The campaign's name.
    pub fn campaign_name(&self) -> &str {
        &self.campaign.name
    }

    /// Cumulative count of cold pipeline preparations (steps 1–4 +
    /// compile) performed by this session. A warm re-run leaves this
    /// unchanged — the observable behind the benchmark's `core.prepares`.
    pub fn prepared_instances(&self) -> usize {
        self.prepares.load(Ordering::Relaxed)
    }

    /// Cumulative count of cutouts this session extracted (pipeline
    /// steps 2–3): one per distinct `(workload, change set)`, however
    /// many instances share it — three tiling passes over three GEMMs
    /// prepare nine instances from three cutouts.
    pub fn extracted_cutouts(&self) -> usize {
        self.cutouts.iter().map(CutoutMemo::extractions).sum()
    }

    /// Number of instances whose compiled artifacts are currently cached.
    pub fn cached_instances(&self) -> usize {
        self.cache.lock().expect("session cache poisoned").len()
    }

    /// Drops every cached artifact (the next run is cold again).
    pub fn clear_cache(&self) {
        self.cache.lock().expect("session cache poisoned").clear();
        self.cutouts.iter().for_each(CutoutMemo::clear);
    }

    /// Runs the campaign on the process-wide pool, streaming events into
    /// `sink`, and returns the serializable report.
    pub fn run(&self, sink: &dyn EventSink) -> CampaignReport {
        self.run_on(WorkerPool::global(), sink, None)
    }

    /// [`Session::run`] with a cooperative [`CancelToken`]: cancellation
    /// stops new instances from being claimed; in-flight instances
    /// complete, preserving the deterministic prefix.
    pub fn run_cancellable(&self, sink: &dyn EventSink, cancel: &CancelToken) -> CampaignReport {
        self.run_on(WorkerPool::global(), sink, Some(cancel))
    }

    /// [`Session::run`] against an explicit pool (benchmarks, tests).
    ///
    /// Runs on one session are serialized: a second concurrent call
    /// blocks until the first completes. Overlapping runs would race for
    /// the per-instance arena stashes (draining them, constructing fresh
    /// arenas, and growing the retained set) and could prepare the same
    /// cold instance twice — serializing preserves the warm-run
    /// guarantees (zero preparations, zero fresh arenas) for every call.
    /// Cancel a run via its [`CancelToken`] instead of racing it.
    pub fn run_on(
        &self,
        pool: &WorkerPool,
        sink: &dyn EventSink,
        cancel: Option<&CancelToken>,
    ) -> CampaignReport {
        let _exclusive = self.run_lock.lock().expect("session run lock poisoned");
        let prog0 = fuzzyflow_interp::shared_cache_stats();
        let code0 = fuzzyflow_interp::jit_emissions();
        let jit0 = fuzzyflow_interp::jit_native_runs_split();

        // One dataflow analysis per workload, built by the first of its
        // instances that has to prepare (a warm run builds none) and
        // read by all the others.
        let analyses: Vec<OnceLock<ProgramAnalysis<'_>>> = self
            .campaign
            .workloads
            .iter()
            .map(|_| OnceLock::new())
            .collect();

        let n = self.specs.len();
        sink.on_event(&Event::SessionStarted { instances: n });
        let outcome = drive::drive(
            pool,
            n,
            resolve_threads(self.campaign.threads),
            &self.campaign.budget,
            cancel,
            |i| {
                let result = self.run_instance(pool, sink, &analyses, i);
                let cost = result.0.trials_run as u64;
                (result, cost)
            },
        );
        sink.on_event(&Event::SessionFinished {
            completed: outcome.results.len(),
            total: n,
            stop: outcome.stop,
        });
        let (instances, triaged): (Vec<_>, Vec<_>) = outcome.results.into_iter().unzip();

        // Fusion eligibility over the completed prefix, folded from the
        // cached compiled programs in index order — a deterministic
        // function of the prefix, so warm and cold runs report the same
        // tally byte for byte.
        let mut fusion = FusionTally::default();
        {
            let cache = self.cache.lock().expect("session cache poisoned");
            for r in &instances {
                let Some(entry) = cache.get(&r.index) else {
                    continue;
                };
                if let Ok(prep) = entry.as_ref() {
                    if let Some((orig, trans)) = &prep.programs {
                        fusion.absorb(&orig.tasklet_stats().maps);
                        fusion.absorb(&trans.tasklet_stats().maps);
                    }
                }
            }
        }
        // Cache activity over the run: counter deltas around it. The
        // counters are process-wide, so concurrent foreign sessions bleed
        // into the tally (see `CacheTally`); the run lock keeps this
        // session's own runs serialized.
        let prog1 = fuzzyflow_interp::shared_cache_stats();
        let code1 = fuzzyflow_interp::jit_emissions();
        let jit1 = fuzzyflow_interp::jit_native_runs_split();
        // Kernels own their native code, so a native run either emits
        // (a miss) or reuses its kernel's code (a hit), and nothing is
        // ever evicted.
        let emissions = code1.0 - code0.0;
        let (jit_scalar_runs, jit_packed_runs) = (jit1.0 - jit0.0, jit1.1 - jit0.1);
        let caches = CacheTally {
            program_hits: prog1.hits - prog0.hits,
            program_misses: prog1.misses - prog0.misses,
            program_evictions: prog1.evictions - prog0.evictions,
            program_compiles: prog1.compiles - prog0.compiles,
            code_hits: (jit_scalar_runs + jit_packed_runs).saturating_sub(emissions),
            code_misses: emissions,
            code_evictions: 0,
            code_compiles: emissions,
            code_bytes: code1.1 - code0.1,
            jit_scalar_runs,
            jit_packed_runs,
        };
        // Evolution mode: fold every instance's triage buckets, in
        // index order, into the report's campaign-wide triage object.
        let triage = self.campaign.evolve.as_ref().map(|_| {
            let mut t = TriageReport::default();
            for part in triaged.into_iter().flatten() {
                t.faults_found += part.faults_found;
                t.buckets.extend(part.buckets);
            }
            t
        });
        CampaignReport {
            campaign: self.campaign.name.clone(),
            status: outcome.stop,
            total_instances: n,
            trials_spent: outcome.cost_spent,
            config: ReportConfig::from_verify(&self.campaign.verify, self.campaign.threads),
            fusion,
            caches,
            triage,
            instances,
        }
    }

    /// Fetches (or computes and caches) the prepared artifacts of
    /// instance `index`; the flag says whether they came from the cache.
    fn prepared_entry<'s>(
        &'s self,
        analyses: &[OnceLock<ProgramAnalysis<'s>>],
        index: usize,
    ) -> (PreparedEntry, bool) {
        if let Some(entry) = self
            .cache
            .lock()
            .expect("session cache poisoned")
            .get(&index)
        {
            return (Arc::clone(entry), true);
        }
        self.prepares.fetch_add(1, Ordering::Relaxed);
        let spec = &self.specs[index];
        let vcfg = &self.verify[spec.workload];
        // A panic while preparing is cached like any other pipeline
        // error: a complete `Err` entry, never a half-built one.
        let prepared = catch_panic(|| {
            let analysis = analyses[spec.workload].get_or_init(|| {
                let (_, sdfg, _) = &self.campaign.workloads[spec.workload];
                ProgramAnalysis::new(sdfg, vcfg.size_max.max(1))
            });
            prepare_instance(
                analysis,
                self.campaign.transformations[spec.transformation].as_ref(),
                &spec.m,
                vcfg,
                &self.cutouts[spec.workload],
            )
        });
        let entry = Arc::new(prepared.flatten());
        self.cache
            .lock()
            .expect("session cache poisoned")
            .insert(index, Arc::clone(&entry));
        (entry, false)
    }

    /// Verifies instance `index` — prepare (or fetch from the cache),
    /// then one-shot trials or the evolutionary loop — streaming its
    /// lifecycle events, and returns its report record plus, in
    /// evolution mode, its triage buckets.
    fn run_instance<'s>(
        &'s self,
        pool: &WorkerPool,
        sink: &dyn EventSink,
        analyses: &[OnceLock<ProgramAnalysis<'s>>],
        index: usize,
    ) -> (InstanceReport, Option<TriageReport>) {
        let spec = &self.specs[index];
        let (workload, _, _) = &self.campaign.workloads[spec.workload];
        let t = self.campaign.transformations[spec.transformation].as_ref();
        let vcfg = &self.verify[spec.workload];
        sink.on_event(&Event::InstanceStarted {
            index,
            workload: workload.clone(),
            transformation: t.name().to_string(),
            match_description: spec.m.description.clone(),
        });

        let (entry, cached) = self.prepared_entry(analyses, index);
        let mut report = InstanceReport {
            index,
            workload: workload.clone(),
            transformation: t.name().to_string(),
            match_description: spec.m.description.clone(),
            label: "pipeline error".to_string(),
            trials_run: 0,
            trials_to_detection: None,
            cutout_nodes: 0,
            program_nodes: 0,
            mincut_reduction: None,
            system_state: Vec::new(),
            input_config: Vec::new(),
            error: None,
            fault: None,
        };
        // Trials run behind the same unwind boundary as prepare: a panic
        // in either is this instance's pipeline error, not the campaign's.
        let ran = match entry.as_ref() {
            Err(error) => Err(error.clone()),
            Ok(prepared) => catch_panic(|| match &self.campaign.evolve {
                // Evolution mode replaces the one-shot trial batch;
                // invalid instances still fall through so they
                // classify as "generates invalid code" either way.
                Some(ecfg) if prepared.invalid.is_none() => {
                    let (diff, buckets) = run_evolved(prepared, ecfg, vcfg, sink, index);
                    (diff, Some(buckets))
                }
                _ => {
                    let total = vcfg.trials;
                    let chunk = (total / 4).max(1);
                    let progress = |done: usize| {
                        if done.is_multiple_of(chunk) || done == total {
                            sink.on_event(&Event::TrialProgress {
                                index,
                                trials_done: done,
                                trials_total: total,
                            });
                        }
                    };
                    (run_prepared(prepared, vcfg, pool, Some(&progress)), None)
                }
            })
            .map(|(diff, buckets)| (prepared, diff, buckets)),
        };
        let triage = match ran {
            Err(error) => {
                report.error = Some(ErrorRecord {
                    kind: error.kind().to_string(),
                    message: error.detail(),
                });
                sink.on_event(&Event::PipelineError { index, error });
                None
            }
            Ok((prepared, diff, buckets)) => {
                report.label = diff.verdict.label().to_string();
                report.trials_run = diff.trials_run;
                report.trials_to_detection = diff.trials_to_detection;
                let shared = &prepared.shared;
                report.cutout_nodes = shared.cutout.stats.nodes;
                report.program_nodes = prepared.program_nodes;
                report.mincut_reduction = shared.mincut.as_ref().map(|m| m.reduction());
                report.system_state = shared.cutout.system_state.clone();
                report.input_config = shared.cutout.input_config.clone();
                report.fault = FaultRecord::from_verdict(diff.verdict);
                if let Some(fault) = &report.fault {
                    sink.on_event(&Event::FaultFound {
                        index,
                        label: fault.label.clone(),
                        trial: fault.trial,
                        detail: fault.detail.clone(),
                    });
                }
                buckets
            }
        };
        sink.on_event(&Event::InstanceFinished {
            index,
            label: report.label.clone(),
            is_fault: report.is_fault(),
            trials_run: report.trials_run,
            cached,
        });
        (report, triage)
    }
}

/// Runs one prepared instance in evolution mode: a coverage-guided
/// mutation loop with bisection triage, in place of the one-shot trial
/// batch. Each instance derives its own evolution seed from the
/// campaign's evolve+verify seeds and its work-list index, and the loop
/// itself is sequential and deterministic — so reports stay
/// byte-identical for every thread count, exactly like the one-shot
/// path. Arenas come from the instance's stash (warm evolution runs
/// construct zero fresh arenas), and the streamed [`EvoEvent`]s are
/// re-emitted as session [`Event`]s tagged with the instance index.
/// The earliest fault is the instance verdict; the triage buckets carry
/// the rest.
fn run_evolved(
    prepared: &PreparedInstance,
    ecfg: &EvolveConfig,
    vcfg: &VerifyConfig,
    sink: &dyn EventSink,
    index: usize,
) -> (DiffReport, TriageReport) {
    let (orig, trans) = prepared
        .programs
        .as_ref()
        .expect("valid instances always compile");
    let fuzzer = EvolutionFuzzer {
        trials: ecfg.trials,
        max_faults: ecfg.max_faults,
        seed: rng_split(ecfg.seed ^ vcfg.seed, index as u64),
        tolerance: vcfg.tolerance,
        size_max: vcfg.size_max,
        ..EvolutionFuzzer::default()
    };
    let no_bindings = Bindings::default();
    let seed_bindings = vcfg.concretization.as_ref().unwrap_or(&no_bindings);
    let mut observe = |e: &EvoEvent| match e {
        EvoEvent::Novelty { trial, edges_seen } => sink.on_event(&Event::Novelty {
            index,
            trial: *trial,
            edges_seen: *edges_seen,
        }),
        EvoEvent::CorpusGrowth { trial, corpus_size } => sink.on_event(&Event::CorpusGrowth {
            index,
            trial: *trial,
            corpus_size: *corpus_size,
        }),
        EvoEvent::FaultBucket {
            culprit,
            kind,
            container,
            duplicates,
        } => sink.on_event(&Event::FaultBucket {
            index,
            culprit: culprit.clone(),
            kind: kind.clone(),
            container: container.clone(),
            duplicates: *duplicates,
        }),
        _ => {}
    };
    let out = fuzzer.evolve(
        &prepared.shared.cutout,
        orig,
        trans,
        &prepared.shared.constraints,
        seed_bindings,
        Some(&prepared.arenas),
        &mut observe,
    );

    let verdict = match &out.first_fault {
        _ if out.seed_rejected => Verdict::Inconclusive {
            reason: "original cutout rejected the seed input".to_string(),
        },
        Some(f) => f
            .outcome
            .fault_verdict(&prepared.shared.cutout.sdfg.name, f.trial, &f.state)
            .expect("collected faults are faults"),
        None => Verdict::Equivalent {
            trials: out.trials_run,
        },
    };
    let diff = DiffReport {
        verdict,
        trials_run: out.trials_run,
        resamples: 0,
        trials_to_detection: out.first_fault.as_ref().map(|f| f.trial),
    };
    let triage = TriageReport {
        faults_found: out.faults_found,
        buckets: out
            .buckets
            .into_iter()
            .map(|b| BucketRecord {
                instance: index,
                culprit: b.culprit,
                kind: b.kind,
                container: b.container,
                label: b.label,
                trial: b.trial,
                duplicates: b.duplicates,
                representative: b.representative,
            })
            .collect(),
    };
    (diff, triage)
}
