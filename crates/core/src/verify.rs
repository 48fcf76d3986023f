//! The end-to-end verification pipeline (paper Fig. 1).

use fuzzyflow_cutout::{refind_match, Cutout, CutoutStats, MinCutOutcome, ProgramAnalysis};
use fuzzyflow_fuzz::{
    derive_constraints_with_loops, ArenaStash, Constraints, DiffReport, DiffTester, Verdict,
};
use fuzzyflow_interp::{compile_shared, Program};
use fuzzyflow_ir::{validate, Bindings, Sdfg};
use fuzzyflow_pool::WorkerPool;
use fuzzyflow_transforms::{ChangeSet, TransformError, Transformation, TransformationMatch};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Configuration for one verification run.
///
/// # Thread knobs and the shared worker pool
///
/// All parallelism in the verification stack — campaign instances
/// ([`Campaign::with_threads`](crate::session::Campaign::with_threads)),
/// differential trial batches ([`VerifyConfig::trial_threads`]) and
/// distributed rank gangs — executes on one process-wide [`WorkerPool`]
/// with a fixed worker per core. The knobs therefore do not size
/// independent thread sets that could oversubscribe each other; each
/// knob only caps how many pool participants that layer may occupy at
/// once:
///
/// * `trial_threads = 0` (default): trial batches may use every pool
///   worker. Inside a campaign this is safe — instances and trials share
///   the same workers, so an instance's trials simply soak up whatever
///   capacity other instances leave idle (there is no nested spawning
///   and no oversubscription).
/// * `trial_threads = 1`: trials run sequentially on whichever thread
///   verifies the instance.
/// * any other value: at most that many concurrent participants.
///
/// Verdicts and reports are byte-identical for every setting of every
/// knob: work is keyed by instance index and trial index, each trial
/// derives its PRNG stream from its index, and results are assembled in
/// index order (the pool's determinism contract).
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct VerifyConfig {
    /// Fuzzing trials per instance (paper uses 100 for CLOUDSC).
    pub trials: usize,
    /// Numerical threshold `t_Δ` (paper: 1e-5; `0.0` = bit-exact).
    pub tolerance: f64,
    /// PRNG seed — reports replay exactly.
    pub seed: u64,
    /// Maximum sampled size for size symbols.
    pub size_max: i64,
    /// Run the minimum input-flow cut (Sec. 4) before fuzzing.
    pub minimize: bool,
    /// Symbol values used to concretize min-cut capacities (Sec. 4.2:
    /// "we concretize the symbol values ... with constant values that may
    /// be provided by the user"). Falls back to `size_max` per symbol.
    pub concretization: Option<Bindings>,
    /// Extra engineer-provided sampling constraints `(symbol, lo, hi)`.
    pub custom_constraints: Vec<(String, i64, i64)>,
    /// Concurrent pool participants for the differential trial batches
    /// (`0` = no cap beyond the pool size, `1` = sequential). Verdicts
    /// are identical for every setting; see [`DiffTester::threads`] and
    /// the struct-level docs on how this shares the worker pool with the
    /// campaign driver.
    pub trial_threads: usize,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            trials: 100,
            tolerance: 1e-5,
            seed: 0x5EED_F00D,
            size_max: 16,
            minimize: true,
            concretization: None,
            custom_constraints: Vec::new(),
            trial_threads: 0,
        }
    }
}

/// Builder-style setters. The struct is `#[non_exhaustive]`, so
/// downstream crates configure runs as
/// `VerifyConfig::new().with_trials(40).with_size_max(12)` — adding a
/// knob is then never a breaking change.
impl VerifyConfig {
    /// The default configuration (same as [`VerifyConfig::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the fuzzing trial budget per instance.
    pub fn with_trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the numerical comparison threshold `t_Δ` (`0.0` = bit-exact).
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Sets the PRNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the maximum sampled size for size symbols.
    pub fn with_size_max(mut self, size_max: i64) -> Self {
        self.size_max = size_max;
        self
    }

    /// Enables/disables the minimum input-flow cut (Sec. 4).
    pub fn with_minimize(mut self, minimize: bool) -> Self {
        self.minimize = minimize;
        self
    }

    /// Sets the symbol concretization used by the min-cut.
    pub fn with_concretization(mut self, bindings: Bindings) -> Self {
        self.concretization = Some(bindings);
        self
    }

    /// Adds an engineer-provided sampling constraint `lo <= symbol <= hi`.
    pub fn with_custom_constraint(mut self, symbol: impl Into<String>, lo: i64, hi: i64) -> Self {
        self.custom_constraints.push((symbol.into(), lo, hi));
        self
    }

    /// Caps concurrent pool participants for trial batches.
    pub fn with_trial_threads(mut self, threads: usize) -> Self {
        self.trial_threads = threads;
        self
    }
}

/// Pipeline failure (before any verdict could be produced).
#[derive(Clone, Debug)]
pub enum VerifyError {
    /// The transformation failed to apply to the full program.
    Apply(TransformError),
    /// Cutout extraction failed.
    Extract(String),
    /// The transformation could not be replayed on the cutout — per the
    /// paper (Sec. 3 step 2) this exposes a transformation that changes
    /// elements outside its reported change set.
    Replay(TransformError),
    /// Preparing or running the instance panicked (the payload's
    /// message); the campaign records it and moves on.
    Panic(String),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Apply(e) => write!(f, "transformation failed to apply: {e}"),
            VerifyError::Extract(e) => write!(f, "cutout extraction failed: {e}"),
            VerifyError::Replay(e) => write!(f, "cutout replay failed: {e}"),
            VerifyError::Panic(e) => write!(f, "instance panicked: {e}"),
        }
    }
}

impl VerifyError {
    /// Stable machine-readable pipeline-stage tag ("apply", "extract",
    /// "replay", "panic") — used by campaign reports so recurring verdicts
    /// can be deduplicated by stage without parsing prose.
    pub fn kind(&self) -> &'static str {
        match self {
            VerifyError::Apply(_) => "apply",
            VerifyError::Extract(_) => "extract",
            VerifyError::Replay(_) => "replay",
            VerifyError::Panic(_) => "panic",
        }
    }

    /// The stage-specific message, without the stage prefix.
    pub fn detail(&self) -> String {
        match self {
            VerifyError::Apply(e) | VerifyError::Replay(e) => e.to_string(),
            VerifyError::Extract(e) | VerifyError::Panic(e) => e.clone(),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Runs `f`, turning a panic anywhere below it into
/// [`VerifyError::Panic`] — the unwind boundary that keeps one bad
/// instance from taking the rest of a campaign with it.
pub(crate) fn catch_panic<T>(f: impl FnOnce() -> T) -> Result<T, VerifyError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        VerifyError::Panic(message)
    })
}

/// Result of verifying one transformation instance.
#[derive(Clone, Debug)]
pub struct VerificationReport {
    pub transformation: String,
    pub match_description: String,
    pub verdict: Verdict,
    /// Size of the extracted cutout.
    pub cutout_stats: CutoutStats,
    /// Deep node count of the whole program, for `c ≪ p` comparisons.
    pub program_nodes: usize,
    /// Input-space minimization outcome (when enabled and applicable).
    pub mincut: Option<MinCutOutcome>,
    /// Trials executed by the differential tester.
    pub trials_run: usize,
    /// 1-based trial at which the fault surfaced.
    pub trials_to_detection: Option<usize>,
    /// Containers compared as the system state.
    pub system_state: Vec<String>,
    /// Containers sampled as the input configuration.
    pub input_config: Vec<String>,
}

/// Verifies a single transformation instance end to end: the prepare
/// pipeline (steps 1–4 + compile), then the differential trials — the
/// same two functions a [`Campaign`](crate::session::Campaign) runs per
/// instance, so the verdict here is the campaign's row for that
/// instance, with the rich [`Verdict`] attached.
pub fn verify_instance(
    program: &Sdfg,
    t: &dyn Transformation,
    m: &TransformationMatch,
    cfg: &VerifyConfig,
) -> Result<VerificationReport, VerifyError> {
    let analysis = ProgramAnalysis::new(program, cfg.size_max.max(1));
    let prepared = prepare_instance(&analysis, t, m, cfg, &CutoutMemo::default())?;
    let diff = run_prepared(&prepared, cfg, WorkerPool::global(), None);
    let shared = &prepared.shared;
    Ok(VerificationReport {
        transformation: t.name().to_string(),
        match_description: m.description.clone(),
        verdict: diff.verdict,
        cutout_stats: shared.cutout.stats.clone(),
        program_nodes: prepared.program_nodes,
        mincut: shared.mincut.clone(),
        trials_run: diff.trials_run,
        trials_to_detection: diff.trials_to_detection,
        system_state: shared.cutout.system_state.clone(),
        input_config: shared.cutout.input_config.clone(),
    })
}

/// What pipeline steps 2–3 and the static half of step 5 produce for one
/// change set: the extracted (and optionally minimized) cutout, the
/// min-cut outcome, the sampling constraints and the compiled original
/// cutout. None of it depends on which transformation reported the
/// change set, so every instance of a program with the same ΔT — the
/// tiling variants and the vectorization of one map, say — shares one.
pub(crate) struct CutoutArtifacts {
    pub cutout: Cutout,
    pub mincut: Option<MinCutOutcome>,
    pub constraints: Constraints,
    /// Compiled by the first instance whose transformed side validates.
    original: OnceLock<Arc<Program>>,
}

type Extracted = Result<Arc<CutoutArtifacts>, VerifyError>;

/// Change set → [`CutoutArtifacts`], for the cutouts of one program under
/// one configuration. Each key owns a fill-once slot: concurrent
/// instances with the same change set wait for one extraction instead of
/// racing or repeating it, and the map lock is never held while
/// extracting. The key is the exact, order-preserving change set, so the
/// shared cutout is the one each instance would have extracted itself.
#[derive(Default)]
pub(crate) struct CutoutMemo {
    slots: Mutex<HashMap<ChangeSet, Arc<OnceLock<Extracted>>>>,
    extractions: AtomicUsize,
}

impl CutoutMemo {
    fn get_or_extract(
        &self,
        changes: &ChangeSet,
        extract: impl FnOnce() -> Extracted,
    ) -> Extracted {
        let slot = {
            let mut slots = self.slots.lock().expect("cutout memo poisoned");
            Arc::clone(slots.entry(changes.clone()).or_default())
        };
        // A panicking `extract` leaves the slot empty, so the next
        // instance with this change set extracts again.
        slot.get_or_init(|| {
            let extracted = extract();
            self.extractions.fetch_add(1, Ordering::Relaxed);
            extracted
        })
        .clone()
    }

    /// Cumulative count of extractions performed (one per distinct key).
    pub fn extractions(&self) -> usize {
        self.extractions.load(Ordering::Relaxed)
    }

    /// Forgets every cutout; instances that hold one keep it alive.
    pub fn clear(&self) {
        self.slots.lock().expect("cutout memo poisoned").clear();
    }
}

/// The compiled artifacts of one verification instance — everything the
/// pipeline produces *before* fuzzing trials run: its change set's
/// shared [`CutoutArtifacts`], the transformed counterpart's compiled
/// program, and the executor-arena stash trials draw from. Campaign
/// sessions cache these across runs keyed by instance identity, so
/// re-verifying an unchanged campaign skips steps 1–4 entirely and
/// constructs zero fresh executor arenas.
pub(crate) struct PreparedInstance {
    pub shared: Arc<CutoutArtifacts>,
    /// Validation errors of the transformed cutout; `Some` short-circuits
    /// trials into the "generates invalid code" verdict.
    pub invalid: Option<Vec<String>>,
    /// Compiled `(original, transformed)` programs (absent only when
    /// `invalid` is set). Shared through the process-wide program cache:
    /// concurrent sessions and warm re-runs preparing the same cutout
    /// pair receive the same `Arc`s and compile nothing.
    pub programs: Option<(Arc<Program>, Arc<Program>)>,
    pub program_nodes: usize,
    /// Per-instance executor-arena pool: trials check arenas out of it
    /// and park them back, so a warm re-run constructs none.
    pub arenas: ArenaStash,
}

/// Pipeline steps 2–3 plus constraint derivation for one change set —
/// the part of prepare every instance with that change set shares.
fn extract_artifacts(
    analysis: &ProgramAnalysis<'_>,
    changes: &ChangeSet,
    cfg: &VerifyConfig,
) -> Extracted {
    // 2. Extract the cutout.
    let mut cutout = analysis
        .extract_cutout(changes)
        .map_err(|e| VerifyError::Extract(e.to_string()))?;

    // 3. Minimize the input configuration (Sec. 4).
    let mut mincut = None;
    if cfg.minimize {
        let fallback;
        let bindings = match &cfg.concretization {
            Some(bindings) => bindings,
            None => {
                let size = cfg.size_max.max(1);
                fallback =
                    Bindings::from_pairs(cutout.input_symbols.iter().map(|s| (s.clone(), size)));
                &fallback
            }
        };
        let (min_c, outcome) = analysis.minimize_input_configuration(cutout, bindings);
        cutout = min_c;
        mincut = Some(outcome);
    }

    // Constraints for gray-box sampling (step 5's static half).
    let mut constraints = derive_constraints_with_loops(&cutout, analysis.loops());
    for (s, lo, hi) in &cfg.custom_constraints {
        constraints.constrain(s.clone(), *lo, *hi);
    }

    Ok(Arc::new(CutoutArtifacts {
        cutout,
        mincut,
        constraints,
        original: OnceLock::new(),
    }))
}

/// Pipeline steps 1–4 plus compilation: everything up to (but excluding)
/// the fuzzing trials. Shared by [`verify_instance`] and campaign
/// sessions — the single prepare path of the stack. `analysis` and
/// `cutouts` belong to the instance's program; a session passes the same
/// pair for every instance of a workload, [`verify_instance`] a fresh one.
pub(crate) fn prepare_instance(
    analysis: &ProgramAnalysis<'_>,
    t: &dyn Transformation,
    m: &TransformationMatch,
    cfg: &VerifyConfig,
    cutouts: &CutoutMemo,
) -> Result<PreparedInstance, VerifyError> {
    // 1. Learn the change set; white-box passes report it without
    //    rewriting (or cloning) the program.
    let changes = t.changes(analysis.sdfg(), m).map_err(VerifyError::Apply)?;

    // 2–3. The change set's cutout: extracted by its first instance.
    let shared = cutouts.get_or_extract(&changes, || extract_artifacts(analysis, &changes, cfg))?;

    // 4. Replay the transformation on the cutout to obtain T(c).
    let translated = refind_match(&shared.cutout, t, m).map_err(VerifyError::Replay)?;
    let mut transformed = shared.cutout.sdfg.clone();
    t.apply(&mut transformed, &translated)
        .map_err(VerifyError::Replay)?;

    // "Generates invalid code" is decided before any execution; valid
    // pairs compile once and the programs are reused for every trial —
    // and, under a session cache, for every re-run.
    let invalid = validate(&transformed)
        .err()
        .map(|errors| errors.iter().map(|e| e.to_string()).collect::<Vec<_>>());
    let programs = invalid.is_none().then(|| {
        let original = shared
            .original
            .get_or_init(|| compile_shared(&shared.cutout.sdfg));
        (Arc::clone(original), compile_shared(&transformed))
    });

    Ok(PreparedInstance {
        program_nodes: analysis.program_nodes(),
        shared,
        invalid,
        programs,
        arenas: ArenaStash::new(),
    })
}

/// Pipeline step 5 over prepared artifacts: the differential fuzzing
/// trials (or the "generates invalid code" report decided at prepare
/// time). Executor arenas come from the instance's own stash, so a warm
/// re-run constructs zero fresh arenas.
pub(crate) fn run_prepared(
    prepared: &PreparedInstance,
    cfg: &VerifyConfig,
    pool: &WorkerPool,
    progress: Option<&(dyn Fn(usize) + Sync)>,
) -> DiffReport {
    if let Some(errors) = &prepared.invalid {
        return DiffTester::invalid_code_report(errors.clone());
    }
    let (orig, trans) = prepared
        .programs
        .as_ref()
        .expect("valid instances always compile");
    let tester = DiffTester {
        trials: cfg.trials,
        tolerance: cfg.tolerance,
        seed: cfg.seed,
        profile: fuzzyflow_fuzz::ValueProfile {
            size_max: cfg.size_max,
            ..Default::default()
        },
        threads: cfg.trial_threads,
        ..Default::default()
    };
    tester.test_compiled(
        pool,
        &prepared.shared.cutout,
        orig,
        trans,
        &prepared.shared.constraints,
        &prepared.arenas,
        progress,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzyflow_transforms::{
        GpuKernelExtraction, LoopUnrolling, MapTiling, MapTilingOffByOne, TaskletFusion,
        Transformation, WriteElimination,
    };
    use fuzzyflow_workloads as wl;

    fn cfg(trials: usize) -> VerifyConfig {
        VerifyConfig {
            trials,
            size_max: 12,
            ..Default::default()
        }
    }

    #[test]
    fn fig2_off_by_one_tiling_found_on_matmul_chain() {
        let p = wl::matmul_chain();
        let t = MapTilingOffByOne::new(4);
        let matches = t.find_matches(&p);
        assert_eq!(matches.len(), 3, "three GEMMs to tile");
        // Second multiplication, as in Fig. 2.
        let report = verify_instance(&p, &t, &matches[1], &cfg(60)).unwrap();
        assert!(
            matches!(report.verdict, Verdict::SemanticChange { .. }),
            "{:?}",
            report.verdict
        );
        // Cutout is much smaller than the program.
        assert!(report.cutout_stats.nodes < report.program_nodes);
        // System state is the second temporary V (read by the third GEMM).
        assert!(report.system_state.contains(&"V".to_string()));
    }

    #[test]
    fn correct_tiling_passes_on_matmul_chain() {
        let p = wl::matmul_chain();
        let t = MapTiling::new(4);
        let matches = t.find_matches(&p);
        let report = verify_instance(&p, &t, &matches[1], &cfg(25)).unwrap();
        assert!(
            matches!(report.verdict, Verdict::Equivalent { .. }),
            "{:?}",
            report.verdict
        );
    }

    #[test]
    fn gpu_extraction_found_on_cloudsc() {
        let p = wl::cloudsc_like();
        let t = GpuKernelExtraction;
        let matches = t.find_matches(&p);
        assert!(matches.len() >= 13, "{} instances", matches.len());
        // A partial-write instance (the condensation adjustment).
        let faulty = matches
            .iter()
            .map(|m| verify_instance(&p, &t, m, &cfg(20)).unwrap())
            .filter(|r| r.verdict.is_fault())
            .count();
        let ratio = faulty as f64 / matches.len() as f64;
        assert!(
            ratio > 0.6 && ratio < 0.95,
            "faulty ratio {ratio} (paper: 48/62 ≈ 0.77)"
        );
    }

    #[test]
    fn loop_unrolling_negative_step_found_on_cloudsc() {
        let p = wl::cloudsc_like();
        let t = LoopUnrolling::default();
        let matches = t.find_matches(&p);
        assert!(matches.len() >= 4, "{} loops", matches.len());
        let mut faulty = 0;
        for m in &matches {
            let r = verify_instance(&p, &t, m, &cfg(20)).unwrap();
            if r.verdict.is_fault() {
                faulty += 1;
            }
        }
        assert_eq!(faulty, 1, "exactly the negative-step loop fails");
    }

    #[test]
    fn write_elimination_one_of_many_found_on_cloudsc() {
        let p = wl::cloudsc_like();
        let t = WriteElimination;
        let matches = t.find_matches(&p);
        assert!(matches.len() >= 6, "{} chains", matches.len());
        let mut faulty = 0;
        for m in &matches {
            let r = verify_instance(&p, &t, m, &cfg(20)).unwrap();
            if r.verdict.is_fault() {
                faulty += 1;
            }
        }
        assert_eq!(faulty, 1, "exactly the live temporary fails");
    }

    #[test]
    fn mincut_reduces_mha_input_space_by_75_percent() {
        let p = wl::mha_encoder();
        let t = fuzzyflow_transforms::Vectorization::new(4);
        let matches = t.find_matches(&p);
        assert_eq!(matches.len(), 1, "the scale loop nest");
        let config = VerifyConfig {
            trials: 5,
            concretization: Some(wl::mha::default_bindings()),
            // Keep sampled sizes small but let the ratio hold.
            size_max: 16,
            ..Default::default()
        };
        let report = verify_instance(&p, &t, &matches[0], &config).unwrap();
        let mc = report.mincut.expect("mincut ran");
        assert!(
            (mc.reduction() - 0.75).abs() < 0.05,
            "input-space reduction {} (paper: 75%)",
            mc.reduction()
        );
        assert!(!mc.added_nodes.is_empty(), "batched matmul absorbed");
    }

    /// An extraction that panics leaves its memo slot empty — not filled
    /// by anything half-built — so the change set's next instance
    /// extracts for itself.
    #[test]
    fn panicking_extraction_leaves_the_memo_slot_empty() {
        let memo = CutoutMemo::default();
        let changes = ChangeSet::default();
        let Err(VerifyError::Panic(message)) =
            catch_panic(|| memo.get_or_extract(&changes, || panic!("mid-extraction")))
        else {
            panic!("the panic must surface as VerifyError::Panic");
        };
        assert_eq!(message, "mid-extraction");
        assert_eq!(memo.extractions(), 0);
        let retried = memo.get_or_extract(&changes, || Err(VerifyError::Extract("ran".into())));
        assert!(matches!(retried, Err(VerifyError::Extract(e)) if e == "ran"));
        assert_eq!(memo.extractions(), 1);
    }

    #[test]
    fn tasklet_fusion_instance_classified() {
        // Build the Fig. 4 pattern with a later reader: fusion must flag.
        let p = {
            use fuzzyflow_ir::{Memlet, ScalarExpr, SdfgBuilder, Subset, Tasklet};
            let mut b = SdfgBuilder::new("fig4");
            b.scalar("y", fuzzyflow_ir::DType::F64);
            b.scalar("z", fuzzyflow_ir::DType::F64);
            b.transient_scalar("tmp", fuzzyflow_ir::DType::F64);
            b.scalar("out", fuzzyflow_ir::DType::F64);
            b.scalar("out2", fuzzyflow_ir::DType::F64);
            let st = b.start();
            b.in_state(st, |df| {
                let z = df.access("z");
                let y = df.access("y");
                let tmp = df.access("tmp");
                let out = df.access("out");
                let t1 = df.tasklet(Tasklet::simple(
                    "twice",
                    vec!["a"],
                    "r",
                    ScalarExpr::r("a").mul(ScalarExpr::f64(2.0)),
                ));
                let t2 = df.tasklet(Tasklet::simple(
                    "h",
                    vec!["b", "c"],
                    "r",
                    ScalarExpr::r("b").add(ScalarExpr::r("c")),
                ));
                df.read(z, t1, Memlet::new("z", Subset::new(vec![])).to_conn("a"));
                df.write(
                    t1,
                    tmp,
                    Memlet::new("tmp", Subset::new(vec![])).from_conn("r"),
                );
                df.read(y, t2, Memlet::new("y", Subset::new(vec![])).to_conn("b"));
                df.read(
                    tmp,
                    t2,
                    Memlet::new("tmp", Subset::new(vec![])).to_conn("c"),
                );
                df.write(
                    t2,
                    out,
                    Memlet::new("out", Subset::new(vec![])).from_conn("r"),
                );
            });
            let st2 = b.add_state_after(st, "later");
            b.in_state(st2, |df| {
                let tmp = df.access("tmp");
                let out2 = df.access("out2");
                let t = df.tasklet(Tasklet::simple("cp", vec!["a"], "r", ScalarExpr::r("a")));
                df.read(tmp, t, Memlet::new("tmp", Subset::new(vec![])).to_conn("a"));
                df.write(
                    t,
                    out2,
                    Memlet::new("out2", Subset::new(vec![])).from_conn("r"),
                );
            });
            b.build()
        };
        let t = TaskletFusion;
        let matches = t.find_matches(&p);
        assert_eq!(matches.len(), 1);
        let report = verify_instance(&p, &t, &matches[0], &cfg(20)).unwrap();
        assert!(
            matches!(report.verdict, Verdict::SemanticChange { .. }),
            "{:?}",
            report.verdict
        );
        // The system state analysis placed tmp in the cutout's outputs.
        assert!(report.system_state.contains(&"tmp".to_string()));
    }
}
