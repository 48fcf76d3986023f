//! The traced replay: a workload's instances driven by hand through the
//! public stage functions, in the order the session's own prepare and
//! trial code uses them, with a span around every call into a layer.
//!
//! It mirrors `prepare_instance` (apply to a clone → side-effect context →
//! extract → min-cut → re-find → replay on the cutout → constraints →
//! validate → compile) and the sequential trial loop (sample until the
//! original cutout accepts → run the transformed cutout → compare), and
//! stops an instance at its first faulting trial as the session does.
//! `trace.replay_vs_session` reports how far its wall time is from the
//! real pipeline's on the same instances.

use crate::spec::{ProgramUnderTest, Shape, Workload};
use crate::trace::Tracer;
use fuzzyflow::cutout::{
    extract_cutout, minimize_input_configuration, refind_match, Cutout, SideEffectContext,
};
use fuzzyflow::evo::{rng_split, triage, EvoEvent, EvolutionFuzzer};
use fuzzyflow::fuzz::{
    derive_constraints, sample_state, Constraints, DiffTester, TestCase, ValueProfile, Xoshiro256,
};
use fuzzyflow::interp::{
    CompileOptions, ExecOptions, ExecState, Executor, ExecutorArena, Program, ResetPolicy,
};
use fuzzyflow::ir::{validate, Bindings, Sdfg};
use fuzzyflow::transforms::{apply_to_clone, Transformation, TransformationMatch};
use fuzzyflow::VerifyConfig;
use std::hint::black_box;
use std::time::Instant;

/// Step budget and resampling budget of the session's trial loop.
const MAX_STEPS: u64 = 20_000_000;
const MAX_RESAMPLES: usize = 200;

/// The pipeline's products for one instance, kept for the trial passes
/// and the tier ablation.
pub struct Prepared {
    pub index: usize,
    pub cutout: Cutout,
    pub transformed: Sdfg,
    pub constraints: Constraints,
    /// `(original, transformed)`; absent when the transformed cutout fails
    /// validation ("generates invalid code", decided before any run).
    pub programs: Option<(Program, Program)>,
    /// The program's default bindings (min-cut concretization, evolution
    /// seed input).
    pub bindings: Bindings,
    arenas: Option<(ExecutorArena, ExecutorArena)>,
}

/// Counts taken at the same boundaries as the spans.
#[derive(Default)]
pub struct Counts {
    pub instances: u64,
    pub pipeline_errors: u64,
    pub faults: u64,
    pub trials: u64,
    node_ratio_sum: f64,
    reduction_sum: f64,
    reduction_n: u64,
    pub samples_drawn: u64,
    pub samples_accepted: u64,
    pub sample_elems: u64,
    pub evo_trials: u64,
    pub evo_corpus: u64,
    pub evo_edges: u64,
    pub evo_faults: u64,
    pub evo_buckets: u64,
    pub evo_novelty: u64,
}

impl Counts {
    /// Mean cutout nodes ÷ program nodes.
    pub fn node_ratio(&self) -> f64 {
        self.node_ratio_sum / (self.instances - self.pipeline_errors).max(1) as f64
    }

    /// Mean input-volume reduction of the min input-flow cut.
    pub fn input_reduction(&self) -> f64 {
        self.reduction_sum / self.reduction_n.max(1) as f64
    }
}

pub struct Replay {
    /// Wall time of the whole replay.
    pub wall_s: f64,
    /// Wall time of the last trial pass alone (what a warm re-run repeats).
    pub last_pass_s: f64,
    pub counts: Counts,
    pub prepared: Vec<Prepared>,
}

fn exec_options() -> ExecOptions {
    ExecOptions {
        max_steps: MAX_STEPS,
        ..ExecOptions::default()
    }
}

/// Mirrors `prepare_instance`; `None` is a pipeline error.
fn prepare(
    p: &ProgramUnderTest,
    t: &dyn Transformation,
    m: &TransformationMatch,
    vcfg: &VerifyConfig,
    index: usize,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Option<Prepared> {
    let i = index as i64;
    // The transformed whole program is dropped inside the span, as the
    // session drops it inside its prepare step.
    let changes = tr
        .span("transforms.apply", i, || {
            apply_to_clone(&p.sdfg, t, m).map(|(_, changes)| changes)
        })
        .ok()?;
    let (ctx, cutout) = tr.span("cutout.extract", i, || {
        let ctx =
            SideEffectContext::with_size_symbols(&p.sdfg.free_symbols(), vcfg.size_max.max(1));
        let cutout = extract_cutout(&p.sdfg, &changes, &ctx);
        (ctx, cutout)
    });
    let cutout = cutout.ok()?;
    let (cutout, mincut) = tr.span("cutout.mincut", i, || {
        minimize_input_configuration(&p.sdfg, cutout, &ctx, &p.bindings)
    });
    let translated = tr
        .span("cutout.refind", i, || refind_match(&cutout, t, m))
        .ok()?;
    let mut transformed = tr.span("ir.sdfg_clone", i, || cutout.sdfg.clone());
    tr.span("transforms.replay", i, || {
        t.apply(&mut transformed, &translated)
    })
    .ok()?;
    let constraints = tr.span("fuzz.constraints", i, || {
        let mut constraints = derive_constraints(&cutout, &p.sdfg);
        for (s, lo, hi) in &vcfg.custom_constraints {
            constraints.constrain(s.clone(), *lo, *hi);
        }
        constraints
    });
    let valid = tr.span("ir.validate", i, || validate(&transformed).is_ok());
    let programs = valid.then(|| {
        tr.span("interp.compile", i, || {
            let opts = CompileOptions::default();
            (
                Program::compile_with_options(&cutout.sdfg, &opts),
                Program::compile_with_options(&transformed, &opts),
            )
        })
    });
    let program_nodes: usize = tr.span("ir.node_count", i, || {
        let states = &p.sdfg.states;
        states
            .node_ids()
            .map(|s| p.sdfg.state(s).df.deep_node_count())
            .sum()
    });
    counts.node_ratio_sum += cutout.stats.nodes as f64 / program_nodes.max(1) as f64;
    counts.reduction_sum += mincut.reduction();
    counts.reduction_n += 1;
    Some(Prepared {
        index,
        cutout,
        transformed,
        constraints,
        programs,
        bindings: p.bindings.clone(),
        arenas: None,
    })
}

fn elems(state: &ExecState) -> u64 {
    state.arrays.values().map(|a| a.len() as u64).sum()
}

/// Mirrors the session's sequential trial loop over one instance; returns
/// whether a fault was found. With `first`, the first execution of each
/// program gets its own span: lazy native-code emission and buffer
/// allocation land there.
#[allow(clippy::too_many_arguments)]
fn trial_pass(
    p: &Prepared,
    orig: &mut Executor<'_>,
    trans: &mut Executor<'_>,
    vcfg: &VerifyConfig,
    opts: &ExecOptions,
    first: bool,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> bool {
    let i = p.index as i64;
    let profile = ValueProfile {
        size_max: vcfg.size_max,
        ..ValueProfile::default()
    };
    let name = &p.cutout.sdfg.name;
    for trial in 1..=vcfg.trials {
        counts.trials += 1;
        // The session's trial loop seeds each trial with the same
        // splitmix64 mix of campaign seed and 1-based trial index, so the
        // replay draws the inputs the session draws.
        let mut rng = Xoshiro256::seed_from(rng_split(vcfg.seed, trial as u64));
        let mut sample = None;
        for _ in 0..=MAX_RESAMPLES {
            counts.samples_drawn += 1;
            let candidate = tr.span("fuzz.sample", i, || {
                sample_state(&p.cutout, &p.constraints, &profile, &mut rng)
            });
            let Some(candidate) = candidate else { continue };
            counts.sample_elems += elems(&candidate);
            let stage = if first && trial == 1 {
                "interp.exec_first"
            } else {
                "interp.exec_orig"
            };
            if tr
                .span_next(stage, i, || orig.execute(&candidate, opts, None, None))
                .is_ok()
            {
                counts.samples_accepted += 1;
                sample = Some(candidate);
                break;
            }
        }
        // No accepted input: inconclusive, neither ok nor fault.
        let Some(sample) = sample else { return false };
        let stage = if first && trial == 1 {
            "interp.exec_first"
        } else {
            "interp.exec_trans"
        };
        let mut failure = tr
            .span_next(stage, i, || trans.execute(&sample, opts, None, None))
            .err()
            .map(|e| e.to_string());
        if failure.is_none() {
            failure = p
                .cutout
                .symbol_state
                .iter()
                .find(|s| orig.symbol(s) != trans.symbol(s))
                .map(|s| format!("symbol state change: '{s}'"));
        }
        if failure.is_none() {
            failure = tr
                .span_next("interp.compare", i, || {
                    orig.compare_on(trans, &p.cutout.system_state, vcfg.tolerance)
                })
                .map(|m| format!("semantic change: {m}"));
        }
        if let Some(failure) = failure {
            black_box(tr.span("fuzz.capture", i, || {
                TestCase::capture(name, &failure, &sample)
            }));
            return true;
        }
        // Freeing the sampled input is part of every trial's cost.
        tr.span_next("interp.state_drop", i, || drop(sample));
    }
    false
}

/// Mirrors the session's evolution-mode instance: the coverage-guided
/// loop, then — as its own span, outside `evolve` — a triage of the first
/// fault (the only one the outcome hands back; `evolve` itself triages up
/// to the fault cap inside its own span).
fn evolve_instance(
    p: &Prepared,
    w: &Workload,
    vcfg: &VerifyConfig,
    seed: u64,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> bool {
    let Some((orig, trans)) = &p.programs else {
        return true;
    };
    let i = p.index as i64;
    let ecfg = w.evolve_config(seed).expect("evolution workload");
    let fuzzer = EvolutionFuzzer {
        trials: ecfg.trials,
        max_faults: ecfg.max_faults,
        seed: rng_split(ecfg.seed ^ vcfg.seed, p.index as u64),
        tolerance: vcfg.tolerance,
        size_max: vcfg.size_max,
        ..EvolutionFuzzer::default()
    };
    let mut novelty = 0u64;
    let out = tr.span("evo.evolve", i, || {
        fuzzer.evolve(
            &p.cutout,
            orig,
            trans,
            &p.constraints,
            &p.bindings,
            None,
            &mut |e| {
                if matches!(e, EvoEvent::Novelty { .. }) {
                    novelty += 1;
                }
            },
        )
    });
    counts.evo_trials += out.trials_run as u64;
    counts.evo_corpus += out.corpus_size as u64;
    counts.evo_edges += out.edges_seen as u64;
    counts.evo_faults += out.faults_found as u64;
    counts.evo_buckets += out.buckets.len() as u64;
    counts.evo_novelty += novelty;
    let Some(fault) = out.first_fault else {
        return false;
    };
    let tester = DiffTester {
        tolerance: fuzzer.tolerance,
        max_steps: fuzzer.max_steps,
        ..DiffTester::default()
    };
    let seed_state = fuzzer.seed_state(
        &p.cutout,
        &p.constraints,
        &p.bindings,
        &mut Xoshiro256::seed_from(fuzzer.seed),
    );
    let (mut oe, mut te) = (orig.executor(), trans.executor());
    black_box(tr.span("evo.triage", i, || {
        triage(
            &tester,
            &p.cutout,
            &seed_state,
            std::slice::from_ref(&fault),
            &mut oe,
            &mut te,
        )
    }));
    true
}

/// Replays the workload once. Cold and service shapes make one trial
/// pass per instance right after preparing it; warm shapes then make a
/// second pass over the kept arenas, which is what a warm re-run repeats.
pub fn replay(w: &Workload, programs: &[ProgramUnderTest], seed: u64, tr: &mut Tracer) -> Replay {
    let start = Instant::now();
    let vcfg = w.verify_config(programs, seed);
    let opts = exec_options();
    let passes = w.passes();
    let mut counts = Counts::default();
    let mut last_pass_s = 0.0;

    tr.begin("replay", -1);
    let mut specs = Vec::new();
    for p in programs {
        for t in &passes {
            let matches = tr.span("transforms.find_matches", -1, || t.find_matches(&p.sdfg));
            specs.extend(matches.into_iter().map(|m| (p, t.as_ref(), m)));
        }
    }
    let mut prepared: Vec<Prepared> = Vec::with_capacity(specs.len());
    for (index, (p, t, m)) in specs.iter().enumerate() {
        counts.instances += 1;
        tr.begin("instance.prepare", index as i64);
        let prep = prepare(p, *t, m, &vcfg, index, tr, &mut counts);
        tr.end();
        let Some(mut prep) = prep else {
            counts.pipeline_errors += 1;
            continue;
        };
        tr.begin("instance.trials", index as i64);
        let pass_start = Instant::now();
        let fault = if w.evolve.is_some() {
            evolve_instance(&prep, w, &vcfg, seed, tr, &mut counts)
        } else if let Some((orig, trans)) = &prep.programs {
            let (mut oe, mut te) = tr.span("interp.executor_new", index as i64, || {
                (orig.executor(), trans.executor())
            });
            let fault = trial_pass(&prep, &mut oe, &mut te, &vcfg, &opts, true, tr, &mut counts);
            prep.arenas = Some((oe.into_arena(), te.into_arena()));
            fault
        } else {
            true
        };
        last_pass_s += pass_start.elapsed().as_secs_f64();
        tr.end();
        counts.faults += fault as u64;
        prepared.push(prep);
    }
    if w.shape == Shape::Warm {
        let pass_start = Instant::now();
        for prep in &mut prepared {
            let Some((oa, ta)) = prep.arenas.take() else {
                continue;
            };
            let (orig, trans) = prep.programs.as_ref().expect("arenas imply programs");
            tr.begin("instance.trials", prep.index as i64);
            let (mut oe, mut te) = tr.span("interp.executor_new", prep.index as i64, || {
                (orig.executor_with(oa), trans.executor_with(ta))
            });
            trial_pass(prep, &mut oe, &mut te, &vcfg, &opts, false, tr, &mut counts);
            tr.end();
        }
        last_pass_s = pass_start.elapsed().as_secs_f64();
    }
    tr.end();
    Replay {
        wall_s: start.elapsed().as_secs_f64(),
        last_pass_s,
        counts,
        prepared,
    }
}

/// One rung of the execution ladder switched off.
pub struct Variant {
    pub name: &'static str,
    compile: CompileOptions,
    exec: ExecOptions,
}

/// The tier ablation rows. `Campaign` exposes no engine knob, so these are
/// measured at replay level: same instances, same inputs, one option off.
pub fn variants() -> Vec<Variant> {
    let c = CompileOptions::default();
    let e = exec_options();
    vec![
        Variant {
            name: "default",
            compile: c,
            exec: e.clone(),
        },
        Variant {
            name: "no_jit",
            compile: c,
            exec: ExecOptions {
                jit: false,
                ..e.clone()
            },
        },
        Variant {
            name: "no_fuse",
            compile: CompileOptions {
                fuse_maps: false,
                ..c
            },
            exec: e.clone(),
        },
        Variant {
            name: "generic",
            compile: CompileOptions {
                specialize_f64: false,
                ..c
            },
            exec: e.clone(),
        },
        Variant {
            name: "reset_full",
            compile: c,
            exec: ExecOptions {
                reset: ResetPolicy::Full,
                ..e
            },
        },
    ]
}

/// Trials per instance in one ablation pass: enough to average over
/// inputs, few enough that the slowest rung stays within the run's time.
const ABLATION_TRIALS: usize = 10;
/// Passes repeat until this much execution has been measured, so that the
/// rungs that take microseconds per trial are not read off a few ms.
const ABLATION_MIN_NS: u64 = 30_000_000;

/// Mean µs inside `Executor::execute` (original + transformed) per trial
/// of every prepared instance under `variant`, after a one-trial warm-up
/// per instance (first-run costs belong to `interp.exec_first_us`).
pub fn ablate(w: &Workload, prepared: &[Prepared], seed: u64, variant: &Variant) -> f64 {
    let cfg = |trials| {
        VerifyConfig::new()
            .with_trials(trials)
            .with_size_max(w.size_max)
            .with_seed(seed)
    };
    let (warm_up, measured) = (cfg(1), cfg(ABLATION_TRIALS));
    let valid: Vec<&Prepared> = prepared.iter().filter(|p| p.programs.is_some()).collect();
    if valid.is_empty() {
        return 0.0;
    }
    let programs: Vec<(Program, Program)> = valid
        .iter()
        .map(|p| {
            (
                Program::compile_with_options(&p.cutout.sdfg, &variant.compile),
                Program::compile_with_options(&p.transformed, &variant.compile),
            )
        })
        .collect();
    let mut executors: Vec<(Executor<'_>, Executor<'_>)> = programs
        .iter()
        .map(|(orig, trans)| (orig.executor(), trans.executor()))
        .collect();
    let mut pass = |cfg: &VerifyConfig, tr: &mut Tracer| {
        let mut counts = Counts::default();
        for (p, (oe, te)) in valid.iter().zip(&mut executors) {
            trial_pass(p, oe, te, cfg, &variant.exec, false, tr, &mut counts);
        }
        counts.trials
    };
    pass(&warm_up, &mut Tracer::new(false));
    let (mut total_ns, mut trials) = (0u64, 0u64);
    while total_ns < ABLATION_MIN_NS {
        let mut tr = Tracer::new(true);
        trials += pass(&measured, &mut tr);
        total_ns += tr
            .spans
            .iter()
            .filter(|s| s.name == "interp.exec_orig" || s.name == "interp.exec_trans")
            .map(|s| s.end_ns - s.start_ns)
            .sum::<u64>();
    }
    total_ns as f64 / 1e3 / trials.max(1) as f64
}
