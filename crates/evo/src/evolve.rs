//! The evolutionary campaign loop over one prepared instance.

use crate::corpus::Corpus;
use crate::mutate::{symbol_bounds, MutOp, Mutator};
use crate::triage::{triage, FaultBucket};
use fuzzyflow_cutout::Cutout;
use fuzzyflow_fuzz::sampler::seed_input;
use fuzzyflow_fuzz::{judge, ArenaStash, CaseOutcome, Constraints, DiffTester, Xoshiro256};
use fuzzyflow_interp::{CoverageMap, ExecOptions, ExecState, ExecutorArena, Program};
use fuzzyflow_ir::Bindings;

/// Campaign-facing evolution knobs (the session layer merges these with
/// its `VerifyConfig` — tolerance, size ceiling — into an
/// [`EvolutionFuzzer`]).
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub struct EvolveConfig {
    /// Mutation executions per instance.
    pub trials: usize,
    /// Stop collecting after this many faults (triage dedups them).
    pub max_faults: usize,
    /// Campaign evolution seed; each instance derives its own sub-seed.
    pub seed: u64,
}

impl Default for EvolveConfig {
    fn default() -> Self {
        EvolveConfig {
            trials: 300,
            max_faults: 12,
            seed: 0xEC0_5EED,
        }
    }
}

impl EvolveConfig {
    /// Default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the per-instance trial budget.
    pub fn with_trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the fault-collection cap.
    pub fn with_max_faults(mut self, max_faults: usize) -> Self {
        self.max_faults = max_faults;
        self
    }

    /// Sets the evolution seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Streaming progress notifications from one instance's evolution.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum EvoEvent {
    /// An execution discovered coverage never seen in this campaign.
    Novelty { trial: usize, edges_seen: usize },
    /// A novel, passing input was admitted to the corpus.
    CorpusGrowth { trial: usize, corpus_size: usize },
    /// A deduplicated fault class, emitted after triage.
    FaultBucket {
        culprit: String,
        kind: String,
        container: String,
        duplicates: usize,
    },
}

/// One fault observed live during the campaign, with the lineage that
/// produced it (the bisection input).
#[derive(Clone, Debug)]
pub struct EvoFault {
    /// 1-based trial the fault surfaced on.
    pub trial: usize,
    /// Mutation ops from the instance seed to the faulting input.
    pub lineage: Vec<MutOp>,
    /// The faulting input state.
    pub state: ExecState,
    /// Structured classification of the live run.
    pub outcome: CaseOutcome,
}

/// Result of one instance's evolutionary campaign.
#[derive(Clone, Debug)]
pub struct EvoOutcome {
    /// Mutation executions performed.
    pub trials_run: usize,
    /// Corpus entries retained (including the seed).
    pub corpus_size: usize,
    /// Distinct virgin-map bytes touched.
    pub edges_seen: usize,
    /// Cumulative per-edge hit totals, `(edge id, hits)` in edge order.
    pub edge_hits: Vec<(u32, u64)>,
    /// Faults collected before triage (duplicates included).
    pub faults_found: usize,
    /// The earliest fault, untriaged — the campaign-level verdict.
    pub first_fault: Option<EvoFault>,
    /// Deduplicated fault classes, in deterministic bucket-key order.
    pub buckets: Vec<FaultBucket>,
    /// True when the original cutout rejected the seed input — nothing
    /// could be evolved or concluded.
    pub seed_rejected: bool,
}

/// Coverage-guided evolutionary differential fuzzer for one prepared
/// cutout pair. Fully sequential and deterministic: a given
/// configuration replays byte-identically, which is what lets campaign
/// sessions run instances concurrently and still produce byte-identical
/// reports for any thread count.
#[derive(Clone, Debug)]
pub struct EvolutionFuzzer {
    /// Mutation executions to perform.
    pub trials: usize,
    /// Fault-collection cap (the loop keeps fuzzing after a fault so
    /// triage has duplicates to collapse, up to this many).
    pub max_faults: usize,
    /// Instance seed (derive with [`rng_split`](crate::rng_split) for
    /// campaigns).
    pub seed: u64,
    /// Numerical comparison threshold.
    pub tolerance: f64,
    /// Interpreter step budget (hang oracle).
    pub max_steps: u64,
    /// Ceiling for symbols without a tighter derived bound.
    pub size_max: i64,
}

impl Default for EvolutionFuzzer {
    fn default() -> Self {
        let e = EvolveConfig::default();
        EvolutionFuzzer {
            trials: e.trials,
            max_faults: e.max_faults,
            seed: e.seed,
            tolerance: 1e-5,
            max_steps: 20_000_000,
            size_max: 24,
        }
    }
}

impl EvolutionFuzzer {
    /// The deterministic seed input: symbols from `seed_bindings`
    /// clamped into their constraint bounds (missing symbols start at
    /// their lower bound), arrays shaped accordingly with a
    /// pseudo-random payload from the instance PRNG.
    pub fn seed_state(
        &self,
        cutout: &Cutout,
        constraints: &Constraints,
        seed_bindings: &Bindings,
        rng: &mut Xoshiro256,
    ) -> ExecState {
        let value = |symbols: &Bindings, s: &str| {
            let (lo, hi) = symbol_bounds(constraints, symbols, self.size_max, s);
            seed_bindings.get(s).unwrap_or(lo).clamp(lo, hi)
        };
        seed_input(cutout, value, rng)
    }

    /// Runs the evolutionary campaign over a compiled cutout pair.
    ///
    /// Arenas come from `stash` when given (the session's per-instance
    /// artifact cache) and are parked back on return; triage bisection
    /// probes replay through the same executors, so the whole campaign
    /// — trials and probes — compiles nothing and constructs arenas only
    /// on a cold stash. `observe` streams [`EvoEvent`]s as they happen.
    #[allow(clippy::too_many_arguments)]
    pub fn evolve(
        &self,
        cutout: &Cutout,
        orig_prog: &Program,
        trans_prog: &Program,
        constraints: &Constraints,
        seed_bindings: &Bindings,
        stash: Option<&ArenaStash>,
        observe: &mut dyn FnMut(&EvoEvent),
    ) -> EvoOutcome {
        let (oa, ta) = stash
            .and_then(|s| s.take())
            .unwrap_or_else(|| (ExecutorArena::new(), ExecutorArena::new()));
        let mut orig_exec = orig_prog.executor_with(oa);
        let mut trans_exec = trans_prog.executor_with(ta);

        let tester = DiffTester {
            tolerance: self.tolerance,
            max_steps: self.max_steps,
            ..DiffTester::default()
        };
        let opts = ExecOptions {
            max_steps: self.max_steps,
            ..ExecOptions::default()
        };
        let mutator = Mutator {
            size_max: self.size_max,
        };
        let mut rng = Xoshiro256::seed_from(self.seed);
        let seed = self.seed_state(cutout, constraints, seed_bindings, &mut rng);

        let mut corpus = Corpus::new();
        let mut faults: Vec<EvoFault> = Vec::new();
        let mut trials_run = 0usize;
        let mut seed_rejected = false;

        for trial in 1..=self.trials {
            trials_run = trial;
            // Trial 1 runs the seed as-is; later trials mutate an
            // energy-selected corpus member (with an optional donor for
            // splices).
            let (state, lineage) = if trial == 1 {
                (seed.clone(), Vec::new())
            } else if corpus.is_empty() {
                // Seed never joined (it faulted): mutate the seed
                // directly so fault collection can continue.
                let op = mutator.generate(&mut rng, cutout, constraints, &seed, None);
                let mut st = seed.clone();
                op.apply(cutout, &mut st);
                (st, vec![op])
            } else {
                let pick = corpus.select(&mut rng);
                let donor_idx = rng.index(corpus.len());
                let parent = &corpus.entries()[pick];
                let donor = (donor_idx != pick).then(|| &corpus.entries()[donor_idx].state);
                let op = mutator.generate(&mut rng, cutout, constraints, &parent.state, donor);
                let mut st = parent.state.clone();
                op.apply(cutout, &mut st);
                let mut lineage = parent.lineage.clone();
                lineage.push(op);
                (st, lineage)
            };

            // The shared trial step, with the original run instrumented:
            // coverage feeds the scheduler even when the input faults or
            // is rejected. Structured outcomes, for triage.
            let mut cov = CoverageMap::new();
            let outcome = judge(
                cutout,
                &state,
                &opts,
                self.tolerance,
                &mut orig_exec,
                &mut trans_exec,
                Some(&mut cov),
            );
            let novel = corpus.record_execution(&cov);
            if novel {
                observe(&EvoEvent::Novelty {
                    trial,
                    edges_seen: corpus.edges_seen(),
                });
            }
            if let CaseOutcome::OriginalFailed(_) = outcome {
                if trial == 1 {
                    seed_rejected = true;
                    break;
                }
                // Uninteresting: both sides would fail.
                continue;
            }
            if outcome.is_fault() {
                faults.push(EvoFault {
                    trial,
                    lineage,
                    state,
                    outcome,
                });
                if faults.len() >= self.max_faults {
                    break;
                }
                continue;
            }

            // Passing + novel ⇒ retained for future mutation.
            if novel {
                corpus.admit(state, lineage, &cov);
                observe(&EvoEvent::CorpusGrowth {
                    trial,
                    corpus_size: corpus.len(),
                });
            }
        }

        let buckets = triage(
            &tester,
            cutout,
            &seed,
            &faults,
            &mut orig_exec,
            &mut trans_exec,
        );
        for b in &buckets {
            observe(&EvoEvent::FaultBucket {
                culprit: b.culprit.clone(),
                kind: b.kind.clone(),
                container: b.container.clone(),
                duplicates: b.duplicates,
            });
        }

        let pair = (orig_exec.into_arena(), trans_exec.into_arena());
        if let Some(stash) = stash {
            stash.put(pair);
        }

        EvoOutcome {
            trials_run,
            corpus_size: corpus.len(),
            edges_seen: corpus.edges_seen(),
            edge_hits: corpus.edge_hits(),
            faults_found: faults.len(),
            first_fault: faults.into_iter().next(),
            buckets,
            seed_rejected,
        }
    }
}
