//! The five workloads: which programs and passes they verify, under
//! which configuration, and in which session shape.

use fuzzyflow::evo::rng_split;
use fuzzyflow::ir::{Bindings, Sdfg};
use fuzzyflow::session::Campaign;
use fuzzyflow::transforms::{builtin_suite, cloudsc_suite, Transformation};
use fuzzyflow::{workloads, EvolveConfig, VerifyConfig};
use std::collections::BTreeSet;

/// How a workload uses sessions inside one measuring process ("round").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// One fresh session, run once: what a CLI invocation pays.
    Cold,
    /// Several fresh sessions in one long-lived process.
    Service,
    /// One session: an untimed warm-up run, then timed warm re-runs.
    Warm,
}

/// Which programs × passes a workload enumerates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstanceSet {
    /// npbench + cloudsc + MHA + matmul chain × both suites.
    Table2,
    /// The same programs × the sound passes only.
    Sound,
    /// cloudsc + matmul chain × both suites.
    Evolve,
}

/// Passes with no seeded bug: every instance must verify `ok`.
pub const SOUND_PASSES: [&str; 4] = ["MapTiling", "MapCollapse", "MapFusion", "StateFusion"];

pub struct Workload {
    pub name: &'static str,
    pub set: InstanceSet,
    pub shape: Shape,
    pub trials: usize,
    /// Sampled sizes lie in `size_min..=size_max`. A `size_min` above 1 is
    /// imposed as a custom sampling constraint on every free symbol of the
    /// programs: per-trial cost grows with a high power of the sizes, so
    /// an open lower end makes a run's total work swing with its seed.
    pub size_min: i64,
    pub size_max: i64,
    /// Timed repetitions per round. Fixed, so that per-round memory and
    /// cache counters do not depend on how fast the program runs.
    pub reps: usize,
    /// Evolution-mode trial budget and fault cap, when the workload runs
    /// the coverage-guided loop instead of one-shot sampling.
    pub evolve: Option<(usize, usize)>,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "table2_cold",
        set: InstanceSet::Table2,
        shape: Shape::Cold,
        trials: 80,
        size_min: 1,
        size_max: 10,
        reps: 1,
        evolve: None,
    },
    Workload {
        name: "table2_service",
        set: InstanceSet::Table2,
        shape: Shape::Service,
        trials: 80,
        size_min: 1,
        size_max: 10,
        reps: 6,
        evolve: None,
    },
    Workload {
        name: "sound_small_warm",
        set: InstanceSet::Sound,
        shape: Shape::Warm,
        trials: 200,
        size_min: 1,
        size_max: 8,
        reps: 12,
        evolve: None,
    },
    Workload {
        name: "sound_large_warm",
        set: InstanceSet::Sound,
        shape: Shape::Warm,
        trials: 25,
        size_min: 28,
        size_max: 32,
        reps: 3,
        evolve: None,
    },
    Workload {
        name: "evolve_service",
        set: InstanceSet::Evolve,
        shape: Shape::Service,
        trials: 40,
        size_min: 1,
        size_max: 10,
        reps: 3,
        evolve: Some((200, 8)),
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One program under test with the bindings that concretize its min-cut.
pub struct ProgramUnderTest {
    pub name: &'static str,
    pub sdfg: Sdfg,
    pub bindings: Bindings,
}

impl Workload {
    /// Builds the workload's programs (the `workloads` layer).
    pub fn programs(&self) -> Vec<ProgramUnderTest> {
        let put = |name, sdfg, bindings| ProgramUnderTest {
            name,
            sdfg,
            bindings,
        };
        let cloudsc = || {
            put(
                "cloudsc_like",
                workloads::cloudsc_like(),
                workloads::cloudsc::default_bindings(),
            )
        };
        let matmul = || {
            put(
                "matmul_chain",
                workloads::matmul_chain(),
                workloads::matmul_chain::default_bindings(),
            )
        };
        if self.set == InstanceSet::Evolve {
            return vec![cloudsc(), matmul()];
        }
        let mut v: Vec<ProgramUnderTest> = workloads::suite()
            .into_iter()
            .map(|w| put(w.name, w.sdfg, w.bindings))
            .collect();
        v.push(cloudsc());
        v.push(put(
            "mha_encoder",
            workloads::mha_encoder(),
            workloads::mha::default_bindings(),
        ));
        v.push(matmul());
        v
    }

    /// The passes under test, in suite order.
    pub fn passes(&self) -> Vec<Box<dyn Transformation>> {
        let mut all = builtin_suite();
        all.extend(cloudsc_suite());
        if self.set == InstanceSet::Sound {
            all.retain(|t| SOUND_PASSES.contains(&t.name()));
        }
        all
    }

    /// Whether the expected-verdict table row `(program, pass)` belongs to
    /// this workload's instance set.
    pub fn covers(&self, program: &str, pass: &str) -> bool {
        match self.set {
            InstanceSet::Table2 => true,
            InstanceSet::Sound => SOUND_PASSES.contains(&pass),
            InstanceSet::Evolve => program == "cloudsc_like" || program == "matmul_chain",
        }
    }

    /// The per-instance configuration. One thread at every level: the
    /// numbers measure the program, not a shared 2-core scheduler.
    pub fn verify_config(&self, programs: &[ProgramUnderTest], seed: u64) -> VerifyConfig {
        let mut cfg = VerifyConfig::new()
            .with_trials(self.trials)
            .with_size_max(self.size_max)
            .with_seed(seed)
            .with_trial_threads(1);
        if self.size_min > 1 {
            let symbols: BTreeSet<String> = programs
                .iter()
                .flat_map(|p| p.sdfg.free_symbols())
                .collect();
            for s in symbols {
                cfg = cfg.with_custom_constraint(s, self.size_min, self.size_max);
            }
        }
        cfg
    }

    /// The evolution knobs. The session mixes the evolution seed with the
    /// verification seed by XOR, so feeding both the same value would make
    /// every run draw the same inputs; the evolution seed is a derived
    /// stream instead.
    pub fn evolve_config(&self, seed: u64) -> Option<EvolveConfig> {
        self.evolve.map(|(trials, max_faults)| {
            EvolveConfig::new()
                .with_trials(trials)
                .with_max_faults(max_faults)
                .with_seed(rng_split(seed, 1))
        })
    }

    /// The campaign over already-built programs.
    pub fn campaign(&self, programs: Vec<ProgramUnderTest>, seed: u64) -> Campaign {
        let mut c = Campaign::new(self.name)
            .with_transformations(self.passes())
            .with_verify(self.verify_config(&programs, seed))
            .with_threads(1);
        for p in programs {
            c = c.with_workload(p.name, p.sdfg, p.bindings);
        }
        if let Some(e) = self.evolve_config(seed) {
            c = c.with_evolve(e);
        }
        c
    }
}
