//! Fault deduplication by bisection over mutation lineages.
//!
//! Ground truth for "same bug" is expensive; the practical proxy (after
//! "On the Feasibility of Deduplicating Compiler Bugs with Bisection")
//! is the *minimal failure-inducing prefix* of the sequence that
//! produced the fault: bisect over the lineage, find the first prefix
//! that already fails, and name its last op the culprit. Faults bucket
//! by `(culprit description, structured error kind, faulting
//! container)`, so ten inputs that all tripped the same out-of-bounds
//! write through the same kind of mutation collapse into one bucket
//! with a duplicate count.

use crate::evolve::EvoFault;
use crate::mutate::MutOp;
use fuzzyflow_cutout::Cutout;
use fuzzyflow_fuzz::{failure_text, CaseOutcome, DiffTester, TestCase};
use fuzzyflow_interp::{ExecState, Executor};
use std::collections::BTreeMap;

/// One deduplicated fault class.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultBucket {
    /// `"<op kind> <target>"` of the bisected culprit op, or `"seed"`
    /// when the unmutated seed input already faults.
    pub culprit: String,
    /// Structured error-class tag ([`CaseOutcome::kind`]).
    pub kind: String,
    /// Faulting container or diverging symbol (empty when the class has
    /// none).
    pub container: String,
    /// Verdict-style label of the fault class (`"crash"`, `"hang"`, …).
    pub label: String,
    /// 1-based trial of the earliest fault in the bucket.
    pub trial: usize,
    /// Faults collapsed into this bucket.
    pub duplicates: usize,
    /// Replayable capture of the bucket's *minimal* failing input (the
    /// bisected prefix state of the earliest fault).
    pub representative: TestCase,
}

/// Materializes the state a lineage prefix produces from the seed.
pub fn materialize(cutout: &Cutout, seed: &ExecState, lineage: &[MutOp]) -> ExecState {
    let mut state = seed.clone();
    for op in lineage {
        op.apply(cutout, &mut state);
    }
    state
}

/// Bisects one fault's lineage to its minimal failure-inducing prefix.
///
/// Invariant: the empty prefix (the seed) is known to pass and the full
/// lineage is known to fail — both were executed live during the
/// campaign. Probes replay through the caller's executors
/// ([`DiffTester::replay_on`]), so the bisection compiles nothing and
/// constructs no arenas. Returns `(prefix length, probe outcome at that
/// prefix, probe state)`.
pub fn bisect(
    tester: &DiffTester,
    cutout: &Cutout,
    seed: &ExecState,
    fault: &EvoFault,
    orig_exec: &mut Executor<'_>,
    trans_exec: &mut Executor<'_>,
) -> (usize, CaseOutcome, ExecState) {
    let mut lo = 0usize; // known pass
    let mut hi = fault.lineage.len(); // known fail
    let mut hi_outcome = fault.outcome.clone();
    let mut hi_state = fault.state.clone();
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let state = materialize(cutout, seed, &fault.lineage[..mid]);
        let outcome = tester.replay_on(cutout, &state, orig_exec, trans_exec);
        if outcome.is_fault() {
            hi = mid;
            hi_outcome = outcome;
            hi_state = state;
        } else {
            lo = mid;
        }
    }
    (hi, hi_outcome, hi_state)
}

/// Bisects and buckets every collected fault. Buckets come back in
/// deterministic key order; each carries the earliest fault's trial and
/// minimal-prefix test case as its representative.
pub fn triage(
    tester: &DiffTester,
    cutout: &Cutout,
    seed: &ExecState,
    faults: &[EvoFault],
    orig_exec: &mut Executor<'_>,
    trans_exec: &mut Executor<'_>,
) -> Vec<FaultBucket> {
    let mut buckets: BTreeMap<(String, String, String), FaultBucket> = BTreeMap::new();
    for fault in faults {
        let (prefix, outcome, state) = bisect(tester, cutout, seed, fault, orig_exec, trans_exec);
        let culprit = if prefix == 0 {
            "seed".to_string()
        } else {
            fault.lineage[prefix - 1].describe()
        };
        let kind = outcome.kind().to_string();
        let container = outcome.container().unwrap_or("").to_string();
        let key = (culprit.clone(), kind.clone(), container.clone());
        let bucket = buckets.entry(key).or_insert_with(|| FaultBucket {
            culprit,
            kind,
            container,
            label: outcome.label().to_string(),
            trial: fault.trial,
            duplicates: 0,
            representative: TestCase::capture(&cutout.sdfg.name, &failure_text(&outcome), &state),
        });
        bucket.duplicates += 1;
        if fault.trial < bucket.trial {
            bucket.trial = fault.trial;
        }
    }
    buckets.into_values().collect()
}
