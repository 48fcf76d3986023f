//! Differential testing of cutouts (paper Sec. 5).
//!
//! Checking `c ≅ T(c)` over the cutout's input space `S_c`: input
//! configurations are sampled (`t ≪ |S_c|` trials), run through both the
//! original and the transformed cutout, and the system states compared.
//! A transformation is invalid when the transformed cutout crashes or
//! hangs while the original does not, or when numerical results diverge
//! beyond a configurable threshold (bit-exact by default).
//!
//! Two sampling strategies are implemented, mirroring the paper:
//!
//! * **Gray-box fuzzing** ([`DiffTester`]): static constraint analysis on
//!   the cutout and the original program bounds every symbol (sizes to
//!   `[1, S_max]`, indices to their dimension, loop variables to their
//!   bounds) before uniform sampling — few trials, no uninteresting
//!   crashes.
//! * **Coverage-guided fuzzing** ([`CoverageFuzzer`]): an AFL++-style
//!   mutation loop over a serialized input buffer with edge-coverage
//!   feedback from the instrumented interpreter — no constraint knowledge,
//!   more trials, mirrors the paper's AFL++ baseline (Sec. 6.1: ~157 vs
//!   ~1 trials to expose the size-dependent vectorization bug).

pub mod constraints;
pub mod coverage_fuzz;
pub mod diff;
pub mod json;
pub mod rng;
pub mod sampler;
pub mod testcase;

pub use constraints::{derive_constraints, derive_constraints_with_loops, Constraints, SymbolRole};
pub use coverage_fuzz::{CoverageFuzzer, CoverageReport};
pub use diff::{failure_text, judge, ArenaStash, CaseOutcome, DiffReport, DiffTester, Verdict};
pub use json::Json;
pub use rng::{rng_split, Xoshiro256};
pub use sampler::{sample_state, sample_state_into, ValueProfile};
pub use testcase::{TestCase, TestCaseParseError};
