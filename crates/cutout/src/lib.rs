//! Test case extraction — the primary contribution of the FuzzyFlow paper
//! (Secs. 3 and 4).
//!
//! Given a program `p` and the change set ΔT reported by a white-box
//! transformation, this crate:
//!
//! 1. extracts a **cutout** `c ⊆ p`: the modified dataflow subgraph plus
//!    all direct data dependencies, as a standalone executable program
//!    ([`extract`]);
//! 2. determines the cutout's **system state** (everything written that can
//!    influence the rest of `p`) and **input configuration** (everything
//!    that may hold data when `c` starts) with an *external data analysis*
//!    and a *program flow analysis* each ([`side_effects`]);
//! 3. optionally **minimizes the input configuration** by expanding the
//!    cutout along a minimum s-t cut over data-movement volumes, trading
//!    recomputation for input space ([`mincut`]).
//!
//! Because the system state captures everything that can affect the
//! remainder of the program, `c ≅ T(c)  ⟹  p ≅ T(p)` — differential
//! testing of the small cutout substitutes for testing the whole program
//! (paper Sec. 2).
//!
//! # One analysis per program
//!
//! A program is usually cut many times — once per transformation
//! instance — and most of what the steps above compute does not depend
//! on the change set: the widened read/write sets of every top-level node
//! and state (the symbolic substitute + simplify + hull that dominates
//! extraction), which states can reach which, the bounds of the size
//! symbols, the program's loops, its node count. [`ProgramAnalysis`]
//! ([`analysis`]) holds exactly that, borrowed from one [`Sdfg`], filled
//! on first use and safe to share between threads. Its methods *are* the
//! pipeline: [`ProgramAnalysis::extract_cutout`],
//! [`ProgramAnalysis::system_state`],
//! [`ProgramAnalysis::input_configuration`],
//! [`ProgramAnalysis::minimize_input_configuration`] (whose re-extraction
//! reads the same sets) and [`ProgramAnalysis::loops`] for constraint
//! derivation. The free functions of the same names are that code over a
//! throwaway analysis, for callers that cut a program once.
//!
//! What the analysis does not share is anything that depends on ΔT: the
//! cutout's own node closure, its copied subgraph, the overlap decisions
//! between its accesses and the rest of the program, and the flow
//! network of the min cut. A campaign session adds the next level up —
//! instances whose transformations report the *same* ΔT share the
//! finished cutout itself (see `fuzzyflow::session`).
//!
//! [`Sdfg`]: fuzzyflow_ir::Sdfg

pub mod analysis;
pub mod extract;
pub mod mincut;
pub mod side_effects;
pub mod translate;

pub use analysis::ProgramAnalysis;
pub use extract::{extract_cutout, Cutout, CutoutError, CutoutStats};
pub use mincut::{minimize_input_configuration, MinCutOutcome};
pub use side_effects::{input_configuration, system_state, SideEffectContext};
pub use translate::{refind_match, translate_match};
