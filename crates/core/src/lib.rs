//! # FuzzyFlow
//!
//! A Rust reproduction of *"FuzzyFlow: Leveraging Dataflow To Find and
//! Squash Program Optimization Bugs"* (Schaad et al., SC 2023): a fault
//! localization and test-case extraction framework for program
//! optimizations built on a parametric dataflow IR.
//!
//! Given a program and a transformation instance, the paper's workflow
//! (Fig. 1) is:
//!
//! 1. apply the transformation to a clone and obtain its white-box
//!    **change set** ΔT,
//! 2. extract a minimal, standalone **cutout** capturing ΔT, all direct
//!    data dependencies, the **input configuration** and the **system
//!    state** (side-effect analyses of Sec. 3),
//! 3. optionally shrink the input configuration with the **minimum
//!    input-flow cut** (Sec. 4),
//! 4. **differentially fuzz** the cutout against its transformed
//!    counterpart with gray-box constraint-derived sampling (Sec. 5),
//! 5. report a verdict; failures come with a bit-exact, replayable
//!    [`TestCase`](fuzzyflow_fuzz::TestCase).
//!
//! There are two entry points over that one path — steps 1–3 (plus
//! replaying `T` on the cutout and compiling both sides) are one prepare
//! function, and every trial of step 4 is classified by the one
//! differential oracle, [`fuzzyflow_fuzz::judge`]:
//!
//! * [`verify_instance`] verifies **one** instance and returns the rich
//!   [`Verdict`](fuzzyflow_fuzz::Verdict);
//! * a campaign [`session`] verifies **many**: declare workloads ×
//!   transformations with a [`Campaign`] builder, then stream structured
//!   events from a [`Session`] while it verifies every instance — with
//!   budgets, cooperative cancellation (deterministic-prefix results),
//!   an artifact cache that makes re-runs warm, and a serializable
//!   [`CampaignReport`] whose row for an instance is what
//!   [`verify_instance`] reports for it:
//!
//! ```
//! use fuzzyflow::prelude::*;
//! use fuzzyflow::session::{Campaign, Event};
//!
//! let session = Campaign::new("fig2")
//!     .with_workload(
//!         "matmul_chain",
//!         fuzzyflow_workloads::matmul_chain(),
//!         fuzzyflow_workloads::matmul_chain::default_bindings(),
//!     )
//!     .with_transformation(Box::new(MapTilingOffByOne::new(4))) // the Fig. 2 bug
//!     .with_verify(VerifyConfig::new().with_trials(40))
//!     .session();
//! let report = session.run(&|e: &Event| {
//!     if let Event::FaultFound { index, label, .. } = e {
//!         println!("instance {index} is faulty: {label}");
//!     }
//! });
//! assert_eq!(report.fault_count(), 3); // all three GEMM tilings
//! let json = report.to_json(); // replayable test cases included
//! assert!(json.contains("semantic change"));
//! ```
//!
//! The same bug through the single-instance entry point:
//!
//! ```
//! use fuzzyflow::prelude::*;
//!
//! let program = fuzzyflow_workloads::matmul_chain();
//! let tiling = MapTilingOffByOne::new(4); // the Fig. 2 bug
//! let matches = tiling.find_matches(&program);
//! let report = verify_instance(
//!     &program,
//!     &tiling,
//!     &matches[1], // the second multiplication, as in the paper
//!     &VerifyConfig::new()
//!         .with_trials(40)
//!         .with_concretization(fuzzyflow_workloads::matmul_chain::default_bindings()),
//! )
//! .unwrap();
//! assert!(report.verdict.is_fault());
//! ```

pub mod session;
pub mod verify;

pub use session::{
    Campaign, CampaignReport, CancelToken, Event, EventSink, EvolveConfig, Session, TriageReport,
};
pub use verify::{verify_instance, VerificationReport, VerifyConfig, VerifyError};

// Re-export the component crates under stable names.
pub use fuzzyflow_cutout as cutout;
pub use fuzzyflow_dist as dist;
pub use fuzzyflow_evo as evo;
pub use fuzzyflow_fuzz as fuzz;
pub use fuzzyflow_graph as graph;
pub use fuzzyflow_interp as interp;
pub use fuzzyflow_ir as ir;
pub use fuzzyflow_lang as lang;
pub use fuzzyflow_pool as pool;
pub use fuzzyflow_sym as symbolic;
pub use fuzzyflow_transforms as transforms;
pub use fuzzyflow_workloads as workloads;

/// Common imports for examples and downstream users.
pub mod prelude {
    pub use crate::session::{
        Campaign, CampaignReport, CancelToken, Event, EventSink, EvolveConfig, Session,
        SessionBudget, StopReason, TriageReport,
    };
    pub use crate::verify::{verify_instance, VerificationReport, VerifyConfig};
    pub use fuzzyflow_cutout::{extract_cutout, Cutout, SideEffectContext};
    pub use fuzzyflow_fuzz::{CoverageFuzzer, DiffTester, TestCase, Verdict};
    pub use fuzzyflow_interp::{run, ArrayValue, ExecState, Executor, Program};
    pub use fuzzyflow_ir::{validate, Bindings, DType, Sdfg, SdfgBuilder};
    pub use fuzzyflow_transforms::{
        apply_to_clone, builtin_suite, cloudsc_suite, BufferTiling, GpuKernelExtraction,
        LoopUnrolling, MapTiling, MapTilingNoRemainder, MapTilingOffByOne, TaskletFusion,
        Transformation, Vectorization, WriteElimination,
    };
}
