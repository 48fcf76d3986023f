//! Simulated multi-rank communication runtime (paper Sec. 6.2 / Fig. 6).
//!
//! Distributed SDFGs express collectives as library nodes
//! (`LibraryOp::Comm`); executing one requires every participating rank.
//! This crate provides the single-process stand-in for that machinery:
//!
//! * [`SimComm`] — a rank-simulating [`CommHandler`] with matched
//!   delivery and barrier semantics: each collective is a rendezvous
//!   that blocks until all ranks contribute, verifies that every rank
//!   entered the *same* collective node, and computes each rank's local
//!   result from the rank-ordered contributions (so results are
//!   independent of thread scheduling). A failing or early-exiting rank
//!   poisons the communicator instead of deadlocking the others.
//! * [`has_communication`] — detects communication nodes anywhere in an
//!   SDFG, including inside nested map scopes. A FuzzyFlow cutout must
//!   be communication-free to be testable on a single rank; data that
//!   arrived through collectives is exposed as a plain input instead.
//! * [`run_distributed`] — lock-step SPMD execution: the ranks run as a
//!   co-scheduled gang on the shared worker pool, each with
//!   `rank`/`nranks` bound and its own executor of one compiled program,
//!   all sharing one [`SimComm`].
//!
//! [`CommHandler`]: fuzzyflow_interp::CommHandler

pub mod comm;
pub mod detect;
pub mod run;

pub use comm::SimComm;
pub use detect::{communication_nodes, has_communication};
pub use run::run_distributed;
