//! Execution errors — the interpreter's crash/hang oracles.

use fuzzyflow_sym::SymError;
use std::fmt;

/// A runtime failure during program execution. In differential testing,
/// any `ExecError` raised by the transformed cutout but not the original
/// marks the transformation invalid (paper Sec. 5.1: "the transformed
/// program c' crashes or hangs while c does not").
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// Memory access outside a container's bounds (the "crash" oracle —
    /// natively this would be a segmentation fault or silent corruption).
    OutOfBounds {
        data: String,
        point: Vec<i64>,
        shape: Vec<i64>,
    },
    /// A poisoned guard plane was found corrupted after a run: a write
    /// landed in the slop bytes around `data`'s payload instead of trapping.
    /// Every checked access traps first, so this is an engine defect
    /// caught by the always-on post-trial verification — the tripwire
    /// under the JIT's unchecked native stores.
    GuardViolation { data: String, shape: Vec<i64> },
    /// A referenced container has no allocation and no descriptor.
    UnknownData(String),
    /// Symbolic evaluation failed (unbound symbol, overflow, bad step).
    Sym(SymError),
    /// The step budget was exhausted (the "hang" oracle).
    StepLimitExceeded { limit: u64 },
    /// Integer division or remainder by zero.
    IntegerDivisionByZero,
    /// A memlet delivered the wrong number of elements for its connector.
    VolumeMismatch {
        context: String,
        expected: usize,
        actual: usize,
    },
    /// A tasklet referenced an undefined connector/local/symbol.
    UndefinedRef { tasklet: String, name: String },
    /// A library node's operands had unsupported shapes.
    ShapeError { node: String, detail: String },
    /// A communication collective was executed without a
    /// [`CommHandler`](crate::CommHandler) (single-node context, paper
    /// Sec. 6.2).
    NoCommHandler { node: String },
    /// Structural problem discovered during execution (malformed IR that
    /// validation would also reject).
    Malformed(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::OutOfBounds { data, point, shape } => write!(
                f,
                "out-of-bounds access on '{data}': index {point:?} outside shape {shape:?}"
            ),
            ExecError::GuardViolation { data, shape } => write!(
                f,
                "guard-plane violation on '{data}': poisoned slop bytes corrupted \
                 (shape {shape:?})"
            ),
            ExecError::UnknownData(d) => write!(f, "unknown data container '{d}'"),
            ExecError::Sym(e) => write!(f, "symbolic evaluation error: {e}"),
            ExecError::StepLimitExceeded { limit } => {
                write!(f, "step limit exceeded ({limit} steps) — treating as hang")
            }
            ExecError::IntegerDivisionByZero => write!(f, "integer division by zero"),
            ExecError::VolumeMismatch {
                context,
                expected,
                actual,
            } => write!(
                f,
                "{context}: memlet volume mismatch (expected {expected} elements, got {actual})"
            ),
            ExecError::UndefinedRef { tasklet, name } => {
                write!(f, "tasklet '{tasklet}': undefined reference '{name}'")
            }
            ExecError::ShapeError { node, detail } => {
                write!(f, "library node '{node}': {detail}")
            }
            ExecError::NoCommHandler { node } => write!(
                f,
                "communication node '{node}' executed without a communication context"
            ),
            ExecError::Malformed(m) => write!(f, "malformed program: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<SymError> for ExecError {
    fn from(e: SymError) -> Self {
        ExecError::Sym(e)
    }
}

impl ExecError {
    /// True for errors that correspond to a *crash* of the program under
    /// test (rather than harness misuse like a missing comm handler).
    pub fn is_crash(&self) -> bool {
        matches!(
            self,
            ExecError::OutOfBounds { .. }
                | ExecError::GuardViolation { .. }
                | ExecError::IntegerDivisionByZero
                | ExecError::Sym(SymError::Overflow)
                | ExecError::Sym(SymError::DivisionByZero)
        )
    }

    /// True for the hang oracle.
    pub fn is_hang(&self) -> bool {
        matches!(self, ExecError::StepLimitExceeded { .. })
    }

    /// Stable, machine-readable tag for the error class — the key fault
    /// triage buckets on. Unlike [`Display`](fmt::Display) output these
    /// never embed instance data, so two faults of the same class
    /// compare equal regardless of the faulting index or container.
    pub fn kind(&self) -> &'static str {
        match self {
            ExecError::OutOfBounds { .. } => "out-of-bounds",
            ExecError::GuardViolation { .. } => "guard-violation",
            ExecError::UnknownData(_) => "unknown-data",
            ExecError::Sym(_) => "symbolic-error",
            ExecError::StepLimitExceeded { .. } => "step-limit",
            ExecError::IntegerDivisionByZero => "integer-division-by-zero",
            ExecError::VolumeMismatch { .. } => "volume-mismatch",
            ExecError::UndefinedRef { .. } => "undefined-ref",
            ExecError::ShapeError { .. } => "shape-error",
            ExecError::NoCommHandler { .. } => "no-comm-handler",
            ExecError::Malformed(_) => "malformed",
        }
    }

    /// The data container the error faulted on, when the class has one.
    pub fn container(&self) -> Option<&str> {
        match self {
            ExecError::OutOfBounds { data, .. }
            | ExecError::GuardViolation { data, .. }
            | ExecError::UnknownData(data) => Some(data),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(ExecError::OutOfBounds {
            data: "A".into(),
            point: vec![5],
            shape: vec![4]
        }
        .is_crash());
        assert!(ExecError::StepLimitExceeded { limit: 10 }.is_hang());
        assert!(!ExecError::UnknownData("x".into()).is_crash());
        assert!(ExecError::IntegerDivisionByZero.is_crash());
    }

    #[test]
    fn display_messages() {
        let e = ExecError::OutOfBounds {
            data: "C".into(),
            point: vec![8, 0],
            shape: vec![8, 8],
        };
        assert!(e.to_string().contains("out-of-bounds"));
        assert!(e.to_string().contains("'C'"));
    }
}
