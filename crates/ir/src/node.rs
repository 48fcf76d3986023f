//! Dataflow graph node kinds.

use crate::dataflow::Dataflow;
use crate::memlet::Wcr;
use crate::tasklet::Tasklet;
use fuzzyflow_sym::SymRange;
use std::fmt;

/// Memory space of a data container. `Device` models accelerator memory for
/// the GPU-kernel-extraction case study (paper Sec. 6.4): device containers
/// may only be touched by `GpuKernel`-scheduled maps and explicit copies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Storage {
    Host,
    Device,
}

/// Execution schedule of a map scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Schedule {
    /// Ordinary sequential loop nest.
    Sequential,
    /// Parallel loop (iterations independent up to WCR).
    Parallel,
    /// Simulated GPU kernel: body may only access `Storage::Device` data.
    GpuKernel,
}

/// A parametric map scope: a (possibly multi-dimensional) parallel loop
/// whose body is a nested dataflow graph (paper Sec. 2.3: "constructs like
/// for-loops are expressed with special scope nodes, where their loop body
/// forms a nested dataflow graph inside of them").
#[derive(Clone, Debug, Hash)]
pub struct MapScope {
    /// Iteration parameter names, one per dimension.
    pub params: Vec<String>,
    /// Iteration ranges, one per parameter.
    pub ranges: Vec<SymRange>,
    /// Execution schedule.
    pub schedule: Schedule,
    /// The loop body.
    pub body: Dataflow,
}

/// Simulated distributed-communication operations (paper Sec. 6.2): these
/// are the library nodes a cutout must *not* contain for single-node
/// testing to be possible.
#[derive(Clone, Debug, PartialEq, Hash)]
pub enum CommOp {
    /// Element-wise reduction across all ranks; result replicated.
    AllReduce(Wcr),
    /// Concatenation of each rank's buffer along axis 0 into the output.
    AllGather,
    /// Root rank's buffer replicated to all ranks.
    Broadcast { root: i64 },
}

impl fmt::Display for CommOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommOp::AllReduce(w) => write!(f, "allreduce({w})"),
            CommOp::AllGather => write!(f, "allgather"),
            CommOp::Broadcast { root } => write!(f, "broadcast(root={root})"),
        }
    }
}

/// Coarse-grained library operations (the stand-in for BLAS/MKL calls in
/// the paper's workloads).
#[derive(Clone, Debug, PartialEq, Hash)]
pub enum LibraryOp {
    /// `C = A @ B`. 2-D operands perform a plain GEMM; 3-D operands perform
    /// a batched GEMM over the leading dimension. Connectors: `A`, `B` in,
    /// `C` out.
    MatMul,
    /// `out = in^T` (2-D). Connectors: `in`, `out`.
    Transpose,
    /// Reduction of `in` over `axis` with operator `op`. Connectors:
    /// `in`, `out`.
    Reduce { op: Wcr, axis: usize },
    /// Subset-to-subset copy between two containers (used e.g. for
    /// host<->device transfers). Connectors: `in`, `out`.
    Copy,
    /// Numerically stable softmax over the last axis. Connectors:
    /// `in`, `out`.
    Softmax,
    /// Distributed collective. Connectors: `in`, `out`.
    Comm(CommOp),
}

impl LibraryOp {
    /// Input connector names this operation requires.
    pub fn input_conns(&self) -> Vec<&'static str> {
        match self {
            LibraryOp::MatMul => vec!["A", "B"],
            _ => vec!["in"],
        }
    }

    /// Output connector names this operation provides.
    pub fn output_conns(&self) -> Vec<&'static str> {
        match self {
            LibraryOp::MatMul => vec!["C"],
            _ => vec!["out"],
        }
    }

    /// True for communication collectives (paper Sec. 6.2).
    pub fn is_comm(&self) -> bool {
        matches!(self, LibraryOp::Comm(_))
    }
}

/// A library node: a named instance of a [`LibraryOp`].
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct LibraryNode {
    pub name: String,
    pub op: LibraryOp,
}

/// A node of a dataflow graph.
#[derive(Clone, Debug, Hash)]
pub enum DfNode {
    /// An access point of a named data container. Edges out of it read the
    /// container; edges into it write the container.
    Access(String),
    /// A fine-grained computation.
    Tasklet(Tasklet),
    /// A parametric loop scope with a nested body.
    Map(MapScope),
    /// A coarse-grained library operation.
    Library(LibraryNode),
}

impl DfNode {
    /// Short human-readable label for diagnostics.
    pub fn label(&self) -> String {
        match self {
            DfNode::Access(d) => format!("access({d})"),
            DfNode::Tasklet(t) => format!("tasklet({})", t.name),
            DfNode::Map(m) => format!("map[{}]", m.params.join(",")),
            DfNode::Library(l) => format!("lib({})", l.name),
        }
    }

    /// Container name if this is an access node.
    pub fn as_access(&self) -> Option<&str> {
        match self {
            DfNode::Access(d) => Some(d),
            _ => None,
        }
    }

    /// True if this node is an access node.
    pub fn is_access(&self) -> bool {
        matches!(self, DfNode::Access(_))
    }

    /// Map scope accessor.
    pub fn as_map(&self) -> Option<&MapScope> {
        match self {
            DfNode::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Mutable map scope accessor.
    pub fn as_map_mut(&mut self) -> Option<&mut MapScope> {
        match self {
            DfNode::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Tasklet accessor.
    pub fn as_tasklet(&self) -> Option<&Tasklet> {
        match self {
            DfNode::Tasklet(t) => Some(t),
            _ => None,
        }
    }

    /// Library accessor.
    pub fn as_library(&self) -> Option<&LibraryNode> {
        match self {
            DfNode::Library(l) => Some(l),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_connectors() {
        assert_eq!(LibraryOp::MatMul.input_conns(), vec!["A", "B"]);
        assert_eq!(LibraryOp::MatMul.output_conns(), vec!["C"]);
        assert_eq!(LibraryOp::Copy.input_conns(), vec!["in"]);
        assert!(LibraryOp::Comm(CommOp::AllGather).is_comm());
        assert!(!LibraryOp::Softmax.is_comm());
    }

    #[test]
    fn labels() {
        assert_eq!(DfNode::Access("A".into()).label(), "access(A)");
        let t = crate::tasklet::Tasklet::simple(
            "t0",
            vec![],
            "o",
            crate::tasklet::ScalarExpr::f64(1.0),
        );
        assert_eq!(DfNode::Tasklet(t).label(), "tasklet(t0)");
    }
}
