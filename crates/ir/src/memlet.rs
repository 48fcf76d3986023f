//! Memlets: data-movement edges annotated with exact access subsets.

use fuzzyflow_sym::{Subset, SymExpr};
use std::fmt;

/// Write-conflict resolution: how concurrent/accumulating writes combine.
/// Doubles as the reduction operator of `Reduce` library nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Wcr {
    Sum,
    Prod,
    Max,
    Min,
}

impl fmt::Display for Wcr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Wcr::Sum => "sum",
            Wcr::Prod => "prod",
            Wcr::Max => "max",
            Wcr::Min => "min",
        };
        write!(f, "{s}")
    }
}

/// A data-movement edge in a dataflow graph.
///
/// Every memlet names the container it moves data for and the *exact*
/// symbolic subset accessed (paper Sec. 2.3: "each data movement edge is
/// annotated with the exact data subset being accessed"). Connector names
/// bind the moved element(s) to tasklet/library-node ports.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct Memlet {
    /// Name of the data container being accessed.
    pub data: String,
    /// Exact accessed subset (may reference map parameters in scope).
    pub subset: Subset,
    /// Source connector on the producing node (for tasklet/library outputs).
    pub src_conn: Option<String>,
    /// Destination connector on the consuming node (for tasklet/library inputs).
    pub dst_conn: Option<String>,
    /// Write-conflict resolution for accumulating writes.
    pub wcr: Option<Wcr>,
}

impl Memlet {
    /// Memlet moving `subset` of `data` with no connectors.
    pub fn new(data: impl Into<String>, subset: Subset) -> Self {
        Memlet {
            data: data.into(),
            subset,
            src_conn: None,
            dst_conn: None,
            wcr: None,
        }
    }

    /// Sets the destination connector (input port of the consumer).
    pub fn to_conn(mut self, conn: impl Into<String>) -> Self {
        self.dst_conn = Some(conn.into());
        self
    }

    /// Sets the source connector (output port of the producer).
    pub fn from_conn(mut self, conn: impl Into<String>) -> Self {
        self.src_conn = Some(conn.into());
        self
    }

    /// Attaches a write-conflict resolution operator.
    pub fn with_wcr(mut self, wcr: Wcr) -> Self {
        self.wcr = Some(wcr);
        self
    }

    /// Data volume moved across this edge, in elements — the edge capacity
    /// used by the minimum input-flow cut (paper Sec. 4.1: "the edges in a
    /// dataflow graph ... have a certain data volume associated with them").
    pub fn volume(&self) -> SymExpr {
        self.subset.volume()
    }

    /// Renames a symbol (e.g. a map parameter) in the subset.
    pub fn substitute(&self, name: &str, value: &SymExpr) -> Memlet {
        Memlet {
            data: self.data.clone(),
            subset: self.subset.substitute(name, value),
            src_conn: self.src_conn.clone(),
            dst_conn: self.dst_conn.clone(),
            wcr: self.wcr,
        }
    }
}

impl fmt::Display for Memlet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.data, self.subset)?;
        if let Some(w) = self.wcr {
            write!(f, " (wcr: {w})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzyflow_sym::{sym, Bindings, SymRange};

    #[test]
    fn volume_of_subregion() {
        let m = Memlet::new(
            "A",
            Subset::new(vec![
                SymRange::span(SymExpr::Int(0), sym("N")),
                SymRange::index(sym("j")),
            ]),
        );
        let b = Bindings::from_pairs([("N", 10), ("j", 3)]);
        assert_eq!(m.volume().eval(&b).unwrap(), 10);
    }

    #[test]
    fn substitution_renames_params() {
        let m = Memlet::new("A", Subset::at(vec![sym("i")])).to_conn("a");
        let m2 = m.substitute("i", &SymExpr::Int(5));
        let b = Bindings::new();
        let c = m2.subset.concrete(&b).unwrap();
        assert_eq!(c.dims[0].start, 5);
        assert_eq!(m2.dst_conn.as_deref(), Some("a"));
    }

    #[test]
    fn display_includes_wcr() {
        let m = Memlet::new("C", Subset::at(vec![sym("i")])).with_wcr(Wcr::Sum);
        assert_eq!(m.to_string(), "C[i] (wcr: sum)");
    }
}
