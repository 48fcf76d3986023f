//! Tasklets: the finest-grained computation nodes.
//!
//! A tasklet is a pure function from its input connectors to its output
//! connectors: it cannot access memory directly, only values delivered by
//! memlets. This is what makes the true read/write set of every operation
//! a graph property (paper Sec. 2.2).

// Fluent expression builders intentionally mirror operator names
// (`a.add(b)`) without implementing the std operator traits for every one.
#![allow(clippy::should_implement_trait)]

use crate::dtype::Scalar;
use std::fmt;

/// Binary operators of the tasklet expression language.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Pow,
    Min,
    Max,
    And,
    Or,
}

/// Unary operators (including the math intrinsics the workloads need).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Not,
    Abs,
    Sqrt,
    Exp,
    Log,
    Floor,
    Ceil,
    Tanh,
}

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

/// An expression over tasklet connectors, locals, symbols and constants.
#[derive(Clone, Debug, PartialEq, Hash)]
pub enum ScalarExpr {
    /// Literal value.
    Const(Scalar),
    /// Reference to an input connector, a local defined by an earlier
    /// statement, or (as a fallback) a program symbol in scope.
    Ref(String),
    Bin(BinOp, Box<ScalarExpr>, Box<ScalarExpr>),
    Un(UnOp, Box<ScalarExpr>),
    Cmp(CmpOp, Box<ScalarExpr>, Box<ScalarExpr>),
    /// `if cond { then } else { otherwise }`.
    Select(Box<ScalarExpr>, Box<ScalarExpr>, Box<ScalarExpr>),
}

impl ScalarExpr {
    /// A reference to a connector/local/symbol.
    pub fn r(name: impl Into<String>) -> Self {
        ScalarExpr::Ref(name.into())
    }

    /// An `f64` literal.
    pub fn f64(v: f64) -> Self {
        ScalarExpr::Const(Scalar::F64(v))
    }

    /// An `i64` literal.
    pub fn i64(v: i64) -> Self {
        ScalarExpr::Const(Scalar::I64(v))
    }

    pub fn add(self, o: ScalarExpr) -> Self {
        ScalarExpr::Bin(BinOp::Add, Box::new(self), Box::new(o))
    }
    pub fn sub(self, o: ScalarExpr) -> Self {
        ScalarExpr::Bin(BinOp::Sub, Box::new(self), Box::new(o))
    }
    pub fn mul(self, o: ScalarExpr) -> Self {
        ScalarExpr::Bin(BinOp::Mul, Box::new(self), Box::new(o))
    }
    pub fn div(self, o: ScalarExpr) -> Self {
        ScalarExpr::Bin(BinOp::Div, Box::new(self), Box::new(o))
    }
    pub fn min(self, o: ScalarExpr) -> Self {
        ScalarExpr::Bin(BinOp::Min, Box::new(self), Box::new(o))
    }
    pub fn max(self, o: ScalarExpr) -> Self {
        ScalarExpr::Bin(BinOp::Max, Box::new(self), Box::new(o))
    }
    pub fn neg(self) -> Self {
        ScalarExpr::Un(UnOp::Neg, Box::new(self))
    }
    pub fn sqrt(self) -> Self {
        ScalarExpr::Un(UnOp::Sqrt, Box::new(self))
    }
    pub fn exp(self) -> Self {
        ScalarExpr::Un(UnOp::Exp, Box::new(self))
    }
    pub fn lt(self, o: ScalarExpr) -> Self {
        ScalarExpr::Cmp(CmpOp::Lt, Box::new(self), Box::new(o))
    }
    pub fn select(self, then: ScalarExpr, otherwise: ScalarExpr) -> Self {
        ScalarExpr::Select(Box::new(self), Box::new(then), Box::new(otherwise))
    }

    /// Collects referenced names (connectors/locals/symbols).
    pub fn collect_refs(&self, out: &mut Vec<String>) {
        match self {
            ScalarExpr::Const(_) => {}
            ScalarExpr::Ref(n) => {
                if !out.iter().any(|x| x == n) {
                    out.push(n.clone());
                }
            }
            ScalarExpr::Bin(_, a, b) | ScalarExpr::Cmp(_, a, b) => {
                a.collect_refs(out);
                b.collect_refs(out);
            }
            ScalarExpr::Un(_, a) => a.collect_refs(out),
            ScalarExpr::Select(c, a, b) => {
                c.collect_refs(out);
                a.collect_refs(out);
                b.collect_refs(out);
            }
        }
    }

    /// Renames a referenced name everywhere.
    pub fn rename(&self, from: &str, to: &str) -> ScalarExpr {
        match self {
            ScalarExpr::Const(c) => ScalarExpr::Const(*c),
            ScalarExpr::Ref(n) => {
                ScalarExpr::Ref(if n == from { to.to_string() } else { n.clone() })
            }
            ScalarExpr::Bin(op, a, b) => ScalarExpr::Bin(
                *op,
                Box::new(a.rename(from, to)),
                Box::new(b.rename(from, to)),
            ),
            ScalarExpr::Cmp(op, a, b) => ScalarExpr::Cmp(
                *op,
                Box::new(a.rename(from, to)),
                Box::new(b.rename(from, to)),
            ),
            ScalarExpr::Un(op, a) => ScalarExpr::Un(*op, Box::new(a.rename(from, to))),
            ScalarExpr::Select(c, a, b) => ScalarExpr::Select(
                Box::new(c.rename(from, to)),
                Box::new(a.rename(from, to)),
                Box::new(b.rename(from, to)),
            ),
        }
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Const(c) => write!(f, "{c}"),
            ScalarExpr::Ref(n) => write!(f, "{n}"),
            ScalarExpr::Bin(op, a, b) => {
                let s = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Mod => "%",
                    BinOp::Pow => "**",
                    BinOp::Min => return write!(f, "min({a}, {b})"),
                    BinOp::Max => return write!(f, "max({a}, {b})"),
                    BinOp::And => "&&",
                    BinOp::Or => "||",
                };
                write!(f, "({a} {s} {b})")
            }
            ScalarExpr::Un(op, a) => {
                let s = match op {
                    UnOp::Neg => return write!(f, "(-{a})"),
                    UnOp::Not => return write!(f, "(!{a})"),
                    UnOp::Abs => "abs",
                    UnOp::Sqrt => "sqrt",
                    UnOp::Exp => "exp",
                    UnOp::Log => "log",
                    UnOp::Floor => "floor",
                    UnOp::Ceil => "ceil",
                    UnOp::Tanh => "tanh",
                };
                write!(f, "{s}({a})")
            }
            ScalarExpr::Cmp(op, a, b) => {
                let s = match op {
                    CmpOp::Lt => "<",
                    CmpOp::Le => "<=",
                    CmpOp::Gt => ">",
                    CmpOp::Ge => ">=",
                    CmpOp::Eq => "==",
                    CmpOp::Ne => "!=",
                };
                write!(f, "({a} {s} {b})")
            }
            ScalarExpr::Select(c, a, b) => write!(f, "({c} ? {a} : {b})"),
        }
    }
}

/// One statement of tasklet code: assign an expression to an output
/// connector or a local variable.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct TaskletStmt {
    pub dst: String,
    pub value: ScalarExpr,
}

/// A tasklet node: named ports plus straight-line code.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct Tasklet {
    /// Human-readable name (used in diagnostics and graph dumps).
    pub name: String,
    /// Input connector names; each must be fed by exactly one memlet.
    pub inputs: Vec<String>,
    /// Output connector names; each must feed at least one memlet.
    pub outputs: Vec<String>,
    /// Straight-line code, executed in order.
    pub code: Vec<TaskletStmt>,
    /// SIMD width: 1 for scalar tasklets. Vectorized tasklets (produced by
    /// the `Vectorization` transformation) evaluate their code lane-wise on
    /// `lanes` consecutive elements delivered by each memlet.
    pub lanes: u32,
}

impl Tasklet {
    /// A scalar tasklet computing `output = expr(inputs)`.
    pub fn simple(
        name: impl Into<String>,
        inputs: Vec<&str>,
        output: &str,
        expr: ScalarExpr,
    ) -> Self {
        Tasklet {
            name: name.into(),
            inputs: inputs.into_iter().map(String::from).collect(),
            outputs: vec![output.to_string()],
            code: vec![TaskletStmt {
                dst: output.to_string(),
                value: expr,
            }],
            lanes: 1,
        }
    }

    /// Multi-statement tasklet.
    pub fn with_code(
        name: impl Into<String>,
        inputs: Vec<&str>,
        outputs: Vec<&str>,
        code: Vec<TaskletStmt>,
    ) -> Self {
        Tasklet {
            name: name.into(),
            inputs: inputs.into_iter().map(String::from).collect(),
            outputs: outputs.into_iter().map(String::from).collect(),
            code,
            lanes: 1,
        }
    }

    /// Names referenced by the code that are neither inputs nor defined as
    /// locals by earlier statements — these resolve to program symbols at
    /// execution time (e.g. a map parameter used in arithmetic).
    pub fn symbol_refs(&self) -> Vec<String> {
        let mut defined: Vec<String> = self.inputs.clone();
        let mut syms = Vec::new();
        for stmt in &self.code {
            let mut refs = Vec::new();
            stmt.value.collect_refs(&mut refs);
            for r in refs {
                if !defined.contains(&r) && !syms.contains(&r) {
                    syms.push(r);
                }
            }
            if !defined.contains(&stmt.dst) {
                defined.push(stmt.dst.clone());
            }
        }
        syms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_tasklet_shape() {
        let t = Tasklet::simple(
            "scale",
            vec!["a"],
            "out",
            ScalarExpr::r("a").mul(ScalarExpr::f64(2.0)),
        );
        assert_eq!(t.inputs, vec!["a"]);
        assert_eq!(t.outputs, vec!["out"]);
        assert_eq!(t.code.len(), 1);
        assert_eq!(t.lanes, 1);
    }

    #[test]
    fn symbol_refs_excludes_inputs_and_locals() {
        let t = Tasklet::with_code(
            "t",
            vec!["a"],
            vec!["out"],
            vec![
                TaskletStmt {
                    dst: "tmp".into(),
                    value: ScalarExpr::r("a").add(ScalarExpr::r("N")),
                },
                TaskletStmt {
                    dst: "out".into(),
                    value: ScalarExpr::r("tmp").mul(ScalarExpr::r("tmp")),
                },
            ],
        );
        assert_eq!(t.symbol_refs(), vec!["N".to_string()]);
    }

    #[test]
    fn expr_display() {
        let e = ScalarExpr::r("x")
            .lt(ScalarExpr::f64(0.0))
            .select(ScalarExpr::r("x").neg(), ScalarExpr::r("x"));
        assert_eq!(e.to_string(), "((x < 0) ? (-x) : x)");
    }

    #[test]
    fn rename_refs() {
        let e = ScalarExpr::r("a").add(ScalarExpr::r("b"));
        assert_eq!(e.rename("a", "z").to_string(), "(z + b)");
    }

    #[test]
    fn collect_refs_dedup() {
        let e = ScalarExpr::r("a").add(ScalarExpr::r("a").mul(ScalarExpr::r("b")));
        let mut refs = Vec::new();
        e.collect_refs(&mut refs);
        assert_eq!(refs, vec!["a".to_string(), "b".to_string()]);
    }
}
