//! Concrete evaluation of symbolic expressions under symbol bindings.

use crate::expr::SymExpr;
use std::collections::BTreeMap;
use std::fmt;

/// Errors raised when evaluating symbolic expressions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SymError {
    /// A symbol had no binding.
    Unbound(String),
    /// Division or remainder by zero.
    DivisionByZero,
    /// Arithmetic overflowed `i64`.
    Overflow,
    /// A range had an invalid (zero or negative) step.
    InvalidStep(i64),
    /// Parse error with message.
    Parse(String),
}

impl fmt::Display for SymError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymError::Unbound(s) => write!(f, "unbound symbol '{s}'"),
            SymError::DivisionByZero => write!(f, "division by zero"),
            SymError::Overflow => write!(f, "integer overflow in symbolic evaluation"),
            SymError::InvalidStep(s) => write!(f, "invalid range step {s}"),
            SymError::Parse(m) => write!(f, "parse error: {m}"),
        }
    }
}

impl std::error::Error for SymError {}

/// A deterministic mapping from symbol names to concrete integer values.
///
/// Backed by a `BTreeMap` so iteration order (and therefore everything
/// derived from it, such as fuzzing input serialization) is stable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bindings {
    map: BTreeMap<String, i64>,
}

impl Bindings {
    /// An empty set of bindings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds bindings from `(name, value)` pairs.
    pub fn from_pairs<I, S>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (S, i64)>,
        S: Into<String>,
    {
        let mut b = Self::new();
        for (k, v) in pairs {
            b.set(k, v);
        }
        b
    }

    /// Sets (or overwrites) the value of a symbol.
    pub fn set(&mut self, name: impl Into<String>, value: i64) -> &mut Self {
        self.map.insert(name.into(), value);
        self
    }

    /// Sets the value of a symbol by reference: overwrites an existing
    /// binding in place without allocating, and copies the name only
    /// when the symbol is new.
    pub fn set_str(&mut self, name: &str, value: i64) -> &mut Self {
        match self.map.get_mut(name) {
            Some(v) => *v = value,
            None => {
                self.map.insert(name.to_string(), value);
            }
        }
        self
    }

    /// Looks up a symbol.
    pub fn get(&self, name: &str) -> Option<i64> {
        self.map.get(name).copied()
    }

    /// Removes a symbol binding, returning its previous value.
    pub fn remove(&mut self, name: &str) -> Option<i64> {
        self.map.remove(name)
    }

    /// True if a binding exists for `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.map.contains_key(name)
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, i64)> {
        self.map.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of bound symbols.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no symbols are bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Merges `other` into `self`; `other` wins on conflicts.
    pub fn extend_from(&mut self, other: &Bindings) {
        for (k, v) in other.iter() {
            self.set(k, v);
        }
    }
}

impl fmt::Display for Bindings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        write!(f, "{{")?;
        for (k, v) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl SymExpr {
    /// Evaluates the expression to a concrete integer under `bindings`.
    pub fn eval(&self, bindings: &Bindings) -> Result<i64, SymError> {
        match self {
            SymExpr::Int(v) => Ok(*v),
            SymExpr::Sym(s) => bindings.get(s).ok_or_else(|| SymError::Unbound(s.clone())),
            SymExpr::Add(a, b) => a
                .eval(bindings)?
                .checked_add(b.eval(bindings)?)
                .ok_or(SymError::Overflow),
            SymExpr::Sub(a, b) => a
                .eval(bindings)?
                .checked_sub(b.eval(bindings)?)
                .ok_or(SymError::Overflow),
            SymExpr::Mul(a, b) => a
                .eval(bindings)?
                .checked_mul(b.eval(bindings)?)
                .ok_or(SymError::Overflow),
            SymExpr::Div(a, b) => {
                let d = b.eval(bindings)?;
                if d == 0 {
                    return Err(SymError::DivisionByZero);
                }
                a.eval(bindings)?
                    .checked_div_euclid(d)
                    .ok_or(SymError::Overflow)
            }
            SymExpr::Mod(a, b) => {
                let d = b.eval(bindings)?;
                if d == 0 {
                    return Err(SymError::DivisionByZero);
                }
                a.eval(bindings)?
                    .checked_rem_euclid(d)
                    .ok_or(SymError::Overflow)
            }
            SymExpr::Min(a, b) => Ok(a.eval(bindings)?.min(b.eval(bindings)?)),
            SymExpr::Max(a, b) => Ok(a.eval(bindings)?.max(b.eval(bindings)?)),
            SymExpr::Neg(a) => a.eval(bindings)?.checked_neg().ok_or(SymError::Overflow),
        }
    }

    /// Substitutes all bound symbols with their concrete values, leaving
    /// unbound symbols in place. Useful for partially concretizing
    /// capacities before the min-cut (paper Sec. 4.2).
    pub fn concretize(&self, bindings: &Bindings) -> SymExpr {
        let mut out = self.clone();
        for (name, value) in bindings.iter() {
            if out.references(name) {
                out = out.substitute(name, &SymExpr::Int(value));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(pairs: &[(&str, i64)]) -> Bindings {
        Bindings::from_pairs(pairs.iter().map(|&(k, v)| (k, v)))
    }

    #[test]
    fn eval_basic_arithmetic() {
        let e = SymExpr::sym("N") * SymExpr::sym("N") + SymExpr::int(1);
        assert_eq!(e.eval(&b(&[("N", 5)])).unwrap(), 26);
    }

    #[test]
    fn eval_unbound_symbol_errors() {
        let e = SymExpr::sym("Q");
        assert_eq!(e.eval(&Bindings::new()), Err(SymError::Unbound("Q".into())));
    }

    #[test]
    fn floor_division_is_euclidean() {
        let e = SymExpr::Neg(Box::new(SymExpr::int(7))).div(SymExpr::int(2));
        assert_eq!(e.eval(&Bindings::new()).unwrap(), -4);
    }

    #[test]
    fn modulo_is_nonnegative_for_positive_divisor() {
        let e = SymExpr::Neg(Box::new(SymExpr::int(7))).rem(SymExpr::int(3));
        assert_eq!(e.eval(&Bindings::new()).unwrap(), 2);
    }

    #[test]
    fn div_by_zero_detected() {
        let e = SymExpr::int(1).div(SymExpr::int(0));
        assert_eq!(e.eval(&Bindings::new()), Err(SymError::DivisionByZero));
    }

    #[test]
    fn overflow_detected() {
        let e = SymExpr::int(i64::MAX) + SymExpr::int(1);
        assert_eq!(e.eval(&Bindings::new()), Err(SymError::Overflow));
    }

    #[test]
    fn ceil_div_rounds_up() {
        let e = SymExpr::sym("N").ceil_div(SymExpr::int(32));
        assert_eq!(e.eval(&b(&[("N", 33)])).unwrap(), 2);
        let e = SymExpr::sym("N").ceil_div(SymExpr::int(32));
        assert_eq!(e.eval(&b(&[("N", 64)])).unwrap(), 2);
    }

    #[test]
    fn min_max_eval() {
        let e = SymExpr::sym("a").min(SymExpr::sym("b"));
        assert_eq!(e.eval(&b(&[("a", 3), ("b", 7)])).unwrap(), 3);
        let e = SymExpr::sym("a").max(SymExpr::sym("b"));
        assert_eq!(e.eval(&b(&[("a", 3), ("b", 7)])).unwrap(), 7);
    }

    #[test]
    fn concretize_partial() {
        let e = SymExpr::sym("N") * SymExpr::sym("M");
        let c = e.concretize(&b(&[("N", 4)]));
        assert_eq!(c.to_string(), "4*M");
        assert_eq!(c.eval(&b(&[("M", 2)])).unwrap(), 8);
    }

    #[test]
    fn set_str_overwrites_and_inserts() {
        let mut bd = b(&[("N", 1)]);
        bd.set_str("N", 7).set_str("M", 3);
        assert_eq!(bd, b(&[("M", 3), ("N", 7)]));
    }

    #[test]
    fn bindings_display_sorted() {
        let bd = b(&[("z", 1), ("a", 2)]);
        assert_eq!(bd.to_string(), "{a=2, z=1}");
    }
}
