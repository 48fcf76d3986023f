//! Element data types and scalar values.

use std::fmt;
use std::hash::{Hash, Hasher};

/// Element type of a data container or symbol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DType {
    F64,
    F32,
    I64,
    I32,
    Bool,
}

impl DType {
    /// Size of one element in bytes.
    pub fn size_bytes(self) -> usize {
        match self {
            DType::F64 | DType::I64 => 8,
            DType::F32 | DType::I32 => 4,
            DType::Bool => 1,
        }
    }

    /// True for floating-point types.
    pub fn is_float(self) -> bool {
        matches!(self, DType::F64 | DType::F32)
    }

    /// True for integer types (excluding Bool).
    pub fn is_int(self) -> bool {
        matches!(self, DType::I64 | DType::I32)
    }

    /// The zero value of this type.
    pub fn zero(self) -> Scalar {
        match self {
            DType::F64 => Scalar::F64(0.0),
            DType::F32 => Scalar::F32(0.0),
            DType::I64 => Scalar::I64(0),
            DType::I32 => Scalar::I32(0),
            DType::Bool => Scalar::Bool(false),
        }
    }

    /// The multiplicative identity of this type.
    pub fn one(self) -> Scalar {
        match self {
            DType::F64 => Scalar::F64(1.0),
            DType::F32 => Scalar::F32(1.0),
            DType::I64 => Scalar::I64(1),
            DType::I32 => Scalar::I32(1),
            DType::Bool => Scalar::Bool(true),
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::F64 => "f64",
            DType::F32 => "f32",
            DType::I64 => "i64",
            DType::I32 => "i32",
            DType::Bool => "bool",
        };
        write!(f, "{s}")
    }
}

/// A typed scalar value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Scalar {
    F64(f64),
    F32(f32),
    I64(i64),
    I32(i32),
    Bool(bool),
}

impl Scalar {
    /// The type of this value.
    pub fn dtype(self) -> DType {
        match self {
            Scalar::F64(_) => DType::F64,
            Scalar::F32(_) => DType::F32,
            Scalar::I64(_) => DType::I64,
            Scalar::I32(_) => DType::I32,
            Scalar::Bool(_) => DType::Bool,
        }
    }

    /// Value as `f64` (lossy for large i64).
    pub fn as_f64(self) -> f64 {
        match self {
            Scalar::F64(v) => v,
            Scalar::F32(v) => v as f64,
            Scalar::I64(v) => v as f64,
            Scalar::I32(v) => v as f64,
            Scalar::Bool(v) => v as i64 as f64,
        }
    }

    /// Value as `i64` (floats truncate toward zero).
    pub fn as_i64(self) -> i64 {
        match self {
            Scalar::F64(v) => v as i64,
            Scalar::F32(v) => v as i64,
            Scalar::I64(v) => v,
            Scalar::I32(v) => v as i64,
            Scalar::Bool(v) => v as i64,
        }
    }

    /// Value as boolean (numbers: non-zero is true).
    pub fn as_bool(self) -> bool {
        match self {
            Scalar::F64(v) => v != 0.0,
            Scalar::F32(v) => v != 0.0,
            Scalar::I64(v) => v != 0,
            Scalar::I32(v) => v != 0,
            Scalar::Bool(v) => v,
        }
    }

    /// Casts the value to another type, following standard numeric
    /// conversion rules.
    pub fn cast(self, to: DType) -> Scalar {
        match to {
            DType::F64 => Scalar::F64(self.as_f64()),
            DType::F32 => Scalar::F32(self.as_f64() as f32),
            DType::I64 => Scalar::I64(self.as_i64()),
            DType::I32 => Scalar::I32(self.as_i64() as i32),
            DType::Bool => Scalar::Bool(self.as_bool()),
        }
    }

    /// Bit-exact equality (distinguishes NaN payloads and -0.0 from 0.0) —
    /// the default comparison used by differential testing when no
    /// tolerance threshold is configured (paper Sec. 5.1).
    ///
    /// One deliberate exception: two NaNs compare equal when their bits
    /// agree *modulo the sign bit*. IEEE 754 (§6.3) leaves the sign of a
    /// NaN result unspecified, and compilers freely commute float
    /// operations — which NaN operand an `addsd` propagates (and hence
    /// the sign it carries) can differ between engine tiers or even
    /// between builds of the same source. Payloads still distinguish, so
    /// an optimization that swaps a NaN for a different NaN is flagged.
    pub fn bits_eq(self, other: Scalar) -> bool {
        match (self, other) {
            (Scalar::F64(a), Scalar::F64(b)) => f64_bits_eq(a, b),
            (Scalar::F32(a), Scalar::F32(b)) => {
                if a.is_nan() && b.is_nan() {
                    a.to_bits() | (1 << 31) == b.to_bits() | (1 << 31)
                } else {
                    a.to_bits() == b.to_bits()
                }
            }
            (Scalar::I64(a), Scalar::I64(b)) => a == b,
            (Scalar::I32(a), Scalar::I32(b)) => a == b,
            (Scalar::Bool(a), Scalar::Bool(b)) => a == b,
            _ => false,
        }
    }

    /// Approximate equality with an absolute/relative threshold `tol`
    /// (used as `|a-b| <= tol * max(1, |a|, |b|)`). NaNs compare equal to
    /// NaNs so that an optimization that preserves a NaN is not flagged.
    pub fn approx_eq(self, other: Scalar, tol: f64) -> bool {
        if self.dtype() != other.dtype() {
            return false;
        }
        if !self.dtype().is_float() {
            return self.bits_eq(other);
        }
        f64_approx_eq(self.as_f64(), other.as_f64(), tol)
    }
}

/// Hashes the variant and the value's exact bits, so `0.0` and `-0.0`,
/// and NaNs of different payload or sign, hash apart. Finer than `==`
/// (which equates the zeros and never holds for NaN); structural
/// fingerprints of programs rely on it.
impl Hash for Scalar {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match *self {
            Scalar::F64(v) => v.to_bits().hash(state),
            Scalar::F32(v) => v.to_bits().hash(state),
            Scalar::I64(v) => v.hash(state),
            Scalar::I32(v) => v.hash(state),
            Scalar::Bool(v) => v.hash(state),
        }
    }
}

/// [`Scalar::bits_eq`] on two `f64` values: bit equality, NaNs compared
/// without their sign bit.
#[inline]
pub fn f64_bits_eq(a: f64, b: f64) -> bool {
    if a.is_nan() && b.is_nan() {
        a.to_bits() | (1 << 63) == b.to_bits() | (1 << 63)
    } else {
        a.to_bits() == b.to_bits()
    }
}

/// [`Scalar::approx_eq`] on two float values widened to `f64`: NaN equals
/// NaN, infinities compare exactly, everything else within
/// `tol * max(1, |a|, |b|)`.
#[inline]
pub fn f64_approx_eq(a: f64, b: f64, tol: f64) -> bool {
    if a.is_nan() && b.is_nan() {
        return true;
    }
    if a.is_infinite() || b.is_infinite() {
        return a == b;
    }
    (a - b).abs() <= tol * 1.0f64.max(a.abs()).max(b.abs())
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::F64(v) => write!(f, "{v}"),
            Scalar::F32(v) => write!(f, "{v}"),
            Scalar::I64(v) => write!(f, "{v}"),
            Scalar::I32(v) => write!(f, "{v}"),
            Scalar::Bool(v) => write!(f, "{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(DType::F64.size_bytes(), 8);
        assert_eq!(DType::F32.size_bytes(), 4);
        assert_eq!(DType::Bool.size_bytes(), 1);
    }

    #[test]
    fn casts() {
        assert_eq!(Scalar::F64(3.7).cast(DType::I64), Scalar::I64(3));
        assert_eq!(Scalar::I32(-2).cast(DType::F64), Scalar::F64(-2.0));
        assert_eq!(Scalar::I64(0).cast(DType::Bool), Scalar::Bool(false));
    }

    #[test]
    fn bits_eq_distinguishes_nan_and_zero_signs() {
        assert!(Scalar::F64(f64::NAN).bits_eq(Scalar::F64(f64::NAN)));
        assert!(!Scalar::F64(0.0).bits_eq(Scalar::F64(-0.0)));
        assert!(Scalar::F64(1.5).bits_eq(Scalar::F64(1.5)));
        // NaN *sign* is unspecified by IEEE 754 and unstable across
        // builds: it never distinguishes. NaN payloads still do.
        assert!(Scalar::F64(f64::NAN).bits_eq(Scalar::F64(-f64::NAN)));
        assert!(Scalar::F32(f32::NAN).bits_eq(Scalar::F32(-f32::NAN)));
        let payload = f64::from_bits(0x7ff8_0000_0000_beef);
        assert!(!Scalar::F64(f64::NAN).bits_eq(Scalar::F64(payload)));
        assert!(payload.is_nan());
    }

    #[test]
    fn approx_eq_with_tolerance() {
        assert!(Scalar::F64(1.0).approx_eq(Scalar::F64(1.0 + 1e-9), 1e-5));
        assert!(!Scalar::F64(1.0).approx_eq(Scalar::F64(1.1), 1e-5));
        // Relative for large magnitudes.
        assert!(Scalar::F64(1e12).approx_eq(Scalar::F64(1e12 + 1.0), 1e-5));
        // NaN == NaN under tolerance comparison.
        assert!(Scalar::F64(f64::NAN).approx_eq(Scalar::F64(f64::NAN), 1e-5));
        // Integers always bit-compare.
        assert!(!Scalar::I64(4).approx_eq(Scalar::I64(5), 1e5));
    }

    #[test]
    fn zero_one() {
        assert_eq!(DType::F32.zero(), Scalar::F32(0.0));
        assert_eq!(DType::I64.one(), Scalar::I64(1));
    }
}
