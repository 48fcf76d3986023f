//! Runtime array values.
//!
//! Every [`ArrayValue`] buffer is allocated with **poisoned guard planes**:
//! [`GUARD_ELEMS`] slop elements before and after the payload, filled with
//! per-dtype sentinel patterns distinct from the "uninitialized device
//! memory" garbage patterns. The guards model the adjacent bytes an
//! out-of-bounds write would corrupt natively; the executor re-poisons
//! them on every reset and verifies them after every trial, so a stray
//! write faults at the offending container instead of surfacing later as
//! an opaque value mismatch. All public accessors (`len`, `get`, `set`,
//! slices, comparisons, `Debug`) window the payload — guards are invisible
//! outside this module except through [`ArrayValue::guards_intact`].

use fuzzyflow_ir::dtype::{f64_approx_eq, f64_bits_eq};
use fuzzyflow_ir::{DType, Scalar};
use std::fmt;

/// Sentinel bit pattern used to fill "uninitialized" `F64` device
/// allocations. Models the garbage contents of freshly allocated GPU
/// memory that the CLOUDSC GPU-kernel-extraction bug copies back to the
/// host (paper Sec. 6.4, Fig. 7). Deterministic so test failures
/// reproduce exactly. (Pinned by the engine-equivalence suite; the other
/// dtypes get their own distinct patterns below.)
pub const GARBAGE_BITS: u64 = 0xDEAD_BEEF_DEAD_BEEF;

/// `F32` garbage sentinel. Deliberately *not* a truncation of
/// [`GARBAGE_BITS`], so an `F32` buffer mistakenly reinterpreted as
/// another dtype (or vice versa) cannot masquerade as correctly
/// initialized garbage.
pub const GARBAGE_BITS_F32: u32 = 0xDEAD_F32B;

/// `I64` garbage sentinel (distinct from every other dtype's pattern).
pub const GARBAGE_BITS_I64: i64 = 0x0BAD_CAFE_0BAD_CAFE;

/// `I32` garbage sentinel (distinct from `GARBAGE_BITS as i32`, which
/// used to collide with the `F32` pattern bit-for-bit).
pub const GARBAGE_BITS_I32: i32 = 0x0BAD_F00D;

/// `Bool` garbage value. Booleans only have two states; `true` is the
/// "visibly uninitialized" one (zero-init would be indistinguishable from
/// a correct `fill_zero`).
pub const GARBAGE_BOOL: bool = true;

/// Number of guard elements on *each* side of a buffer's payload.
pub const GUARD_ELEMS: usize = 4;

/// Guard-plane poison for `F64` guards — distinct from [`GARBAGE_BITS`]
/// so a garbage fill overrunning its window could never repair a guard.
pub const POISON_F64: u64 = 0xFEED_FACE_FEED_FACE;
/// Guard-plane poison for `F32` guards.
pub const POISON_F32: u32 = 0xFEED_FACE;
/// Guard-plane poison for `I64` guards.
pub const POISON_I64: i64 = 0x7EE7_5EED_7EE7_5EED;
/// Guard-plane poison for `I32` guards.
pub const POISON_I32: i32 = 0x7EE7_5EED;
/// Guard-plane poison for `Bool` guards (`false`, the opposite of
/// [`GARBAGE_BOOL`]; an OOB store of `false` into a bool guard is the one
/// corruption this scheme cannot see).
pub const POISON_BOOL: bool = false;

#[derive(Clone)]
enum Data {
    F64(Vec<f64>),
    F32(Vec<f32>),
    I64(Vec<i64>),
    I32(Vec<i32>),
    Bool(Vec<bool>),
}

fn guarded_vec<T: Copy>(n: usize, fill: T, poison: T) -> Vec<T> {
    let mut v = vec![fill; n + 2 * GUARD_ELEMS];
    v[..GUARD_ELEMS].fill(poison);
    v[n + GUARD_ELEMS..].fill(poison);
    v
}

/// A typed, shaped, row-major array value. Scalars are rank-0 arrays with
/// a single element. The underlying buffer carries [`GUARD_ELEMS`]
/// poisoned guard elements on each side of the payload; every accessor
/// below addresses the payload window only.
#[derive(Clone)]
pub struct ArrayValue {
    dtype: DType,
    shape: Vec<i64>,
    data: Data,
}

impl ArrayValue {
    /// Number of payload elements a `shape` holds (1 for rank 0); `None`
    /// when a dimension is negative or the product overflows.
    pub fn element_count(shape: &[i64]) -> Option<usize> {
        if shape.iter().any(|&d| d < 0) {
            return None;
        }
        if shape.contains(&0) {
            return Some(0);
        }
        shape
            .iter()
            .try_fold(1usize, |n, &d| n.checked_mul(usize::try_from(d).ok()?))
    }

    /// A zero-filled array.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is negative or the element count
    /// overflows. Such extents are always a shape bug in the caller;
    /// silently clamping or wrapping them to empty arrays would let the
    /// bug surface far downstream as a confusing zero-length-data failure
    /// instead of at the allocation site.
    pub fn zeros(dtype: DType, shape: Vec<i64>) -> Self {
        assert!(
            shape.iter().all(|&d| d >= 0),
            "ArrayValue::zeros: negative dimension in shape {shape:?}"
        );
        let n = Self::element_count(&shape)
            .unwrap_or_else(|| panic!("ArrayValue::zeros: element count overflows in {shape:?}"));
        let data = match dtype {
            DType::F64 => Data::F64(guarded_vec(n, 0.0, f64::from_bits(POISON_F64))),
            DType::F32 => Data::F32(guarded_vec(n, 0.0, f32::from_bits(POISON_F32))),
            DType::I64 => Data::I64(guarded_vec(n, 0, POISON_I64)),
            DType::I32 => Data::I32(guarded_vec(n, 0, POISON_I32)),
            DType::Bool => Data::Bool(guarded_vec(n, false, POISON_BOOL)),
        };
        ArrayValue { dtype, shape, data }
    }

    /// An array filled with a deterministic "uninitialized memory" pattern.
    pub fn garbage(dtype: DType, shape: Vec<i64>) -> Self {
        let mut v = Self::zeros(dtype, shape);
        v.fill_garbage();
        v
    }

    /// Resets every payload element to zero in place (no reallocation)
    /// and re-poisons the guard planes.
    pub fn fill_zero(&mut self) {
        match &mut self.data {
            Data::F64(v) => v.fill(0.0),
            Data::F32(v) => v.fill(0.0),
            Data::I64(v) => v.fill(0),
            Data::I32(v) => v.fill(0),
            Data::Bool(v) => v.fill(false),
        }
        self.repoison_guards();
    }

    /// Resets every payload element to the per-dtype garbage sentinel
    /// ([`GARBAGE_BITS`], [`GARBAGE_BITS_F32`], [`GARBAGE_BITS_I64`],
    /// [`GARBAGE_BITS_I32`], [`GARBAGE_BOOL`]) in place and re-poisons
    /// the guard planes.
    pub fn fill_garbage(&mut self) {
        match &mut self.data {
            Data::F64(v) => v.fill(f64::from_bits(GARBAGE_BITS)),
            Data::F32(v) => v.fill(f32::from_bits(GARBAGE_BITS_F32)),
            Data::I64(v) => v.fill(GARBAGE_BITS_I64),
            Data::I32(v) => v.fill(GARBAGE_BITS_I32),
            Data::Bool(v) => v.fill(GARBAGE_BOOL),
        }
        self.repoison_guards();
    }

    /// Rewrites both guard planes with their poison pattern, erasing any
    /// recorded corruption (every trial-reset path calls this so a guard
    /// violation is attributed to exactly one trial).
    pub fn repoison_guards(&mut self) {
        let n = self.len();
        match &mut self.data {
            Data::F64(v) => {
                v[..GUARD_ELEMS].fill(f64::from_bits(POISON_F64));
                v[n + GUARD_ELEMS..].fill(f64::from_bits(POISON_F64));
            }
            Data::F32(v) => {
                v[..GUARD_ELEMS].fill(f32::from_bits(POISON_F32));
                v[n + GUARD_ELEMS..].fill(f32::from_bits(POISON_F32));
            }
            Data::I64(v) => {
                v[..GUARD_ELEMS].fill(POISON_I64);
                v[n + GUARD_ELEMS..].fill(POISON_I64);
            }
            Data::I32(v) => {
                v[..GUARD_ELEMS].fill(POISON_I32);
                v[n + GUARD_ELEMS..].fill(POISON_I32);
            }
            Data::Bool(v) => {
                v[..GUARD_ELEMS].fill(POISON_BOOL);
                v[n + GUARD_ELEMS..].fill(POISON_BOOL);
            }
        }
    }

    /// True when both guard planes still hold their poison pattern
    /// bit-for-bit (bit comparison, so NaN poison floats compare equal).
    pub fn guards_intact(&self) -> bool {
        let n = self.len();
        match &self.data {
            Data::F64(v) => {
                let p = POISON_F64;
                v[..GUARD_ELEMS]
                    .iter()
                    .chain(&v[n + GUARD_ELEMS..])
                    .all(|x| x.to_bits() == p)
            }
            Data::F32(v) => {
                let p = POISON_F32;
                v[..GUARD_ELEMS]
                    .iter()
                    .chain(&v[n + GUARD_ELEMS..])
                    .all(|x| x.to_bits() == p)
            }
            Data::I64(v) => v[..GUARD_ELEMS]
                .iter()
                .chain(&v[n + GUARD_ELEMS..])
                .all(|&x| x == POISON_I64),
            Data::I32(v) => v[..GUARD_ELEMS]
                .iter()
                .chain(&v[n + GUARD_ELEMS..])
                .all(|&x| x == POISON_I32),
            Data::Bool(v) => v[..GUARD_ELEMS]
                .iter()
                .chain(&v[n + GUARD_ELEMS..])
                .all(|&x| x == POISON_BOOL),
        }
    }

    /// Makes `self` a payload-identical copy of `src`, reusing the
    /// existing element buffer when the dtypes match (the compiled
    /// engine's trial loop resets inputs in place with this instead of
    /// reallocating). `self`'s guard planes come out freshly poisoned
    /// regardless of either side's prior guard state.
    pub fn copy_from(&mut self, src: &ArrayValue) {
        self.dtype = src.dtype;
        self.shape.clone_from(&src.shape);
        match (&mut self.data, &src.data) {
            (Data::F64(d), Data::F64(s)) => d.clone_from(s),
            (Data::F32(d), Data::F32(s)) => d.clone_from(s),
            (Data::I64(d), Data::I64(s)) => d.clone_from(s),
            (Data::I32(d), Data::I32(s)) => d.clone_from(s),
            (Data::Bool(d), Data::Bool(s)) => d.clone_from(s),
            (d, s) => *d = s.clone(),
        }
        self.repoison_guards();
    }

    /// An array filled with one value.
    pub fn filled(dtype: DType, shape: Vec<i64>, value: Scalar) -> Self {
        let mut v = Self::zeros(dtype, shape);
        let value = value.cast(dtype);
        for i in 0..v.len() {
            v.set(i, value);
        }
        v
    }

    /// A rank-0 scalar value.
    pub fn scalar(value: Scalar) -> Self {
        let mut v = Self::zeros(value.dtype(), Vec::new());
        v.set(0, value);
        v
    }

    /// Builds an `f64` array from a slice (convenience for tests/examples).
    pub fn from_f64(shape: Vec<i64>, values: &[f64]) -> Self {
        assert_eq!(
            shape
                .iter()
                .product::<i64>()
                .max(if shape.is_empty() { 1 } else { 0 }),
            values.len() as i64,
            "value count must match shape"
        );
        let mut data = guarded_vec(values.len(), 0.0, f64::from_bits(POISON_F64));
        data[GUARD_ELEMS..GUARD_ELEMS + values.len()].copy_from_slice(values);
        ArrayValue {
            dtype: DType::F64,
            shape,
            data: Data::F64(data),
        }
    }

    /// Element type.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Concrete shape.
    pub fn shape(&self) -> &[i64] {
        &self.shape
    }

    /// Number of payload elements (guard planes excluded).
    pub fn len(&self) -> usize {
        let raw = match &self.data {
            Data::F64(v) => v.len(),
            Data::F32(v) => v.len(),
            Data::I64(v) => v.len(),
            Data::I32(v) => v.len(),
            Data::Bool(v) => v.len(),
        };
        raw - 2 * GUARD_ELEMS
    }

    /// True if the array has no elements (zero-sized dimension).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads the element at a linear offset.
    pub fn get(&self, idx: usize) -> Scalar {
        debug_assert!(idx < self.len());
        let idx = idx + GUARD_ELEMS;
        match &self.data {
            Data::F64(v) => Scalar::F64(v[idx]),
            Data::F32(v) => Scalar::F32(v[idx]),
            Data::I64(v) => Scalar::I64(v[idx]),
            Data::I32(v) => Scalar::I32(v[idx]),
            Data::Bool(v) => Scalar::Bool(v[idx]),
        }
    }

    /// Writes the element at a linear offset (casting to the array dtype).
    pub fn set(&mut self, idx: usize, value: Scalar) {
        assert!(idx < self.len(), "linear index outside payload");
        let idx = idx + GUARD_ELEMS;
        match &mut self.data {
            Data::F64(v) => v[idx] = value.as_f64(),
            Data::F32(v) => v[idx] = value.as_f64() as f32,
            Data::I64(v) => v[idx] = value.as_i64(),
            Data::I32(v) => v[idx] = value.as_i64() as i32,
            Data::Bool(v) => v[idx] = value.as_bool(),
        }
    }

    /// Borrows the raw payload when the dtype is `F64` — the compiled
    /// engine's fused kernels read through this instead of boxing every
    /// element into a [`Scalar`].
    pub fn as_f64_slice(&self) -> Option<&[f64]> {
        match &self.data {
            Data::F64(v) => Some(&v[GUARD_ELEMS..v.len() - GUARD_ELEMS]),
            _ => None,
        }
    }

    /// Mutably borrows the raw payload when the dtype is `F64` — what
    /// the fused kernels write through.
    pub fn as_f64_slice_mut(&mut self) -> Option<&mut [f64]> {
        match &mut self.data {
            Data::F64(v) => {
                let n = v.len() - GUARD_ELEMS;
                Some(&mut v[GUARD_ELEMS..n])
            }
            _ => None,
        }
    }

    /// View as `f64` values (copying). Convenience for assertions.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        (0..self.len()).map(|i| self.get(i).as_f64()).collect()
    }

    /// First differing linear index between two arrays under bit-exact
    /// comparison (`tol == 0`) or tolerance comparison. `None` means equal.
    /// Arrays of different dtype/shape differ at index 0 by convention.
    /// Elements compare as [`Scalar::bits_eq`] / [`Scalar::approx_eq`];
    /// `F64` payloads are compared as raw slices without boxing.
    pub fn first_mismatch(&self, other: &ArrayValue, tol: f64) -> Option<usize> {
        if self.dtype != other.dtype || self.shape != other.shape {
            return Some(0);
        }
        if let (Data::F64(a), Data::F64(b)) = (&self.data, &other.data) {
            let (a, b) = (payload(a), payload(b));
            // Bit-identical elements are equal under both predicates —
            // under `approx_eq` only for a tolerance ≥ 0 (a negative or NaN
            // one fails even `x` against itself), which takes the
            // element-by-element path below.
            if tol == 0.0 {
                return first_f64_mismatch(a, b, |x, y| !f64_bits_eq(x, y));
            }
            if tol > 0.0 {
                return first_f64_mismatch(a, b, |x, y| !f64_approx_eq(x, y, tol));
            }
        }
        self.first_mismatch_scalar(other, tol)
    }

    /// The element-by-element [`Scalar`] comparison behind
    /// [`ArrayValue::first_mismatch`]; dtype and shape must already agree.
    fn first_mismatch_scalar(&self, other: &ArrayValue, tol: f64) -> Option<usize> {
        (0..self.len()).find(|&i| {
            let (a, b) = (self.get(i), other.get(i));
            if tol == 0.0 {
                !a.bits_eq(b)
            } else {
                !a.approx_eq(b, tol)
            }
        })
    }

    /// Total payload size in bytes.
    pub fn byte_size(&self) -> usize {
        self.len() * self.dtype.size_bytes()
    }
}

/// Payload-only equality: two arrays are equal when dtype, shape and
/// payload elements match — guard planes never participate, so a guarded
/// executor result compares equal to a plainly constructed expectation
/// and a corrupted guard cannot masquerade as a semantic change.
impl PartialEq for ArrayValue {
    fn eq(&self, other: &Self) -> bool {
        if self.dtype != other.dtype || self.shape != other.shape {
            return false;
        }
        match (&self.data, &other.data) {
            (Data::F64(a), Data::F64(b)) => payload(a) == payload(b),
            (Data::F32(a), Data::F32(b)) => payload(a) == payload(b),
            (Data::I64(a), Data::I64(b)) => payload(a) == payload(b),
            (Data::I32(a), Data::I32(b)) => payload(a) == payload(b),
            (Data::Bool(a), Data::Bool(b)) => payload(a) == payload(b),
            _ => false,
        }
    }
}

fn payload<T>(v: &[T]) -> &[T] {
    &v[GUARD_ELEMS..v.len() - GUARD_ELEMS]
}

/// First index where `differs` holds, for a `differs` that is false on
/// every bit-identical pair: bit-identical runs are skipped a chunk at a
/// time with a branch-free (vectorizable) scan, and `differs` runs only
/// inside chunks that hold a differing bit.
fn first_f64_mismatch(a: &[f64], b: &[f64], differs: impl Fn(f64, f64) -> bool) -> Option<usize> {
    const CHUNK: usize = 32;
    for (k, (ca, cb)) in a.chunks(CHUNK).zip(b.chunks(CHUNK)).enumerate() {
        let any_bits = ca
            .iter()
            .zip(cb)
            .fold(false, |d, (x, y)| d | (x.to_bits() != y.to_bits()));
        if any_bits {
            if let Some(i) = ca.iter().zip(cb).position(|(&x, &y)| differs(x, y)) {
                return Some(k * CHUNK + i);
            }
        }
    }
    None
}

/// Payload-only `Debug`: report byte-identity assertions format states
/// with `{:?}`, so guard bytes must never leak into the rendering.
impl fmt::Debug for ArrayValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct P<'a>(&'a Data);
        impl fmt::Debug for P<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self.0 {
                    Data::F64(v) => f.debug_list().entries(payload(v)).finish(),
                    Data::F32(v) => f.debug_list().entries(payload(v)).finish(),
                    Data::I64(v) => f.debug_list().entries(payload(v)).finish(),
                    Data::I32(v) => f.debug_list().entries(payload(v)).finish(),
                    Data::Bool(v) => f.debug_list().entries(payload(v)).finish(),
                }
            }
        }
        f.debug_struct("ArrayValue")
            .field("dtype", &self.dtype)
            .field("shape", &self.shape)
            .field("data", &P(&self.data))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl ArrayValue {
        /// Stores `value` at a *signed* payload-relative linear offset,
        /// allowed to land in either guard plane — a stray store that
        /// corrupts the padding. Returns `false` (storing nothing) when
        /// the offset falls outside `payload ∪ guards`.
        fn poke_linear(&mut self, off: i64, value: Scalar) -> bool {
            let n = self.len() as i64;
            if off < -(GUARD_ELEMS as i64) || off >= n + GUARD_ELEMS as i64 {
                return false;
            }
            let raw = (off + GUARD_ELEMS as i64) as usize;
            match &mut self.data {
                Data::F64(v) => v[raw] = value.as_f64(),
                Data::F32(v) => v[raw] = value.as_f64() as f32,
                Data::I64(v) => v[raw] = value.as_i64(),
                Data::I32(v) => v[raw] = value.as_i64() as i32,
                Data::Bool(v) => v[raw] = value.as_bool(),
            }
            true
        }
    }

    #[test]
    fn zeros_and_len() {
        let a = ArrayValue::zeros(DType::F32, vec![2, 3]);
        assert_eq!(a.len(), 6);
        assert_eq!(a.get(5), Scalar::F32(0.0));
        assert_eq!(a.byte_size(), 24);
    }

    #[test]
    fn scalar_is_rank0() {
        let s = ArrayValue::scalar(Scalar::I64(42));
        assert_eq!(s.shape(), &[] as &[i64]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(0), Scalar::I64(42));
    }

    #[test]
    fn set_casts_to_dtype() {
        let mut a = ArrayValue::zeros(DType::I32, vec![2]);
        a.set(0, Scalar::F64(3.9));
        assert_eq!(a.get(0), Scalar::I32(3));
    }

    #[test]
    fn garbage_is_deterministic_and_nonzero() {
        let a = ArrayValue::garbage(DType::F64, vec![4]);
        let b = ArrayValue::garbage(DType::F64, vec![4]);
        assert_eq!(a, b);
        assert_ne!(a.get(0).as_f64(), 0.0);
    }

    #[test]
    fn garbage_sentinels_are_distinct_per_dtype() {
        // Bit patterns of the four non-bool sentinels, widened to u64:
        // all distinct, so a buffer of one dtype reinterpreted as another
        // can never look correctly initialized.
        let pats = [
            GARBAGE_BITS,
            GARBAGE_BITS_F32 as u64,
            GARBAGE_BITS_I64 as u64,
            GARBAGE_BITS_I32 as u64,
        ];
        for (i, a) in pats.iter().enumerate() {
            for b in &pats[i + 1..] {
                assert_ne!(a, b, "garbage sentinels must differ");
            }
        }
        assert_eq!(
            ArrayValue::garbage(DType::F32, vec![1]).get(0),
            Scalar::F32(f32::from_bits(GARBAGE_BITS_F32))
        );
        assert_eq!(
            ArrayValue::garbage(DType::I64, vec![1]).get(0),
            Scalar::I64(GARBAGE_BITS_I64)
        );
        assert_eq!(
            ArrayValue::garbage(DType::I32, vec![1]).get(0),
            Scalar::I32(GARBAGE_BITS_I32)
        );
        assert_eq!(
            ArrayValue::garbage(DType::Bool, vec![1]).get(0),
            Scalar::Bool(GARBAGE_BOOL)
        );
    }

    #[test]
    fn first_mismatch_exact_and_tolerant() {
        let a = ArrayValue::from_f64(vec![3], &[1.0, 2.0, 3.0]);
        let mut b = a.clone();
        assert_eq!(a.first_mismatch(&b, 0.0), None);
        b.set(1, Scalar::F64(2.0 + 1e-9));
        assert_eq!(a.first_mismatch(&b, 0.0), Some(1));
        assert_eq!(a.first_mismatch(&b, 1e-5), None);
    }

    #[test]
    fn shape_mismatch_is_mismatch() {
        let a = ArrayValue::zeros(DType::F64, vec![2]);
        let b = ArrayValue::zeros(DType::F64, vec![3]);
        assert_eq!(a.first_mismatch(&b, 0.0), Some(0));
    }

    #[test]
    fn dtype_and_shape_mismatches_differ_at_zero_on_both_paths() {
        let f = ArrayValue::from_f64(vec![2, 2], &[1.0; 4]);
        let cases = [
            ArrayValue::zeros(DType::F32, vec![2, 2]),
            ArrayValue::zeros(DType::I64, vec![2, 2]),
            ArrayValue::from_f64(vec![4], &[1.0; 4]),
            ArrayValue::from_f64(vec![2, 1], &[1.0; 2]),
        ];
        for other in &cases {
            for tol in [0.0, 1e-5] {
                assert_eq!(f.first_mismatch(other, tol), Some(0), "{other:?}");
                assert_eq!(other.first_mismatch(&f, tol), Some(0), "{other:?}");
            }
        }
    }

    /// Bit patterns the raw-`f64` compare must treat exactly like
    /// [`Scalar::bits_eq`] / [`Scalar::approx_eq`] (±1e30 join them in
    /// [`arb_bits`]).
    const EDGE_BITS: [u64; 15] = [
        0x7ff8_0000_0000_0000, // NaN
        0xfff8_0000_0000_0000, // -NaN
        0x7ff8_0000_0000_beef, // NaN with a payload
        0xfff8_0000_0000_beef, // the same payload, sign set
        0x7ff0_0000_0000_0001, // signalling NaN
        0x0000_0000_0000_0000, // 0
        0x8000_0000_0000_0000, // -0
        0x7ff0_0000_0000_0000, // inf
        0xfff0_0000_0000_0000, // -inf
        0x0000_0000_0000_0001, // smallest subnormal
        0x800f_ffff_ffff_ffff, // largest negative subnormal
        0x3ff0_0000_0000_0000, // 1
        0x3ff0_0000_0000_0001, // 1 + ulp
        0x3ff0_0000_0004_3000, // ≈ 1 + 6e-11, inside the 1e-5 tolerance
        0x3ff0_0001_4f8b_588e, // ≈ 1 + 2e-5, outside it
    ];

    fn arb_bits() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..=u64::MAX,
            (0usize..EDGE_BITS.len()).prop_map(|i| EDGE_BITS[i]),
            Just(1e30f64.to_bits()),
            Just((-1e30f64).to_bits()),
        ]
    }

    /// `(a, b)` payloads: `b` mostly repeats `a`'s element, and now and
    /// then flips its sign, nudges it by one ulp or draws a fresh pattern,
    /// so first mismatches land anywhere in the array — past the fast
    /// path's first chunk too — or nowhere.
    fn arb_pair() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
        proptest::collection::vec((arb_bits(), 0u8..40, arb_bits()), 0..100).prop_map(|els| {
            els.into_iter()
                .map(|(a, how, other)| {
                    let b = match how {
                        0 => other,
                        1 => a ^ (1 << 63),
                        2 => a.wrapping_add(1),
                        _ => a,
                    };
                    (f64::from_bits(a), f64::from_bits(b))
                })
                .unzip()
        })
    }

    proptest! {
        #[test]
        fn f64_first_mismatch_equals_the_scalar_path((a, b) in arb_pair()) {
            let shape = vec![a.len() as i64];
            let (a, b) = (ArrayValue::from_f64(shape.clone(), &a), ArrayValue::from_f64(shape, &b));
            for tol in [0.0, 1e-5] {
                prop_assert_eq!(a.first_mismatch(&b, tol), a.first_mismatch_scalar(&b, tol));
                prop_assert_eq!(b.first_mismatch(&a, tol), b.first_mismatch_scalar(&a, tol));
            }
        }
    }

    #[test]
    fn zero_sized_dimension() {
        let a = ArrayValue::zeros(DType::F64, vec![0, 4]);
        assert!(a.is_empty());
    }

    #[test]
    fn guards_start_intact_and_survive_fills() {
        for dt in [DType::F64, DType::F32, DType::I64, DType::I32, DType::Bool] {
            let mut a = ArrayValue::zeros(dt, vec![5]);
            assert!(a.guards_intact(), "{dt:?} guards poisoned at birth");
            a.fill_garbage();
            assert!(a.guards_intact(), "{dt:?} guards survive fill_garbage");
            a.fill_zero();
            assert!(a.guards_intact(), "{dt:?} guards survive fill_zero");
        }
    }

    #[test]
    fn poke_linear_corrupts_guard_and_repoison_heals() {
        let mut a = ArrayValue::zeros(DType::F64, vec![4]);
        // One past the end: lands in the trailing guard plane.
        assert!(a.poke_linear(4, Scalar::F64(1.5)));
        assert!(!a.guards_intact());
        // Before the start: leading guard plane.
        let mut b = ArrayValue::zeros(DType::F64, vec![4]);
        assert!(b.poke_linear(-1, Scalar::F64(1.5)));
        assert!(!b.guards_intact());
        // Far out: refused, nothing written.
        let mut c = ArrayValue::zeros(DType::F64, vec![4]);
        assert!(!c.poke_linear(4 + GUARD_ELEMS as i64, Scalar::F64(1.5)));
        assert!(c.guards_intact());
        a.repoison_guards();
        assert!(a.guards_intact());
    }

    #[test]
    fn equality_and_debug_ignore_guards() {
        let mut a = ArrayValue::from_f64(vec![2], &[1.0, 2.0]);
        let b = a.clone();
        let clean = format!("{b:?}");
        a.poke_linear(2, Scalar::F64(9.0));
        assert_eq!(a, b, "guard corruption must not affect equality");
        assert_eq!(format!("{a:?}"), clean, "guard bytes leak into Debug");
        assert!(!clean.contains("9"), "payload debug shows guard value");
    }

    #[test]
    fn copy_from_repoisons_guards() {
        let src = ArrayValue::from_f64(vec![3], &[1.0, 2.0, 3.0]);
        let mut dst = ArrayValue::zeros(DType::F64, vec![3]);
        dst.poke_linear(3, Scalar::F64(7.0));
        assert!(!dst.guards_intact());
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert!(dst.guards_intact(), "copy_from must re-poison guards");
    }
}
