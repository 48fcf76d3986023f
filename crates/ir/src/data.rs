//! Data container descriptors.

use crate::dtype::DType;
use crate::node::Storage;
use fuzzyflow_sym::{Bindings, SymError, SymExpr};

/// Descriptor of a data container (array or scalar).
///
/// The *parametric* property central to the paper (Sec. 2.1): `shape` holds
/// symbolic expressions, so a container's size is always expressible in
/// terms of program parameters (e.g. `[N, N]`), never an opaque pointer.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct DataDesc {
    /// Element type.
    pub dtype: DType,
    /// Per-dimension symbolic sizes; empty shape denotes a scalar.
    pub shape: Vec<SymExpr>,
    /// Transient containers are managed by the program and cannot be
    /// observed from outside (paper Sec. 3.1 *external data analysis*:
    /// everything non-transient is potentially external/persistent state).
    pub transient: bool,
    /// Memory space the container lives in (host or simulated device).
    pub storage: Storage,
}

impl DataDesc {
    /// An array descriptor with the given element type and symbolic shape.
    pub fn array(dtype: DType, shape: Vec<SymExpr>) -> Self {
        DataDesc {
            dtype,
            shape,
            transient: false,
            storage: Storage::Host,
        }
    }

    /// A scalar descriptor.
    pub fn scalar(dtype: DType) -> Self {
        DataDesc {
            dtype,
            shape: Vec::new(),
            transient: false,
            storage: Storage::Host,
        }
    }

    /// Marks the container transient (program-managed).
    pub fn transient(mut self) -> Self {
        self.transient = true;
        self
    }

    /// Places the container in the given storage.
    pub fn in_storage(mut self, storage: Storage) -> Self {
        self.storage = storage;
        self
    }

    /// Number of dimensions (0 for scalars).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// True if this is a scalar container.
    pub fn is_scalar(&self) -> bool {
        self.shape.is_empty()
    }

    /// Total element count as a symbolic expression.
    pub fn total_size(&self) -> SymExpr {
        let mut e = SymExpr::Int(1);
        for d in &self.shape {
            e = e * d.clone();
        }
        e.simplify()
    }

    /// Total size in bytes as a symbolic expression.
    pub fn total_bytes(&self) -> SymExpr {
        (self.total_size() * SymExpr::Int(self.dtype.size_bytes() as i64)).simplify()
    }

    /// Concrete per-dimension sizes under bindings.
    pub fn concrete_shape(&self, b: &Bindings) -> Result<Vec<i64>, SymError> {
        self.shape.iter().map(|d| d.eval(b)).collect()
    }

    /// Row-major strides for a concrete shape.
    pub fn strides_for(shape: &[i64]) -> Vec<i64> {
        let mut strides = vec![1i64; shape.len()];
        for i in (0..shape.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * shape[i + 1];
        }
        strides
    }

    /// Linearizes a concrete multi-index into a row-major element offset,
    /// checking bounds. Returns `None` when out of bounds — the interpreter
    /// turns this into a *crash* verdict, which is one of the system-state
    /// changes differential testing looks for (paper Sec. 5.1).
    pub fn linearize(shape: &[i64], point: &[i64]) -> Option<usize> {
        if shape.len() != point.len() {
            return None;
        }
        let mut off = 0i64;
        let mut stride = 1i64;
        for d in (0..shape.len()).rev() {
            let p = point[d];
            if p < 0 || p >= shape[d] {
                return None;
            }
            off += p * stride;
            stride *= shape[d];
        }
        Some(off as usize)
    }

    /// Free symbols referenced by the shape.
    pub fn shape_symbols(&self) -> Vec<String> {
        let mut v = Vec::new();
        for d in &self.shape {
            for s in d.free_symbols() {
                if !v.contains(&s) {
                    v.push(s);
                }
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzyflow_sym::sym;

    #[test]
    fn total_size_symbolic() {
        let d = DataDesc::array(DType::F64, vec![sym("N"), sym("M")]);
        let b = Bindings::from_pairs([("N", 3), ("M", 4)]);
        assert_eq!(d.total_size().eval(&b).unwrap(), 12);
        assert_eq!(d.total_bytes().eval(&b).unwrap(), 96);
    }

    #[test]
    fn scalar_properties() {
        let d = DataDesc::scalar(DType::I64);
        assert!(d.is_scalar());
        assert_eq!(d.rank(), 0);
        assert_eq!(d.total_size().as_int(), Some(1));
    }

    #[test]
    fn linearize_row_major() {
        let shape = [2i64, 3, 4];
        assert_eq!(DataDesc::linearize(&shape, &[0, 0, 0]), Some(0));
        assert_eq!(DataDesc::linearize(&shape, &[0, 0, 3]), Some(3));
        assert_eq!(DataDesc::linearize(&shape, &[0, 1, 0]), Some(4));
        assert_eq!(DataDesc::linearize(&shape, &[1, 2, 3]), Some(23));
    }

    #[test]
    fn linearize_detects_oob() {
        let shape = [2i64, 3];
        assert_eq!(DataDesc::linearize(&shape, &[2, 0]), None);
        assert_eq!(DataDesc::linearize(&shape, &[-1, 0]), None);
        assert_eq!(DataDesc::linearize(&shape, &[0, 3]), None);
        assert_eq!(DataDesc::linearize(&shape, &[0]), None);
    }

    #[test]
    fn strides() {
        assert_eq!(DataDesc::strides_for(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(DataDesc::strides_for(&[5]), vec![1]);
        assert!(DataDesc::strides_for(&[]).is_empty());
    }

    #[test]
    fn shape_symbols_dedup() {
        let d = DataDesc::array(DType::F32, vec![sym("N"), sym("N*M")]);
        assert_eq!(d.shape_symbols(), vec!["N".to_string(), "M".to_string()]);
    }
}
