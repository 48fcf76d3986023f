//! Reproducible test cases.
//!
//! When differential testing finds a fault, the exact failing input
//! configuration is captured so the minimal test case can be replayed —
//! "fully reproducible, minimal test cases with fault-inducing inputs"
//! (paper Sec. 9). Values are stored as hexadecimal bit patterns, so
//! floating-point inputs replay bit-exactly.
//!
//! A case has one serialized form, the JSON object of
//! [`TestCase::to_json`]: campaign reports embed it, and
//! [`TestCase::save`] / [`TestCase::load`] write and read it as a file.

use fuzzyflow_interp::{ArrayValue, ExecState};
use fuzzyflow_ir::{DType, Scalar};
use std::fmt;

/// A serialized failing input configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct TestCase {
    /// Program (cutout) name this case applies to.
    pub program: String,
    /// Short description of the failure.
    pub failure: String,
    pub state: ExecState,
}

/// Parse errors for the test-case format.
#[derive(Clone, Debug, PartialEq)]
pub struct TestCaseParseError(pub String);

impl fmt::Display for TestCaseParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "test case parse error: {}", self.0)
    }
}

impl std::error::Error for TestCaseParseError {}

fn dtype_name(d: DType) -> &'static str {
    match d {
        DType::F64 => "f64",
        DType::F32 => "f32",
        DType::I64 => "i64",
        DType::I32 => "i32",
        DType::Bool => "bool",
    }
}

fn dtype_from(name: &str) -> Option<DType> {
    Some(match name {
        "f64" => DType::F64,
        "f32" => DType::F32,
        "i64" => DType::I64,
        "i32" => DType::I32,
        "bool" => DType::Bool,
        _ => return None,
    })
}

fn scalar_to_hex(s: Scalar) -> String {
    match s {
        Scalar::F64(v) => format!("{:016x}", v.to_bits()),
        Scalar::F32(v) => format!("{:08x}", v.to_bits()),
        Scalar::I64(v) => format!("{:016x}", v as u64),
        Scalar::I32(v) => format!("{:08x}", v as u32),
        Scalar::Bool(v) => format!("{:02x}", v as u8),
    }
}

/// Parses one hex token. A value wider than `dtype` is an error, not a
/// truncation, and a bool is only ever 0 or 1.
fn scalar_from_hex(dtype: DType, text: &str) -> Result<Scalar, TestCaseParseError> {
    let bits = u64::from_str_radix(text, 16)
        .map_err(|e| TestCaseParseError(format!("bad hex '{text}': {e}")))?;
    let narrow = || {
        u32::try_from(bits)
            .map_err(|_| TestCaseParseError(format!("hex '{text}' overflows {dtype:?}")))
    };
    Ok(match dtype {
        DType::F64 => Scalar::F64(f64::from_bits(bits)),
        DType::F32 => Scalar::F32(f32::from_bits(narrow()?)),
        DType::I64 => Scalar::I64(bits as i64),
        DType::I32 => Scalar::I32(narrow()? as i32),
        DType::Bool => match bits {
            0 => Scalar::Bool(false),
            1 => Scalar::Bool(true),
            _ => return Err(TestCaseParseError(format!("bad bool '{text}'"))),
        },
    })
}

impl TestCase {
    /// Captures the given input state.
    pub fn capture(program: &str, failure: &str, state: &ExecState) -> Self {
        TestCase {
            program: program.to_string(),
            failure: failure.to_string(),
            state: state.clone(),
        }
    }

    /// Serializes to a JSON object with bit-exact value encoding: every
    /// element is stored as its raw bit pattern in hex, so floating-point
    /// inputs replay bit-identically — NaN payloads, signed zeros and
    /// subnormals included. This is the representation embedded in
    /// campaign reports (`fuzzyflow::session::CampaignReport`).
    pub fn to_json(&self) -> String {
        use crate::json::quote;
        let mut out = String::from("{");
        out.push_str("\"format\": \"fuzzyflow-testcase-v1\", ");
        out.push_str(&format!("\"program\": {}, ", quote(&self.program)));
        out.push_str(&format!("\"failure\": {}, ", quote(&self.failure)));
        out.push_str("\"symbols\": {");
        let mut first = true;
        for (name, value) in self.state.symbols.iter() {
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!("{}: {}", quote(name), value));
        }
        out.push_str("}, \"arrays\": {");
        let mut first = true;
        for (name, arr) in &self.state.arrays {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let dims: Vec<String> = arr.shape().iter().map(|d| d.to_string()).collect();
            let mut bits = String::new();
            for i in 0..arr.len() {
                if i > 0 {
                    bits.push(' ');
                }
                bits.push_str(&scalar_to_hex(arr.get(i)));
            }
            out.push_str(&format!(
                "{}: {{\"dtype\": \"{}\", \"shape\": [{}], \"bits\": \"{}\"}}",
                quote(name),
                dtype_name(arr.dtype()),
                dims.join(", "),
                bits
            ));
        }
        out.push_str("}}");
        out
    }

    /// Parses the JSON produced by [`TestCase::to_json`] (also accepts
    /// an already-parsed [`Json`](crate::json::Json) value via
    /// [`TestCase::from_json_value`]).
    pub fn from_json(text: &str) -> Result<Self, TestCaseParseError> {
        let v = crate::json::Json::parse(text)
            .map_err(|e| TestCaseParseError(format!("invalid JSON: {e}")))?;
        Self::from_json_value(&v)
    }

    /// Rebuilds a test case from a parsed JSON value (used when the case
    /// is embedded in a larger document, e.g. a campaign report).
    pub fn from_json_value(v: &crate::json::Json) -> Result<Self, TestCaseParseError> {
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| TestCaseParseError(format!("missing field '{k}'")))
        };
        match field("format")?.as_str() {
            Some("fuzzyflow-testcase-v1") => {}
            other => {
                return Err(TestCaseParseError(format!(
                    "unsupported test-case format {other:?}"
                )))
            }
        }
        let text_field = |k: &str| -> Result<String, TestCaseParseError> {
            field(k)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| TestCaseParseError(format!("field '{k}' is not a string")))
        };
        let mut state = ExecState::new();
        let crate::json::Json::Obj(symbols) = field("symbols")? else {
            return Err(TestCaseParseError("'symbols' is not an object".into()));
        };
        for (name, value) in symbols {
            let value = value
                .as_i64()
                .ok_or_else(|| TestCaseParseError(format!("bad value for symbol '{name}'")))?;
            state.symbols.set(name.clone(), value);
        }
        let crate::json::Json::Obj(arrays) = field("arrays")? else {
            return Err(TestCaseParseError("'arrays' is not an object".into()));
        };
        for (name, desc) in arrays {
            let get = |k: &str| {
                desc.get(k).ok_or_else(|| {
                    TestCaseParseError(format!("array '{name}' missing field '{k}'"))
                })
            };
            let dtype = get("dtype")?
                .as_str()
                .and_then(dtype_from)
                .ok_or_else(|| TestCaseParseError(format!("array '{name}': unknown dtype")))?;
            let shape: Vec<i64> = get("shape")?
                .as_arr()
                .ok_or_else(|| TestCaseParseError(format!("array '{name}': shape not a list")))?
                .iter()
                .map(|d| {
                    d.as_i64()
                        .filter(|&d| d >= 0)
                        .ok_or_else(|| TestCaseParseError(format!("array '{name}': bad dimension")))
                })
                .collect::<Result<_, _>>()?;
            let bits = get("bits")?
                .as_str()
                .ok_or_else(|| TestCaseParseError(format!("array '{name}': bits not a string")))?;
            // Validate the element count against the supplied values
            // *before* allocating: reports may come from untrusted
            // sources, and a hostile shape like [1 << 30, 8] must yield a
            // parse error, not an overflow panic or a giant allocation.
            let elems = ArrayValue::element_count(&shape)
                .ok_or_else(|| TestCaseParseError(format!("array '{name}': shape overflows")))?;
            let supplied = bits.split_whitespace().count();
            if supplied != elems {
                return Err(TestCaseParseError(format!(
                    "array '{name}': {supplied} values for {elems} elements"
                )));
            }
            let mut arr = ArrayValue::zeros(dtype, shape);
            for (idx, tok) in bits.split_whitespace().enumerate() {
                arr.set(idx, scalar_from_hex(dtype, tok)?);
            }
            state.arrays.insert(name.clone(), arr);
        }
        Ok(TestCase {
            program: text_field("program")?,
            failure: text_field("failure")?,
            state,
        })
    }

    /// Writes the case to a file as [`TestCase::to_json`].
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Loads a case written by [`TestCase::save`].
    pub fn load(path: &std::path::Path) -> Result<Self, Box<dyn std::error::Error>> {
        let text = std::fs::read_to_string(path)?;
        Ok(Self::from_json(&text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_case() -> TestCase {
        let mut st = ExecState::new();
        st.bind("N", 4);
        st.set_array(
            "A",
            ArrayValue::from_f64(vec![4], &[1.5, -0.0, f64::NAN, 3.25e-200]),
        );
        st.set_array("flag", ArrayValue::scalar(Scalar::Bool(true)));
        TestCase::capture("prog_cutout", "semantic change at V[2]", &st)
    }

    #[test]
    fn roundtrip_bit_exact() {
        // Through a file: `save` and `load` carry the JSON form.
        let tc = sample_case();
        let path = std::env::temp_dir().join(format!(
            "fuzzyflow_testcase_roundtrip_{}.json",
            std::process::id()
        ));
        tc.save(&path).unwrap();
        let back = TestCase::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back.program, "prog_cutout");
        assert_eq!(back.failure, "semantic change at V[2]");
        assert_eq!(back.state.symbols.get("N"), Some(4));
        let a = back.state.array("A").unwrap();
        let orig = tc.state.array("A").unwrap();
        assert_eq!(a.first_mismatch(orig, 0.0), None, "bit-exact replay");
        assert_eq!(back.state.array("flag").unwrap().get(0), Scalar::Bool(true));
    }

    #[test]
    fn json_roundtrip_bit_exact() {
        let tc = sample_case();
        let json = tc.to_json();
        let back = TestCase::from_json(&json).unwrap();
        assert_eq!(back.program, tc.program);
        assert_eq!(back.failure, tc.failure);
        assert_eq!(back.state.symbols.get("N"), Some(4));
        let a = back.state.array("A").unwrap();
        assert_eq!(a.first_mismatch(tc.state.array("A").unwrap(), 0.0), None);
        // Second round trip is byte-identical: the encoding is canonical.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn json_escapes_failure_descriptions() {
        let mut st = ExecState::new();
        st.bind("N", 1);
        let tc = TestCase::capture("p", "mismatch \"V[0]\" \\ at\nrow 2", &st);
        let back = TestCase::from_json(&tc.to_json()).unwrap();
        assert_eq!(back.failure, tc.failure);
    }

    #[test]
    fn json_rejects_malformed_cases() {
        assert!(TestCase::from_json("{}").is_err());
        assert!(TestCase::from_json("not json").is_err());
        // Negative dimensions are rejected.
        assert!(TestCase::from_json(
            "{\"format\": \"fuzzyflow-testcase-v1\", \"program\": \"p\", \
             \"failure\": \"f\", \"symbols\": {}, \"arrays\": {\"A\": \
             {\"dtype\": \"f64\", \"shape\": [-1], \"bits\": \"\"}}}"
        )
        .is_err());
    }

    /// Reports may come from untrusted sources: hostile shapes must
    /// yield parse errors before any allocation, not overflow panics or
    /// multi-gigabyte allocations.
    #[test]
    fn json_rejects_hostile_shapes_without_allocating() {
        // Product overflows i64/u64.
        assert!(TestCase::from_json(
            "{\"format\": \"fuzzyflow-testcase-v1\", \"program\": \"p\", \
             \"failure\": \"f\", \"symbols\": {}, \"arrays\": {\"A\": \
             {\"dtype\": \"f64\", \"shape\": [4611686018427387904, 8], \"bits\": \"\"}}}"
        )
        .is_err());
        // Huge but representable count with no matching data.
        assert!(TestCase::from_json(
            "{\"format\": \"fuzzyflow-testcase-v1\", \"program\": \"p\", \
             \"failure\": \"f\", \"symbols\": {}, \"arrays\": {\"A\": \
             {\"dtype\": \"f64\", \"shape\": [1073741824, 8], \"bits\": \"00\"}}}"
        )
        .is_err());
    }

    #[test]
    fn rejects_bad_header() {
        // Wrong format tag.
        assert!(TestCase::from_json(
            "{\"format\": \"v0\", \"program\": \"p\", \"failure\": \"f\", \
             \"symbols\": {}, \"arrays\": {}}"
        )
        .is_err());
    }

    #[test]
    fn rejects_truncated_data() {
        // Element count must match the shape exactly.
        assert!(TestCase::from_json(
            "{\"format\": \"fuzzyflow-testcase-v1\", \"program\": \"p\", \
             \"failure\": \"f\", \"symbols\": {}, \"arrays\": {\"A\": \
             {\"dtype\": \"f64\", \"shape\": [4], \"bits\": \"3ff0000000000000\"}}}"
        )
        .is_err());
    }

    #[test]
    fn empty_arrays_and_scalars() {
        let mut st = ExecState::new();
        st.set_array("s", ArrayValue::scalar(Scalar::F64(2.5)));
        st.set_array("empty", ArrayValue::zeros(DType::I32, vec![0]));
        let tc = TestCase::capture("p", "f", &st);
        let back = TestCase::from_json(&tc.to_json()).unwrap();
        assert_eq!(back.state.array("s").unwrap().get(0), Scalar::F64(2.5));
        assert_eq!(back.state.array("empty").unwrap().len(), 0);
    }
}
