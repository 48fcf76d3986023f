//! Property-based tests for the test-case JSON codec.
//!
//! The replayability story of the whole stack rests on this encoding
//! being lossless: a fault's captured input must replay bit-exactly
//! from the JSON embedded in campaign reports. The properties below
//! drive the codec with arbitrary states — NaN payloads, negative
//! zeros, subnormals and extreme integers included — and feed the
//! parser arbitrary garbage to check that malformed input always
//! yields a [`TestCaseParseError`], never a panic.

use fuzzyflow_fuzz::{TestCase, TestCaseParseError};
use fuzzyflow_interp::{ArrayValue, ExecState};
use fuzzyflow_ir::{DType, Scalar};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// Raw bits of a scalar — the lossless comparison key (derived
/// `PartialEq` would treat NaN as unequal to itself).
fn bits_of(s: Scalar) -> u64 {
    match s {
        Scalar::F64(v) => v.to_bits(),
        Scalar::F32(v) => v.to_bits() as u64,
        Scalar::I64(v) => v as u64,
        Scalar::I32(v) => v as u32 as u64,
        Scalar::Bool(v) => v as u64,
    }
}

fn scalar_from(dtype: DType, bits: u64) -> Scalar {
    match dtype {
        DType::F64 => Scalar::F64(f64::from_bits(bits)),
        DType::F32 => Scalar::F32(f32::from_bits(bits as u32)),
        DType::I64 => Scalar::I64(bits as i64),
        DType::I32 => Scalar::I32(bits as i32),
        DType::Bool => Scalar::Bool(bits & 1 == 1),
    }
}

/// Bit patterns biased toward the values that break naive float
/// codecs: NaNs with payloads, signed zeros, infinities, subnormals.
fn arb_bits() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..u64::MAX,
        Just(f64::NAN.to_bits()),
        Just(0x7FF8_0000_DEAD_BEEFu64), // NaN with payload
        Just((-0.0f64).to_bits()),
        Just(f64::INFINITY.to_bits()),
        Just(f64::NEG_INFINITY.to_bits()),
        Just(1u64), // smallest f64 subnormal
        Just(u64::MAX),
    ]
}

fn arb_dtype() -> impl Strategy<Value = DType> {
    prop_oneof![
        Just(DType::F64),
        Just(DType::F32),
        Just(DType::I64),
        Just(DType::I32),
        Just(DType::Bool),
    ]
}

/// Identifier-shaped names (symbols and containers).
fn arb_name() -> impl Strategy<Value = String> {
    const HEAD: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
    const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
    (0usize..HEAD.len(), pvec(0usize..TAIL.len(), 0..7)).prop_map(|(h, t)| {
        let mut s = String::new();
        s.push(HEAD[h] as char);
        for i in t {
            s.push(TAIL[i] as char);
        }
        s
    })
}

/// Free text: arbitrary strings — quotes, backslashes, newlines, other
/// control characters, trailing whitespace and non-ASCII included — so
/// the round trip covers every escape the JSON codec relies on.
fn arb_text() -> impl Strategy<Value = String> {
    // Every Unicode scalar value: ASCII (controls and DEL included), the
    // rest of the BMP around the surrogate gap, and the astral planes.
    let ch = prop_oneof![0u32..0x80, 0x80u32..0xD800, 0xE000u32..0x11_0000]
        .prop_map(|c| char::from_u32(c).expect("surrogates are excluded"));
    pvec(ch, 0..24).prop_map(|chars| chars.into_iter().collect::<String>())
}

fn arb_array() -> impl Strategy<Value = ArrayValue> {
    (arb_dtype(), pvec(0i64..4, 0..3)).prop_flat_map(|(dtype, shape)| {
        let n: i64 = shape.iter().product();
        pvec(arb_bits(), n as usize..n as usize + 1).prop_map(move |bits| {
            let mut arr = ArrayValue::zeros(dtype, shape.clone());
            for (i, b) in bits.into_iter().enumerate() {
                arr.set(i, scalar_from(dtype, b));
            }
            arr
        })
    })
}

fn arb_case() -> impl Strategy<Value = TestCase> {
    let symbols = pvec((arb_name(), i64::MIN..i64::MAX), 0..4);
    let arrays = pvec((arb_name(), arb_array()), 0..4);
    (arb_text(), arb_text(), symbols, arrays).prop_map(|(program, failure, symbols, arrays)| {
        let mut st = ExecState::new();
        for (name, value) in symbols {
            st.bind(&name, value);
        }
        for (name, arr) in arrays {
            st.set_array(&name, arr);
        }
        TestCase::capture(&program, &failure, &st)
    })
}

/// Field-by-field lossless comparison, with values compared by raw
/// bits. Returns a description of the first divergence.
fn lossless_diff(back: &TestCase, tc: &TestCase) -> Option<String> {
    if back.program != tc.program {
        return Some(format!("program: {:?} vs {:?}", back.program, tc.program));
    }
    if back.failure != tc.failure {
        return Some(format!("failure: {:?} vs {:?}", back.failure, tc.failure));
    }
    for (name, value) in tc.state.symbols.iter() {
        if back.state.symbols.get(name) != Some(value) {
            return Some(format!("symbol '{name}'"));
        }
    }
    for (name, arr) in &tc.state.arrays {
        let Some(b) = back.state.array(name) else {
            return Some(format!("array '{name}' missing"));
        };
        if b.dtype() != arr.dtype() || b.shape() != arr.shape() {
            return Some(format!("array '{name}' metadata"));
        }
        for i in 0..arr.len() {
            if bits_of(b.get(i)) != bits_of(arr.get(i)) {
                return Some(format!("array '{name}' element {i} bits"));
            }
        }
    }
    None
}

proptest! {
    /// JSON round trip is lossless and canonical.
    #[test]
    fn json_roundtrip_is_lossless(tc in arb_case()) {
        let json = tc.to_json();
        let back = TestCase::from_json(&json).unwrap();
        prop_assert_eq!(lossless_diff(&back, &tc), None);
        prop_assert_eq!(back.to_json(), json, "canonical JSON encoding");
    }

    /// Arbitrary garbage never panics the parser — it returns a
    /// structured [`TestCaseParseError`].
    #[test]
    fn malformed_input_errors_instead_of_panicking(bytes in pvec(0u8..=255, 0..200)) {
        let s = String::from_utf8_lossy(&bytes);
        let _: Result<TestCase, TestCaseParseError> = TestCase::from_json(&s);
    }

    /// Truncating a valid document at any byte boundary never panics:
    /// every prefix either parses or errors cleanly.
    #[test]
    fn truncated_documents_error_cleanly(tc in arb_case(), permille in 0usize..1000) {
        let doc = tc.to_json();
        let mut cut = doc.len() * permille / 1000;
        while cut < doc.len() && !doc.is_char_boundary(cut) {
            cut += 1;
        }
        let _ = TestCase::from_json(&doc[..cut]);
    }
}

/// A one-element case of `dtype` whose only value is the hex `token`.
fn one_value_case(dtype: &str, token: &str) -> String {
    format!(
        "{{\"format\": \"fuzzyflow-testcase-v1\", \"program\": \"p\", \
         \"failure\": \"f\", \"symbols\": {{}}, \"arrays\": {{\"A\": \
         {{\"dtype\": \"{dtype}\", \"shape\": [1], \"bits\": \"{token}\"}}}}}}"
    )
}

/// A token whose value does not fit the dtype is an error, not a
/// silently truncated value.
#[test]
fn over_wide_hex_tokens_are_rejected() {
    for (dtype, token) in [
        ("f32", "100000000"),
        ("i32", "1ffffffff"),
        ("bool", "ff"),
        ("bool", "0100"),
    ] {
        let parsed = TestCase::from_json(&one_value_case(dtype, token));
        assert!(parsed.is_err(), "{dtype} '{token}' parsed as {parsed:?}");
    }
}
