//! Coverage-guided mutation fuzzing (the AFL++-style baseline of paper
//! Secs. 5.1 and 6.1).
//!
//! The cutout pair is driven like an AFL target: the input configuration
//! is flattened into a byte buffer, a corpus of buffers is mutated with
//! havoc-style operations, each execution records edge coverage in the
//! instrumented interpreter, and inputs reaching new `(edge, bucket)`
//! pairs join the corpus. Detection works exactly as in the paper's
//! auto-generated harness: the original and transformed cutouts run on the
//! same decoded input and any system-state divergence / one-sided crash is
//! the fault signal.
//!
//! Unlike the gray-box tester, this fuzzer has **no constraint knowledge**:
//! it starts from a seed input (e.g. the model size the application ships
//! with) and must stumble onto interesting sizes by mutation — which is
//! why the paper measures ~157 trials for AFL++ vs ~1 for gray-box
//! sampling on the size-dependent vectorization bug.

use crate::diff::judge;
use crate::rng::Xoshiro256;
use crate::sampler::seed_input;
use crate::Verdict;
use fuzzyflow_cutout::Cutout;
use fuzzyflow_interp::coverage::MAP_SIZE;
use fuzzyflow_interp::ArrayValue;
use fuzzyflow_interp::{CoverageMap, ExecOptions, ExecState, Executor, Program};
use fuzzyflow_ir::{validate, Bindings, Sdfg};

/// Report of a coverage-guided fuzzing campaign.
#[derive(Clone, Debug)]
pub struct CoverageReport {
    pub verdict: Verdict,
    /// Executions performed (original+transformed pairs).
    pub trials_run: usize,
    /// 1-based trial at which the fault surfaced.
    pub trials_to_detection: Option<usize>,
    /// Corpus entries retained for new coverage.
    pub corpus_size: usize,
    /// Distinct edges hit over the campaign, by every instrumented run.
    pub edges_seen: usize,
    /// Cumulative per-edge hit counts over every instrumented execution,
    /// as `(edge id, total hits)` pairs in edge-id order — the raw
    /// material for novelty scoring (rare-edge weighting), exposed here
    /// so schedulers don't need a side channel next to the covered set.
    pub edge_hits: Vec<(u32, u64)>,
}

/// Coverage-guided fuzzer configuration.
#[derive(Clone, Debug)]
pub struct CoverageFuzzer {
    pub max_trials: usize,
    pub tolerance: f64,
    pub seed: u64,
    pub max_steps: u64,
    /// Ceiling for size symbols when decoding mutated bytes.
    pub size_max: i64,
}

impl Default for CoverageFuzzer {
    fn default() -> Self {
        CoverageFuzzer {
            max_trials: 2000,
            tolerance: 1e-5,
            seed: 0xAF1_2B0B,
            max_steps: 20_000_000,
            size_max: 24,
        }
    }
}

/// Encodes an input state into the fuzzed byte buffer: symbols (name
/// order) as little-endian i64, then each input container's raw element
/// bits (name order).
fn encode(cutout: &Cutout, st: &ExecState) -> Vec<u8> {
    let mut buf = Vec::new();
    for s in &cutout.input_symbols {
        let v = st.symbols.get(s).unwrap_or(1);
        buf.extend_from_slice(&v.to_le_bytes());
    }
    for name in &cutout.input_config {
        if let Some(arr) = st.array(name) {
            for i in 0..arr.len() {
                match arr.get(i) {
                    fuzzyflow_ir::Scalar::F64(v) => {
                        buf.extend_from_slice(&v.to_bits().to_le_bytes())
                    }
                    fuzzyflow_ir::Scalar::F32(v) => {
                        buf.extend_from_slice(&v.to_bits().to_le_bytes())
                    }
                    fuzzyflow_ir::Scalar::I64(v) => buf.extend_from_slice(&v.to_le_bytes()),
                    fuzzyflow_ir::Scalar::I32(v) => buf.extend_from_slice(&v.to_le_bytes()),
                    fuzzyflow_ir::Scalar::Bool(v) => buf.push(v as u8),
                }
            }
        }
    }
    buf
}

/// Decodes a (possibly mutated) byte buffer into an input state. Symbol
/// bytes decode first and determine container shapes; size-like values are
/// clamped into `[1, size_max]` the way an AFL harness would sanitize
/// header fields. Each element reads as many bytes as [`encode`] writes
/// for its dtype; missing bytes read as zero.
fn decode(cutout: &Cutout, buf: &[u8], size_max: i64) -> Option<ExecState> {
    let mut st = ExecState::new();
    let mut pos = 0usize;
    // The next `n` (at most 8) little-endian bytes, zero-extended.
    let take = |buf: &[u8], pos: &mut usize, n: usize| -> u64 {
        let mut b = [0u8; 8];
        for (i, slot) in b[..n].iter_mut().enumerate() {
            *slot = buf.get(*pos + i).copied().unwrap_or(0);
        }
        *pos += n;
        u64::from_le_bytes(b)
    };
    for s in &cutout.input_symbols {
        let raw = take(buf, &mut pos, 8) as i64;
        // Clamp into [1, size_max], inverse of `encode` for in-range
        // values so unmutated seeds replay exactly.
        let v = (raw.wrapping_sub(1)).rem_euclid(size_max) + 1;
        st.symbols.set(s.clone(), v);
    }
    for name in &cutout.input_config {
        let desc = cutout.sdfg.array(name)?;
        let shape = desc.concrete_shape(&st.symbols).ok()?;
        if shape.iter().any(|&d| d < 0) {
            return None;
        }
        let mut arr = ArrayValue::zeros(desc.dtype, shape);
        for i in 0..arr.len() {
            match desc.dtype {
                fuzzyflow_ir::DType::F64 => {
                    let bits = take(buf, &mut pos, 8);
                    let v = f64::from_bits(bits);
                    // Sanitize NaN/inf like a fuzzing harness would, to
                    // avoid trivially poisoned comparisons.
                    let v = if v.is_finite() {
                        v
                    } else {
                        (bits % 1000) as f64
                    };
                    arr.set(i, fuzzyflow_ir::Scalar::F64(v));
                }
                fuzzyflow_ir::DType::F32 => {
                    let bits = take(buf, &mut pos, 4) as u32;
                    let v = f32::from_bits(bits);
                    let v = if v.is_finite() {
                        v
                    } else {
                        (bits % 1000) as f32
                    };
                    arr.set(i, fuzzyflow_ir::Scalar::F32(v));
                }
                fuzzyflow_ir::DType::I64 => {
                    arr.set(i, fuzzyflow_ir::Scalar::I64(take(buf, &mut pos, 8) as i64));
                }
                fuzzyflow_ir::DType::I32 => {
                    arr.set(i, fuzzyflow_ir::Scalar::I32(take(buf, &mut pos, 4) as i32));
                }
                fuzzyflow_ir::DType::Bool => {
                    let b = buf.get(pos).copied().unwrap_or(0);
                    pos += 1;
                    arr.set(i, fuzzyflow_ir::Scalar::Bool(b & 1 == 1));
                }
            }
        }
        st.arrays.insert(name.clone(), arr);
    }
    Some(st)
}

/// One havoc mutation round on a buffer.
fn mutate(buf: &mut Vec<u8>, rng: &mut Xoshiro256) {
    if buf.is_empty() {
        buf.push(rng.next_u64() as u8);
        return;
    }
    let rounds = 1 + rng.index(4);
    for _ in 0..rounds {
        match rng.index(5) {
            0 => {
                // Bit flip.
                let i = rng.index(buf.len());
                buf[i] ^= 1 << rng.index(8);
            }
            1 => {
                // Random byte.
                let i = rng.index(buf.len());
                buf[i] = rng.next_u64() as u8;
            }
            2 => {
                // Add/subtract small delta.
                let i = rng.index(buf.len());
                let delta = (rng.index(16) as i16 - 8) as u8;
                buf[i] = buf[i].wrapping_add(delta);
            }
            3 => {
                // Chunk copy within the buffer.
                let len = 1 + rng.index(8.min(buf.len()));
                let src = rng.index(buf.len() - len + 1);
                let dst = rng.index(buf.len() - len + 1);
                let chunk: Vec<u8> = buf[src..src + len].to_vec();
                buf[dst..dst + len].copy_from_slice(&chunk);
            }
            _ => {
                // Interesting value into an 8-byte window.
                const INTERESTING: [i64; 8] = [0, 1, -1, 2, 3, 5, 7, 127];
                if buf.len() >= 8 {
                    let i = rng.index(buf.len() - 7);
                    let v = INTERESTING[rng.index(INTERESTING.len())];
                    buf[i..i + 8].copy_from_slice(&v.to_le_bytes());
                }
            }
        }
    }
}

impl CoverageFuzzer {
    /// Runs the campaign. `seed_bindings` plays the role of the sizes the
    /// application ships with (e.g. the BERT-large configuration in
    /// Sec. 6.1): the initial corpus entry uses them, so size mutations
    /// must be *discovered*.
    pub fn run(
        &self,
        cutout: &Cutout,
        transformed: &Sdfg,
        seed_bindings: &Bindings,
    ) -> CoverageReport {
        if let Err(errors) = validate(transformed) {
            return CoverageReport {
                verdict: Verdict::InvalidCode {
                    errors: errors.iter().map(|e| e.to_string()).collect(),
                },
                trials_run: 0,
                trials_to_detection: Some(0),
                corpus_size: 0,
                edges_seen: 0,
                edge_hits: Vec::new(),
            };
        }

        // Compile both sides once; the campaign loop only executes.
        let orig_prog = Program::compile(&cutout.sdfg);
        let trans_prog = Program::compile(transformed);
        self.campaign(
            cutout,
            seed_bindings,
            &mut orig_prog.executor(),
            &mut trans_prog.executor(),
        )
    }

    /// The campaign loop of [`CoverageFuzzer::run`], over a prepared
    /// executor pair.
    fn campaign(
        &self,
        cutout: &Cutout,
        seed_bindings: &Bindings,
        orig_exec: &mut Executor<'_>,
        trans_exec: &mut Executor<'_>,
    ) -> CoverageReport {
        let mut rng = Xoshiro256::seed_from(self.seed);
        let opts = ExecOptions {
            max_steps: self.max_steps,
            ..ExecOptions::default()
        };

        // Seed input: shipped sizes, deterministic pseudo-random payload.
        let seed = seed_input(cutout, |_, s| seed_bindings.get(s).unwrap_or(1), &mut rng);
        let mut corpus: Vec<Vec<u8>> = vec![encode(cutout, &seed)];
        let mut virgin_store = vec![0u8; MAP_SIZE];
        let virgin: &mut [u8; MAP_SIZE] =
            (&mut virgin_store[..]).try_into().expect("MAP_SIZE slice");
        let mut hits = vec![0u64; MAP_SIZE];

        // AFL-style deterministic stage: single-bit flips walking the seed
        // buffer from the front (this is how AFL++ quickly perturbs header
        // fields such as sizes before switching to havoc mutations).
        let det_flips = corpus[0].len().saturating_mul(8);

        let mut found = None;
        for trial in 1..=self.max_trials {
            // Pick and mutate (the very first trial runs the seed as-is).
            let mut buf;
            if trial == 1 {
                buf = corpus[0].clone();
            } else if trial - 2 < det_flips {
                let bit = trial - 2;
                buf = corpus[0].clone();
                buf[bit / 8] ^= 1 << (bit % 8);
            } else {
                buf = corpus[rng.index(corpus.len())].clone();
                mutate(&mut buf, &mut rng);
            }
            let Some(sample) = decode(cutout, &buf, self.size_max) else {
                continue;
            };

            // The shared trial step, with the original run instrumented.
            let mut cov = CoverageMap::new();
            let outcome = judge(
                cutout,
                &sample,
                &opts,
                self.tolerance,
                orig_exec,
                trans_exec,
                Some(&mut cov),
            );
            for (edge, count) in cov.hits() {
                hits[edge] += count as u64;
            }
            if let Some(verdict) = outcome.fault_verdict(&cutout.sdfg.name, trial, &sample) {
                found = Some((trial, verdict));
                break;
            }

            // Coverage feedback, from inputs the original rejects too (an
            // uninteresting crash, but it teaches path-triggering inputs).
            if cov.merge_into(virgin) {
                corpus.push(buf);
            }
        }

        let (verdict, trials_run, trials_to_detection) = match found {
            Some((trial, verdict)) => (verdict, trial, Some(trial)),
            None => {
                let trials = self.max_trials;
                (Verdict::Equivalent { trials }, trials, None)
            }
        };
        let edge_hits = compress_hits(&hits);
        CoverageReport {
            verdict,
            trials_run,
            trials_to_detection,
            corpus_size: corpus.len(),
            edges_seen: edge_hits.len(),
            edge_hits,
        }
    }
}

/// Compresses a dense per-edge hit-count table into the nonzero
/// `(edge id, total hits)` pairs, in edge-id order.
fn compress_hits(hits: &[u64]) -> Vec<(u32, u64)> {
    hits.iter()
        .enumerate()
        .filter(|(_, &h)| h > 0)
        .map(|(i, &h)| (i as u32, h))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzyflow_cutout::{extract_cutout, SideEffectContext};
    use fuzzyflow_ir::{
        sym, DType, Memlet, ScalarExpr, Schedule, SdfgBuilder, Subset, SymRange, Tasklet,
    };
    use fuzzyflow_transforms::{apply_to_clone, MapTiling, Transformation, Vectorization};

    /// The Fig. 5-style scale loop `B[i] = 2 A[i]` over `dtype`
    /// containers, cut to the map `t` rewrites.
    fn scale_pair(t: &dyn Transformation, dtype: DType) -> (Cutout, Sdfg) {
        let mut b = SdfgBuilder::new("scale");
        b.symbol("N");
        b.array("A", dtype, &["N"]);
        b.array("B", dtype, &["N"]);
        let st = b.start();
        b.in_state(st, |df| {
            let a = df.access("A");
            let o = df.access("B");
            let m = df.map(
                &["i"],
                vec![SymRange::full(sym("N"))],
                Schedule::Parallel,
                |body| {
                    let a = body.access("A");
                    let o = body.access("B");
                    let t = body.tasklet(Tasklet::simple(
                        "sc",
                        vec!["x"],
                        "y",
                        ScalarExpr::r("x").mul(ScalarExpr::f64(2.0)),
                    ));
                    body.read(
                        a,
                        t,
                        Memlet::new("A", Subset::at(vec![sym("i")])).to_conn("x"),
                    );
                    body.write(
                        t,
                        o,
                        Memlet::new("B", Subset::at(vec![sym("i")])).from_conn("y"),
                    );
                },
            );
            df.auto_wire(m, &[a], &[o]);
        });
        let p = b.build();
        let m = &t.find_matches(&p)[0];
        let (_, changes) = apply_to_clone(&p, t, m).unwrap();
        let ctx = SideEffectContext::with_size_symbols(&["N".to_string()], 64);
        let c = extract_cutout(&p, &changes, &ctx).unwrap();
        let translated = fuzzyflow_cutout::translate_match(&c, m).unwrap();
        let mut transformed = c.sdfg.clone();
        t.apply(&mut transformed, &translated).unwrap();
        (c, transformed)
    }

    /// The scale loop vectorized by 4: an input-size-dependent bug.
    fn vectorized_pair() -> (Cutout, Sdfg) {
        scale_pair(&Vectorization::new(4), DType::F64)
    }

    /// Verdict label, trials run, trial of detection, corpus size, edges
    /// hit and summed hits.
    fn shape(r: &CoverageReport) -> (&'static str, usize, Option<usize>, usize, usize, u64) {
        (
            r.verdict.label(),
            r.trials_run,
            r.trials_to_detection,
            r.corpus_size,
            r.edge_hits.len(),
            r.edge_hits.iter().map(|&(_, h)| h).sum(),
        )
    }

    /// The campaign's draws, pinned: the vectorized pair at seed 4242 and
    /// at the default seed (both detect at the first bit flip of `N`),
    /// and a sound (tiled) pair whose 200 trials run the havoc stage.
    #[test]
    fn campaigns_are_pinned() {
        let shipped = Bindings::from_pairs([("N", 16)]);
        let (c, vectorized) = vectorized_pair();
        let (s, tiled) = scale_pair(&MapTiling::new(4), DType::F64);
        let fuzzer = |seed, max_trials| CoverageFuzzer {
            seed,
            max_trials,
            ..Default::default()
        };
        let default_seed = CoverageFuzzer::default().seed;
        let found = ("crash", 2, Some(2), 2, 4, 37);
        assert_eq!(
            shape(&fuzzer(4242, 5000).run(&c, &vectorized, &shipped)),
            found
        );
        assert_eq!(
            shape(&fuzzer(default_seed, 2000).run(&c, &vectorized, &shipped)),
            found
        );
        assert_eq!(
            shape(&fuzzer(default_seed, 200).run(&s, &tiled, &shipped)),
            ("ok", 200, None, 4, 4, 3615)
        );
    }

    #[test]
    fn coverage_fuzzer_finds_size_dependent_bug() {
        let (c, transformed) = vectorized_pair();
        // Seed with a divisible size (like the shipped BERT config): the
        // fuzzer must mutate its way to a non-divisible one.
        let seed = Bindings::from_pairs([("N", 16)]);
        let fuzzer = CoverageFuzzer {
            max_trials: 5000,
            seed: 4242,
            ..Default::default()
        };
        let report = fuzzer.run(&c, &transformed, &seed);
        assert!(
            matches!(report.verdict, Verdict::Crash { .. }),
            "expected OOB crash, got {:?}",
            report.verdict
        );
        let t = report.trials_to_detection.unwrap();
        assert!(t > 1, "seed input is divisible; detection needs mutation");
    }

    #[test]
    fn roundtrip_encode_decode() {
        let (c, _) = vectorized_pair();
        let seed = Bindings::from_pairs([("N", 8)]);
        let fuzzer = CoverageFuzzer::default();
        let mut st = ExecState::new();
        st.bind("N", 8);
        let vals: Vec<f64> = (0..8).map(|i| i as f64).collect();
        st.set_array("A", ArrayValue::from_f64(vec![8], &vals));
        let buf = encode(&c, &st);
        let back = decode(&c, &buf, fuzzer.size_max).unwrap();
        assert_eq!(back.symbols.get("N"), Some(8));
        assert_eq!(back.array("A").unwrap().to_f64_vec(), vals);
        let _ = seed;
    }

    /// An unmutated seed of `F32` or `I32` containers decodes to the
    /// state it was encoded from, bit for bit.
    #[test]
    fn narrow_dtype_seeds_decode_to_themselves() {
        for dtype in [DType::F32, DType::I32] {
            let (c, _) = scale_pair(&MapTiling::new(4), dtype);
            let mut st = ExecState::new();
            st.bind("N", 5);
            let mut arr = ArrayValue::zeros(dtype, vec![5]);
            for (i, v) in [1.5, -2.0, 3.25, 0.0, -7.0].into_iter().enumerate() {
                arr.set(i, fuzzyflow_ir::Scalar::F64(v));
            }
            st.set_array("A", arr.clone());
            let size_max = CoverageFuzzer::default().size_max;
            let back = decode(&c, &encode(&c, &st), size_max).unwrap();
            assert_eq!(back.symbols.get("N"), Some(5), "{dtype:?}");
            let got = back.array("A").unwrap();
            assert_eq!(got.first_mismatch(&arr, 0.0), None, "{dtype:?}");
        }
    }

    #[test]
    fn decode_clamps_sizes() {
        let (c, _) = vectorized_pair();
        let buf = vec![0xFFu8; 64];
        let st = decode(&c, &buf, 24).unwrap();
        let n = st.symbols.get("N").unwrap();
        assert!((1..=24).contains(&n));
    }

    #[test]
    fn mutation_changes_buffers() {
        let mut rng = Xoshiro256::seed_from(1);
        let mut buf = vec![0u8; 32];
        let orig = buf.clone();
        let mut changed = false;
        for _ in 0..10 {
            mutate(&mut buf, &mut rng);
            if buf != orig {
                changed = true;
                break;
            }
        }
        assert!(changed);
    }
}
