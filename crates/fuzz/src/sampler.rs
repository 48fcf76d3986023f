//! Uniform sampling of input configurations under derived constraints.

use crate::constraints::{Constraints, SymbolRole};
use crate::rng::Xoshiro256;
use fuzzyflow_cutout::Cutout;
use fuzzyflow_interp::{ArrayValue, ExecState};
use fuzzyflow_ir::{Bindings, DType, Scalar, SymExpr};

/// Value distribution for sampled array elements.
#[derive(Clone, Debug)]
pub struct ValueProfile {
    /// Range for float elements.
    pub float_lo: f64,
    pub float_hi: f64,
    /// Range for integer elements.
    pub int_lo: i64,
    pub int_hi: i64,
    /// Probability of drawing a "special" value (0, ±tiny, ±huge) to probe
    /// numerical edge cases.
    pub special_chance: f64,
    /// Maximum sampled size for size symbols (`S_max` in the paper).
    pub size_max: i64,
}

impl Default for ValueProfile {
    fn default() -> Self {
        ValueProfile {
            float_lo: -100.0,
            float_hi: 100.0,
            int_lo: -100,
            int_hi: 100,
            special_chance: 0.02,
            size_max: 24,
        }
    }
}

const SPECIALS: [f64; 6] = [0.0, -0.0, 1e-30, -1e-30, 1e30, -1e30];

/// One floating-point element: a special value with probability
/// `special_chance`, else uniform in `[float_lo, float_hi)`.
fn sample_f64(rng: &mut Xoshiro256, profile: &ValueProfile) -> f64 {
    if rng.chance(profile.special_chance) {
        SPECIALS[rng.index(SPECIALS.len())]
    } else {
        rng.range_f64(profile.float_lo, profile.float_hi)
    }
}

fn sample_scalar(dtype: DType, rng: &mut Xoshiro256, profile: &ValueProfile) -> Scalar {
    match dtype {
        DType::F64 => Scalar::F64(sample_f64(rng, profile)),
        DType::F32 => Scalar::F32(sample_f64(rng, profile) as f32),
        DType::I64 => Scalar::I64(rng.range_i64(profile.int_lo, profile.int_hi)),
        DType::I32 => Scalar::I32(rng.range_i64(profile.int_lo, profile.int_hi) as i32),
        DType::Bool => Scalar::Bool(rng.chance(0.5)),
    }
}

/// The seed input of a feedback-driven fuzzer: each input symbol bound to
/// `value(symbols bound so far, symbol)`, then each input container shaped
/// by those bindings and filled from `rng` with values in `[-10, 10)`.
/// Containers whose shape does not evaluate, or is negative, stay out.
pub fn seed_input(
    cutout: &Cutout,
    mut value: impl FnMut(&Bindings, &str) -> i64,
    rng: &mut Xoshiro256,
) -> ExecState {
    let mut st = ExecState::new();
    for s in &cutout.input_symbols {
        let v = value(&st.symbols, s);
        st.symbols.set(s.clone(), v);
    }
    for name in &cutout.input_config {
        let Some(desc) = cutout.sdfg.array(name) else {
            continue;
        };
        let Ok(shape) = desc.concrete_shape(&st.symbols) else {
            continue;
        };
        if shape.iter().any(|&d| d < 0) {
            continue;
        }
        let mut arr = ArrayValue::zeros(desc.dtype, shape);
        for i in 0..arr.len() {
            arr.set(i, Scalar::F64(rng.range_f64(-10.0, 10.0)).cast(desc.dtype));
        }
        st.arrays.insert(name.clone(), arr);
    }
    st
}

/// Samples one complete input configuration for a cutout: symbol values
/// honoring the constraint roles, then array contents for every
/// input-configuration container.
///
/// Returns `None` when constraint evaluation fails for the drawn sizes
/// (caller resamples) — this replaces the "uninteresting crashes" a
/// constraint-free fuzzer would produce.
///
/// A fresh-state wrapper around [`sample_state_into`]: same draws, same
/// result. Loops that sample many inputs should reuse one state through
/// that function instead, which allocates nothing once the state's
/// shapes have settled.
pub fn sample_state(
    cutout: &Cutout,
    constraints: &Constraints,
    profile: &ValueProfile,
    rng: &mut Xoshiro256,
) -> Option<ExecState> {
    let mut st = ExecState::new();
    sample_state_into(&mut st, cutout, constraints, profile, rng).then_some(st)
}

/// [`sample_state`] into a caller-owned state: on `true`, `st` equals what
/// `sample_state` returns for the same `rng` state, bit for bit, whatever
/// `st` held before. Every RNG draw happens in `sample_state`'s order.
///
/// Storage is reused: symbol values are overwritten in place, and an input
/// container whose dtype and drawn shape match the one already in `st` is
/// refilled instead of reallocated, so a loop over one state allocates
/// only when a drawn shape changes. On `false` (the draw was rejected; the
/// caller resamples) `st` is partially overwritten and must not be run.
///
/// With a reused state, a binding being present no longer means "drawn in
/// this sample", so both places that used to ask are decided statically
/// instead: an `Index` / `LoopVar` bound may read only symbols drawn
/// before its own ([`Constraints::sampling_order`]) and rejects the draw
/// otherwise, exactly as the unbound read did on a fresh state; and the
/// defensive draws go to the input symbols that have no role.
pub fn sample_state_into(
    st: &mut ExecState,
    cutout: &Cutout,
    constraints: &Constraints,
    profile: &ValueProfile,
    rng: &mut Xoshiro256,
) -> bool {
    // Bindings and containers this cutout never draws would survive the
    // overwrite below; a state reused for the same cutout has none.
    let drawn =
        |s: &str| constraints.roles.contains_key(s) || cutout.input_symbols.iter().any(|i| i == s);
    if !st.symbols.iter().all(|(s, _)| drawn(s)) {
        st.symbols = Bindings::new();
    }
    st.arrays
        .retain(|name, _| cutout.input_config.contains(name));

    sample_symbols(&mut st.symbols, cutout, constraints, profile, rng)
        && cutout
            .input_config
            .iter()
            .all(|name| sample_array(st, cutout, name, profile, rng))
}

/// Symbols, sizes first so dependent bounds can be evaluated, then any
/// input symbol missing from the constraint roles (defensive).
fn sample_symbols(
    syms: &mut Bindings,
    cutout: &Cutout,
    constraints: &Constraints,
    profile: &ValueProfile,
    rng: &mut Xoshiro256,
) -> bool {
    // A bound of `name` evaluated on this sample's draws only: `None` when
    // it reads a symbol not drawn before `name` (unbound on a fresh state)
    // or fails to evaluate.
    let bound = |e: &SymExpr, name: &str, syms: &Bindings| {
        reads_only(e, &|s| constraints.drawn_before(s, name))
            .then(|| e.eval(syms).ok())
            .flatten()
    };
    for (name, role) in constraints.ordered_roles() {
        let value = if let Some(&(lo, hi)) = constraints.custom.get(name) {
            rng.range_i64(lo, hi)
        } else {
            match role {
                SymbolRole::Size => rng.range_i64(1, profile.size_max),
                SymbolRole::Index { dim_size } => match bound(dim_size, name, syms) {
                    Some(hi) if hi >= 1 => rng.range_i64(0, hi - 1),
                    _ => return false,
                },
                SymbolRole::LoopVar { lo, hi } => {
                    match (bound(lo, name, syms), bound(hi, name, syms)) {
                        (Some(lo), Some(hi)) if lo <= hi => rng.range_i64(lo, hi),
                        _ => return false,
                    }
                }
                SymbolRole::Free => rng.range_i64(0, profile.size_max),
            }
        };
        syms.set_str(name, value);
    }
    let inputs = &cutout.input_symbols;
    for (i, s) in inputs.iter().enumerate() {
        if !constraints.roles.contains_key(s) && !inputs[..i].contains(s) {
            syms.set_str(s, rng.range_i64(1, profile.size_max));
        }
    }
    true
}

/// True when every symbol `e` reads satisfies `ok`.
fn reads_only(e: &SymExpr, ok: &impl Fn(&str) -> bool) -> bool {
    match e {
        SymExpr::Int(_) => true,
        SymExpr::Sym(s) => ok(s),
        SymExpr::Add(a, b)
        | SymExpr::Sub(a, b)
        | SymExpr::Mul(a, b)
        | SymExpr::Div(a, b)
        | SymExpr::Mod(a, b)
        | SymExpr::Min(a, b)
        | SymExpr::Max(a, b) => reads_only(a, ok) && reads_only(b, ok),
        SymExpr::Neg(a) => reads_only(a, ok),
    }
}

/// Draws input container `name` into `st`: refilled in place when its
/// dtype and drawn shape match the container already there, replaced by
/// a fresh one otherwise. `false` when the shape does not evaluate or has
/// a negative extent.
fn sample_array(
    st: &mut ExecState,
    cutout: &Cutout,
    name: &str,
    profile: &ValueProfile,
    rng: &mut Xoshiro256,
) -> bool {
    let Some(desc) = cutout.sdfg.array(name) else {
        return false;
    };
    let existing = st
        .arrays
        .get(name)
        .filter(|a| a.dtype() == desc.dtype && a.shape().len() == desc.shape.len());
    let mut fits = existing.is_some();
    for (d, dim) in desc.shape.iter().enumerate() {
        match dim.eval(&st.symbols) {
            Ok(v) if v >= 0 => fits &= existing.is_some_and(|a| a.shape()[d] == v),
            _ => return false,
        }
    }
    if !fits {
        let shape = desc
            .concrete_shape(&st.symbols)
            .expect("every extent evaluated above");
        st.arrays
            .insert(name.to_string(), ArrayValue::zeros(desc.dtype, shape));
    }
    let arr = st.arrays.get_mut(name).expect("filled or inserted above");
    match arr.as_f64_slice_mut() {
        Some(xs) => xs.iter_mut().for_each(|x| *x = sample_f64(rng, profile)),
        None => {
            for i in 0..arr.len() {
                arr.set(i, sample_scalar(desc.dtype, rng, profile));
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::derive_constraints;
    use fuzzyflow_cutout::{extract_cutout, SideEffectContext};
    use fuzzyflow_ir::{sym, Memlet, ScalarExpr, Schedule, SdfgBuilder, Subset, SymRange, Tasklet};
    use fuzzyflow_transforms::ChangeSet;

    fn simple_cutout() -> (fuzzyflow_ir::Sdfg, Cutout) {
        let mut b = SdfgBuilder::new("p");
        b.symbol("N");
        b.array("A", DType::F64, &["N"]);
        b.array("B", DType::F64, &["N"]);
        let st = b.start();
        let mut mid = None;
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
                    let t = body.tasklet(Tasklet::simple("id", vec!["x"], "y", ScalarExpr::r("x")));
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
            mid = Some(m);
        });
        let p = b.build();
        let changes = ChangeSet::nodes_in_state(st, [mid.unwrap()]);
        let ctx = SideEffectContext::with_size_symbols(&["N".to_string()], 64);
        let c = extract_cutout(&p, &changes, &ctx).unwrap();
        (p, c)
    }

    #[test]
    fn samples_fill_all_inputs() {
        let (p, c) = simple_cutout();
        let cons = derive_constraints(&c, &p);
        let mut rng = Xoshiro256::seed_from(1);
        let st = sample_state(&c, &cons, &ValueProfile::default(), &mut rng).unwrap();
        let n = st.symbols.get("N").unwrap();
        assert!((1..=24).contains(&n));
        let a = st.array("A").unwrap();
        assert_eq!(a.shape(), &[n]);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let (p, c) = simple_cutout();
        let cons = derive_constraints(&c, &p);
        let profile = ValueProfile::default();
        let mut r1 = Xoshiro256::seed_from(99);
        let mut r2 = Xoshiro256::seed_from(99);
        let s1 = sample_state(&c, &cons, &profile, &mut r1).unwrap();
        let s2 = sample_state(&c, &cons, &profile, &mut r2).unwrap();
        assert_eq!(s1.symbols, s2.symbols);
        assert_eq!(
            s1.array("A").unwrap().to_f64_vec(),
            s2.array("A").unwrap().to_f64_vec()
        );
    }

    #[test]
    fn custom_constraint_overrides_role() {
        let (p, c) = simple_cutout();
        let mut cons = derive_constraints(&c, &p);
        cons.constrain("N", 8, 8);
        let mut rng = Xoshiro256::seed_from(5);
        for _ in 0..10 {
            let st = sample_state(&c, &cons, &ValueProfile::default(), &mut rng).unwrap();
            assert_eq!(st.symbols.get("N"), Some(8));
        }
    }

    #[test]
    fn size_range_respected_over_many_samples() {
        let (p, c) = simple_cutout();
        let cons = derive_constraints(&c, &p);
        let profile = ValueProfile {
            size_max: 5,
            ..Default::default()
        };
        let mut rng = Xoshiro256::seed_from(3);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let st = sample_state(&c, &cons, &profile, &mut rng).unwrap();
            seen.insert(st.symbols.get("N").unwrap());
        }
        assert!(seen.iter().all(|n| (1..=5).contains(n)));
        assert!(seen.len() >= 4, "should cover most sizes: {seen:?}");
    }

    /// Draws `seeds` into the reused `st`, each checked against a fresh
    /// [`sample_state`] on the same seed: same accept/reject, same RNG
    /// position afterwards, same bindings and payload bits. Returns how
    /// many draws were accepted.
    fn assert_reuse_matches_fresh(
        c: &Cutout,
        cons: &Constraints,
        profile: &ValueProfile,
        st: &mut ExecState,
        seeds: std::ops::Range<u64>,
    ) -> usize {
        let bits = |s: &ExecState| -> Vec<(String, Vec<u64>)> {
            s.arrays
                .iter()
                .map(|(k, a)| {
                    let b = a.to_f64_vec().iter().map(|v| v.to_bits()).collect();
                    (k.clone(), b)
                })
                .collect()
        };
        let mut accepted = 0;
        for seed in seeds {
            let (mut r1, mut r2) = (Xoshiro256::seed_from(seed), Xoshiro256::seed_from(seed));
            let fresh = sample_state(c, cons, profile, &mut r1);
            let ok = sample_state_into(st, c, cons, profile, &mut r2);
            assert_eq!(ok, fresh.is_some(), "seed {seed}: accept/reject differs");
            assert_eq!(r1.next_u64(), r2.next_u64(), "seed {seed}: RNG position");
            if let Some(fresh) = fresh {
                assert_eq!(st.symbols, fresh.symbols, "seed {seed}");
                assert_eq!(bits(st), bits(&fresh), "seed {seed}");
                accepted += 1;
            }
        }
        accepted
    }

    fn roles(pairs: Vec<(&str, SymbolRole)>) -> Constraints {
        Constraints {
            roles: pairs.into_iter().map(|(s, r)| (s.to_string(), r)).collect(),
            custom: Default::default(),
        }
    }

    #[test]
    fn reused_state_matches_fresh_across_size_changes() {
        let (p, c) = simple_cutout();
        let cons = derive_constraints(&c, &p);
        let profile = ValueProfile {
            size_max: 6,
            special_chance: 0.3,
            ..Default::default()
        };
        let mut st = ExecState::new();
        assert_eq!(
            assert_reuse_matches_fresh(&c, &cons, &profile, &mut st, 0..300),
            300
        );
    }

    #[test]
    fn reused_state_matches_fresh_for_index_and_loop_roles() {
        let (_, mut c) = simple_cutout();
        c.input_symbols.extend(["j".to_string(), "k".to_string()]);
        let cons = roles(vec![
            ("N", SymbolRole::Size),
            (
                "j",
                SymbolRole::LoopVar {
                    lo: SymExpr::Int(2),
                    hi: sym("N") - SymExpr::Int(1),
                },
            ),
            ("k", SymbolRole::Index { dim_size: sym("N") }),
        ]);
        let profile = ValueProfile {
            size_max: 6,
            ..Default::default()
        };
        let mut st = ExecState::new();
        let accepted = assert_reuse_matches_fresh(&c, &cons, &profile, &mut st, 0..300);
        // `j` in [2, N-1] rejects N < 3: both verdicts occur.
        assert!((1..300).contains(&accepted), "{accepted} of 300 accepted");
    }

    /// An input symbol without a role is drawn defensively, once, after
    /// every role — also on a reused state that already binds it.
    #[test]
    fn roleless_input_symbols_draw_defensively_on_reuse() {
        let (_, mut c) = simple_cutout();
        c.input_symbols.extend(["Z".to_string(), "Z".to_string()]);
        let cons = roles(vec![("N", SymbolRole::Size)]);
        let mut st = ExecState::new();
        let profile = ValueProfile::default();
        assert_eq!(
            assert_reuse_matches_fresh(&c, &cons, &profile, &mut st, 0..100),
            100
        );
        assert!(st.symbols.contains("Z"));
    }

    /// A bound that reads a symbol drawn *after* its own is unbound on a
    /// fresh state, so the draw is rejected — and stays rejected on a
    /// reused state holding a stale value for that symbol.
    #[test]
    fn bound_reading_a_later_drawn_symbol_rejects_on_reuse() {
        let (_, mut c) = simple_cutout();
        c.input_symbols.extend(["a".to_string(), "b".to_string()]);
        let profile = ValueProfile::default();
        // Leave a value for `b` behind in the reused state.
        let mut st = ExecState::new();
        let free = roles(vec![
            ("N", SymbolRole::Size),
            ("a", SymbolRole::Free),
            ("b", SymbolRole::Free),
        ]);
        assert_eq!(
            assert_reuse_matches_fresh(&c, &free, &profile, &mut st, 0..1),
            1
        );
        assert!(st.symbols.contains("b"));
        for later in [
            SymbolRole::Index { dim_size: sym("b") },
            SymbolRole::LoopVar {
                lo: SymExpr::Int(0),
                hi: sym("b"),
            },
            SymbolRole::Index {
                dim_size: sym("a") + sym("N"),
            },
        ] {
            let cons = roles(vec![
                ("N", SymbolRole::Size),
                ("a", later.clone()),
                ("b", SymbolRole::Free),
            ]);
            assert_eq!(
                assert_reuse_matches_fresh(&c, &cons, &profile, &mut st, 0..50),
                0,
                "{later:?} must reject every draw"
            );
        }
        // Reading an earlier-drawn symbol is fine.
        let cons = roles(vec![
            ("N", SymbolRole::Size),
            ("a", SymbolRole::Free),
            ("b", SymbolRole::Index { dim_size: sym("a") }),
        ]);
        let accepted = assert_reuse_matches_fresh(&c, &cons, &profile, &mut st, 0..50);
        assert!(accepted > 0);
    }

    /// A state left behind by another cutout loses the bindings and
    /// containers this one does not draw.
    #[test]
    fn foreign_state_is_cleared_on_reuse() {
        let (p, c) = simple_cutout();
        let cons = derive_constraints(&c, &p);
        let mut st = ExecState::new();
        st.bind("OTHER", 3);
        st.set_array("X", ArrayValue::from_f64(vec![1], &[1.0]));
        let profile = ValueProfile::default();
        assert_reuse_matches_fresh(&c, &cons, &profile, &mut st, 0..5);
        assert!(!st.symbols.contains("OTHER"));
        assert!(st.array("X").is_none());
    }
}
