//! From multi-node to single-node testing (paper Sec. 6.2 / Fig. 6).
//!
//! The distributed vanilla-attention program needs the multi-rank
//! simulated runtime to execute (it contains an AllGather collective).
//! A FuzzyFlow cutout of its SDDMM kernel contains no communication, so
//! the same optimization can be tested on a single rank: the gathered
//! features become a plain input container.
//!
//! Run with: `cargo run --example distributed_sddmm`

use fuzzyflow::cutout::{extract_cutout, SideEffectContext};
use fuzzyflow::dist::{has_communication, run_distributed};
use fuzzyflow::prelude::*;

fn main() {
    let program = fuzzyflow::workloads::vanilla_attention();
    println!(
        "program '{}' contains communication: {}",
        program.name,
        has_communication(&program)
    );

    // Whole-program execution requires all ranks (expensive in reality).
    let nranks = 4usize;
    let (nloc, f) = (4i64, 3i64);
    let ntot = nloc * nranks as i64;
    let mk_rank = |r: usize| {
        let mut st = ExecState::new();
        st.bind("NLOC", nloc).bind("NTOT", ntot).bind("F", f);
        let feats: Vec<f64> = (0..nloc * f).map(|i| (i as f64 + r as f64) * 0.1).collect();
        st.set_array("H", ArrayValue::from_f64(vec![nloc, f], &feats));
        st.set_array(
            "M",
            ArrayValue::from_f64(vec![nloc, ntot], &vec![1.0; (nloc * ntot) as usize]),
        );
        st
    };
    let states: Vec<ExecState> = (0..nranks).map(mk_rank).collect();
    let out = run_distributed(&program, states, &Default::default()).unwrap();
    println!(
        "whole-program run on {} simulated ranks: rank0 out = {:?}",
        nranks,
        out[0].array("out").unwrap().to_f64_vec()
    );

    // Cutout around the SDDMM map: communication-free.
    let tiling = MapTiling::new(4);
    let matches = tiling.find_matches(&program);
    // Pick the SDDMM (3-parameter) map instance.
    let sddmm = matches
        .iter()
        .find(|m| m.description.contains("map"))
        .expect("sddmm matches");
    let (_, changes) = apply_to_clone(&program, &tiling, sddmm).unwrap();
    let ctx = SideEffectContext::with_size_symbols(&program.free_symbols(), 64);
    let cutout = extract_cutout(&program, &changes, &ctx).unwrap();
    println!(
        "cutout contains communication: {} — inputs {:?}",
        has_communication(&cutout.sdfg),
        cutout.input_config
    );
    assert!(!has_communication(&cutout.sdfg));

    // Single-node verification of the tiling on the SDDMM kernel.
    let config = VerifyConfig::new()
        .with_trials(50)
        .with_size_max(8)
        .with_concretization(fuzzyflow::workloads::attention::default_bindings());
    let report = fuzzyflow::verify_instance(&program, &tiling, sddmm, &config).unwrap();
    println!(
        "single-node verdict for correct tiling on SDDMM: {}",
        report.verdict.label()
    );

    // And the buggy variant is caught — still on a single rank.
    let buggy = MapTilingNoRemainder::new(4);
    let bm = buggy.find_matches(&program);
    let report = fuzzyflow::verify_instance(&program, &buggy, &bm[0], &config).unwrap();
    println!(
        "single-node verdict for no-remainder tiling: {} (trials to detection: {:?})",
        report.verdict.label(),
        report.trials_to_detection
    );
}
