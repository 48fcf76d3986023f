//! Fused map kernels vs per-element generic bytecode, on the fig. 5 MHA
//! scale-nest cutout and the fig. 6 SDDMM cutout.
//!
//! The fused engine collapses eligible `map → read → tasklet → write`
//! scopes into strength-reduced loop kernels (native, or lane-chunked);
//! compiling with `fuse_maps: false` runs every map per element on the
//! generic bytecode, so the measured delta is the whole fused rung. The
//! bench asserts:
//!
//! * the fused engine is bit-identical to the per-element engine on the
//!   sampled inputs (the property suite covers this broadly; here it
//!   guards the exact configurations being timed);
//! * fused ≥ 1.5x over per-element generic bytecode on the fig. 5 MHA
//!   cutout execution.
//!
//! Results land in `BENCH_fused.json` with the machine configuration.

use fuzzyflow::prelude::*;
use fuzzyflow_bench::{prepare_pair, row, time_per_iter, write_bench_record};
use fuzzyflow_fuzz::{sample_state, Constraints, ValueProfile, Xoshiro256};
use fuzzyflow_interp::{CompileOptions, ExecOptions, Program};

type Pair = (Cutout, fuzzyflow::ir::Sdfg, Constraints);

struct FusionNumbers {
    unfused_us: f64,
    fused_us: f64,
    trial_unfused_us: f64,
    trial_fused_us: f64,
}

impl FusionNumbers {
    fn cutout_speedup(&self) -> f64 {
        self.unfused_us / self.fused_us
    }
    fn trial_speedup(&self) -> f64 {
        self.trial_unfused_us / self.trial_fused_us
    }
}

/// Times the cutout execution and the full differential trial on
/// per-element generic bytecode vs the fused engine, asserting bit-exact
/// agreement on the sampled input first.
fn measure(pair: &Pair, seed: u64, iters: usize) -> FusionNumbers {
    let (cutout, transformed, constraints) = pair;
    let profile = ValueProfile {
        size_max: 12,
        ..Default::default()
    };
    let opts = ExecOptions::default();
    let mut rng = Xoshiro256::seed_from(seed);
    let sample = loop {
        if let Some(s) = sample_state(cutout, constraints, &profile, &mut rng) {
            let mut probe = s.clone();
            if fuzzyflow_interp::run(&cutout.sdfg, &mut probe).is_ok() {
                break s;
            }
        }
    };

    let unfused_opts = CompileOptions {
        fuse_maps: false,
        ..Default::default()
    };
    let orig_unf = Program::compile_with_options(&cutout.sdfg, &unfused_opts);
    let trans_unf = Program::compile_with_options(transformed, &unfused_opts);
    let orig_fus = Program::compile(&cutout.sdfg);
    let trans_fus = Program::compile(transformed);

    // Bit-exact parity on the timed input.
    let mut a = sample.clone();
    let mut b = sample.clone();
    orig_unf.run(&mut a).unwrap();
    orig_fus.run(&mut b).unwrap();
    assert!(
        a.compare_on(&b, &cutout.system_state, 0.0).is_none(),
        "fused kernel diverged from per-element generic bytecode"
    );

    let mut ue = orig_unf.executor();
    let unfused_us = time_per_iter(iters, || {
        ue.execute(&sample, &opts, None, None).unwrap();
    });
    let mut fe = orig_fus.executor();
    let fused_us = time_per_iter(iters, || {
        fe.execute(&sample, &opts, None, None).unwrap();
    });

    let mut ut = trans_unf.executor();
    let trial_unfused_us = time_per_iter(iters, || {
        ue.execute(&sample, &opts, None, None).unwrap();
        let _ = ut.execute(&sample, &opts, None, None);
        let _ = ue.compare_on(&ut, &cutout.system_state, 1e-5);
    });
    let mut ft = trans_fus.executor();
    let trial_fused_us = time_per_iter(iters, || {
        fe.execute(&sample, &opts, None, None).unwrap();
        let _ = ft.execute(&sample, &opts, None, None);
        let _ = fe.compare_on(&ft, &cutout.system_state, 1e-5);
    });

    FusionNumbers {
        unfused_us,
        fused_us,
        trial_unfused_us,
        trial_fused_us,
    }
}

fn main() {
    println!("== fused_kernels: fused map kernels vs per-element generic bytecode ==");

    // --- Fig. 5: MHA scale nest under vectorization (unminimized, so the
    // cutout is the loop nest itself). ---
    let mha = fuzzyflow::workloads::mha_encoder();
    let mha_bindings = fuzzyflow::workloads::mha::default_bindings();
    let vectorize = Vectorization::new(4);
    let mha_match = &vectorize.find_matches(&mha)[0];
    let mha_pair = prepare_pair(&mha, &vectorize, mha_match, false, &mha_bindings);

    let stats = Program::compile(&mha_pair.0.sdfg).tasklet_stats();
    for m in &stats.maps {
        row(
            &format!("MHA cutout {}", m.label),
            if m.fused {
                "fused".to_string()
            } else {
                format!("not fused: {}", m.reason.unwrap_or("?"))
            },
        );
    }
    assert!(
        stats.fused_maps > 0,
        "fused kernel did not engage on the MHA cutout"
    );

    let mha_nums = measure(&mha_pair, 7, 300);
    row(
        "MHA cutout per-element generic bytecode (us)",
        format!("{:.1}", mha_nums.unfused_us),
    );
    row("MHA cutout fused (us)", format!("{:.1}", mha_nums.fused_us));
    row(
        "MHA cutout fused speedup (target: >= 1.5x)",
        format!("{:.2}x", mha_nums.cutout_speedup()),
    );
    row(
        "MHA differential trial fused speedup",
        format!("{:.2}x", mha_nums.trial_speedup()),
    );

    // --- Fig. 6: SDDMM under no-remainder tiling. ---
    let att = fuzzyflow::workloads::vanilla_attention();
    let att_bindings = fuzzyflow::workloads::attention::default_bindings();
    let tiling = MapTilingNoRemainder::new(4);
    let sddmm_match = &tiling.find_matches(&att)[0];
    let sddmm_pair = prepare_pair(&att, &tiling, sddmm_match, true, &att_bindings);
    let sddmm_nums = measure(&sddmm_pair, 11, 300);
    row(
        "SDDMM cutout per-element generic bytecode (us)",
        format!("{:.1}", sddmm_nums.unfused_us),
    );
    row(
        "SDDMM cutout fused (us)",
        format!("{:.1}", sddmm_nums.fused_us),
    );
    row(
        "SDDMM cutout fused speedup",
        format!("{:.2}x", sddmm_nums.cutout_speedup()),
    );

    assert!(
        mha_nums.cutout_speedup() >= 1.5,
        "fused kernels below the 1.5x bar on the MHA cutout: {:.2}x",
        mha_nums.cutout_speedup()
    );

    let fig = |n: &FusionNumbers| {
        format!(
            "{{\"per_element_us\": {:.3}, \"fused_us\": {:.3}, \"speedup\": {:.3}, \
             \"trial_speedup\": {:.3}}}",
            n.unfused_us,
            n.fused_us,
            n.cutout_speedup(),
            n.trial_speedup()
        )
    };
    write_bench_record(
        "fused",
        "fused_kernels",
        300,
        &[
            ("fig5_mha", fig(&mha_nums)),
            ("fig6_sddmm", fig(&sddmm_nums)),
        ],
    );
}
