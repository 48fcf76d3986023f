//! E8 / Sec. 6.4: the CLOUDSC-like cloud-microphysics case study.
//!
//! The paper tests three custom transformations over CLOUDSC at 100
//! trials each: GPU kernel extraction (62 instances, 48 faulty — Fig. 7),
//! loop unrolling (19 instances, 1 faulty — the negative-step loop), and
//! write elimination (136 instances, 1 faulty — a live temporary). Each
//! fault surfaced after 1-2 fuzzing trials. This harness reruns the study
//! on the synthetic scheme and prints the same per-pass rows.

use fuzzyflow::prelude::*;
use fuzzyflow::session::NullSink;

fn main() {
    println!("== Sec. 6.4: CLOUDSC-like scheme, custom transformation sweep ==");
    let program = fuzzyflow::workloads::cloudsc_like();
    let bindings = fuzzyflow::workloads::cloudsc::default_bindings();
    println!(
        "scheme: {} states, {} dataflow nodes",
        program.states.node_count(),
        program
            .states
            .node_ids()
            .map(|s| program.state(s).df.deep_node_count())
            .sum::<usize>()
    );

    let session = Campaign::new("cloudsc")
        .with_workload("cloudsc_like", program, bindings)
        .with_transformations(cloudsc_suite())
        .with_verify(
            VerifyConfig::new()
                .with_trials(100) // as in the paper
                .with_size_max(10)
                .with_seed(0xC10D),
        )
        .session();
    let start = std::time::Instant::now();
    let report = session.run(&NullSink);
    let elapsed = start.elapsed();
    println!(
        "instances tested: {}; wall-clock {:.1}s\n",
        report.completed(),
        elapsed.as_secs_f64()
    );
    println!("{}", report.format_table());
    let rows = report.table_rows();

    let paper: &[(&str, usize, usize)] = &[
        ("GpuKernelExtraction", 62, 48),
        ("LoopUnrolling", 19, 1),
        ("WriteElimination", 136, 1),
    ];
    println!("pass               paper(inst/faulty)   measured(inst/faulty)   faulty-ratio paper vs measured");
    for (name, p_inst, p_fault) in paper {
        if let Some(row) = rows.iter().find(|r| r.transformation == *name) {
            println!(
                "{:<18} {:>6}/{:<10} {:>10}/{:<10} {:>14.2} vs {:.2}",
                name,
                p_inst,
                p_fault,
                row.instances,
                row.faults,
                *p_fault as f64 / *p_inst as f64,
                row.faults as f64 / row.instances.max(1) as f64,
            );
        }
    }

    // Time-to-detection per faulty instance (paper: 1-2 trials, ~43 s per
    // GPU-extraction case on the authors' testbed).
    println!("\nfaulty instances and trials-to-detection:");
    for r in report.faults() {
        println!(
            "  {:<22} [{}] after {:?} trial(s): {}",
            r.transformation, r.label, r.trials_to_detection, r.match_description
        );
    }
}
