//! E7 / Table 2 and Sec. 6.3: sweeping every built-in transformation over
//! the NPBench-like suite.
//!
//! The paper tests each applicable instance of each built-in DaCe
//! optimization over 52 NPBench programs (3,280 instances) and finds six
//! buggy transformations plus one whose correctness depends on inputs.
//! This harness performs the same sweep over this repository's 32-kernel
//! suite and prints the Table-2 classification. Expected shape: the
//! seeded-buggy passes surface as faults in their paper-reported class,
//! the correct passes produce no false positives, and most instances
//! overall pass.

use fuzzyflow::prelude::*;
use fuzzyflow::session::NullSink;

fn main() {
    println!("== Table 2 / Sec. 6.3: built-in transformation sweep over the NPBench-like suite ==");
    let workloads = fuzzyflow::workloads::suite();
    println!("benchmarks: {} (paper: 52)", workloads.len());

    let transformations = builtin_suite();
    println!("built-in transformations: {}", transformations.len());

    let mut campaign = Campaign::new("table2")
        .with_transformations(transformations)
        .with_verify(
            VerifyConfig::new()
                .with_trials(40)
                .with_size_max(10)
                .with_seed(0xBEEF),
        );
    for w in workloads {
        campaign = campaign.with_workload(w.name, w.sdfg, w.bindings);
    }
    let start = std::time::Instant::now();
    let report = campaign.session().run(&NullSink);
    let elapsed = start.elapsed();

    let total = report.completed();
    let faults = report.fault_count();
    let errors = report
        .instances
        .iter()
        .filter(|r| r.error.is_some())
        .count();
    println!(
        "\ntransformation instances: {total} (paper: 3,280); faults: {faults}; pipeline errors: {errors}"
    );
    println!("sweep wall-clock: {:.1}s\n", elapsed.as_secs_f64());
    println!("{}", report.format_table());
    let rows = report.table_rows();

    // Table-2 expectations: buggy passes flagged, correct passes clean.
    let faulty_passes = [
        "BufferTiling",
        "TaskletFusion",
        "Vectorization",
        "MapTilingOffByOne",
        "MapTilingNoRemainder",
    ];
    for name in faulty_passes {
        let row = rows.iter().find(|r| r.transformation == name);
        if let Some(row) = row {
            if row.instances > 0 {
                println!(
                    "check {name}: {} faults / {} instances {}",
                    row.faults,
                    row.instances,
                    if row.faults > 0 {
                        "(flagged ✓)"
                    } else {
                        "(NOT FLAGGED ✗)"
                    }
                );
            }
        }
    }
    for name in ["MapTiling", "MapCollapse", "MapFusion", "StateFusion"] {
        if let Some(row) = rows.iter().find(|r| r.transformation == name) {
            if row.instances > 0 {
                println!(
                    "check {name}: {} false positives / {} instances {}",
                    row.faults,
                    row.instances,
                    if row.faults == 0 {
                        "(clean ✓)"
                    } else {
                        "(FALSE POSITIVES ✗)"
                    }
                );
            }
        }
    }

    // Example failing instances with their failure classes.
    println!("\nsample faulty instances:");
    for r in report.faults().take(8) {
        println!(
            "  {:<16} {:<22} [{}] {}",
            r.workload, r.transformation, r.label, r.match_description
        );
    }
}
