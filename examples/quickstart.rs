//! Quickstart: the paper's Fig. 2 story end to end.
//!
//! A matrix chain multiplication `R = ((A·B)·C)·D` is "optimized" with a
//! tiling transformation that has an off-by-one bug in its inner loop
//! bound. FuzzyFlow extracts a cutout around the tiled multiplication,
//! fuzzes it differentially against the transformed version, and produces
//! a replayable failing test case — without ever running the whole chain.
//!
//! Run with: `cargo run --example quickstart`

use fuzzyflow::prelude::*;

fn main() {
    let program = fuzzyflow::workloads::matmul_chain();
    println!(
        "program: {} (validates: {})",
        program.name,
        validate(&program).is_ok()
    );

    // The transformation under test: map tiling with the Fig. 2 bug.
    let tiling = MapTilingOffByOne::new(4);
    let matches = tiling.find_matches(&program);
    println!("tiling matches {} GEMM loop nests", matches.len());

    // Verify the *second* multiplication, as in the paper.
    let config = VerifyConfig::new()
        .with_trials(100)
        .with_concretization(fuzzyflow::workloads::matmul_chain::default_bindings());
    let report =
        fuzzyflow::verify_instance(&program, &tiling, &matches[1], &config).expect("pipeline runs");

    println!(
        "cutout: {} nodes (program: {}), inputs {:?}, system state {:?}",
        report.cutout_stats.nodes, report.program_nodes, report.input_config, report.system_state
    );
    match &report.verdict {
        Verdict::SemanticChange {
            trial,
            mismatch,
            case,
        } => {
            println!("FAULT after {trial} trial(s): {mismatch}");
            let path = std::env::temp_dir().join("fuzzyflow_quickstart_case.json");
            case.save(&path).expect("writable temp dir");
            println!("replayable test case written to {}", path.display());
            // Demonstrate replay: load and re-run both sides.
            let loaded = TestCase::load(&path).expect("parses");
            println!(
                "replay input: {} symbols, {} containers",
                loaded.state.symbols.len(),
                loaded.state.arrays.len()
            );
        }
        other => println!("unexpected verdict: {other:?}"),
    }

    // The correct tiling passes the same procedure.
    let good = MapTiling::new(4);
    let gm = good.find_matches(&program);
    let report = fuzzyflow::verify_instance(&program, &good, &gm[1], &config).unwrap();
    println!("correct tiling verdict: {}", report.verdict.label());
}
