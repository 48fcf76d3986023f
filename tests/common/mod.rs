//! The Table-2 instance set shared by the integration suites.

use fuzzyflow::ir::{Bindings, Sdfg};
use fuzzyflow::transforms::{builtin_suite, cloudsc_suite, Transformation};
use fuzzyflow::workloads;

/// npbench + cloudsc + MHA + matmul chain, as the benchmark's Table-2
/// campaign enumerates them.
pub fn table2_programs() -> Vec<(&'static str, Sdfg, Bindings)> {
    let mut programs: Vec<_> = workloads::suite()
        .into_iter()
        .map(|w| (w.name, w.sdfg, w.bindings))
        .collect();
    programs.push((
        "cloudsc_like",
        workloads::cloudsc_like(),
        workloads::cloudsc::default_bindings(),
    ));
    programs.push((
        "mha_encoder",
        workloads::mha_encoder(),
        workloads::mha::default_bindings(),
    ));
    programs.push((
        "matmul_chain",
        workloads::matmul_chain(),
        workloads::matmul_chain::default_bindings(),
    ));
    programs
}

/// The passes of that campaign, in suite order.
pub fn table2_passes() -> Vec<Box<dyn Transformation>> {
    let mut passes = builtin_suite();
    passes.extend(cloudsc_suite());
    passes
}
