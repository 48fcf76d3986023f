//! Helpers shared by the integration suites: the Table-2 instance set
//! and the report fingerprint. Each suite uses a subset.
#![allow(dead_code)]

use fuzzyflow::ir::{Bindings, Sdfg};
use fuzzyflow::transforms::{builtin_suite, cloudsc_suite, Transformation};
use fuzzyflow::workloads;
use fuzzyflow::CampaignReport;

/// FNV-1a over a report's JSON without the lines of the top-level keys
/// in `skip` — `"caches"` always (live counter deltas, outside the
/// byte-identity contract), and `"fusion"` for a host-independent hash
/// (its JIT-eligibility tallies are host-specific).
pub fn report_fingerprint(report: &CampaignReport, skip: &[&str]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for line in report
        .to_json()
        .lines()
        .filter(|l| !skip.iter().any(|k| l.starts_with(&format!("  \"{k}\":"))))
    {
        for b in line.bytes().chain([b'\n']) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

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

/// The passes with no seeded bug — the benchmark's `sound_*` workloads
/// verify the Table-2 programs under these only.
pub fn sound_passes() -> Vec<Box<dyn Transformation>> {
    const SOUND: [&str; 4] = ["MapTiling", "MapCollapse", "MapFusion", "StateFusion"];
    let mut passes = table2_passes();
    passes.retain(|t| SOUND.contains(&t.name()));
    passes
}
