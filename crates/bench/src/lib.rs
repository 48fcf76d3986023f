//! Shared helpers for the benchmark harnesses.
//!
//! Each bench target regenerates one table or figure of the paper's
//! evaluation (Sec. 6) or guards one engine tier, and the guards write
//! their numbers as `BENCH_*.json` records through
//! [`write_bench_record`].

use fuzzyflow::prelude::*;
use fuzzyflow_fuzz::json::quote;
use fuzzyflow_fuzz::{derive_constraints, Constraints};

/// Builds `(cutout, transformed-cutout, constraints)` for one
/// transformation instance — the unit every bench drives.
pub fn prepare_pair(
    program: &fuzzyflow::ir::Sdfg,
    t: &dyn Transformation,
    m: &fuzzyflow::transforms::TransformationMatch,
    minimize: bool,
    bindings: &fuzzyflow::ir::Bindings,
) -> (Cutout, fuzzyflow::ir::Sdfg, Constraints) {
    let (_, changes) = apply_to_clone(program, t, m).expect("applies");
    let ctx = SideEffectContext::with_size_symbols(&program.free_symbols(), 1 << 20);
    let mut cutout = extract_cutout(program, &changes, &ctx).expect("extracts");
    if minimize {
        let (min_c, _) =
            fuzzyflow::cutout::minimize_input_configuration(program, cutout, &ctx, bindings);
        cutout = min_c;
    }
    let translated = fuzzyflow::cutout::refind_match(&cutout, t, m).expect("translates");
    let mut transformed = cutout.sdfg.clone();
    t.apply(&mut transformed, &translated).expect("replays");
    let constraints = derive_constraints(&cutout, program);
    (cutout, transformed, constraints)
}

/// First line of a command's stdout, or "unknown".
fn cmd_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Machine/benchmark configuration object embedded in every
/// `BENCH_*.json` record: thread count, CPU model, OS/arch, the trial
/// budget, and the exact toolchain + commit the numbers came from
/// (`rustc`, `git_rev`). Without these, recorded speedups are not
/// comparable across machines, runs, or commits.
pub fn config_json(trials: usize) -> String {
    let threads = fuzzyflow_pool::resolve_threads(0);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .map(|l| l.split(':').nth(1).unwrap_or("").trim().to_string())
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    let git_rev = cmd_line("git", &["rev-parse", "--short=12", "HEAD"]);
    let rustc = cmd_line("rustc", &["--version"]);
    format!(
        "{{\"threads\": {threads}, \"cpu\": {}, \"os\": {}, \"arch\": {}, \
         \"git_rev\": {}, \"rustc\": {}, \"trials\": {trials}}}",
        quote(&cpu),
        quote(std::env::consts::OS),
        quote(std::env::consts::ARCH),
        quote(&git_rev),
        quote(&rustc),
    )
}

/// Assembles one `BENCH_<file>.json` record and writes it at the
/// workspace root: the standard `bench` name + embedded [`config_json`]
/// header (threads/cpu/os/arch/`git_rev`/`rustc`/trials) followed by the
/// caller's pre-rendered `(key, value)` JSON fields. The single writer
/// keeps every bench record's shape — and the provenance fields
/// downstream tooling greps for — uniform.
pub fn write_bench_record(file: &str, bench: &str, trials: usize, fields: &[(&str, String)]) {
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"bench\": {},\n", quote(bench)));
    json.push_str(&format!("  \"config\": {},\n", config_json(trials)));
    for (i, (key, value)) in fields.iter().enumerate() {
        let sep = if i + 1 == fields.len() { "" } else { "," };
        json.push_str(&format!("  {}: {value}{sep}\n", quote(key)));
    }
    json.push_str("}\n");
    // Anchor the record at the workspace root regardless of bench cwd.
    let record = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(format!("BENCH_{file}.json"));
    std::fs::write(&record, &json).unwrap_or_else(|e| panic!("write {}: {e}", record.display()));
    println!("    wrote {}", record.display());
}

/// Simple wall-clock measurement of repeated runs, reporting
/// per-iteration time in microseconds.
pub fn time_per_iter(iters: usize, mut f: impl FnMut()) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}

/// Prints a labeled measurement row.
pub fn row(label: &str, value: impl std::fmt::Display) {
    println!("    {label:<58} {value}");
}
