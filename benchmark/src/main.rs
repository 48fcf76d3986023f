//! `campaign_e2e` — the end-to-end verification-campaign benchmark.
//!
//! One run measures one workload:
//!
//! ```text
//! campaign_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! and prints, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Without
//! `--workload` it runs every workload both ways and prints every metric;
//! `--quick` and `--selfcheck` are described in README.md.
//!
//! The driver process only spawns and waits: every measurement happens in
//! a child process of its own ("round"), one at a time, so peak memory and
//! cache state are per round and at most one process is ever busy.

mod replay;
mod round;
mod spec;
mod trace;
mod util;
mod verdicts;

use spec::{Workload, WORKLOADS};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use util::{median, num, percentile, quote};

/// End-to-end metrics: `(name, unit, regression bound)`. The bounds repeat
/// BENCHMARK.json's; `--selfcheck` applies them.
const END_TO_END: [(&str, &str, f64); 7] = [
    ("setup_s", "s", 0.25),
    ("campaign_s", "s", 0.15),
    ("instances_per_s", "1/s", 0.15),
    ("trials_per_s", "1/s", 0.15),
    ("instance_p50_ms", "ms", 0.15),
    ("instance_p99_ms", "ms", 0.25),
    ("peak_rss_mb", "MiB", 0.15),
];

/// Per-layer metrics a traced run must report, with their units.
const PER_LAYER: [(&str, &str); 69] = [
    ("transforms.find_matches_us", "us"),
    ("transforms.apply_us", "us"),
    ("transforms.replay_us", "us"),
    ("transforms.instances", "count"),
    ("cutout.extract_us", "us"),
    ("cutout.mincut_us", "us"),
    ("cutout.refind_us", "us"),
    ("cutout.node_ratio", "ratio"),
    ("cutout.input_reduction", "ratio"),
    ("ir.validate_us", "us"),
    ("ir.sdfg_clone_us", "us"),
    ("ir.node_count_us", "us"),
    ("fuzz.constraints_us", "us"),
    ("fuzz.sample_us", "us"),
    ("fuzz.capture_us", "us"),
    ("fuzz.sample_elems", "count"),
    ("fuzz.sample_accept_ratio", "ratio"),
    ("interp.compile_us", "us"),
    ("interp.executor_new_us", "us"),
    ("interp.exec_first_us", "us"),
    ("interp.exec_orig_us", "us"),
    ("interp.exec_trans_us", "us"),
    ("interp.compare_us", "us"),
    ("interp.state_drop_us", "us"),
    ("interp.program_compiles", "count"),
    ("interp.program_cache_hit_ratio", "ratio"),
    ("interp.program_evictions", "count"),
    ("interp.code_compiles", "count"),
    ("interp.code_bytes", "bytes"),
    ("interp.code_evictions", "count"),
    ("interp.native_runs_scalar", "count"),
    ("interp.native_runs_packed", "count"),
    ("interp.maps_total", "count"),
    ("interp.maps_fused", "count"),
    ("interp.maps_jit", "count"),
    ("interp.fresh_arenas", "count"),
    ("interp.exec_us.default", "us"),
    ("interp.exec_us.no_jit", "us"),
    ("interp.exec_us.no_fuse", "us"),
    ("interp.exec_us.generic", "us"),
    ("interp.exec_us.reset_full", "us"),
    ("evo.evolve_us", "us"),
    ("evo.triage_us", "us"),
    ("evo.trials", "count"),
    ("evo.corpus_size", "count"),
    ("evo.edges_seen", "count"),
    ("evo.faults_found", "count"),
    ("evo.buckets", "count"),
    ("evo.novelty_events", "count"),
    ("core.session_build_us", "us"),
    ("core.report_to_json_us", "us"),
    ("core.report_from_json_us", "us"),
    ("core.report_bytes", "bytes"),
    ("core.prepares", "count"),
    ("core.cold_minus_warm_us", "us"),
    ("pool.dispatch_us_per_item", "us"),
    ("workloads.build_us", "us"),
    ("replay.trials", "count"),
    ("replay.faults", "count"),
    ("replay.pipeline_errors", "count"),
    ("trace.attributed_share", "ratio"),
    ("trace.replay_vs_session", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.replays", "count"),
    ("check.verdict_mismatches", "count"),
    ("check.report_drift", "count"),
    ("check.instances_attempted", "count"),
    ("check.repetitions", "count"),
    ("check.rounds", "count"),
];

/// Result of measuring one workload one way.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(name),
                    num(*value),
                    quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// What the rounds of one measurement reported, pooled.
#[derive(Default)]
struct Pooled {
    setup_s: Vec<f64>,
    campaign_s: Vec<f64>,
    instances_per_s: Vec<f64>,
    trials_per_s: Vec<f64>,
    instance_ms: Vec<f64>,
    rss_mb: Vec<f64>,
    hashes: Vec<String>,
    layers: BTreeMap<String, f64>,
    attempted: u64,
    mismatches: u64,
    failures: u64,
    rounds: u64,
}

impl Pooled {
    /// Folds one round's protocol lines in; anything else is echoed.
    fn absorb(&mut self, stdout: &str) {
        self.rounds += 1;
        for line in stdout.lines() {
            let mut words = line.split_whitespace();
            let keyword = words.next().unwrap_or("");
            let mut f = || {
                words
                    .next()
                    .and_then(|w| w.parse::<f64>().ok())
                    .unwrap_or(0.0)
            };
            match keyword {
                "setup" => self.setup_s.push(f()),
                "rep" => {
                    let (run_s, json_s, instances, trials) = (f(), f(), f(), f());
                    let campaign_s = run_s + json_s;
                    self.campaign_s.push(campaign_s);
                    self.instances_per_s.push(instances / campaign_s);
                    self.trials_per_s.push(trials / campaign_s);
                    self.attempted += instances as u64;
                }
                "inst" => self
                    .instance_ms
                    .extend(words.filter_map(|w| w.parse::<f64>().ok())),
                "hash" => self.hashes.extend(words.next().map(str::to_string)),
                "mismatch" => self.mismatches += f() as u64,
                "rss" => self.rss_mb.push(f()),
                "layer" => {
                    let name = words.next().unwrap_or("").to_string();
                    let value = words.next().and_then(|w| w.parse().ok()).unwrap_or(0.0);
                    self.layers.insert(name, value);
                }
                "fail" => {
                    self.failures += 1;
                    eprintln!("FAILED: {}", line.trim_start_matches("fail "));
                }
                _ => println!("{line}"),
            }
        }
    }

    /// Repetitions, across all rounds, whose report minus `"caches"` is
    /// not byte-identical to the first one's.
    fn drift(&self) -> u64 {
        self.hashes.iter().filter(|h| **h != self.hashes[0]).count() as u64
    }
}

/// Spawns one round child and waits for it.
fn spawn_round(
    w: &Workload,
    seed: u64,
    reps: usize,
    trace_seconds: Option<f64>,
    into: &mut Pooled,
) {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--round", "--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--reps", &reps.to_string()]);
    if let Some(s) = trace_seconds {
        cmd.args(["--trace-seconds", &s.to_string()]);
    }
    match cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output() {
        Ok(out) => {
            into.absorb(&String::from_utf8_lossy(&out.stdout));
            if !out.status.success() {
                // A panic anywhere in the pipeline lands here.
                into.failures += 1;
                eprintln!("FAILED: a round of {} exited with {}", w.name, out.status);
            }
        }
        Err(e) => {
            into.failures += 1;
            eprintln!("FAILED: cannot start a round of {}: {e}", w.name);
        }
    }
}

/// Measures one workload: untraced rounds for `seconds`, or one traced
/// round. `quick` is one repetition in one round.
fn measure(w: &Workload, seed: u64, seconds: f64, trace: bool, quick: bool) -> Outcome {
    let mut pooled = Pooled::default();
    let start = Instant::now();
    if trace {
        spawn_round(w, seed, w.reps, Some(seconds), &mut pooled);
    } else if quick {
        spawn_round(w, seed, 1, None, &mut pooled);
    } else {
        while pooled.rounds == 0 || start.elapsed().as_secs_f64() < seconds {
            spawn_round(w, seed, w.reps, None, &mut pooled);
        }
    }
    if pooled.campaign_s.is_empty() {
        pooled.failures += 1;
        eprintln!("FAILED: {} completed no repetition", w.name);
    }
    let drift = pooled.drift();
    let failed = pooled.mismatches + drift + pooled.failures;
    let metrics: Vec<(&'static str, f64, &'static str)> = if trace {
        for (name, value) in [
            ("check.verdict_mismatches", pooled.mismatches),
            ("check.report_drift", drift),
            ("check.instances_attempted", pooled.attempted),
            ("check.repetitions", pooled.campaign_s.len() as u64),
            ("check.rounds", pooled.rounds),
        ] {
            pooled.layers.insert(name.to_string(), value as f64);
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = pooled.layers.get(name).copied().unwrap_or_else(|| {
                    eprintln!("FAILED: {} reported no {name}", w.name);
                    f64::NAN
                });
                (name, value, unit)
            })
            .collect()
    } else {
        let values = [
            median(&pooled.setup_s),
            median(&pooled.campaign_s),
            median(&pooled.instances_per_s),
            median(&pooled.trials_per_s),
            percentile(&pooled.instance_ms, 0.50),
            percentile(&pooled.instance_ms, 0.99),
            median(&pooled.rss_mb),
        ];
        println!(
            "# {}: {} rounds, {} repetitions, {} instance latencies, {} set-ups",
            w.name,
            pooled.rounds,
            pooled.campaign_s.len(),
            pooled.instance_ms.len(),
            pooled.setup_s.len()
        );
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), value)| (name, value, unit))
            .collect()
    };
    let missing = metrics.iter().filter(|m| !m.1.is_finite()).count() as u64;
    Outcome {
        attempted: pooled.attempted,
        failed: failed + missing,
        metrics,
    }
}

fn print_metrics(w: &Workload, outcome: &Outcome) {
    for (name, value, unit) in &outcome.metrics {
        println!("{:<18} {:<32} {:>16.6} {}", w.name, name, value, unit);
    }
    println!(
        "{:<18} {:<32} {:>9}/{} instance verifications failed",
        w.name, "failed", outcome.failed, outcome.attempted
    );
}

/// Every workload, untraced then (unless `quick`) traced.
fn measure_all(seed: u64, seconds: f64, quick: bool) -> Vec<(&'static Workload, Vec<Outcome>)> {
    WORKLOADS
        .iter()
        .map(|w| {
            let mut outcomes = vec![measure(w, seed, seconds, false, quick)];
            if !quick {
                outcomes.push(measure(w, seed, seconds, true, false));
            }
            for o in &outcomes {
                print_metrics(w, o);
            }
            (w, outcomes)
        })
        .collect()
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Writes the latest numbers with machine and revision provenance to
/// `out/results.json` (BENCHMARK.json's shape is fixed by the driver's
/// contract and cannot carry them).
fn write_results(seed: u64, sets: &[(&'static Workload, Vec<Outcome>)]) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = format!(
        "{{\"git_rev\": {}, \"rustc\": {}, \"cpu\": {}, \"nproc\": {}, \"seed\": {}, \"workloads\": {{",
        quote(&first_line("git", &["rev-parse", "HEAD"])),
        quote(&first_line("rustc", &["-V"])),
        quote(&cpu),
        nproc,
        seed
    );
    for (i, (w, outcomes)) in sets.iter().enumerate() {
        let runs: Vec<String> = outcomes.iter().map(Outcome::to_json).collect();
        out.push_str(&format!(
            "{}\n{}: [{}]",
            if i > 0 { "," } else { "" },
            quote(w.name),
            runs.join(", ")
        ));
    }
    out.push_str("\n}}\n");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join("results.json"), out))
    {
        Ok(()) => println!(
            "# results written to {}",
            dir.join("results.json").display()
        ),
        Err(e) => eprintln!("cannot write results: {e}"),
    }
}

/// Two back-to-back sets at one revision must agree: every end-to-end
/// metric within its own bound, every exact count identically.
fn selfcheck(seed: u64, seconds: f64) -> bool {
    let a = measure_all(seed, seconds, false);
    let b = measure_all(seed, seconds, false);
    let mut ok = true;
    println!("# selfcheck: workload metric first second verdict");
    for ((w, first), (_, second)) in a.iter().zip(&b) {
        for (x, y) in first.iter().zip(second) {
            ok &= x.failed == 0 && y.failed == 0;
            for (name, value, unit) in &x.metrics {
                let other = y.get(name).unwrap_or(f64::NAN);
                let bound = END_TO_END.iter().find(|m| m.0 == *name).map(|m| m.2);
                let exact = (matches!(*unit, "count" | "bytes") && !name.starts_with("trace."))
                    || *name == "cutout.node_ratio";
                let verdict = match bound {
                    Some(bound) if (value - other).abs() <= bound * value.abs() => "within bound",
                    Some(_) => "OUT OF BOUND",
                    None if !exact => "-",
                    None if *value == other => "identical",
                    None => "DIFFERS",
                };
                ok &= !verdict.chars().next().is_some_and(char::is_uppercase);
                println!(
                    "{:<18} {:<32} {:>16.6} {:>16.6} {}",
                    w.name, name, value, other, verdict
                );
            }
        }
    }
    println!("# selfcheck {}", if ok { "passed" } else { "FAILED" });
    ok
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    round: bool,
    reps: usize,
    trace_seconds: Option<f64>,
    quick: bool,
    selfcheck: bool,
    emit_verdicts: bool,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 0xBEEF,
        seconds: 12.0,
        trace: false,
        round: false,
        reps: 1,
        trace_seconds: None,
        quick: false,
        selfcheck: false,
        emit_verdicts: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value '{v}' for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                a.seed = parse_u64(&v).ok_or_else(|| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v.parse().map_err(|_| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--reps" => {
                let v = value()?;
                a.reps = v.parse().map_err(|_| bad(&v))?;
            }
            "--trace-seconds" => {
                let v = value()?;
                a.trace_seconds = Some(v.parse().map_err(|_| bad(&v))?);
            }
            "--round" => a.round = true,
            "--quick" => a.quick = true,
            "--selfcheck" => a.selfcheck = true,
            "--emit-verdicts" => a.emit_verdicts = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("campaign_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let workload = match args.workload.as_deref().map(spec::workload) {
        Some(None) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!("campaign_e2e: unknown workload; choose one of {names:?}");
            return ExitCode::from(2);
        }
        Some(Some(w)) => Some(w),
        None => None,
    };

    if args.emit_verdicts {
        round::emit_verdicts(workload.unwrap_or(&WORKLOADS[0]), args.seed);
        return ExitCode::SUCCESS;
    }
    if args.round {
        let w = workload.expect("--round names its workload");
        match args.trace_seconds {
            Some(seconds) => round::run_traced(w, args.seed, seconds),
            None => round::run_round(w, args.seed, args.reps),
        }
        return ExitCode::SUCCESS;
    }
    if args.selfcheck {
        return if selfcheck(args.seed, args.seconds) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    match workload {
        Some(w) => {
            let outcome = measure(w, args.seed, args.seconds, args.trace, args.quick);
            print_metrics(w, &outcome);
            println!("{}", outcome.to_json());
        }
        None => {
            let sets = measure_all(args.seed, args.seconds, args.quick);
            let failed: u64 = sets.iter().flat_map(|(_, o)| o).map(|o| o.failed).sum();
            write_results(args.seed, &sets);
            if failed > 0 {
                eprintln!("campaign_e2e: {failed} failures");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
