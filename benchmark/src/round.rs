//! One measuring process ("round"): set-up, the workload's fixed number of
//! timed repetitions, the correctness checks, and — when asked — the
//! traced replay. Results go to stdout as `keyword value…` lines that the
//! driver process aggregates.
//!
//! End-to-end numbers come from the service API only: `Campaign` →
//! `Session::run` with an `EventSink` that timestamps events →
//! `CampaignReport`.

use crate::replay::{ablate, replay, variants};
use crate::spec::{Shape, Workload};
use crate::trace::Tracer;
use crate::util::{fnv1a, median, peak_rss_mb, sans_caches, timed};
use crate::verdicts::{self, Observed};
use fuzzyflow::interp::fresh_arena_count;
use fuzzyflow::pool::WorkerPool;
use fuzzyflow::session::{CacheTally, CampaignReport, Event, EventSink, NullSink, Session};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// Stamps `InstanceStarted` → `InstanceFinished` per instance.
#[derive(Default)]
struct Stamps {
    /// `(start per work-list index, finished durations in ms)`.
    state: Mutex<(Vec<Option<Instant>>, Vec<f64>)>,
}

impl EventSink for Stamps {
    fn on_event(&self, event: &Event) {
        let now = Instant::now();
        let mut g = self.state.lock().expect("stamp buffer poisoned");
        match event {
            Event::InstanceStarted { index, .. } => {
                if g.0.len() <= *index {
                    g.0.resize(*index + 1, None);
                }
                g.0[*index] = Some(now);
            }
            Event::InstanceFinished { index, .. } => {
                if let Some(start) = g.0.get(*index).copied().flatten() {
                    g.1.push((now - start).as_secs_f64() * 1e3);
                }
            }
            _ => {}
        }
    }
}

/// One timed repetition: `Session::run` + `CampaignReport::to_json`.
struct Rep {
    run_s: f64,
    json_s: f64,
    report: CampaignReport,
    json: String,
}

fn repetition(session: &Session, sink: &dyn EventSink) -> Rep {
    let (run_s, report) = timed(|| session.run(sink));
    let (json_s, json) = timed(|| report.to_json());
    Rep {
        run_s,
        json_s,
        report,
        json,
    }
}

/// Builds the programs and enumerates the campaign's instances; returns
/// the session with the two set-up stage times.
fn open_session(w: &Workload, seed: u64) -> (Session, f64, f64) {
    let (build_s, programs) = timed(|| w.programs());
    let (session_s, session) = timed(|| w.campaign(programs, seed).session());
    (session, build_s, session_s)
}

fn observed(report: &CampaignReport) -> Vec<Observed<'_>> {
    report
        .instances
        .iter()
        .map(|i| Observed {
            program: &i.workload,
            pass: &i.transformation,
            match_description: &i.match_description,
            label: &i.label,
            is_fault: i.is_fault(),
        })
        .collect()
}

/// Checks one report against the expected-verdict table and emits the
/// repetition's result lines.
fn emit_rep(w: &Workload, rep: &Rep) {
    let trials: usize = rep.report.instances.iter().map(|i| i.trials_run).sum();
    println!(
        "rep {} {} {} {}",
        rep.run_s,
        rep.json_s,
        rep.report.instances.len(),
        trials
    );
    println!("hash {}", fnv1a(&sans_caches(&rep.json)));
    println!(
        "mismatch {}",
        verdicts::mismatches(w, &observed(&rep.report))
    );
}

/// Sums of the per-run cache tallies over a round's timed repetitions.
fn add_caches(sum: &mut CacheTally, c: &CacheTally) {
    sum.program_hits += c.program_hits;
    sum.program_misses += c.program_misses;
    sum.program_evictions += c.program_evictions;
    sum.program_compiles += c.program_compiles;
    sum.code_hits += c.code_hits;
    sum.code_misses += c.code_misses;
    sum.code_evictions += c.code_evictions;
    sum.code_compiles += c.code_compiles;
    sum.code_bytes += c.code_bytes;
    sum.jit_scalar_runs += c.jit_scalar_runs;
    sum.jit_packed_runs += c.jit_packed_runs;
}

/// The samples and cache counts of a round's sessions and repetitions.
#[derive(Default)]
struct Samples {
    caches: CacheTally,
    build_s: Vec<f64>,
    session_s: Vec<f64>,
    run_s: Vec<f64>,
    json_s: Vec<f64>,
}

impl Samples {
    /// Opens a fresh session, recording its set-up stage times.
    fn open(&mut self, w: &Workload, seed: u64) -> Session {
        let (session, build_s, session_s) = open_session(w, seed);
        self.build_s.push(build_s);
        self.session_s.push(session_s);
        session
    }

    /// Runs, checks and records one timed repetition.
    fn repeat(&mut self, w: &Workload, session: &Session, sink: &dyn EventSink) -> Rep {
        let rep = repetition(session, sink);
        emit_rep(w, &rep);
        add_caches(&mut self.caches, &rep.report.caches);
        self.run_s.push(rep.run_s);
        self.json_s.push(rep.json_s);
        rep
    }
}

/// What a round leaves behind for the traced part.
struct RoundState {
    session: Session,
    last: Rep,
    samples: Samples,
    prepares: usize,
    fresh_arenas: u64,
    /// First (cold) run of the last session, and warm re-runs of it.
    cold_run_s: f64,
    warm_run_s: Vec<f64>,
}

fn timed_round(w: &Workload, seed: u64, reps: usize) -> RoundState {
    let stamps = Stamps::default();
    let mut samples = Samples::default();
    let state;
    if w.shape == Shape::Warm {
        let start = Instant::now();
        let session = samples.open(w, seed);
        let warm_up = repetition(&session, &NullSink);
        println!("setup {}", start.elapsed().as_secs_f64());
        println!("hash {}", fnv1a(&sans_caches(&warm_up.json)));
        let prepares0 = session.prepared_instances();
        let arenas0 = fresh_arena_count();
        let mut last = None;
        for _ in 0..reps {
            last = Some(samples.repeat(w, &session, &stamps));
        }
        let prepares = session.prepared_instances() - prepares0;
        let fresh_arenas = fresh_arena_count() - arenas0;
        // A "warm" number that silently re-prepares, recompiles, re-emits
        // native code or constructs arenas measures something else.
        for (what, n) in [
            ("pipeline preparations", prepares as u64),
            ("program compiles", samples.caches.program_compiles),
            ("native code bytes", samples.caches.code_bytes),
            ("fresh executor arenas", fresh_arenas),
        ] {
            if n != 0 {
                println!("fail warm re-runs performed {n} {what}");
            }
        }
        state = RoundState {
            session,
            last: last.expect("at least one repetition"),
            prepares,
            fresh_arenas,
            cold_run_s: warm_up.run_s,
            warm_run_s: samples.run_s.clone(),
            samples,
        };
    } else {
        let (mut prepares, arenas0) = (0, fresh_arena_count());
        let mut last = None;
        for _ in 0..reps {
            let start = Instant::now();
            let session = samples.open(w, seed);
            println!("setup {}", start.elapsed().as_secs_f64());
            let rep = samples.repeat(w, &session, &stamps);
            prepares += session.prepared_instances();
            last = Some((session, rep));
        }
        let (session, last) = last.expect("at least one repetition");
        state = RoundState {
            cold_run_s: last.run_s,
            session,
            last,
            samples,
            prepares,
            fresh_arenas: fresh_arena_count() - arenas0,
            warm_run_s: Vec::new(),
        };
    }
    let durations = std::mem::take(&mut stamps.state.lock().expect("stamp buffer poisoned").1);
    let line: Vec<String> = durations.iter().map(|d| d.to_string()).collect();
    println!("inst {}", line.join(" "));
    state
}

/// Runs one untraced round and reports it.
pub fn run_round(w: &Workload, seed: u64, reps: usize) {
    timed_round(w, seed, reps);
    println!("rss {}", peak_rss_mb());
}

fn layer(name: &str, value: f64) {
    println!("layer {name} {value}");
}

/// Where traces go: `out/` beside this package's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs one round for the counters, then replays the workload's instances
/// through the public stage functions — untraced and traced in turn, for
/// about `seconds` — and reports every per-layer metric.
pub fn run_traced(w: &Workload, seed: u64, seconds: f64) {
    let mut st = timed_round(w, seed, w.reps);

    // core: the session layer's own costs.
    if st.warm_run_s.is_empty() {
        for _ in 0..3 {
            st.warm_run_s.push(timed(|| st.session.run(&NullSink)).0);
        }
    }
    layer("core.session_build_us", median(&st.samples.session_s) * 1e6);
    layer("core.report_to_json_us", median(&st.samples.json_s) * 1e6);
    layer("core.report_bytes", st.last.json.len() as f64);
    layer("core.prepares", st.prepares as f64);
    layer(
        "core.cold_minus_warm_us",
        (st.cold_run_s - median(&st.warm_run_s)) * 1e6,
    );
    layer("workloads.build_us", median(&st.samples.build_s) * 1e6);

    // interp: counts from the reports' "caches" and "fusion" objects and
    // the public counters, over the round's timed repetitions.
    let c = &st.samples.caches;
    let probes = c.program_hits + c.program_misses;
    layer("interp.program_compiles", c.program_compiles as f64);
    layer(
        "interp.program_cache_hit_ratio",
        c.program_hits as f64 / probes.max(1) as f64,
    );
    layer("interp.program_evictions", c.program_evictions as f64);
    layer("interp.code_compiles", c.code_compiles as f64);
    layer("interp.code_bytes", c.code_bytes as f64);
    layer("interp.code_evictions", c.code_evictions as f64);
    layer("interp.native_runs_scalar", c.jit_scalar_runs as f64);
    layer("interp.native_runs_packed", c.jit_packed_runs as f64);
    let f = &st.last.report.fusion;
    let rejected: usize = f.rejects.values().sum();
    layer("interp.maps_total", (f.fused_maps + rejected) as f64);
    layer("interp.maps_fused", f.fused_maps as f64);
    layer("interp.maps_jit", f.jit_maps as f64);
    layer("interp.fresh_arenas", st.fresh_arenas as f64);

    // The replays. Stage times are medians over the traced replays.
    let session_s = median(&st.samples.run_s) + median(&st.samples.json_s);
    let report_json = st.last.json.clone();
    drop(st);
    let programs = w.programs();
    let mut stage_us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut untraced_s, mut traced_s, mut last_pass_s) = (vec![], vec![], vec![]);
    let mut shares = vec![];
    let mut kept = None;
    let budget = Instant::now();
    while kept.is_none() || budget.elapsed().as_secs_f64() < seconds * 0.5 {
        untraced_s.push(replay(w, &programs, seed, &mut Tracer::new(false)).wall_s);
        let mut tr = Tracer::new(true);
        let r = replay(w, &programs, seed, &mut tr);
        let table = tr.stage_table();
        let glue_ns: u64 = ["replay", "instance.prepare", "instance.trials"]
            .iter()
            .filter_map(|g| table.get(g))
            .map(|row| row.0)
            .sum();
        shares.push(1.0 - glue_ns as f64 / tr.root_ns() as f64);
        for (name, (self_ns, _)) in &table {
            stage_us
                .entry(name)
                .or_default()
                .push(*self_ns as f64 / 1e3);
        }
        traced_s.push(r.wall_s);
        last_pass_s.push(r.last_pass_s);
        kept = Some((tr, r));
    }
    let (tr, r) = kept.expect("at least one replay");

    println!(
        "| stage table of {} (last of {} traced replays, {} spans)",
        w.name,
        traced_s.len(),
        tr.spans.len()
    );
    println!(
        "| {:<26} {:>12} {:>8} {:>9}",
        "stage", "self_us", "share", "calls"
    );
    let root_ns = tr.root_ns() as f64;
    let mut rows: Vec<_> = tr.stage_table().into_iter().collect();
    rows.sort_by_key(|(_, (self_ns, _))| std::cmp::Reverse(*self_ns));
    for (name, (self_ns, calls)) in rows {
        println!(
            "| {:<26} {:>12.1} {:>7.1}% {:>9}",
            name,
            self_ns as f64 / 1e3,
            100.0 * self_ns as f64 / root_ns,
            calls
        );
    }
    let dir = out_dir();
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            dir.join(format!("trace-{}.json", w.name)),
            tr.to_json(w.name),
        )
    });
    if let Err(e) = written {
        println!("fail cannot write the trace: {e}");
    }

    let stage = |name: &str| stage_us.get(name).map_or(0.0, |v| median(v));
    for name in [
        "transforms.find_matches",
        "transforms.apply",
        "transforms.replay",
        "cutout.extract",
        "cutout.mincut",
        "cutout.refind",
        "ir.validate",
        "ir.sdfg_clone",
        "ir.node_count",
        "fuzz.constraints",
        "fuzz.sample",
        "fuzz.capture",
        "interp.compile",
        "interp.executor_new",
        "interp.exec_first",
        "interp.exec_orig",
        "interp.exec_trans",
        "interp.compare",
        "interp.state_drop",
        "evo.evolve",
        "evo.triage",
    ] {
        layer(&format!("{name}_us"), stage(name));
    }
    let n = &r.counts;
    layer("transforms.instances", n.instances as f64);
    layer("cutout.node_ratio", n.node_ratio());
    layer("cutout.input_reduction", n.input_reduction());
    layer("fuzz.sample_elems", n.sample_elems as f64);
    layer(
        "fuzz.sample_accept_ratio",
        n.samples_accepted as f64 / n.samples_drawn.max(1) as f64,
    );
    layer("evo.trials", n.evo_trials as f64);
    layer("evo.corpus_size", n.evo_corpus as f64);
    layer("evo.edges_seen", n.evo_edges as f64);
    layer("evo.faults_found", n.evo_faults as f64);
    layer("evo.buckets", n.evo_buckets as f64);
    layer("evo.novelty_events", n.evo_novelty as f64);
    layer("replay.trials", n.trials as f64);
    layer("replay.faults", n.faults as f64);
    layer("replay.pipeline_errors", n.pipeline_errors as f64);

    // A warm re-run repeats only the last trial pass; cold and service
    // runs pay the whole pipeline.
    let replay_s = if w.shape == Shape::Warm {
        median(&last_pass_s)
    } else {
        median(&untraced_s)
    };
    layer("trace.attributed_share", median(&shares));
    layer("trace.replay_vs_session", replay_s / session_s);
    layer(
        "trace.overhead_ratio",
        median(&traced_s) / median(&untraced_s),
    );
    layer("trace.replays", traced_s.len() as f64);

    // Tier ablation at replay level.
    for v in variants() {
        layer(
            &format!("interp.exec_us.{}", v.name),
            ablate(w, &r.prepared, seed, &v),
        );
    }

    // pool: the fixed cost of handing one item to a width-1 loop.
    const ITEMS: usize = 200_000;
    let (dispatch_s, ()) = timed(|| {
        WorkerPool::global().parallel_for(
            ITEMS,
            1,
            || (),
            |(), i| {
                black_box(i);
            },
            |()| (),
        )
    });
    layer("pool.dispatch_us_per_item", dispatch_s * 1e6 / ITEMS as f64);

    // Last, because the parser is slow on fault-heavy reports.
    let (from_json_s, parsed) = timed(|| CampaignReport::from_json(&report_json));
    if parsed.is_err() {
        println!("fail the report does not parse back");
    }
    layer("core.report_from_json_us", from_json_s * 1e6);
    println!("rss {}", peak_rss_mb());
}

/// Prints the verdict table of `w`'s campaign at `seed` — how
/// `expected/verdicts.json` was generated (from `table2_cold`, the full
/// campaign) before its review by hand.
pub fn emit_verdicts(w: &Workload, seed: u64) {
    let report = w.campaign(w.programs(), seed).session().run(&NullSink);
    print!("{}", verdicts::render(&observed(&report)));
}
