//! Machine-readable campaign reports.
//!
//! A [`CampaignReport`] is the durable artifact of a session run: one
//! record per completed instance with its verdict class, structured
//! pipeline error (if any) and — for faults — the bit-exact
//! [`TestCase`] that exposed the bug, ready for replay. Serialization is
//! hand-rolled JSON (like the `BENCH_*` writers; no serde), and
//! [`CampaignReport::from_json`] parses it back losslessly, so reports
//! can be shipped off a verification service, deduplicated by
//! `(transformation, label, error kind)` and replayed elsewhere.
//!
//! The encoding is canonical: `parse(to_json()).to_json()` is
//! byte-identical to `to_json()`, and every test-case value is stored as
//! raw bit patterns (see [`TestCase::to_json`]), so a replayed fault
//! reproduces the identical verdict.

use super::StopReason;
use crate::verify::VerifyConfig;
use fuzzyflow_fuzz::json::{quote, Json};
use fuzzyflow_fuzz::{TestCase, Verdict};
use std::fmt;

/// A structured pipeline error: which stage failed, and why.
#[derive(Clone, Debug, PartialEq)]
pub struct ErrorRecord {
    /// Pipeline stage: "apply", "extract" or "replay" — or "panic" for an
    /// instance that panicked while preparing or running.
    pub kind: String,
    /// Stage-specific message.
    pub message: String,
}

/// A proven fault, with its replayable failing input when one exists.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultRecord {
    /// Verdict class label ("semantic change", "crash", "hang",
    /// "invalid code").
    pub label: String,
    /// 1-based trial that exposed the fault (absent for validation
    /// failures).
    pub trial: Option<usize>,
    /// Mismatch description / crash error / validation errors.
    pub detail: String,
    /// The bit-exact failing input configuration, when the fault was
    /// exposed by execution.
    pub case: Option<TestCase>,
}

impl FaultRecord {
    /// The single verdict-to-fault projection of the session layer:
    /// both [`InstanceReport`]s and `Event::FaultFound` derive their
    /// label/trial/detail from here, so the streamed event and the
    /// serialized record can never diverge for the same fault.
    pub(crate) fn from_verdict(verdict: Verdict) -> Option<FaultRecord> {
        let label = verdict.label().to_string();
        let (trial, detail, case) = match verdict {
            Verdict::SemanticChange {
                trial,
                mismatch: detail,
                case,
            }
            | Verdict::Crash {
                trial,
                error: detail,
                case,
            }
            | Verdict::Hang {
                trial,
                error: detail,
                case,
            } => (Some(trial), detail, Some(case)),
            Verdict::InvalidCode { errors } => (None, errors.join("; "), None),
            Verdict::Equivalent { .. } | Verdict::Inconclusive { .. } => return None,
        };
        Some(FaultRecord {
            label,
            trial,
            detail,
            case,
        })
    }
}

/// One completed instance of a campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct InstanceReport {
    /// Position in the campaign's enumerated work list (the
    /// deterministic-prefix index).
    pub index: usize,
    pub workload: String,
    pub transformation: String,
    pub match_description: String,
    /// Table-2 style classification ("ok", "semantic change", "crash",
    /// "hang", "invalid code", "inconclusive", "pipeline error").
    pub label: String,
    pub trials_run: usize,
    pub trials_to_detection: Option<usize>,
    pub cutout_nodes: usize,
    pub program_nodes: usize,
    /// Input-space reduction of the min input-flow cut, when it ran.
    pub mincut_reduction: Option<f64>,
    pub system_state: Vec<String>,
    pub input_config: Vec<String>,
    pub error: Option<ErrorRecord>,
    pub fault: Option<FaultRecord>,
}

impl InstanceReport {
    /// True when the instance was proven faulty.
    pub fn is_fault(&self) -> bool {
        self.fault.is_some()
    }
}

/// The configuration a campaign ran under — embedded in every report so
/// recorded verdicts are interpretable and replayable.
#[derive(Clone, Debug, PartialEq)]
pub struct ReportConfig {
    pub trials: usize,
    pub tolerance: f64,
    pub seed: u64,
    pub size_max: i64,
    pub minimize: bool,
    pub trial_threads: usize,
    pub threads: usize,
}

impl ReportConfig {
    pub(crate) fn from_verify(v: &VerifyConfig, threads: usize) -> ReportConfig {
        ReportConfig {
            trials: v.trials,
            tolerance: v.tolerance,
            seed: v.seed,
            size_max: v.size_max,
            minimize: v.minimize,
            trial_threads: v.trial_threads,
            threads,
        }
    }
}

/// Fusion-eligibility aggregate over the completed prefix's compiled
/// cutout programs: how many map scopes execute on the fused-kernel
/// tier, and — per stable rejection message — why the rest fall back.
/// Tells a user at a glance whether their campaign's hot loops are on
/// the fast tier, and what change would get them there.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FusionTally {
    /// Map scopes compiled to fused kernels.
    pub fused_maps: usize,
    /// Rejection-message → count of map scopes on the per-element path.
    pub rejects: std::collections::BTreeMap<String, usize>,
    /// Map scopes statically eligible for the native JIT tier.
    pub jit_maps: usize,
    /// JIT-rejection-message → count of map scopes confined to bytecode.
    pub jit_rejects: std::collections::BTreeMap<String, usize>,
}

impl FusionTally {
    /// Folds one compiled program's per-map fusion info into the tally.
    pub(crate) fn absorb(&mut self, maps: &[fuzzyflow_interp::MapFusionInfo]) {
        for m in maps {
            match m.reason {
                None => self.fused_maps += 1,
                Some(reason) => *self.rejects.entry(reason.to_string()).or_default() += 1,
            }
            match m.jit_reason {
                None => self.jit_maps += 1,
                Some(reason) => *self.jit_rejects.entry(reason.to_string()).or_default() += 1,
            }
        }
    }
}

/// Process-wide cache activity attributed to one session run: the deltas
/// of the shared program cache and the native-code emission and run
/// counters taken around the run. Deterministic for a given warm/cold
/// state, but — the counters being process-global — attributes a
/// concurrent session's traffic to whichever run observes it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheTally {
    /// Shared program cache: snapshot probes that found a live entry.
    pub program_hits: u64,
    /// Shared program cache: probes that fell through to the slow path.
    pub program_misses: u64,
    /// Shared program cache: entries dropped by LRU bounding.
    pub program_evictions: u64,
    /// Shared program cache: programs actually compiled.
    pub program_compiles: u64,
    /// Native code: runs that reused their kernel's emitted code (native
    /// runs minus emissions).
    pub code_hits: u64,
    /// Native code: runs that had to emit first (equals `code_compiles`).
    pub code_misses: u64,
    /// Native code: always 0 — a kernel keeps its code while its program
    /// lives. The field stays for the report layout.
    pub code_evictions: u64,
    /// Native code: kernels lowered and published.
    pub code_compiles: u64,
    /// Native code: instruction bytes emitted (0 on a warm run).
    pub code_bytes: u64,
    /// Native tier: fused-kernel invocations that ran a scalar blob.
    pub jit_scalar_runs: u64,
    /// Native tier: invocations that ran a packed (lane-parallel) blob.
    pub jit_packed_runs: u64,
}

/// One deduplicated fault class of an evolutionary campaign: the
/// serializable form of a triage bucket
/// ([`FaultBucket`](fuzzyflow_evo::FaultBucket)), tagged with the
/// instance it came from. The representative is the bucket's *minimal*
/// failing input (the bisected prefix), bit-exact and replayable.
#[derive(Clone, Debug, PartialEq)]
pub struct BucketRecord {
    /// Work-list index of the instance that produced the bucket.
    pub instance: usize,
    /// Bisected culprit (`"<op kind> <target>"`, or `"seed"`).
    pub culprit: String,
    /// Structured error-class tag ("out-of-bounds", "semantic-change", …).
    pub kind: String,
    /// Faulting container or diverging symbol (may be empty).
    pub container: String,
    /// Verdict-style label of the fault class ("crash", "hang", …).
    pub label: String,
    /// 1-based trial of the earliest fault in the bucket.
    pub trial: usize,
    /// Faults collapsed into this bucket.
    pub duplicates: usize,
    /// Replayable capture of the bucket's minimal failing input.
    pub representative: TestCase,
}

/// Campaign-wide fault triage: every instance's deduplicated fault
/// classes, folded in instance-index order. Present only on evolution
/// runs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TriageReport {
    /// Faults collected across instances before deduplication.
    pub faults_found: usize,
    /// Deduplicated fault classes with duplicate counts and replayable
    /// representatives.
    pub buckets: Vec<BucketRecord>,
}

impl TriageReport {
    /// Number of deduplicated fault classes.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }
}

/// The serializable outcome of one session run.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignReport {
    /// Campaign name (report provenance).
    pub campaign: String,
    /// Why the run stopped.
    pub status: StopReason,
    /// Size of the enumerated work list.
    pub total_instances: usize,
    /// Fuzzing trials executed across the completed prefix.
    pub trials_spent: u64,
    /// The configuration the campaign ran under.
    pub config: ReportConfig,
    /// Fusion eligibility across the completed prefix's programs.
    pub fusion: FusionTally,
    /// Program/code cache activity observed during this run.
    pub caches: CacheTally,
    /// Deduplicated fault classes (evolution runs only; `None` keeps
    /// one-shot reports byte-identical to earlier versions).
    pub triage: Option<TriageReport>,
    /// The completed prefix, in index order (`instances.len()` is the
    /// prefix length; `instances[i].index == i`).
    pub instances: Vec<InstanceReport>,
}

/// Per-transformation summary row of a report (Table 2 shape).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TableRow {
    pub transformation: String,
    pub instances: usize,
    pub passed: usize,
    pub faults: usize,
    /// Pipeline errors and inconclusive instances.
    pub errors: usize,
    /// Faults by verdict class ("semantic change", "crash", …).
    pub by_class: std::collections::BTreeMap<String, usize>,
    /// Mean 1-based trial index at which faults surfaced.
    pub mean_trials_to_detect: f64,
}

/// Report parse errors.
#[derive(Clone, Debug, PartialEq)]
pub struct ReportParseError(pub String);

impl fmt::Display for ReportParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "campaign report parse error: {}", self.0)
    }
}

impl std::error::Error for ReportParseError {}

/// Writes a finite `f64` in shortest-round-trip form, `null` otherwise.
fn num_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

fn str_list(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| quote(s)).collect();
    format!("[{}]", quoted.join(", "))
}

fn opt_usize(v: Option<usize>) -> String {
    v.map_or_else(|| "null".to_string(), |n| n.to_string())
}

impl CampaignReport {
    /// Completed instances proven faulty, in index order.
    pub fn faults(&self) -> impl Iterator<Item = &InstanceReport> {
        self.instances.iter().filter(|i| i.is_fault())
    }

    /// Count of completed instances proven faulty.
    pub fn fault_count(&self) -> usize {
        self.faults().count()
    }

    /// Number of completed instances (the deterministic-prefix length).
    pub fn completed(&self) -> usize {
        self.instances.len()
    }

    /// Aggregates the completed instances into one row per
    /// transformation, in name order — the paper's Table 2.
    pub fn table_rows(&self) -> Vec<TableRow> {
        // Per row: the row, plus (sum, count) of its faults' detection trials.
        let mut rows: std::collections::BTreeMap<&str, (TableRow, usize, usize)> =
            Default::default();
        for inst in &self.instances {
            let (row, detect_sum, detected) = rows.entry(&inst.transformation).or_default();
            row.instances += 1;
            match inst.label.as_str() {
                "ok" => row.passed += 1,
                "inconclusive" | "pipeline error" => row.errors += 1,
                class => {
                    row.faults += 1;
                    *row.by_class.entry(class.to_string()).or_default() += 1;
                    if let Some(trial) = inst.trials_to_detection {
                        *detect_sum += trial;
                        *detected += 1;
                    }
                }
            }
        }
        rows.into_iter()
            .map(|(name, (mut row, detect_sum, detected))| {
                row.transformation = name.to_string();
                row.mean_trials_to_detect = detect_sum as f64 / detected.max(1) as f64;
                row
            })
            .collect()
    }

    /// Formats [`CampaignReport::table_rows`] as a Table-2 style text
    /// table.
    pub fn format_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<26} {:>9} {:>7} {:>7} {:>7}  {:<30} {:>10}\n",
            "Transformation",
            "instances",
            "pass",
            "fault",
            "error",
            "failure classes",
            "avg trials"
        ));
        out.push_str(&"-".repeat(104));
        out.push('\n');
        for r in self.table_rows() {
            let classes: Vec<String> = r.by_class.iter().map(|(k, v)| format!("{k}×{v}")).collect();
            out.push_str(&format!(
                "{:<26} {:>9} {:>7} {:>7} {:>7}  {:<30} {:>10}\n",
                r.transformation,
                r.instances,
                r.passed,
                r.faults,
                r.errors,
                classes.join(", "),
                if r.faults > 0 {
                    format!("{:.1}", r.mean_trials_to_detect)
                } else {
                    "-".to_string()
                }
            ));
        }
        out
    }

    /// Serializes the report as JSON (canonical: parsing and
    /// re-serializing is byte-identical).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"format\": \"fuzzyflow-campaign-report-v1\",\n");
        out.push_str(&format!("  \"campaign\": {},\n", quote(&self.campaign)));
        out.push_str(&format!("  \"status\": {},\n", quote(self.status.label())));
        out.push_str(&format!(
            "  \"total_instances\": {},\n",
            self.total_instances
        ));
        out.push_str(&format!("  \"completed\": {},\n", self.instances.len()));
        out.push_str(&format!("  \"trials_spent\": {},\n", self.trials_spent));
        let c = &self.config;
        out.push_str(&format!(
            "  \"config\": {{\"trials\": {}, \"tolerance\": {}, \"seed\": {}, \
             \"size_max\": {}, \"minimize\": {}, \"trial_threads\": {}, \"threads\": {}}},\n",
            c.trials,
            num_f64(c.tolerance),
            c.seed,
            c.size_max,
            c.minimize,
            c.trial_threads,
            c.threads
        ));
        let tally = |m: &std::collections::BTreeMap<String, usize>| {
            let parts: Vec<String> = m
                .iter()
                .map(|(reason, n)| format!("{}: {}", quote(reason), n))
                .collect();
            parts.join(", ")
        };
        out.push_str(&format!(
            "  \"fusion\": {{\"fused_maps\": {}, \"rejects\": {{{}}}, \
             \"jit_maps\": {}, \"jit_rejects\": {{{}}}}},\n",
            self.fusion.fused_maps,
            tally(&self.fusion.rejects),
            self.fusion.jit_maps,
            tally(&self.fusion.jit_rejects)
        ));
        let ca = &self.caches;
        out.push_str(&format!(
            "  \"caches\": {{\"program\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \
             \"compiles\": {}}}, \"code\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \
             \"compiles\": {}, \"bytes\": {}}}, \"jit\": {{\"scalar_runs\": {}, \
             \"packed_runs\": {}}}}},\n",
            ca.program_hits,
            ca.program_misses,
            ca.program_evictions,
            ca.program_compiles,
            ca.code_hits,
            ca.code_misses,
            ca.code_evictions,
            ca.code_compiles,
            ca.code_bytes,
            ca.jit_scalar_runs,
            ca.jit_packed_runs
        ));
        if let Some(t) = &self.triage {
            out.push_str(&format!(
                "  \"triage\": {{\"faults_found\": {}, \"buckets\": [",
                t.faults_found
            ));
            for (k, b) in t.buckets.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                out.push_str("\n    ");
                out.push_str(&format!(
                    "{{\"instance\": {}, \"culprit\": {}, \"kind\": {}, \"container\": {}, \
                     \"label\": {}, \"trial\": {}, \"duplicates\": {}, \"representative\": {}}}",
                    b.instance,
                    quote(&b.culprit),
                    quote(&b.kind),
                    quote(&b.container),
                    quote(&b.label),
                    b.trial,
                    b.duplicates,
                    b.representative.to_json()
                ));
            }
            if !t.buckets.is_empty() {
                out.push_str("\n  ");
            }
            out.push_str("]},\n");
        }
        out.push_str("  \"instances\": [");
        for (k, inst) in self.instances.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&Self::instance_json(inst));
        }
        if !self.instances.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    fn instance_json(inst: &InstanceReport) -> String {
        let error = match &inst.error {
            None => "null".to_string(),
            Some(e) => format!(
                "{{\"kind\": {}, \"message\": {}}}",
                quote(&e.kind),
                quote(&e.message)
            ),
        };
        let fault = match &inst.fault {
            None => "null".to_string(),
            Some(f) => format!(
                "{{\"label\": {}, \"trial\": {}, \"detail\": {}, \"case\": {}}}",
                quote(&f.label),
                opt_usize(f.trial),
                quote(&f.detail),
                f.case
                    .as_ref()
                    .map_or_else(|| "null".to_string(), |c| c.to_json())
            ),
        };
        format!(
            "{{\"index\": {}, \"workload\": {}, \"transformation\": {}, \"match\": {}, \
             \"label\": {}, \"trials_run\": {}, \"trials_to_detection\": {}, \
             \"cutout_nodes\": {}, \"program_nodes\": {}, \"mincut_reduction\": {}, \
             \"system_state\": {}, \"input_config\": {}, \"error\": {}, \"fault\": {}}}",
            inst.index,
            quote(&inst.workload),
            quote(&inst.transformation),
            quote(&inst.match_description),
            quote(&inst.label),
            inst.trials_run,
            opt_usize(inst.trials_to_detection),
            inst.cutout_nodes,
            inst.program_nodes,
            inst.mincut_reduction
                .map_or_else(|| "null".to_string(), num_f64),
            str_list(&inst.system_state),
            str_list(&inst.input_config),
            error,
            fault
        )
    }

    /// Parses a report serialized by [`CampaignReport::to_json`].
    pub fn from_json(text: &str) -> Result<CampaignReport, ReportParseError> {
        let v = Json::parse(text).map_err(|e| ReportParseError(e.to_string()))?;
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| ReportParseError(format!("missing field '{k}'")))
        };
        match field("format")?.as_str() {
            Some("fuzzyflow-campaign-report-v1") => {}
            other => {
                return Err(ReportParseError(format!(
                    "unsupported report format {other:?}"
                )))
            }
        }
        let req_str = |v: &Json, k: &str| -> Result<String, ReportParseError> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| ReportParseError(format!("missing string field '{k}'")))
        };
        let req_usize = |v: &Json, k: &str| -> Result<usize, ReportParseError> {
            v.get(k)
                .and_then(Json::as_usize)
                .ok_or_else(|| ReportParseError(format!("missing numeric field '{k}'")))
        };

        let status_label = req_str(&v, "status")?;
        let status = StopReason::from_label(&status_label)
            .ok_or_else(|| ReportParseError(format!("unknown status '{status_label}'")))?;

        let cfg = field("config")?;
        let config = ReportConfig {
            trials: req_usize(cfg, "trials")?,
            tolerance: cfg
                .get("tolerance")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
            seed: cfg
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or_else(|| ReportParseError("missing config.seed".into()))?,
            size_max: cfg
                .get("size_max")
                .and_then(Json::as_i64)
                .ok_or_else(|| ReportParseError("missing config.size_max".into()))?,
            minimize: cfg
                .get("minimize")
                .and_then(Json::as_bool)
                .ok_or_else(|| ReportParseError("missing config.minimize".into()))?,
            trial_threads: req_usize(cfg, "trial_threads")?,
            threads: req_usize(cfg, "threads")?,
        };

        // Lenient: reports written before the fusion/cache tallies
        // existed parse with empty ones.
        let mut fusion = FusionTally::default();
        if let Some(f) = v.get("fusion") {
            let tally = |key: &str| {
                let mut m = std::collections::BTreeMap::new();
                if let Some(Json::Obj(entries)) = f.get(key) {
                    for (reason, n) in entries {
                        if let Some(n) = n.as_usize() {
                            m.insert(reason.clone(), n);
                        }
                    }
                }
                m
            };
            fusion.fused_maps = f.get("fused_maps").and_then(Json::as_usize).unwrap_or(0);
            fusion.rejects = tally("rejects");
            fusion.jit_maps = f.get("jit_maps").and_then(Json::as_usize).unwrap_or(0);
            fusion.jit_rejects = tally("jit_rejects");
        }
        let mut caches = CacheTally::default();
        if let Some(c) = v.get("caches") {
            let counter = |group: &str, key: &str| -> u64 {
                c.get(group)
                    .and_then(|g| g.get(key))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            };
            caches.program_hits = counter("program", "hits");
            caches.program_misses = counter("program", "misses");
            caches.program_evictions = counter("program", "evictions");
            caches.program_compiles = counter("program", "compiles");
            caches.code_hits = counter("code", "hits");
            caches.code_misses = counter("code", "misses");
            caches.code_evictions = counter("code", "evictions");
            caches.code_compiles = counter("code", "compiles");
            caches.code_bytes = counter("code", "bytes");
            caches.jit_scalar_runs = counter("jit", "scalar_runs");
            caches.jit_packed_runs = counter("jit", "packed_runs");
        }

        // Lenient: the triage object only exists on evolution-mode
        // reports (and on none written before it was introduced).
        let triage = match v.get("triage") {
            None | Some(Json::Null) => None,
            Some(t) => {
                let mut buckets = Vec::new();
                for b in t
                    .get("buckets")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| ReportParseError("'triage.buckets' is not a list".into()))?
                {
                    buckets.push(BucketRecord {
                        instance: req_usize(b, "instance")?,
                        culprit: req_str(b, "culprit")?,
                        kind: req_str(b, "kind")?,
                        container: req_str(b, "container")?,
                        label: req_str(b, "label")?,
                        trial: req_usize(b, "trial")?,
                        duplicates: req_usize(b, "duplicates")?,
                        representative: TestCase::from_json_value(
                            b.get("representative").ok_or_else(|| {
                                ReportParseError("bucket missing 'representative'".into())
                            })?,
                        )
                        .map_err(|e| ReportParseError(e.to_string()))?,
                    });
                }
                Some(TriageReport {
                    faults_found: req_usize(t, "faults_found")?,
                    buckets,
                })
            }
        };

        let mut instances = Vec::new();
        for inst in field("instances")?
            .as_arr()
            .ok_or_else(|| ReportParseError("'instances' is not a list".into()))?
        {
            let names = |k: &str| -> Result<Vec<String>, ReportParseError> {
                inst.get(k)
                    .and_then(Json::as_arr)
                    .ok_or_else(|| ReportParseError(format!("missing list field '{k}'")))?
                    .iter()
                    .map(|s| {
                        s.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| ReportParseError(format!("non-string in '{k}'")))
                    })
                    .collect()
            };
            let error = match inst.get("error") {
                None | Some(Json::Null) => None,
                Some(e) => Some(ErrorRecord {
                    kind: req_str(e, "kind")?,
                    message: req_str(e, "message")?,
                }),
            };
            let fault = match inst.get("fault") {
                None | Some(Json::Null) => None,
                Some(f) => Some(FaultRecord {
                    label: req_str(f, "label")?,
                    trial: f.get("trial").and_then(Json::as_usize),
                    detail: req_str(f, "detail")?,
                    case: match f.get("case") {
                        None | Some(Json::Null) => None,
                        Some(c) => Some(
                            TestCase::from_json_value(c)
                                .map_err(|e| ReportParseError(e.to_string()))?,
                        ),
                    },
                }),
            };
            instances.push(InstanceReport {
                index: req_usize(inst, "index")?,
                workload: req_str(inst, "workload")?,
                transformation: req_str(inst, "transformation")?,
                match_description: req_str(inst, "match")?,
                label: req_str(inst, "label")?,
                trials_run: req_usize(inst, "trials_run")?,
                trials_to_detection: inst.get("trials_to_detection").and_then(Json::as_usize),
                cutout_nodes: req_usize(inst, "cutout_nodes")?,
                program_nodes: req_usize(inst, "program_nodes")?,
                mincut_reduction: inst.get("mincut_reduction").and_then(Json::as_f64),
                system_state: names("system_state")?,
                input_config: names("input_config")?,
                error,
                fault,
            });
        }

        Ok(CampaignReport {
            campaign: req_str(&v, "campaign")?,
            status,
            total_instances: req_usize(&v, "total_instances")?,
            trials_spent: field("trials_spent")?
                .as_u64()
                .ok_or_else(|| ReportParseError("bad 'trials_spent'".into()))?,
            config,
            fusion,
            caches,
            triage,
            instances,
        })
    }
}
