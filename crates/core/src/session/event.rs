//! Structured session events and observer sinks.
//!
//! A [`Session`](crate::session::Session) streams progress as it runs:
//! every instance start/finish, trial-batch progress, fault discovery
//! and pipeline error is delivered to the caller's [`EventSink`] *while
//! the campaign executes* — the service-shaped alternative to blocking
//! on a batch call and inspecting the result afterwards.
//!
//! Events are delivered from worker threads. Their *interleaving* is
//! scheduling-dependent (two instances running concurrently interleave
//! their events); the determinism contract lives one level up — the
//! [`CampaignReport`](crate::session::CampaignReport) and every
//! per-instance result are byte-identical for every thread count and
//! every interleaving. Sinks must therefore be `Sync`, cheap, and must
//! never block for long (they run inside the verification hot path).

use super::StopReason;
use crate::verify::VerifyError;
use std::sync::Mutex;

/// One structured progress event of a running session.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum Event {
    /// The session started; `instances` is the enumerated work-list size.
    SessionStarted { instances: usize },
    /// Instance `index` was claimed and its pipeline is starting.
    InstanceStarted {
        index: usize,
        workload: String,
        transformation: String,
        match_description: String,
    },
    /// A trial batch crossed a progress boundary (roughly quarters).
    /// `trials_done` counts completed trials of instance `index`;
    /// deliveries from concurrent trial workers may arrive out of order
    /// (a sink can see 30 before 20 — fold with `max` when rendering
    /// progress).
    TrialProgress {
        index: usize,
        trials_done: usize,
        trials_total: usize,
    },
    /// Differential testing proved instance `index` faulty.
    FaultFound {
        index: usize,
        /// Verdict class label ("semantic change", "crash", …).
        label: String,
        /// 1-based trial that exposed the fault, when applicable.
        trial: Option<usize>,
        /// Human-readable detail (mismatch description, crash error, …).
        detail: String,
    },
    /// The pipeline failed before a verdict could be produced.
    PipelineError { index: usize, error: VerifyError },
    /// Evolution mode: an execution of instance `index` discovered
    /// coverage the instance's campaign had never seen.
    Novelty {
        index: usize,
        /// 1-based evolution trial that found the new coverage.
        trial: usize,
        /// Distinct coverage-map entries discovered so far.
        edges_seen: usize,
    },
    /// Evolution mode: a novel, passing input joined instance `index`'s
    /// corpus.
    CorpusGrowth {
        index: usize,
        /// 1-based evolution trial that produced the input.
        trial: usize,
        /// Corpus size after admission.
        corpus_size: usize,
    },
    /// Evolution mode: a deduplicated fault class of instance `index`,
    /// emitted after bisection triage.
    FaultBucket {
        index: usize,
        /// Bisected culprit (`"<op kind> <target>"`, or `"seed"`).
        culprit: String,
        /// Structured error-class tag ("out-of-bounds", …).
        kind: String,
        /// Faulting container or diverging symbol (may be empty).
        container: String,
        /// Faults collapsed into this bucket.
        duplicates: usize,
    },
    /// Instance `index` finished (with a verdict or a pipeline error).
    InstanceFinished {
        index: usize,
        /// Table-2 style label ("ok", "semantic change", "pipeline error", …).
        label: String,
        is_fault: bool,
        trials_run: usize,
        /// True when the instance's compiled artifacts came from the
        /// session cache (steps 1–4 were skipped).
        cached: bool,
    },
    /// The session stopped; `completed` instances form the deterministic
    /// prefix of the work list.
    SessionFinished {
        completed: usize,
        total: usize,
        stop: StopReason,
    },
}

/// Observer of session [`Event`]s. Implemented by `Fn(&Event)` closures,
/// so `session.run(&|e: &Event| println!("{e:?}"))` works directly.
pub trait EventSink: Sync {
    fn on_event(&self, event: &Event);
}

impl<F: Fn(&Event) + Sync> EventSink for F {
    fn on_event(&self, event: &Event) {
        self(event)
    }
}

/// A sink that drops every event, for runs that only want the report.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn on_event(&self, _event: &Event) {}
}

/// A sink that buffers every event for later inspection (tests, demos).
#[derive(Debug, Default)]
pub struct CollectingSink {
    events: Mutex<Vec<Event>>,
}

impl CollectingSink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events received so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("event buffer poisoned").len()
    }

    /// True when no events were received.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains and returns the buffered events.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("event buffer poisoned"))
    }
}

impl EventSink for CollectingSink {
    fn on_event(&self, event: &Event) {
        self.events
            .lock()
            .expect("event buffer poisoned")
            .push(event.clone());
    }
}
