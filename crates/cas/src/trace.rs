//! Per-request causal tracing: trace ids, span records, and the
//! flight recorder.
//!
//! Aggregate histograms (PR 9) answer "how is the fleet doing";
//! this module answers "why was *this* request slow" and "where did
//! *this* forwarded write spend its time". A trace is minted at
//! admission (or inherited from the wire via
//! [`sinclave::protocol::TraceContext`]), accumulates bounded,
//! monotonically-ordered [`Span`]s as the request moves through the
//! middleware chain, the issuer stages, the journal, and fleet hops,
//! and is classified at completion by always-on **tail sampling**:
//!
//! * **pinned** — slow (any stage exceeding its cached histogram p99),
//!   errored, or shed requests are always kept;
//! * **sampled** — healthy requests are kept at a configurable
//!   1-in-N rate;
//! * everything else is discarded after counting.
//!
//! Kept traces land in the [`FlightRecorder`]: sharded, bounded,
//! overwrite-oldest ring buffers that never allocate and never block
//! on the hot path (a contended shard drops the trace and counts it).
//! The `trace` status view renders recent traces as span trees.
//!
//! Tracing is **dark by default**: with the tracer disabled,
//! [`Tracer::begin`] returns `None`, no span is recorded, and served
//! bytes are identical to an untraced build — the `ablation/trace`
//! bench gates this.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sinclave::protocol::TraceContext;
use sinclave::replication::WireSpan;

use crate::histogram::StageHistograms;

/// Span capacity of one trace. Spans past the cap are dropped and the
/// trace is flagged truncated — never reallocated.
pub const MAX_SPANS: usize = 24;

/// Numeric-annotation capacity of one trace.
pub const MAX_NOTES: usize = 4;

/// Ring shards in the flight recorder (reduces push contention).
const SHARDS: usize = 8;

/// Pinned-trace slots per shard.
const PIN_SLOTS: usize = 16;

/// Sampled-trace slots per shard.
const SAMPLE_SLOTS: usize = 8;

/// Completed traces between p99-threshold refreshes from the stage
/// histograms.
const THRESHOLD_REFRESH: u64 = 256;

/// Minimum histogram samples before a stage's p99 is trusted as a
/// slowness threshold (avoids pinning everything during warmup).
const THRESHOLD_MIN_COUNT: u64 = 64;

/// Stage names a remote [`WireSpan`] may map onto. Spans are `Copy`
/// and allocation-free because stages are `&'static str`; unknown
/// remote names collapse to `"remote"` rather than allocating.
const KNOWN_STAGES: &[&str] = &[
    "admission",
    "verify",
    "sign",
    "seal",
    "journal_flush",
    "request",
    "rate_limit",
    "quota",
    "breaker_shed",
    "forward",
    "queue",
    "remote",
];

/// Maps a wire stage name to its static spelling (`"remote"` when
/// unknown, so absorbing hostile names never allocates).
#[must_use]
pub fn intern_stage(name: &str) -> &'static str {
    KNOWN_STAGES.iter().find(|s| **s == name).copied().unwrap_or("remote")
}

/// The process-wide monotonic trace clock's epoch.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds on the trace clock. Monotonic within the process; a
/// remote node's readings are rebased before being merged (see
/// [`ActiveTrace::absorb_remote`]).
#[must_use]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// How a span (and transitively its trace) ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanOutcome {
    /// The stage completed normally.
    Ok,
    /// The stage failed (denied reply, forward error, journal error).
    Error,
    /// Admission control refused the request (rate limit, quota,
    /// breaker shed).
    Refused,
}

impl SpanOutcome {
    /// Wire discriminant (see [`WireSpan::outcome`]).
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            SpanOutcome::Ok => 0,
            SpanOutcome::Error => 1,
            SpanOutcome::Refused => 2,
        }
    }

    /// Inverse of [`SpanOutcome::code`]; unknown values read as
    /// errors so a newer peer's outcome is never mistaken for success.
    #[must_use]
    pub fn from_code(code: u8) -> SpanOutcome {
        match code {
            0 => SpanOutcome::Ok,
            2 => SpanOutcome::Refused,
            _ => SpanOutcome::Error,
        }
    }

    /// Render label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SpanOutcome::Ok => "ok",
            SpanOutcome::Error => "error",
            SpanOutcome::Refused => "refused",
        }
    }
}

/// One timed stage of a traced request.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Stage name (one this build knows, or `"remote"`; see
    /// [`intern_stage`]).
    pub stage: &'static str,
    /// Start on the trace clock, nanoseconds.
    pub start_ns: u64,
    /// End on the trace clock, nanoseconds.
    pub end_ns: u64,
    /// How the stage ended.
    pub outcome: SpanOutcome,
    /// Fleet hop the span was recorded at (0 = the node that minted
    /// the trace).
    pub hop: u8,
}

impl Span {
    const EMPTY: Span =
        Span { stage: "", start_ns: 0, end_ns: 0, outcome: SpanOutcome::Ok, hop: 0 };

    /// Span duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A trace being assembled for one in-flight request. Fixed-capacity:
/// recording a span never allocates.
#[derive(Clone, Debug)]
pub struct ActiveTrace {
    ctx: TraceContext,
    echo: bool,
    begin_ns: u64,
    spans: [Span; MAX_SPANS],
    len: usize,
    notes: [(&'static str, u64); MAX_NOTES],
    notes_len: usize,
    truncated: bool,
    errored: bool,
    refused: bool,
}

impl ActiveTrace {
    fn new(ctx: TraceContext, echo: bool) -> ActiveTrace {
        ActiveTrace {
            ctx,
            echo,
            begin_ns: now_ns(),
            spans: [Span::EMPTY; MAX_SPANS],
            len: 0,
            notes: [("", 0); MAX_NOTES],
            notes_len: 0,
            truncated: false,
            errored: false,
            refused: false,
        }
    }

    /// The trace's wire context (id + this node's hop).
    #[must_use]
    pub fn context(&self) -> TraceContext {
        self.ctx
    }

    /// Whether the context arrived on the wire (and should be echoed
    /// on the reply) rather than being minted here.
    #[must_use]
    pub fn inherited(&self) -> bool {
        self.echo
    }

    /// The context to propagate on a forward hop: same id, hop + 1.
    #[must_use]
    pub fn forward_context(&self) -> TraceContext {
        TraceContext {
            trace_id: self.ctx.trace_id,
            hop: self.ctx.hop.saturating_add(1),
            flags: self.ctx.flags,
        }
    }

    /// Records one completed span at this node's hop.
    pub fn record(&mut self, stage: &'static str, start_ns: u64, end_ns: u64, out: SpanOutcome) {
        self.record_at_hop(stage, start_ns, end_ns, out, self.ctx.hop);
    }

    /// Records a span that ended just now and took `elapsed`.
    pub fn record_elapsed(&mut self, stage: &'static str, elapsed: Duration, out: SpanOutcome) {
        let end = now_ns();
        self.record(stage, end.saturating_sub(elapsed.as_nanos() as u64), end, out);
    }

    /// Records the wait that preceded this trace as its `queue` span
    /// — the request became ready `waited` before it was serviced —
    /// and moves the trace's start back to that instant, so the queue
    /// leg nests inside the end-to-end `request` span like every other
    /// stage.
    pub fn record_queue(&mut self, waited: Duration) {
        let end = now_ns();
        let start = end.saturating_sub(waited.as_nanos() as u64);
        self.begin_ns = self.begin_ns.min(start);
        self.record("queue", start, end, SpanOutcome::Ok);
    }

    fn record_at_hop(
        &mut self,
        stage: &'static str,
        start_ns: u64,
        end_ns: u64,
        out: SpanOutcome,
        hop: u8,
    ) {
        match out {
            SpanOutcome::Error => self.errored = true,
            SpanOutcome::Refused => self.refused = true,
            SpanOutcome::Ok => {}
        }
        if self.len == MAX_SPANS {
            self.truncated = true;
            return;
        }
        self.spans[self.len] = Span { stage, start_ns, end_ns, outcome: out, hop };
        self.len += 1;
    }

    /// Attaches a numeric annotation (dropped past [`MAX_NOTES`]).
    ///
    /// Annotations are rendered into status views; never put key
    /// material or other secrets here (`sinclave-analysis` SA005
    /// flags key-ish identifiers at annotate call sites).
    pub fn annotate(&mut self, name: &'static str, value: u64) {
        if self.notes_len < MAX_NOTES {
            self.notes[self.notes_len] = (name, value);
            self.notes_len += 1;
        }
    }

    /// Merges spans exported by a remote hop, rebasing their clock so
    /// the earliest remote span starts at `anchor_ns` (normally the
    /// local forward span's start) — durations are preserved, and the
    /// merged tree nests plausibly instead of comparing two machines'
    /// clocks.
    pub fn absorb_remote(&mut self, spans: &[WireSpan], anchor_ns: u64) {
        let Some(remote_min) = spans.iter().map(|s| s.start_ns).min() else { return };
        for span in spans {
            let start = anchor_ns.saturating_add(span.start_ns.saturating_sub(remote_min));
            let end = anchor_ns.saturating_add(span.end_ns.saturating_sub(remote_min));
            self.record_at_hop(
                intern_stage(&span.stage),
                start,
                end,
                SpanOutcome::from_code(span.outcome),
                span.hop,
            );
        }
    }

    /// The spans recorded so far, in recording order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans[..self.len]
    }

    /// Flags the trace errored without recording a span — for
    /// failures that have no timed stage, like a contained dispatch
    /// panic. The synthesized end-to-end span carries the outcome.
    pub fn mark_errored(&mut self) {
        self.errored = true;
    }
}

/// Why a completed trace was kept.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PinReason {
    /// A stage exceeded its cached p99 threshold.
    Slow,
    /// Some span ended in error.
    Errored,
    /// Admission control refused the request.
    Shed,
    /// Healthy, kept by the 1-in-N sampler.
    Sampled,
}

impl PinReason {
    /// Render label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PinReason::Slow => "slow",
            PinReason::Errored => "errored",
            PinReason::Shed => "shed",
            PinReason::Sampled => "sampled",
        }
    }
}

/// A finished trace as stored in the flight recorder. `Copy` so ring
/// overwrites are plain memory writes.
#[derive(Clone, Copy, Debug)]
pub struct CompletedTrace {
    /// The causal trace id.
    pub trace_id: [u8; 16],
    /// Admission time on the trace clock.
    pub begin_ns: u64,
    /// Completion time on the trace clock.
    pub end_ns: u64,
    /// Why the trace was kept.
    pub reason: PinReason,
    /// Recorder-wide completion sequence (recency order).
    pub seq: u64,
    /// Whether spans were dropped at [`MAX_SPANS`].
    pub truncated: bool,
    spans: [Span; MAX_SPANS],
    len: usize,
    notes: [(&'static str, u64); MAX_NOTES],
    notes_len: usize,
}

impl CompletedTrace {
    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans[..self.len]
    }

    /// The numeric annotations.
    #[must_use]
    pub fn notes(&self) -> &[(&'static str, u64)] {
        &self.notes[..self.notes_len]
    }

    /// End-to-end duration in nanoseconds.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.begin_ns)
    }

    /// Trace id as lowercase hex.
    #[must_use]
    pub fn id_hex(&self) -> String {
        TraceContext { trace_id: self.trace_id, hop: 0, flags: 0 }.id_hex()
    }

    /// Exports the spans for a [`sinclave::replication::ReplicationFrame::Reply`]
    /// so the hop that minted the trace can merge them.
    #[must_use]
    pub fn export_wire_spans(&self) -> Vec<WireSpan> {
        self.spans()
            .iter()
            .map(|s| WireSpan {
                stage: s.stage.to_owned(),
                start_ns: s.start_ns,
                end_ns: s.end_ns,
                outcome: s.outcome.code(),
                hop: s.hop,
            })
            .collect()
    }
}

/// One bounded overwrite-oldest ring.
struct Ring {
    slots: Vec<Option<CompletedTrace>>,
    next: usize,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring { slots: vec![None; capacity], next: 0 }
    }

    fn push(&mut self, trace: CompletedTrace) {
        let capacity = self.slots.len();
        if capacity == 0 {
            return;
        }
        self.slots[self.next % capacity] = Some(trace);
        self.next = (self.next + 1) % capacity;
    }
}

/// One recorder shard: a pinned ring and a sampled ring.
struct RecorderShard {
    pinned: Mutex<Ring>,
    sampled: Mutex<Ring>,
}

/// Counters describing what the recorder has seen.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecorderStats {
    /// Traces pinned (slow / errored / shed).
    pub pinned: u64,
    /// Healthy traces kept by the sampler.
    pub sampled: u64,
    /// Healthy traces discarded (not sampled).
    pub discarded: u64,
    /// Traces lost to shard contention (`try_lock` failed).
    pub dropped: u64,
}

/// The flight recorder: sharded, bounded, overwrite-oldest storage
/// for completed traces. Pushing never blocks and never allocates; a
/// contended shard counts a drop instead of waiting.
pub struct FlightRecorder {
    shards: Vec<RecorderShard>,
    seq: AtomicU64,
    pinned_total: AtomicU64,
    sampled_total: AtomicU64,
    discarded_total: AtomicU64,
    dropped_total: AtomicU64,
}

impl FlightRecorder {
    fn new() -> FlightRecorder {
        let shards = (0..SHARDS)
            .map(|_| RecorderShard {
                pinned: Mutex::new(Ring::new(PIN_SLOTS)),
                sampled: Mutex::new(Ring::new(SAMPLE_SLOTS)),
            })
            .collect();
        FlightRecorder {
            shards,
            seq: AtomicU64::new(0),
            pinned_total: AtomicU64::new(0),
            sampled_total: AtomicU64::new(0),
            discarded_total: AtomicU64::new(0),
            dropped_total: AtomicU64::new(0),
        }
    }

    fn push(&self, mut trace: CompletedTrace) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        trace.seq = seq;
        let shard = &self.shards[(seq as usize) % self.shards.len()];
        let ring = if trace.reason == PinReason::Sampled { &shard.sampled } else { &shard.pinned };
        match ring.try_lock() {
            Some(mut guard) => {
                guard.push(trace);
                let counter = if trace.reason == PinReason::Sampled {
                    &self.sampled_total
                } else {
                    &self.pinned_total
                };
                counter.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                self.dropped_total.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn collect(&self, pinned: bool, limit: usize) -> Vec<CompletedTrace> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let ring = if pinned { shard.pinned.lock() } else { shard.sampled.lock() };
            out.extend(ring.slots.iter().flatten().copied());
        }
        out.sort_by_key(|trace| std::cmp::Reverse(trace.seq));
        out.truncate(limit);
        out
    }

    /// The most recent pinned traces, newest first.
    #[must_use]
    pub fn recent_pinned(&self, limit: usize) -> Vec<CompletedTrace> {
        self.collect(true, limit)
    }

    /// The most recent sampled (healthy) traces, newest first.
    #[must_use]
    pub fn recent_sampled(&self, limit: usize) -> Vec<CompletedTrace> {
        self.collect(false, limit)
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> RecorderStats {
        RecorderStats {
            pinned: self.pinned_total.load(Ordering::Relaxed),
            sampled: self.sampled_total.load(Ordering::Relaxed),
            discarded: self.discarded_total.load(Ordering::Relaxed),
            dropped: self.dropped_total.load(Ordering::Relaxed),
        }
    }
}

/// splitmix64 — the id mixer (not security-relevant: trace ids only
/// need to be distinct, and they deliberately never draw from the
/// deterministic session RNG so tracing cannot perturb serving).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The per-server tracing control plane: enablement, id minting,
/// tail-sampling classification, and the flight recorder.
pub struct Tracer {
    enabled: AtomicBool,
    sample_every: AtomicU32,
    healthy_seen: AtomicU64,
    next_id: AtomicU64,
    salt: u64,
    finished: AtomicU64,
    latency: Arc<StageHistograms>,
    thresholds: Vec<(&'static str, AtomicU64)>,
    recorder: FlightRecorder,
}

impl Tracer {
    /// Creates a tracer seeded from `latency` (the server's stage
    /// histograms, consulted for p99 slowness thresholds). Starts
    /// **disabled**.
    #[must_use]
    pub fn new(latency: Arc<StageHistograms>) -> Tracer {
        let thresholds =
            latency.named().iter().map(|(name, _)| (*name, AtomicU64::new(u64::MAX))).collect();
        let salt = splitmix64(u64::from(std::process::id()) ^ now_ns());
        Tracer {
            enabled: AtomicBool::new(false),
            sample_every: AtomicU32::new(64),
            healthy_seen: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            salt,
            finished: AtomicU64::new(0),
            latency,
            thresholds,
            recorder: FlightRecorder::new(),
        }
    }

    /// Turns tracing on or off. Off (the default) is "dark": no ids,
    /// no spans, byte-identical serving.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether tracing is lit.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Sets the healthy-trace sampling rate: keep 1 in `n` (0 keeps
    /// none; slow/errored/shed traces are always pinned regardless).
    pub fn set_sample_every(&self, n: u32) {
        self.sample_every.store(n, Ordering::Relaxed);
    }

    /// The configured healthy-trace sampling rate.
    #[must_use]
    pub fn sample_every(&self) -> u32 {
        self.sample_every.load(Ordering::Relaxed)
    }

    /// Starts a trace for a newly admitted request: inherits
    /// `inherited` when the frame carried a context (a forwarded or
    /// client-traced request), otherwise mints a fresh id at hop 0.
    /// Returns `None` when tracing is dark.
    #[must_use]
    pub fn begin(&self, inherited: Option<TraceContext>) -> Option<Box<ActiveTrace>> {
        if !self.is_enabled() {
            return None;
        }
        let (ctx, echo) = match inherited {
            Some(ctx) => (ctx, true),
            None => {
                let n = self.next_id.fetch_add(1, Ordering::Relaxed);
                let hi = splitmix64(self.salt ^ n);
                let lo = splitmix64(hi ^ n.rotate_left(32));
                let mut trace_id = [0u8; 16];
                trace_id[..8].copy_from_slice(&hi.to_be_bytes());
                trace_id[8..].copy_from_slice(&lo.to_be_bytes());
                (TraceContext { trace_id, hop: 0, flags: 0 }, false)
            }
        };
        Some(Box::new(ActiveTrace::new(ctx, echo)))
    }

    /// Completes a trace: synthesizes the end-to-end `request` span,
    /// classifies it (tail sampling), records kept traces in the
    /// flight recorder, and returns the completed record (callers on
    /// the primary export its spans back across the wire).
    pub fn finish(&self, mut trace: Box<ActiveTrace>) -> CompletedTrace {
        let end_ns = now_ns();
        let overall = if trace.errored {
            SpanOutcome::Error
        } else if trace.refused {
            SpanOutcome::Refused
        } else {
            SpanOutcome::Ok
        };
        trace.record("request", trace.begin_ns, end_ns, overall);
        let reason = if trace.errored {
            Some(PinReason::Errored)
        } else if trace.refused {
            Some(PinReason::Shed)
        } else if self.is_slow(&trace) {
            Some(PinReason::Slow)
        } else {
            let every = u64::from(self.sample_every.load(Ordering::Relaxed));
            let n = self.healthy_seen.fetch_add(1, Ordering::Relaxed);
            (every > 0 && n.is_multiple_of(every)).then_some(PinReason::Sampled)
        };
        let completed = CompletedTrace {
            trace_id: trace.ctx.trace_id,
            begin_ns: trace.begin_ns,
            end_ns,
            reason: reason.unwrap_or(PinReason::Sampled),
            seq: 0,
            truncated: trace.truncated,
            spans: trace.spans,
            len: trace.len,
            notes: trace.notes,
            notes_len: trace.notes_len,
        };
        match reason {
            Some(_) => self.recorder.push(completed),
            None => {
                self.recorder.discarded_total.fetch_add(1, Ordering::Relaxed);
            }
        }
        if self.finished.fetch_add(1, Ordering::Relaxed).is_multiple_of(THRESHOLD_REFRESH) {
            self.refresh_thresholds();
        }
        completed
    }

    /// Whether any span exceeds its stage's cached p99 threshold.
    fn is_slow(&self, trace: &ActiveTrace) -> bool {
        trace.spans().iter().any(|span| {
            self.thresholds
                .iter()
                .find(|(name, _)| *name == span.stage)
                .is_some_and(|(_, limit)| span.duration_ns() > limit.load(Ordering::Relaxed))
        })
    }

    /// Re-caches each stage's p99 from the live histograms. Stages
    /// with too few samples keep an infinite threshold so warmup
    /// traffic is not all pinned as "slow".
    fn refresh_thresholds(&self) {
        for ((_, histogram), (_, threshold)) in
            self.latency.named().iter().zip(self.thresholds.iter())
        {
            let view = histogram.view();
            let limit = if view.count() >= THRESHOLD_MIN_COUNT {
                u64::try_from(view.p99().as_nanos()).unwrap_or(u64::MAX)
            } else {
                u64::MAX
            };
            threshold.store(limit, Ordering::Relaxed);
        }
    }

    /// The flight recorder.
    #[must_use]
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }
}

thread_local! {
    /// The trace of the request currently being dispatched on this
    /// thread, installed around `dispatch` so deep call sites (issuer
    /// observer, commit path, middleware decisions) can record spans
    /// without threading a handle through every signature.
    static CURRENT: RefCell<Option<Box<ActiveTrace>>> = const { RefCell::new(None) };
}

/// Installs `trace` as the current thread's active trace.
pub fn install(trace: Box<ActiveTrace>) {
    CURRENT.with(|current| {
        if let Ok(mut slot) = current.try_borrow_mut() {
            *slot = Some(trace);
        }
    });
}

/// Removes and returns the current thread's active trace.
#[must_use]
pub fn take() -> Option<Box<ActiveTrace>> {
    CURRENT.with(|current| current.try_borrow_mut().ok().and_then(|mut slot| slot.take()))
}

/// Runs `f` against the active trace, if any. No-op when untraced —
/// instrumentation call sites cost one thread-local read when dark.
pub fn with_active(f: impl FnOnce(&mut ActiveTrace)) {
    let _ = map_active(f);
}

/// Runs `f` against the active trace and returns its result; `None`
/// when this thread has no trace installed (tracing dark, or an
/// untraced request).
pub fn map_active<R>(f: impl FnOnce(&mut ActiveTrace) -> R) -> Option<R> {
    CURRENT.with(|current| {
        current.try_borrow_mut().ok().and_then(|mut slot| slot.as_mut().map(|trace| f(trace)))
    })
}

/// Records a completed span on the active trace, if any.
pub fn record_span(stage: &'static str, start_ns: u64, end_ns: u64, outcome: SpanOutcome) {
    with_active(|trace| trace.record(stage, start_ns, end_ns, outcome));
}

/// Records a span that ended just now and took `elapsed`.
pub fn record_elapsed(stage: &'static str, elapsed: Duration, outcome: SpanOutcome) {
    with_active(|trace| trace.record_elapsed(stage, elapsed, outcome));
}

/// Attaches a numeric annotation to the active trace, if any. Never
/// pass key material (SA005 polices call sites).
pub fn annotate(name: &'static str, value: u64) {
    with_active(|trace| trace.annotate(name, value));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer() -> Tracer {
        let tracer = Tracer::new(Arc::new(StageHistograms::default()));
        tracer.set_enabled(true);
        tracer
    }

    #[test]
    fn every_recorded_stage_is_known_and_documented() {
        // A stage recorded here but missing from KNOWN_STAGES reaches a
        // peer's trace as `remote` (this happened once: `dedup_hit` was
        // recorded while `dedup_replay` was the known name). Refusals
        // are listed by hand; the match fails to compile when a
        // variant is added, as a reminder to list it.
        use crate::middleware::Refusal;
        let refusals = [Refusal::RateLimited, Refusal::QuotaExceeded, Refusal::LoadShed];
        for refusal in refusals {
            match refusal {
                Refusal::RateLimited | Refusal::QuotaExceeded | Refusal::LoadShed => {}
            }
        }
        let histograms = StageHistograms::default();
        let recorded = histograms
            .named()
            .map(|(stage, _)| stage)
            .into_iter()
            .chain(refusals.map(Refusal::trace_stage))
            .chain(["admission", "forward", "queue"]);
        for stage in recorded {
            assert_eq!(intern_stage(stage), stage, "`{stage}` is missing from KNOWN_STAGES");
        }
        let operations = include_str!("../../../docs/operations.md");
        for stage in KNOWN_STAGES {
            assert!(
                operations.contains(&format!("`{stage}`")),
                "`{stage}` is missing from docs/operations.md"
            );
        }
    }

    #[test]
    fn dark_tracer_begins_nothing() {
        let dark = Tracer::new(Arc::new(StageHistograms::default()));
        assert!(dark.begin(None).is_none());
        assert!(!dark.is_enabled());
    }

    #[test]
    fn minted_ids_are_distinct_and_hop_zero() {
        let tracer = tracer();
        let a = tracer.begin(None).unwrap();
        let b = tracer.begin(None).unwrap();
        assert_ne!(a.context().trace_id, b.context().trace_id);
        assert_eq!(a.context().hop, 0);
        assert!(!a.inherited());
    }

    #[test]
    fn inherited_context_is_preserved_and_echoed() {
        let tracer = tracer();
        let ctx = TraceContext { trace_id: [7; 16], hop: 3, flags: 0 };
        let trace = tracer.begin(Some(ctx)).unwrap();
        assert_eq!(trace.context(), ctx);
        assert!(trace.inherited());
        assert_eq!(trace.forward_context().hop, 4);
    }

    #[test]
    fn finish_synthesizes_request_span_and_samples() {
        let tracer = tracer();
        tracer.set_sample_every(1);
        let mut trace = tracer.begin(None).unwrap();
        trace.record("verify", 10, 20, SpanOutcome::Ok);
        let completed = tracer.finish(trace);
        assert_eq!(completed.reason, PinReason::Sampled);
        let stages: Vec<_> = completed.spans().iter().map(|s| s.stage).collect();
        assert_eq!(stages, vec!["verify", "request"]);
        assert_eq!(tracer.recorder().recent_sampled(8).len(), 1);
        assert!(tracer.recorder().recent_pinned(8).is_empty());
    }

    #[test]
    fn errored_and_refused_traces_are_pinned_even_unsampled() {
        let tracer = tracer();
        tracer.set_sample_every(0);
        let mut errored = tracer.begin(None).unwrap();
        errored.record("verify", 0, 5, SpanOutcome::Error);
        assert_eq!(tracer.finish(errored).reason, PinReason::Errored);
        let mut shed = tracer.begin(None).unwrap();
        shed.record("rate_limit", 0, 1, SpanOutcome::Refused);
        assert_eq!(tracer.finish(shed).reason, PinReason::Shed);
        assert_eq!(tracer.recorder().recent_pinned(8).len(), 2);
        // Healthy + sample_every=0 → discarded.
        let healthy = tracer.begin(None).unwrap();
        tracer.finish(healthy);
        let stats = tracer.recorder().stats();
        assert_eq!(stats.pinned, 2);
        assert_eq!(stats.discarded, 1);
    }

    #[test]
    fn slow_stage_pins_once_thresholds_are_seeded() {
        let latency = Arc::new(StageHistograms::default());
        let tracer = Tracer::new(Arc::clone(&latency));
        tracer.set_enabled(true);
        tracer.set_sample_every(0);
        // Seed the verify histogram with fast samples so its p99 is
        // far below the slow span below.
        for _ in 0..THRESHOLD_MIN_COUNT {
            latency.verify.record(Duration::from_nanos(100));
        }
        tracer.refresh_thresholds();
        let mut slow = tracer.begin(None).unwrap();
        slow.record("verify", 0, 50_000_000, SpanOutcome::Ok);
        assert_eq!(tracer.finish(slow).reason, PinReason::Slow);
    }

    #[test]
    fn span_capacity_truncates_instead_of_growing() {
        let tracer = tracer();
        let mut trace = tracer.begin(None).unwrap();
        for i in 0..(MAX_SPANS as u64 + 5) {
            trace.record("verify", i, i + 1, SpanOutcome::Ok);
        }
        assert_eq!(trace.spans().len(), MAX_SPANS);
        let completed = tracer.finish(trace);
        assert!(completed.truncated);
    }

    #[test]
    fn remote_spans_rebase_into_the_anchor() {
        let tracer = tracer();
        let mut trace = tracer.begin(None).unwrap();
        let remote = vec![
            WireSpan {
                stage: "verify".to_owned(),
                start_ns: 1000,
                end_ns: 1400,
                outcome: 0,
                hop: 1,
            },
            WireSpan {
                stage: "no-such-stage".to_owned(),
                start_ns: 1500,
                end_ns: 1600,
                outcome: 9,
                hop: 1,
            },
        ];
        trace.absorb_remote(&remote, 50);
        let spans = trace.spans();
        assert_eq!(spans[0].stage, "verify");
        assert_eq!(spans[0].start_ns, 50);
        assert_eq!(spans[0].duration_ns(), 400);
        assert_eq!(spans[1].stage, "remote");
        assert_eq!(spans[1].outcome, SpanOutcome::Error);
        assert_eq!(spans[1].hop, 1);
    }

    #[test]
    fn recorder_rings_overwrite_oldest() {
        let recorder = FlightRecorder::new();
        let capacity = (SHARDS * PIN_SLOTS) as u64;
        for _ in 0..capacity * 2 {
            let trace = CompletedTrace {
                trace_id: [0; 16],
                begin_ns: 0,
                end_ns: 1,
                reason: PinReason::Errored,
                seq: 0,
                truncated: false,
                spans: [Span::EMPTY; MAX_SPANS],
                len: 0,
                notes: [("", 0); MAX_NOTES],
                notes_len: 0,
            };
            recorder.push(trace);
        }
        let recent = recorder.recent_pinned(usize::MAX);
        assert_eq!(recent.len(), capacity as usize);
        // Newest first, and only the newest half survived.
        assert!(recent.iter().all(|t| t.seq >= capacity));
        assert_eq!(recorder.stats().pinned, capacity * 2);
    }

    #[test]
    fn thread_local_install_take_roundtrip() {
        let tracer = tracer();
        assert!(take().is_none());
        install(tracer.begin(None).unwrap());
        record_span("sign", 3, 9, SpanOutcome::Ok);
        annotate("batch", 4);
        let trace = take().unwrap();
        assert!(take().is_none());
        assert_eq!(trace.spans()[0].stage, "sign");
        assert_eq!(trace.spans()[0].duration_ns(), 6);
        let completed = tracer.finish(trace);
        assert_eq!(completed.notes(), &[("batch", 4)]);
    }
}
