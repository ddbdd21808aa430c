//! The unified sink-based evaluation API shared by every engine.
//!
//! The paper evaluates five systems (Table 2) that differ wildly in *how*
//! they locate matches — streaming with fast-forwarding, detailed streaming,
//! DOM trees, tapes, leveled bitmap indexes — but they all answer the same
//! question: *which byte spans of this record match the query?* This module
//! captures that contract once:
//!
//! * [`Match`] — one delivered match: record ordinal, query ordinal,
//!   normalized byte span, and a zero-copy [`LazyValue`](crate::LazyValue)
//!   handle over the record buffer. Construction goes through
//!   [`Match::new`], the single span-normalization point, so all five
//!   engines emit identical spans.
//! * [`MatchSink`] — a visitor receiving matches (and per-record errors) with
//!   [`ControlFlow`]-based early exit: return [`ControlFlow::Break`] from
//!   [`MatchSink::on_match`] and the engine stops scanning. For streaming
//!   engines the stop is *real* — bytes after the breaking match are never
//!   examined (see [`StreamOutcome::consumed`]).
//! * [`Evaluate`] — one record in, matches out through a sink, with a typed
//!   [`RecordOutcome`]. Implemented by all five engine crates.
//! * [`EngineError`] / [`ErrorPolicy`] — typed errors and the skip-or-fail
//!   decision for multi-record streams (see [`Pipeline`]).
//!
//! [`StreamOutcome::consumed`]: StreamOutcome::consumed
//! [`Pipeline`]: crate::Pipeline

use std::error::Error;
use std::fmt;
use std::ops::ControlFlow;

use crate::engine::StreamOutcome;
use crate::error::StreamError;
use crate::limits::{LimitExceeded, ResourceLimits};

/// Typed error from evaluating or transporting a record.
#[derive(Debug)]
pub enum EngineError {
    /// The record is structurally malformed (streaming engines).
    Stream(StreamError),
    /// The record source failed to produce bytes.
    Io(std::io::Error),
    /// The record violated a configured [`ResourceLimits`] cap (size,
    /// depth, buffer, or deadline). Limit rejections respect
    /// [`ErrorPolicy`] like any other per-record failure.
    Limit(LimitExceeded),
    /// An engine-specific failure (preprocessing engines report parse
    /// errors here, tagged with the engine's display name).
    Engine {
        /// The reporting engine's display name.
        engine: &'static str,
        /// Human-readable description of the failure.
        message: String,
    },
    /// Evaluating the record panicked. [`Evaluate::evaluate`] promises not
    /// to panic, but a production pipeline cannot stake the whole run on
    /// that promise: the [`Pipeline`](crate::Pipeline) catches the unwind
    /// and reports it as this ordinary per-record failure, subject to
    /// [`ErrorPolicy`] like any other.
    Panic {
        /// Zero-based ordinal of the record whose evaluation panicked.
        record_idx: u64,
        /// The panic payload, when it was a string (the common
        /// `panic!("…")` case); a placeholder otherwise.
        payload: String,
    },
    /// Strict validation ([`ValidationMode::Strict`](crate::ValidationMode))
    /// rejected the record. Reported uniformly by all engines — the
    /// streaming engines detect it mid-skip, the preprocessing engines via
    /// a pre-pass — with the byte offset of the first violation.
    Invalid {
        /// Byte offset (within the record) of the first invalid byte.
        offset: usize,
        /// Which well-formedness rule was violated.
        reason: crate::InvalidReason,
    },
}

impl EngineError {
    /// Whether a record-skipping policy can recover from this error by
    /// resynchronizing at the next record boundary. I/O errors cannot —
    /// the byte stream itself is gone.
    pub fn is_resyncable(&self) -> bool {
        !matches!(self, EngineError::Io(_))
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Stream(e) => write!(f, "stream error: {e}"),
            EngineError::Io(e) => write!(f, "i/o error: {e}"),
            EngineError::Limit(e) => write!(f, "resource limit exceeded: {e}"),
            EngineError::Engine { engine, message } => {
                write!(f, "{engine}: {message}")
            }
            EngineError::Panic {
                record_idx,
                payload,
            } => {
                write!(f, "evaluation panicked on record {record_idx}: {payload}")
            }
            EngineError::Invalid { offset, reason } => {
                write!(f, "strict validation failed at byte {offset}: {reason}")
            }
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::Stream(e) => Some(e),
            EngineError::Io(e) => Some(e),
            EngineError::Limit(e) => Some(e),
            EngineError::Engine { .. }
            | EngineError::Panic { .. }
            | EngineError::Invalid { .. } => None,
        }
    }
}

/// Renders a caught panic payload for [`EngineError::Panic`]: the string
/// itself for `&str`/`String` payloads (the `panic!` macro produces
/// these), a placeholder for anything else.
pub(crate) fn panic_payload(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic payload".to_string())
    }
}

/// Classifies a [`StreamError`] against the limits that produced it:
/// depth/deadline violations become typed [`EngineError::Limit`]s, the
/// rest stay structural.
pub(crate) fn classify_stream_error(e: StreamError, limits: &ResourceLimits) -> EngineError {
    match e {
        StreamError::TooDeep { pos } => EngineError::Limit(LimitExceeded::Depth {
            pos,
            limit: limits.max_depth,
        }),
        StreamError::DeadlineExpired { .. } => EngineError::Limit(LimitExceeded::Deadline {
            limit: limits.deadline.unwrap_or_default(),
        }),
        StreamError::Invalid { pos, reason } => EngineError::Invalid {
            offset: pos,
            reason,
        },
        e => EngineError::Stream(e),
    }
}

impl From<StreamError> for EngineError {
    fn from(e: StreamError) -> Self {
        EngineError::Stream(e)
    }
}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Io(e)
    }
}

impl From<crate::reader::ReadRecordError> for EngineError {
    fn from(e: crate::reader::ReadRecordError) -> Self {
        match e {
            crate::reader::ReadRecordError::Io(e) => EngineError::Io(e),
            crate::reader::ReadRecordError::Stream(e) => EngineError::Stream(e),
            crate::reader::ReadRecordError::Limit(e) => EngineError::Limit(e),
        }
    }
}

impl From<LimitExceeded> for EngineError {
    fn from(e: LimitExceeded) -> Self {
        EngineError::Limit(e)
    }
}

/// What happened to one record.
#[derive(Debug)]
pub enum RecordOutcome {
    /// The record was fully evaluated; `matches` spans were delivered.
    Complete {
        /// Number of matches delivered to the sink.
        matches: usize,
    },
    /// The sink returned [`ControlFlow::Break`]; scanning stopped early.
    /// `matches` *includes* the match the sink broke on.
    Stopped {
        /// Number of matches delivered, including the breaking one.
        matches: usize,
    },
    /// The record could not be evaluated.
    Failed(EngineError),
}

impl RecordOutcome {
    /// Matches delivered before the outcome, `0` for failures.
    pub fn matches(&self) -> usize {
        match self {
            RecordOutcome::Complete { matches } | RecordOutcome::Stopped { matches } => *matches,
            RecordOutcome::Failed(_) => 0,
        }
    }

    /// Whether the record failed.
    pub fn is_failed(&self) -> bool {
        matches!(self, RecordOutcome::Failed(_))
    }
}

/// What to do when a record in a multi-record stream fails.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ErrorPolicy {
    /// Abort the whole run on the first failed record (in record order).
    #[default]
    FailFast,
    /// Report the failure to [`MatchSink::on_record_error`] and continue
    /// with the next record.
    SkipMalformed,
}

/// One delivered match: which record it came from, which query of the
/// engine it answers, its byte span within that record, and zero-copy
/// access to the matched bytes.
///
/// Every engine constructs matches through [`Match::new`], which normalizes
/// the span (clamped to the record, JSON whitespace trimmed from both
/// ends) — the single point that guarantees all five engines emit
/// byte-identical spans for the same value.
///
/// The lifetime `'a` borrows the record buffer: a `Match` is a `Copy`
/// handle, valid for as long as the record bytes it points into.
#[derive(Clone, Copy, Debug)]
pub struct Match<'a> {
    record_idx: u64,
    query: usize,
    record: &'a [u8],
    span: (usize, usize),
}

impl<'a> Match<'a> {
    /// Builds a match of query `0` from a record buffer and a value span,
    /// normalizing the span.
    pub fn new(record_idx: u64, record: &'a [u8], span: (usize, usize)) -> Self {
        Match {
            record_idx,
            query: 0,
            record,
            span: crate::lazy::normalize_span(record, span),
        }
    }

    /// Builds a match from a byte slice borrowed out of `record`,
    /// recovering the span from the slice's position. Engines that
    /// natively produce `&[u8]` matches use this to adapt; a slice that is
    /// not derived from `record` becomes a match over the slice itself.
    pub fn from_slice(record_idx: u64, record: &'a [u8], bytes: &'a [u8]) -> Self {
        let offset = (bytes.as_ptr() as usize).wrapping_sub(record.as_ptr() as usize);
        if offset <= record.len() && offset + bytes.len() <= record.len() {
            Match::new(record_idx, record, (offset, offset + bytes.len()))
        } else {
            Match::new(record_idx, bytes, (0, bytes.len()))
        }
    }

    /// Zero-based ordinal of the record within the stream (always `0` for
    /// single-record evaluation).
    pub fn record_idx(&self) -> u64 {
        self.record_idx
    }

    /// Zero-based ordinal of the query this match answers: its position in
    /// a [`MultiQuery`](crate::MultiQuery)'s query set, always `0` for
    /// one-query engines.
    pub fn query(&self) -> usize {
        self.query
    }

    /// The whole record buffer the match borrows from.
    pub fn record(&self) -> &'a [u8] {
        self.record
    }

    /// The match's normalized byte span within [`record`](Self::record).
    pub fn span(&self) -> (usize, usize) {
        self.span
    }

    /// The matched bytes, zero-copy.
    pub fn bytes(&self) -> &'a [u8] {
        &self.record[self.span.0..self.span.1]
    }

    /// A lazy handle over the matched value for on-demand typed decoding
    /// (see [`LazyValue`](crate::LazyValue)).
    pub fn value(&self) -> crate::LazyValue<'a> {
        crate::LazyValue::new(self.record, self.span)
    }

    /// The same match restamped with a different record ordinal (used by
    /// [`Evaluate`] adapters layering stream indices onto single-record
    /// engines).
    #[must_use]
    pub fn with_record_idx(self, record_idx: u64) -> Self {
        Match { record_idx, ..self }
    }

    /// The same match restamped with a different query ordinal (used by
    /// multi-query engines and by replays of staged matches).
    #[must_use]
    pub fn with_query(self, query: usize) -> Self {
        Match { query, ..self }
    }
}

/// Visitor receiving matches as they are found.
///
/// [`Match::record_idx`] carries the zero-based ordinal of the record
/// within the stream (always `0` for single-record evaluation). Returning
/// [`ControlFlow::Break`] stops the scan — for a single record the engine
/// stops examining bytes; for a [`Pipeline`] the whole stream stops.
///
/// [`Pipeline`]: crate::Pipeline
pub trait MatchSink {
    /// Called for each match, with a borrowed [`Match`] handle.
    fn on_match(&mut self, m: Match<'_>) -> ControlFlow<()>;

    /// Called when a record fails under [`ErrorPolicy::SkipMalformed`]
    /// (under [`ErrorPolicy::FailFast`] the error aborts the run instead).
    /// Returning [`ControlFlow::Break`] stops the stream. The default
    /// implementation continues.
    fn on_record_error(&mut self, record_idx: u64, error: &EngineError) -> ControlFlow<()> {
        let _ = (record_idx, error);
        ControlFlow::Continue(())
    }

    /// Called when the record *source* could not delimit a record and the
    /// stream resynchronized at the next record boundary (only under
    /// [`ErrorPolicy::SkipMalformed`]). `span` is the skipped byte range in
    /// stream coordinates (`start..end`); `error` is what broke the
    /// record. Returning [`ControlFlow::Break`] stops the stream. The
    /// default implementation continues.
    fn on_resync(&mut self, span: (u64, u64), error: &EngineError) -> ControlFlow<()> {
        let _ = (span, error);
        ControlFlow::Continue(())
    }

    /// Called by a checkpointing [`Pipeline`] from the in-order merge with
    /// the summary of everything delivered so far, and once more when the
    /// run ends cleanly. Because the call sits behind the merge point, the
    /// summary never claims work the sink has not already received —
    /// persisting it (and flushing any buffered output first) makes the
    /// run resumable. The default implementation does nothing.
    ///
    /// # Errors
    ///
    /// An [`EngineError`] aborts the run: a checkpoint that cannot be
    /// persisted is an operational failure, not a per-record one.
    ///
    /// [`Pipeline`]: crate::Pipeline
    fn on_checkpoint(&mut self, summary: &crate::PipelineSummary) -> Result<(), EngineError> {
        let _ = summary;
        Ok(())
    }
}

/// Adapts a closure `FnMut(Match<'_>) -> ControlFlow<()>` into a
/// [`MatchSink`] (record errors use the default continue behaviour).
pub struct FnSink<F>(F);

impl<F: FnMut(Match<'_>) -> ControlFlow<()>> FnSink<F> {
    /// Wraps `f`.
    pub fn new(f: F) -> Self {
        FnSink(f)
    }
}

impl<F: FnMut(Match<'_>) -> ControlFlow<()>> MatchSink for FnSink<F> {
    fn on_match(&mut self, m: Match<'_>) -> ControlFlow<()> {
        (self.0)(m)
    }
}

/// A sink that counts matches and never stops.
#[derive(Debug, Default)]
pub struct CountSink {
    /// Matches seen so far.
    pub matches: usize,
}

impl MatchSink for CountSink {
    fn on_match(&mut self, _m: Match<'_>) -> ControlFlow<()> {
        self.matches += 1;
        ControlFlow::Continue(())
    }
}

/// One record in, matches out: the contract shared by all five engines.
///
/// Implementations are `Sync` so one engine value can serve all workers of a
/// [`Pipeline`]. An engine writes its evaluation once, in
/// [`evaluate_metered`](Evaluate::evaluate_metered); for the preprocessing
/// engines (DOM, tape, leveled index) it includes the preprocessing work,
/// as in the paper's measurements.
///
/// [`Pipeline`]: crate::Pipeline
pub trait Evaluate: Sync {
    /// The engine's display name (matching the paper's, e.g. `"JSONSki"`).
    fn name(&self) -> &'static str;

    /// Evaluates one record, delivering match spans to `sink`. A live
    /// `metrics` registry receives the evaluated-side counters (delivery
    /// accounting belongs to whoever owns the sink, e.g. the [`Pipeline`]
    /// merge): outcomes, bytes, matches and the build/traverse/eval time
    /// split from every engine, per-group fast-forward bytes and bitmap
    /// words from JSONSki. With none, no clock is read.
    ///
    /// Never panics on malformed input: failures are returned as
    /// [`RecordOutcome::Failed`].
    ///
    /// [`Pipeline`]: crate::Pipeline
    fn evaluate_metered(
        &self,
        record: &[u8],
        record_idx: u64,
        sink: &mut dyn MatchSink,
        metrics: Option<&crate::Metrics>,
    ) -> RecordOutcome;

    /// Evaluates one record with no metrics registry (provided on top of
    /// [`Evaluate::evaluate_metered`]).
    fn evaluate(&self, record: &[u8], record_idx: u64, sink: &mut dyn MatchSink) -> RecordOutcome {
        self.evaluate_metered(record, record_idx, sink, None)
    }

    /// Counts matches in one record (provided on top of
    /// [`Evaluate::evaluate`]).
    ///
    /// # Errors
    ///
    /// The [`EngineError`] of a failed record.
    fn count(&self, record: &[u8]) -> Result<usize, EngineError> {
        match self.evaluate(record, 0, &mut CountSink::default()) {
            RecordOutcome::Failed(e) => Err(e),
            outcome => Ok(outcome.matches()),
        }
    }
}

/// The outcome mapping every streaming engine shares (`JsonSki`,
/// [`IndexedJsonSki`](crate::IndexedJsonSki) and
/// [`MultiQuery`](crate::MultiQuery)): the record-size pre-check, then one
/// `stream` pass mapped from [`StreamOutcome`] to [`RecordOutcome`]. With a
/// recording `metrics` registry it also adds the live counters: per-group
/// fast-forward bytes, bitmap words classified and cache hits, and the
/// bitmap-construction vs. traversal time split. A failed record
/// contributes nothing to the fast-forward or bitmap counters.
pub(crate) fn stream_outcome(
    record: &[u8],
    limits: &ResourceLimits,
    metrics: Option<&crate::Metrics>,
    stream: impl FnOnce() -> Result<StreamOutcome, StreamError>,
) -> RecordOutcome {
    let metrics = metrics.filter(|m| m.is_enabled());
    let outcome = if record.len() > limits.max_record_bytes {
        RecordOutcome::Failed(EngineError::Limit(LimitExceeded::RecordBytes {
            len: record.len(),
            limit: limits.max_record_bytes,
        }))
    } else {
        let sw = metrics.map(crate::Metrics::stopwatch);
        let result = stream();
        let eval_ns = sw.map_or(0, |sw| sw.elapsed_ns());
        match result {
            Ok(o) => {
                if let Some(m) = metrics {
                    m.record_fast_forward(&o.stats);
                    m.record_bitmap(o.words_classified as u64, o.word_cache_hits);
                    m.add_eval_split_ns(o.classify_ns, eval_ns);
                }
                if o.stopped {
                    RecordOutcome::Stopped { matches: o.matches }
                } else {
                    RecordOutcome::Complete { matches: o.matches }
                }
            }
            Err(e) => {
                if let Some(m) = metrics {
                    m.add_eval_ns(eval_ns);
                }
                RecordOutcome::Failed(classify_stream_error(e, limits))
            }
        }
    };
    if let Some(m) = metrics {
        if matches!(outcome, RecordOutcome::Failed(EngineError::Limit(_))) {
            m.record_limit_rejection();
        }
        m.record_outcome(record.len(), &outcome);
    }
    outcome
}

/// The sink as a [`baseline_outcome`] walk step sees it: it counts each
/// match it delivers, and a sink's [`ControlFlow::Break`] stops the walk.
pub struct Walk<'a> {
    record: &'a [u8],
    record_idx: u64,
    sink: &'a mut dyn MatchSink,
    matches: usize,
    stopped: bool,
}

impl Walk<'_> {
    /// Delivers a value given as a slice of the record (located by
    /// [`Match::from_slice`]); on [`ControlFlow::Break`] the walk must stop.
    #[inline]
    pub fn emit_slice(&mut self, bytes: &[u8]) -> ControlFlow<()> {
        self.deliver(Match::from_slice(self.record_idx, self.record, bytes))
    }

    /// Delivers each slice of `values` in order until the sink breaks.
    pub fn emit_slices<'v>(&mut self, values: impl IntoIterator<Item = &'v [u8]>) {
        for bytes in values {
            if self.emit_slice(bytes).is_break() {
                return;
            }
        }
    }

    /// Delivers the value at each span of the record (normalized by
    /// [`Match::new`]) in order until the sink breaks.
    pub fn emit_spans(&mut self, spans: impl IntoIterator<Item = (usize, usize)>) {
        for span in spans {
            if self
                .deliver(Match::new(self.record_idx, self.record, span))
                .is_break()
            {
                return;
            }
        }
    }

    #[inline]
    fn deliver(&mut self, m: Match<'_>) -> ControlFlow<()> {
        self.matches += 1;
        let flow = self.sink.on_match(m);
        self.stopped = flow.is_break();
        flow
    }
}

/// The outcome mapping the four baseline engines share (JPStream and the
/// DOM, tape and leveled-index engines). In order:
///
/// 1. under [`ValidationMode::Strict`](crate::ValidationMode), the
///    [`validate_record`](crate::validate_record) pre-pass: its verdict
///    becomes [`EngineError::Invalid`], the offset and reason the
///    streaming engine reports mid-skip;
/// 2. `build`, the engine's preprocessing (DOM, tape or index);
/// 3. `walk`, which delivers record `record_idx`'s matches to `sink`
///    through [`Walk`] and stops on a [`ControlFlow::Break`];
/// 4. [`RecordOutcome::Stopped`] or [`RecordOutcome::Complete`]. An error
///    of `build` or `walk` becomes [`EngineError::Engine`] for `engine`.
///
/// A live `metrics` registry also gets the outcome and the time split:
/// the pre-pass and `build` are build time, `walk` is traversal. With
/// none, no clock is read.
#[allow(clippy::too_many_arguments)]
pub fn baseline_outcome<T, E: fmt::Display>(
    engine: &'static str,
    validation: crate::ValidationMode,
    record: &[u8],
    record_idx: u64,
    sink: &mut dyn MatchSink,
    metrics: Option<&crate::Metrics>,
    build: impl FnOnce() -> Result<T, E>,
    walk: impl FnOnce(T, &mut Walk<'_>) -> Result<(), E>,
) -> RecordOutcome {
    let metrics = metrics.filter(|m| m.is_enabled());
    let sw = metrics.map(crate::Metrics::stopwatch);
    let elapsed = || sw.map_or(0, |sw| sw.elapsed_ns());
    let failed = |e: E| {
        RecordOutcome::Failed(EngineError::Engine {
            engine,
            message: e.to_string(),
        })
    };
    let mut build_ns = None;
    let outcome = 'eval: {
        if validation == crate::ValidationMode::Strict {
            if let Some((offset, reason)) = crate::validate_record(record) {
                break 'eval RecordOutcome::Failed(EngineError::Invalid { offset, reason });
            }
        }
        let built = match build() {
            Ok(built) => built,
            Err(e) => break 'eval failed(e),
        };
        build_ns = Some(elapsed());
        let mut out = Walk {
            record,
            record_idx,
            sink,
            matches: 0,
            stopped: false,
        };
        match (walk(built, &mut out), out.matches) {
            (Err(e), _) => failed(e),
            (Ok(()), matches) if out.stopped => RecordOutcome::Stopped { matches },
            (Ok(()), matches) => RecordOutcome::Complete { matches },
        }
    };
    if let Some(m) = metrics {
        let eval_ns = elapsed();
        m.add_eval_split_ns(build_ns.unwrap_or(eval_ns), eval_ns);
        m.record_outcome(record.len(), &outcome);
    }
    outcome
}

impl Evaluate for crate::JsonSki {
    fn name(&self) -> &'static str {
        "JSONSki"
    }

    fn evaluate_metered(
        &self,
        record: &[u8],
        record_idx: u64,
        sink: &mut dyn MatchSink,
        metrics: Option<&crate::Metrics>,
    ) -> RecordOutcome {
        stream_outcome(record, &self.config().limits, metrics, || {
            self.stream(record, |m| sink.on_match(m.with_record_idx(record_idx)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JsonSki;

    #[test]
    fn jsonski_implements_evaluate() {
        let engine = JsonSki::compile("$.a").unwrap();
        assert_eq!(Evaluate::name(&engine), "JSONSki");
        assert_eq!(Evaluate::count(&engine, br#"{"a": 1}"#).unwrap(), 1);
        assert_eq!(Evaluate::count(&engine, br#"{"b": 1}"#).unwrap(), 0);
    }

    #[test]
    fn evaluate_reports_stopped_with_breaking_match_counted() {
        let engine = JsonSki::compile("$[*]").unwrap();
        let mut seen = 0usize;
        let mut sink = FnSink::new(|_m: Match<'_>| {
            seen += 1;
            if seen == 2 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        let outcome = engine.evaluate(b"[1, 2, 3, 4]", 0, &mut sink);
        match outcome {
            RecordOutcome::Stopped { matches } => assert_eq!(matches, 2),
            other => panic!("expected Stopped, got {other:?}"),
        }
    }

    #[test]
    fn evaluate_reports_failures_typed() {
        let engine = JsonSki::compile("$.a").unwrap();
        let mut sink = CountSink::default();
        let outcome = engine.evaluate(br#"{"a": [1, 2"#, 0, &mut sink);
        match outcome {
            RecordOutcome::Failed(EngineError::Stream(_)) => {}
            other => panic!("expected Failed(Stream), got {other:?}"),
        }
        assert_eq!(outcome.matches(), 0);
        assert!(outcome.is_failed());
    }

    #[test]
    fn evaluate_metered_records_live_counters() {
        let engine = JsonSki::compile("$.a").unwrap();
        let metrics = crate::Metrics::new();
        let mut sink = CountSink::default();
        let json = br#"{"a": 1, "pad": [1, 2, 3, 4]}"#;
        let outcome = engine.evaluate_metered(json, 0, &mut sink, Some(&metrics));
        assert_eq!(outcome.matches(), 1);
        let s = metrics.snapshot();
        assert_eq!(s.records_evaluated, 1);
        assert_eq!(s.matches_emitted, 1);
        assert_eq!(s.bytes_evaluated, json.len() as u64);
        assert!(s.overall_ff_ratio() > 0.0, "{s}");
        assert!(s.words_classified > 0);
        // Delivery accounting belongs to the sink owner, not the engine.
        assert_eq!(s.records_delivered, 0);
    }

    #[test]
    fn failed_record_contributes_zero_to_ff_and_match_counters() {
        // The failure is only discovered after a partial match (`3` is
        // emitted before the missing `]`); the counters must still report
        // zero matches and zero fast-forwarded bytes for the record.
        let engine = JsonSki::compile("$[*]").unwrap();
        let metrics = crate::Metrics::new();
        let mut sink = CountSink::default();
        let outcome = engine.evaluate_metered(b"[3, 4", 0, &mut sink, Some(&metrics));
        assert!(outcome.is_failed());
        let s = metrics.snapshot();
        assert_eq!(s.matches_emitted, 0);
        assert_eq!(s.records_failed, 1);
        assert_eq!(s.bytes_failed, 5);
        assert_eq!(s.bytes_evaluated, 0);
        assert_eq!(s.ff_skipped.iter().sum::<u64>(), 0);
    }

    #[test]
    fn provided_evaluate_runs_the_metered_body_without_a_registry() {
        // `evaluate` and `count` are provided on top of the one required
        // method, which they call with no registry.
        struct Fixed;
        impl Evaluate for Fixed {
            fn name(&self) -> &'static str {
                "fixed"
            }
            fn evaluate_metered(
                &self,
                _record: &[u8],
                record_idx: u64,
                sink: &mut dyn MatchSink,
                metrics: Option<&crate::Metrics>,
            ) -> RecordOutcome {
                assert!(metrics.is_none());
                let _ = sink.on_match(Match::new(record_idx, b"x", (0, 1)));
                RecordOutcome::Complete { matches: 1 }
            }
        }
        let mut sink = CountSink::default();
        assert_eq!(Fixed.evaluate(b"0123456789", 0, &mut sink).matches(), 1);
        assert_eq!(sink.matches, 1);
        assert_eq!(Fixed.count(b"0123456789").unwrap(), 1);
    }

    /// A baseline-shaped engine matching each digit of a record: build
    /// fails on an empty record, walk fails on `x`.
    fn digits(
        validation: crate::ValidationMode,
        record: &[u8],
        sink: &mut dyn MatchSink,
        metrics: Option<&crate::Metrics>,
    ) -> RecordOutcome {
        baseline_outcome(
            "digits",
            validation,
            record,
            0,
            sink,
            metrics,
            || {
                if record.is_empty() {
                    Err("empty")
                } else {
                    Ok(record)
                }
            },
            |built, out| {
                if built.contains(&b'x') {
                    return Err("bad digit");
                }
                let digits = built.iter().enumerate().filter(|(_, b)| b.is_ascii_digit());
                out.emit_spans(digits.map(|(i, _)| (i, i + 1)));
                Ok(())
            },
        )
    }

    #[test]
    fn baseline_outcome_maps_every_step() {
        use crate::ValidationMode::{Permissive, Strict};
        let mut sink = CountSink::default();
        let out = digits(Permissive, b"[1, 2, 3]", &mut sink, None);
        assert!(
            matches!(out, RecordOutcome::Complete { matches: 3 }),
            "{out:?}"
        );
        let mut first = FnSink::new(|_m: Match<'_>| ControlFlow::Break(()));
        let out = digits(Permissive, b"[1, 2, 3]", &mut first, None);
        assert!(
            matches!(out, RecordOutcome::Stopped { matches: 1 }),
            "{out:?}"
        );
        match digits(Permissive, b"", &mut sink, None) {
            RecordOutcome::Failed(e) => assert_eq!(e.to_string(), "digits: empty"),
            other => panic!("expected a build failure, got {other:?}"),
        }
        match digits(Permissive, b"[1, x]", &mut sink, None) {
            RecordOutcome::Failed(e) => assert_eq!(e.to_string(), "digits: bad digit"),
            other => panic!("expected a walk failure, got {other:?}"),
        }
        // Strict runs the shared pre-pass first; Permissive never does.
        let bad_utf8 = b"[1, \"\xFF\"]";
        assert!(!digits(Permissive, bad_utf8, &mut sink, None).is_failed());
        match digits(Strict, bad_utf8, &mut sink, None) {
            RecordOutcome::Failed(EngineError::Invalid { offset, reason }) => {
                assert_eq!((offset, reason), (5, crate::InvalidReason::Utf8));
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn baseline_outcome_accounts_under_a_live_registry() {
        use crate::ValidationMode::{Permissive, Strict};
        let metrics = crate::Metrics::new();
        let mut sink = CountSink::default();
        digits(Permissive, b"[1, 2]", &mut sink, Some(&metrics));
        digits(Permissive, b"", &mut sink, Some(&metrics));
        digits(Strict, b"[1, 2] 3", &mut sink, Some(&metrics));
        let disabled = crate::Metrics::disabled();
        digits(Permissive, b"[1]", &mut sink, Some(&disabled));
        assert_eq!(disabled.snapshot(), crate::MetricsSnapshot::default());
        let s = metrics.snapshot();
        assert_eq!(s.records_evaluated, 1);
        assert_eq!(s.matches_emitted, 2);
        assert_eq!(s.bytes_evaluated, 6);
        assert_eq!(s.records_failed, 2);
        assert_eq!(s.bytes_failed, 8);
        assert_eq!(s.build_ns + s.traverse_ns, s.eval_ns);
    }

    #[test]
    fn engine_error_display_and_source() {
        let e = EngineError::Stream(StreamError::Unbalanced { pos: 3 });
        assert!(e.to_string().contains("3"));
        assert!(Error::source(&e).is_some());
        let e = EngineError::Io(std::io::Error::other("boom"));
        assert!(e.to_string().contains("boom"));
        let e = EngineError::Engine {
            engine: "Pison",
            message: "bad".into(),
        };
        assert!(e.to_string().contains("Pison"));
        assert!(Error::source(&e).is_none());
    }

    #[test]
    fn panic_error_renders_and_is_resyncable() {
        let e = EngineError::Panic {
            record_idx: 7,
            payload: "index out of bounds".into(),
        };
        assert!(e.to_string().contains("record 7"));
        assert!(e.to_string().contains("index out of bounds"));
        assert!(Error::source(&e).is_none());
        // A panic poisons one record, not the stream: skipping policies
        // may continue past it.
        assert!(e.is_resyncable());
    }

    #[test]
    fn panic_payload_extraction() {
        let b: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_payload(b.as_ref()), "static str");
        let b: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_payload(b.as_ref()), "owned");
        let b: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_payload(b.as_ref()), "non-string panic payload");
    }

    #[test]
    fn error_policy_default_is_fail_fast() {
        assert_eq!(ErrorPolicy::default(), ErrorPolicy::FailFast);
    }

    #[test]
    fn invalid_error_is_typed_offset_bearing_and_resyncable() {
        let e = classify_stream_error(
            StreamError::Invalid {
                pos: 17,
                reason: crate::InvalidReason::LoneSurrogate,
            },
            &ResourceLimits::default(),
        );
        match &e {
            EngineError::Invalid { offset, reason } => {
                assert_eq!(*offset, 17);
                assert_eq!(*reason, crate::InvalidReason::LoneSurrogate);
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
        assert!(e.to_string().contains("byte 17"));
        assert!(e.to_string().contains("surrogate"));
        // One hostile record must not kill a skip-malformed stream.
        assert!(e.is_resyncable());
        assert!(Error::source(&e).is_none());
    }
}
