//! The unified sink-based evaluation API shared by every engine.
//!
//! The paper evaluates five systems (Table 2) that differ wildly in *how*
//! they locate matches — streaming with fast-forwarding, detailed streaming,
//! DOM trees, tapes, leveled bitmap indexes — but they all answer the same
//! question: *which byte spans of this record match the query?* This module
//! captures that contract once:
//!
//! * [`Match`] — one delivered match: record ordinal, normalized byte span,
//!   and a zero-copy [`LazyValue`](crate::LazyValue) handle over the record
//!   buffer. Construction goes through [`Match::new`], the single
//!   span-normalization point, so all five engines emit identical spans.
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
//! [`StreamOutcome::consumed`]: crate::StreamOutcome::consumed
//! [`Pipeline`]: crate::Pipeline

use std::error::Error;
use std::fmt;
use std::ops::ControlFlow;

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

/// One delivered match: which record it came from, its byte span within
/// that record, and zero-copy access to the matched bytes.
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
    record: &'a [u8],
    span: (usize, usize),
}

impl<'a> Match<'a> {
    /// Builds a match from a record buffer and a value span, normalizing
    /// the span.
    pub fn new(record_idx: u64, record: &'a [u8], span: (usize, usize)) -> Self {
        Match {
            record_idx,
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
/// [`Pipeline`]. For the preprocessing engines (DOM, tape, leveled index)
/// [`Evaluate::evaluate`] includes the preprocessing work, as in the paper's
/// measurements.
///
/// [`Pipeline`]: crate::Pipeline
pub trait Evaluate: Sync {
    /// The engine's display name (matching the paper's, e.g. `"JSONSki"`).
    fn name(&self) -> &'static str;

    /// Evaluates one record, delivering match spans to `sink`.
    ///
    /// Never panics on malformed input: failures are returned as
    /// [`RecordOutcome::Failed`].
    fn evaluate(&self, record: &[u8], record_idx: u64, sink: &mut dyn MatchSink) -> RecordOutcome;

    /// Evaluates one record while recording observability counters into
    /// `metrics` (the evaluated-side counters only — delivery accounting
    /// belongs to whoever owns the sink, e.g. the [`Pipeline`] merge).
    ///
    /// The default implementation wraps [`Evaluate::evaluate`] with the
    /// byte-level counters every engine shares — records, bytes, matches
    /// and total evaluation time — so all five engines report *comparable*
    /// numbers. Engines override it to add engine-specific detail: JSONSki
    /// contributes per-group fast-forward bytes and bitmap-word counts,
    /// the preprocessing engines split structure-building from traversal
    /// time.
    ///
    /// [`Pipeline`]: crate::Pipeline
    fn evaluate_metered(
        &self,
        record: &[u8],
        record_idx: u64,
        sink: &mut dyn MatchSink,
        metrics: &crate::Metrics,
    ) -> RecordOutcome {
        let sw = metrics.stopwatch();
        let outcome = self.evaluate(record, record_idx, sink);
        metrics.record_outcome(record.len(), &outcome);
        metrics.add_eval_ns(sw.elapsed_ns());
        outcome
    }

    /// Counts matches in one record (provided on top of
    /// [`Evaluate::evaluate`]).
    ///
    /// # Errors
    ///
    /// The [`EngineError`] of a failed record.
    fn count(&self, record: &[u8]) -> Result<usize, EngineError> {
        let mut sink = CountSink::default();
        match self.evaluate(record, 0, &mut sink) {
            RecordOutcome::Complete { matches } | RecordOutcome::Stopped { matches } => Ok(matches),
            RecordOutcome::Failed(e) => Err(e),
        }
    }
}

impl Evaluate for crate::JsonSki {
    fn name(&self) -> &'static str {
        "JSONSki"
    }

    fn evaluate(&self, record: &[u8], record_idx: u64, sink: &mut dyn MatchSink) -> RecordOutcome {
        let limits = self.config().limits;
        if record.len() > limits.max_record_bytes {
            return RecordOutcome::Failed(EngineError::Limit(LimitExceeded::RecordBytes {
                len: record.len(),
                limit: limits.max_record_bytes,
            }));
        }
        match self.stream(record, |m| sink.on_match(m.with_record_idx(record_idx))) {
            Ok(outcome) if outcome.stopped => RecordOutcome::Stopped {
                matches: outcome.matches,
            },
            Ok(outcome) => RecordOutcome::Complete {
                matches: outcome.matches,
            },
            Err(e) => RecordOutcome::Failed(classify_stream_error(e, &limits)),
        }
    }

    /// JSONSki's override reads the live [`StreamOutcome`] counters:
    /// per-group fast-forward bytes, bitmap words classified and cache
    /// hits, and the bitmap-construction vs. traversal time split. Failed
    /// records contribute nothing to the fast-forward or bitmap counters.
    ///
    /// [`StreamOutcome`]: crate::StreamOutcome
    fn evaluate_metered(
        &self,
        record: &[u8],
        record_idx: u64,
        sink: &mut dyn MatchSink,
        metrics: &crate::Metrics,
    ) -> RecordOutcome {
        if !metrics.is_enabled() {
            return self.evaluate(record, record_idx, sink);
        }
        let limits = self.config().limits;
        if record.len() > limits.max_record_bytes {
            let ro = RecordOutcome::Failed(EngineError::Limit(LimitExceeded::RecordBytes {
                len: record.len(),
                limit: limits.max_record_bytes,
            }));
            metrics.record_limit_rejection();
            metrics.record_outcome(record.len(), &ro);
            return ro;
        }
        let sw = metrics.stopwatch();
        match self.stream(record, |m| sink.on_match(m.with_record_idx(record_idx))) {
            Ok(outcome) => {
                let eval_ns = sw.elapsed_ns();
                metrics.record_fast_forward(&outcome.stats);
                metrics.record_bitmap(outcome.words_classified as u64, outcome.word_cache_hits);
                metrics.add_eval_ns(eval_ns);
                metrics.add_build_ns(outcome.classify_ns);
                metrics.add_traverse_ns(eval_ns.saturating_sub(outcome.classify_ns));
                let ro = if outcome.stopped {
                    RecordOutcome::Stopped {
                        matches: outcome.matches,
                    }
                } else {
                    RecordOutcome::Complete {
                        matches: outcome.matches,
                    }
                };
                metrics.record_outcome(record.len(), &ro);
                ro
            }
            Err(e) => {
                metrics.add_eval_ns(sw.elapsed_ns());
                let ro = RecordOutcome::Failed(classify_stream_error(e, &limits));
                if matches!(ro, RecordOutcome::Failed(EngineError::Limit(_))) {
                    metrics.record_limit_rejection();
                }
                metrics.record_outcome(record.len(), &ro);
                ro
            }
        }
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
        let outcome = engine.evaluate_metered(json, 0, &mut sink, &metrics);
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
        let outcome = engine.evaluate_metered(b"[3, 4", 0, &mut sink, &metrics);
        assert!(outcome.is_failed());
        let s = metrics.snapshot();
        assert_eq!(s.matches_emitted, 0);
        assert_eq!(s.records_failed, 1);
        assert_eq!(s.bytes_failed, 5);
        assert_eq!(s.bytes_evaluated, 0);
        assert_eq!(s.ff_skipped.iter().sum::<u64>(), 0);
    }

    #[test]
    fn default_evaluate_metered_counts_comparable_bytes() {
        // Exercise the trait's provided implementation through an engine
        // with no override.
        struct Fixed;
        impl Evaluate for Fixed {
            fn name(&self) -> &'static str {
                "fixed"
            }
            fn evaluate(
                &self,
                _record: &[u8],
                record_idx: u64,
                sink: &mut dyn MatchSink,
            ) -> RecordOutcome {
                let _ = sink.on_match(Match::new(record_idx, b"x", (0, 1)));
                RecordOutcome::Complete { matches: 1 }
            }
        }
        let metrics = crate::Metrics::new();
        let mut sink = CountSink::default();
        Fixed.evaluate_metered(b"0123456789", 0, &mut sink, &metrics);
        let s = metrics.snapshot();
        assert_eq!(s.records_evaluated, 1);
        assert_eq!(s.bytes_evaluated, 10);
        assert_eq!(s.matches_emitted, 1);
        assert_eq!(s.words_classified, 0); // engine-specific, not provided
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
