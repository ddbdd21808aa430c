//! Parallel record-batch pipeline with backpressure.
//!
//! The paper's small-records scenario assigns "each thread ... to process
//! one small record each time" (Figure 12). [`Pipeline`] generalizes that
//! runner into a subsystem usable with *any* engine ([`Evaluate`]) and *any*
//! record source ([`RecordSource`] — in-memory slices via [`SliceRecords`]
//! or bounded-memory readers via [`ChunkedRecords`]):
//!
//! * the caller thread reads records and shards them across a scoped worker
//!   pool through a **bounded queue** — when workers fall behind, the reader
//!   blocks instead of buffering the stream, so peak memory is
//!   `O(workers × queue_depth × record size)` regardless of stream length;
//! * workers evaluate records concurrently, collecting match spans;
//! * the caller merges results back **in record order**, so the sink
//!   observes exactly the sequence a serial loop would deliver, for any
//!   worker count.
//!
//! Early exit ([`ControlFlow::Break`] from the sink) and the
//! [`ErrorPolicy`] are honoured at the merge point: a break stops the
//! stream (records already dispatched may be evaluated speculatively, but
//! their matches are never delivered), and a failed record either aborts
//! the run ([`ErrorPolicy::FailFast`], in record order) or is reported to
//! [`MatchSink::on_record_error`] and skipped
//! ([`ErrorPolicy::SkipMalformed`]).
//!
//! # Fault tolerance
//!
//! Under [`ErrorPolicy::SkipMalformed`] the pipeline also survives *source*
//! errors, provided the source can resynchronize
//! ([`RecordSource::resync`]): the broken span is skipped, reported to
//! [`MatchSink::on_resync`] in the same merge-ordered position a serial run
//! would report it, counted in [`PipelineSummary::resyncs`], and the stream
//! continues. I/O errors are never recoverable. A [`ResourceLimits`]
//! attached with [`Pipeline::limits`] rejects oversized records before they
//! reach a worker, as ordinary per-record failures.
//!
//! # One merge step
//!
//! With `workers <= 1` the caller thread reads and evaluates one record at
//! a time; otherwise a worker pool evaluates and the caller merges. Both
//! loops share the limit rejection and the evaluation under
//! `catch_unwind`, and hand every record (and every resynchronization) to
//! the same in-order merge step, which alone decides what the sink sees:
//! replay, outcome accounting, the [`ErrorPolicy`], resync reporting and
//! checkpoints are each written once, so the callback sequence is
//! identical for every worker count.
//!
//! Matches are staged per record and replayed to the sink only after the
//! record evaluates cleanly, so a malformed record delivers *nothing*.
//! Because staging defers the sink, a sink's [`ControlFlow::Break`] cannot
//! stop a record's scan; [`Pipeline::max_matches`] can: the staging
//! collector stops the engine once a record has staged as many matches as
//! the run can still deliver.
//!
//! # Observability
//!
//! Attach a shared [`Metrics`] registry with [`Pipeline::metrics`] and the
//! run records queue occupancy, producer backpressure stalls, worker idle
//! waits, per-worker records/bytes, skipped-record counts, and — through
//! [`Evaluate::evaluate_metered`] — the engine's own byte-level and
//! fast-forward counters.
//!
//! # Crash safety
//!
//! Three mechanisms make a run survivable end-to-end:
//!
//! * **Panic isolation** — each record's evaluation runs inside
//!   [`std::panic::catch_unwind`], on both the worker and the serial
//!   path. A panic becomes an ordinary [`EngineError::Panic`] carrying
//!   the record's ordinal, flowing through the [`ErrorPolicy`] like any
//!   other per-record failure: [`ErrorPolicy::SkipMalformed`] skips it,
//!   [`ErrorPolicy::FailFast`] drains earlier results in order and
//!   aborts. One poisoned record never deadlocks the bounded queues or
//!   kills a worker thread.
//! * **Cooperative cancellation** — attach a
//!   [`CancellationToken`](crate::CancellationToken) with
//!   [`Pipeline::cancel_token`] and the producer stops reading at the
//!   next record boundary, workers finish what was already dispatched,
//!   the merge flushes every delivered result, and the summary reports
//!   [`cancelled`](PipelineSummary::cancelled) with the exact committed
//!   byte offset.
//! * **Checkpoints** — attach a
//!   [`CheckpointCadence`](crate::CheckpointCadence) with
//!   [`Pipeline::checkpoints`] and the in-order merge periodically calls
//!   [`MatchSink::on_checkpoint`] with the summary-so-far. Because the
//!   call sits *behind* the merge point, a checkpoint never claims work
//!   that was not already delivered to the sink.
//!
//! [`ChunkedRecords`]: crate::ChunkedRecords

use std::collections::{BTreeMap, VecDeque};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

use crate::cancel::CancellationToken;
use crate::checkpoint::CheckpointCadence;
use crate::evaluate::{
    panic_payload, EngineError, ErrorPolicy, Evaluate, Match, MatchSink, RecordOutcome,
};
use crate::limits::{LimitExceeded, ResourceLimits};
use crate::metrics::Metrics;
use crate::records::RecordSplitter;

/// A pull-based source of complete JSON records.
///
/// The returned slice borrows the source and is valid until the next call
/// (a lending iterator). Sources are consumed by [`Pipeline::run`] on the
/// caller thread, so they need not be `Send`.
pub trait RecordSource {
    /// Returns the next record's bytes, or `None` at end of stream.
    ///
    /// # Errors
    ///
    /// [`EngineError`] when the source cannot produce the next record
    /// (I/O failure, a record boundary that cannot be located, or a
    /// resource-limit rejection). Under [`ErrorPolicy::SkipMalformed`] the
    /// pipeline answers a recoverable source error
    /// ([`EngineError::is_resyncable`]) with [`resync`](Self::resync) and
    /// keeps going; I/O errors, and any error on a source that cannot
    /// resynchronize, abort the run.
    fn next_record(&mut self) -> Result<Option<&[u8]>, EngineError>;

    /// After [`next_record`](Self::next_record) returned an error, skips
    /// forward to the next record boundary so the stream can continue,
    /// returning the global byte span `(start, end)` that was abandoned.
    /// `Ok(None)` means the source cannot resynchronize (the default) and
    /// the pipeline propagates the original error.
    ///
    /// # Errors
    ///
    /// [`EngineError`] when the skip-ahead itself fails (e.g. I/O).
    fn resync(&mut self) -> Result<Option<(u64, u64)>, EngineError> {
        Ok(None)
    }

    /// The global byte offset just past the most recently returned record
    /// (or resynchronized span) — how far into the stream the source has
    /// consumed. `None` (the default) means the source cannot report
    /// offsets, which leaves [`PipelineSummary::committed_offset`] at 0
    /// and makes checkpoints carry counters only.
    fn consumed_offset(&self) -> Option<u64> {
        None
    }
}

/// [`RecordSource`] over an in-memory stream, using the bit-parallel
/// [`RecordSplitter`] to discover record boundaries.
#[derive(Debug)]
pub struct SliceRecords<'a> {
    splitter: RecordSplitter<'a>,
}

impl<'a> SliceRecords<'a> {
    /// Wraps `stream` (whitespace/newline-separated JSON values).
    pub fn new(stream: &'a [u8]) -> Self {
        SliceRecords {
            splitter: RecordSplitter::new(stream),
        }
    }
}

impl RecordSource for SliceRecords<'_> {
    fn next_record(&mut self) -> Result<Option<&[u8]>, EngineError> {
        match self.splitter.next() {
            None => Ok(None),
            Some(Ok((s, e))) => Ok(Some(&self.splitter.stream()[s..e])),
            Some(Err(e)) => Err(EngineError::Stream(e)),
        }
    }

    fn resync(&mut self) -> Result<Option<(u64, u64)>, EngineError> {
        Ok(self.splitter.resync().map(|(s, e)| (s as u64, e as u64)))
    }

    fn consumed_offset(&self) -> Option<u64> {
        Some(self.splitter.pos() as u64)
    }
}

impl<R: std::io::Read> RecordSource for crate::ChunkedRecords<R> {
    fn next_record(&mut self) -> Result<Option<&[u8]>, EngineError> {
        crate::ChunkedRecords::next_record(self).map_err(EngineError::from)
    }

    fn resync(&mut self) -> Result<Option<(u64, u64)>, EngineError> {
        crate::ChunkedRecords::resync(self).map_err(EngineError::from)
    }

    fn consumed_offset(&self) -> Option<u64> {
        Some(crate::ChunkedRecords::consumed_offset(self))
    }
}

/// Aggregate result of a [`Pipeline::run`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineSummary {
    /// Records whose outcome was merged (evaluated or skipped-as-failed).
    pub records: u64,
    /// Matches delivered to the sink, across all records (including the
    /// match the sink broke on, if any).
    pub matches: usize,
    /// Records skipped under [`ErrorPolicy::SkipMalformed`].
    pub failed: u64,
    /// Whether the sink stopped the stream early, or the run delivered
    /// its [`Pipeline::max_matches`].
    pub stopped: bool,
    /// Mid-stream resynchronizations: broken spans the source skipped over
    /// under [`ErrorPolicy::SkipMalformed`].
    pub resyncs: u64,
    /// Total bytes abandoned by those resynchronizations.
    pub resync_bytes: u64,
    /// Whether the run was ended early by cooperative cancellation (see
    /// [`Pipeline::cancel_token`]), including a source that shares the
    /// token and so reported the end of its stream. Everything counted
    /// above was still fully delivered before the run returned.
    pub cancelled: bool,
    /// High-water committed input offset: the global byte offset just past
    /// the last record (or resynchronized span) whose outcome was merged.
    /// Stays 0 when the source does not report offsets
    /// ([`RecordSource::consumed_offset`]).
    pub committed_offset: u64,
}

/// Parallel record-batch runner; see the module docs (source of `pipeline.rs`).
///
/// # Example
///
/// ```
/// use jsonski::{CountSink, JsonSki, Pipeline, SliceRecords};
///
/// let stream = b"{\"a\": 1}\n{\"b\": 2}\n{\"a\": 3}\n";
/// let engine = JsonSki::compile("$.a")?;
/// let mut sink = CountSink::default();
/// let summary = Pipeline::new()
///     .workers(4)
///     .run(&engine, &mut SliceRecords::new(stream), &mut sink)?;
/// assert_eq!(summary.records, 3);
/// assert_eq!(sink.matches, 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Pipeline {
    workers: usize,
    queue_depth: usize,
    policy: ErrorPolicy,
    limits: ResourceLimits,
    metrics: Option<Arc<Metrics>>,
    cancel: Option<CancellationToken>,
    checkpoints: Option<CheckpointCadence>,
    max_matches: usize,
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline::new()
    }
}

impl Pipeline {
    /// A pipeline with one worker per available core, queue depth 4,
    /// [`ErrorPolicy::FailFast`], no match cap, and no metrics registry.
    pub fn new() -> Self {
        Pipeline {
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            queue_depth: 4,
            policy: ErrorPolicy::default(),
            limits: ResourceLimits::default(),
            metrics: None,
            cancel: None,
            checkpoints: None,
            max_matches: usize::MAX,
        }
    }

    /// Sets the worker count. `0` or `1` selects the serial path.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the per-worker bound on in-flight records (min 1). Total
    /// buffered records never exceed `workers × queue_depth`.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Sets the policy for records that fail to evaluate.
    pub fn error_policy(mut self, policy: ErrorPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the resource limits the pipeline enforces *before* dispatching
    /// a record to a worker (currently
    /// [`max_record_bytes`](ResourceLimits::max_record_bytes); depth and
    /// deadline guards run inside the engine via
    /// [`EngineConfig::limits`](crate::EngineConfig)). An over-limit record
    /// is a per-record failure and respects the [`ErrorPolicy`].
    pub fn limits(mut self, limits: ResourceLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Attaches a shared observability registry; see the
    /// module docs (§Observability) for what gets recorded.
    pub fn metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attaches a cooperative cancellation token. When it trips, the run
    /// stops reading at the next record boundary, finishes records already
    /// dispatched, delivers them in order, and returns `Ok` with
    /// [`PipelineSummary::cancelled`] set — never an error, never a
    /// half-delivered record.
    pub fn cancel_token(mut self, token: CancellationToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Enables checkpointing at the given cadence:
    /// [`MatchSink::on_checkpoint`] is called from the in-order merge with
    /// the summary of everything delivered so far, plus once more when the
    /// run ends cleanly (complete, stopped, or cancelled). An error from
    /// the callback aborts the run — a checkpoint that cannot be persisted
    /// is an operational failure, not a per-record one.
    pub fn checkpoints(mut self, cadence: CheckpointCadence) -> Self {
        self.checkpoints = Some(cadence);
        self
    }

    /// Ends the run once `n` matches have been delivered, marking it
    /// [`stopped`](PipelineSummary::stopped); `0`, the default, means no
    /// cap. The cap reaches into evaluation: a record stops scanning as
    /// soon as it has staged as many matches as the run can still deliver,
    /// so the bytes after the last deliverable match are never examined.
    pub fn max_matches(mut self, n: usize) -> Self {
        self.max_matches = if n == 0 { usize::MAX } else { n };
        self
    }

    /// The attached registry, only when it actually records.
    fn live_metrics(&self) -> Option<&Metrics> {
        self.metrics.as_deref().filter(|m| m.is_enabled())
    }

    /// Whether the attached token (if any) has requested cancellation.
    fn is_cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(CancellationToken::is_cancelled)
    }

    /// Runs `engine` over every record of `source`, delivering matches to
    /// `sink` in record order.
    ///
    /// # Errors
    ///
    /// Source errors the [`ErrorPolicy`] cannot resynchronize past;
    /// evaluation errors under [`ErrorPolicy::FailFast`] (the first in
    /// record order); a failed checkpoint.
    pub fn run(
        &self,
        engine: &dyn Evaluate,
        source: &mut dyn RecordSource,
        sink: &mut dyn MatchSink,
    ) -> Result<PipelineSummary, EngineError> {
        if self.workers <= 1 {
            self.run_serial(engine, source, sink)
        } else {
            self.run_parallel(engine, source, sink)
        }
    }

    /// The serial loop: one record at a time on the caller thread, through
    /// one reused [`Collector`], replayed from the live record borrow.
    fn run_serial(
        &self,
        engine: &dyn Evaluate,
        source: &mut dyn RecordSource,
        sink: &mut dyn MatchSink,
    ) -> Result<PipelineSummary, EngineError> {
        let metrics = self.live_metrics();
        let mut merge = Merge::new(self, sink);
        let mut staged = Collector::default();
        loop {
            let go_on = match self.next_record(source) {
                Ok(None) => {
                    merge.summary.cancelled = self.is_cancelled();
                    break;
                }
                Err(e) => {
                    let (span, e) = self.resync(source, e)?;
                    merge.resync(span, &e)
                }
                Ok(Some(record)) => {
                    staged.stage(record, merge.room());
                    let error = self.reject(record.len()).or_else(|| {
                        evaluate_into(engine, 0, merge.record_idx, record, &mut staged, metrics)
                    });
                    let delivery = merge.replay(staged.source(record), &staged.spans, error);
                    // `record.len()` is the borrow's last use, so the source
                    // can then report the offset just past the record.
                    merge.record(record.len(), source.consumed_offset(), delivery)?
                }
            };
            if !go_on {
                break;
            }
        }
        merge.finish()
    }

    /// The next record, or `None` at the end of the stream or once the
    /// token has tripped: a run stops reading at a record boundary.
    fn next_record<'s>(
        &self,
        source: &'s mut dyn RecordSource,
    ) -> Result<Option<&'s [u8]>, EngineError> {
        if self.is_cancelled() {
            Ok(None)
        } else {
            source.next_record()
        }
    }

    /// Rejects a record over [`ResourceLimits::max_record_bytes`] before
    /// any evaluation work; the rejection is an ordinary record failure.
    fn reject(&self, len: usize) -> Option<EngineError> {
        if len <= self.limits.max_record_bytes {
            return None;
        }
        if let Some(m) = self.live_metrics() {
            m.record_limit_rejection();
        }
        Some(EngineError::Limit(LimitExceeded::RecordBytes {
            len,
            limit: self.limits.max_record_bytes,
        }))
    }

    /// Answers a source error. Under [`ErrorPolicy::SkipMalformed`] a
    /// resyncable error on a source that can resynchronize becomes the
    /// abandoned span, still paired with its error; anything else ends the
    /// run with the error.
    fn resync(
        &self,
        source: &mut dyn RecordSource,
        error: EngineError,
    ) -> Result<((u64, u64), EngineError), EngineError> {
        if self.policy != ErrorPolicy::SkipMalformed || !error.is_resyncable() {
            return Err(error);
        }
        match source.resync()? {
            Some(span) => Ok((span, error)),
            None => Err(error),
        }
    }

    fn run_parallel(
        &self,
        engine: &dyn Evaluate,
        source: &mut dyn RecordSource,
        sink: &mut dyn MatchSink,
    ) -> Result<PipelineSummary, EngineError> {
        let capacity = self.workers * self.queue_depth;
        let shared = Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                results: BTreeMap::new(),
                in_flight: 0,
                producer_done: false,
                stop: false,
            }),
            work_ready: Condvar::new(),
            result_ready: Condvar::new(),
        };
        let metrics = self.live_metrics();
        std::thread::scope(|scope| {
            for worker in 0..self.workers {
                let shared = &shared;
                scope.spawn(move || worker_loop(engine, shared, worker, metrics));
            }
            // Guard, not epilogue: this is how every return of the merge
            // (done, stopped, or failed) releases the workers. The merge
            // runs sink callbacks, and a panicking sink would otherwise
            // leave the scope join deadlocked on workers waiting for work.
            // By drop time every result the run will ever deliver has been
            // merged, so `stop` abandons nothing.
            let _release = ReleaseWorkers(&shared);
            self.produce_and_merge(source, sink, &shared, capacity)
        })
    }

    /// The caller thread's half of the parallel pipeline: reads records
    /// while queue capacity allows (backpressure) and feeds worker results
    /// to the [`Merge`] in merge order. Source errors and pre-dispatch limit
    /// rejections enter the merge sequence as ordinary entries, so the sink
    /// observes the exact callback order of a serial run for any worker
    /// count.
    fn produce_and_merge(
        &self,
        source: &mut dyn RecordSource,
        sink: &mut dyn MatchSink,
        shared: &Shared,
        capacity: usize,
    ) -> Result<PipelineSummary, EngineError> {
        let metrics = self.live_metrics();
        let mut merge = Merge::new(self, sink);
        let mut next_read = 0u64; // next merge ordinal to assign
        let mut next_merge = 0u64; // next merge ordinal to deliver
        let mut source_done = false;
        loop {
            // Merge every in-order result that is ready, without holding
            // the lock across sink callbacks.
            while let Some(item) = shared.take(next_merge) {
                next_merge += 1;
                let go_on = match item {
                    MergeItem::Source(resynced) => {
                        let (span, e) = resynced?;
                        merge.resync(span, &e)
                    }
                    MergeItem::Record {
                        len,
                        end,
                        staged: (record, spans),
                        error,
                    } => {
                        let delivery = merge.replay(&record, &spans, error);
                        merge.record(len, end, delivery)?
                    }
                };
                if !go_on {
                    return merge.finish();
                }
            }
            // Refill the queue up to the in-flight bound (backpressure).
            while !source_done {
                if shared.state.lock().unwrap().in_flight >= capacity {
                    if let Some(m) = metrics {
                        m.record_producer_stall();
                    }
                    break;
                }
                // Source errors and rejected records skip the workers: they
                // go straight into the merge sequence, behind every earlier
                // record, so a fatal source error ends the run only after
                // those records are delivered, as it would a serial run.
                let item = match self.next_record(source) {
                    Ok(None) => {
                        // Everything already dispatched still drains
                        // through the merge above before we return.
                        source_done = true;
                        merge.summary.cancelled = self.is_cancelled();
                        break;
                    }
                    Err(e) => {
                        let resynced = self.resync(source, e);
                        // Nothing is read past an error that ends the run.
                        source_done = resynced.is_err();
                        MergeItem::Source(resynced)
                    }
                    Ok(Some(record)) => match self.reject(record.len()) {
                        Some(e) => MergeItem::Record {
                            len: record.len(),
                            end: source.consumed_offset(),
                            staged: StagedMatches::default(),
                            error: Some(e),
                        },
                        None => {
                            let owned = record.to_vec();
                            // No record can deliver more than the run has
                            // left: earlier records in flight only lower it.
                            let job = (next_read, source.consumed_offset(), owned, merge.room());
                            let mut state = shared.state.lock().unwrap();
                            state.queue.push_back(job);
                            state.in_flight += 1;
                            if let Some(m) = metrics {
                                m.record_queue_occupancy(state.in_flight as u64);
                            }
                            drop(state);
                            shared.work_ready.notify_one();
                            next_read += 1;
                            continue;
                        }
                    },
                };
                let mut state = shared.state.lock().unwrap();
                state.results.insert(next_read, item);
                state.in_flight += 1;
                next_read += 1;
            }
            // Done when everything read has been merged.
            if source_done && next_merge == next_read {
                return merge.finish();
            }
            // Otherwise wait until the next in-order result lands.
            let mut state = shared.state.lock().unwrap();
            while !state.results.contains_key(&next_merge) {
                state = shared.result_ready.wait(state).unwrap();
            }
        }
    }
}

/// The one merge step of a run: every per-record decision, made in record
/// order for the serial loop and the parallel merge alike. It owns the
/// summary, the checkpoint cadence, the record ordinal and the sink; each
/// entry returns whether the run continues.
struct Merge<'a> {
    pipeline: &'a Pipeline,
    sink: &'a mut dyn MatchSink,
    metrics: Option<&'a Metrics>,
    summary: PipelineSummary,
    tracker: Option<CheckpointTracker>,
    /// Ordinal of the next record to merge (resyncs are not records).
    record_idx: u64,
}

impl<'a> Merge<'a> {
    fn new(pipeline: &'a Pipeline, sink: &'a mut dyn MatchSink) -> Self {
        Merge {
            pipeline,
            sink,
            metrics: pipeline.live_metrics(),
            summary: PipelineSummary::default(),
            tracker: pipeline.checkpoints.map(CheckpointTracker::new),
            record_idx: 0,
        }
    }

    /// The most matches the run can still deliver.
    fn room(&self) -> usize {
        self.pipeline.max_matches - self.summary.matches
    }

    /// Replays the next record's staged matches to the sink, at most
    /// [`room`](Self::room) of them, as borrowed [`Match`] handles over
    /// `record`. Returns how many were delivered (including the one the
    /// sink broke on) and whether the run ends here — the sink broke, or
    /// the run delivered its cap — or the error that voids the record.
    ///
    /// A failed record that staged as many matches as the run can still
    /// deliver delivers them instead: a worker's cap can exceed the room
    /// left at merge time (earlier records were still in flight), so it
    /// may scan on to a failure that a serial run, stopped at the cap,
    /// never reaches.
    #[inline]
    fn replay(
        &mut self,
        record: &[u8],
        spans: &[StagedSpan],
        error: Option<EngineError>,
    ) -> Result<(usize, bool), EngineError> {
        let room = self.room();
        if let Some(e) = error.filter(|_| spans.len() < room) {
            return Err(e);
        }
        for (i, &(span, query)) in spans.iter().take(room).enumerate() {
            let m = Match::new(self.record_idx, record, span).with_query(query);
            if self.sink.on_match(m).is_break() {
                return Ok((i + 1, true));
            }
        }
        let delivered = spans.len().min(room);
        Ok((delivered, delivered == room))
    }

    /// Merges one record: its length, the input offset just past it, and
    /// what [`replay`](Self::replay) made of it. A failure aborts the run
    /// under [`ErrorPolicy::FailFast`] and is reported and skipped under
    /// [`ErrorPolicy::SkipMalformed`].
    #[inline]
    fn record(
        &mut self,
        len: usize,
        end: Option<u64>,
        delivery: Result<(usize, bool), EngineError>,
    ) -> Result<bool, EngineError> {
        self.summary.records += 1;
        self.commit(end);
        let broke = match delivery {
            Ok((delivered, broke)) => {
                self.summary.matches += delivered;
                if let Some(m) = self.metrics {
                    m.record_delivered(delivered as u64, len as u64);
                }
                broke
            }
            Err(mut e) => {
                // Workers only know merge ordinals; stamp the true record
                // ordinal here, where it is known.
                if let EngineError::Panic { record_idx, .. } = &mut e {
                    *record_idx = self.record_idx;
                }
                match self.pipeline.policy {
                    ErrorPolicy::FailFast => return Err(e),
                    ErrorPolicy::SkipMalformed => {
                        self.summary.failed += 1;
                        if let Some(m) = self.metrics {
                            m.record_skipped_record();
                        }
                        self.sink.on_record_error(self.record_idx, &e).is_break()
                    }
                }
            }
        };
        if broke {
            self.summary.stopped = true;
            return Ok(false);
        }
        self.record_idx += 1;
        if self.tracker.as_mut().is_some_and(|t| t.due(len as u64)) {
            self.checkpoint()?;
        }
        Ok(true)
    }

    /// Merges one resynchronization: the global span the source abandoned
    /// and the error that caused it.
    fn resync(&mut self, span: (u64, u64), error: &EngineError) -> bool {
        self.summary.resyncs += 1;
        self.summary.resync_bytes += span.1 - span.0;
        self.commit(Some(span.1));
        if let Some(m) = self.metrics {
            m.record_resync(span.1 - span.0);
        }
        if self.sink.on_resync(span, error).is_break() {
            self.summary.stopped = true;
            return false;
        }
        true
    }

    /// Raises the committed offset to `end`, when the source reports it.
    fn commit(&mut self, end: Option<u64>) {
        if let Some(end) = end {
            self.summary.committed_offset = self.summary.committed_offset.max(end);
        }
    }

    /// Delivers one checkpoint callback, recording it in metrics.
    fn checkpoint(&mut self) -> Result<(), EngineError> {
        if let Some(m) = self.metrics {
            m.record_checkpoint();
        }
        self.sink.on_checkpoint(&self.summary)
    }

    /// Ends a cleanly ending run (complete, stopped, or cancelled) with
    /// its closing checkpoint, when checkpointing is on, so the caller's
    /// last durable state matches the returned summary.
    fn finish(mut self) -> Result<PipelineSummary, EngineError> {
        if self.tracker.is_some() {
            self.checkpoint()?;
        }
        Ok(self.summary)
    }
}

/// Counts merged records/bytes against a [`CheckpointCadence`].
struct CheckpointTracker {
    cadence: CheckpointCadence,
    records: u64,
    bytes: u64,
}

impl CheckpointTracker {
    fn new(cadence: CheckpointCadence) -> Self {
        CheckpointTracker {
            cadence,
            records: 0,
            bytes: 0,
        }
    }

    /// Accounts one merged record; `true` when a checkpoint is due (and
    /// the counters reset).
    fn due(&mut self, record_bytes: u64) -> bool {
        self.records += 1;
        self.bytes = self.bytes.saturating_add(record_bytes);
        if self.records >= self.cadence.every_records || self.bytes >= self.cadence.every_bytes {
            self.records = 0;
            self.bytes = 0;
            true
        } else {
            false
        }
    }
}

/// One staged match: its span within the record and its query ordinal.
type StagedSpan = ((usize, usize), usize);

/// A worker's output for one record: the record's bytes (moved back out of
/// the worker) plus the matches collected into them.
type StagedMatches = (Vec<u8>, Vec<StagedSpan>);

/// One entry in the in-order merge sequence.
enum MergeItem {
    /// A dispatched (or pre-rejected) record.
    Record {
        /// The record's byte length.
        len: usize,
        /// Global offset just past the record in the input stream, when
        /// the source reports offsets.
        end: Option<u64>,
        /// The record's bytes plus the matches collected into them. The
        /// worker moves its already-owned record out so replay can hand
        /// the sink borrowed [`Match`] handles.
        staged: StagedMatches,
        /// Why the record failed, if it did.
        error: Option<EngineError>,
    },
    /// A source error, as [`Pipeline::resync`] answered it: the skipped
    /// global span and the error that caused it, or the error that ends
    /// the run.
    Source(Result<((u64, u64), EngineError), EngineError>),
}

struct State {
    /// FIFO of records awaiting a worker: merge ordinal, end offset,
    /// record bytes, and the most matches the run could still deliver at
    /// dispatch.
    queue: VecDeque<(u64, Option<u64>, Vec<u8>, usize)>,
    /// Completed records awaiting in-order merging.
    results: BTreeMap<u64, MergeItem>,
    /// Records read from the source but not yet merged (queued, executing,
    /// or completed) — bounded by `workers × queue_depth`.
    in_flight: usize,
    producer_done: bool,
    stop: bool,
}

/// Drop guard that releases all workers: set the end flags and wake
/// everyone, tolerating a poisoned lock (the flags it writes are sound to
/// set whatever state the panic interrupted).
struct ReleaseWorkers<'a>(&'a Shared);

impl Drop for ReleaseWorkers<'_> {
    fn drop(&mut self) {
        let mut state = match self.0.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        state.producer_done = true;
        state.stop = true;
        drop(state);
        self.0.work_ready.notify_all();
    }
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when work arrives, capacity frees up, or the run ends.
    work_ready: Condvar,
    /// Signalled when a worker deposits a result.
    result_ready: Condvar,
}

impl Shared {
    /// Takes the result with merge ordinal `ord` if it has landed, freeing
    /// its in-flight slot.
    fn take(&self, ord: u64) -> Option<MergeItem> {
        let mut state = self.state.lock().unwrap();
        let item = state.results.remove(&ord)?;
        state.in_flight -= 1;
        drop(state);
        self.work_ready.notify_all();
        Some(item)
    }
}

/// Stages one record's matches as spans into the record, to be replayed
/// once the record evaluated cleanly. It stops the engine only at `cap`
/// staged matches, the most the run can still deliver; the sink's own
/// early exit is decided at replay time, where record order is known.
/// An engine that delivers its matches over a buffer other than the record
/// it was given gets that buffer copied, on the first match.
#[derive(Default)]
struct Collector {
    /// Address and length of the record under evaluation.
    record: (usize, usize),
    copy: Option<Vec<u8>>,
    spans: Vec<StagedSpan>,
    cap: usize,
}

impl Collector {
    /// Resets the collector for `record`, with room for `cap` matches.
    fn stage(&mut self, record: &[u8], cap: usize) {
        self.record = (record.as_ptr() as usize, record.len());
        self.copy = None;
        self.spans.clear();
        self.cap = cap;
    }

    /// The buffer the staged spans point into: `record`, unless the engine
    /// matched over another buffer.
    fn source<'a>(&'a self, record: &'a [u8]) -> &'a [u8] {
        self.copy.as_deref().unwrap_or(record)
    }
}

impl MatchSink for Collector {
    fn on_match(&mut self, m: Match<'_>) -> ControlFlow<()> {
        let buffer = m.record();
        if self.spans.is_empty() && (buffer.as_ptr() as usize, buffer.len()) != self.record {
            self.copy = Some(buffer.to_vec());
        }
        self.spans.push((m.span(), m.query()));
        if self.spans.len() >= self.cap {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

/// Evaluates one admitted record into `staged` (already
/// [`stage`](Collector::stage)d for it) as `worker`: worker 0 on the
/// serial path, one of the pool on the parallel one. A panic becomes an
/// [`EngineError::Panic`] carrying `idx` (the merge stamps the record
/// ordinal) and voids whatever the record staged.
#[inline]
fn evaluate_into(
    engine: &dyn Evaluate,
    worker: usize,
    idx: u64,
    record: &[u8],
    staged: &mut Collector,
    metrics: Option<&Metrics>,
) -> Option<EngineError> {
    // Unwind safety: the engine is `&dyn Evaluate` with no cross-record
    // mutable state (evaluation state is rebuilt per record), a torn stage
    // is cleared below, and metrics counters are monotone saturating adds
    // — a torn update is at worst an off-by-one count, never a broken
    // invariant.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Some(m) = metrics {
            m.record_worker(worker, record.len() as u64);
        }
        engine.evaluate_metered(record, idx, staged, metrics)
    }));
    match outcome {
        Ok(RecordOutcome::Failed(e)) => Some(e),
        Ok(_) => None,
        Err(p) => {
            if let Some(m) = metrics {
                m.record_worker_panic();
            }
            staged.spans.clear();
            Some(EngineError::Panic {
                record_idx: idx,
                payload: panic_payload(p.as_ref()),
            })
        }
    }
}

fn worker_loop(engine: &dyn Evaluate, shared: &Shared, worker: usize, metrics: Option<&Metrics>) {
    let mut state = shared.state.lock().unwrap();
    loop {
        if state.stop {
            return;
        }
        if let Some((idx, end, record, cap)) = state.queue.pop_front() {
            drop(state);
            let mut staged = Collector::default();
            staged.stage(&record, cap);
            let error = evaluate_into(engine, worker, idx, &record, &mut staged, metrics);
            let item = MergeItem::Record {
                len: record.len(),
                end,
                staged: (staged.copy.unwrap_or(record), staged.spans),
                error,
            };
            state = shared.state.lock().unwrap();
            state.results.insert(idx, item);
            shared.result_ready.notify_all();
        } else if state.producer_done {
            return;
        } else {
            if let Some(m) = metrics {
                m.record_worker_wait();
            }
            state = shared.work_ready.wait(state).unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::{CountSink, FnSink};
    use crate::JsonSki;

    fn stream_of(n: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..n {
            out.extend_from_slice(format!("{{\"a\": {i}, \"pad\": [{i}, {i}]}}\n").as_bytes());
        }
        out
    }

    /// A record source over a fixed list of slices; unlike
    /// [`SliceRecords`] it can feed records an unbalanced stream could
    /// never be split into.
    struct Fixed<'a>(std::vec::IntoIter<&'a [u8]>);

    impl RecordSource for Fixed<'_> {
        fn next_record(&mut self) -> Result<Option<&[u8]>, EngineError> {
            Ok(self.0.next())
        }
    }

    #[test]
    fn parallel_matches_serial_counts() {
        let stream = stream_of(100);
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 2, 4, 16] {
            let mut sink = CountSink::default();
            let summary = Pipeline::new()
                .workers(workers)
                .run(&engine, &mut SliceRecords::new(&stream), &mut sink)
                .unwrap();
            assert_eq!(summary.records, 100, "workers={workers}");
            assert_eq!(sink.matches, 100, "workers={workers}");
            assert_eq!(summary.matches, 100, "workers={workers}");
        }
    }

    #[test]
    fn merge_order_is_record_order_for_any_worker_count() {
        let stream = stream_of(60);
        let engine = JsonSki::compile("$.a").unwrap();
        let mut reference: Vec<(u64, Vec<u8>)> = Vec::new();
        {
            let mut sink = FnSink::new(|m: Match<'_>| {
                reference.push((m.record_idx(), m.bytes().to_vec()));
                ControlFlow::Continue(())
            });
            Pipeline::new()
                .workers(1)
                .run(&engine, &mut SliceRecords::new(&stream), &mut sink)
                .unwrap();
        }
        for workers in [4, 16] {
            let mut got: Vec<(u64, Vec<u8>)> = Vec::new();
            let mut sink = FnSink::new(|m: Match<'_>| {
                got.push((m.record_idx(), m.bytes().to_vec()));
                ControlFlow::Continue(())
            });
            Pipeline::new()
                .workers(workers)
                .queue_depth(2)
                .run(&engine, &mut SliceRecords::new(&stream), &mut sink)
                .unwrap();
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn early_exit_stops_the_stream() {
        let stream = stream_of(50);
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 4] {
            let mut seen = 0usize;
            let mut sink = FnSink::new(|_m: Match<'_>| {
                seen += 1;
                if seen == 3 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            let summary = Pipeline::new()
                .workers(workers)
                .run(&engine, &mut SliceRecords::new(&stream), &mut sink)
                .unwrap();
            assert!(summary.stopped, "workers={workers}");
            assert_eq!(seen, 3, "workers={workers}");
            assert_eq!(summary.matches, 3, "workers={workers}");
        }
    }

    #[test]
    fn fail_fast_aborts_in_record_order() {
        let mut stream = stream_of(10);
        stream.extend_from_slice(b"{\"a\" 1}\n"); // record 10: missing colon
        stream.extend_from_slice(&stream_of(5));
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 4] {
            let mut sink = CountSink::default();
            let err = Pipeline::new()
                .workers(workers)
                .run(&engine, &mut SliceRecords::new(&stream), &mut sink)
                .unwrap_err();
            assert!(matches!(err, EngineError::Stream(_)), "workers={workers}");
            assert_eq!(sink.matches, 10, "workers={workers}");
        }
    }

    #[test]
    fn skip_malformed_reports_and_continues() {
        let mut stream = stream_of(10);
        stream.extend_from_slice(b"{\"a\" 1}\n");
        stream.extend_from_slice(&stream_of(5));
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 4] {
            struct Recorder {
                matches: usize,
                errors: Vec<u64>,
            }
            impl MatchSink for Recorder {
                fn on_match(&mut self, _m: Match<'_>) -> ControlFlow<()> {
                    self.matches += 1;
                    ControlFlow::Continue(())
                }
                fn on_record_error(&mut self, idx: u64, _e: &EngineError) -> ControlFlow<()> {
                    self.errors.push(idx);
                    ControlFlow::Continue(())
                }
            }
            let mut sink = Recorder {
                matches: 0,
                errors: Vec::new(),
            };
            let summary = Pipeline::new()
                .workers(workers)
                .error_policy(ErrorPolicy::SkipMalformed)
                .run(&engine, &mut SliceRecords::new(&stream), &mut sink)
                .unwrap();
            assert_eq!(sink.matches, 15, "workers={workers}");
            assert_eq!(sink.errors, vec![10], "workers={workers}");
            assert_eq!(summary.failed, 1, "workers={workers}");
            assert_eq!(summary.records, 16, "workers={workers}");
        }
    }

    #[test]
    fn serial_stages_partial_matches_of_failed_records() {
        // `$[*]` delivers `3` from the malformed record before the missing
        // `]` is discovered; staging must withhold it under SkipMalformed,
        // exactly as the parallel merge does.
        let engine = JsonSki::compile("$[*]").unwrap();
        let mut delivered: Vec<Vec<u8>> = Vec::new();
        let mut sink = FnSink::new(|m: Match<'_>| {
            delivered.push(m.bytes().to_vec());
            ControlFlow::Continue(())
        });
        let records: Vec<&[u8]> = vec![b"[1, 2]", b"[3, 4", b"[5]"];
        let summary = Pipeline::new()
            .workers(1)
            .error_policy(ErrorPolicy::SkipMalformed)
            .run(&engine, &mut Fixed(records.into_iter()), &mut sink)
            .unwrap();
        assert_eq!(summary.failed, 1);
        assert_eq!(summary.matches, 3);
        assert_eq!(
            delivered,
            vec![b"1".to_vec(), b"2".to_vec(), b"5".to_vec()],
            "partial matches of the failed record must not be delivered"
        );
    }

    #[test]
    fn chunked_reader_source_works_in_parallel() {
        let stream = stream_of(40);
        let engine = JsonSki::compile("$.a").unwrap();
        let mut source = crate::ChunkedRecords::with_buffer_size(&stream[..], 32);
        let mut sink = CountSink::default();
        let summary = Pipeline::new()
            .workers(4)
            .run(&engine, &mut source, &mut sink)
            .unwrap();
        assert_eq!(summary.records, 40);
        assert_eq!(sink.matches, 40);
    }

    #[test]
    fn source_errors_abort_under_fail_fast() {
        let stream = b"{\"a\": 1}\n{\"a\": ";
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 4] {
            let err = Pipeline::new()
                .workers(workers)
                .run(
                    &engine,
                    &mut SliceRecords::new(stream),
                    &mut CountSink::default(),
                )
                .unwrap_err();
            assert!(matches!(err, EngineError::Stream(_)), "workers={workers}");
        }
    }

    #[test]
    fn source_errors_resync_when_skipping() {
        // A truncated trailing record breaks the *splitter*; SkipMalformed
        // resynchronizes past it and finishes the run cleanly.
        let stream = b"{\"a\": 1}\n{\"a\": ";
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 4] {
            let mut spans = Vec::new();
            struct Recorder<'a> {
                matches: usize,
                spans: &'a mut Vec<(u64, u64)>,
            }
            impl MatchSink for Recorder<'_> {
                fn on_match(&mut self, _m: Match<'_>) -> ControlFlow<()> {
                    self.matches += 1;
                    ControlFlow::Continue(())
                }
                fn on_resync(&mut self, span: (u64, u64), _e: &EngineError) -> ControlFlow<()> {
                    self.spans.push(span);
                    ControlFlow::Continue(())
                }
            }
            let mut sink = Recorder {
                matches: 0,
                spans: &mut spans,
            };
            let summary = Pipeline::new()
                .workers(workers)
                .error_policy(ErrorPolicy::SkipMalformed)
                .run(&engine, &mut SliceRecords::new(stream), &mut sink)
                .unwrap();
            assert_eq!(sink.matches, 1, "workers={workers}");
            assert_eq!(summary.records, 1, "workers={workers}");
            assert_eq!(summary.resyncs, 1, "workers={workers}");
            assert_eq!(summary.resync_bytes, 6, "workers={workers}");
            assert_eq!(spans, vec![(9, 15)], "workers={workers}");
        }
    }

    #[test]
    fn io_errors_never_resync() {
        // Fixed sources can't resync (default), and I/O errors must abort
        // even on sources that can.
        struct Broken(bool);
        impl RecordSource for Broken {
            fn next_record(&mut self) -> Result<Option<&[u8]>, EngineError> {
                if self.0 {
                    self.0 = false;
                    Ok(Some(b"{\"a\": 1}"))
                } else {
                    Err(EngineError::Io(std::io::Error::other("gone")))
                }
            }
            fn resync(&mut self) -> Result<Option<(u64, u64)>, EngineError> {
                panic!("resync must not be attempted for I/O errors");
            }
        }
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 4] {
            let err = Pipeline::new()
                .workers(workers)
                .error_policy(ErrorPolicy::SkipMalformed)
                .run(&engine, &mut Broken(true), &mut CountSink::default())
                .unwrap_err();
            assert!(matches!(err, EngineError::Io(_)), "workers={workers}");
        }
    }

    #[test]
    fn oversized_records_are_rejected_before_dispatch() {
        let engine = JsonSki::compile("$.a").unwrap();
        let records: Vec<&[u8]> = vec![
            b"{\"a\": 1}",
            b"{\"a\": 2, \"pad\": \"xxxxxxxxxxxxxxxx\"}",
            b"{\"a\": 3}",
        ];
        for workers in [1, 4] {
            let mut errors = Vec::new();
            struct Recorder<'a>(usize, &'a mut Vec<u64>);
            impl MatchSink for Recorder<'_> {
                fn on_match(&mut self, _m: Match<'_>) -> ControlFlow<()> {
                    self.0 += 1;
                    ControlFlow::Continue(())
                }
                fn on_record_error(&mut self, idx: u64, e: &EngineError) -> ControlFlow<()> {
                    assert!(matches!(e, EngineError::Limit(_)));
                    self.1.push(idx);
                    ControlFlow::Continue(())
                }
            }
            let mut sink = Recorder(0, &mut errors);
            let metrics = Arc::new(Metrics::new());
            let summary = Pipeline::new()
                .workers(workers)
                .error_policy(ErrorPolicy::SkipMalformed)
                .limits(crate::ResourceLimits::default().max_record_bytes(16))
                .metrics(Arc::clone(&metrics))
                .run(&engine, &mut Fixed(records.clone().into_iter()), &mut sink)
                .unwrap();
            assert_eq!(sink.0, 2, "workers={workers}");
            assert_eq!(*sink.1, vec![1], "workers={workers}");
            assert_eq!(summary.failed, 1, "workers={workers}");
            assert_eq!(summary.records, 3, "workers={workers}");
            let s = metrics.snapshot();
            assert_eq!(s.limit_rejections, 1, "workers={workers}");
            // Rejected before dispatch: the engine never evaluated it.
            assert_eq!(s.records_evaluated, 2, "workers={workers}");
        }
    }

    #[test]
    fn empty_stream_is_a_clean_run() {
        let engine = JsonSki::compile("$.a").unwrap();
        let mut sink = CountSink::default();
        let summary = Pipeline::new()
            .workers(4)
            .run(&engine, &mut SliceRecords::new(b"  \n "), &mut sink)
            .unwrap();
        assert_eq!(summary, PipelineSummary::default());
    }

    #[test]
    fn metrics_track_delivery_and_workers() {
        let stream = stream_of(50);
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 4] {
            let metrics = Arc::new(Metrics::new());
            let mut sink = CountSink::default();
            let summary = Pipeline::new()
                .workers(workers)
                .metrics(Arc::clone(&metrics))
                .run(&engine, &mut SliceRecords::new(&stream), &mut sink)
                .unwrap();
            let s = metrics.snapshot();
            assert_eq!(s.records_delivered, 50, "workers={workers}");
            assert_eq!(s.matches_delivered, 50, "workers={workers}");
            assert_eq!(s.records_evaluated, 50, "workers={workers}");
            assert_eq!(s.matches_emitted, 50, "workers={workers}");
            assert_eq!(
                s.bytes_delivered,
                stream.len() as u64 - 50, // newline separators are not record bytes
                "workers={workers}"
            );
            assert_eq!(s.worker_records.iter().sum::<u64>(), 50);
            assert!(s.overall_ff_ratio() > 0.0, "workers={workers}");
            assert_eq!(summary.matches, 50);
        }
    }

    #[test]
    fn skipped_record_contributes_zero_to_match_and_ff_counters() {
        // The same stream with and without a malformed record injected
        // must yield identical delivered-match and fast-forward byte
        // counters: a skipped record contributes exactly zero.
        let engine = JsonSki::compile("$[*]").unwrap();
        let clean: Vec<&[u8]> = vec![b"[1, 2]", b"[5, 6, 7]"];
        let bad: Vec<&[u8]> = vec![b"[1, 2]", b"[3, 4", b"[5, 6, 7]"];
        for workers in [1, 4] {
            let run = |records: Vec<&[u8]>| {
                let metrics = Arc::new(Metrics::new());
                let mut sink = CountSink::default();
                Pipeline::new()
                    .workers(workers)
                    .error_policy(ErrorPolicy::SkipMalformed)
                    .metrics(Arc::clone(&metrics))
                    .run(&engine, &mut Fixed(records.into_iter()), &mut sink)
                    .unwrap();
                (metrics.snapshot(), sink.matches)
            };
            let (s_clean, m_clean) = run(clean.clone());
            let (s_bad, m_bad) = run(bad.clone());
            assert_eq!(m_bad, m_clean, "workers={workers}");
            assert_eq!(
                s_bad.matches_delivered, s_clean.matches_delivered,
                "workers={workers}"
            );
            assert_eq!(s_bad.ff_skipped, s_clean.ff_skipped, "workers={workers}");
            assert_eq!(
                s_bad.bytes_evaluated, s_clean.bytes_evaluated,
                "workers={workers}"
            );
            assert_eq!(s_bad.records_skipped, 1, "workers={workers}");
            assert_eq!(s_bad.records_failed, 1, "workers={workers}");
            assert_eq!(s_bad.bytes_failed, 5, "workers={workers}");
        }
    }

    #[test]
    fn worker_panics_become_typed_errors_at_the_right_index() {
        let stream = stream_of(12);
        let engine = JsonSki::compile("$.a").unwrap();
        let plan = crate::faults::FaultPlan::new(0).panic_every(5); // records 4 and 9
        let injector = crate::faults::PanicInjector::new(&engine, &plan);
        for workers in [1, 2, 8] {
            let mut panics = Vec::new();
            struct Recorder<'a> {
                matches: usize,
                panics: &'a mut Vec<(u64, u64)>,
            }
            impl MatchSink for Recorder<'_> {
                fn on_match(&mut self, _m: Match<'_>) -> ControlFlow<()> {
                    self.matches += 1;
                    ControlFlow::Continue(())
                }
                fn on_record_error(&mut self, idx: u64, e: &EngineError) -> ControlFlow<()> {
                    match e {
                        EngineError::Panic { record_idx, .. } => {
                            self.panics.push((idx, *record_idx));
                        }
                        other => panic!("expected Panic, got {other}"),
                    }
                    ControlFlow::Continue(())
                }
            }
            let mut sink = Recorder {
                matches: 0,
                panics: &mut panics,
            };
            let metrics = Arc::new(Metrics::new());
            let summary = Pipeline::new()
                .workers(workers)
                .error_policy(ErrorPolicy::SkipMalformed)
                .metrics(Arc::clone(&metrics))
                .run(&injector, &mut SliceRecords::new(&stream), &mut sink)
                .unwrap();
            assert_eq!(summary.records, 12, "workers={workers}");
            assert_eq!(summary.failed, 2, "workers={workers}");
            assert_eq!(sink.matches, 10, "workers={workers}");
            // The error's own record_idx must agree with the callback's.
            assert_eq!(*sink.panics, vec![(4, 4), (9, 9)], "workers={workers}");
            assert_eq!(metrics.snapshot().worker_panics, 2, "workers={workers}");
        }
    }

    #[test]
    fn fail_fast_panic_drains_in_order_then_aborts() {
        let stream = stream_of(10);
        let engine = JsonSki::compile("$.a").unwrap();
        let plan = crate::faults::FaultPlan::new(0).panic_every(6); // record 5
        let injector = crate::faults::PanicInjector::new(&engine, &plan);
        for workers in [1, 4] {
            let mut sink = CountSink::default();
            let err = Pipeline::new()
                .workers(workers)
                .run(&injector, &mut SliceRecords::new(&stream), &mut sink)
                .unwrap_err();
            match err {
                EngineError::Panic { record_idx, .. } => {
                    assert_eq!(record_idx, 5, "workers={workers}")
                }
                other => panic!("expected Panic, got {other} (workers={workers})"),
            }
            // Everything before the panicked record was still delivered.
            assert_eq!(sink.matches, 5, "workers={workers}");
        }
    }

    #[test]
    fn sink_panic_joins_workers_instead_of_deadlocking() {
        // Without the ReleaseWorkers drop guard this test never returns:
        // the scope join waits on workers parked on the work condvar.
        let stream = stream_of(64);
        let engine = JsonSki::compile("$.a").unwrap();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut sink = FnSink::new(|m: Match<'_>| {
                let idx = m.record_idx();
                if idx == 3 {
                    panic!("sink exploded");
                }
                ControlFlow::Continue(())
            });
            Pipeline::new().workers(4).queue_depth(2).run(
                &engine,
                &mut SliceRecords::new(&stream),
                &mut sink,
            )
        }));
        assert!(result.is_err(), "the sink panic must propagate");
    }

    #[test]
    fn early_break_joins_workers_before_returning() {
        // `run` returns through `thread::scope`, which joins every worker;
        // observing an in-flight evaluation after `run` returned would mean
        // a leaked thread. The gauge engine counts entries and exits.
        use std::sync::atomic::{AtomicI64, Ordering};
        struct Gauge<'a> {
            inner: &'a JsonSki,
            active: &'a AtomicI64,
        }
        impl Evaluate for Gauge<'_> {
            fn name(&self) -> &'static str {
                "gauge"
            }
            fn evaluate_metered(
                &self,
                record: &[u8],
                record_idx: u64,
                sink: &mut dyn MatchSink,
                metrics: Option<&Metrics>,
            ) -> RecordOutcome {
                self.active.fetch_add(1, Ordering::SeqCst);
                let out = self
                    .inner
                    .evaluate_metered(record, record_idx, sink, metrics);
                self.active.fetch_sub(1, Ordering::SeqCst);
                out
            }
        }
        let stream = stream_of(200);
        let engine = JsonSki::compile("$.a").unwrap();
        let active = AtomicI64::new(0);
        let gauge = Gauge {
            inner: &engine,
            active: &active,
        };
        let mut sink = FnSink::new(|_m: Match<'_>| ControlFlow::Break(()));
        let summary = Pipeline::new()
            .workers(8)
            .run(&gauge, &mut SliceRecords::new(&stream), &mut sink)
            .unwrap();
        assert!(summary.stopped);
        assert_eq!(
            active.load(Ordering::SeqCst),
            0,
            "no worker may outlive the run"
        );
    }

    #[test]
    fn a_record_failing_past_the_cap_delivers_the_capped_prefix() {
        // Record 1 fails after its first match. A serial run reaches it
        // with room for one more match and stops its scan there; a worker
        // got it before record 0 was delivered, with room for three, and
        // scans on to the failure. Both must deliver the same prefix.
        let stream = b"{\"a\": [1, 2]}\n{\"a\": [3, 4}\n{\"a\": [7]}\n";
        let engine = JsonSki::compile("$.a[*]").unwrap();
        for workers in [1, 2] {
            for policy in [ErrorPolicy::FailFast, ErrorPolicy::SkipMalformed] {
                let mut got = Vec::new();
                let mut sink = FnSink::new(|m: Match<'_>| {
                    got.push(m.bytes().to_vec());
                    ControlFlow::Continue(())
                });
                let summary = Pipeline::new()
                    .workers(workers)
                    .error_policy(policy)
                    .max_matches(3)
                    .run(&engine, &mut SliceRecords::new(stream), &mut sink)
                    .unwrap();
                assert_eq!(got, [b"1", b"2", b"3"], "workers={workers} {policy:?}");
                assert!(summary.stopped && summary.failed == 0);
            }
        }
    }

    #[test]
    fn a_source_ended_by_the_token_counts_as_cancelled() {
        // The token trips while the reader is blocked in its last read
        // (as a signal does on stdin); the reader then reports a clean end
        // of stream, and the run must still say it was cancelled.
        struct TripOnEof<'a> {
            data: &'a [u8],
            token: crate::CancellationToken,
        }
        impl std::io::Read for TripOnEof<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.data.is_empty() {
                    self.token.cancel();
                    return Ok(0);
                }
                let n = buf.len().min(self.data.len());
                buf[..n].copy_from_slice(&self.data[..n]);
                self.data = &self.data[n..];
                Ok(n)
            }
        }
        let stream = stream_of(3);
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 2] {
            let token = crate::CancellationToken::new();
            let reader = TripOnEof {
                data: &stream,
                token: token.clone(),
            };
            let mut source = crate::ChunkedRecords::new(reader).cancel_token(token.clone());
            let mut sink = CountSink::default();
            let summary = Pipeline::new()
                .workers(workers)
                .cancel_token(token)
                .run(&engine, &mut source, &mut sink)
                .unwrap();
            assert!(summary.cancelled, "workers={workers}");
            assert_eq!(summary.records, 3, "workers={workers}");
        }
    }

    #[test]
    fn cancellation_drains_and_reports_committed_offset() {
        let stream = stream_of(30);
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 4] {
            let token = crate::CancellationToken::new();
            let trip = token.clone();
            let mut sink = FnSink::new(move |m: Match<'_>| {
                let idx = m.record_idx();
                if idx == 2 {
                    trip.cancel();
                }
                ControlFlow::Continue(())
            });
            let summary = Pipeline::new()
                .workers(workers)
                .cancel_token(token)
                .run(&engine, &mut SliceRecords::new(&stream), &mut sink)
                .unwrap();
            assert!(summary.cancelled, "workers={workers}");
            assert!(!summary.stopped, "workers={workers}");
            assert!(
                summary.records >= 3 && summary.records < 30,
                "workers={workers}, records={}",
                summary.records
            );
            // Everything dispatched was still delivered in order...
            assert_eq!(summary.matches as u64, summary.records, "workers={workers}");
            // ...and a second run from the committed offset covers the rest
            // of the stream exactly once.
            let rest = &stream[summary.committed_offset as usize..];
            let mut tail_sink = CountSink::default();
            let tail = Pipeline::new()
                .workers(workers)
                .run(&engine, &mut SliceRecords::new(rest), &mut tail_sink)
                .unwrap();
            assert_eq!(summary.records + tail.records, 30, "workers={workers}");
            assert_eq!(summary.matches + tail_sink.matches, 30, "workers={workers}");
        }
    }

    #[test]
    fn pre_cancelled_run_delivers_nothing() {
        let stream = stream_of(10);
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 4] {
            let token = crate::CancellationToken::new();
            token.cancel();
            let mut sink = CountSink::default();
            let summary = Pipeline::new()
                .workers(workers)
                .cancel_token(token)
                .run(&engine, &mut SliceRecords::new(&stream), &mut sink)
                .unwrap();
            assert!(summary.cancelled, "workers={workers}");
            assert_eq!(summary.records, 0, "workers={workers}");
            assert_eq!(sink.matches, 0, "workers={workers}");
        }
    }

    #[test]
    fn checkpoints_report_only_delivered_work() {
        let stream = stream_of(10);
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 4] {
            struct Recorder {
                matches: usize,
                checkpoints: Vec<PipelineSummary>,
            }
            impl MatchSink for Recorder {
                fn on_match(&mut self, _m: Match<'_>) -> ControlFlow<()> {
                    self.matches += 1;
                    ControlFlow::Continue(())
                }
                fn on_checkpoint(&mut self, summary: &PipelineSummary) -> Result<(), EngineError> {
                    // Invariant: a checkpoint never claims undelivered work.
                    assert_eq!(summary.matches, self.matches);
                    self.checkpoints.push(*summary);
                    Ok(())
                }
            }
            let mut sink = Recorder {
                matches: 0,
                checkpoints: Vec::new(),
            };
            let metrics = Arc::new(Metrics::new());
            let summary = Pipeline::new()
                .workers(workers)
                .metrics(Arc::clone(&metrics))
                .checkpoints(CheckpointCadence::default().every_records(3))
                .run(&engine, &mut SliceRecords::new(&stream), &mut sink)
                .unwrap();
            // Cadence checkpoints at records 3, 6, 9 plus the final one.
            assert_eq!(sink.checkpoints.len(), 4, "workers={workers}");
            let records: Vec<u64> = sink.checkpoints.iter().map(|s| s.records).collect();
            assert_eq!(records, vec![3, 6, 9, 10], "workers={workers}");
            assert!(
                sink.checkpoints
                    .windows(2)
                    .all(|w| w[0].committed_offset <= w[1].committed_offset),
                "workers={workers}"
            );
            assert_eq!(*sink.checkpoints.last().unwrap(), summary);
            assert_eq!(metrics.snapshot().checkpoints, 4, "workers={workers}");
        }
    }

    #[test]
    fn checkpoint_failure_aborts_the_run() {
        let stream = stream_of(20);
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 4] {
            struct Failing(usize);
            impl MatchSink for Failing {
                fn on_match(&mut self, _m: Match<'_>) -> ControlFlow<()> {
                    ControlFlow::Continue(())
                }
                fn on_checkpoint(&mut self, _s: &PipelineSummary) -> Result<(), EngineError> {
                    self.0 += 1;
                    Err(EngineError::Io(std::io::Error::other("disk full")))
                }
            }
            let mut sink = Failing(0);
            let err = Pipeline::new()
                .workers(workers)
                .checkpoints(CheckpointCadence::default().every_records(5))
                .run(&engine, &mut SliceRecords::new(&stream), &mut sink)
                .unwrap_err();
            assert!(matches!(err, EngineError::Io(_)), "workers={workers}");
            assert_eq!(sink.0, 1, "workers={workers}");
        }
    }

    #[test]
    fn committed_offset_spans_resyncs_and_records() {
        let stream = b"{\"a\": 1}\n{\"a\": \n{\"a\": 2}\n";
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 4] {
            let mut sink = CountSink::default();
            let summary = Pipeline::new()
                .workers(workers)
                .error_policy(ErrorPolicy::SkipMalformed)
                .run(&engine, &mut SliceRecords::new(stream), &mut sink)
                .unwrap();
            assert_eq!(summary.records, 2, "workers={workers}");
            assert_eq!(summary.resyncs, 1, "workers={workers}");
            // The high-water mark covers the final record.
            assert_eq!(
                summary.committed_offset,
                stream.len() as u64 - 1, // the trailing newline is never consumed
                "workers={workers}"
            );
        }
    }

    #[test]
    fn disabled_metrics_leave_no_trace() {
        let stream = stream_of(20);
        let engine = JsonSki::compile("$.a").unwrap();
        let metrics = Arc::new(Metrics::disabled());
        let mut sink = CountSink::default();
        Pipeline::new()
            .workers(4)
            .metrics(Arc::clone(&metrics))
            .run(&engine, &mut SliceRecords::new(&stream), &mut sink)
            .unwrap();
        assert_eq!(metrics.snapshot(), crate::MetricsSnapshot::default());
        assert_eq!(sink.matches, 20);
    }
}
