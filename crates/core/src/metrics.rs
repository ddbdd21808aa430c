//! Engine-wide observability: atomic counters and histograms for the
//! quantities the paper's evaluation is built on.
//!
//! The registry ([`Metrics`]) is zero-dependency and thread-safe: every
//! counter is a saturating [`AtomicU64`], so one registry can be shared by
//! all workers of a [`Pipeline`](crate::Pipeline) without locks. It records
//! three families of measurements:
//!
//! * **Fast-forward accounting** — per-record skipped bytes per group
//!   (G1–G5, the paper's Table 6 / Figure 13 metric) against the bytes
//!   evaluated, fed by the live engine counters rather than recomputed
//!   estimates.
//! * **Bitmap work** — 64-byte words classified, word-cache hits, and (with
//!   the `metrics` cargo feature) bitmap-construction vs. traversal
//!   nanoseconds, the split simdjson-style papers use to attribute time.
//! * **Pipeline health** — queue occupancy, producer backpressure stalls,
//!   worker idle waits, per-worker records/bytes, and skipped-malformed
//!   counts.
//!
//! # Cost model
//!
//! Byte-level counters are always compiled; they cost one relaxed atomic
//! add per record-level event and nothing at all when no registry is
//! attached (every instrumented call site takes an `Option`/runtime-checked
//! registry). Time-resolved instrumentation (clock reads in [`Stopwatch`],
//! per-word classification timing, cache-hit tracking) is additionally
//! gated behind the `metrics` cargo feature so the default build's hot
//! loops contain no clock calls whatsoever.
//!
//! # Snapshots
//!
//! Reading the registry produces a plain-data [`MetricsSnapshot`]; two
//! snapshots [`diff`](MetricsSnapshot::diff) into the activity between
//! them, which is how per-query or per-phase numbers are carved out of a
//! shared registry.
//!
//! Each engine counter is declared once, in the `engine_counters!` table
//! below (doc, name, and kind: a `u64` scalar, a per-group or per-worker
//! array, or a [`HistogramSnapshot`]); the registry's fields, `snapshot`,
//! the snapshot's fields, `diff` and [`pairs`](MetricsSnapshot::pairs) are
//! generated from it. [`render_pairs`] is the one renderer of every text
//! and JSON form: `engine_<name> <value>` lines ([`fmt::Display`]) or one
//! compact object ([`MetricsSnapshot::to_json`]), same names, same order.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::stats::{FastForwardStats, Group};

/// Number of histogram buckets: bucket `0` holds zero-valued samples,
/// bucket `i` (1–14) holds samples in `[2^(i-1), 2^i)`, and the last
/// bucket absorbs everything at or above `2^14` (clamping, not dropping).
pub const HISTOGRAM_BUCKETS: usize = 16;

/// Per-worker counters are kept for the first `MAX_TRACKED_WORKERS`
/// workers; higher worker ordinals fold into the last slot.
pub const MAX_TRACKED_WORKERS: usize = 16;

/// Saturating relaxed add: counters stick at `u64::MAX` instead of
/// wrapping, so long-running registries degrade to "a lot" rather than
/// to garbage.
#[inline]
fn sat_add(counter: &AtomicU64, n: u64) {
    if n == 0 {
        return;
    }
    let _ = counter.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_add(n))
    });
}

/// Log2-bucketed histogram of `u64` samples with saturating counts.
#[derive(Debug, Default)]
struct AtomicHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl AtomicHistogram {
    /// The bucket index for `value` (clamped into the last bucket).
    #[inline]
    fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    #[inline]
    fn observe(&self, value: u64) {
        let _ = self.buckets[Self::bucket_of(value)].fetch_update(
            Ordering::Relaxed,
            Ordering::Relaxed,
            |v| Some(v.saturating_add(1)),
        );
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: Kind::load(&self.buckets),
        }
    }
}

/// Point-in-time view of a histogram; plain data.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Saturating per-bucket sample counts; see [`HISTOGRAM_BUCKETS`] for
    /// the bucket boundaries.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// Total samples across all buckets (saturating).
    pub fn count(&self) -> u64 {
        self.buckets
            .iter()
            .fold(0u64, |acc, &b| acc.saturating_add(b))
    }

    /// The activity between an `earlier` snapshot and `self`, bucketwise
    /// (saturating, so a reset registry yields zeros rather than wrapping).
    pub fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: Kind::diff(&self.buckets, &earlier.buckets),
        }
    }

    /// The inclusive lower bound of bucket `i`'s value range.
    pub fn bucket_floor(i: usize) -> u64 {
        match i {
            0 => 0,
            _ => 1u64 << (i - 1),
        }
    }
}

/// Monotonic stopwatch handed out by [`Metrics::stopwatch`]. A no-op
/// (always reads 0 ns) unless the `metrics` cargo feature is enabled *and*
/// the registry is recording, so disabled builds pay no clock calls.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    #[cfg(feature = "metrics")]
    start: Option<std::time::Instant>,
}

impl Stopwatch {
    fn armed(on: bool) -> Self {
        #[cfg(feature = "metrics")]
        {
            Stopwatch {
                start: on.then(std::time::Instant::now),
            }
        }
        #[cfg(not(feature = "metrics"))]
        {
            let _ = on;
            Stopwatch {}
        }
    }

    /// Nanoseconds since the stopwatch was armed (0 when disarmed).
    pub fn elapsed_ns(&self) -> u64 {
        #[cfg(feature = "metrics")]
        {
            self.start.map_or(0, |s| {
                u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX)
            })
        }
        #[cfg(not(feature = "metrics"))]
        {
            0
        }
    }
}

/// Writes `(name, value)` pairs as one `{prefix}{name} {value}` line each
/// (`text_prefix` given) or as one compact JSON object
/// `{"name":value,...}`. Values are written as they display, so each must
/// already be a JSON literal (a number, array, object or quoted string).
pub fn render_pairs<V: fmt::Display>(
    out: &mut impl fmt::Write,
    pairs: &[(&str, V)],
    text_prefix: Option<&str>,
) -> fmt::Result {
    if let Some(prefix) = text_prefix {
        return pairs
            .iter()
            .try_for_each(|(name, v)| writeln!(out, "{prefix}{name} {v}"));
    }
    out.write_char('{')?;
    for (i, (name, v)) in pairs.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        write!(out, "{sep}\"{name}\":{v}")?;
    }
    out.write_char('}')
}

/// What the counter table needs of each counter kind, implemented by the
/// kind's snapshot type.
trait Kind: Sized {
    /// The registry's atomic storage for one counter of this kind.
    type Cell: Default + fmt::Debug;
    fn load(cell: &Self::Cell) -> Self;
    /// Saturating, so a diff against a later snapshot yields zeros.
    fn diff(&self, earlier: &Self) -> Self;
    /// The value as a JSON literal.
    fn render(&self) -> String;
}

impl Kind for u64 {
    type Cell = AtomicU64;
    fn load(cell: &AtomicU64) -> u64 {
        cell.load(Ordering::Relaxed)
    }
    fn diff(&self, earlier: &u64) -> u64 {
        self.saturating_sub(*earlier)
    }
    fn render(&self) -> String {
        self.to_string()
    }
}

impl<const N: usize> Kind for [u64; N]
where
    [AtomicU64; N]: Default,
{
    type Cell = [AtomicU64; N];
    fn load(cell: &Self::Cell) -> Self {
        std::array::from_fn(|i| cell[i].load(Ordering::Relaxed))
    }
    fn diff(&self, earlier: &Self) -> Self {
        std::array::from_fn(|i| self[i].saturating_sub(earlier[i]))
    }
    fn render(&self) -> String {
        let items: Vec<String> = self.iter().map(u64::to_string).collect();
        format!("[{}]", items.join(","))
    }
}

impl Kind for HistogramSnapshot {
    type Cell = AtomicHistogram;
    fn load(cell: &AtomicHistogram) -> Self {
        cell.snapshot()
    }
    fn diff(&self, earlier: &Self) -> Self {
        HistogramSnapshot::diff(self, earlier)
    }
    fn render(&self) -> String {
        self.buckets.render()
    }
}

/// Generates the registry and its snapshot from the counter table; see
/// the module docs. `=> "name"` exports a counter under another name.
macro_rules! engine_counters {
    ($( $(#[$doc:meta])* $name:ident: $kind:ty $(=> $export:literal)?, )*) => {
        /// The engine-wide metrics registry; see the [module docs](self).
        ///
        /// Create one with [`Metrics::new`] (recording) or
        /// [`Metrics::disabled`] (every method is a cheap early-out), share
        /// it by reference or `Arc`, and read it with [`Metrics::snapshot`].
        #[derive(Debug)]
        pub struct Metrics {
            enabled: bool,
            $( $(#[$doc])* $name: <$kind as Kind>::Cell, )*
        }

        impl Metrics {
            fn with_enabled(enabled: bool) -> Self {
                Metrics { enabled, $( $name: Default::default(), )* }
            }

            /// A point-in-time copy of every counter.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot { $( $name: <$kind as Kind>::load(&self.$name), )* }
            }
        }

        /// Plain-data view of a [`Metrics`] registry at one instant.
        ///
        /// All counters are saturating; see the field docs on [`Metrics`]'s
        /// recording methods for their exact semantics.
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $( $(#[$doc])* pub $name: $kind, )*
        }

        impl MetricsSnapshot {
            /// The activity between an `earlier` snapshot and `self`,
            /// fieldwise (saturating subtraction throughout).
            pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot { $( $name: Kind::diff(&self.$name, &earlier.$name), )* }
            }

            /// Every counter as `(name, JSON value)` in table order, with
            /// the derived overall `ff_ratio` right after `ff_skipped`: the
            /// list [`to_json`](Self::to_json) and [`fmt::Display`] render.
            pub fn pairs(&self) -> Vec<(&'static str, String)> {
                // An entry's name is its `=> "name"` if it has one.
                let mut pairs =
                    vec![$(([$($export,)? stringify!($name)][0], self.$name.render()),)*];
                let ff = pairs.iter().position(|(n, _)| *n == "ff_skipped");
                let at = ff.expect("the table declares ff_skipped") + 1;
                pairs.insert(at, ("ff_ratio", format!("{:.6}", self.overall_ff_ratio())));
                pairs
            }
        }
    };
}

engine_counters! {
    // --- evaluated side (work performed by engines) ---
    /// Records that evaluated cleanly (complete or stopped early).
    records_evaluated: u64,
    /// Cleanly evaluated records whose sink stopped the scan early.
    records_stopped: u64,
    /// Records whose evaluation failed.
    records_failed: u64,
    /// Matches emitted by engines while evaluating (work performed, which
    /// under a speculating pipeline can exceed what was delivered).
    matches_emitted: u64,
    /// Bytes of cleanly evaluated records.
    bytes_evaluated: u64,
    /// Bytes of failed records.
    bytes_failed: u64,
    /// Fast-forwarded bytes per group G1–G5 (indexed by
    /// [`Group::index`]); failed records contribute zero.
    ff_skipped: [u64; 5],
    /// 64-byte words run through the bit-parallel classifier.
    words_classified: u64,
    /// Word requests served by the single-word bitmap cache (0 without
    /// the `metrics` cargo feature).
    word_cache_hits: u64,
    /// Total evaluation nanoseconds (0 without the `metrics` feature).
    eval_ns: u64,
    /// Structure-building nanoseconds: bitmap construction for streaming
    /// engines, tape/DOM/index building for preprocessing engines (0
    /// without the `metrics` feature).
    build_ns: u64,
    /// Traversal nanoseconds, i.e. evaluation excluding structure
    /// building (0 without the `metrics` feature).
    traverse_ns: u64,
    /// Histogram of evaluated record sizes in bytes.
    record_bytes: HistogramSnapshot => "record_bytes_hist",

    // --- delivered side (what the caller's sink observed, in order) ---
    /// Records whose matches were delivered to the caller's sink.
    records_delivered: u64,
    /// Matches actually delivered to the caller's sink, in record order.
    matches_delivered: u64,
    /// Bytes of records whose matches were delivered.
    bytes_delivered: u64,
    /// Records skipped under `SkipMalformed`.
    records_skipped: u64,

    // --- robustness (degraded-input handling) ---
    /// Transient I/O errors retried transparently by the reader.
    io_retries: u64,
    /// Mid-stream resynchronizations (forward scans to the next record
    /// boundary after a broken record).
    resyncs: u64,
    /// Bytes skipped over by resynchronizations.
    resync_bytes: u64,
    /// Records rejected by a [`ResourceLimits`](crate::ResourceLimits)
    /// guard (size, depth, buffer, or deadline).
    limit_rejections: u64,
    /// Records cut off by the end of the stream.
    truncated_records: u64,
    /// Evaluation panics caught and converted into per-record failures.
    worker_panics: u64,
    /// Checkpoint callbacks delivered from the in-order merge.
    checkpoints: u64,

    // --- pipeline health ---
    /// Producer stalls on the pipeline's bounded queue (backpressure).
    producer_stalls: u64,
    /// Worker waits for work on the pipeline's queue.
    worker_idle_waits: u64,
    /// Histogram of in-flight record counts sampled at enqueue time.
    queue_occupancy: HistogramSnapshot => "queue_occupancy_hist",
    /// Records handled per worker (first [`MAX_TRACKED_WORKERS`] slots).
    worker_records: [u64; MAX_TRACKED_WORKERS],
    /// Bytes handled per worker (first [`MAX_TRACKED_WORKERS`] slots).
    worker_bytes: [u64; MAX_TRACKED_WORKERS],
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// A recording registry.
    pub fn new() -> Self {
        Metrics::with_enabled(true)
    }

    /// A registry whose every recording method is a cheap early-out;
    /// useful as a default argument for instrumented call paths.
    pub fn disabled() -> Self {
        Metrics::with_enabled(false)
    }

    /// Whether the registry records anything at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// A stopwatch armed only when this registry records *and* the
    /// `metrics` cargo feature compiled clock calls in.
    #[inline]
    pub fn stopwatch(&self) -> Stopwatch {
        Stopwatch::armed(self.enabled)
    }

    /// Records the evaluated-side counters for one record attempt.
    pub fn record_outcome(&self, record_len: usize, outcome: &crate::RecordOutcome) {
        if !self.enabled {
            return;
        }
        let len = record_len as u64;
        self.record_bytes.observe(len);
        match outcome {
            crate::RecordOutcome::Complete { matches } => {
                sat_add(&self.records_evaluated, 1);
                sat_add(&self.bytes_evaluated, len);
                sat_add(&self.matches_emitted, *matches as u64);
            }
            crate::RecordOutcome::Stopped { matches } => {
                sat_add(&self.records_evaluated, 1);
                sat_add(&self.records_stopped, 1);
                sat_add(&self.bytes_evaluated, len);
                sat_add(&self.matches_emitted, *matches as u64);
            }
            crate::RecordOutcome::Failed(_) => {
                sat_add(&self.records_failed, 1);
                sat_add(&self.bytes_failed, len);
            }
        }
    }

    /// Folds one record's fast-forward statistics into the per-group byte
    /// counters. Callers only invoke this for records that evaluated
    /// cleanly, so failed records contribute zero here by construction.
    pub fn record_fast_forward(&self, stats: &FastForwardStats) {
        if !self.enabled {
            return;
        }
        for g in Group::ALL {
            sat_add(&self.ff_skipped[g.index()], stats.skipped(g));
        }
    }

    /// Records bitmap work: 64-byte words classified and word-cache hits.
    pub fn record_bitmap(&self, words_classified: u64, cache_hits: u64) {
        if !self.enabled {
            return;
        }
        sat_add(&self.words_classified, words_classified);
        sat_add(&self.word_cache_hits, cache_hits);
    }

    /// Adds total evaluation wall time (engine entry to outcome).
    pub fn add_eval_ns(&self, ns: u64) {
        if self.enabled {
            sat_add(&self.eval_ns, ns);
        }
    }

    /// Adds one evaluation's wall time, `eval_ns`, split into `build_ns`
    /// of structure building (bitmaps for the streaming engines; the DOM,
    /// tape or index for the preprocessing ones) and traversal, the rest.
    pub fn add_eval_split_ns(&self, build_ns: u64, eval_ns: u64) {
        if self.enabled {
            sat_add(&self.build_ns, build_ns);
            sat_add(&self.traverse_ns, eval_ns.saturating_sub(build_ns));
            sat_add(&self.eval_ns, eval_ns);
        }
    }

    /// Records one record whose matches were delivered to the caller's
    /// sink (serial in-place delivery or the pipeline's in-order merge).
    pub fn record_delivered(&self, matches: u64, record_bytes: u64) {
        if !self.enabled {
            return;
        }
        sat_add(&self.records_delivered, 1);
        sat_add(&self.matches_delivered, matches);
        sat_add(&self.bytes_delivered, record_bytes);
    }

    /// Records one record skipped under
    /// [`ErrorPolicy::SkipMalformed`](crate::ErrorPolicy::SkipMalformed).
    pub fn record_skipped_record(&self) {
        if self.enabled {
            sat_add(&self.records_skipped, 1);
        }
    }

    /// Records one transparently retried transient I/O error
    /// (`Interrupted`, or `WouldBlock`/`TimedOut` within the reader's
    /// [`RetryPolicy`](crate::RetryPolicy) budget).
    pub fn record_io_retry(&self) {
        if self.enabled {
            sat_add(&self.io_retries, 1);
        }
    }

    /// Records one mid-stream resynchronization that skipped `bytes` bytes
    /// to reach the next record boundary.
    pub fn record_resync(&self, bytes: u64) {
        if !self.enabled {
            return;
        }
        sat_add(&self.resyncs, 1);
        sat_add(&self.resync_bytes, bytes);
    }

    /// Records one record rejected by a
    /// [`ResourceLimits`](crate::ResourceLimits) guard.
    pub fn record_limit_rejection(&self) {
        if self.enabled {
            sat_add(&self.limit_rejections, 1);
        }
    }

    /// Records one record cut off by the end of the stream (unterminated
    /// final record).
    pub fn record_truncated_record(&self) {
        if self.enabled {
            sat_add(&self.truncated_records, 1);
        }
    }

    /// Records one evaluation panic caught and converted into
    /// [`EngineError::Panic`](crate::EngineError::Panic) by the pipeline.
    pub fn record_worker_panic(&self) {
        if self.enabled {
            sat_add(&self.worker_panics, 1);
        }
    }

    /// Records one checkpoint callback delivered from the in-order merge.
    pub fn record_checkpoint(&self) {
        if self.enabled {
            sat_add(&self.checkpoints, 1);
        }
    }

    /// Samples the work-queue occupancy observed while enqueuing.
    pub fn record_queue_occupancy(&self, in_flight: u64) {
        if self.enabled {
            self.queue_occupancy.observe(in_flight);
        }
    }

    /// Records one producer stall: the bounded queue was full, so the
    /// reader blocked instead of buffering (backpressure engaged).
    pub fn record_producer_stall(&self) {
        if self.enabled {
            sat_add(&self.producer_stalls, 1);
        }
    }

    /// Records one worker condvar wait (no queued work available).
    pub fn record_worker_wait(&self) {
        if self.enabled {
            sat_add(&self.worker_idle_waits, 1);
        }
    }

    /// Records one record of `record_bytes` handled by worker `worker`
    /// (ordinals at or above [`MAX_TRACKED_WORKERS`] fold into the last
    /// slot).
    pub fn record_worker(&self, worker: usize, record_bytes: u64) {
        if !self.enabled {
            return;
        }
        let slot = worker.min(MAX_TRACKED_WORKERS - 1);
        sat_add(&self.worker_records[slot], 1);
        sat_add(&self.worker_bytes[slot], record_bytes);
    }
}

impl MetricsSnapshot {
    /// Bytes fast-forwarded by `group`.
    pub fn ff_skipped(&self, group: Group) -> u64 {
        self.ff_skipped[group.index()]
    }

    /// The fast-forward ratio of one group against the bytes evaluated
    /// (0.0 when nothing was evaluated).
    pub fn ff_ratio(&self, group: Group) -> f64 {
        if self.bytes_evaluated == 0 {
            0.0
        } else {
            self.ff_skipped(group) as f64 / self.bytes_evaluated as f64
        }
    }

    /// The overall fast-forward ratio: all skipped bytes over the bytes
    /// evaluated (the paper's Section 5.3 metric, from live counters).
    pub fn overall_ff_ratio(&self) -> f64 {
        if self.bytes_evaluated == 0 {
            0.0
        } else {
            let skipped: u64 = self.ff_skipped.iter().sum();
            skipped as f64 / self.bytes_evaluated as f64
        }
    }

    /// Reassembles the counters into a [`FastForwardStats`] (total =
    /// bytes evaluated), for interoperating with the stats-based APIs.
    pub fn fast_forward_stats(&self) -> FastForwardStats {
        let mut s = FastForwardStats::new();
        for g in Group::ALL {
            s.record(g, self.ff_skipped(g));
        }
        s.add_total(self.bytes_evaluated);
        s
    }

    /// Renders the snapshot as one compact JSON object, with no
    /// serialization dependency.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = render_pairs(&mut out, &self.pairs(), None);
        out
    }
}

/// One `engine_<name> <value>` line per [`MetricsSnapshot::pairs`] entry.
impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        render_pairs(f, &self.pairs(), Some("engine_"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RecordOutcome;

    /// A snapshot in which every counter is nonzero, each bumped through
    /// its public `record_*`/`add_*` method.
    fn populated() -> MetricsSnapshot {
        let m = Metrics::new();
        m.record_outcome(100, &RecordOutcome::Complete { matches: 2 });
        m.record_outcome(50, &RecordOutcome::Stopped { matches: 1 });
        m.record_outcome(
            7,
            &RecordOutcome::Failed(crate::EngineError::Engine {
                engine: "t",
                message: "x".into(),
            }),
        );
        let mut ff = FastForwardStats::new();
        for (i, g) in Group::ALL.into_iter().enumerate() {
            ff.record(g, 3 + i as u64);
        }
        m.record_fast_forward(&ff);
        m.record_bitmap(9, 4);
        m.add_eval_split_ns(10, 30);
        m.record_delivered(3, 150);
        m.record_skipped_record();
        m.record_io_retry();
        m.record_resync(42);
        m.record_limit_rejection();
        m.record_truncated_record();
        m.record_worker_panic();
        m.record_checkpoint();
        m.record_queue_occupancy(5);
        m.record_producer_stall();
        m.record_worker_wait();
        m.record_worker(1, 150);
        m.snapshot()
    }

    #[test]
    fn diff_covers_every_counter() {
        let s = populated();
        for (name, value) in s.pairs() {
            assert!(
                value.bytes().any(|b| (b'1'..=b'9').contains(&b)),
                "{name} is {value}"
            );
        }
        assert_eq!(s.diff(&MetricsSnapshot::default()), s);
        assert_eq!(s.diff(&s), MetricsSnapshot::default());
    }

    #[test]
    fn text_and_json_list_the_same_names_in_order() {
        let s = populated();
        let text = s.to_string();
        let text_names: Vec<&str> = text
            .lines()
            .map(|l| {
                l.split_once(' ')
                    .unwrap()
                    .0
                    .strip_prefix("engine_")
                    .unwrap()
            })
            .collect();
        let json = s.to_json();
        let json_names: Vec<&str> = json.split('"').skip(1).step_by(2).collect();
        assert_eq!(text_names, json_names);
        let mut unique = json_names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), json_names.len(), "{json}");
    }

    #[test]
    fn engine_json_is_pinned() {
        // Captured from the hand-written renderer this table replaced.
        assert_eq!(
            populated().to_json(),
            concat!(
                r#"{"records_evaluated":2,"records_stopped":1,"records_failed":1,"#,
                r#""matches_emitted":3,"bytes_evaluated":150,"bytes_failed":7,"#,
                r#""ff_skipped":[3,4,5,6,7],"ff_ratio":0.166667,"words_classified":9,"#,
                r#""word_cache_hits":4,"eval_ns":30,"build_ns":10,"traverse_ns":20,"#,
                r#""record_bytes_hist":[0,0,0,1,0,0,1,1,0,0,0,0,0,0,0,0],"#,
                r#""records_delivered":1,"matches_delivered":3,"bytes_delivered":150,"#,
                r#""records_skipped":1,"io_retries":1,"resyncs":1,"resync_bytes":42,"#,
                r#""limit_rejections":1,"truncated_records":1,"worker_panics":1,"#,
                r#""checkpoints":1,"producer_stalls":1,"worker_idle_waits":1,"#,
                r#""queue_occupancy_hist":[0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0],"#,
                r#""worker_records":[0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"#,
                r#""worker_bytes":[0,150,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}"#,
            )
        );
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let m = Metrics::disabled();
        assert!(!m.is_enabled());
        m.record_outcome(100, &RecordOutcome::Complete { matches: 3 });
        m.record_delivered(3, 100);
        m.record_skipped_record();
        m.record_producer_stall();
        m.record_worker(0, 100);
        m.record_queue_occupancy(2);
        m.add_eval_ns(10);
        m.record_io_retry();
        m.record_resync(100);
        m.record_limit_rejection();
        m.record_truncated_record();
        m.record_worker_panic();
        m.record_checkpoint();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
        assert_eq!(m.stopwatch().elapsed_ns(), 0);
    }

    #[test]
    fn outcome_accounting_separates_failures() {
        let m = Metrics::new();
        m.record_outcome(100, &RecordOutcome::Complete { matches: 2 });
        m.record_outcome(50, &RecordOutcome::Stopped { matches: 1 });
        m.record_outcome(
            7,
            &RecordOutcome::Failed(crate::EngineError::Engine {
                engine: "t",
                message: "x".into(),
            }),
        );
        let s = m.snapshot();
        assert_eq!(s.records_evaluated, 2);
        assert_eq!(s.records_stopped, 1);
        assert_eq!(s.records_failed, 1);
        assert_eq!(s.matches_emitted, 3);
        assert_eq!(s.bytes_evaluated, 150);
        assert_eq!(s.bytes_failed, 7);
        assert_eq!(s.record_bytes.count(), 3);
    }

    #[test]
    fn snapshot_diff_arithmetic() {
        let m = Metrics::new();
        m.record_outcome(100, &RecordOutcome::Complete { matches: 2 });
        let mut stats = FastForwardStats::new();
        stats.record(Group::G2, 40);
        stats.record(Group::G4, 20);
        m.record_fast_forward(&stats);
        let mid = m.snapshot();
        m.record_outcome(60, &RecordOutcome::Complete { matches: 1 });
        let mut stats2 = FastForwardStats::new();
        stats2.record(Group::G2, 30);
        m.record_fast_forward(&stats2);
        let end = m.snapshot();
        let delta = end.diff(&mid);
        assert_eq!(delta.records_evaluated, 1);
        assert_eq!(delta.bytes_evaluated, 60);
        assert_eq!(delta.matches_emitted, 1);
        assert_eq!(delta.ff_skipped(Group::G2), 30);
        assert_eq!(delta.ff_skipped(Group::G4), 0);
        assert!((delta.overall_ff_ratio() - 0.5).abs() < 1e-9);
        // diff against a *later* snapshot saturates to zero, not wraps.
        let backwards = mid.diff(&end);
        assert_eq!(backwards.records_evaluated, 0);
        assert_eq!(backwards.ff_skipped(Group::G2), 0);
    }

    #[test]
    fn ratios_use_evaluated_bytes() {
        let m = Metrics::new();
        m.record_outcome(200, &RecordOutcome::Complete { matches: 0 });
        let mut stats = FastForwardStats::new();
        stats.record(Group::G1, 50);
        stats.record(Group::G5, 100);
        m.record_fast_forward(&stats);
        let s = m.snapshot();
        assert!((s.ff_ratio(Group::G1) - 0.25).abs() < 1e-9);
        assert!((s.ff_ratio(Group::G5) - 0.50).abs() < 1e-9);
        assert!((s.overall_ff_ratio() - 0.75).abs() < 1e-9);
        let ff = s.fast_forward_stats();
        assert_eq!(ff.total(), 200);
        assert_eq!(ff.skipped(Group::G5), 100);
        assert!((ff.overall_ratio() - s.overall_ff_ratio()).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_are_log2_with_clamping() {
        assert_eq!(AtomicHistogram::bucket_of(0), 0);
        assert_eq!(AtomicHistogram::bucket_of(1), 1);
        assert_eq!(AtomicHistogram::bucket_of(2), 2);
        assert_eq!(AtomicHistogram::bucket_of(3), 2);
        assert_eq!(AtomicHistogram::bucket_of(4), 3);
        assert_eq!(AtomicHistogram::bucket_of(1 << 13), 14);
        // Everything at or above 2^14 clamps into the final bucket
        // instead of indexing out of range.
        assert_eq!(AtomicHistogram::bucket_of(1 << 14), 15);
        assert_eq!(AtomicHistogram::bucket_of(u64::MAX), 15);
        assert_eq!(HistogramSnapshot::bucket_floor(0), 0);
        assert_eq!(HistogramSnapshot::bucket_floor(1), 1);
        assert_eq!(HistogramSnapshot::bucket_floor(15), 1 << 14);
        let h = AtomicHistogram::default();
        h.observe(0);
        h.observe(5);
        h.observe(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[3], 1);
        assert_eq!(s.buckets[15], 1);
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn histogram_counts_saturate_instead_of_wrapping() {
        let h = AtomicHistogram::default();
        h.buckets[3].store(u64::MAX, Ordering::Relaxed);
        h.observe(5); // bucket 3
        assert_eq!(h.snapshot().buckets[3], u64::MAX);
        // count() across saturated buckets saturates too.
        h.buckets[1].store(u64::MAX, Ordering::Relaxed);
        assert_eq!(h.snapshot().count(), u64::MAX);
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let m = Metrics::new();
        m.bytes_evaluated.store(u64::MAX - 10, Ordering::Relaxed);
        m.record_outcome(100, &RecordOutcome::Complete { matches: 0 });
        assert_eq!(m.snapshot().bytes_evaluated, u64::MAX);
    }

    #[test]
    fn worker_slots_clamp() {
        let m = Metrics::new();
        m.record_worker(0, 10);
        m.record_worker(MAX_TRACKED_WORKERS + 5, 7);
        m.record_worker(usize::MAX, 3);
        let s = m.snapshot();
        assert_eq!(s.worker_records[0], 1);
        assert_eq!(s.worker_records[MAX_TRACKED_WORKERS - 1], 2);
        assert_eq!(s.worker_bytes[MAX_TRACKED_WORKERS - 1], 10);
    }

    #[test]
    fn json_and_display_render() {
        let m = Metrics::new();
        m.record_outcome(64, &RecordOutcome::Complete { matches: 1 });
        m.record_delivered(1, 64);
        m.record_worker(2, 64);
        let s = m.snapshot();
        let json = s.to_json();
        for key in [
            "\"records_evaluated\":1",
            "\"ff_skipped\":[0,0,0,0,0]",
            "\"matches_delivered\":1",
            "\"queue_occupancy_hist\":[",
            "\"worker_records\":[0,0,1,",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        let text = s.to_string();
        assert!(text.contains("\nengine_ff_ratio 0.000000\n"), "{text}");
        assert!(text.contains("\nengine_worker_records [0,0,1,0,"), "{text}");
    }

    #[test]
    fn robustness_counters_round_trip() {
        let m = Metrics::new();
        m.record_io_retry();
        m.record_io_retry();
        m.record_resync(40);
        m.record_resync(2);
        m.record_limit_rejection();
        m.record_truncated_record();
        let s = m.snapshot();
        assert_eq!(s.io_retries, 2);
        assert_eq!(s.resyncs, 2);
        assert_eq!(s.resync_bytes, 42);
        assert_eq!(s.limit_rejections, 1);
        assert_eq!(s.truncated_records, 1);
        let json = s.to_json();
        for key in [
            "\"io_retries\":2",
            "\"resyncs\":2",
            "\"resync_bytes\":42",
            "\"limit_rejections\":1",
            "\"truncated_records\":1",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        let text = s.to_string();
        assert!(
            text.contains("\nengine_resyncs 2\nengine_resync_bytes 42\n"),
            "{text}"
        );
        let later = {
            m.record_resync(8);
            m.snapshot()
        };
        let delta = later.diff(&s);
        assert_eq!(delta.resyncs, 1);
        assert_eq!(delta.resync_bytes, 8);
        assert_eq!(delta.io_retries, 0);
    }
}
