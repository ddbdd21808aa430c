//! Recursive-descent streaming with fast-forwarding (paper Algorithms 1–2).
//!
//! [`JsonSki`] drives the query automaton with a recursive-descent parser
//! whose `object()`/`array()` functions invoke the bit-parallel fast-forward
//! primitives of [`crate::fastforward`]:
//!
//! * type-directed attribute search (G1) when the query dictates the type of
//!   the matching value,
//! * whole-value skips (G2) for unmatched attributes/elements,
//! * skip-and-output (G3) for accepted values,
//! * skip-to-object-end (G4) once a uniquely-named attribute has matched,
//! * index-range skips (G5) for arrays with `[n]`/`[m:n]` constraints.
//!
//! The evaluator is generic over a [`QuerySet`]: one query's [`Runtime`]
//! for [`JsonSki`], or several in lockstep for
//! [`MultiQuery`](crate::MultiQuery), whose every skip is the conjunction of
//! the single-query decisions over the live queries.

use std::ops::ControlFlow;

use jsonpath::{
    ContainerKind, ExpectedType, Legality, ParsePathError, Path, Runtime, State, Status,
};

use crate::cursor::Cursor;
use crate::error::StreamError;
use crate::evaluate::Match;
use crate::fastforward::{
    go_over_ary, go_over_obj, go_over_primitive, go_over_primitives_to_opener, go_to_ary_end,
    go_to_attr_with_opener, go_to_obj_end, Span,
};
use crate::lazy::LazyValue;
use crate::limits::ResourceLimits;
use crate::stats::{FastForwardStats, Group};
use crate::validate::ValidationMode;
use simdbits::Kernel;

/// Default maximum container nesting accepted before
/// [`StreamError::TooDeep`]; bounds the recursion of the recursive-descent
/// design. Override per engine via
/// [`ResourceLimits::max_depth`](crate::ResourceLimits::max_depth).
pub const MAX_DEPTH: usize = 1024;

/// A compiled JSONPath query evaluated by streaming with bit-parallel
/// fast-forwarding.
///
/// # Example
///
/// ```
/// use jsonski::JsonSki;
///
/// let json = br#"{
///   "coordinates": [40.74, -73.99],
///   "user": {"id": 6253282},
///   "place": {"name": "Manhattan", "bounding_box": {"type": "Polygon"}}
/// }"#;
/// let query = JsonSki::compile("$.place.name")?;
/// let matches = query.matches(json)?;
/// assert_eq!(matches, vec![&b"\"Manhattan\""[..]]);
/// assert_eq!(matches[0].as_str()?, "Manhattan"); // lazy typed decoding
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct JsonSki {
    path: Path,
    config: EngineConfig,
}

/// Ablation switches: disable individual fast-forward groups to measure
/// their contribution (the per-group ratios of the paper's Table 6 hint at
/// what each is worth; the `ablation` bench quantifies it in time).
///
/// G2/G3 (value skipping and skip-with-output) are the engine's substance
/// and cannot be disabled — an engine without them *is* the JPStream
/// baseline.
///
/// The struct is `#[non_exhaustive]` so future fast-forward groups can be
/// added without breaking downstream crates; construct it through
/// [`EngineConfig::builder`]:
///
/// ```
/// use jsonski::EngineConfig;
///
/// let cfg = EngineConfig::builder().disable_g4().build();
/// assert!(cfg.g1 && !cfg.g4 && cfg.g5);
/// ```
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Enable G1 type-directed attribute seeking.
    pub g1: bool,
    /// Enable G4 skip-to-object-end after a unique-name match.
    pub g4: bool,
    /// Enable G5 index-range skipping in arrays.
    pub g5: bool,
    /// Resource guards applied while evaluating (nesting depth, record
    /// size, optional per-record deadline).
    pub limits: ResourceLimits,
    /// Input trust level: [`ValidationMode::Strict`] validates every byte —
    /// including fast-forwarded spans — for UTF-8 well-formedness, string
    /// escape grammar, balanced structure, and trailing garbage.
    pub validation: ValidationMode,
    /// Forces a specific bitmap kernel instead of runtime auto-detection
    /// (`None`). Used for kernel differential verification; the
    /// `JSONSKI_KERNEL` environment variable overrides even this.
    pub kernel: Option<Kernel>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            g1: true,
            g4: true,
            g5: true,
            limits: ResourceLimits::default(),
            validation: ValidationMode::Permissive,
            kernel: None,
        }
    }
}

impl EngineConfig {
    /// Starts a builder with every group enabled.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            config: EngineConfig::default(),
        }
    }
}

/// Builder for [`EngineConfig`] (ablation switches).
#[derive(Clone, Copy, Debug)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Sets G1 type-directed attribute seeking.
    pub fn g1(mut self, enabled: bool) -> Self {
        self.config.g1 = enabled;
        self
    }

    /// Sets G4 skip-to-object-end after a unique-name match.
    pub fn g4(mut self, enabled: bool) -> Self {
        self.config.g4 = enabled;
        self
    }

    /// Sets G5 index-range skipping in arrays.
    pub fn g5(mut self, enabled: bool) -> Self {
        self.config.g5 = enabled;
        self
    }

    /// Disables G1 type-directed attribute seeking.
    pub fn disable_g1(self) -> Self {
        self.g1(false)
    }

    /// Disables G4 skip-to-object-end.
    pub fn disable_g4(self) -> Self {
        self.g4(false)
    }

    /// Disables G5 index-range skipping.
    pub fn disable_g5(self) -> Self {
        self.g5(false)
    }

    /// Sets the resource guards ([`ResourceLimits`]).
    pub fn limits(mut self, limits: ResourceLimits) -> Self {
        self.config.limits = limits;
        self
    }

    /// Sets the input trust level ([`ValidationMode`]).
    pub fn validation(mut self, mode: ValidationMode) -> Self {
        self.config.validation = mode;
        self
    }

    /// Shorthand for `validation(ValidationMode::Strict)`.
    pub fn strict(self) -> Self {
        self.validation(ValidationMode::Strict)
    }

    /// Forces a specific bitmap kernel (`None` restores auto-detection).
    pub fn kernel(mut self, kernel: Option<Kernel>) -> Self {
        self.config.kernel = kernel;
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> EngineConfig {
        self.config
    }
}

impl JsonSki {
    /// Wraps an already-parsed path.
    pub fn new(path: Path) -> Self {
        JsonSki {
            path,
            config: EngineConfig::default(),
        }
    }

    /// Compiles a JSONPath expression.
    ///
    /// # Errors
    ///
    /// Returns the parse error for unsupported or malformed expressions.
    pub fn compile(query: &str) -> Result<Self, ParsePathError> {
        Ok(JsonSki {
            path: query.parse()?,
            config: EngineConfig::default(),
        })
    }

    /// Replaces the ablation configuration (builder-style).
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces only the resource guards (builder-style), keeping the
    /// ablation switches.
    pub fn with_limits(mut self, limits: ResourceLimits) -> Self {
        self.config.limits = limits;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// The compiled path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Streams one JSON record through `sink`, the primitive every other
    /// entry point wraps. The sink receives a borrowed [`Match`] handle —
    /// span, raw bytes, and lazy typed decoding over the input buffer —
    /// and steers the scan: returning [`ControlFlow::Break`] stops
    /// evaluation immediately — no further input bytes are examined —
    /// which is how `--limit`-style early exit avoids scanning the rest
    /// of a record.
    ///
    /// ```
    /// use std::ops::ControlFlow;
    /// use jsonski::JsonSki;
    ///
    /// let q = JsonSki::compile("$.it[*]")?;
    /// let json = br#"{"it": [1, 2, 3, 4]}"#;
    /// let mut first = None;
    /// let outcome = q.stream(json, |m| {
    ///     first = Some(m.value());
    ///     ControlFlow::Break(())
    /// })?;
    /// assert_eq!(first.unwrap().as_i64(), Some(1));
    /// assert!(outcome.stopped);
    /// assert!(outcome.consumed < json.len());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`StreamError`] on malformed input discovered on the examined path or
    /// by pairing validation within fast-forwarded segments.
    pub fn stream<'a, F>(&self, input: &'a [u8], sink: F) -> Result<StreamOutcome, StreamError>
    where
        F: FnMut(Match<'a>) -> ControlFlow<()>,
    {
        self.stream_cursor(
            Cursor::with_options(input, self.config.kernel, self.config.validation),
            sink,
        )
    }

    /// Streams one JSON record like [`JsonSki::stream`], but serves word
    /// bitmaps from `prebuilt` (one [`simdbits::BlockBitmaps`] per 64-byte
    /// word of `input`, e.g. from a persistent structural index) instead of
    /// classifying. Matches, errors, and strict-validation verdicts are
    /// byte-identical to [`JsonSki::stream`] given a faithful `prebuilt`;
    /// a mis-sized slice is ignored and the record is classified normally
    /// (see [`Cursor::with_prebuilt`]).
    ///
    /// # Errors
    ///
    /// [`StreamError`] exactly as [`JsonSki::stream`] reports it.
    pub fn stream_prebuilt<'a, F>(
        &self,
        input: &'a [u8],
        prebuilt: &'a [simdbits::BlockBitmaps],
        sink: F,
    ) -> Result<StreamOutcome, StreamError>
    where
        F: FnMut(Match<'a>) -> ControlFlow<()>,
    {
        self.stream_cursor(
            Cursor::with_prebuilt(input, prebuilt, self.config.kernel, self.config.validation),
            sink,
        )
    }

    fn stream_cursor<'a, F>(
        &self,
        cur: Cursor<'a>,
        mut sink: F,
    ) -> Result<StreamOutcome, StreamError>
    where
        F: FnMut(Match<'a>) -> ControlFlow<()>,
    {
        evaluate(Runtime::new(&self.path), cur, self.config, |_, m| sink(m))
    }

    /// Streams one JSON record, invoking `sink` with the [`Match`] handle
    /// of every match, and returns the fast-forward statistics for the
    /// record. Thin wrapper over [`JsonSki::stream`] that never stops
    /// early.
    ///
    /// # Errors
    ///
    /// [`StreamError`] on malformed input discovered on the examined path or
    /// by pairing validation within fast-forwarded segments.
    pub fn run<'a, F>(&self, input: &'a [u8], mut sink: F) -> Result<FastForwardStats, StreamError>
    where
        F: FnMut(Match<'a>),
    {
        let outcome = self.stream(input, |m| {
            sink(m);
            ControlFlow::Continue(())
        })?;
        Ok(outcome.stats)
    }

    /// Streams a whole multi-record stream (e.g. JSON Lines): records are
    /// discovered with the bit-parallel [`crate::RecordSplitter`] and each
    /// is evaluated in turn. Returns the accumulated statistics.
    ///
    /// # Errors
    ///
    /// [`StreamError`] from either record splitting or evaluation.
    ///
    /// ```
    /// # use jsonski::JsonSki;
    /// let stream = b"{\"a\": 1}\n{\"a\": 2}\n{\"b\": 3}\n";
    /// let q = JsonSki::compile("$.a")?;
    /// let mut hits = 0;
    /// q.run_stream(stream, |_| hits += 1)?;
    /// assert_eq!(hits, 2);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn run_stream<'a, F>(
        &self,
        stream: &'a [u8],
        mut sink: F,
    ) -> Result<FastForwardStats, StreamError>
    where
        F: FnMut(Match<'a>),
    {
        let mut total = FastForwardStats::new();
        for (idx, span) in crate::RecordSplitter::new(stream).enumerate() {
            let (s, e) = span?;
            total += self.run(&stream[s..e], |m| sink(m.with_record_idx(idx as u64)))?;
        }
        Ok(total)
    }

    /// Counts the matches in one record. Thin wrapper over
    /// [`JsonSki::stream`].
    ///
    /// # Errors
    ///
    /// Propagates [`StreamError`] from [`JsonSki::stream`].
    pub fn count(&self, input: &[u8]) -> Result<usize, StreamError> {
        let outcome = self.stream(input, |_| ControlFlow::Continue(()))?;
        Ok(outcome.matches)
    }

    /// Collects lazy handles to all matches in one record. Thin wrapper
    /// over [`JsonSki::stream`]. The handles borrow `input` and compare
    /// equal to raw byte slices; call
    /// [`as_raw`](crate::LazyValue::as_raw) for the bytes or the typed
    /// accessors to decode on demand.
    ///
    /// # Errors
    ///
    /// Propagates [`StreamError`] from [`JsonSki::stream`].
    pub fn matches<'a>(&self, input: &'a [u8]) -> Result<Vec<LazyValue<'a>>, StreamError> {
        let mut out = Vec::new();
        self.stream(input, |m| {
            out.push(m.value());
            ControlFlow::Continue(())
        })?;
        Ok(out)
    }
}

/// What one [`JsonSki::stream`] call did: the fast-forward statistics,
/// how many matches the sink saw, whether the sink stopped the scan, and
/// how many input bytes were examined before the scan ended.
#[derive(Clone, Debug)]
pub struct StreamOutcome {
    /// Per-group fast-forward statistics for the scanned prefix.
    pub stats: FastForwardStats,
    /// Number of matches delivered to the sink (including the one the
    /// sink broke on, if any).
    pub matches: usize,
    /// `true` when the sink returned [`ControlFlow::Break`].
    pub stopped: bool,
    /// Cursor position when the scan ended: `input.len()` minus trailing
    /// unscanned bytes. Strictly less than the input length when a break
    /// saved work.
    pub consumed: usize,
    /// 64-byte words classified while scanning (bitmap-construction
    /// effort; feeds [`Metrics::record_bitmap`](crate::Metrics::record_bitmap)).
    pub words_classified: usize,
    /// Word requests served by the single-word bitmap cache. Always 0
    /// without the `metrics` cargo feature.
    pub word_cache_hits: u64,
    /// Nanoseconds spent constructing word bitmaps. Always 0 without the
    /// `metrics` cargo feature.
    pub classify_ns: u64,
}

/// The automaton side of the evaluator: one query's [`Runtime`] (the
/// [`JsonSki`] monomorphisation) or several run in lockstep
/// ([`MultiQuery`](crate::MultiQuery)). Every answer is the conjunction,
/// over the live queries, of what each query would decide alone, so the
/// evaluator takes the same skip whether it serves one query or many.
pub(crate) trait QuerySet {
    /// Every query's transition for one value.
    type Decision: Copy;

    /// Number of queries; the sink's query index ranges over `0..len()`.
    fn len(&self) -> usize;

    /// Enters the root container; the decision for the root value itself.
    fn enter_root(&mut self, kind: ContainerKind) -> Self::Decision;

    /// The decision for a primitive root record (only `$` selects it).
    fn primitive_root(&mut self) -> Self::Decision;

    /// Rule `[Key]` for the attribute named `raw` in the current object.
    fn on_key(&mut self, raw: &[u8]) -> Self::Decision;

    /// The current element of the current array, whose first byte is at
    /// `input[pos]` (filter predicates probe it).
    fn on_element(&mut self, input: &[u8], pos: usize) -> Self::Decision;

    /// The combined status: accepted when any query accepts, live when
    /// any query still needs the value's interior.
    fn status(&self, d: Self::Decision) -> Status;

    /// Whether query `i` takes the value as a result. Called only for a
    /// decision whose combined status accepts.
    fn accepts(&self, d: Self::Decision, i: usize) -> bool;

    /// Descends into a container value (rule `[Key]`-push / `[Ary-S]`).
    fn enter(&mut self, kind: ContainerKind, d: Self::Decision);

    /// Leaves the current container (rule `[Val]` / `[Ary-E]`).
    fn exit(&mut self);

    /// Rule `[Com]` for every query.
    fn increment(&mut self);

    /// The current array's element counter.
    fn counter(&self) -> usize;

    /// The type every live query expects a match in the current container
    /// to have; [`ExpectedType::Unknown`] when they differ, `None` when no
    /// query is live. A query done with the current object
    /// ([`QuerySet::settle`]) is no longer live in it.
    fn expected_type(&self) -> Option<ExpectedType>;

    /// Fast-forward legality of the current container, conjoined over the
    /// live queries.
    fn legality(&self) -> Legality;

    /// The union of the live queries' index ranges in the current array;
    /// `None` when any live query is unbounded.
    fn index_range(&self) -> Option<(usize, usize)>;

    /// Starts the attribute scan of the current object.
    fn open_object(&mut self);

    /// After a value of the current object that some query took or
    /// descended into (G4 enabled): how far the queries are done with the
    /// object. `legal` is the object's [`QuerySet::legality`].
    fn settle(&mut self, d: Self::Decision, legal: Legality) -> Settled;
}

/// The queries' progress through an object after a value ([`QuerySet::settle`]).
pub(crate) enum Settled {
    /// No query became done.
    Open,
    /// Some query became done, others are still live: the live set, and
    /// with it the expected type, narrowed.
    Narrowed,
    /// Every query is done: G4 skips the rest of the object.
    Done,
}

/// One query: the automaton itself, with no per-level scratch.
impl QuerySet for Runtime<'_> {
    type Decision = (State, Status);

    #[inline]
    fn len(&self) -> usize {
        1
    }

    #[inline]
    fn enter_root(&mut self, kind: ContainerKind) -> Self::Decision {
        (State::UNMATCHED, Runtime::enter_root(self, kind))
    }

    #[inline]
    fn primitive_root(&mut self) -> Self::Decision {
        let status = if self.path().is_empty() {
            Status::Accept
        } else {
            Status::Unmatched
        };
        (State::UNMATCHED, status)
    }

    #[inline]
    fn on_key(&mut self, raw: &[u8]) -> Self::Decision {
        self.value_state_for_key_raw(raw)
    }

    #[inline]
    fn on_element(&mut self, input: &[u8], pos: usize) -> Self::Decision {
        self.element_state_with(&mut |expr| jsonpath::filter::eval(expr, &input[pos..]))
    }

    #[inline]
    fn status(&self, d: Self::Decision) -> Status {
        d.1
    }

    #[inline]
    fn accepts(&self, _: Self::Decision, _: usize) -> bool {
        true
    }

    #[inline]
    fn enter(&mut self, kind: ContainerKind, d: Self::Decision) {
        Runtime::enter(self, kind, d.0);
    }

    #[inline]
    fn exit(&mut self) {
        Runtime::exit(self);
    }

    #[inline]
    fn increment(&mut self) {
        Runtime::increment(self);
    }

    #[inline]
    fn counter(&self) -> usize {
        Runtime::counter(self)
    }

    #[inline]
    fn expected_type(&self) -> Option<ExpectedType> {
        Runtime::expected_type(self)
    }

    #[inline]
    fn legality(&self) -> Legality {
        Runtime::legality(self)
    }

    #[inline]
    fn index_range(&self) -> Option<(usize, usize)> {
        Runtime::index_range(self)
    }

    #[inline]
    fn open_object(&mut self) {}

    /// Only uniquely-named child steps ([`Legality::g4`], computed once on
    /// container entry) preclude a later sibling match.
    #[inline]
    fn settle(&mut self, _: Self::Decision, legal: Legality) -> Settled {
        if legal.g4 {
            Settled::Done
        } else {
            Settled::Open
        }
    }
}

/// Streams one record through `queries`, the evaluator behind both
/// [`JsonSki::stream`] and [`MultiQuery::stream`](crate::MultiQuery::stream):
/// `sink(query_index, match)` receives every match.
pub(crate) fn evaluate<'a, Q, F>(
    queries: Q,
    cur: Cursor<'a>,
    config: EngineConfig,
    sink: F,
) -> Result<StreamOutcome, StreamError>
where
    Q: QuerySet,
    F: FnMut(usize, Match<'a>) -> ControlFlow<()>,
{
    let mut eval = Eval {
        cur,
        q: queries,
        stats: FastForwardStats::new(),
        sink,
        matches: 0,
        depth: 0,
        pending: Vec::new(),
        flush_from: 0,
        config,
        deadline: config
            .limits
            .deadline
            .map(|d| std::time::Instant::now() + d),
    };
    let stopped = match eval.record() {
        Ok(()) => {
            debug_assert!(
                eval.pending.is_empty(),
                "pending matches must all be flushed by end of record"
            );
            // Strict mode validates to the end of the record even though
            // evaluation may have fast-forwarded past (or stopped before)
            // the remaining bytes. No-op in Permissive mode.
            eval.cur.finish_strict()?;
            false
        }
        // Sink-requested early exit deliberately skips the rest of the
        // input — "no further input bytes are examined" (see
        // `JsonSki::stream`) extends to validation.
        Err(Abort::Stop) => true,
        Err(Abort::Err(e)) => {
            // A structural error in Strict mode is often the *echo* of a
            // validity fault (e.g. an unterminated string surfaces as
            // UnexpectedEof from the seek that ran off the end). Finish
            // validation and prefer its typed, offset-bearing verdict so
            // streaming evaluation and a validate-then-parse pre-pass
            // report identical first failures.
            if let Err(invalid @ StreamError::Invalid { .. }) = eval.cur.finish_strict() {
                return Err(invalid);
            }
            return Err(e);
        }
    };
    Ok(StreamOutcome {
        stats: eval.stats,
        matches: eval.matches,
        stopped,
        consumed: eval.cur.pos(),
        words_classified: eval.cur.words_classified(),
        word_cache_hits: eval.cur.word_cache_hits(),
        classify_ns: eval.cur.classify_ns(),
    })
}

/// Propagates either a hard parse error or a sink-requested stop up
/// through the recursive descent.
enum Abort {
    Err(StreamError),
    Stop,
}

impl From<StreamError> for Abort {
    fn from(e: StreamError) -> Self {
        Abort::Err(e)
    }
}

/// A match whose emission is deferred to preserve pre-order (span-start
/// ascending) under descendant queries: an [`AcceptAndDescend`] container
/// must reach the sink before the matches found inside it, but its span's
/// end is only known once the traversal returns. `end == None` marks a
/// still-open container entry; entries opened together (one per accepting
/// query) emit in query order.
///
/// Descendant-free query sets whose queries never accept and descend the
/// same container open no entry, so every emission stays immediate — the
/// queue costs them nothing.
///
/// [`AcceptAndDescend`]: Status::AcceptAndDescend
struct PendingMatch {
    query: usize,
    start: usize,
    end: Option<usize>,
}

struct Eval<'a, Q, F> {
    cur: Cursor<'a>,
    q: Q,
    stats: FastForwardStats,
    sink: F,
    matches: usize,
    depth: usize,
    /// Deferred matches (see [`PendingMatch`]); `flush_from` indexes the
    /// first entry not yet delivered to the sink.
    pending: Vec<PendingMatch>,
    flush_from: usize,
    config: EngineConfig,
    /// Absolute cut-off instant when a per-record deadline is configured;
    /// `None` (the default) keeps the hot path free of clock calls.
    deadline: Option<std::time::Instant>,
}

impl<'a, Q: QuerySet, F: FnMut(usize, Match<'a>) -> ControlFlow<()>> Eval<'a, Q, F> {
    /// Depth/deadline guard shared by `object()` and `array()`: called
    /// once per container entry, after `depth` was incremented.
    fn check_guards(&mut self) -> Result<(), Abort> {
        if self.depth > self.config.limits.max_depth {
            return Err(Abort::Err(StreamError::TooDeep {
                pos: self.cur.pos(),
            }));
        }
        if let Some(dl) = self.deadline {
            if std::time::Instant::now() >= dl {
                return Err(Abort::Err(StreamError::DeadlineExpired {
                    pos: self.cur.pos(),
                }));
            }
        }
        Ok(())
    }

    /// Emits a completed span to every query that accepts it, or queues
    /// it while an enclosing [`Status::AcceptAndDescend`] container entry
    /// is still open (the container must reach the sink first).
    fn emit(&mut self, d: Q::Decision, span: Span) -> Result<(), Abort> {
        for query in 0..self.q.len() {
            if !self.q.accepts(d, query) {
                continue;
            }
            if self.flush_from == self.pending.len() {
                self.emit_now(query, span)?;
            } else {
                self.pending.push(PendingMatch {
                    query,
                    start: span.0,
                    end: Some(span.1),
                });
            }
        }
        Ok(())
    }

    fn emit_now(&mut self, query: usize, span: Span) -> Result<(), Abort> {
        self.matches += 1;
        // Match::new is the shared normalization point (evaluate.rs): the
        // span every engine reports is trimmed there, not here.
        match (self.sink)(query, Match::new(0, self.cur.input(), span)) {
            ControlFlow::Continue(()) => Ok(()),
            ControlFlow::Break(()) => Err(Abort::Stop),
        }
    }

    /// Opens a pending entry per accepting query for a container about to
    /// be descended; [`Eval::close_pending`] completes them once the end is
    /// known and flushes everything that became ready. Returns how many
    /// entries were opened.
    fn open_pending(&mut self, d: Q::Decision, start: usize) -> usize {
        let mut opened = 0;
        for query in 0..self.q.len() {
            if self.q.accepts(d, query) {
                self.pending.push(PendingMatch {
                    query,
                    start,
                    end: None,
                });
                opened += 1;
            }
        }
        opened
    }

    /// Completes the last `opened` open entries with `end`, then delivers
    /// queued matches from the front while their spans are complete; stops
    /// at the first still-open container entry.
    fn close_pending(&mut self, opened: usize, end: usize) -> Result<(), Abort> {
        let mut left = opened;
        for p in self.pending.iter_mut().rev() {
            if left == 0 {
                break;
            }
            if p.end.is_none() {
                p.end = Some(end);
                left -= 1;
            }
        }
        assert_eq!(left, 0, "unbalanced pending-match close");
        while let Some(p) = self.pending.get(self.flush_from) {
            let Some(end) = p.end else { break };
            let (query, span) = (p.query, (p.start, end));
            self.flush_from += 1;
            self.emit_now(query, span)?;
        }
        if self.flush_from == self.pending.len() {
            self.pending.clear();
            self.flush_from = 0;
        }
        Ok(())
    }

    /// Scans the container whose opener was just consumed.
    fn container(&mut self, kind: ContainerKind) -> Result<(), Abort> {
        match kind {
            ContainerKind::Object => self.object(),
            ContainerKind::Array => self.array(),
        }
    }

    /// Descends into a container value (opener not yet consumed) whose
    /// decision is `d`.
    fn descend(&mut self, kind: ContainerKind, d: Q::Decision) -> Result<(), Abort> {
        self.cur.bump();
        self.q.enter(kind, d);
        let r = self.container(kind);
        self.q.exit();
        r
    }

    /// [`Status::AcceptAndDescend`] on a container value: the container is
    /// itself a result *and* must be searched. Emission is deferred through
    /// the pending queue so the sink sees it before its interior matches.
    fn descend_with_output(&mut self, kind: ContainerKind, d: Q::Decision) -> Result<(), Abort> {
        let opened = self.open_pending(d, self.cur.pos());
        self.descend(kind, d)?;
        self.close_pending(opened, self.cur.pos())
    }

    fn record(&mut self) -> Result<(), Abort> {
        self.stats.add_total(self.cur.input().len() as u64);
        self.cur.skip_ws();
        let Some(t) = self.cur.peek() else {
            return Ok(()); // blank input: zero records, zero matches
        };
        let kind = match t {
            b'{' => ContainerKind::Object,
            b'[' => ContainerKind::Array,
            _ => {
                // Primitive root record: matches only the `$` path.
                let d = self.q.primitive_root();
                if self.q.status(d) == Status::Unmatched {
                    go_over_primitive(&mut self.cur, &mut self.stats, Group::G2)?;
                } else {
                    let span = go_over_primitive(&mut self.cur, &mut self.stats, Group::G3)?;
                    self.emit(d, span)?;
                }
                return Ok(());
            }
        };
        let d = self.q.enter_root(kind);
        match self.q.status(d) {
            Status::Accept => {
                let span = self.skip_value(t, Group::G3)?;
                self.emit(d, span)?;
            }
            Status::Unmatched => {
                self.skip_value(t, Group::G2)?;
            }
            Status::Matched => {
                self.cur.bump();
                self.container(kind)?;
            }
            // One query's root is never both a result and a search
            // frontier; with several, `$` can accept the root that another
            // query searches.
            Status::AcceptAndDescend => {
                let opened = self.open_pending(d, self.cur.pos());
                self.cur.bump();
                self.container(kind)?;
                self.close_pending(opened, self.cur.pos())?;
            }
        }
        self.q.exit();
        Ok(())
    }

    /// Algorithm 2's `object()`; the opening `{` has been consumed and the
    /// automaton's top frame is this object's.
    fn object(&mut self) -> Result<(), Abort> {
        self.depth += 1;
        self.check_guards()?;
        self.q.open_object();
        // Legality is a property of the live state sets, which are fixed
        // until a query is done with the object: compute it on entry.
        let legal = self.q.legality();
        let result = match self.q.expected_type() {
            // Nothing in this object can match: drain to the end (a pure
            // over-skip, accounted as G2).
            None => self.finish_object(Group::G2),
            Some(expected) => match self.g1_opener(expected, legal) {
                Some(open) => self.object_typed(open, legal),
                None => self.object_generic(legal),
            },
        };
        self.depth -= 1;
        result
    }

    /// The opener G1 seeks in an object whose live queries expect
    /// `expected`. `ExpectedType::Unknown` has none: descendant and
    /// multi-position states, and query sets expecting different types,
    /// have no single candidate type, so every attribute is examined.
    fn g1_opener(&self, expected: ExpectedType, legal: Legality) -> Option<u8> {
        match expected {
            _ if !(self.config.g1 && legal.g1) => None,
            ExpectedType::Object => Some(b'{'),
            ExpectedType::Array => Some(b'['),
            _ => None,
        }
    }

    /// Typed attribute loop: every live query dictates that only attributes
    /// whose value opens with `open` can match, so G1 seeks them directly.
    fn object_typed(&mut self, open: u8, legal: Legality) -> Result<(), Abort> {
        let kind = if open == b'{' {
            ContainerKind::Object
        } else {
            ContainerKind::Array
        };
        loop {
            let Some((ns, ne)) = go_to_attr_with_opener(&mut self.cur, &mut self.stats, open)?
            else {
                // No more type-matched attributes; cursor is at `}`.
                self.cur.expect(b'}', "`}`")?;
                return Ok(());
            };
            let d = self.q.on_key(&self.cur.input()[ns..ne]);
            match self.q.status(d) {
                Status::Unmatched => {
                    // G2: fast-forward over the unmatched container value.
                    if open == b'{' {
                        go_over_obj(&mut self.cur, &mut self.stats, Group::G2)?;
                    } else {
                        go_over_ary(&mut self.cur, &mut self.stats, Group::G2)?;
                    }
                    continue;
                }
                Status::Accept => {
                    let span = if open == b'{' {
                        go_over_obj(&mut self.cur, &mut self.stats, Group::G3)?
                    } else {
                        go_over_ary(&mut self.cur, &mut self.stats, Group::G3)?
                    };
                    self.emit(d, span)?;
                }
                Status::Matched => {
                    self.cur.expect(open, "container opener")?;
                    self.q.enter(kind, d);
                    let r = self.container(kind);
                    self.q.exit();
                    r?;
                }
                // Unreachable in practice: the typed loop runs only for
                // singleton non-descendant states (`legal.g1`), whose
                // transitions never yield a set that both accepts and
                // stays live. Handled anyway for robustness.
                Status::AcceptAndDescend => {
                    self.cur.skip_ws();
                    let opened = self.open_pending(d, self.cur.pos());
                    self.cur.expect(open, "container opener")?;
                    self.q.enter(kind, d);
                    let r = self.container(kind);
                    self.q.exit();
                    r?;
                    self.close_pending(opened, self.cur.pos())?;
                }
            }
            // A narrowed live set still agrees on `open`: keep seeking.
            if let Settled::Done = self.settle(d, legal) {
                return self.finish_object(Group::G4);
            }
        }
    }

    /// Generic attribute loop for states with no inferable candidate type:
    /// the last path level, multi-position (descendant) sets, wildcard
    /// tails, and query sets whose live queries expect different types.
    fn object_generic(&mut self, legal: Legality) -> Result<(), Abort> {
        loop {
            let t = self.cur.peek_token("attribute or `}`")?;
            match t {
                b'}' => {
                    self.cur.bump();
                    return Ok(());
                }
                b',' => {
                    self.cur.bump();
                    continue;
                }
                b'"' => {}
                other => {
                    return Err(Abort::Err(StreamError::Unexpected {
                        expected: "`\"` (attribute name)",
                        found: other,
                        pos: self.cur.pos(),
                    }))
                }
            }
            let (ns, ne) = self.cur.read_string()?;
            self.cur.expect(b':', "`:`")?;
            let d = self.q.on_key(&self.cur.input()[ns..ne]);
            self.cur.skip_ws();
            let vb = self.cur.peek_token("attribute value")?;
            match self.q.status(d) {
                Status::Unmatched => {
                    self.skip_value(vb, Group::G2)?;
                    continue;
                }
                Status::Accept => {
                    let span = self.skip_value(vb, Group::G3)?;
                    self.emit(d, span)?;
                }
                // Reachable through `.*` at the last level and below live
                // descendant positions; descend when the value is a
                // container.
                Status::Matched => match vb {
                    b'{' => self.descend(ContainerKind::Object, d)?,
                    b'[' => self.descend(ContainerKind::Array, d)?,
                    _ => {
                        self.skip_value(vb, Group::G2)?;
                    }
                },
                Status::AcceptAndDescend => match vb {
                    b'{' => self.descend_with_output(ContainerKind::Object, d)?,
                    b'[' => self.descend_with_output(ContainerKind::Array, d)?,
                    _ => {
                        // A primitive result has no interior to keep
                        // searching: plain skip-with-output.
                        let span = self.skip_value(vb, Group::G3)?;
                        self.emit(d, span)?;
                    }
                },
            }
            match self.settle(d, legal) {
                Settled::Done => return self.finish_object(Group::G4),
                // The queries still live may now agree on a type to seek.
                Settled::Narrowed => {
                    let legal = self.q.legality();
                    let expected = self.q.expected_type();
                    if let Some(open) = expected.and_then(|t| self.g1_opener(t, legal)) {
                        return self.object_typed(open, legal);
                    }
                }
                Settled::Open => {}
            }
        }
    }

    /// Algorithm 2's `array()` analog; the `[` has been consumed.
    fn array(&mut self) -> Result<(), Abort> {
        self.depth += 1;
        self.check_guards()?;
        let result = self.array_body();
        self.depth -= 1;
        result
    }

    fn array_body(&mut self) -> Result<(), Abort> {
        let Some(expected) = self.q.expected_type() else {
            // Incompatible step kind: nothing here matches (G2 drain).
            return self.finish_array(Group::G2);
        };
        let legal = self.q.legality();
        let range = self.q.index_range();
        let input = self.cur.input();
        loop {
            let t = self.cur.peek_token("element or `]`")?;
            if t == b']' {
                self.cur.bump();
                return Ok(());
            }
            if let Some((lo, hi)) = range.filter(|_| self.config.g5 && legal.g5) {
                let c = self.q.counter();
                if c >= hi {
                    // G5: everything past the range is irrelevant.
                    return self.finish_array(Group::G5);
                }
                if c < lo {
                    // G5: skip forward to the first in-range element.
                    if self.skip_elements(lo - c)? {
                        self.cur.expect(b']', "`]`")?;
                        return Ok(());
                    }
                    continue;
                }
            }
            // Filter predicates are probed against the candidate element's
            // bytes; `peek_token` already skipped to its first byte.
            let d = self.q.on_element(input, self.cur.pos());
            match self.q.status(d) {
                Status::Unmatched => {
                    self.skip_value(t, Group::G2)?;
                }
                Status::Accept => {
                    let span = self.skip_value(t, Group::G3)?;
                    self.emit(d, span)?;
                }
                Status::AcceptAndDescend => match t {
                    b'{' => self.descend_with_output(ContainerKind::Object, d)?,
                    b'[' => self.descend_with_output(ContainerKind::Array, d)?,
                    _ => {
                        // A primitive result has no interior to keep
                        // searching: plain skip-with-output.
                        let span = self.skip_value(t, Group::G3)?;
                        self.emit(d, span)?;
                    }
                },
                Status::Matched => match (expected, t) {
                    (ExpectedType::Array, b'{') | (ExpectedType::Object, b'[') => {
                        // Type-mismatched container element: G1 skip.
                        self.skip_value(t, Group::G1)?;
                    }
                    (_, b'{') => self.descend(ContainerKind::Object, d)?,
                    (_, b'[') => self.descend(ContainerKind::Array, d)?,
                    (ExpectedType::Unknown, _) => {
                        // Below descendants/filters a primitive element can
                        // still differ from its neighbors (e.g. `$..[2]`),
                        // so scan only this one — no batch skip.
                        self.skip_value(t, Group::G2)?;
                    }
                    _ => {
                        // No live query can take a primitive here: batch-skip
                        // the whole run (G1), keeping the element counter
                        // exact via the comma count.
                        let commas = go_over_primitives_to_opener(
                            &mut self.cur,
                            &mut self.stats,
                            Group::G1,
                        )?;
                        for _ in 0..commas {
                            self.q.increment();
                        }
                        // Cursor is at `{`, `[`, `]` (or a malformed `}`);
                        // re-enter the loop without delimiter handling.
                        if self.cur.peek() == Some(b'}') {
                            return Err(Abort::Err(StreamError::Unexpected {
                                expected: "`]` or element",
                                found: b'}',
                                pos: self.cur.pos(),
                            }));
                        }
                        continue;
                    }
                },
            }
            // Element delimiter.
            let d = self.cur.peek_token("`,` or `]`")?;
            match d {
                b',' => {
                    self.cur.bump();
                    self.q.increment();
                }
                b']' => {
                    self.cur.bump();
                    return Ok(());
                }
                other => {
                    return Err(Abort::Err(StreamError::Unexpected {
                        expected: "`,` or `]`",
                        found: other,
                        pos: self.cur.pos(),
                    }))
                }
            }
        }
    }

    /// G5's `goOverElems(K)`: skips `n` elements (value + delimiter) by
    /// type-directed fast-forwarding; returns `true` when the array ended
    /// first (cursor left at `]`).
    fn skip_elements(&mut self, n: usize) -> Result<bool, Abort> {
        for _ in 0..n {
            let t = self.cur.peek_token("element or `]`")?;
            if t == b']' {
                return Ok(true);
            }
            self.skip_value(t, Group::G5)?;
            let d = self.cur.peek_token("`,` or `]`")?;
            match d {
                b',' => {
                    self.cur.bump();
                    self.q.increment();
                }
                b']' => return Ok(true),
                other => {
                    return Err(Abort::Err(StreamError::Unexpected {
                        expected: "`,` or `]`",
                        found: other,
                        pos: self.cur.pos(),
                    }))
                }
            }
        }
        Ok(false)
    }

    /// Skips one value of any type, returning its span.
    fn skip_value(&mut self, first_byte: u8, group: Group) -> Result<Span, Abort> {
        let span = match first_byte {
            b'{' => go_over_obj(&mut self.cur, &mut self.stats, group)?,
            b'[' => go_over_ary(&mut self.cur, &mut self.stats, group)?,
            _ => go_over_primitive(&mut self.cur, &mut self.stats, group)?,
        };
        Ok(span)
    }

    /// The queries' progress after a value some query took or descended
    /// into: once every query is done with this object, no further sibling
    /// can match (G4).
    fn settle(&mut self, d: Q::Decision, legal: Legality) -> Settled {
        if self.config.g4 {
            self.q.settle(d, legal)
        } else {
            Settled::Open
        }
    }

    fn finish_object(&mut self, group: Group) -> Result<(), Abort> {
        go_to_obj_end(&mut self.cur, &mut self.stats, group)?;
        Ok(self.cur.expect(b'}', "`}`")?)
    }

    fn finish_array(&mut self, group: Group) -> Result<(), Abort> {
        go_to_ary_end(&mut self.cur, &mut self.stats, group)?;
        Ok(self.cur.expect(b']', "`]`")?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matches_of(query: &str, json: &str) -> Vec<String> {
        let q = JsonSki::compile(query).unwrap();
        q.matches(json.as_bytes())
            .unwrap()
            .into_iter()
            .map(|m| String::from_utf8_lossy(m.as_raw()).into_owned())
            .collect()
    }

    const TWEET: &str = r#"{
        "coordinates": [40.74118764, -73.9998279],
        "user": {"id": 6253282},
        "place": {
            "name": "Manhattan",
            "bounding_box": {"type": "Polygon", "pos": [[-74.026675, 40.683935]]}
        }
    }"#;

    #[test]
    fn paper_running_example() {
        assert_eq!(matches_of("$.place.name", TWEET), vec!["\"Manhattan\""]);
    }

    #[test]
    fn match_object_value() {
        let got = matches_of("$.user", TWEET);
        assert_eq!(got, vec![r#"{"id": 6253282}"#]);
    }

    #[test]
    fn match_number_in_nested_object() {
        assert_eq!(matches_of("$.user.id", TWEET), vec!["6253282"]);
    }

    #[test]
    fn match_array_value() {
        assert_eq!(
            matches_of("$.coordinates", TWEET),
            vec!["[40.74118764, -73.9998279]"]
        );
    }

    #[test]
    fn array_wildcard_at_root() {
        let json = r#"[{"text": "a"}, {"text": "b"}, {"nope": 1}]"#;
        assert_eq!(matches_of("$[*].text", json), vec!["\"a\"", "\"b\""]);
    }

    #[test]
    fn array_index() {
        let json = r#"[10, 20, 30, 40]"#;
        assert_eq!(matches_of("$[2]", json), vec!["30"]);
    }

    #[test]
    fn array_slice_selects_half_open_range() {
        let json = r#"[10, 20, 30, 40, 50]"#;
        assert_eq!(matches_of("$[2:4]", json), vec!["30", "40"]);
    }

    #[test]
    fn array_slice_of_objects() {
        let json = r#"{"pd": [{"cp": [{"id": 1}, {"id": 2}, {"id": 3}, {"id": 4}]}]}"#;
        assert_eq!(matches_of("$.pd[*].cp[1:3].id", json), vec!["2", "3"]);
    }

    #[test]
    fn nested_wildcards() {
        let json = r#"{"dt": [[[1, 2, 3, 4, 5], [6, 7, 8, 9]], [[10, 11, 12, 13]]]}"#;
        assert_eq!(
            matches_of("$.dt[*][*][2:4]", json),
            vec!["3", "4", "8", "9", "12", "13"]
        );
    }

    #[test]
    fn deep_path_with_heterogeneous_siblings() {
        let json = r#"{
            "a": [1, 2, {"skip": true}],
            "b": {"c": {"d": [0, {"e": "found"}]}},
            "z": "tail"
        }"#;
        assert_eq!(matches_of("$.b.c.d[1].e", json), vec!["\"found\""]);
    }

    #[test]
    fn no_match_returns_empty() {
        assert!(matches_of("$.nothing.here", TWEET).is_empty());
        assert!(matches_of("$[*].x", TWEET).is_empty()); // root type mismatch
    }

    #[test]
    fn empty_containers() {
        assert!(matches_of("$.a.b", r#"{}"#).is_empty());
        assert!(matches_of("$[*].b", r#"[]"#).is_empty());
        assert!(matches_of("$.a.b", r#"{"a": {}}"#).is_empty());
    }

    #[test]
    fn root_path_matches_whole_record() {
        assert_eq!(matches_of("$", r#"{"a": 1}"#), vec![r#"{"a": 1}"#]);
        assert_eq!(matches_of("$", "[1, 2]"), vec!["[1, 2]"]);
        assert_eq!(matches_of("$", "42"), vec!["42"]);
    }

    #[test]
    fn object_wildcard() {
        let json = r#"{"a": 1, "b": "two", "c": [3]}"#;
        assert_eq!(matches_of("$.*", json), vec!["1", "\"two\"", "[3]"]);
    }

    #[test]
    fn strings_with_metacharacters_do_not_confuse() {
        let json = r#"{"a": "{\"fake\": [1,2]}", "b": {"t": "}}]]"}, "q": {"t": "x"}}"#;
        assert_eq!(matches_of("$.q.t", json), vec!["\"x\""]);
    }

    #[test]
    fn escaped_quotes_in_names_and_values() {
        let json = r#"{"na\"me": 1, "target": {"v": "a\\\"b"}}"#;
        assert_eq!(matches_of("$.target.v", json), vec![r#""a\\\"b""#]);
    }

    #[test]
    fn type_mismatch_between_query_and_data_is_skipped() {
        // Query expects `a` to be an object, data has an array.
        let json = r#"{"a": [1, 2, 3], "b": 0}"#;
        assert!(matches_of("$.a.b", json).is_empty());
        // Query expects `a` to be an array, data has an object.
        assert!(matches_of("$.a[0]", json.replace("[1, 2, 3]", r#"{"x": 1}"#).as_str()).is_empty());
    }

    #[test]
    fn count_and_run_agree() {
        let q = JsonSki::compile("$[*].text").unwrap();
        let json = br#"[{"text": 1}, {"text": 2}, {"x": 3}]"#;
        assert_eq!(q.count(json).unwrap(), 2);
        assert_eq!(q.matches(json).unwrap().len(), 2);
    }

    #[test]
    fn stats_overall_ratio_is_high_for_selective_query() {
        let q = JsonSki::compile("$.place.name").unwrap();
        let mut n = 0;
        let stats = q.run(TWEET.as_bytes(), |_| n += 1).unwrap();
        assert_eq!(n, 1);
        assert!(stats.overall_ratio() > 0.5, "{stats}");
        assert_eq!(stats.total(), TWEET.len() as u64);
    }

    #[test]
    fn g5_prefix_skip_counts() {
        let json = r#"{"a": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]}"#;
        let q = JsonSki::compile("$.a[8]").unwrap();
        let stats = q
            .run(json.as_bytes(), |m| assert_eq!(m.bytes(), b"8"))
            .unwrap();
        assert!(stats.skipped(Group::G5) > 0, "{stats}");
    }

    #[test]
    fn malformed_unbalanced_is_reported() {
        let q = JsonSki::compile("$.a").unwrap();
        // Inner object never closes: the G2 skip's pairing detects it.
        assert!(matches!(
            q.count(br#"{"b": {"x": 1"#),
            Err(StreamError::Unbalanced { .. })
        ));
        // Outer object never closes: reported as EOF while scanning.
        assert!(q.count(br#"{"b": {"x": 1}"#).is_err());
    }

    #[test]
    fn malformed_missing_colon_is_reported() {
        let q = JsonSki::compile("$.a").unwrap();
        assert!(q.count(br#"{"a" 1}"#).is_err());
    }

    #[test]
    fn too_deep_is_reported() {
        let mut json = Vec::new();
        for _ in 0..(MAX_DEPTH + 2) {
            json.extend_from_slice(br#"{"a":"#);
        }
        json.extend_from_slice(b"1");
        json.extend(std::iter::repeat_n(b'}', MAX_DEPTH + 2));
        let q = JsonSki::compile("$.a.a.a").unwrap();
        // The match path nests deeper than the limit only if the query
        // descends; `$.a.a.a` descends three levels then outputs, so this
        // input is accepted. A query that keeps descending must error.
        assert!(q.count(&json).is_ok());
        let deep_q = JsonSki::compile("$").unwrap();
        assert!(deep_q.count(&json).is_ok()); // G3 output never recurses
    }

    #[test]
    fn whitespace_heavy_input() {
        let json = "  {  \"a\"  :  [  1 ,  {  \"b\"  :  \"hit\"  }  ]  }  ";
        assert_eq!(matches_of("$.a[1].b", json), vec!["\"hit\""]);
    }

    #[test]
    fn multiple_matches_in_nested_arrays() {
        let json = r#"{"it": [{"nm": "a"}, {"nm": "b"}, {"pr": 1}, {"nm": "c"}]}"#;
        assert_eq!(
            matches_of("$.it[*].nm", json),
            vec!["\"a\"", "\"b\"", "\"c\""]
        );
    }

    #[test]
    fn descendant_name_matches_at_every_depth() {
        let json = r#"{"a": {"name": "x", "b": {"name": "y"}}, "name": "z"}"#;
        assert_eq!(matches_of("$..name", json), vec!["\"x\"", "\"y\"", "\"z\""]);
    }

    #[test]
    fn descendant_emits_enclosing_container_before_inner_match() {
        let json = r#"{"a": {"a": 1}}"#;
        assert_eq!(matches_of("$..a", json), vec![r#"{"a": 1}"#, "1"]);
        let json = r#"{"a": {"x": {"a": {"a": 2}}}}"#;
        assert_eq!(
            matches_of("$..a", json),
            vec![r#"{"x": {"a": {"a": 2}}}"#, r#"{"a": 2}"#, "2"]
        );
    }

    #[test]
    fn descendant_wildcard_selects_members_and_elements() {
        let json = r#"{"a": [1, {"b": 2}]}"#;
        assert_eq!(
            matches_of("$..*", json),
            vec![r#"[1, {"b": 2}]"#, "1", r#"{"b": 2}"#, "2"]
        );
    }

    #[test]
    fn descendant_with_trailing_child() {
        let json = r#"{"x": {"a": {"b": 1}}, "a": {"b": 2}, "arr": [{"a": {"b": 3}}]}"#;
        assert_eq!(matches_of("$..a.b", json), vec!["1", "2", "3"]);
    }

    #[test]
    fn descendant_index_applies_in_every_array() {
        let json = r#"{"m": [[9, 8], [7]]}"#;
        assert_eq!(matches_of("$..[0]", json), vec!["[9, 8]", "9", "7"]);
    }

    #[test]
    fn name_union_selects_listed_names() {
        let json = r#"{"a": 1, "b": 2, "c": 3}"#;
        assert_eq!(matches_of("$['a','c']", json), vec!["1", "3"]);
    }

    #[test]
    fn index_union_selects_listed_indices() {
        let json = r#"[10, 20, 30, 40]"#;
        assert_eq!(matches_of("$[1,3]", json), vec!["20", "40"]);
        // Elements between union members are skipped, tail via G5.
        let q = JsonSki::compile("$[1,3]").unwrap();
        let long = br#"[10, 20, 30, 40, 50, 60, 70, 80]"#;
        let stats = q.run(long, |_| {}).unwrap();
        assert!(stats.skipped(Group::G5) > 0, "{stats}");
    }

    #[test]
    fn filter_comparisons_select_matching_elements() {
        let json = r#"{"items": [{"q": 5, "v": 1}, {"q": 9, "v": 2}, {"v": 3}]}"#;
        assert_eq!(matches_of("$.items[?(@.q > 4)].v", json), vec!["1", "2"]);
        assert_eq!(matches_of("$.items[?(@.q)].v", json), vec!["1", "2"]);
        // RFC semantics: a missing comparable satisfies only `!=`.
        assert_eq!(matches_of("$.items[?(@.q != 5)].v", json), vec!["2", "3"]);
        assert_eq!(matches_of("$.items[?(@.q == 9)].v", json), vec!["2"]);
    }

    #[test]
    fn filter_on_primitive_elements() {
        let json = r#"{"xs": [1, 5, 2, 8]}"#;
        assert_eq!(matches_of("$.xs[?(@ >= 5)]", json), vec!["5", "8"]);
        let json = r#"{"xs": [{"a": 1}, 3, {"a": 2}]}"#;
        assert_eq!(matches_of("$.xs[?(@.a)]", json).len(), 2);
    }

    #[test]
    fn descendant_filter_combination() {
        let json =
            r#"{"a": {"xs": [{"q": 9, "v": 1}, {"q": 1, "v": 2}]}, "xs": [{"q": 7, "v": 3}]}"#;
        assert_eq!(matches_of("$..[?(@.q > 5)].v", json), vec!["1", "3"]);
    }

    #[test]
    fn sink_break_mid_pending_flush_stops_scan() {
        let json = br#"{"a": {"a": {"a": 1}}}"#;
        let q = JsonSki::compile("$..a").unwrap();
        let mut seen = Vec::new();
        let outcome = q
            .stream(json, |m| {
                seen.push(m.bytes().to_vec());
                ControlFlow::Break(())
            })
            .unwrap();
        assert!(outcome.stopped);
        assert_eq!(seen, vec![br#"{"a": {"a": 1}}"#.to_vec()]);
    }

    #[test]
    fn descendant_legality_records_zero_g1_g4_g5() {
        let json = r#"{"a": [0, 1, 2, {"name": "x"}], "b": {"name": "y", "tail": [1, 2, 3]}}"#;
        let q = JsonSki::compile("$..name").unwrap();
        let stats = q.run(json.as_bytes(), |_| {}).unwrap();
        assert_eq!(stats.skipped(Group::G1), 0, "{stats}");
        assert_eq!(stats.skipped(Group::G4), 0, "{stats}");
        assert_eq!(stats.skipped(Group::G5), 0, "{stats}");
    }

    #[test]
    fn descendant_legality_flows_through_metrics() {
        // The per-group skip counters surface through the instrumented
        // path unchanged: a descendant query must leave the G1/G4/G5
        // metrics at zero, while the same document under a plain child
        // query records G4 skips.
        use crate::evaluate::{Evaluate, MatchSink};
        struct Null;
        impl MatchSink for Null {
            fn on_match(&mut self, _m: crate::Match<'_>) -> ControlFlow<()> {
                ControlFlow::Continue(())
            }
        }
        let json = br#"{"a": [0, 1, 2, {"name": "x"}], "b": {"name": "y", "tail": [1, 2, 3]}}"#;
        let metrics = crate::Metrics::new();
        let q = JsonSki::compile("$..name").unwrap();
        q.evaluate_metered(json, 0, &mut Null, Some(&metrics));
        let snap = metrics.snapshot();
        for g in [Group::G1, Group::G4, Group::G5] {
            assert_eq!(snap.ff_skipped(g), 0, "{g:?} fired under a descendant");
        }
        let metrics = crate::Metrics::new();
        let q = JsonSki::compile("$.b.name").unwrap();
        q.evaluate_metered(json, 0, &mut Null, Some(&metrics));
        assert!(metrics.snapshot().ff_skipped(Group::G4) > 0);
    }

    #[test]
    fn g4_stops_after_unique_name_match() {
        // After `name` matches, `rest` must be skipped via G4.
        let json = r#"{"place": {"name": "x", "rest": {"deep": [1,2,3]}}}"#;
        let q = JsonSki::compile("$.place.name").unwrap();
        let stats = q.run(json.as_bytes(), |_| {}).unwrap();
        assert!(stats.skipped(Group::G4) > 0, "{stats}");
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;
    use simdbits::BLOCK;

    fn configs() -> Vec<EngineConfig> {
        let mut out = Vec::new();
        for g1 in [true, false] {
            for g4 in [true, false] {
                for g5 in [true, false] {
                    out.push(EngineConfig::builder().g1(g1).g4(g4).g5(g5).build());
                }
            }
        }
        out
    }

    const DOC: &str = r#"{
        "pd": [
            {"cp": [{"id": 1}, {"id": 2}, {"id": 3}, {"id": 4}], "x": {"d": 1}},
            {"cp": [{"id": 5}], "y": [1, 2]},
            {"cp": [{"id": 6}, {"id": 7}, {"id": 8}]}
        ],
        "tail": {"deep": [1, {"z": 2}]}
    }"#;

    #[test]
    fn all_configs_agree_on_results() {
        for query in [
            "$.pd[*].cp[1:3].id",
            "$.pd[0].cp[*]",
            "$.tail.deep[1].z",
            "$.pd[*].y",
        ] {
            let reference: Vec<Vec<u8>> = JsonSki::compile(query)
                .unwrap()
                .matches(DOC.as_bytes())
                .unwrap()
                .into_iter()
                .map(|m| m.as_raw().to_vec())
                .collect();
            for cfg in configs() {
                let got: Vec<Vec<u8>> = JsonSki::compile(query)
                    .unwrap()
                    .with_config(cfg)
                    .matches(DOC.as_bytes())
                    .unwrap()
                    .into_iter()
                    .map(|m| m.as_raw().to_vec())
                    .collect();
                assert_eq!(got, reference, "{query} with {cfg:?}");
            }
        }
    }

    #[test]
    fn disabled_groups_record_zero() {
        let q = JsonSki::compile("$.tail.deep[1].z").unwrap().with_config(
            EngineConfig::builder()
                .disable_g1()
                .disable_g4()
                .disable_g5()
                .build(),
        );
        let stats = q.run(DOC.as_bytes(), |_| {}).unwrap();
        assert_eq!(stats.skipped(Group::G1), 0);
        assert_eq!(stats.skipped(Group::G4), 0);
        assert_eq!(stats.skipped(Group::G5), 0);
        // The engine still fast-forwards unmatched values (G2).
        assert!(stats.skipped(Group::G2) > 0);
    }

    #[test]
    fn default_config_uses_all_groups_where_applicable() {
        let q = JsonSki::compile("$.pd[0].cp[1:3].id").unwrap();
        assert_eq!(q.config(), EngineConfig::default());
        let stats = q.run(DOC.as_bytes(), |_| {}).unwrap();
        assert!(stats.skipped(Group::G4) > 0, "{stats}");
        assert!(stats.skipped(Group::G5) > 0, "{stats}");
    }

    fn strict(query: &str) -> JsonSki {
        JsonSki::compile(query)
            .unwrap()
            .with_config(EngineConfig::builder().strict().build())
    }

    fn first_invalid(query: &str, json: &[u8]) -> (usize, crate::InvalidReason) {
        match strict(query).matches(json) {
            Err(StreamError::Invalid { pos, reason }) => (pos, reason),
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn strict_accepts_clean_input_with_identical_matches() {
        for query in ["$.pd[*].cp[1:3].id", "$.tail.deep[1].z", "$.pd[*].y"] {
            let permissive: Vec<Vec<u8>> = JsonSki::compile(query)
                .unwrap()
                .matches(DOC.as_bytes())
                .unwrap()
                .into_iter()
                .map(|m| m.as_raw().to_vec())
                .collect();
            let got: Vec<Vec<u8>> = strict(query)
                .matches(DOC.as_bytes())
                .unwrap()
                .into_iter()
                .map(|m| m.as_raw().to_vec())
                .collect();
            assert_eq!(got, permissive, "{query}");
        }
    }

    #[test]
    fn strict_rejects_faults_inside_fast_forwarded_spans() {
        use crate::InvalidReason;
        // The query matches "a", so everything under "skipme" is
        // fast-forwarded (G2) — permissive mode never looks at it.
        let bad_utf8 = b"{\"skipme\": \"x\xFFy\", \"a\": 1}";
        let q = JsonSki::compile("$.a").unwrap();
        assert_eq!(q.matches(bad_utf8).unwrap(), vec![&b"1"[..]]);
        assert_eq!(first_invalid("$.a", bad_utf8), (13, InvalidReason::Utf8));

        let lone = br#"{"skipme": "\uD800", "a": 1}"#;
        assert_eq!(
            first_invalid("$.a", lone),
            (12, InvalidReason::LoneSurrogate)
        );

        let ctl = b"{\"skipme\": \"a\x01b\", \"a\": 1}";
        assert_eq!(first_invalid("$.a", ctl), (13, InvalidReason::ControlChar));

        let bad_esc = br#"{"skipme": "\x", "a": 1}"#;
        assert_eq!(
            first_invalid("$.a", bad_esc),
            (13, InvalidReason::BadEscape)
        );
    }

    #[test]
    fn strict_rejects_trailing_garbage_and_unbalanced() {
        use crate::InvalidReason;
        assert_eq!(
            first_invalid("$.a", br#"{"a": 1}}"#),
            (8, InvalidReason::TrailingGarbage)
        );
        // Counting-based pairing does not distinguish `}` from `]`, so the
        // mismatch shows up as depth 1 at end of input.
        assert_eq!(
            first_invalid("$.a", br#"{"a": [1, 2}"#),
            (12, InvalidReason::Unbalanced)
        );
        // An unterminated string surfaces as the validator's typed verdict,
        // not the structural scan's UnexpectedEof echo.
        let unterminated = br#"{"a": "oops"#;
        assert_eq!(
            first_invalid("$.a", unterminated),
            (unterminated.len(), InvalidReason::UnterminatedString)
        );
    }

    #[test]
    fn strict_validates_bytes_after_the_last_match() {
        use crate::InvalidReason;
        // The match for $.a completes before the fault; only a full-record
        // validation pass can see it.
        // The DFA rejects at the byte that fails the continuation check.
        let json = b"{\"a\": 1, \"later\": \"\xC3(\"}";
        let q = JsonSki::compile("$.a").unwrap();
        assert_eq!(q.matches(json).unwrap(), vec![&b"1"[..]]);
        assert_eq!(first_invalid("$.a", json), (20, InvalidReason::Utf8));
    }

    #[test]
    fn strict_early_stop_skips_remaining_validation() {
        // Break from the sink means "no further input bytes are examined",
        // including by the validator. Validation is word-granular, so the
        // fault must live in a 64-byte word past the early stop.
        let mut json = b"{\"it\": [1, 2], \"pad\": \"".to_vec();
        json.extend(std::iter::repeat_n(b'x', 80));
        json.extend_from_slice(b"\", \"bad\": \"\xFF\"}");
        let outcome = strict("$.it[*]")
            .stream(&json, |_| ControlFlow::Break(()))
            .unwrap();
        assert!(outcome.stopped);
        // Same document without the early stop is rejected.
        assert!(matches!(
            strict("$.it[*]").matches(&json),
            Err(StreamError::Invalid { .. })
        ));
    }

    #[test]
    fn strict_break_before_a_fault_in_the_same_window_returns_stopped() {
        // The validator runs a window (16 words) ahead of the cursor, so it
        // finds the fault in word 5 while the cursor is still in word 0;
        // the break there must still win.
        let mut json = b"{\"it\": [1, 2], \"pad\": \"".to_vec();
        json.resize(5 * BLOCK + 10, b'x');
        json.extend_from_slice(b"\xFF\"}");
        let outcome = strict("$.it[*]")
            .stream(&json, |_| ControlFlow::Break(()))
            .unwrap();
        assert!(outcome.stopped);
        assert_eq!(outcome.words_classified, 1);
        assert_eq!(
            first_invalid("$.it[*]", &json),
            (5 * BLOCK + 10, crate::InvalidReason::Utf8)
        );
    }

    #[test]
    fn strict_delivers_a_match_in_one_word_before_a_fault_in_the_next() {
        // `"a": 7` sits in word 1 and the bad byte in word 2: the match is
        // delivered before the error, as a word-by-word validator would.
        let mut json = b"{\"pad\": \"".to_vec();
        json.resize(BLOCK + 8, b'x');
        json.extend_from_slice(b"\", \"a\": 7, \"b\": \"");
        let bad = 2 * BLOCK + 20;
        json.resize(bad, b'y');
        json.extend_from_slice(b"\xC3(\"}");
        let mut got = Vec::new();
        let result = strict("$.a").stream(&json, |m| {
            got.push(m.bytes().to_vec());
            ControlFlow::Continue(())
        });
        assert_eq!(got, vec![b"7".to_vec()]);
        assert_eq!(
            result.map(|o| o.matches),
            Err(StreamError::Invalid {
                pos: bad + 1,
                reason: crate::InvalidReason::Utf8
            })
        );
    }

    #[test]
    fn strict_lone_surrogate_breaking_in_a_later_word_reports_its_backslash() {
        // The high surrogate's `\` is in word 0; the byte that breaks the
        // pair (and so detects the fault) is in word 1.
        let mut json = b"{\"a\": 1, \"s\": \"".to_vec();
        json.resize(BLOCK - 4, b'x');
        json.extend_from_slice(br#"\uD800!", "t": 2}"#);
        let backslash = BLOCK - 4;
        assert_eq!(
            first_invalid("$.a", &json),
            (backslash, crate::InvalidReason::LoneSurrogate)
        );
        assert_eq!(
            first_invalid("$.t", &json),
            (backslash, crate::InvalidReason::LoneSurrogate)
        );
        // A break in word 0 stops before the detection.
        let outcome = strict("$.a")
            .stream(&json, |_| ControlFlow::Break(()))
            .unwrap();
        assert!(outcome.stopped);
    }

    #[test]
    fn forced_kernels_agree_on_matches() {
        for &k in Kernel::all() {
            if !k.is_supported() {
                continue;
            }
            let q = JsonSki::compile("$.pd[0].cp[1:3].id")
                .unwrap()
                .with_config(EngineConfig::builder().kernel(Some(k)).strict().build());
            let got: Vec<Vec<u8>> = q
                .matches(DOC.as_bytes())
                .unwrap()
                .into_iter()
                .map(|m| m.as_raw().to_vec())
                .collect();
            let reference: Vec<Vec<u8>> = JsonSki::compile("$.pd[0].cp[1:3].id")
                .unwrap()
                .matches(DOC.as_bytes())
                .unwrap()
                .into_iter()
                .map(|m| m.as_raw().to_vec())
                .collect();
            assert_eq!(got, reference, "kernel {k:?}");
        }
    }
}
