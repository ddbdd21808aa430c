//! Multi-query streaming: evaluate several JSONPath queries in **one**
//! pass with shared fast-forwarding.
//!
//! JPStream compiles query *sets* into one automaton; JSONSki's paper
//! evaluates single queries but nothing in its design precludes sharing the
//! stream. A query set is just more automaton state: [`MultiQuery`] runs
//! the single-query evaluator of [`crate::engine`] over one automaton
//! instance per query, and every skip decision is the conjunction, over the
//! live queries, of the decision each would take alone — a value is skipped
//! (G2) only when every query is unmatched on it, G1 seeks only when every
//! live query expects the same container type, G4 fires once every query is
//! done at the level, and G5 skips outside the union of the live index
//! ranges. Accepted values are emitted per query. The per-value work is
//! O(#queries) state updates; the stream is still classified exactly once.

use std::ops::ControlFlow;

use jsonpath::{
    ContainerKind, ExpectedType, Legality, ParsePathError, Path, Runtime, State, Status,
};

use crate::cursor::Cursor;
use crate::engine::{evaluate, EngineConfig, QuerySet, Settled};
use crate::error::StreamError;
use crate::evaluate::{stream_outcome, Evaluate, Match, MatchSink, RecordOutcome};
use crate::stats::FastForwardStats;

/// A set of compiled queries evaluated together in one streaming pass.
///
/// # Example
///
/// ```
/// use jsonski::MultiQuery;
///
/// let json = br#"{"user": {"id": 7}, "place": {"name": "Manhattan"}}"#;
/// let mq = MultiQuery::compile(&["$.place.name", "$.user.id"])?;
/// let counts = mq.counts(json)?;
/// assert_eq!(counts, vec![1, 1]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct MultiQuery {
    paths: Vec<Path>,
    config: EngineConfig,
}

impl MultiQuery {
    /// Wraps already-parsed paths.
    pub fn new(paths: Vec<Path>) -> Self {
        MultiQuery {
            paths,
            config: EngineConfig::default(),
        }
    }

    /// Replaces the configuration (builder-style): the G1/G4/G5 ablation
    /// switches, resource guards, input trust level and kernel apply to
    /// the shared scan exactly as for [`JsonSki`](crate::JsonSki).
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Compiles a set of JSONPath expressions.
    ///
    /// # Errors
    ///
    /// The first expression that fails to parse.
    pub fn compile(queries: &[&str]) -> Result<Self, ParsePathError> {
        Ok(MultiQuery::new(
            queries
                .iter()
                .map(|q| q.parse())
                .collect::<Result<_, _>>()?,
        ))
    }

    /// The compiled paths.
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }

    /// Streams one record with early-exit support; `sink(query_index, match)`
    /// fires per match and may return [`ControlFlow::Break`] to stop scanning.
    /// Each query's matches arrive in the order its own
    /// [`JsonSki::stream`](crate::JsonSki::stream) would deliver them. With
    /// one query this *is* that engine's pass: same matches, statistics
    /// and work.
    ///
    /// The [`StreamOutcome`] reports combined match counts across all queries,
    /// whether the sink stopped the scan, and how many input bytes were
    /// consumed (strictly fewer than `input.len()` when a break saved work).
    ///
    /// # Errors
    ///
    /// [`StreamError`] on malformed input discovered on any examined path.
    ///
    /// [`StreamOutcome`]: crate::StreamOutcome
    pub fn stream<'a, F>(
        &self,
        input: &'a [u8],
        sink: F,
    ) -> Result<crate::StreamOutcome, StreamError>
    where
        F: FnMut(usize, Match<'a>) -> ControlFlow<()>,
    {
        let cur = Cursor::with_options(input, self.config.kernel, self.config.validation);
        match &self.paths[..] {
            [path] => evaluate(Runtime::new(path), cur, self.config, sink),
            paths => evaluate(Many::new(paths), cur, self.config, sink),
        }
    }

    /// Streams one record; `sink(query_index, match)` fires per match.
    ///
    /// # Errors
    ///
    /// [`StreamError`] on malformed input discovered on any examined path.
    pub fn run<'a, F>(&self, input: &'a [u8], mut sink: F) -> Result<FastForwardStats, StreamError>
    where
        F: FnMut(usize, Match<'a>),
    {
        let outcome = self.stream(input, |i, m| {
            sink(i, m);
            ControlFlow::Continue(())
        })?;
        Ok(outcome.stats)
    }

    /// Per-query match counts for one record.
    ///
    /// # Errors
    ///
    /// Propagates [`StreamError`] from [`MultiQuery::run`].
    pub fn counts(&self, input: &[u8]) -> Result<Vec<usize>, StreamError> {
        let mut counts = vec![0usize; self.paths.len()];
        self.run(input, |i, _| counts[i] += 1)?;
        Ok(counts)
    }
}

/// Each match carries its query's ordinal ([`Match::query`]), so a sink
/// behind a [`Pipeline`](crate::Pipeline) can tell the queries apart.
impl Evaluate for MultiQuery {
    fn name(&self) -> &'static str {
        "JSONSki+multi"
    }

    /// Through the outcome mapping shared with [`JsonSki`](crate::JsonSki).
    fn evaluate_metered(
        &self,
        record: &[u8],
        record_idx: u64,
        sink: &mut dyn MatchSink,
        metrics: Option<&crate::Metrics>,
    ) -> RecordOutcome {
        stream_outcome(record, &self.config.limits, metrics, || {
            self.stream(record, |q, m| {
                sink.on_match(m.with_record_idx(record_idx).with_query(q))
            })
        })
    }
}

/// One query's transition for the value under scan at one level, plus its
/// progress through the object at that level.
#[derive(Clone, Copy)]
struct Slot {
    state: State,
    status: Status,
    /// The query can match nothing more in this object: its frame was dead
    /// on entry, or it matched a uniquely-named child (G4-legal).
    done: bool,
    /// A match here ends the query's interest in the object (G4 is legal
    /// for the query's state).
    g4: bool,
}

impl Slot {
    const IDLE: Slot = Slot {
        state: State::UNMATCHED,
        status: Status::Unmatched,
        done: false,
        g4: false,
    };
}

/// Several queries in lockstep: one [`Runtime`] each, and per-record
/// scratch of one [`Slot`] per query per nesting level, so no value
/// allocates.
struct Many<'p> {
    rts: Vec<Runtime<'p>>,
    /// `slots[level * n + i]` is query `i` at nesting `level` (0 for the
    /// root value, 1 for the root container's members, ...).
    slots: Vec<Slot>,
    level: usize,
}

/// A decision of [`Many`]: the combined status and where the per-query
/// transitions live.
#[derive(Clone, Copy)]
struct Joint {
    base: usize,
    status: Status,
}

impl<'p> Many<'p> {
    fn new(paths: &'p [Path]) -> Self {
        Many {
            rts: paths.iter().map(Runtime::new).collect(),
            slots: vec![Slot::IDLE; 16 * paths.len()],
            level: 0,
        }
    }

    /// Pushes one level (after every runtime entered its frame).
    fn deeper(&mut self) {
        self.level += 1;
        let n = self.rts.len();
        let base = self.level * n;
        if self.slots.len() < base + n {
            self.slots.resize(base + n, Slot::IDLE);
        }
        for slot in &mut self.slots[base..base + n] {
            slot.done = false;
        }
    }

    /// Records every query's transition for the value under scan at the
    /// current level and combines their statuses.
    fn decide(
        &mut self,
        mut decide: impl FnMut(&mut Runtime<'p>, &Slot) -> (State, Status),
    ) -> Joint {
        let n = self.rts.len();
        let base = self.level * n;
        let (mut accept, mut live) = (false, false);
        for (rt, slot) in self.rts.iter_mut().zip(&mut self.slots[base..base + n]) {
            (slot.state, slot.status) = decide(rt, slot);
            accept |= matches!(slot.status, Status::Accept | Status::AcceptAndDescend);
            live |= matches!(slot.status, Status::Matched | Status::AcceptAndDescend);
        }
        let status = match (accept, live) {
            (false, false) => Status::Unmatched,
            (false, true) => Status::Matched,
            (true, false) => Status::Accept,
            (true, true) => Status::AcceptAndDescend,
        };
        Joint { base, status }
    }

    /// The runtimes that can still match in the current container.
    fn live(&self) -> impl Iterator<Item = &Runtime<'p>> {
        let base = self.level * self.rts.len();
        self.rts
            .iter()
            .zip(&self.slots[base..])
            .filter(|(rt, slot)| !slot.done && !rt.is_unmatched())
            .map(|(rt, _)| rt)
    }
}

impl QuerySet for Many<'_> {
    type Decision = Joint;

    fn len(&self) -> usize {
        self.rts.len()
    }

    fn enter_root(&mut self, kind: ContainerKind) -> Joint {
        let d = self.decide(|rt, _| (State::UNMATCHED, rt.enter_root(kind)));
        self.deeper();
        d
    }

    fn primitive_root(&mut self) -> Joint {
        self.decide(|rt, _| {
            if rt.path().is_empty() {
                (State::UNMATCHED, Status::Accept)
            } else {
                (State::UNMATCHED, Status::Unmatched)
            }
        })
    }

    fn on_key(&mut self, raw: &[u8]) -> Joint {
        // A query done with this object takes no further sibling, exactly
        // as its own G4 skip would have passed them by.
        self.decide(|rt, slot| {
            if slot.done {
                (State::UNMATCHED, Status::Unmatched)
            } else {
                rt.value_state_for_key_raw(raw)
            }
        })
    }

    fn on_element(&mut self, input: &[u8], pos: usize) -> Joint {
        self.decide(|rt, _| {
            rt.element_state_with(&mut |expr| jsonpath::filter::eval(expr, &input[pos..]))
        })
    }

    fn status(&self, d: Joint) -> Status {
        d.status
    }

    fn accepts(&self, d: Joint, i: usize) -> bool {
        matches!(
            self.slots[d.base + i].status,
            Status::Accept | Status::AcceptAndDescend
        )
    }

    fn enter(&mut self, kind: ContainerKind, d: Joint) {
        for (rt, slot) in self.rts.iter_mut().zip(&self.slots[d.base..]) {
            rt.enter(kind, slot.state);
        }
        self.deeper();
    }

    fn exit(&mut self) {
        for rt in &mut self.rts {
            rt.exit();
        }
        self.level -= 1;
    }

    fn increment(&mut self) {
        for rt in &mut self.rts {
            rt.increment();
        }
    }

    fn counter(&self) -> usize {
        // Every runtime enters and leaves the same frames, so their
        // counters agree.
        self.rts.first().map_or(0, Runtime::counter)
    }

    fn expected_type(&self) -> Option<ExpectedType> {
        self.live()
            .map(|rt| rt.expected_type())
            .fold(None, |acc, t| match (acc, t) {
                (None, t) => t,
                (Some(a), Some(t)) if a == t => Some(a),
                _ => Some(ExpectedType::Unknown),
            })
    }

    fn legality(&self) -> Legality {
        self.live()
            .fold(Legality::ALL, |acc, rt| acc.and(rt.legality()))
    }

    fn index_range(&self) -> Option<(usize, usize)> {
        let mut live = self.live();
        let first = live.next()?.index_range()?;
        live.try_fold(first, |(lo, hi), rt| {
            rt.index_range().map(|(l, h)| (lo.min(l), hi.max(h)))
        })
    }

    fn open_object(&mut self) {
        let n = self.rts.len();
        let base = self.level * n;
        for (rt, slot) in self.rts.iter().zip(&mut self.slots[base..base + n]) {
            slot.done = rt.is_unmatched();
            slot.g4 = rt.legality().g4;
        }
    }

    fn settle(&mut self, d: Joint, _: Legality) -> Settled {
        let n = self.rts.len();
        let (mut all, mut narrowed) = (true, false);
        for slot in &mut self.slots[d.base..d.base + n] {
            if !slot.done && slot.g4 && slot.status != Status::Unmatched {
                slot.done = true;
                narrowed = true;
            }
            all &= slot.done;
        }
        match (all, narrowed) {
            (true, _) => Settled::Done,
            (false, true) => Settled::Narrowed,
            (false, false) => Settled::Open,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Group;

    fn individual_counts(queries: &[&str], json: &[u8]) -> Vec<usize> {
        queries
            .iter()
            .map(|q| crate::JsonSki::compile(q).unwrap().count(json).unwrap())
            .collect()
    }

    #[test]
    fn agrees_with_individual_runs() {
        let json = br#"{
            "user": {"id": 7, "name": "ann"},
            "place": {"name": "NYC", "tags": [1, 2, 3]},
            "items": [{"x": 1}, {"x": 2}, {"y": 3}]
        }"#;
        let queries = [
            "$.place.name",
            "$.user.id",
            "$.items[*].x",
            "$.items[1:3]",
            "$.missing.path",
            "$",
        ];
        let mq = MultiQuery::compile(&queries).unwrap();
        assert_eq!(mq.counts(json).unwrap(), individual_counts(&queries, json));
    }

    #[test]
    fn emits_to_the_right_query() {
        let json = br#"{"a": 1, "b": "two"}"#;
        let mq = MultiQuery::compile(&["$.b", "$.a"]).unwrap();
        let mut hits: Vec<(usize, Vec<u8>)> = Vec::new();
        mq.run(json, |i, m| hits.push((i, m.bytes().to_vec())))
            .unwrap();
        hits.sort();
        assert_eq!(hits, vec![(0, b"\"two\"".to_vec()), (1, b"1".to_vec())]);
    }

    #[test]
    fn shared_prefix_descends_once() {
        // Both queries descend through `a`; the pass is still single.
        let json = br#"{"a": {"b": 1, "c": 2}, "z": {"b": 9}}"#;
        let mq = MultiQuery::compile(&["$.a.b", "$.a.c"]).unwrap();
        assert_eq!(mq.counts(json).unwrap(), vec![1, 1]);
    }

    #[test]
    fn overlapping_accept_and_descend() {
        // One query accepts `a` itself while the other needs its interior.
        let json = br#"{"a": {"b": 5}}"#;
        let mq = MultiQuery::compile(&["$.a", "$.a.b"]).unwrap();
        let mut got = [Vec::new(), Vec::new()];
        mq.run(json, |i, m| got[i].push(m.bytes().to_vec()))
            .unwrap();
        assert_eq!(got[0], vec![br#"{"b": 5}"#.to_vec()]);
        assert_eq!(got[1], vec![b"5".to_vec()]);
    }

    #[test]
    fn multi_g5_tail_skip_respects_widest_range() {
        let json = br#"{"a": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]}"#;
        let mq = MultiQuery::compile(&["$.a[1]", "$.a[3:5]"]).unwrap();
        let stats = {
            let mut c = vec![0usize; 2];
            let s = mq.run(json, |i, _| c[i] += 1).unwrap();
            assert_eq!(c, vec![1, 2]);
            s
        };
        // Elements 5..9 are beyond every range: skipped as G5.
        assert!(stats.skipped(Group::G5) > 0, "{stats}");
    }

    #[test]
    fn wildcard_query_disables_g5() {
        let json = br#"[1, 2, 3, 4]"#;
        let mq = MultiQuery::compile(&["$[0]", "$[*]"]).unwrap();
        assert_eq!(mq.counts(json).unwrap(), vec![1, 4]);
    }

    #[test]
    fn all_unmatched_object_is_drained_bit_parallel() {
        let json = br#"{"huge": {"x": [1, 2, {"y": 3}]}, "a": 1}"#;
        let mq = MultiQuery::compile(&["$.a", "$.nope"]).unwrap();
        let stats = mq.run(json, |_, _| {}).unwrap();
        assert!(stats.skipped(Group::G2) > 0, "{stats}");
    }

    #[test]
    fn empty_query_set_is_fine() {
        let mq = MultiQuery::new(vec![]);
        assert!(mq.counts(br#"{"a": 1}"#).unwrap().is_empty());
    }

    #[test]
    fn compile_error_propagates() {
        assert!(MultiQuery::compile(&["$.ok", "$.bad["]).is_err());
    }

    #[test]
    fn descendant_and_filter_queries_share_the_pass() {
        let json = br#"{
            "a": {"name": "x", "b": {"name": "y"}},
            "items": [{"v": 1, "q": 5}, {"v": 2, "q": 9}, {"v": 3}]
        }"#;
        let queries = ["$..name", "$.items[?(@.q > 4)].v", "$.a.name"];
        let mq = MultiQuery::compile(&queries).unwrap();
        assert_eq!(mq.counts(json).unwrap(), individual_counts(&queries, json));
        let mut got: Vec<Vec<Vec<u8>>> = vec![Vec::new(); queries.len()];
        mq.run(json, |i, m| got[i].push(m.bytes().to_vec()))
            .unwrap();
        assert_eq!(got[0], vec![b"\"x\"".to_vec(), b"\"y\"".to_vec()]);
        assert_eq!(got[1], vec![b"1".to_vec(), b"2".to_vec()]);
        assert_eq!(got[2], vec![b"\"x\"".to_vec()]);
    }

    #[test]
    fn overlapping_descendant_emits_pre_order() {
        // `$..a` takes both the outer container and the inner value; the
        // outer (enclosing) match must reach the sink first.
        let json = br#"{"a": {"a": 1}}"#;
        let mq = MultiQuery::compile(&["$..a"]).unwrap();
        let mut got = Vec::new();
        mq.run(json, |_, m| got.push(m.bytes().to_vec())).unwrap();
        assert_eq!(got, vec![br#"{"a": 1}"#.to_vec(), b"1".to_vec()]);
    }

    #[test]
    fn strict_multi_query_rejects_skipped_fault() {
        use crate::InvalidReason;
        // Neither query touches "junk"; only strict validation sees it.
        let json = b"{\"junk\": \"\xFF\", \"a\": 1, \"b\": 2}";
        let mq = MultiQuery::compile(&["$.a", "$.b"]).unwrap();
        assert_eq!(mq.counts(json).unwrap(), vec![1, 1]);
        let strict = mq.with_config(EngineConfig::builder().strict().build());
        match strict.counts(json) {
            Err(StreamError::Invalid {
                pos: 10,
                reason: InvalidReason::Utf8,
            }) => {}
            other => panic!("expected Invalid at 10, got {other:?}"),
        }
    }

    #[test]
    fn paper_query_pairs_in_one_pass() {
        // The two TT queries of Table 5 evaluated together.
        let json = br#"[
            {"text": "t1", "en": {"urls": [{"url": "u1"}]}},
            {"text": "t2", "en": {"urls": []}},
            {"text": "t3", "en": {"urls": [{"url": "u2"}, {"url": "u3"}]}}
        ]"#;
        let queries = ["$[*].en.urls[*].url", "$[*].text"];
        let mq = MultiQuery::compile(&queries).unwrap();
        assert_eq!(mq.counts(json).unwrap(), vec![3, 3]);
        assert_eq!(mq.counts(json).unwrap(), individual_counts(&queries, json));
    }

    #[test]
    fn one_query_is_the_single_engine_pass() {
        let json = br#"{"n": 1, "s": "x", "a": [0, 1, 2, 3, {"id": 4}], "b": {"id": 5}}"#;
        for query in ["$.a[4].id", "$.b.id", "$.a[1:3]", "$..id"] {
            let mut got = Vec::new();
            let multi = MultiQuery::compile(&[query])
                .unwrap()
                .stream(json, |_, m| {
                    got.push(m.span());
                    ControlFlow::Continue(())
                })
                .unwrap();
            let mut want = Vec::new();
            let single = crate::JsonSki::compile(query)
                .unwrap()
                .stream(json, |m| {
                    want.push(m.span());
                    ControlFlow::Continue(())
                })
                .unwrap();
            assert_eq!(got, want, "{query}");
            for g in Group::ALL {
                assert_eq!(
                    multi.stats.skipped(g),
                    single.stats.skipped(g),
                    "{query} {g:?}"
                );
            }
            assert_eq!(multi.words_classified, single.words_classified, "{query}");
        }
    }

    #[test]
    fn evaluate_stamps_each_match_with_its_query() {
        let mq = MultiQuery::compile(&["$.b", "$.a"]).unwrap();
        let mut got = Vec::new();
        let mut sink = crate::FnSink::new(|m: Match<'_>| {
            got.push((m.record_idx(), m.query(), m.bytes().to_vec()));
            ControlFlow::Continue(())
        });
        let outcome = mq.evaluate(br#"{"a": 1, "b": "two"}"#, 7, &mut sink);
        assert_eq!(outcome.matches(), 2);
        got.sort();
        assert_eq!(
            got,
            vec![(7, 0, b"\"two\"".to_vec()), (7, 1, b"1".to_vec())]
        );
    }

    #[test]
    fn one_query_evaluate_metered_counts_like_jsonski() {
        let records: [&[u8]; 4] = [
            br#"{"n": 1, "a": [0, 1, {"id": 4}], "b": {"id": 5}}"#,
            br#"{"a": [3, 30}"#,
            br#"{"a": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14]}"#,
            br#"{"b": {"id": 6}, "pad": "xxxxxxxx"}"#,
        ];
        let config = EngineConfig::builder()
            .limits(crate::ResourceLimits::default().max_record_bytes(50))
            .build();
        for query in ["$.a[*]", "$.b.id", "$..id"] {
            let single = crate::JsonSki::compile(query).unwrap().with_config(config);
            let multi = MultiQuery::compile(&[query]).unwrap().with_config(config);
            let (ms, mm) = (crate::Metrics::new(), crate::Metrics::new());
            for (i, r) in records.iter().enumerate() {
                let mut sink = crate::CountSink::default();
                let a = single.evaluate_metered(r, i as u64, &mut sink, Some(&ms));
                let b = multi.evaluate_metered(r, i as u64, &mut sink, Some(&mm));
                assert_eq!(a.matches(), b.matches(), "{query} record {i}");
                assert_eq!(a.is_failed(), b.is_failed(), "{query} record {i}");
            }
            let (s, m) = (ms.snapshot(), mm.snapshot());
            let counters = |x: &crate::MetricsSnapshot| {
                (
                    (x.records_evaluated, x.records_stopped, x.records_failed),
                    (x.matches_emitted, x.bytes_evaluated, x.bytes_failed),
                    (x.ff_skipped, x.words_classified, x.limit_rejections),
                )
            };
            assert_eq!(counters(&m), counters(&s), "{query}");
            assert_eq!(s.records_failed, 2, "{query}: one malformed, one oversized");
        }
    }

    #[test]
    fn g1_seeks_when_every_live_query_expects_the_same_type() {
        let json = br#"{"p": 1, "q": "skip", "a": {"x": 1}, "r": [2], "b": {"y": 2}}"#;
        let stats = MultiQuery::compile(&["$.a.x", "$.b.y"])
            .unwrap()
            .run(json, |_, _| {})
            .unwrap();
        assert!(stats.skipped(Group::G1) > 0, "{stats}");
        // A live query whose match may be any value turns the seek off.
        let stats = MultiQuery::compile(&["$.a.x", "$.r"])
            .unwrap()
            .run(json, |_, _| {})
            .unwrap();
        assert_eq!(stats.skipped(Group::G1), 0, "{stats}");
        // Once that query is done with the object, the rest is sought.
        let mut got = vec![Vec::new(); 2];
        let stats = MultiQuery::compile(&["$.a.x", "$.p"])
            .unwrap()
            .run(json, |i, m| got[i].push(m.bytes().to_vec()))
            .unwrap();
        assert_eq!(got, [vec![b"1".to_vec()], vec![b"1".to_vec()]]);
        // G1 runs from the comma after `"p": 1` to the opening quote of "a".
        assert_eq!(
            stats.skipped(Group::G1),
            br#", "q": "skip", "#.len() as u64,
            "{stats}"
        );
    }

    #[test]
    fn g5_prefix_skip_covers_the_union_of_ranges() {
        let json = br#"{"a": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]}"#;
        let mq = MultiQuery::compile(&["$.a[4]", "$.a[6:8]"]).unwrap();
        let mut got = vec![Vec::new(); 2];
        let stats = mq
            .run(json, |i, m| got[i].push(m.bytes().to_vec()))
            .unwrap();
        assert_eq!(
            got,
            [vec![b"4".to_vec()], vec![b"6".to_vec(), b"7".to_vec()]]
        );
        // Elements 0..4 go by the prefix skip, 8.. by the tail skip, and
        // only element 5 (between the ranges) is a G2 skip.
        assert_eq!(stats.skipped(Group::G2), 1, "{stats}");
        assert!(stats.skipped(Group::G5) > 0, "{stats}");
    }

    #[test]
    fn g4_once_every_query_is_done() {
        let json = br#"{"a": 1, "b": 2, "c": {"deep": [1, 2, 3]}}"#;
        let mq = MultiQuery::compile(&["$.a", "$.b"]).unwrap();
        assert!(mq.run(json, |_, _| {}).unwrap().skipped(Group::G4) > 0);
        // A wildcard is never done, so the object is scanned to its end.
        let mq = MultiQuery::compile(&["$.a", "$.*"]).unwrap();
        assert_eq!(mq.run(json, |_, _| {}).unwrap().skipped(Group::G4), 0);
    }

    #[test]
    fn done_query_takes_no_later_sibling() {
        // Duplicate names are outside the data model, but a query done with
        // an object must still see exactly what its own G4 skip leaves.
        let json = br#"{"a": 1, "a": 2, "b": 3}"#;
        let mut got = vec![Vec::new(); 2];
        MultiQuery::compile(&["$.a", "$.b"])
            .unwrap()
            .run(json, |i, m| got[i].push(m.bytes().to_vec()))
            .unwrap();
        let own = crate::JsonSki::compile("$.a")
            .unwrap()
            .matches(json)
            .unwrap();
        assert_eq!(
            got[0],
            own.iter().map(|m| m.as_raw().to_vec()).collect::<Vec<_>>()
        );
        assert_eq!(got[1], vec![b"3".to_vec()]);
    }

    #[test]
    fn ablation_switches_apply_to_the_shared_pass() {
        let json = br#"{"p": 1, "a": {"x": [0, 1, 2, 3]}, "b": {"y": 2}, "z": [1]}"#;
        let queries = ["$.a.x[2]", "$.b.y"];
        let all = MultiQuery::compile(&queries).unwrap();
        let stats = all.run(json, |_, _| {}).unwrap();
        for g in [Group::G1, Group::G4, Group::G5] {
            assert!(stats.skipped(g) > 0, "{g:?}: {stats}");
        }
        let none = all.with_config(
            EngineConfig::builder()
                .disable_g1()
                .disable_g4()
                .disable_g5()
                .build(),
        );
        let stats = none.run(json, |_, _| {}).unwrap();
        for g in [Group::G1, Group::G4, Group::G5] {
            assert_eq!(stats.skipped(g), 0, "{g:?}: {stats}");
        }
        assert_eq!(none.counts(json).unwrap(), vec![1, 1]);
    }
}
