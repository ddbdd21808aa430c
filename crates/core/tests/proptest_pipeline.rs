//! Property-based serial/parallel pipeline equivalence: on random record
//! batches — including injected malformed records and splitter-breaking
//! damage — a [`Pipeline`] must make the same sink callbacks in the same
//! order (matches, record errors, resyncs and checkpoints), return the same
//! summary, and count the same deterministic metrics totals for every
//! worker count and both error policies. Evaluated-side counters are
//! additionally compared under [`ErrorPolicy::SkipMalformed`], where every
//! record is evaluated exactly once regardless of parallelism (under
//! `FailFast` workers may speculate past the failing record, so only
//! delivered-side counters are portable).

use std::ops::ControlFlow;
use std::sync::Arc;

use proptest::prelude::*;

use jsonski::{
    CancellationToken, CheckpointCadence, EngineError, ErrorPolicy, JsonSki, Match, MatchSink,
    Metrics, MetricsSnapshot, Pipeline, PipelineSummary, RecordSource, SliceRecords,
};

/// Owned in-memory record batch (malformed records included verbatim —
/// unlike `SliceRecords`, boundaries are given, not discovered).
struct OwnedRecords {
    records: Vec<Vec<u8>>,
    next: usize,
}

impl RecordSource for OwnedRecords {
    fn next_record(&mut self) -> Result<Option<&[u8]>, EngineError> {
        if self.next >= self.records.len() {
            return Ok(None);
        }
        let r = &self.records[self.next];
        self.next += 1;
        Ok(Some(r))
    }
}

/// One sink callback, as [`Recorder`] logs it.
#[derive(PartialEq, Eq, Debug)]
enum Callback {
    Match(u64, Vec<u8>),
    RecordError(u64),
    Resync(u64, u64),
    Checkpoint(PipelineSummary),
}

/// Sink recording every callback in the order the pipeline made it.
#[derive(Default, PartialEq, Eq, Debug)]
struct Recorder {
    log: Vec<Callback>,
}

impl Recorder {
    /// The delivered matches: record ordinal and bytes.
    fn matches(&self) -> Vec<(u64, Vec<u8>)> {
        self.log
            .iter()
            .filter_map(|c| match c {
                Callback::Match(idx, bytes) => Some((*idx, bytes.clone())),
                _ => None,
            })
            .collect()
    }

    /// The bytes of the delivered matches.
    fn match_bytes(&self) -> impl Iterator<Item = &[u8]> {
        self.log.iter().filter_map(|c| match c {
            Callback::Match(_, bytes) => Some(bytes.as_slice()),
            _ => None,
        })
    }

    /// The ordinals of the records reported as skipped.
    fn errors(&self) -> Vec<u64> {
        self.log
            .iter()
            .filter_map(|c| match c {
                Callback::RecordError(idx) => Some(*idx),
                _ => None,
            })
            .collect()
    }
}

impl MatchSink for Recorder {
    fn on_match(&mut self, m: Match<'_>) -> ControlFlow<()> {
        self.log
            .push(Callback::Match(m.record_idx(), m.bytes().to_vec()));
        ControlFlow::Continue(())
    }

    fn on_record_error(&mut self, record_idx: u64, _error: &EngineError) -> ControlFlow<()> {
        self.log.push(Callback::RecordError(record_idx));
        ControlFlow::Continue(())
    }

    fn on_resync(&mut self, span: (u64, u64), _error: &EngineError) -> ControlFlow<()> {
        self.log.push(Callback::Resync(span.0, span.1));
        ControlFlow::Continue(())
    }

    fn on_checkpoint(&mut self, summary: &PipelineSummary) -> Result<(), EngineError> {
        self.log.push(Callback::Checkpoint(*summary));
        Ok(())
    }
}

/// A well-formed record drawing from the key/shape universe the queries
/// below can address.
fn valid_record() -> BoxedStrategy<Vec<u8>> {
    let scalar = prop_oneof![
        Just("null".to_string()),
        (-999i64..999).prop_map(|n| n.to_string()),
        Just("\"x{y}\\\"z\"".to_string()),
    ];
    scalar
        .prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..4)
                    .prop_map(|vs| format!("[{}]", vs.join(", "))),
                prop::collection::btree_map(
                    prop_oneof![
                        Just("a".to_string()),
                        Just("b".to_string()),
                        Just("c".to_string())
                    ],
                    inner,
                    0..4
                )
                .prop_map(|m| {
                    let fields: Vec<String> = m
                        .into_iter()
                        .map(|(k, v)| format!("\"{k}\": {v}"))
                        .collect();
                    format!("{{{}}}", fields.join(", "))
                }),
            ]
        })
        .prop_map(String::into_bytes)
        .boxed()
}

/// A structurally malformed record (missing colon, unclosed or mismatched
/// containers) — the kinds of damage every engine must diagnose.
fn malformed_record() -> BoxedStrategy<Vec<u8>> {
    prop_oneof![
        Just(b"{\"a\" 1}".to_vec()),
        Just(b"{\"a\": [1, 2".to_vec()),
        Just(b"{\"a\": [3, 30}".to_vec()),
        Just(b"[1, {\"b\": 2]".to_vec()),
        Just(b"{\"a\": [4, 5, 6, 7}".to_vec()),
        Just(b"[8, 9, 10, {\"a\": 11]".to_vec()),
    ]
    .boxed()
}

/// A batch of up to a dozen records, roughly one in five malformed.
fn batch() -> BoxedStrategy<Vec<Vec<u8>>> {
    prop::collection::vec(
        prop_oneof![4 => valid_record(), 1 => malformed_record()],
        0..12,
    )
    .boxed()
}

/// A record that breaks the *splitter* (not just evaluation): excess
/// closers error mid-stream and resynchronize past the line; unbalanced
/// opens swallow following lines until balance or end of stream. Both
/// exercise [`MatchSink::on_resync`] under [`ErrorPolicy::SkipMalformed`].
fn splitter_breaking_record() -> BoxedStrategy<Vec<u8>> {
    prop_oneof![
        Just(b"]".to_vec()),
        Just(b"}".to_vec()),
        Just(b"[1, 2]]".to_vec()),
        Just(b"{\"a\": 1}}".to_vec()),
        Just(b"{\"a\": [1, 2".to_vec()),
    ]
    .boxed()
}

/// A batch dense in splitter-breaking damage, so most runs resynchronize
/// at least once.
fn resync_batch() -> BoxedStrategy<Vec<Vec<u8>>> {
    prop::collection::vec(
        prop_oneof![2 => valid_record(), 1 => splitter_breaking_record()],
        1..12,
    )
    .boxed()
}

fn query() -> BoxedStrategy<String> {
    prop_oneof![
        Just("$.a".to_string()),
        Just("$.a[*]".to_string()),
        Just("$[*]".to_string()),
        Just("$.*".to_string()),
        Just("$.a.b".to_string()),
    ]
    .boxed()
}

/// The metrics totals that must be identical for every worker count.
fn delivered_totals(s: &MetricsSnapshot) -> (u64, u64, u64, u64) {
    (
        s.records_delivered,
        s.matches_delivered,
        s.bytes_delivered,
        s.records_skipped,
    )
}

/// The evaluated-side totals, portable only when every record is evaluated
/// exactly once (SkipMalformed, or failure-free FailFast runs).
fn evaluated_totals(s: &MetricsSnapshot) -> (u64, u64, u64, u64, [u64; 5]) {
    (
        s.records_evaluated,
        s.records_failed,
        s.matches_emitted,
        s.bytes_evaluated,
        s.ff_skipped,
    )
}

#[allow(clippy::type_complexity)]
fn run(
    engine: &JsonSki,
    records: &[Vec<u8>],
    jobs: usize,
    policy: ErrorPolicy,
) -> (Recorder, Result<PipelineSummary, String>, MetricsSnapshot) {
    let pipeline = Pipeline::new().workers(jobs).error_policy(policy);
    run_pipeline(engine, records, false, pipeline)
}

/// Runs `pipeline` (with a fresh metrics registry) over `records`: with
/// their boundaries given, or, when `split`, newline-joined and discovered
/// by [`SliceRecords`], which resynchronizes past splitter-breaking damage.
#[allow(clippy::type_complexity)]
fn run_pipeline(
    engine: &JsonSki,
    records: &[Vec<u8>],
    split: bool,
    pipeline: Pipeline,
) -> (Recorder, Result<PipelineSummary, String>, MetricsSnapshot) {
    let metrics = Arc::new(Metrics::new());
    let stream = records.join(&b'\n');
    let mut sliced = SliceRecords::new(&stream);
    let mut owned = OwnedRecords {
        records: records.to_vec(),
        next: 0,
    };
    let source: &mut dyn RecordSource = if split { &mut sliced } else { &mut owned };
    let mut sink = Recorder::default();
    let result = pipeline
        .metrics(Arc::clone(&metrics))
        .run(engine, source, &mut sink)
        .map_err(|e| e.to_string());
    (sink, result, metrics.snapshot())
}

/// The `max_matches(n)` property for one draw. The model is a serial loop
/// that stops each record's scan at the run's remaining room, so a record
/// that fails only after the n-th match counts as stopped there, not as
/// failed. An uncapped serial count cross-checks the model: it lets every
/// record run to its end or its error, and a record that fails counts the
/// matches it delivered first when they fill the run (under either
/// policy), and nothing otherwise.
fn check_capped_prefix(
    records: &[Vec<u8>],
    q: &str,
    n: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let engine = JsonSki::compile(q).unwrap();
    for policy in [ErrorPolicy::FailFast, ErrorPolicy::SkipMalformed] {
        let mut expect: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut expect_ok = true;
        for (idx, r) in records.iter().enumerate() {
            if expect.len() == n {
                break;
            }
            let room = n - expect.len();
            let mut got = Vec::new();
            let result = engine.stream(r, |m| {
                got.push((idx as u64, m.bytes().to_vec()));
                if got.len() == room {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            match result {
                Ok(_) => expect.extend(got),
                Err(_) if policy == ErrorPolicy::SkipMalformed => {}
                Err(_) => {
                    expect_ok = false;
                    break;
                }
            }
        }
        let (mut total, mut total_ok) = (0usize, true);
        for r in records {
            if total >= n {
                break;
            }
            let mut seen = 0usize;
            match engine.stream(r, |_| {
                seen += 1;
                ControlFlow::Continue(())
            }) {
                Ok(_) => total += seen,
                Err(_) if total + seen >= n => total = n,
                Err(_) if policy == ErrorPolicy::SkipMalformed => {}
                Err(_) => {
                    total_ok = false;
                    break;
                }
            }
        }
        prop_assert_eq!(
            expect.len(),
            total.min(n),
            "q={} n={} policy={:?}",
            q,
            n,
            policy
        );
        prop_assert_eq!(expect_ok, total_ok, "q={} n={} policy={:?}", q, n, policy);
        for jobs in [1usize, 2, 8] {
            let mut source = OwnedRecords {
                records: records.to_vec(),
                next: 0,
            };
            let mut sink = Recorder::default();
            let result = Pipeline::new()
                .workers(jobs)
                .error_policy(policy)
                .max_matches(n)
                .run(&engine, &mut source, &mut sink);
            prop_assert_eq!(
                &sink.matches(),
                &expect,
                "q={} n={} jobs={} policy={:?}",
                q,
                n,
                jobs,
                policy
            );
            prop_assert_eq!(result.is_ok(), expect_ok, "q={} n={} jobs={}", q, n, jobs);
            if let Ok(summary) = result {
                prop_assert_eq!(summary.matches, expect.len());
                prop_assert_eq!(summary.stopped, expect.len() == n);
            }
        }
    }
    Ok(())
}

/// The draw that showed the old cross-check wrong: the first record fails
/// only after the cap's two matches, so the capped run delivers them while
/// an uncapped run skips the whole record.
#[test]
fn max_matches_counts_a_record_failing_past_the_cap() {
    let records = vec![br#"{"a": [4, 5, 6, 7}"#.to_vec(), br#"{"a": [8]}"#.to_vec()];
    check_capped_prefix(&records, "$.a[*]", 2).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The whole callback log (matches, record errors, resync spans and
    // checkpoint summaries, in order) is the same for every worker count,
    // whether records come with their boundaries or through the splitter.
    #[test]
    fn parallel_pipeline_equals_serial(
        input in prop_oneof![
            batch().prop_map(|r| (r, false)),
            resync_batch().prop_map(|r| (r, true)),
        ],
        q in query(),
        every in 1u64..4,
    ) {
        let (records, split) = input;
        let engine = JsonSki::compile(&q).unwrap();
        // A split stream can fail at its splitter, which ends a FailFast
        // run before records already handed to workers are merged.
        let has_malformed = split || records.iter().any(|r| engine.count(r).is_err());
        for policy in [ErrorPolicy::FailFast, ErrorPolicy::SkipMalformed] {
            let run = |jobs| {
                let pipeline = Pipeline::new()
                    .workers(jobs)
                    .error_policy(policy)
                    .checkpoints(CheckpointCadence::default().every_records(every));
                run_pipeline(&engine, &records, split, pipeline)
            };
            let (ref_sink, ref_result, ref_snap) = run(1);
            for jobs in [2usize, 8] {
                let (sink, result, snap) = run(jobs);
                prop_assert_eq!(
                    &sink, &ref_sink,
                    "callback log diverges: q={} jobs={} policy={:?}", q, jobs, policy
                );
                match (&result, &ref_result) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "summary: q={} jobs={}", q, jobs),
                    (Err(_), Err(_)) => {}
                    (a, b) => {
                        prop_assert!(false, "result kind diverges: jobs={} {:?} vs {:?}", jobs, a, b);
                    }
                }
                prop_assert_eq!(
                    delivered_totals(&snap),
                    delivered_totals(&ref_snap),
                    "delivered metrics: q={} jobs={} policy={:?}", q, jobs, policy
                );
                // SkipMalformed evaluates every record exactly once whatever
                // the worker count; so does FailFast when nothing fails.
                if policy == ErrorPolicy::SkipMalformed || !has_malformed {
                    prop_assert_eq!(
                        evaluated_totals(&snap),
                        evaluated_totals(&ref_snap),
                        "evaluated metrics: q={} jobs={} policy={:?}", q, jobs, policy
                    );
                }
            }
            // The pipeline's own summary must agree with the sink's view and
            // the metrics registry's delivered counters.
            if let Ok(summary) = &ref_result {
                prop_assert_eq!(summary.matches, ref_sink.matches().len());
                prop_assert_eq!(summary.failed, ref_sink.errors().len() as u64);
                prop_assert_eq!(ref_snap.matches_delivered, ref_sink.matches().len() as u64);
                prop_assert_eq!(ref_snap.records_skipped, ref_sink.errors().len() as u64);
            }
        }
    }

    // `max_matches(n)` delivers exactly `min(n, total)` matches, the
    // first ones of the stream in order, for every worker count and both
    // error policies (see `check_capped_prefix`).
    #[test]
    fn max_matches_delivers_the_capped_prefix(records in batch(), q in query(), n in 1usize..12) {
        check_capped_prefix(&records, &q, n)?;
    }

    // Summary accounting must not drift across checkpoints: splitting a
    // batch at an arbitrary point and summing the two segments' summaries
    // must equal the uninterrupted run, counter for counter, with the
    // delivered match stream concatenating byte-identically.
    #[test]
    fn split_run_summaries_sum_to_the_whole(
        records in batch(),
        q in query(),
        split in 0usize..12,
        jobs in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let engine = JsonSki::compile(&q).unwrap();
        let k = split.min(records.len());
        let (full_sink, full, _) = run(&engine, &records, jobs, ErrorPolicy::SkipMalformed);
        let full = full.unwrap();
        let (head_sink, head, _) = run(&engine, &records[..k], jobs, ErrorPolicy::SkipMalformed);
        let (tail_sink, tail, _) = run(&engine, &records[k..], jobs, ErrorPolicy::SkipMalformed);
        let (head, tail) = (head.unwrap(), tail.unwrap());

        prop_assert_eq!(head.records + tail.records, full.records);
        prop_assert_eq!(head.matches + tail.matches, full.matches);
        prop_assert_eq!(head.failed + tail.failed, full.failed);
        prop_assert_eq!(head.resyncs + tail.resyncs, full.resyncs);
        prop_assert_eq!(head.resync_bytes + tail.resync_bytes, full.resync_bytes);

        let whole: Vec<&[u8]> = full_sink.match_bytes().collect();
        let glued: Vec<&[u8]> = head_sink.match_bytes().chain(tail_sink.match_bytes()).collect();
        prop_assert_eq!(glued, whole, "q={} jobs={} k={}", q, jobs, k);
    }

    // Cancelling mid-run and resuming from the committed offset must cover
    // the byte stream exactly once: segment summaries sum to the
    // uninterrupted run's, and the match bytes concatenate identically —
    // even when resynchronizations occupy part of the stream.
    #[test]
    fn cancel_then_resume_covers_the_stream_once(
        records in batch(),
        q in query(),
        cancel_at in 1usize..8,
        jobs in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let engine = JsonSki::compile(&q).unwrap();
        let mut stream = Vec::new();
        for r in &records {
            stream.extend_from_slice(r);
            stream.push(b'\n');
        }

        let run_slice = |bytes: &[u8], token: Option<CancellationToken>| {
            let mut source = SliceRecords::new(bytes);
            let mut sink = Recorder::default();
            let mut pipeline = Pipeline::new()
                .workers(jobs)
                .error_policy(ErrorPolicy::SkipMalformed);
            if let Some(t) = &token {
                pipeline = pipeline.cancel_token(t.clone());
            }
            let summary = pipeline.run(&engine, &mut source, &mut sink).unwrap();
            (sink, summary)
        };

        let (full_sink, full) = run_slice(&stream, None);

        let token = CancellationToken::new();
        let trip = token.clone();
        let mut seen = 0usize;
        let mut first_sink = Recorder::default();
        let first = {
            struct CancelAfter<'a> {
                inner: &'a mut Recorder,
                seen: &'a mut usize,
                at: usize,
                token: &'a CancellationToken,
            }
            impl MatchSink for CancelAfter<'_> {
                fn on_match(&mut self, m: Match<'_>) -> ControlFlow<()> {
                    *self.seen += 1;
                    if *self.seen == self.at {
                        self.token.cancel();
                    }
                    self.inner.on_match(m)
                }
                fn on_record_error(
                    &mut self,
                    record_idx: u64,
                    error: &EngineError,
                ) -> ControlFlow<()> {
                    self.inner.on_record_error(record_idx, error)
                }
            }
            let mut source = SliceRecords::new(&stream);
            let mut sink = CancelAfter {
                inner: &mut first_sink,
                seen: &mut seen,
                at: cancel_at,
                token: &trip,
            };
            Pipeline::new()
                .workers(jobs)
                .error_policy(ErrorPolicy::SkipMalformed)
                .cancel_token(token)
                .run(&engine, &mut source, &mut sink)
                .unwrap()
        };

        let (second_sink, second) = run_slice(&stream[first.committed_offset as usize..], None);

        prop_assert_eq!(first.records + second.records, full.records);
        prop_assert_eq!(first.matches + second.matches, full.matches);
        prop_assert_eq!(first.failed + second.failed, full.failed);
        prop_assert_eq!(first.resyncs + second.resyncs, full.resyncs);
        prop_assert_eq!(first.resync_bytes + second.resync_bytes, full.resync_bytes);

        let whole: Vec<&[u8]> = full_sink.match_bytes().collect();
        let glued: Vec<&[u8]> = first_sink.match_bytes().chain(second_sink.match_bytes()).collect();
        prop_assert_eq!(glued, whole, "q={} jobs={} cancel_at={}", q, jobs, cancel_at);
    }

    // A cancellation that lands *during* a SkipMalformed resynchronization
    // must still leave a consistent committed offset: the abandoned span is
    // either fully inside the first leg (counted once, offset past it) or
    // fully in the resumed leg — never split, never double-counted. The two
    // legs' summaries must sum to the uninterrupted run's, counter for
    // counter, resync bytes included.
    #[test]
    fn cancel_during_resync_still_commits_consistently(
        records in resync_batch(),
        q in query(),
        cancel_at in 1usize..4,
        jobs in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let engine = JsonSki::compile(&q).unwrap();
        let mut stream = Vec::new();
        for r in &records {
            stream.extend_from_slice(r);
            stream.push(b'\n');
        }

        let run_slice = |bytes: &[u8]| {
            let mut source = SliceRecords::new(bytes);
            let mut sink = Recorder::default();
            let summary = Pipeline::new()
                .workers(jobs)
                .error_policy(ErrorPolicy::SkipMalformed)
                .run(&engine, &mut source, &mut sink)
                .unwrap();
            (sink, summary)
        };

        let (full_sink, full) = run_slice(&stream);

        // First leg: trip the token inside the `cancel_at`-th resync report,
        // mid-resynchronization from the pipeline's point of view.
        struct CancelOnResync<'a> {
            inner: &'a mut Recorder,
            resyncs_seen: &'a mut usize,
            at: usize,
            token: &'a CancellationToken,
        }
        impl MatchSink for CancelOnResync<'_> {
            fn on_match(&mut self, m: Match<'_>) -> ControlFlow<()> {
                self.inner.on_match(m)
            }
            fn on_record_error(&mut self, record_idx: u64, error: &EngineError) -> ControlFlow<()> {
                self.inner.on_record_error(record_idx, error)
            }
            fn on_resync(&mut self, _span: (u64, u64), _error: &EngineError) -> ControlFlow<()> {
                *self.resyncs_seen += 1;
                if *self.resyncs_seen == self.at {
                    self.token.cancel();
                }
                ControlFlow::Continue(())
            }
        }
        let token = CancellationToken::new();
        let mut first_sink = Recorder::default();
        let mut resyncs_seen = 0usize;
        let first = {
            let mut source = SliceRecords::new(&stream);
            let mut sink = CancelOnResync {
                inner: &mut first_sink,
                resyncs_seen: &mut resyncs_seen,
                at: cancel_at,
                token: &token,
            };
            Pipeline::new()
                .workers(jobs)
                .error_policy(ErrorPolicy::SkipMalformed)
                .cancel_token(token.clone())
                .run(&engine, &mut source, &mut sink)
                .unwrap()
        };

        // The first leg's own accounting must agree with what the sink saw,
        // and its committed offset must stay inside the stream.
        prop_assert_eq!(first.resyncs, resyncs_seen as u64);
        prop_assert!(first.committed_offset as usize <= stream.len());

        let (second_sink, second) = run_slice(&stream[first.committed_offset as usize..]);

        prop_assert_eq!(first.records + second.records, full.records,
            "records: q={} jobs={} cancel_at={}", q, jobs, cancel_at);
        prop_assert_eq!(first.matches + second.matches, full.matches);
        prop_assert_eq!(first.failed + second.failed, full.failed);
        prop_assert_eq!(first.resyncs + second.resyncs, full.resyncs,
            "resyncs: q={} jobs={} cancel_at={}", q, jobs, cancel_at);
        prop_assert_eq!(first.resync_bytes + second.resync_bytes, full.resync_bytes,
            "resync bytes: q={} jobs={} cancel_at={}", q, jobs, cancel_at);

        let whole: Vec<&[u8]> = full_sink.match_bytes().collect();
        let glued: Vec<&[u8]> = first_sink.match_bytes().chain(second_sink.match_bytes()).collect();
        prop_assert_eq!(glued, whole, "q={} jobs={} cancel_at={}", q, jobs, cancel_at);
    }
}
