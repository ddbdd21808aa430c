//! The unified sink-based evaluation API, exercised across all five
//! engines and `MultiQuery`, plus pipeline determinism and error-policy
//! behaviour on corrupt-record streams.

use std::ops::ControlFlow;

use jsonski_repro::harness::all_engines;
use jsonski_repro::jsonpath::Path;
use jsonski_repro::jsonski::{
    CountSink, ErrorPolicy, Evaluate, Match, MatchSink, MultiQuery, Pipeline, RecordOutcome,
    SliceRecords,
};

/// Per-engine capture: the match bytes and the per-record outcome keys.
type EngineCapture = (Vec<(u64, Vec<u8>)>, Vec<(&'static str, usize)>);

/// Records every sink callback, for byte-exact cross-engine comparison.
#[derive(Default)]
struct Recorder {
    matches: Vec<(u64, Vec<u8>)>,
    errors: Vec<u64>,
}

impl MatchSink for Recorder {
    fn on_match(&mut self, m: Match<'_>) -> ControlFlow<()> {
        self.matches.push((m.record_idx(), m.bytes().to_vec()));
        ControlFlow::Continue(())
    }

    fn on_record_error(
        &mut self,
        record_idx: u64,
        _error: &jsonski_repro::jsonski::EngineError,
    ) -> ControlFlow<()> {
        self.errors.push(record_idx);
        ControlFlow::Continue(())
    }
}

/// Comparable projection of a [`RecordOutcome`] (the error payloads differ
/// per engine by design; the shape and counts must not).
fn outcome_key(o: &RecordOutcome) -> (&'static str, usize) {
    match o {
        RecordOutcome::Complete { matches } => ("complete", *matches),
        RecordOutcome::Stopped { matches } => ("stopped", *matches),
        RecordOutcome::Failed(_) => ("failed", 0),
    }
}

/// A record stream whose record 3 is balanced at the brace level — the
/// record splitter still finds its end — but malformed inside (an unclosed
/// `[`), so every engine must *diagnose* it rather than choke on
/// boundaries.
fn corpus() -> (Vec<Vec<u8>>, &'static str) {
    let mut records: Vec<Vec<u8>> = (0..8)
        .map(|i| format!(r#"{{"a": [{i}, {}]}}"#, i * 10).into_bytes())
        .collect();
    records[3] = br#"{"a": [3, 30}"#.to_vec();
    (records, "$.a[*]")
}

/// The five engines for `query`, then `MultiQuery` with `query` alone and
/// with two more queries that match nothing in [`corpus`] (so its match
/// counts stay comparable), all through [`Evaluate`].
fn engines(query: &str) -> Vec<Box<dyn Evaluate>> {
    let path: Path = query.parse().unwrap();
    let mut engines = all_engines(&path);
    engines.push(Box::new(MultiQuery::compile(&[query]).unwrap()));
    engines.push(Box::new(
        MultiQuery::compile(&[query, "$.b", "$.a[5]"]).unwrap(),
    ));
    engines
}

#[test]
fn all_engines_emit_identical_matches_and_outcomes() {
    let (records, query) = corpus();
    let engines = engines(query);
    let mut per_engine: Vec<EngineCapture> = Vec::new();
    for engine in &engines {
        let mut matches = Vec::new();
        let mut outcomes = Vec::new();
        for (i, record) in records.iter().enumerate() {
            // Per-record buffering, like the pipeline: a streaming engine
            // may emit matches *before* diagnosing a later error in the
            // same record, so a failed record's matches are discarded.
            let mut rec = Recorder::default();
            let outcome = engine.evaluate(record, i as u64, &mut rec);
            if !outcome.is_failed() {
                matches.extend(rec.matches);
            }
            outcomes.push(outcome_key(&outcome));
        }
        per_engine.push((matches, outcomes));
    }
    let (ref_matches, ref_outcomes) = &per_engine[0];
    assert_eq!(ref_outcomes[3], ("failed", 0), "record 3 must be diagnosed");
    assert_eq!(ref_matches.len(), 14, "7 valid records x 2 matches");
    for (i, (matches, outcomes)) in per_engine.iter().enumerate().skip(1) {
        assert_eq!(
            matches,
            ref_matches,
            "{} emits different match bytes than {}",
            engines[i].name(),
            engines[0].name()
        );
        assert_eq!(
            outcomes,
            ref_outcomes,
            "{} reports different outcomes than {}",
            engines[i].name(),
            engines[0].name()
        );
    }
}

#[test]
fn every_engine_survives_corrupt_streams_under_skip_malformed() {
    let (records, query) = corpus();
    let mut stream = Vec::new();
    for r in &records {
        stream.extend_from_slice(r);
        stream.push(b'\n');
    }
    for engine in engines(query) {
        // Serial reference: count over the valid records only.
        let serial: usize = records.iter().filter_map(|r| engine.count(r).ok()).sum();
        let mut source = SliceRecords::new(&stream);
        let mut sink = Recorder::default();
        let summary = Pipeline::new()
            .workers(4)
            .error_policy(ErrorPolicy::SkipMalformed)
            .run(engine.as_ref(), &mut source, &mut sink)
            .unwrap_or_else(|e| panic!("{}: {e}", engine.name()));
        assert_eq!(summary.records, records.len() as u64, "{}", engine.name());
        assert_eq!(summary.failed, 1, "{}", engine.name());
        assert_eq!(sink.errors, vec![3], "{}", engine.name());
        assert_eq!(summary.matches, serial, "{}", engine.name());
        // FailFast on the same stream must abort instead.
        let mut source = SliceRecords::new(&stream);
        let mut count = CountSink::default();
        let err = Pipeline::new()
            .workers(4)
            .error_policy(ErrorPolicy::FailFast)
            .run(engine.as_ref(), &mut source, &mut count)
            .unwrap_err();
        assert!(!err.to_string().is_empty(), "{}", engine.name());
    }
}

#[test]
fn pipeline_is_deterministic_across_worker_counts() {
    let mut stream = Vec::new();
    for i in 0..300 {
        stream.extend_from_slice(format!("{{\"a\": [{i}, {i}, {i}]}}\n").as_bytes());
    }
    let engine = jsonski_repro::jsonski::JsonSki::compile("$.a[*]").unwrap();
    let mut reference: Option<Vec<(u64, Vec<u8>)>> = None;
    for workers in [1usize, 4, 16] {
        let mut source = SliceRecords::new(&stream);
        let mut sink = Recorder::default();
        let summary = Pipeline::new()
            .workers(workers)
            .run(&engine, &mut source, &mut sink)
            .unwrap();
        assert_eq!(summary.matches, 900, "workers={workers}");
        assert!(sink.errors.is_empty());
        match &reference {
            None => reference = Some(sink.matches),
            Some(r) => assert_eq!(&sink.matches, r, "workers={workers} reorders output"),
        }
    }
}

#[test]
fn control_flow_break_stops_the_byte_scan() {
    // One large record: after the first match the sink breaks, and the
    // engine must not examine the rest of the input (the `--limit 1` CLI
    // behaviour, asserted on consumed bytes rather than output length).
    let mut record = b"{\"a\": [".to_vec();
    for i in 0..10_000 {
        record.extend_from_slice(format!("{i},").as_bytes());
    }
    record.pop();
    record.extend_from_slice(b"], \"tail\": 0}");
    let engine = jsonski_repro::jsonski::JsonSki::compile("$.a[0]").unwrap();
    let outcome = engine.stream(&record, |_| ControlFlow::Break(())).unwrap();
    assert!(outcome.stopped);
    assert_eq!(outcome.matches, 1, "the breaking match is counted");
    assert!(
        outcome.consumed < record.len() / 10,
        "consumed {} of {} bytes",
        outcome.consumed,
        record.len()
    );
}
