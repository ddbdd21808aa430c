//! Crash-safety integration tests: worker panic isolation, resource
//! deadlines under the parallel pipeline, cooperative cancellation across
//! threads, and checkpoint/resume producing byte-identical output.
//!
//! These run without the `faults` feature, so panic injection uses a local
//! [`Evaluate`] wrapper rather than `jsonski::faults`.

use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use jsonski::{
    digest_parts, CancellationToken, Checkpoint, CheckpointCadence, ChunkedRecords, EngineError,
    ErrorPolicy, Evaluate, JsonSki, LimitExceeded, Match, MatchSink, Metrics, Pipeline,
    PipelineSummary, RecordOutcome, ResourceLimits, SliceRecords,
};

/// Panics on the listed record ordinals, delegating everything else.
struct PanicOn<'a> {
    inner: &'a JsonSki,
    at: &'a [u64],
}

impl Evaluate for PanicOn<'_> {
    fn name(&self) -> &'static str {
        "panic-on"
    }

    fn evaluate_metered(
        &self,
        record: &[u8],
        record_idx: u64,
        sink: &mut dyn MatchSink,
        metrics: Option<&Metrics>,
    ) -> RecordOutcome {
        if self.at.contains(&record_idx) {
            panic!("injected panic on record {record_idx}");
        }
        self.inner
            .evaluate_metered(record, record_idx, sink, metrics)
    }
}

/// Sink recording matches and per-record failures in delivery order.
#[derive(Default)]
struct Recorder {
    matches: Vec<(u64, Vec<u8>)>,
    errors: Vec<(u64, String)>,
}

impl MatchSink for Recorder {
    fn on_match(&mut self, m: Match<'_>) -> ControlFlow<()> {
        self.matches.push((m.record_idx(), m.bytes().to_vec()));
        ControlFlow::Continue(())
    }

    fn on_record_error(&mut self, record_idx: u64, error: &EngineError) -> ControlFlow<()> {
        self.errors.push((record_idx, error.to_string()));
        ControlFlow::Continue(())
    }
}

fn stream_of(n: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for i in 0..n {
        out.extend_from_slice(format!("{{\"a\": {i}}}\n").as_bytes());
    }
    out
}

// ---------------------------------------------------------------------------
// ResourceLimits::deadline under the parallel pipeline
// ---------------------------------------------------------------------------

/// A pathological deep-nesting record trips the (already expired) deadline
/// the moment the engine descends into it; array records never descend a
/// matched container for `$.a`, so they evaluate cleanly even with a 1 ns
/// budget. The failure must surface at exactly the deep record's index for
/// every worker count and both error policies.
#[test]
fn deadline_limit_fires_at_the_right_record_under_parallelism() {
    let mut stream = Vec::new();
    for i in 0..8 {
        stream.extend_from_slice(format!("[{i}, {i}]\n").as_bytes());
    }
    let mut deep = String::new();
    for _ in 0..32 {
        deep.push_str("{\"x\": ");
    }
    deep.push('1');
    deep.push_str(&"}".repeat(32));
    deep.push('\n');
    stream.extend_from_slice(deep.as_bytes()); // record 8
    for i in 0..4 {
        stream.extend_from_slice(format!("[{i}]\n").as_bytes()); // records 9..13
    }

    let limits = ResourceLimits::default().deadline(Duration::from_nanos(1));
    let engine = JsonSki::compile("$.a").unwrap().with_limits(limits);

    for jobs in [1usize, 2, 8] {
        // SkipMalformed: the batch completes, the deadline failure is
        // reported once, at the deep record's ordinal.
        let mut source = SliceRecords::new(&stream);
        let mut sink = Recorder::default();
        let summary = Pipeline::new()
            .workers(jobs)
            .error_policy(ErrorPolicy::SkipMalformed)
            .limits(limits)
            .run(&engine, &mut source, &mut sink)
            .unwrap();
        assert_eq!(summary.records, 13, "jobs={jobs}");
        assert_eq!(summary.failed, 1, "jobs={jobs}");
        assert_eq!(sink.errors.len(), 1, "jobs={jobs}");
        assert_eq!(sink.errors[0].0, 8, "jobs={jobs}");
        assert!(
            sink.errors[0].1.contains("deadline"),
            "jobs={jobs}: {}",
            sink.errors[0].1
        );

        // FailFast: the run aborts with the typed limit error.
        let mut source = SliceRecords::new(&stream);
        let mut sink = Recorder::default();
        let err = Pipeline::new()
            .workers(jobs)
            .error_policy(ErrorPolicy::FailFast)
            .limits(limits)
            .run(&engine, &mut source, &mut sink)
            .unwrap_err();
        match err {
            EngineError::Limit(LimitExceeded::Deadline { .. }) => {}
            other => panic!("jobs={jobs}: expected deadline limit, got {other}"),
        }
        // In-order drain: exactly the eight records before the failure were
        // delivered (arrays produce no `$.a` matches, so check the count).
        assert!(sink.errors.is_empty(), "jobs={jobs}");
    }
}

// ---------------------------------------------------------------------------
// Worker panic isolation (no `faults` feature required)
// ---------------------------------------------------------------------------

#[test]
fn injected_panics_surface_as_typed_errors_without_deadlock() {
    let stream = stream_of(20);
    let inner = JsonSki::compile("$.a").unwrap();
    let engine = PanicOn {
        inner: &inner,
        at: &[4, 11],
    };

    for jobs in [1usize, 2, 8] {
        let mut source = SliceRecords::new(&stream);
        let mut sink = Recorder::default();
        let summary = Pipeline::new()
            .workers(jobs)
            .error_policy(ErrorPolicy::SkipMalformed)
            .run(&engine, &mut source, &mut sink)
            .unwrap();
        assert_eq!(summary.records, 20, "jobs={jobs}");
        assert_eq!(summary.failed, 2, "jobs={jobs}");
        assert_eq!(summary.matches, 18, "jobs={jobs}");
        let failed: Vec<u64> = sink.errors.iter().map(|(i, _)| *i).collect();
        assert_eq!(failed, vec![4, 11], "jobs={jobs}");
        for (_, msg) in &sink.errors {
            assert!(msg.contains("panicked"), "jobs={jobs}: {msg}");
        }
        // Matches stay in record order and skip exactly the panicked records.
        let matched: Vec<u64> = sink.matches.iter().map(|(i, _)| *i).collect();
        let expected: Vec<u64> = (0..20).filter(|i| *i != 4 && *i != 11).collect();
        assert_eq!(matched, expected, "jobs={jobs}");
    }
}

#[test]
fn fail_fast_panic_aborts_with_in_order_prefix() {
    let stream = stream_of(20);
    let inner = JsonSki::compile("$.a").unwrap();
    let engine = PanicOn {
        inner: &inner,
        at: &[7],
    };

    for jobs in [1usize, 4] {
        let mut source = SliceRecords::new(&stream);
        let mut sink = Recorder::default();
        let err = Pipeline::new()
            .workers(jobs)
            .error_policy(ErrorPolicy::FailFast)
            .run(&engine, &mut source, &mut sink)
            .unwrap_err();
        match err {
            EngineError::Panic { record_idx, .. } => assert_eq!(record_idx, 7, "jobs={jobs}"),
            other => panic!("jobs={jobs}: expected panic error, got {other}"),
        }
        // Every record before the panic was delivered, nothing after it.
        let matched: Vec<u64> = sink.matches.iter().map(|(i, _)| *i).collect();
        assert_eq!(matched, (0..7).collect::<Vec<u64>>(), "jobs={jobs}");
    }
}

// ---------------------------------------------------------------------------
// Cross-thread cooperative cancellation
// ---------------------------------------------------------------------------

/// A sink that, on its first match, asks a foreign thread to cancel the
/// token and blocks until the flag is visible — proving cancellation
/// propagates across threads while the pipeline is mid-run.
struct CancelFromAfar {
    token: CancellationToken,
    trigger: Option<mpsc::Sender<()>>,
    matches: usize,
}

impl MatchSink for CancelFromAfar {
    fn on_match(&mut self, _m: Match<'_>) -> ControlFlow<()> {
        self.matches += 1;
        if let Some(tx) = self.trigger.take() {
            tx.send(()).unwrap();
            while !self.token.is_cancelled() {
                thread::yield_now();
            }
        }
        ControlFlow::Continue(())
    }
}

#[test]
fn cancellation_from_another_thread_stops_the_run() {
    let stream = stream_of(64);
    let engine = JsonSki::compile("$.a").unwrap();
    let token = CancellationToken::new();
    let (tx, rx) = mpsc::channel();
    let canceller = {
        let token = token.clone();
        thread::spawn(move || {
            rx.recv().unwrap();
            token.cancel();
        })
    };

    let mut source = SliceRecords::new(&stream);
    let mut sink = CancelFromAfar {
        token: token.clone(),
        trigger: Some(tx),
        matches: 0,
    };
    let summary = Pipeline::new()
        .workers(2)
        .cancel_token(token)
        .run(&engine, &mut source, &mut sink)
        .unwrap();
    canceller.join().unwrap();

    assert!(summary.cancelled);
    assert!(summary.records >= 1);
    assert!(
        summary.records < 64,
        "cancellation should cut the run short"
    );
    assert_eq!(summary.matches, sink.matches);
    // Every delivered record is durably committed.
    assert!(summary.committed_offset > 0);
    assert!(summary.committed_offset <= stream.len() as u64);
}

// ---------------------------------------------------------------------------
// Checkpoint/resume through the pipeline
// ---------------------------------------------------------------------------

/// A durable sink modelled on the CLI's: matches are staged in memory and
/// flushed to the "output" only when a checkpoint commits, so the saved
/// `output_bytes` never claims undelivered work.
struct DurableSink {
    staged: Vec<u8>,
    flushed: Vec<u8>,
    baseline: Checkpoint,
    path: PathBuf,
    saves: usize,
    cancel_after: Option<(usize, CancellationToken)>,
    seen: usize,
}

impl MatchSink for DurableSink {
    fn on_match(&mut self, m: Match<'_>) -> ControlFlow<()> {
        self.staged.extend_from_slice(m.bytes());
        self.staged.push(b'\n');
        self.seen += 1;
        if let Some((k, token)) = &self.cancel_after {
            if self.seen == *k {
                token.cancel();
            }
        }
        ControlFlow::Continue(())
    }

    fn on_checkpoint(&mut self, summary: &PipelineSummary) -> Result<(), EngineError> {
        self.flushed.extend_from_slice(&self.staged);
        self.staged.clear();
        let mut ck = self.baseline.advanced(summary);
        ck.output_bytes = self.flushed.len() as u64;
        ck.save(&self.path).map_err(EngineError::Io)?;
        self.saves += 1;
        Ok(())
    }
}

fn temp_checkpoint_path(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "jsonski-crash-safety-{}-{tag}-{seq}.ckpt",
        std::process::id()
    ))
}

#[test]
fn checkpoint_resume_produces_byte_identical_output() {
    let stream = stream_of(40);
    let engine = JsonSki::compile("$.a").unwrap();
    let identity = digest_parts(&["$.a", "skip-malformed", "jobs=4"]);

    // Uninterrupted reference output.
    let reference: Vec<u8> = (0..40)
        .flat_map(|i| format!("{i}\n").into_bytes())
        .collect();

    let path = temp_checkpoint_path("resume");

    // Segment 1: cancelled after 13 delivered matches.
    let token = CancellationToken::new();
    let mut source = ChunkedRecords::with_buffer_size(&stream[..], 64);
    let mut sink = DurableSink {
        staged: Vec::new(),
        flushed: Vec::new(),
        baseline: Checkpoint::new(identity),
        path: path.clone(),
        saves: 0,
        cancel_after: Some((13, token.clone())),
        seen: 0,
    };
    let first = Pipeline::new()
        .workers(4)
        .cancel_token(token)
        .checkpoints(CheckpointCadence::default().every_records(4))
        .run(&engine, &mut source, &mut sink)
        .unwrap();
    assert!(first.cancelled);
    assert!(first.records >= 13);
    assert!(first.records < 40);
    assert!(sink.saves >= 1, "cadence of 4 must have fired");

    // "Crash": all that survives is the checkpoint file and the output
    // bytes it vouches for.
    let ck = Checkpoint::load(&path).unwrap();
    assert_eq!(ck.identity, identity);
    assert_eq!(ck.offset, first.committed_offset);
    assert_eq!(ck.records, first.records);
    assert_eq!(ck.matches, first.matches as u64);
    assert!(!ck.complete);
    let mut surviving = sink.flushed.clone();
    surviving.truncate(ck.output_bytes as usize);

    // Segment 2: resume from the committed offset; absolute offsets come
    // from `start_offset` so the advanced checkpoint never rewinds.
    let off = ck.offset as usize;
    let mut source = ChunkedRecords::with_buffer_size(&stream[off..], 64).start_offset(ck.offset);
    let mut sink = DurableSink {
        staged: Vec::new(),
        flushed: Vec::new(),
        baseline: ck.clone(),
        path: path.clone(),
        saves: 0,
        cancel_after: None,
        seen: 0,
    };
    let second = Pipeline::new()
        .workers(4)
        .checkpoints(CheckpointCadence::default().every_records(4))
        .run(&engine, &mut source, &mut sink)
        .unwrap();
    assert!(!second.cancelled);
    assert_eq!(first.records + second.records, 40);

    let final_ck = Checkpoint::load(&path).unwrap();
    assert_eq!(final_ck.records, 40);
    assert_eq!(final_ck.matches, 40);
    assert_eq!(final_ck.failed, 0);
    assert!(final_ck.offset >= stream.len() as u64 - 1);

    // The concatenated output is byte-identical to the uninterrupted run.
    surviving.extend_from_slice(&sink.flushed);
    assert_eq!(surviving, reference);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_refuses_mismatched_identity() {
    let path = temp_checkpoint_path("identity");
    Checkpoint::new(digest_parts(&["$.a"])).save(&path).unwrap();
    let ck = Checkpoint::load(&path).unwrap();
    // The resume harness compares digests; a different query set must differ.
    assert_ne!(ck.identity, digest_parts(&["$.b"]));
    assert_eq!(ck.identity, digest_parts(&["$.a"]));
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Reader-level cancellation + resume
// ---------------------------------------------------------------------------

#[test]
fn reader_cancellation_resumes_from_committed_offset() {
    let stream = stream_of(30);
    let engine = JsonSki::compile("$.a").unwrap();

    for jobs in [1usize, 4] {
        let token = CancellationToken::new();
        let mut source =
            ChunkedRecords::with_buffer_size(&stream[..], 64).cancel_token(token.clone());
        let mut sink = DurableSink {
            staged: Vec::new(),
            flushed: Vec::new(),
            baseline: Checkpoint::new(0),
            path: temp_checkpoint_path("reader"),
            saves: 0,
            cancel_after: Some((5, token.clone())),
            seen: 0,
        };
        let first = Pipeline::new()
            .workers(jobs)
            .cancel_token(token)
            .run(&engine, &mut source, &mut sink)
            .unwrap();
        assert!(first.cancelled, "jobs={jobs}");
        assert!(first.records >= 5, "jobs={jobs}");
        assert!(first.records < 30, "jobs={jobs}");

        let off = first.committed_offset as usize;
        let mut source = ChunkedRecords::with_buffer_size(&stream[off..], 64);
        let mut rest = Recorder::default();
        let second = Pipeline::new()
            .workers(jobs)
            .run(&engine, &mut source, &mut rest)
            .unwrap();
        assert_eq!(first.records + second.records, 30, "jobs={jobs}");
        assert_eq!(
            first.matches + second.matches,
            30,
            "jobs={jobs}: every record matches exactly once"
        );
        let _ = std::fs::remove_file(&sink.path);
    }
}
