//! Differential torture suite: seeded fault injection against the whole
//! ingestion stack (build with `--features faults`).
//!
//! Three layers of guarantees, in increasing strength:
//!
//! 1. **No panics, ever.** Mutated records, corrupted streams, short
//!    reads, interrupts, and truncation may cost records, but never the
//!    process.
//! 2. **Policy soundness.** Under [`ErrorPolicy::SkipMalformed`] a broken
//!    stream still yields a clean run; benign transport faults (short
//!    reads, `Interrupted`) are completely invisible in the match stream.
//! 3. **Differential agreement.** JSONSki skips validation inside
//!    fast-forwarded regions, so on *invalid* input it may accept what a
//!    full parser rejects — but whenever the DOM baseline accepts a
//!    mutated record, both engines must produce the identical match
//!    sequence.
//!
//! Every case is seeded ([`SplitMix64`] / [`FaultPlan`]); a failure here
//! reproduces exactly.
#![cfg(feature = "faults")]

use std::ops::ControlFlow;

use proptest::prelude::*;

use jsonski_repro::domparser::DomQuery;
use jsonski_repro::jsonpath::Path;
use jsonski_repro::jsonski::faults::{mutate, FaultPlan, FaultyReader, SplitMix64};
use jsonski_repro::jsonski::{
    ChunkedRecords, EngineError, ErrorPolicy, Evaluate, JsonSki, Match, MatchSink, Pipeline,
    PipelineSummary, RecordOutcome, ResourceLimits,
};

/// Sink recording the full delivered event sequence.
#[derive(Debug, Default, PartialEq, Eq)]
struct Recorder {
    matches: Vec<(u64, Vec<u8>)>,
    errors: Vec<u64>,
    resyncs: Vec<(u64, u64)>,
}

impl MatchSink for Recorder {
    fn on_match(&mut self, m: Match<'_>) -> ControlFlow<()> {
        self.matches.push((m.record_idx(), m.bytes().to_vec()));
        ControlFlow::Continue(())
    }

    fn on_record_error(&mut self, record_idx: u64, _error: &EngineError) -> ControlFlow<()> {
        self.errors.push(record_idx);
        ControlFlow::Continue(())
    }

    fn on_resync(&mut self, span: (u64, u64), _error: &EngineError) -> ControlFlow<()> {
        self.resyncs.push(span);
        ControlFlow::Continue(())
    }
}

/// A deterministic record corpus mixing the shapes the engine cares about:
/// nested objects, arrays, escapes, and scalars under the `a` key.
fn corpus(n: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|i| {
            match rng.below(4) {
                0 => format!("{{\"a\": {i}, \"b\": [1, 2, 3]}}"),
                1 => format!("{{\"b\": {{\"a\": \"inner\"}}, \"a\": [{i}, {i}]}}"),
                2 => format!("{{\"b\": \"s{i}\", \"a\": \"x\\\"y{i}\"}}"),
                _ => format!("{{\"c\": [[{i}]], \"a\": {{\"d\": {i}}}}}"),
            }
            .into_bytes()
        })
        .collect()
}

fn ndjson(records: &[Vec<u8>]) -> Vec<u8> {
    let mut stream = Vec::new();
    for r in records {
        stream.extend_from_slice(r);
        stream.push(b'\n');
    }
    stream
}

/// Runs `$.a` over a (possibly fault-wrapped) reader through the pipeline.
fn run_stream<R: std::io::Read>(
    reader: R,
    workers: usize,
    policy: ErrorPolicy,
    limits: ResourceLimits,
) -> Result<(Recorder, PipelineSummary), EngineError> {
    let engine = JsonSki::compile("$.a").unwrap().with_limits(limits);
    let mut source = ChunkedRecords::new(reader).limits(limits);
    let mut trace = Recorder::default();
    let summary = Pipeline::new()
        .workers(workers)
        .error_policy(policy)
        .limits(limits)
        .run(&engine, &mut source, &mut trace)?;
    Ok((trace, summary))
}

#[test]
fn dom_accepted_mutants_agree_with_jsonski() {
    let base = corpus(24, 7);
    let path: Path = "$.a".parse().unwrap();
    let ski = JsonSki::new(path.clone());
    let dom = DomQuery::new(path);
    let mut still_valid = 0u64;
    for (i, rec) in base.iter().enumerate() {
        for round in 0..64u64 {
            let m = mutate(rec, round * 1009 + i as u64);
            let mut dom_sink = Recorder::default();
            let dom_out = dom.evaluate(&m, 0, &mut dom_sink);
            // Merely getting here is guarantee 1: neither engine may panic
            // on any mutant.
            let mut ski_sink = Recorder::default();
            let ski_out = ski.evaluate(&m, 0, &mut ski_sink);
            if matches!(dom_out, RecordOutcome::Complete { .. }) {
                // The baseline fully validated the mutant, so it is real
                // JSON and the streaming engine has no excuse.
                assert!(
                    matches!(ski_out, RecordOutcome::Complete { .. }),
                    "jsonski rejected a DOM-valid mutant {:?}: {ski_out:?}",
                    String::from_utf8_lossy(&m),
                );
                assert_eq!(
                    ski_sink.matches,
                    dom_sink.matches,
                    "divergence on mutant {:?}",
                    String::from_utf8_lossy(&m),
                );
                still_valid += 1;
            }
        }
    }
    assert!(
        still_valid > 0,
        "the mutation corpus should include some still-valid records"
    );
}

#[test]
fn benign_transport_faults_are_invisible() {
    let stream = ndjson(&corpus(80, 11));
    let (expected, expected_summary) = run_stream(
        &stream[..],
        1,
        ErrorPolicy::FailFast,
        ResourceLimits::default(),
    )
    .expect("clean stream");
    assert!(!expected.matches.is_empty());
    for workers in [1, 4] {
        for seed in 0..8u64 {
            // Short reads exercise every refill path; `Interrupted` is
            // retried unconditionally, so even FailFast must see nothing.
            let plan = FaultPlan::new(seed).short_reads(13).interrupt_every(3);
            let reader = FaultyReader::new(&stream[..], plan);
            let (trace, summary) = run_stream(
                reader,
                workers,
                ErrorPolicy::FailFast,
                ResourceLimits::default(),
            )
            .expect("benign faults must not surface");
            assert_eq!(trace, expected, "workers={workers} seed={seed}");
            assert_eq!(summary.records, expected_summary.records);
            assert_eq!(summary.resyncs, 0);
        }
    }
}

#[test]
fn mutated_streams_survive_and_are_worker_count_invariant() {
    for seed in 0..6u64 {
        let base = corpus(60, seed);
        let mut rng = SplitMix64::new(seed ^ 0xDEAD_BEEF);
        let mut records = Vec::new();
        for (i, r) in base.iter().enumerate() {
            if rng.below(3) == 0 {
                records.push(mutate(r, seed * 131 + i as u64));
            } else {
                records.push(r.clone());
            }
        }
        let stream = ndjson(&records);
        let limits = ResourceLimits::default().max_record_bytes(1 << 16);
        let run = |workers| {
            let plan = FaultPlan::new(seed).short_reads(17).interrupt_every(5);
            let reader = FaultyReader::new(&stream[..], plan);
            run_stream(reader, workers, ErrorPolicy::SkipMalformed, limits)
                .expect("skip mode must survive structural mutation")
        };
        let (serial, serial_summary) = run(1);
        for workers in [2, 4] {
            let (parallel, summary) = run(workers);
            assert_eq!(parallel, serial, "seed={seed} workers={workers}");
            assert_eq!(summary.records, serial_summary.records);
            assert_eq!(summary.failed, serial_summary.failed);
            assert_eq!(summary.resyncs, serial_summary.resyncs);
            assert_eq!(summary.resync_bytes, serial_summary.resync_bytes);
        }
    }
}

#[test]
fn corrupted_streams_survive_under_skip_policy() {
    let stream = ndjson(&corpus(50, 3));
    let mut damage_seen = false;
    for seed in 0..8u64 {
        // Corrupting every ~40th byte breaks records *and* boundaries;
        // evaluation errors and resyncs may both fire, but the run ends
        // cleanly (corruption is never an I/O error) and stays
        // deterministic across worker counts.
        let run = |workers| {
            let plan = FaultPlan::new(seed).corrupt_every(40).short_reads(11);
            let reader = FaultyReader::new(&stream[..], plan);
            run_stream(
                reader,
                workers,
                ErrorPolicy::SkipMalformed,
                ResourceLimits::default(),
            )
            .expect("corruption must be skippable")
        };
        let (serial, summary) = run(1);
        let (parallel, parallel_summary) = run(4);
        assert_eq!(serial, parallel, "seed={seed}");
        assert_eq!(summary.failed, parallel_summary.failed, "seed={seed}");
        assert_eq!(summary.resyncs, parallel_summary.resyncs, "seed={seed}");
        damage_seen |= summary.failed > 0 || summary.resyncs > 0;
    }
    assert!(
        damage_seen,
        "the corruption schedule should break something"
    );
}

#[test]
fn truncated_streams_deliver_a_prefix_with_bounded_memory() {
    let stream = ndjson(&corpus(64, 29));
    let (clean, _) = run_stream(
        &stream[..],
        1,
        ErrorPolicy::FailFast,
        ResourceLimits::default(),
    )
    .expect("clean stream");
    // A buffer cap (one chunk above the reader's 64 KiB refill granularity)
    // proves the reader discards, not accumulates, while resyncing past the
    // cut-off tail.
    let limits = ResourceLimits::default().max_buffer_bytes(1 << 17);
    for cut in [stream.len() / 3, stream.len() / 2, stream.len() - 3] {
        for workers in [1, 4] {
            let plan = FaultPlan::new(1).truncate_at(cut as u64).short_reads(9);
            let reader = FaultyReader::new(&stream[..], plan);
            let (trace, _) = run_stream(reader, workers, ErrorPolicy::SkipMalformed, limits)
                .expect("truncation must be skippable");
            assert!(
                trace.matches.len() <= clean.matches.len()
                    && trace.matches == clean.matches[..trace.matches.len()],
                "cut={cut} workers={workers}: delivered matches must be a \
                 prefix of the clean run"
            );
            assert!(!trace.matches.is_empty(), "cut={cut}: prefix survives");
        }
    }
}

// Randomized composition of every fault at once: the stream must never
// panic, never error under the skip policy, and stay worker-count
// invariant.
proptest! {
    #[test]
    fn prop_faulted_streams_never_panic(seed in 0u64..200) {
        let base = corpus(20, seed);
        let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9));
        let records: Vec<Vec<u8>> = base
            .iter()
            .enumerate()
            .map(|(i, r)| {
                if rng.below(2) == 0 {
                    mutate(r, seed + i as u64)
                } else {
                    r.clone()
                }
            })
            .collect();
        let stream = ndjson(&records);
        let plan = FaultPlan::new(seed)
            .short_reads(1 + (seed % 19) as usize)
            .interrupt_every(2 + seed % 5)
            .corrupt_every(64 + seed % 64);
        let limits = ResourceLimits::default().max_record_bytes(1 << 12);
        let run = |workers| {
            run_stream(
                FaultyReader::new(&stream[..], plan.clone()),
                workers,
                ErrorPolicy::SkipMalformed,
                limits,
            )
            .expect("skip mode survives composed faults")
        };
        let (serial, _) = run(1);
        let (parallel, _) = run(4);
        prop_assert_eq!(serial, parallel);
    }
}
