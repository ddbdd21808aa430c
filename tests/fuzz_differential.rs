//! Differential fuzz smoke: seeded structure-aware cases replayed through
//! all five engines, both validation modes, and every supported bitmap
//! kernel. Gated behind the `faults` feature (like the torture suite) so
//! tier-1 `cargo test` stays fast; CI runs it as the `fuzz-smoke` job.
//!
//! The oracle is class-aware (see `jsonski::fuzz`):
//!
//! * **valid** documents: all engines × modes × kernels must produce
//!   byte-identical match streams;
//! * **labeled faults**: every Strict engine must reject with exactly the
//!   injected `(offset, reason)` verdict;
//! * **unlabeled mutations**: kernel invariance is unconditional; the four
//!   pre-pass baselines must agree with the standalone validator, and the
//!   streaming engine's Strict verdict must equal the validator's whenever
//!   it reports one (token-level garbage outside Strict's scope may still
//!   surface as a structural error — that asymmetry is documented, not a
//!   divergence).
//!
//! Every case also runs a `MultiQuery` of two or three queries, in both
//! modes and under every kernel: on valid documents each query's match
//! stream must equal its own `JsonSki` run, on labeled faults Strict must
//! report the injected verdict, and on every case the outcome must be
//! kernel-invariant.
#![cfg(feature = "faults")]

use std::ops::ControlFlow;

use jsonski_repro::jsonpath::Path;
use jsonski_repro::jsonski::fuzz::{self, CaseLabel};
use jsonski_repro::jsonski::{
    validate_record, EngineConfig, EngineError, Evaluate, JsonSki, Kernel, MatchSink, MultiQuery,
    RecordOutcome, StreamError, ValidationMode,
};

/// Queries rotated across cases — chosen to hit the generator's fixed key
/// pool so matching, seeking (G1/G4) and skipping (G2/G5) all fire. The
/// back half exercises the extended grammar (descendant, wildcard, unions,
/// filters), where legality analysis disables some groups instead.
const QUERIES: &[&str] = &[
    "$.a",
    "$.b",
    "$.user.id",
    "$[*].x",
    "$.tags[1:3]",
    "$.c[*]",
    "$..a",
    "$..id",
    "$.user..x",
    "$..[0]",
    "$..*.name",
    "$['a','c']",
    "$[0,2].x",
    "$[?(@.id > 0)]",
    "$[?(@ == null)]",
    "$.tags[?(@.x != 'y')]..b",
];

#[derive(Default)]
struct Recorder(Vec<Vec<u8>>);

impl MatchSink for Recorder {
    fn on_match(&mut self, m: jsonski_repro::jsonski::Match<'_>) -> ControlFlow<()> {
        self.0.push(m.bytes().to_vec());
        ControlFlow::Continue(())
    }
}

/// An engine run collapsed to a comparable value: the match stream on
/// success, or the failure rendered as a string.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    Matches(Vec<Vec<u8>>),
    Rejected(String),
}

fn verdict(engine: &dyn Evaluate, record: &[u8]) -> Verdict {
    let mut sink = Recorder::default();
    match engine.evaluate(record, 0, &mut sink) {
        RecordOutcome::Complete { .. } | RecordOutcome::Stopped { .. } => Verdict::Matches(sink.0),
        RecordOutcome::Failed(e) => Verdict::Rejected(e.to_string()),
    }
}

fn strict_invalid(
    engine: &dyn Evaluate,
    record: &[u8],
) -> Option<(usize, jsonski_repro::jsonski::InvalidReason)> {
    let mut sink = Recorder::default();
    match engine.evaluate(record, 0, &mut sink) {
        RecordOutcome::Failed(EngineError::Invalid { offset, reason }) => Some((offset, reason)),
        _ => None,
    }
}

fn permissive_engines(path: &Path) -> Vec<Box<dyn Evaluate>> {
    vec![
        Box::new(JsonSki::new(path.clone())),
        Box::new(jsonski_repro::jpstream::JpStream::new(path.clone())),
        Box::new(jsonski_repro::domparser::DomQuery::new(path.clone())),
        Box::new(jsonski_repro::tapeparser::TapeQuery::new(path.clone())),
        Box::new(jsonski_repro::pison::PisonQuery::new(path.clone())),
    ]
}

fn strict_engines(path: &Path) -> Vec<Box<dyn Evaluate>> {
    let strict = ValidationMode::Strict;
    vec![
        Box::new(JsonSki::new(path.clone()).with_config(EngineConfig::builder().strict().build())),
        Box::new(jsonski_repro::jpstream::JpStream::new(path.clone()).with_validation(strict)),
        Box::new(jsonski_repro::domparser::DomQuery::new(path.clone()).with_validation(strict)),
        Box::new(jsonski_repro::tapeparser::TapeQuery::new(path.clone()).with_validation(strict)),
        Box::new(jsonski_repro::pison::PisonQuery::new(path.clone()).with_validation(strict)),
    ]
}

/// The full class-aware oracle for one record. `check_kernels` additionally
/// sweeps the streaming engine across every supported kernel (slightly
/// slower, so the bulk loop samples it).
fn check_record(bytes: &[u8], label: CaseLabel, query: &str, check_kernels: bool, ctx: &str) {
    let path: Path = query.parse().unwrap();
    let strict = strict_engines(&path);

    match label {
        CaseLabel::Valid => {
            // Everyone accepts with identical match streams, in both modes.
            let reference = verdict(permissive_engines(&path)[0].as_ref(), bytes);
            assert!(
                matches!(reference, Verdict::Matches(_)),
                "{ctx}: JSONSki rejected a generated document: {reference:?}"
            );
            for e in permissive_engines(&path).iter().skip(1) {
                assert_eq!(verdict(e.as_ref(), bytes), reference, "{ctx}: {}", e.name());
            }
            for e in &strict {
                assert_eq!(
                    verdict(e.as_ref(), bytes),
                    reference,
                    "{ctx}: strict {}",
                    e.name()
                );
            }
        }
        CaseLabel::Fault { reason, offset } => {
            // Every Strict engine rejects with the predicted verdict.
            for e in &strict {
                assert_eq!(
                    strict_invalid(e.as_ref(), bytes),
                    Some((offset, reason)),
                    "{ctx}: strict {} verdict",
                    e.name()
                );
            }
        }
        CaseLabel::Mutated => {
            // No validity prediction. The pre-pass engines must mirror the
            // standalone validator exactly; the streaming engine's Invalid
            // verdicts must match it too.
            let expected = validate_record(bytes);
            for e in strict.iter().skip(1) {
                if let Some(v) = expected {
                    assert_eq!(
                        strict_invalid(e.as_ref(), bytes),
                        Some(v),
                        "{ctx}: strict {} pre-pass",
                        e.name()
                    );
                }
            }
            let ski = JsonSki::compile(query)
                .unwrap()
                .with_config(EngineConfig::builder().strict().build());
            match ski.matches(bytes) {
                Ok(_) => assert_eq!(expected, None, "{ctx}: streaming accepted invalid bytes"),
                Err(StreamError::Invalid { pos, reason }) => {
                    assert_eq!(expected, Some((pos, reason)), "{ctx}: streaming verdict")
                }
                // Structural/token-level error outside Strict's scope: legal
                // only when the validator found nothing.
                Err(_) => assert_eq!(expected, None, "{ctx}: structural error masks Invalid"),
            }
            // If the document is actually fine, everyone must agree on it.
            if expected.is_none() {
                let dom = &permissive_engines(&path)[2];
                if let Verdict::Matches(reference) = verdict(dom.as_ref(), bytes) {
                    let mut all = permissive_engines(&path);
                    all.extend(strict_engines(&path));
                    for e in &all {
                        assert_eq!(
                            verdict(e.as_ref(), bytes),
                            Verdict::Matches(reference.clone()),
                            "{ctx}: {} on DOM-accepted mutation",
                            e.name()
                        );
                    }
                }
            }
        }
    }

    if check_kernels {
        // Kernel invariance is unconditional: whatever the outcome, it must
        // be bit-identical under every supported kernel, in both modes.
        for strict_mode in [false, true] {
            let mut reference = None;
            for &k in Kernel::all() {
                if !k.is_supported() {
                    continue;
                }
                let mut builder = EngineConfig::builder().kernel(Some(k));
                if strict_mode {
                    builder = builder.strict();
                }
                let e = JsonSki::new(path.clone()).with_config(builder.build());
                let got = verdict(&e, bytes);
                match &reference {
                    None => reference = Some(got),
                    Some(r) => assert_eq!(
                        &got, r,
                        "{ctx}: kernel {k:?} (strict={strict_mode}) diverges"
                    ),
                }
            }
        }
    }
}

/// The multi-query oracle: `queries` share one `MultiQuery` pass in both
/// modes and under every supported kernel.
fn check_multi(bytes: &[u8], label: CaseLabel, queries: &[&str], ctx: &str) {
    for strict_mode in [false, true] {
        let mut reference = None;
        for &k in Kernel::all().iter().filter(|k| k.is_supported()) {
            let mut builder = EngineConfig::builder().kernel(Some(k));
            if strict_mode {
                builder = builder.strict();
            }
            let config = builder.build();
            let ctx = format!("{ctx}: multi {queries:?} kernel {k:?} strict={strict_mode}");
            let mut got = vec![Vec::new(); queries.len()];
            let result = MultiQuery::compile(queries)
                .unwrap()
                .with_config(config)
                .run(bytes, |i, m| got[i].push(m.bytes().to_vec()));
            match label {
                CaseLabel::Valid => {
                    assert!(result.is_ok(), "{ctx}: rejected a valid document");
                    for (i, q) in queries.iter().enumerate() {
                        let own: Vec<Vec<u8>> = JsonSki::compile(q)
                            .unwrap()
                            .with_config(config)
                            .matches(bytes)
                            .unwrap()
                            .into_iter()
                            .map(|m| m.as_raw().to_vec())
                            .collect();
                        assert_eq!(got[i], own, "{ctx}: query {q} vs its own run");
                    }
                }
                CaseLabel::Fault { reason, offset } if strict_mode => match &result {
                    Err(StreamError::Invalid { pos, reason: r }) => {
                        assert_eq!((*pos, *r), (offset, reason), "{ctx}: verdict")
                    }
                    other => panic!("{ctx}: expected Invalid at {offset}, got {other:?}"),
                },
                _ => {}
            }
            // Kernel invariance is unconditional, as for the single engine.
            let verdict = result.map(|_| got).map_err(|e| e.to_string());
            match &reference {
                None => reference = Some(verdict),
                Some(r) => assert_eq!(&verdict, r, "{ctx}: diverges across kernels"),
            }
        }
    }
}

#[test]
fn fuzz_smoke_differential() {
    // Fixed-seed budget: ≥10k documents through the full oracle. The
    // kernel sweep runs on every 5th case to keep the smoke fast; the core
    // crate's fuzz tests cover kernels densely at smaller scale.
    const CASES: u64 = 10_000;
    let mut valid = 0u64;
    let mut faults = 0u64;
    let mut mutated = 0u64;
    for seed in 0..CASES {
        let case = fuzz::case(seed);
        match case.label {
            CaseLabel::Valid => valid += 1,
            CaseLabel::Fault { .. } => faults += 1,
            CaseLabel::Mutated => mutated += 1,
        }
        // Odd seeds draw a generated full-grammar query; even seeds rotate
        // the fixed list, so both spaces stay densely covered.
        let generated;
        let query = if seed % 2 == 1 {
            generated = fuzz::QueryGen::new(seed).query();
            generated.as_str()
        } else {
            QUERIES[(seed / 2 % QUERIES.len() as u64) as usize]
        };
        let ctx = format!("seed {seed}");
        check_record(&case.bytes, case.label, query, seed % 5 == 0, &ctx);
        // The multi-query set: this case's query, a fixed one from another
        // rotation, and on every third seed a second generated query.
        let extra = fuzz::QueryGen::new(seed + CASES).query();
        let mut set = vec![query, QUERIES[(seed * 7 % QUERIES.len() as u64) as usize]];
        if seed % 3 == 0 {
            set.push(extra.as_str());
        }
        check_multi(&case.bytes, case.label, &set, &ctx);
    }
    // The case mix must actually exercise all three oracle arms.
    assert!(valid > CASES / 5, "only {valid} valid cases");
    assert!(faults > CASES / 5, "only {faults} labeled-fault cases");
    assert!(mutated > CASES / 10, "only {mutated} mutated cases");
}

#[test]
fn corpus_replays_clean() {
    // Checked-in regression inputs (shrunken fuzz findings and hand-made
    // adversarial documents) replay through the weakest-assumption oracle
    // with the kernel sweep always on.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut n = 0;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/corpus missing")
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_file()) // tests/corpus/jsonpath/ is a compliance suite, not raw records
        .collect();
    entries.sort();
    for path in entries {
        let bytes = std::fs::read(&path).unwrap();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        for query in QUERIES {
            check_record(&bytes, CaseLabel::Mutated, query, true, &name);
        }
        n += 1;
    }
    assert!(n >= 10, "corpus unexpectedly small: {n} files");
}

#[test]
fn shrinker_minimizes_a_corpus_class_witness() {
    // End-to-end shrink: take a labeled fuzz finding, shrink it against the
    // oracle predicate, and confirm the minimized case still reproduces and
    // replays identically across all strict engines.
    let doc = fuzz::Gen::new(4242).document();
    let (bytes, _) = fuzz::inject(
        &doc,
        jsonski_repro::jsonski::InvalidReason::LoneSurrogate,
        99,
    )
    .expect("no injection site in generated doc");
    let fails = |b: &[u8]| {
        matches!(
            validate_record(b),
            Some((_, jsonski_repro::jsonski::InvalidReason::LoneSurrogate))
        )
    };
    let small = fuzz::shrink(&bytes, fails);
    assert!(fails(&small));
    assert!(small.len() <= bytes.len());
    let path: Path = "$.a".parse().unwrap();
    let expected = validate_record(&small);
    for e in strict_engines(&path) {
        assert_eq!(strict_invalid(e.as_ref(), &small), expected, "{}", e.name());
    }
}
