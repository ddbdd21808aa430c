//! Cross-engine differential conformance suite over the sink API.
//!
//! Where `cross_engine.rs` compares match *counts* through each engine's
//! native interface, this suite drives all five engines through the unified
//! [`Evaluate`] sink API and asserts the full match *sequences* — every
//! `(record index, match bytes)` pair, byte for byte — are identical. It
//! covers every dataset family crossed with its paper queries (the twelve
//! queries of Table 5) plus hand-written edge-case documents, and pins the
//! instrumented path (`evaluate_metered`) to the plain one so metrics can
//! never change what a query matches.

use std::ops::ControlFlow;

use jsonski_repro::datagen::{Dataset, GenConfig};
use jsonski_repro::jsonpath::Path;
use jsonski_repro::jsonski::fuzz::{inject, FAULT_CLASSES};
use jsonski_repro::jsonski::{
    EngineConfig, EngineError, Evaluate, InvalidReason, Kernel, Match, MatchSink, Metrics,
    MultiQuery, RecordOutcome, ValidationMode,
};

/// One observed match: record index, normalized in-record span, and the
/// match bytes. Comparing the full triple across engines pins not just
/// *what* each engine matched but *where* it says the match lives — the
/// span-normalization contract centralized in `Match::new`.
type Observed = (u64, (usize, usize), Vec<u8>);

/// Sink that records the full match stream.
#[derive(Default)]
struct Recorder(Vec<Observed>);

impl MatchSink for Recorder {
    fn on_match(&mut self, m: Match<'_>) -> ControlFlow<()> {
        let (s, e) = m.span();
        // The span must address the delivered bytes within the record —
        // true for every engine because `Match::new` is the single
        // normalization point.
        assert_eq!(&m.record()[s..e], m.bytes(), "span disagrees with bytes");
        self.0.push((m.record_idx(), (s, e), m.bytes().to_vec()));
        ControlFlow::Continue(())
    }
}

/// The five engines of the paper's evaluation, behind the unified API.
fn engines(path: &Path) -> Vec<Box<dyn Evaluate>> {
    vec![
        Box::new(jsonski_repro::jsonski::JsonSki::new(path.clone())),
        Box::new(jsonski_repro::jpstream::JpStream::new(path.clone())),
        Box::new(jsonski_repro::domparser::DomQuery::new(path.clone())),
        Box::new(jsonski_repro::tapeparser::TapeQuery::new(path.clone())),
        Box::new(jsonski_repro::pison::PisonQuery::new(path.clone())),
    ]
}

/// The same five engines with Strict input validation enabled.
fn strict_engines(path: &Path) -> Vec<Box<dyn Evaluate>> {
    let strict = ValidationMode::Strict;
    vec![
        Box::new(
            jsonski_repro::jsonski::JsonSki::new(path.clone())
                .with_config(EngineConfig::builder().strict().build()),
        ),
        Box::new(jsonski_repro::jpstream::JpStream::new(path.clone()).with_validation(strict)),
        Box::new(jsonski_repro::domparser::DomQuery::new(path.clone()).with_validation(strict)),
        Box::new(jsonski_repro::tapeparser::TapeQuery::new(path.clone()).with_validation(strict)),
        Box::new(jsonski_repro::pison::PisonQuery::new(path.clone()).with_validation(strict)),
    ]
}

/// Runs `records` through one engine via the sink API, panicking on any
/// record failure (all conformance inputs are well-formed).
fn match_stream(engine: &dyn Evaluate, records: &[&[u8]], ctx: &str) -> Vec<Observed> {
    let mut sink = Recorder::default();
    for (i, record) in records.iter().enumerate() {
        match engine.evaluate(record, i as u64, &mut sink) {
            RecordOutcome::Complete { .. } => {}
            other => panic!("{ctx}: {} returned {other:?} on record {i}", engine.name()),
        }
    }
    sink.0
}

/// Asserts all five engines produce the identical match sequence for
/// `query` over `records`; returns that agreed sequence.
fn assert_conformance(records: &[&[u8]], query: &str, ctx: &str) -> Vec<Observed> {
    let path: Path = query
        .parse()
        .unwrap_or_else(|e| panic!("{ctx}: {query}: {e}"));
    let engines = engines(&path);
    let reference = match_stream(engines[0].as_ref(), records, ctx);
    for e in &engines[1..] {
        let got = match_stream(e.as_ref(), records, ctx);
        assert_eq!(
            got,
            reference,
            "{ctx}: {} disagrees with {} on {query}",
            e.name(),
            engines[0].name()
        );
    }
    reference
}

#[test]
fn paper_queries_agree_on_generated_record_streams() {
    // Every dataset family crossed with its two paper queries, evaluated
    // record by record over the small-record corpus form.
    let cfg = GenConfig {
        target_bytes: 64 * 1024,
        seed: 4242,
    };
    for ds in Dataset::all() {
        let data = ds.generate_small(&cfg);
        let records: Vec<&[u8]> = data.iter().collect();
        assert!(
            records.len() > 1,
            "{}: want a multi-record corpus",
            ds.name()
        );
        for (id, query) in ds.queries() {
            if ds.large_only_queries().contains(&id) {
                continue;
            }
            assert_conformance(&records, query, id);
        }
    }
}

#[test]
fn paper_queries_agree_on_generated_large_records() {
    // The same twelve queries against the single-large-record form, which
    // exercises the deep skips (G1/G2) the small form cannot.
    let cfg = GenConfig {
        target_bytes: 48 * 1024,
        seed: 99,
    };
    for ds in Dataset::all() {
        let data = ds.generate_large(&cfg);
        let records = [data.bytes()];
        for (id, query) in ds.queries() {
            let agreed = assert_conformance(&records, query, id);
            // The headline per-record queries must find something even at
            // this tiny scale (same guarantee cross_engine.rs relies on).
            if matches!(id, "TT2" | "BB1" | "GMD1" | "NSPL2" | "WM2") {
                assert!(!agreed.is_empty(), "{id} found nothing");
            }
        }
    }
}

#[test]
fn edge_documents_agree() {
    // Hand-written documents targeting the syntactic corners that break
    // structural-index and streaming parsers differently: escaped quotes,
    // deep nesting, empty containers, and multibyte UTF-8 keys.
    let escaped: &[u8] =
        r#"{"s": "he said \"hi\"", "t": "brace } quote \" comma ,", "a": [1, "\\\"", 3], "u": "é\\"}"#
            .as_bytes();
    let mut deep = String::new();
    for _ in 0..24 {
        deep.push_str("{\"d\": [");
    }
    deep.push_str("42");
    for _ in 0..24 {
        deep.push_str("]}");
    }
    let empties: &[u8] = br#"{"a": [], "b": {}, "c": [[], {}, [{}]], "d": [0], "e": {"f": []}}"#;
    let unicode = "{\"café\": {\"日本語\": [1, 2]}, \"χ\": \"ψ\", \"emoji🦀\": [true]}".as_bytes();
    let cases: &[(&[u8], &[&str])] = &[
        (escaped, &["$.s", "$.t", "$.a[*]", "$.a[1]", "$.u", "$.*"]),
        (
            deep.as_bytes(),
            &[
                "$.d[0].d[0].d",
                "$.d[*]",
                "$.d[0].d[0].d[0].d[0].d[0].d[0].d[0].d",
            ],
        ),
        (
            empties,
            &[
                "$.a[*]",
                "$.b.x",
                "$.c[*]",
                "$.c[2][*]",
                "$.d[*]",
                "$.e.f",
                "$.*",
            ],
        ),
        (
            unicode,
            &[
                "$['café']['日本語'][*]",
                "$['café']['日本語']",
                "$['χ']",
                "$['emoji🦀'][0]",
                "$.*",
            ],
        ),
    ];
    for (doc, queries) in cases {
        for query in *queries {
            assert_conformance(&[doc], query, "edge");
        }
    }
}

#[test]
fn multi_record_edge_stream_agrees() {
    // A heterogeneous record stream: match record indices must line up
    // across engines, not just the match bytes.
    let records: &[&[u8]] = &[
        br#"{"a": [1, 2]}"#,
        br#"{"b": 0}"#,
        br#"{"a": []}"#,
        br#"{"a": [{"a": [3]}]}"#,
        b"  {\"a\": [4]}  ",
    ];
    let agreed = assert_conformance(records, "$.a[*]", "multi-record");
    let idxs: Vec<u64> = agreed.iter().map(|(i, _, _)| *i).collect();
    assert_eq!(idxs, vec![0, 0, 3, 4]);
}

#[test]
fn strict_engines_agree_on_clean_input() {
    // With Strict validation on, well-formed input must still produce the
    // exact match streams of the permissive engines.
    let cfg = GenConfig {
        target_bytes: 16 * 1024,
        seed: 1313,
    };
    for ds in Dataset::all() {
        let data = ds.generate_small(&cfg);
        let records: Vec<&[u8]> = data.iter().collect();
        for (id, query) in ds.queries() {
            if ds.large_only_queries().contains(&id) {
                continue;
            }
            let path: Path = query.parse().unwrap();
            let reference = match_stream(engines(&path)[0].as_ref(), &records, id);
            for e in strict_engines(&path) {
                let got = match_stream(e.as_ref(), &records, id);
                assert_eq!(got, reference, "{id}: strict {} diverges", e.name());
            }
        }
    }
}

#[test]
fn rejection_conformance_matrix() {
    // Adversarial documents crossed with all five engines: in Strict mode
    // every engine must reject each document as `EngineError::Invalid` with
    // the *identical* byte offset and reason. The streaming engine discovers
    // these mid-skip; the baselines via the shared pre-pass — agreement here
    // pins the two detection strategies to each other.
    let cases: &[(&[u8], usize, InvalidReason, &str)] = &[
        (
            b"{\"skip\": \"a\xFFb\", \"a\": 1}",
            11,
            InvalidReason::Utf8,
            "bad utf8 lead",
        ),
        (
            b"{\"skip\": \"\xC3(\", \"a\": 1}",
            11,
            InvalidReason::Utf8,
            "bad continuation",
        ),
        (
            b"{\"skip\": \"\xED\xA0\x80\", \"a\": 1}",
            11,
            InvalidReason::Utf8,
            "utf8 surrogate",
        ),
        (
            b"{\"a\": \"\xF0\x9F\x98",
            10,
            InvalidReason::Utf8,
            "truncated 4-byte",
        ),
        (
            br#"{"skip": "\uD83D", "a": 1}"#,
            10,
            InvalidReason::LoneSurrogate,
            "lone high",
        ),
        (
            br#"{"skip": "\uDC00", "a": 1}"#,
            10,
            InvalidReason::LoneSurrogate,
            "lone low",
        ),
        (
            br#"{"skip": "\uD83Dx", "a": 1}"#,
            10,
            InvalidReason::LoneSurrogate,
            "broken pair",
        ),
        (
            br#"{"skip": "\q", "a": 1}"#,
            11,
            InvalidReason::BadEscape,
            "bad escape",
        ),
        (
            br#"{"skip": "\u12g4", "a": 1}"#,
            14,
            InvalidReason::BadUnicodeEscape,
            "bad hex",
        ),
        (
            br#"{"skip": "\u12"#,
            14,
            InvalidReason::UnterminatedString,
            "truncated escape",
        ),
        (
            b"{\"skip\": \"a\x08b\", \"a\": 1}",
            11,
            InvalidReason::ControlChar,
            "raw backspace",
        ),
        (
            br#"{"a": 1} {"b": 2}"#,
            9,
            InvalidReason::TrailingGarbage,
            "second document",
        ),
        (
            br#"{"a": 1}]"#,
            8,
            InvalidReason::TrailingGarbage,
            "closer after root",
        ),
        (
            br#"{"a": [1, 2"#,
            11,
            InvalidReason::Unbalanced,
            "unclosed array",
        ),
        (
            br#"{"a": "unterminated"#,
            19,
            InvalidReason::UnterminatedString,
            "unclosed string",
        ),
    ];
    let path: Path = "$.a".parse().unwrap();
    for &(doc, want_offset, want_reason, ctx) in cases {
        for e in strict_engines(&path) {
            let mut sink = Recorder::default();
            match e.evaluate(doc, 0, &mut sink) {
                RecordOutcome::Failed(EngineError::Invalid { offset, reason }) => {
                    assert_eq!(
                        (offset, reason),
                        (want_offset, want_reason),
                        "{ctx}: {} verdict",
                        e.name()
                    );
                }
                other => panic!("{ctx}: strict {} returned {other:?}", e.name()),
            }
        }
        // The same documents sail through a permissive scan when the fault
        // is inside a skipped span — that contrast is the point of Strict.
        for e in engines(&path) {
            let mut sink = Recorder::default();
            let _ = e.evaluate(doc, 0, &mut sink);
        }
    }
}

#[test]
fn forced_kernels_are_byte_identical_on_conformance_matrix() {
    // `--kernel` forcing (EngineConfig::kernel) must not change a single
    // match byte: every supported kernel replays the full dataset × query
    // matrix and is compared against the auto-selected kernel's stream.
    let cfg = GenConfig {
        target_bytes: 16 * 1024,
        seed: 2024,
    };
    for ds in Dataset::all() {
        let data = ds.generate_small(&cfg);
        let records: Vec<&[u8]> = data.iter().collect();
        for (id, query) in ds.queries() {
            if ds.large_only_queries().contains(&id) {
                continue;
            }
            let path: Path = query.parse().unwrap();
            let auto = jsonski_repro::jsonski::JsonSki::new(path.clone());
            let reference = match_stream(&auto, &records, id);
            for &k in Kernel::all() {
                if !k.is_supported() {
                    continue;
                }
                for strict in [false, true] {
                    let mut builder = EngineConfig::builder().kernel(Some(k));
                    if strict {
                        builder = builder.strict();
                    }
                    let forced = jsonski_repro::jsonski::JsonSki::new(path.clone())
                        .with_config(builder.build());
                    let got = match_stream(&forced, &records, id);
                    assert_eq!(
                        got, reference,
                        "{id}: kernel {k:?} (strict={strict}) diverges"
                    );
                }
            }
        }
    }
}

/// Extended-grammar conformance rows: descendant `..`, wildcards, unions,
/// and comparison filters. Paired with documents whose shapes make each
/// construct do real work (recursion, duplicate-depth names, nested
/// arrays). Used by both extended-grammar tests below.
fn extended_grammar_matrix() -> Vec<(&'static [u8], Vec<&'static str>)> {
    let store: &[u8] = br#"{"store": {"book": [{"id": 1, "price": 8.95, "tags": ["a"]}, {"id": 2, "price": 12.99, "tags": ["b", "c"]}], "bicycle": {"id": 3, "price": 19.95}}, "id": 0}"#;
    let recursive: &[u8] =
        br#"{"a": {"a": {"a": [1, 2]}, "b": [{"a": 3}, 4]}, "c": [[5], [6, {"a": 7}]]}"#;
    let records: &[u8] = br#"[{"id": 4, "name": "x"}, {"id": 9, "name": "y"}, {"id": 2}, 11, "z"]"#;
    vec![
        (
            store,
            vec![
                "$..id",
                "$..price",
                "$.store..id",
                "$..book[*].id",
                "$..book[0,1].price",
                "$..book[?(@.id > 1)].tags",
                "$.store['book','bicycle']..id",
                "$..tags[0]",
                "$..*",
            ],
        ),
        (
            recursive,
            vec![
                "$..a",
                "$..a..a",
                "$..[0]",
                "$..a[1]",
                "$.c[*][?(@ > 5)]",
                "$['a','c']..*",
            ],
        ),
        (
            records,
            vec![
                "$[?(@.id > 3)]",
                "$[?(@.id > 3)].name",
                "$[?(@ == 11)]",
                "$[?(@.name == 'y')]",
                "$[?(@.name != 'y')]",
                "$[0,3]",
                "$..name",
            ],
        ),
    ]
}

#[test]
fn extended_grammar_queries_agree_across_engines() {
    // The PR-7 grammar (descendant, wildcard, unions, filters) through the
    // same five-engine agreement harness as the paper queries, in both
    // validation modes. Rows with a known non-empty answer assert it so a
    // silently-empty agreement cannot pass.
    for (doc, queries) in extended_grammar_matrix() {
        let records = [doc];
        for query in queries {
            let agreed = assert_conformance(&records, query, "extended");
            if !query.contains("!=") {
                assert!(!agreed.is_empty(), "{query} found nothing");
            }
            let path: Path = query.parse().unwrap();
            for e in strict_engines(&path) {
                let got = match_stream(e.as_ref(), &records, query);
                assert_eq!(got, agreed, "{query}: strict {} diverges", e.name());
            }
        }
    }
}

#[test]
fn extended_grammar_is_kernel_invariant() {
    // Every supported kernel × both validation modes must replay the
    // extended-grammar rows byte-identically: fast-forward legality is
    // decided per automaton state, never per kernel.
    for (doc, queries) in extended_grammar_matrix() {
        let records = [doc];
        for query in queries {
            let path: Path = query.parse().unwrap();
            let auto = jsonski_repro::jsonski::JsonSki::new(path.clone());
            let reference = match_stream(&auto, &records, query);
            for &k in Kernel::all() {
                if !k.is_supported() {
                    continue;
                }
                for strict in [false, true] {
                    let mut builder = EngineConfig::builder().kernel(Some(k));
                    if strict {
                        builder = builder.strict();
                    }
                    let forced = jsonski_repro::jsonski::JsonSki::new(path.clone())
                        .with_config(builder.build());
                    let got = match_stream(&forced, &records, query);
                    assert_eq!(
                        got, reference,
                        "{query}: kernel {k:?} (strict={strict}) diverges"
                    );
                }
            }
        }
    }
}

/// Runs `records` (numbered from `first_idx`) through one engine, with
/// `metrics` attached or through plain `evaluate`, tolerating failures:
/// the delivered match stream (a failed record's partial matches
/// included) and the outcomes.
fn observe(
    engine: &dyn Evaluate,
    records: &[&[u8]],
    first_idx: usize,
    metrics: Option<&Metrics>,
) -> (Vec<Observed>, Vec<RecordOutcome>) {
    let mut sink = Recorder::default();
    let outcomes = (records.iter().enumerate())
        .map(|(i, record)| {
            let idx = (first_idx + i) as u64;
            match metrics {
                Some(m) => engine.evaluate_metered(record, idx, &mut sink, Some(m)),
                None => engine.evaluate(record, idx, &mut sink),
            }
        })
        .collect();
    (sink.0, outcomes)
}

#[test]
fn instrumented_evaluation_is_conformant() {
    // `evaluate_metered` must produce the exact same match stream as plain
    // `evaluate` for every engine, and every engine (plus a one-query
    // MultiQuery) must account for the same records, bytes and matches:
    // on clean records, and on records damaged with each fuzz fault
    // class, in both validation modes. Permissive engines legitimately
    // disagree on invalid UTF-8 and trailing garbage (the full parsers
    // see them, the streaming engines skip past), so those two classes
    // are checked in Strict only.
    let cfg = GenConfig {
        target_bytes: 16 * 1024,
        seed: 7,
    };
    let permissive_detectable = |class: InvalidReason| {
        !matches!(class, InvalidReason::Utf8 | InvalidReason::TrailingGarbage)
    };
    for ds in Dataset::all() {
        let data = ds.generate_small(&cfg);
        let clean: Vec<&[u8]> = data.iter().collect();
        let damaged: Vec<(InvalidReason, Vec<u8>)> = FAULT_CLASSES
            .iter()
            .flat_map(|&class| {
                let sources = clean.iter().take(3).enumerate();
                sources.filter_map(move |(i, r)| Some((class, inject(r, class, i as u64)?.0)))
            })
            .collect();
        for (id, query) in ds.queries() {
            if ds.large_only_queries().contains(&id) {
                continue;
            }
            let path: Path = query.parse().unwrap();
            for strict in [false, true] {
                let bad: Vec<&[u8]> = (damaged.iter())
                    .filter(|(class, _)| strict || permissive_detectable(*class))
                    .map(|(_, r)| r.as_slice())
                    .collect();
                let mut engines = if strict {
                    strict_engines(&path)
                } else {
                    engines(&path)
                };
                let mode = match strict {
                    true => ValidationMode::Strict,
                    false => ValidationMode::Permissive,
                };
                let config = EngineConfig::builder().validation(mode).build();
                engines.push(Box::new(
                    MultiQuery::new(vec![path.clone()]).with_config(config),
                ));
                let mut reference = None;
                for engine in &engines {
                    let ctx = format!("{id} strict={strict}: {}", engine.name());
                    let metrics = Metrics::new();
                    let (clean_seen, outcomes) =
                        observe(engine.as_ref(), &clean, 0, Some(&metrics));
                    assert!(
                        outcomes
                            .iter()
                            .all(|o| matches!(o, RecordOutcome::Complete { .. })),
                        "{ctx}: a clean record failed"
                    );
                    let snap = metrics.snapshot();
                    assert_eq!(snap.records_evaluated, clean.len() as u64, "{ctx}");
                    assert_eq!(snap.matches_emitted, clean_seen.len() as u64, "{ctx}");
                    assert_eq!(
                        snap.bytes_evaluated,
                        clean.iter().map(|r| r.len() as u64).sum::<u64>(),
                        "{ctx}"
                    );
                    if cfg!(feature = "metrics") {
                        assert_eq!(snap.build_ns + snap.traverse_ns, snap.eval_ns, "{ctx}");
                        if ["RapidJSON", "simdjson", "Pison"].contains(&engine.name()) {
                            assert!(snap.build_ns > 0, "{ctx}: no build time");
                        }
                    }
                    let (bad_seen, _) = observe(engine.as_ref(), &bad, clean.len(), Some(&metrics));
                    let (plain_clean, _) = observe(engine.as_ref(), &clean, 0, None);
                    let (plain_bad, _) = observe(engine.as_ref(), &bad, clean.len(), None);
                    assert_eq!(clean_seen, plain_clean, "{ctx}: metered diverges");
                    assert_eq!(bad_seen, plain_bad, "{ctx}: metered diverges on damage");
                    let snap = metrics.snapshot();
                    let counts = (
                        snap.records_evaluated,
                        snap.records_failed,
                        snap.bytes_failed,
                        snap.matches_emitted,
                    );
                    assert!(snap.records_failed > 0, "{ctx}: no damage detected");
                    assert!(!strict || snap.records_failed == bad.len() as u64, "{ctx}");
                    match &reference {
                        None => reference = Some(counts),
                        Some(want) => assert_eq!(&counts, want, "{ctx}: accounting diverges"),
                    }
                }
            }
        }
    }
}
