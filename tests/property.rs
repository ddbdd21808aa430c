//! Property-based tests: random JSON documents and random queries, with
//! the DOM engine as the executable specification for the streaming
//! engines, plus serial/parallel equivalence for the Pison index builder.

use proptest::prelude::*;

use jsonski_repro::jsonpath::Path;

/// Strategy for arbitrary JSON values, rendered directly to text.
/// Depth-bounded; strings draw from a JSON-safe alphabet plus escape pairs.
fn json_value(depth: u32) -> BoxedStrategy<String> {
    let scalar = prop_oneof![
        Just("null".to_string()),
        Just("true".to_string()),
        Just("false".to_string()),
        (-1_000_000i64..1_000_000).prop_map(|n| n.to_string()),
        (0u64..1_000_000, 0u64..1000).prop_map(|(a, b)| format!("{a}.{b}")),
        json_string(),
    ];
    scalar
        .prop_recursive(depth, 64, 6, |inner| {
            prop_oneof![
                // Arrays.
                prop::collection::vec(inner.clone(), 0..6)
                    .prop_map(|vs| format!("[{}]", vs.join(","))),
                // Objects with distinct keys.
                prop::collection::btree_map(key_name(), inner, 0..6).prop_map(|m| {
                    let fields: Vec<String> =
                        m.into_iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
                    format!("{{{}}}", fields.join(","))
                }),
            ]
        })
        .boxed()
}

/// JSON string literal contents: safe chars plus escape pairs and
/// metacharacters that must be masked by the classifiers.
fn json_string() -> BoxedStrategy<String> {
    prop::collection::vec(
        prop_oneof![
            Just("a".to_string()),
            Just("Z".to_string()),
            Just(" ".to_string()),
            Just("{".to_string()),
            Just("}".to_string()),
            Just("[".to_string()),
            Just("]".to_string()),
            Just(":".to_string()),
            Just(",".to_string()),
            Just("\\\"".to_string()),
            Just("\\\\".to_string()),
            Just("\\n".to_string()),
        ],
        0..12,
    )
    .prop_map(|parts| format!("\"{}\"", parts.concat()))
    .boxed()
}

/// Keys the query generator can also produce, so queries sometimes match.
fn key_name() -> BoxedStrategy<String> {
    prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("c".to_string()),
        Just("name".to_string()),
        Just("items".to_string()),
    ]
    .boxed()
}

/// Comparison filters `[?(@ op lit)]` over the same key universe, so the
/// `@`-path sometimes resolves against generated documents.
fn filter_step() -> BoxedStrategy<String> {
    let target = prop_oneof![
        Just("@".to_string()),
        key_name().prop_map(|k| format!("@.{k}")),
        (0usize..3).prop_map(|i| format!("@[{i}]")),
    ];
    let op = prop_oneof![
        Just("=="),
        Just("!="),
        Just("<"),
        Just("<="),
        Just(">"),
        Just(">=")
    ];
    let lit = prop_oneof![
        (-50i64..50).prop_map(|n| n.to_string()),
        key_name().prop_map(|k| format!("'{k}'")),
        Just("true".to_string()),
        Just("null".to_string()),
    ];
    (target, op, lit)
        .prop_map(|(t, o, l)| format!("[?({t} {o} {l})]"))
        .boxed()
}

/// Random queries over the same key universe, covering the full grammar:
/// child/index/slice/wildcards plus descendant `..`, name and index
/// unions, and comparison filters.
fn query() -> BoxedStrategy<String> {
    let simple = prop_oneof![
        3 => key_name().prop_map(|k| format!(".{k}")),
        1 => Just(".*".to_string()),
        2 => (0usize..4).prop_map(|i| format!("[{i}]")),
        1 => (0usize..3, 1usize..3).prop_map(|(a, d)| format!("[{a}:{}]", a + d)),
        1 => Just("[*]".to_string()),
        1 => prop::collection::vec(key_name(), 2..4).prop_map(|ks| {
            let names: Vec<String> = ks.into_iter().map(|k| format!("'{k}'")).collect();
            format!("[{}]", names.join(","))
        }),
        1 => prop::collection::vec(0usize..5, 2..4).prop_map(|is| {
            let idx: Vec<String> = is.into_iter().map(|i| i.to_string()).collect();
            format!("[{}]", idx.join(","))
        }),
        1 => filter_step(),
    ];
    // Descendant wraps the same inner selectors the parser accepts after
    // `..`: a name, `*`, or a bracketed selector.
    let descendant = prop_oneof![
        key_name().prop_map(|k| format!("..{k}")),
        Just("..*".to_string()),
        (0usize..3).prop_map(|i| format!("..[{i}]")),
    ];
    let step = prop_oneof![5 => simple, 1 => descendant];
    prop::collection::vec(step, 0..5)
        .prop_map(|steps| format!("${}", steps.concat()))
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn streaming_engines_match_dom_reference(doc in json_value(4), q in query()) {
        let record = doc.as_bytes();
        let path: Path = q.parse().unwrap();
        let reference = jsonski_repro::domparser::Dom::parse(record)
            .expect("generated JSON is well-formed")
            .count(&path);

        let ski = jsonski_repro::jsonski::JsonSki::new(path.clone())
            .count(record)
            .expect("jsonski accepts well-formed input");
        prop_assert_eq!(ski, reference, "JSONSki vs DOM: doc={} q={}", doc, q);

        let jp = jsonski_repro::jpstream::JpStream::new(path.clone())
            .count(record)
            .expect("jpstream accepts well-formed input");
        prop_assert_eq!(jp, reference, "JPStream vs DOM: doc={} q={}", doc, q);

        let tape = jsonski_repro::tapeparser::Tape::build(record)
            .expect("tape accepts well-formed input")
            .count(&path);
        prop_assert_eq!(tape, reference, "tape vs DOM: doc={} q={}", doc, q);

        let levels = jsonski_repro::pison::LeveledIndex::levels_for(record, &path);
        let pison = jsonski_repro::pison::LeveledIndex::build(record, levels).count(&path);
        prop_assert_eq!(pison, reference, "Pison vs DOM: doc={} q={}", doc, q);
    }

    #[test]
    fn pison_parallel_equals_serial(doc in json_value(4), threads in 1usize..6) {
        let record = doc.as_bytes();
        let serial = jsonski_repro::pison::LeveledIndex::build(record, 4);
        let parallel = jsonski_repro::pison::build_parallel(record, 4, threads);
        prop_assert_eq!(serial, parallel);
    }

    #[test]
    fn matched_spans_are_valid_json_values(doc in json_value(3), q in query()) {
        // Every span JSONSki emits must itself parse as a JSON value.
        let record = doc.as_bytes();
        let ski = jsonski_repro::jsonski::JsonSki::compile(&q).unwrap();
        for m in ski.matches(record).unwrap() {
            prop_assert!(
                jsonski_repro::domparser::Dom::parse(m.as_raw()).is_ok(),
                "emitted span is not standalone JSON: {:?} (doc={}, q={})",
                String::from_utf8_lossy(m.as_raw()), doc, q
            );
        }
    }

    #[test]
    fn structural_stats_never_panic_and_depth_bounded(doc in json_value(4)) {
        let st = jsonski_repro::datagen::structural_stats(doc.as_bytes());
        prop_assert!(st.depth <= 16);
        prop_assert_eq!(st.bytes, doc.len() as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn all_engines_emit_identical_match_bytes(doc in json_value(4), q in query()) {
        // Stronger than count agreement: the exact byte spans must match.
        let record = doc.as_bytes();
        let path: Path = q.parse().unwrap();
        let dom = jsonski_repro::domparser::Dom::parse(record).unwrap();
        let want: Vec<&[u8]> = dom
            .query(&path)
            .into_iter()
            .map(|v| dom.text(v).as_bytes())
            .collect();

        let ski = jsonski_repro::jsonski::JsonSki::new(path.clone())
            .matches(record)
            .unwrap();
        prop_assert_eq!(&ski, &want, "JSONSki spans: doc={} q={}", doc, q);

        let jp = jsonski_repro::jpstream::JpStream::new(path.clone())
            .matches(record)
            .unwrap();
        prop_assert_eq!(&jp, &want, "JPStream spans: doc={} q={}", doc, q);

        let tape = jsonski_repro::tapeparser::Tape::build(record).unwrap();
        let tq = tape.query(&path);
        prop_assert_eq!(&tq, &want, "tape spans: doc={} q={}", doc, q);

        let levels = jsonski_repro::pison::LeveledIndex::levels_for(record, &path);
        let pison = jsonski_repro::pison::LeveledIndex::build(record, levels);
        let pq = pison.query(&path);
        prop_assert_eq!(&pq, &want, "Pison spans: doc={} q={}", doc, q);
    }

    #[test]
    fn legality_restricted_run_equals_fast_forwards_disabled(doc in json_value(4), q in query()) {
        // The per-state legality analysis decides which fast-forward
        // groups each automaton state may use. Whatever it allows, the
        // match stream must be byte-identical to a run with every
        // toggleable group (G1/G4/G5) hard-disabled — i.e. legality can
        // only ever skip bytes that could not change the output.
        let record = doc.as_bytes();
        let path: Path = q.parse().unwrap();
        let restricted = jsonski_repro::jsonski::JsonSki::new(path.clone())
            .matches(record)
            .unwrap();
        let disabled = jsonski_repro::jsonski::JsonSki::new(path)
            .with_config(
                jsonski_repro::jsonski::EngineConfig::builder()
                    .g1(false)
                    .g4(false)
                    .g5(false)
                    .build(),
            )
            .matches(record)
            .unwrap();
        prop_assert_eq!(restricted, disabled, "doc={} q={}", doc, q);
    }

    #[test]
    fn multiquery_agrees_with_individual_engines(
        doc in json_value(4),
        q1 in query(),
        q2 in query(),
        q3 in query(),
    ) {
        let record = doc.as_bytes();
        let queries = [q1.as_str(), q2.as_str(), q3.as_str()];
        let mq = jsonski_repro::jsonski::MultiQuery::compile(&queries).unwrap();
        let mut got = vec![Vec::new(); queries.len()];
        mq.run(record, |i, m| got[i].push(m.span())).unwrap();
        for (i, q) in queries.iter().enumerate() {
            let mut single = Vec::new();
            jsonski_repro::jsonski::JsonSki::compile(q)
                .unwrap()
                .run(record, |m| single.push(m.span()))
                .unwrap();
            prop_assert_eq!(&got[i], &single, "doc={} q={}", doc, q);
        }
    }

    #[test]
    fn chunked_reader_equals_split_records(doc in proptest::collection::vec(json_value(3), 0..8), chunk in 16usize..200) {
        let mut stream = Vec::new();
        for d in &doc {
            stream.extend_from_slice(d.as_bytes());
            stream.push(b'\n');
        }
        let spans = jsonski_repro::jsonski::split_records(&stream).unwrap();
        let want: Vec<Vec<u8>> = spans.iter().map(|&(s, e)| stream[s..e].to_vec()).collect();
        let mut got = Vec::new();
        let mut r = jsonski_repro::jsonski::ChunkedRecords::with_buffer_size(&stream[..], chunk);
        while let Some(rec) = r.next_record().unwrap() {
            got.push(rec.to_vec());
        }
        prop_assert_eq!(got, want);
    }
}
