//! Differential test of the three ways the core evaluates a record: live
//! classification (`JsonSki::stream`), prebuilt lanes
//! (`JsonSki::stream_prebuilt`, the index and serve path) and the shared
//! multi-query pass (`MultiQuery::stream`). Over every `datagen` family, in
//! both its large-record and small-records form, each Table 5 query and
//! every supported kernel, all three must report the same match spans, the
//! same per-group fast-forward bytes (G1–G5) and the same
//! `words_classified`.
//!
//! The multi-query pass runs no G1 seek, so it can classify fewer words
//! and accounts those skips to other groups. It also accounts array
//! elements before a slice's start as G2 where the single-query engine
//! uses G5. Its reference is therefore the single-query engine with G1
//! disabled: the same spans, `words_classified`, G3 and G4, and the same
//! G2 + G5 total.

use std::ops::ControlFlow;

use datagen::{Dataset, GenConfig};
use jsonski::{EngineConfig, FastForwardStats, Group, JsonSki, MultiQuery};
use simdbits::{classify_stream, BlockBitmaps, Classifier, Kernel};

/// What one evaluation path reports for one record.
#[derive(Debug, PartialEq, Eq)]
struct Report {
    spans: Vec<(usize, usize)>,
    skipped: [u64; 5],
    words_classified: usize,
}

/// Streams `record` through `engine`, from `prebuilt` lanes when given.
fn single(engine: &JsonSki, record: &[u8], prebuilt: Option<&[BlockBitmaps]>) -> Report {
    let mut spans = Vec::new();
    let sink = |m: jsonski::Match<'_>| {
        spans.push(m.span());
        ControlFlow::Continue(())
    };
    let outcome = match prebuilt {
        Some(pre) => engine.stream_prebuilt(record, pre, sink),
        None => engine.stream(record, sink),
    }
    .unwrap_or_else(|e| panic!("{e}"));
    report(spans, outcome.stats, outcome.words_classified)
}

fn multi(multi: &MultiQuery, record: &[u8]) -> Report {
    let mut spans = Vec::new();
    let outcome = multi
        .stream(record, |_, m| {
            spans.push(m.span());
            ControlFlow::Continue(())
        })
        .unwrap_or_else(|e| panic!("{e}"));
    report(spans, outcome.stats, outcome.words_classified)
}

fn report(spans: Vec<(usize, usize)>, stats: FastForwardStats, words_classified: usize) -> Report {
    Report {
        spans,
        skipped: Group::ALL.map(|g| stats.skipped(g)),
        words_classified,
    }
}

fn lanes(record: &[u8], kernel: Kernel) -> Vec<BlockBitmaps> {
    let mut out = Vec::new();
    classify_stream(&mut Classifier::with_kernel(kernel), record, |_, bm| {
        out.push(bm)
    });
    out
}

#[test]
fn live_prebuilt_and_multi_agree_on_every_family_query_and_kernel() {
    let cfg = GenConfig {
        target_bytes: 96 * 1024,
        seed: 7,
    };
    let mut checked = 0usize;
    for family in Dataset::all() {
        for (form, data) in [
            ("large", family.generate_large(&cfg)),
            ("small", family.generate_small(&cfg)),
        ] {
            for (id, query) in family.queries() {
                for &kernel in Kernel::all().iter().filter(|k| k.is_supported()) {
                    let config = EngineConfig::builder().kernel(Some(kernel));
                    let engine = JsonSki::compile(query).unwrap().with_config(config.build());
                    let no_g1 = JsonSki::compile(query)
                        .unwrap()
                        .with_config(config.disable_g1().build());
                    let shared = MultiQuery::compile(&[query])
                        .unwrap()
                        .with_kernel(Some(kernel));
                    for (r, record) in data.iter().enumerate() {
                        let ctx = format!("{} {form} {id} {kernel:?} record {r}", family.name());
                        let live = single(&engine, record, None);
                        let pre = lanes(record, kernel);
                        let prebuilt = single(&engine, record, Some(&pre));
                        assert_eq!(prebuilt, live, "{ctx}: prebuilt vs live");

                        let got = multi(&shared, record);
                        let plain = single(&no_g1, record, None);
                        assert_eq!(got.spans, live.spans, "{ctx}: multi vs live");
                        let [g1, g2, g3, g4, g5] = got.skipped;
                        let [p1, p2, p3, p4, p5] = plain.skipped;
                        assert_eq!(
                            (g1, g2 + g5, g3, g4, got.words_classified),
                            (p1, p2 + p5, p3, p4, plain.words_classified),
                            "{ctx}: multi vs live without G1"
                        );
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(checked > 0);
}
