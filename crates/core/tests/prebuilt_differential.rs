//! Differential test of the three ways the core evaluates a record: live
//! classification (`JsonSki::stream`), prebuilt lanes
//! (`JsonSki::stream_prebuilt`, the index and serve path) and the shared
//! multi-query pass (`MultiQuery::stream`). Over every `datagen` family, in
//! both its large-record and small-records form, each Table 5 query and
//! every supported kernel, all three must report the same match spans, the
//! same per-group fast-forward bytes (G1–G5) and the same
//! `words_classified`. The family's two queries in one `MultiQuery` must
//! deliver, per query and in order, the spans of that query's own run.

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

/// Streams `record` through `multi`: the report over all matches, and
/// each query's spans apart.
fn multi(multi: &MultiQuery, record: &[u8]) -> (Report, Vec<Vec<(usize, usize)>>) {
    let mut spans = Vec::new();
    let mut per_query = vec![Vec::new(); multi.paths().len()];
    let outcome = multi
        .stream(record, |i, m| {
            spans.push(m.span());
            per_query[i].push(m.span());
            ControlFlow::Continue(())
        })
        .unwrap_or_else(|e| panic!("{e}"));
    let report = report(spans, outcome.stats, outcome.words_classified);
    (report, per_query)
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
            for &kernel in Kernel::all().iter().filter(|k| k.is_supported()) {
                let config = EngineConfig::builder().kernel(Some(kernel)).build();
                let queries = family.queries();
                let engines =
                    queries.map(|(_, q)| JsonSki::compile(q).unwrap().with_config(config));
                let shared =
                    queries.map(|(_, q)| MultiQuery::compile(&[q]).unwrap().with_config(config));
                let pair = MultiQuery::compile(&queries.map(|(_, q)| q))
                    .unwrap()
                    .with_config(config);
                for (r, record) in data.iter().enumerate() {
                    let ctx = format!("{} {form} {kernel:?} record {r}", family.name());
                    let pre = lanes(record, kernel);
                    let mut want = Vec::new();
                    for (q, (id, _)) in queries.iter().enumerate() {
                        let ctx = format!("{ctx} {id}");
                        let live = single(&engines[q], record, None);
                        let prebuilt = single(&engines[q], record, Some(&pre));
                        assert_eq!(prebuilt, live, "{ctx}: prebuilt vs live");
                        assert_eq!(multi(&shared[q], record).0, live, "{ctx}: multi vs live");
                        want.push(live.spans);
                        checked += 1;
                    }
                    assert_eq!(
                        multi(&pair, record).1,
                        want,
                        "{ctx}: family pair vs own runs"
                    );
                }
            }
        }
    }
    assert!(checked > 0);
}
