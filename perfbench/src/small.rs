//! `small_records`: each family's NDJSON form read through
//! `ChunkedRecords` over an in-memory reader into a serial `Pipeline` —
//! the CLI's stdin path, paper Fig. 11 — with the ten small-record
//! queries, plus a `MultiQuery` pass per two-query family and a strict
//! pass per family.

use crate::data::{self, Query};
use crate::layers::{self, probe, Counts};
use crate::metrics::{self, Summary};
use crate::oracle::{self, Digest};
use crate::setup::{self, query_pairs, strict_queries, Compiled};
use crate::sinks::{Chunked, Hash};
use crate::stats::{self, timed, Class, Input, Kind, Sample, Samples};
use crate::trace::Tracer;
use crate::{Args, Outcome};
use jsonski::{
    ChunkedRecords, CountSink, Evaluate, IndexedJsonSki, IndexedRecords, MatchSink, Metrics,
    MultiQuery, Pipeline, RecordSplitter, StructuralIndex,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Read;
use std::ops::ControlFlow;
use std::sync::Arc;

/// An in-memory reader whose refills are spans of their own.
struct Source<'a> {
    data: &'a [u8],
    tracer: &'a Tracer,
}

impl Read for Source<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let _span = self.tracer.span("reader.refill", 0, 0);
        self.data.read(buf)
    }
}

fn reader<'a>(data: &'a [u8], tracer: &'a Tracer) -> ChunkedRecords<Source<'a>> {
    ChunkedRecords::new(Source { data, tracer })
}

/// The program's own set-up: the compiled queries and the pipeline.
struct Setup {
    q: Compiled,
    pipeline: Pipeline,
}

fn setup(queries: &[Query], pairs: &[(usize, usize)]) -> Setup {
    Setup {
        q: Compiled::new(queries, pairs),
        pipeline: Pipeline::new().workers(1),
    }
}

/// One pipeline pass over `stream`; `Ok(matches)`.
pub fn pass(
    pipeline: &Pipeline,
    eng: &dyn Evaluate,
    stream: &[u8],
    tracer: &Tracer,
    sink: &mut dyn MatchSink,
) -> Result<u64, String> {
    let summary = pipeline
        .run(eng, &mut reader(stream, tracer), sink)
        .map_err(|e| e.to_string())?;
    Ok(summary.matches as u64)
}

/// One `MultiQuery` pass over every record of `stream`.
pub fn multi_pass(
    multi: &MultiQuery,
    stream: &[u8],
    tracer: &Tracer,
    mut sink: impl FnMut(usize, &[u8]),
) -> Result<(), String> {
    let mut records = reader(stream, tracer);
    while let Some(rec) = records.next_record().map_err(|e| e.to_string())? {
        multi
            .stream(rec, |i, m| {
                sink(i, m.bytes());
                ControlFlow::Continue(())
            })
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

pub fn run(args: &Args, tracer: &Tracer) -> Outcome {
    let data = data::families(args.seed, false, data::SMALL_BYTES);
    let streams: Vec<&[u8]> = data.iter().map(|d| d.bytes()).collect();
    let queries = data::queries(true);
    let pairs = query_pairs(&queries);
    let expect: Vec<Digest> = queries
        .iter()
        .map(|q| oracle::digest(q.path, data[q.family].iter()))
        .collect();

    let index = setup::indexes(&streams);

    let mut samples = Samples::reserve();
    harness::alloc::reset_peak();
    let base = harness::alloc::current_bytes();

    let s = setup(&queries, &pairs);
    let mut out = Outcome::default();
    verify(
        &s, &index, &streams, &queries, &pairs, &expect, tracer, &mut out,
    );

    let chunked = RefCell::new(Chunked::new());
    let mut inputs: Vec<Input<'_>> = Vec::new();
    for (qi, q) in queries.iter().enumerate() {
        let (stream, eng, want) = (streams[q.family], &s.q.engines[qi], expect[qi]);
        let bytes = stream.len() as u64;
        let key = qi as u32;
        let s = &s;
        inputs.push(Input {
            name: format!("inline/{}", q.id),
            kind: Kind::Inline,
            class: q.class,
            bytes,
            weight: 1,
            run: Box::new(move || {
                let (got, ns) = timed(|| {
                    let _span = tracer.span("pipeline.run", key, bytes);
                    pass(&s.pipeline, eng, stream, tracer, &mut CountSink::default())
                });
                Sample {
                    ns,
                    ok: got == Ok(want.matches),
                }
            }),
        });
        let idx = &index[q.family];
        inputs.push(Input {
            name: format!("indexed/{}", q.id),
            kind: Kind::Indexed,
            class: q.class,
            bytes,
            weight: 1,
            run: Box::new(move || {
                let (got, ns) = timed(|| {
                    let _span = tracer.span("pipeline.run_indexed", key, bytes);
                    s.pipeline
                        .run(
                            &IndexedJsonSki::new(eng, idx, None),
                            &mut IndexedRecords::new(stream, idx),
                            &mut CountSink::default(),
                        )
                        .map(|sum| sum.matches as u64)
                        .map_err(|e| e.to_string())
                });
                Sample {
                    ns,
                    ok: got == Ok(want.matches),
                }
            }),
        });
        if q.class == Class::Dense {
            let chunked = &chunked;
            inputs.push(Input {
                name: format!("stream/{}", q.id),
                kind: Kind::Stream,
                class: q.class,
                bytes,
                weight: 1,
                run: Box::new(move || {
                    let mut sink = chunked.borrow_mut();
                    sink.reset();
                    let (got, ns) = timed(|| {
                        let _span = tracer.span("pipeline.run_chunked", key, bytes);
                        let r = pass(&s.pipeline, eng, stream, tracer, &mut *sink);
                        sink.finish();
                        r
                    });
                    let ok =
                        got.is_ok() && sink.matches == want.matches && sink.bytes == want.bytes;
                    Sample { ns, ok }
                }),
            });
        }
    }
    for (pi, (&(a, b), multi)) in pairs.iter().zip(&s.q.multi).enumerate() {
        let stream = streams[queries[a].family];
        let want = [expect[a].matches, expect[b].matches];
        let bytes = stream.len() as u64;
        inputs.push(Input {
            name: format!("multi/{}+{}", queries[a].id, queries[b].id),
            kind: Kind::Multi,
            class: Class::Mixed,
            bytes,
            weight: 1,
            run: Box::new(move || {
                let mut counts = [0u64; 2];
                let (got, ns) = timed(|| {
                    let _span = tracer.span("multi.pass", pi as u32, bytes);
                    multi_pass(multi, stream, tracer, |i, _| counts[i] += 1)
                });
                Sample {
                    ns,
                    ok: got.is_ok() && counts == want,
                }
            }),
        });
    }
    for (si, (qi, eng)) in strict_queries(&queries).zip(&s.q.strict).enumerate() {
        let stream = streams[queries[qi].family];
        let want = expect[qi];
        let bytes = stream.len() as u64;
        let s = &s;
        inputs.push(Input {
            name: format!("strict/{}", queries[qi].id),
            kind: Kind::Strict,
            class: Class::Mixed,
            bytes,
            weight: 1,
            run: Box::new(move || {
                let (got, ns) = timed(|| {
                    let _span = tracer.span("pipeline.run_strict", si as u32, bytes);
                    pass(&s.pipeline, eng, stream, tracer, &mut CountSink::default())
                });
                Sample {
                    ns,
                    ok: got == Ok(want.matches),
                }
            }),
        });
    }

    inputs.push(Input {
        name: "setup".to_string(),
        kind: Kind::Setup,
        class: Class::Mixed,
        bytes: 0,
        weight: 1,
        run: Box::new(|| {
            let (s, ns) = timed(|| setup(&queries, &pairs));
            drop(s);
            Sample { ns, ok: true }
        }),
    });
    let headline = |i: &Input<'_>| i.kind == Kind::Inline;
    let order: Vec<usize> = (0..inputs.len()).collect();
    let peak = stats::measure(&mut samples, &mut inputs, &order, args.seconds, base);
    out.attempted += samples.attempted;
    out.failed += samples.failed;
    out.values = metrics::end_to_end(&inputs, &samples, &headline, peak, Summary::Fastest);
    out.estimators = metrics::estimators(&inputs, &samples, &headline);
    if tracer.enabled() {
        let t = metrics::times_by_name(&inputs, &samples);
        trace_layers(
            &s, &index, &data, &streams, &queries, &pairs, &expect, tracer, &t, &mut out,
        );
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn verify(
    s: &Setup,
    index: &[StructuralIndex],
    streams: &[&[u8]],
    queries: &[Query],
    pairs: &[(usize, usize)],
    expect: &[Digest],
    tracer: &Tracer,
    out: &mut Outcome,
) {
    for (qi, q) in queries.iter().enumerate() {
        let (stream, eng, idx) = (streams[q.family], &s.q.engines[qi], &index[q.family]);
        let mut live = Hash::default();
        let r = pass(&s.pipeline, eng, stream, tracer, &mut live);
        out.checked(r.and_then(|_| {
            oracle::check(
                &format!("small_records inline {}", q.id),
                expect[qi],
                live.0,
            )
        }));
        let mut pre = Hash::default();
        let r = s
            .pipeline
            .run(
                &IndexedJsonSki::new(eng, idx, None),
                &mut IndexedRecords::new(stream, idx),
                &mut pre,
            )
            .map_err(|e| e.to_string());
        out.checked(r.and_then(|_| {
            oracle::check(
                &format!("small_records indexed {}", q.id),
                expect[qi],
                pre.0,
            )
        }));
    }
    for (&(a, b), multi) in pairs.iter().zip(&s.q.multi) {
        let mut d = [Digest::default(); 2];
        let r = multi_pass(multi, streams[queries[a].family], tracer, |i, m| {
            d[i].push(m)
        });
        let what = format!("small_records multi {}+{}", queries[a].id, queries[b].id);
        out.checked(r.and_then(|_| {
            oracle::check(&what, expect[a], d[0])?;
            oracle::check(&what, expect[b], d[1])
        }));
    }
    for (qi, eng) in strict_queries(queries).zip(&s.q.strict) {
        let mut h = Hash::default();
        let r = pass(
            &s.pipeline,
            eng,
            streams[queries[qi].family],
            tracer,
            &mut h,
        );
        let what = format!("small_records strict {}", queries[qi].id);
        out.checked(r.and_then(|_| oracle::check(&what, expect[qi], h.0)));
    }
}

#[allow(clippy::too_many_arguments)]
fn trace_layers(
    s: &Setup,
    index: &[StructuralIndex],
    data: &[datagen::GeneratedData],
    streams: &[&[u8]],
    queries: &[Query],
    pairs: &[(usize, usize)],
    expect: &[Digest],
    tracer: &Tracer,
    t: &BTreeMap<&str, f64>,
    out: &mut Outcome,
) {
    layers::simdbits(tracer, streams, &mut out.values);

    let mut counts = Counts::default();
    let mut dense_matches = 0u64;
    for (qi, q) in queries.iter().enumerate() {
        let (stream, eng, idx) = (streams[q.family], &s.q.engines[qi], &index[q.family]);
        let fam = &data[q.family];
        for rec in fam.iter() {
            let mut bytes = 0u64;
            let o = eng
                .stream(rec, |m| {
                    bytes += m.bytes().len() as u64;
                    ControlFlow::Continue(())
                })
                .expect("verified above");
            counts.add(&o, bytes);
        }
        let bytes = stream.len() as u64;
        let key = qi as u32;
        probe(tracer, "jsonski.stream", key, bytes, || {
            for rec in fam.iter() {
                std::hint::black_box(eng.count(rec).expect("verified above"));
            }
        });
        probe(tracer, "jsonski.stream_prebuilt", key, bytes, || {
            for (i, rec) in fam.iter().enumerate() {
                let lanes = idx.bitmaps_for(i).expect("index covers every record");
                let o = eng.stream_prebuilt(rec, lanes, |_| ControlFlow::Continue(()));
                std::hint::black_box(o.expect("verified above"));
            }
        });
        probe(tracer, "pipeline.serial", key, bytes, || {
            pass(&s.pipeline, eng, stream, tracer, &mut CountSink::default())
                .expect("verified above");
        });
        probe(tracer, "evaluate.direct", key, bytes, || {
            let mut records = reader(stream, tracer);
            let mut sink = CountSink::default();
            let mut i = 0u64;
            while let Some(rec) = records.next_record().expect("verified above") {
                std::hint::black_box(eng.evaluate(rec, i, &mut sink));
                i += 1;
            }
        });
        if q.class == Class::Dense {
            let recs: Vec<&[u8]> = fam.iter().collect();
            dense_matches += layers::delivery(tracer, key, eng, &recs);
        }
        // Two workers, counts only: two shared vCPUs cannot show scaling.
        let m = Arc::new(Metrics::new());
        let r = Pipeline::new()
            .workers(2)
            .metrics(Arc::clone(&m))
            .run(eng, &mut reader(stream, tracer), &mut CountSink::default())
            .map(|sum| sum.matches as u64)
            .map_err(|e| e.to_string());
        out.checked(if r == Ok(expect[qi].matches) {
            Ok(())
        } else {
            Err(format!("small_records -j2 {}: {r:?}", q.id))
        });
        let stalls = out.values.entry("pipeline.j2_queue_stalls").or_insert(0.0);
        *stalls += m.snapshot().producer_stalls as f64;
    }
    let v = &mut out.values;
    counts.report(v);
    v.insert(
        "cursor.classify_share",
        layers::share(
            tracer.best_ns("jsonski.stream_prebuilt"),
            tracer.best_ns("jsonski.stream"),
        ),
    );
    v.insert(
        "fastforward.traverse_gibps",
        tracer.gibps("jsonski.stream_prebuilt"),
    );
    layers::report_delivery(tracer, dense_matches, v);
    v.insert(
        "pipeline.overhead_pct",
        100.0 * (tracer.best_ns("pipeline.serial") / tracer.best_ns("evaluate.direct") - 1.0),
    );
    let paths: Vec<&str> = queries.iter().map(|q| q.path).collect();
    layers::compile(tracer, &paths, v);

    layers::multi_saving(t, queries, pairs, v);

    for (k, stream) in streams.iter().enumerate() {
        let (key, bytes) = (k as u32, stream.len() as u64);
        probe(tracer, "records.split", key, bytes, || {
            std::hint::black_box(RecordSplitter::new(stream).count());
        });
        probe(tracer, "reader.next_record", key, bytes, || {
            let mut r = ChunkedRecords::new(*stream);
            while let Some(rec) = r.next_record().expect("verified above") {
                std::hint::black_box(rec);
            }
        });
    }
    let records: usize = data.iter().map(|d| d.records().len()).sum();
    v.insert("records.split_gibps", tracer.gibps("records.split"));
    v.insert("reader.read_gibps", tracer.gibps("reader.next_record"));
    v.insert("records.count", records as f64);
    let per_family: Vec<Vec<&[u8]>> = data.iter().map(|d| d.iter().collect()).collect();
    layers::validate(tracer, &per_family, v);
    layers::index(tracer, streams, index, None, v);
}
