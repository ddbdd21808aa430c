//! `large_record`: each family as one large record, every Table 5 query
//! through `JsonSki::stream`, serial, permissive, best kernel — the
//! paper's Fig. 10 path. No record splitting, pipeline or serving.

use crate::data::{self, Query};
use crate::layers::{self, Counts};
use crate::metrics::{self, Summary};
use crate::oracle::{self, Digest};
use crate::setup::{self, query_pairs, strict_queries, Compiled};
use crate::sinks::Chunked;
use crate::stats::{self, timed, Class, Input, Kind, Sample, Samples};
use crate::trace::Tracer;
use crate::{Args, Outcome};
use jsonski::{JsonSki, StructuralIndex};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::ControlFlow;

fn count_ok(got: Result<usize, jsonski::StreamError>, want: &Digest) -> bool {
    matches!(got, Ok(n) if n as u64 == want.matches)
}

pub fn run(args: &Args, tracer: &Tracer) -> Outcome {
    let data = data::families(args.seed, true, data::LARGE_BYTES);
    let records: Vec<&[u8]> = data.iter().map(|d| d.bytes()).collect();
    let queries = data::queries(false);
    let pairs = query_pairs(&queries);
    let expect: Vec<Digest> = queries
        .iter()
        .map(|q| oracle::digest(q.path, [records[q.family]]))
        .collect();

    let index = setup::indexes(&records);

    let mut samples = Samples::reserve();
    harness::alloc::reset_peak();
    let base = harness::alloc::current_bytes();

    let s = Compiled::new(&queries, &pairs);
    let mut out = Outcome::default();
    verify(&s, &index, &records, &queries, &pairs, &expect, &mut out);

    let chunked = RefCell::new(Chunked::new());
    let mut inputs: Vec<Input<'_>> = Vec::new();
    for (qi, q) in queries.iter().enumerate() {
        let (rec, eng, want) = (records[q.family], &s.engines[qi], expect[qi]);
        let bytes = rec.len() as u64;
        let key = qi as u32;
        inputs.push(Input {
            name: format!("inline/{}", q.id),
            kind: Kind::Inline,
            class: q.class,
            bytes,
            weight: 1,
            run: Box::new(move || {
                let (got, ns) = timed(|| {
                    let _span = tracer.span("jsonski.stream", key, bytes);
                    eng.stream(rec, |_| ControlFlow::Continue(()))
                        .map(|o| o.matches)
                });
                Sample {
                    ns,
                    ok: count_ok(got, &want),
                }
            }),
        });
        let lanes = index[q.family]
            .bitmaps_for(0)
            .expect("one record per family");
        inputs.push(Input {
            name: format!("indexed/{}", q.id),
            kind: Kind::Indexed,
            class: q.class,
            bytes,
            weight: 1,
            run: Box::new(move || {
                let (got, ns) = timed(|| {
                    let _span = tracer.span("jsonski.stream_prebuilt", key, bytes);
                    eng.stream_prebuilt(rec, lanes, |_| ControlFlow::Continue(()))
                        .map(|o| o.matches)
                });
                Sample {
                    ns,
                    ok: count_ok(got, &want),
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
                        let _span = tracer.span("jsonski.stream_chunked", key, bytes);
                        let r = eng.stream(rec, |m| {
                            sink.push(m.bytes());
                            ControlFlow::Continue(())
                        });
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
    for (pi, (&(a, b), multi)) in pairs.iter().zip(&s.multi).enumerate() {
        let rec = records[queries[a].family];
        let want = [expect[a].matches, expect[b].matches];
        let bytes = rec.len() as u64;
        inputs.push(Input {
            name: format!("multi/{}+{}", queries[a].id, queries[b].id),
            kind: Kind::Multi,
            class: Class::Mixed,
            bytes,
            weight: 1,
            run: Box::new(move || {
                let mut counts = [0u64; 2];
                let (got, ns) = timed(|| {
                    let _span = tracer.span("multi.stream", pi as u32, bytes);
                    multi.stream(rec, |i, _| {
                        counts[i] += 1;
                        ControlFlow::Continue(())
                    })
                });
                Sample {
                    ns,
                    ok: got.is_ok() && counts == want,
                }
            }),
        });
    }
    for (si, (qi, eng)) in strict_queries(&queries).zip(&s.strict).enumerate() {
        let rec = records[queries[qi].family];
        let want = expect[qi];
        let bytes = rec.len() as u64;
        inputs.push(Input {
            name: format!("strict/{}", queries[qi].id),
            kind: Kind::Strict,
            class: Class::Mixed,
            bytes,
            weight: 1,
            run: Box::new(move || {
                let (got, ns) = timed(|| {
                    let _span = tracer.span("jsonski.stream_strict", si as u32, bytes);
                    eng.stream(rec, |_| ControlFlow::Continue(()))
                        .map(|o| o.matches)
                });
                Sample {
                    ns,
                    ok: count_ok(got, &want),
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
            let (s, ns) = timed(|| Compiled::new(&queries, &pairs));
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
        trace_layers(&s, &index, &records, &queries, &pairs, tracer, &t, &mut out);
    }
    out
}

/// Checks every operation's full output (digest of all match bytes) once
/// against the oracle.
fn verify(
    s: &Compiled,
    index: &[StructuralIndex],
    records: &[&[u8]],
    queries: &[Query],
    pairs: &[(usize, usize)],
    expect: &[Digest],
    out: &mut Outcome,
) {
    let digest_of = |eng: &JsonSki, rec: &[u8], lanes: Option<&[simdbits::BlockBitmaps]>| {
        let mut d = Digest::default();
        let sink = |m: jsonski::Match<'_>| {
            d.push(m.bytes());
            ControlFlow::Continue(())
        };
        let r = match lanes {
            Some(l) => eng.stream_prebuilt(rec, l, sink),
            None => eng.stream(rec, sink),
        };
        r.map(|_| d).map_err(|e| e.to_string())
    };
    for (qi, q) in queries.iter().enumerate() {
        let rec = records[q.family];
        let lanes = index[q.family].bitmaps_for(0);
        for (what, lanes) in [("inline", None), ("indexed", lanes)] {
            let got = digest_of(&s.engines[qi], rec, lanes);
            out.checked(got.and_then(|d| {
                oracle::check(&format!("large_record {what} {}", q.id), expect[qi], d)
            }));
        }
    }
    for (&(a, b), multi) in pairs.iter().zip(&s.multi) {
        let rec = records[queries[a].family];
        let mut d = [Digest::default(); 2];
        let got = multi.stream(rec, |i, m| {
            d[i].push(m.bytes());
            ControlFlow::Continue(())
        });
        let what = format!("large_record multi {}+{}", queries[a].id, queries[b].id);
        out.checked(got.map_err(|e| e.to_string()).and_then(|_| {
            oracle::check(&what, expect[a], d[0])?;
            oracle::check(&what, expect[b], d[1])
        }));
    }
    for (qi, eng) in strict_queries(queries).zip(&s.strict) {
        let got = digest_of(eng, records[queries[qi].family], None);
        let what = format!("large_record strict {}", queries[qi].id);
        out.checked(got.and_then(|d| oracle::check(&what, expect[qi], d)));
    }
}

/// The traced run's per-layer metrics. `t[name]` is an input's
/// fastest-twentieth time from the sampled loop.
#[allow(clippy::too_many_arguments)]
fn trace_layers(
    s: &Compiled,
    index: &[StructuralIndex],
    records: &[&[u8]],
    queries: &[Query],
    pairs: &[(usize, usize)],
    tracer: &Tracer,
    t: &BTreeMap<&str, f64>,
    out: &mut Outcome,
) {
    let v = &mut out.values;
    layers::simdbits(tracer, records, v);

    // One exact pass per query for the counts.
    let mut counts = Counts::default();
    for (qi, q) in queries.iter().enumerate() {
        let mut bytes = 0u64;
        let o = s.engines[qi]
            .stream(records[q.family], |m| {
                bytes += m.bytes().len() as u64;
                ControlFlow::Continue(())
            })
            .expect("verified above");
        counts.add(&o, bytes);
    }
    counts.report(v);

    let (mut live, mut pre) = (0.0, 0.0);
    for q in queries {
        live += t[format!("inline/{}", q.id).as_str()];
        pre += t[format!("indexed/{}", q.id).as_str()];
    }
    v.insert("cursor.classify_share", layers::share(pre, live));
    v.insert(
        "fastforward.traverse_gibps",
        tracer.gibps("jsonski.stream_prebuilt"),
    );
    let paths: Vec<&str> = queries.iter().map(|q| q.path).collect();
    layers::compile(tracer, &paths, v);

    let mut dense_matches = 0;
    for (qi, q) in queries
        .iter()
        .enumerate()
        .filter(|(_, q)| q.class == Class::Dense)
    {
        dense_matches += layers::delivery(tracer, qi as u32, &s.engines[qi], &[records[q.family]]);
    }
    layers::report_delivery(tracer, dense_matches, v);

    layers::multi_saving(t, queries, pairs, v);

    layers::index(tracer, records, index, None, v);
    let whole: Vec<Vec<&[u8]>> = records.iter().map(|r| vec![*r]).collect();
    layers::validate(tracer, &whole, v);
}
