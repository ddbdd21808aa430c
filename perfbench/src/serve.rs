//! `serve_mixed`: an in-process `jsonski serve` (`workers: 1`) on TCP
//! loopback over stored small-record corpora with a warmed index cache,
//! driven by one closed-loop client connection sending a fixed seeded mix:
//! about half corpus queries answered from prebuilt index lanes, a quarter
//! inline-body queries classified live, and a quarter `stream: true` dense
//! corpus queries whose responses span several chunks.

use crate::data::{self, Query};
use crate::layers::{self, probe, Counts};
use crate::metrics::{self, Summary};
use crate::oracle;
use crate::setup::{self, query_pairs, strict_queries, Compiled};
use crate::sinks::Hash;
use crate::small::{multi_pass, pass};
use crate::stats::{self, timed, Class, Input, Kind, Sample, Samples};
use crate::trace::Tracer;
use crate::{Args, Outcome};
use jsonski::{CountSink, IndexedJsonSki, IndexedRecords, JsonSki, Pipeline};
use jsonski_serve::{encode_frame, Client, Response, ServeConfig, Server};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Mix rounds per timed cold set-up (which starts the server twice).
const ROUNDS_PER_SETUP: usize = 4;
/// Bytes of the inline body sent with each inline request.
const INLINE_BYTES: usize = 256 * 1024;
/// The server's streamed-response chunk size: dense responses (20–130 KB)
/// span several chunks. Under the 256 KiB default each would be one.
const CHUNK_BYTES: usize = 16 * 1024;
/// Times a request of `kind` occurs per template in one round of the mix:
/// about half indexed, a quarter inline, a quarter streamed.
fn weight(kind: Kind) -> u32 {
    match kind {
        Kind::Inline => 1,
        _ => 2,
    }
}

/// A running server and the benchmark's one connection to it.
struct Running {
    handle: Option<JoinHandle<std::io::Result<jsonski_serve::ServeSummary>>>,
    shutdown: jsonski::CancellationToken,
    client: Option<Client>,
}

impl Running {
    /// Starts a server on an ephemeral loopback port and waits until it
    /// answers a ping, which it does only once its index warm-up is done.
    fn start(corpora: &Path, index_dir: &Path) -> Result<Running, String> {
        let config = ServeConfig {
            workers: 1,
            corpus_dir: Some(corpora.to_path_buf()),
            index_cache: Some(index_dir.to_path_buf()),
            index_warm: true,
            metrics_endpoint: true,
            chunk_bytes: CHUNK_BYTES,
            ..ServeConfig::default()
        };
        let server = Server::bind_tcp("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let shutdown = server.shutdown_token();
        let handle = std::thread::spawn(move || server.run());
        let mut running = Running {
            handle: Some(handle),
            shutdown,
            client: None,
        };
        let mut client = Client::connect_tcp(&addr).map_err(|e| format!("connect: {e}"))?;
        let pong = client.ping().map_err(|e| format!("ping: {e}"))?;
        if !pong.is_ok() {
            return Err(format!("ping answered {}", pong.code));
        }
        running.client = Some(client);
        Ok(running)
    }

    fn client(&mut self) -> &mut Client {
        self.client.as_mut().expect("connected")
    }

    /// Closes the connection, drains the server and joins its thread.
    fn stop(&mut self) -> Result<(), String> {
        self.client = None;
        self.shutdown.cancel();
        match self.handle.take().map(JoinHandle::join) {
            Some(Ok(Ok(_))) | None => Ok(()),
            Some(Ok(Err(e))) => Err(format!("server: {e}")),
            Some(Err(_)) => Err("server thread panicked".to_string()),
        }
    }

    /// The text metrics scrape as `name -> value`.
    fn scrape(&mut self) -> Result<BTreeMap<String, f64>, String> {
        let resp = self.client().metrics(false).map_err(|e| e.to_string())?;
        Ok(String::from_utf8_lossy(&resp.body)
            .lines()
            .filter_map(|l| {
                let (k, v) = l.split_once(' ')?;
                Some((k.to_string(), v.trim().parse().ok()?))
            })
            .collect())
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// The timed set-up: a server that builds and persists every corpus
/// index, then a restart that loads them. Returns the second server.
fn setup(corpora: &Path, index_dir: &Path) -> Result<(Running, Duration), String> {
    let _ = std::fs::remove_dir_all(index_dir);
    std::fs::create_dir_all(index_dir).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let mut first = Running::start(corpora, index_dir)?;
    let built = t0.elapsed();
    first.stop()?;
    let t1 = Instant::now();
    let second = Running::start(corpora, index_dir)?;
    Ok((second, built + t1.elapsed()))
}

/// One request of the mix.
struct Template {
    kind: Kind,
    query: Query,
    /// Corpus file name, or `None` for an inline body.
    corpus: Option<String>,
    /// Bytes the request evaluates (the corpus or the inline body).
    data: Vec<u8>,
    expect: Vec<u8>,
}

impl Template {
    fn send(&self, client: &mut Client, id: &str) -> Result<Response, String> {
        client.stream = self.kind == Kind::Stream;
        let r = match &self.corpus {
            Some(c) => client.query_corpus(id, "bench", self.query.path, c, None),
            None => client.query(id, "bench", self.query.path, None, &self.data),
        };
        r.map_err(|e| format!("{} {}: {e}", self.name(), id))
    }

    fn check(&self, resp: &Response) -> Result<(), String> {
        if !resp.is_ok() {
            return Err(format!(
                "{}: status {} {:?}",
                self.name(),
                resp.code,
                resp.reason
            ));
        }
        if resp.stream != (self.kind == Kind::Stream) {
            return Err(format!("{}: stream flag {}", self.name(), resp.stream));
        }
        if resp.body != self.expect {
            let (want, got) = (
                oracle::Digest::of_body(&self.expect),
                oracle::Digest::of_body(&resp.body),
            );
            return oracle::check(&format!("serve_mixed {}", self.name()), want, got).and(Err(
                format!("{}: body differs from the oracle", self.name()),
            ));
        }
        Ok(())
    }

    fn name(&self) -> String {
        let kind = match self.kind {
            Kind::Indexed => "indexed",
            Kind::Inline => "inline",
            _ => "stream",
        };
        format!("{kind}/{}", self.query.id)
    }
}

fn records(stream: &[u8]) -> impl Iterator<Item = &[u8]> {
    stream.split(|&b| b == b'\n').filter(|r| !r.is_empty())
}

pub fn run(args: &Args, tracer: &Tracer, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    match run_inner(args, tracer, dir, &mut out) {
        Ok(()) => {}
        Err(e) => out.checked(Err(e)),
    }
    out
}

fn run_inner(args: &Args, tracer: &Tracer, dir: &Path, out: &mut Outcome) -> Result<(), String> {
    // Inputs and oracle answers; none of this is set-up time.
    let corpora_dir = dir.join("corpora");
    std::fs::create_dir_all(&corpora_dir).map_err(|e| e.to_string())?;
    let corpora = data::families(args.seed, false, data::CORPUS_BYTES);
    let bodies = data::families(data::mix(args.seed, 0x1f), false, INLINE_BYTES);
    for (f, c) in corpora.iter().enumerate() {
        std::fs::write(corpora_dir.join(corpus_name(f)), c.bytes()).map_err(|e| e.to_string())?;
    }
    let queries = data::queries(true);
    let mut templates = Vec::new();
    for q in &queries {
        let (corpus, body) = (corpora[q.family].bytes(), bodies[q.family].bytes());
        let kinds: &[Kind] = if q.class == Class::Dense {
            &[Kind::Indexed, Kind::Inline, Kind::Stream]
        } else {
            &[Kind::Indexed, Kind::Inline]
        };
        for &kind in kinds {
            let data = if kind == Kind::Inline { body } else { corpus };
            templates.push(Template {
                kind,
                query: *q,
                corpus: (kind != Kind::Inline).then(|| corpus_name(q.family)),
                data: data.to_vec(),
                expect: oracle::body(q.path, records(data)),
            });
        }
    }
    let pairs = query_pairs(&queries);
    let expect_corpus: Vec<oracle::Digest> = queries
        .iter()
        .map(|q| oracle::digest(q.path, records(corpora[q.family].bytes())))
        .collect();

    let mut samples = Samples::reserve();
    harness::alloc::reset_peak();
    let base = harness::alloc::current_bytes();

    let (mut server, _) = setup(&corpora_dir, &dir.join("index"))?;
    // Library-side engines for the multi and strict passes; not part of
    // the server's set-up.
    let pipeline = Pipeline::new().workers(1);
    let Compiled { multi, strict, .. } = Compiled::new(&queries, &pairs);

    // Every template once, and every streamed one also materialized: a
    // streamed body must equal the single-frame one.
    for t in &templates {
        let r = t.send(server.client(), "\"verify\"");
        out.checked(r.and_then(|resp| t.check(&resp)));
        if t.kind == Kind::Stream {
            let single = Template {
                kind: Kind::Indexed,
                query: t.query,
                corpus: t.corpus.clone(),
                data: Vec::new(),
                expect: t.expect.clone(),
            };
            let r = single.send(server.client(), "\"verify-single\"");
            out.checked(r.and_then(|resp| single.check(&resp)));
        }
    }

    let failures: RefCell<Vec<String>> = RefCell::new(Vec::new());
    let setup_dir = dir.join("setup-index");
    let conn = RefCell::new(server.client.take().expect("connected"));
    let ids = Cell::new(0u64);
    let mut inputs: Vec<Input<'_>> = Vec::new();
    for (k, t) in templates.iter().enumerate() {
        let weight = weight(t.kind);
        let (conn, ids, failures) = (&conn, &ids, &failures);
        let bytes = t.data.len() as u64;
        inputs.push(Input {
            name: t.name(),
            kind: t.kind,
            class: t.query.class,
            bytes,
            weight,
            run: Box::new(move || {
                let mut client = conn.borrow_mut();
                let req = ids.get() + 1;
                ids.set(req);
                let id = req.to_string();
                let (resp, ns) = timed(|| {
                    let _span = tracer.span_req("serve.request", k as u32, bytes, Some(req));
                    t.send(&mut client, &id)
                });
                let checked = resp.and_then(|r| t.check(&r));
                let ok = checked.is_ok();
                if let Err(e) = checked {
                    let mut f = failures.borrow_mut();
                    if f.len() < 8 {
                        f.push(e);
                    }
                }
                Sample { ns, ok }
            }),
        });
    }
    // Library passes over the stored corpora: the server has no
    // multi-query or strict request, so these two operations keep
    // `multi_gibps` and `strict_gibps` defined on this workload.
    for (pi, (&(a, b), m)) in pairs.iter().zip(&multi).enumerate() {
        let corpus = corpora[queries[a].family].bytes();
        let want = [expect_corpus[a].matches, expect_corpus[b].matches];
        let bytes = corpus.len() as u64;
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
                    multi_pass(m, corpus, tracer, |i, _| counts[i] += 1)
                });
                Sample {
                    ns,
                    ok: got.is_ok() && counts == want,
                }
            }),
        });
    }
    for (si, (qi, eng)) in strict_queries(&queries).zip(&strict).enumerate() {
        let corpus = corpora[queries[qi].family].bytes();
        let want = expect_corpus[qi].matches;
        let bytes = corpus.len() as u64;
        let pipeline = &pipeline;
        inputs.push(Input {
            name: format!("strict/{}", queries[qi].id),
            kind: Kind::Strict,
            class: Class::Mixed,
            bytes,
            weight: 1,
            run: Box::new(move || {
                let (got, ns) = timed(|| {
                    let _span = tracer.span("pipeline.run_strict", si as u32, bytes);
                    pass(pipeline, eng, corpus, tracer, &mut CountSink::default())
                });
                Sample {
                    ns,
                    ok: got == Ok(want),
                }
            }),
        });
    }

    // Cold set-ups between rounds, in an index directory of their own.
    let (corpora_dir, setup_dir, setup_failures) = (&corpora_dir, &setup_dir, &failures);
    inputs.push(Input {
        name: "setup".to_string(),
        kind: Kind::Setup,
        class: Class::Mixed,
        bytes: 0,
        weight: 1,
        run: Box::new(move || match setup(corpora_dir, setup_dir) {
            Ok((_server, t)) => Sample {
                ns: u64::try_from(t.as_nanos()).unwrap_or(u64::MAX),
                ok: true,
            },
            Err(e) => {
                setup_failures
                    .borrow_mut()
                    .push(format!("serve_mixed set-up: {e}"));
                Sample { ns: 0, ok: false }
            }
        }),
    });

    // The mix: every request and library pass as often as its weight, in
    // a seeded order, for a few rounds; then one set-up.
    let mix: Vec<usize> = inputs
        .iter()
        .enumerate()
        .filter(|(_, inp)| inp.kind != Kind::Setup)
        .flat_map(|(i, inp)| std::iter::repeat_n(i, inp.weight as usize))
        .collect();
    let mut order = Vec::new();
    for round in 0..ROUNDS_PER_SETUP {
        let mut r = mix.clone();
        data::shuffle(&mut r, data::mix(args.seed, 0x5e + round as u64));
        order.extend(r);
    }
    order.push(inputs.len() - 1);
    let peak = stats::measure(&mut samples, &mut inputs, &order, args.seconds, base);
    out.attempted += samples.attempted;
    out.failed += samples.failed;
    let is_request = |i: &Input<'_>| matches!(i.kind, Kind::Indexed | Kind::Inline | Kind::Stream);
    out.values = metrics::end_to_end(&inputs, &samples, &is_request, peak, Summary::WholeRun);
    out.estimators = metrics::estimators(&inputs, &samples, &is_request);
    let times = metrics::input_times(&inputs, &samples, stats::fastest_twentieth);
    drop(inputs);
    out.errors.extend(failures.into_inner());
    server.client = Some(conn.into_inner());
    let scrape = server.scrape()?;
    let get = |k: &str| scrape.get(k).copied().unwrap_or(0.0);
    // The corpora must stay resident for the whole run.
    out.checked(if get("mem_evictions") == 0.0 {
        Ok(())
    } else {
        Err(format!(
            "serve_mixed: {} memory evictions",
            get("mem_evictions")
        ))
    });
    if tracer.enabled() {
        let v = &mut out.values;
        let ratio = |a: f64, b: f64| if a + b > 0.0 { a / (a + b) } else { 0.0 };
        v.insert(
            "cache.hit_ratio",
            ratio(get("cache_hits"), get("cache_misses")),
        );
        v.insert(
            "index.hit_ratio",
            ratio(get("index_hit"), get("index_miss")),
        );
        v.insert("mem.peak_bytes", get("mem_peak_bytes"));
        v.insert("mem.evictions", get("mem_evictions"));
        v.insert("serve.streamed", get("serve_streamed"));
        trace_layers(
            &mut server,
            &templates,
            &times,
            &corpora,
            &bodies,
            &queries,
            dir,
            tracer,
            out,
        )?;
    }
    server.stop()
}

fn corpus_name(family: usize) -> String {
    format!("{}.ndjson", data::family_name(family))
}

#[allow(clippy::too_many_arguments)]
fn trace_layers(
    server: &mut Running,
    templates: &[Template],
    times: &[f64],
    corpora: &[datagen::GeneratedData],
    bodies: &[datagen::GeneratedData],
    queries: &[Query],
    dir: &Path,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let v = &mut out.values;
    let body_streams: Vec<&[u8]> = bodies.iter().map(|b| b.bytes()).collect();
    layers::simdbits(tracer, &body_streams, v);

    for i in 0..100 {
        let _span = tracer.span("serve.ping", 0, 0);
        server
            .client()
            .ping()
            .map_err(|e| format!("ping {i}: {e}"))?;
    }
    v.insert("serve.ping_us", tracer.best_ns("serve.ping") / 1e3);
    let largest = templates
        .iter()
        .map(|t| &t.expect)
        .max_by_key(|e| e.len())
        .expect("templates");
    probe(
        tracer,
        "protocol.encode_frame",
        0,
        largest.len() as u64,
        || {
            std::hint::black_box(encode_frame(largest));
        },
    );
    v.insert(
        "protocol.encode_frame_gibps",
        tracer.gibps("protocol.encode_frame"),
    );

    // Counts for one round of the mix: inline requests classify their
    // bodies, corpus requests read prebuilt lanes.
    let corpus_bytes: Vec<&[u8]> = corpora.iter().map(|c| c.bytes()).collect();
    let indexes = setup::indexes(&corpus_bytes);
    let mut counts = Counts::default();
    let mut records_split = 0u64;
    let (mut eval, mut client) = (0.0, 0.0);
    for (k, t) in templates.iter().enumerate() {
        let eng = JsonSki::compile(t.query.path).expect("parses");
        for _ in 0..weight(t.kind) {
            if t.kind == Kind::Inline {
                for rec in records(&t.data) {
                    let mut bytes = 0u64;
                    let o = eng
                        .stream(rec, |m| {
                            bytes += m.bytes().len() as u64;
                            ControlFlow::Continue(())
                        })
                        .map_err(|e| e.to_string())?;
                    counts.add(&o, bytes);
                    records_split += 1;
                }
            } else {
                let idx = &indexes[t.query.family];
                for (i, rec) in records(&t.data).enumerate() {
                    let lanes = idx.bitmaps_for(i).ok_or("index covers every record")?;
                    let mut bytes = 0u64;
                    let mut o = eng
                        .stream_prebuilt(rec, lanes, |m| {
                            bytes += m.bytes().len() as u64;
                            ControlFlow::Continue(())
                        })
                        .map_err(|e| e.to_string())?;
                    // Served from the index: nothing was classified.
                    o.words_classified = 0;
                    counts.add(&o, bytes);
                }
            }
        }
        if t.kind == Kind::Indexed {
            let idx = &indexes[t.query.family];
            probe(
                tracer,
                "serve.indexed_eval",
                k as u32,
                t.data.len() as u64,
                || {
                    let mut sink = Hash::default();
                    Pipeline::new()
                        .workers(1)
                        .run(
                            &IndexedJsonSki::new(&eng, idx, None),
                            &mut IndexedRecords::new(&t.data, idx),
                            &mut sink,
                        )
                        .expect("verified above");
                    std::hint::black_box(sink.0);
                },
            );
            eval +=
                stats::fastest_twentieth(&tracer.self_times("serve.indexed_eval")[&(k as u32)].1);
            client += times[k];
        }
    }
    counts.report(v);
    v.insert("records.count", records_split as f64);
    v.insert(
        "serve.indexed_eval_share",
        if client > 0.0 { eval / client } else { 0.0 },
    );

    // Live classification against prebuilt lanes over the inline bodies.
    let body_indexes = setup::indexes(&body_streams);
    for ((k, body), idx) in bodies.iter().enumerate().zip(&body_indexes) {
        let eng = JsonSki::compile(
            queries
                .iter()
                .find(|q| q.family == k)
                .expect("a query")
                .path,
        )
        .expect("parses");
        let bytes = body.bytes().len() as u64;
        probe(tracer, "jsonski.stream", k as u32, bytes, || {
            for rec in body.iter() {
                std::hint::black_box(eng.count(rec).expect("verified above"));
            }
        });
        probe(tracer, "jsonski.stream_prebuilt", k as u32, bytes, || {
            for (i, rec) in body.iter().enumerate() {
                let lanes = idx.bitmaps_for(i).expect("index covers every record");
                let o = eng.stream_prebuilt(rec, lanes, |_| ControlFlow::Continue(()));
                std::hint::black_box(o.expect("verified above"));
            }
        });
        probe(tracer, "records.split", k as u32, bytes, || {
            std::hint::black_box(jsonski::RecordSplitter::new(body.bytes()).count());
        });
    }
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
    v.insert("records.split_gibps", tracer.gibps("records.split"));

    // Delivery of the dense corpus queries' matches (what a streamed
    // response carries), and validation of the corpora.
    let corpus_records: Vec<Vec<&[u8]>> = corpora.iter().map(|c| c.iter().collect()).collect();
    let mut dense_matches = 0;
    for (qi, q) in queries
        .iter()
        .enumerate()
        .filter(|(_, q)| q.class == Class::Dense)
    {
        let eng = JsonSki::compile(q.path).expect("parses");
        dense_matches += layers::delivery(tracer, qi as u32, &eng, &corpus_records[q.family]);
    }
    layers::report_delivery(tracer, dense_matches, v);
    layers::validate(tracer, &corpus_records, v);
    let paths: Vec<&str> = queries.iter().map(|q| q.path).collect();
    layers::compile(tracer, &paths, v);

    layers::index(
        tracer,
        &corpus_bytes,
        &indexes,
        Some(&dir.join("probe.idx")),
        v,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(body: &[u8], stream: bool) -> Response {
        Response {
            code: 200,
            status: "ok".to_string(),
            id: b"1".to_vec(),
            matches: 0,
            records: 0,
            skipped: 0,
            reason: None,
            stream,
            body: body.to_vec(),
        }
    }

    #[test]
    fn a_served_body_must_equal_the_oracle_byte_for_byte() {
        let ndjson = b"{\"a\": [1, \"x\"]}\n{\"a\": [2]}\n";
        let expect = oracle::body("$.a[*]", records(ndjson));
        assert_eq!(expect, b"1\n\"x\"\n2\n");
        let t = Template {
            kind: Kind::Stream,
            query: data::queries(true)[0],
            corpus: Some("TT.ndjson".to_string()),
            data: ndjson.to_vec(),
            expect: expect.clone(),
        };
        t.check(&response(&expect, true)).unwrap();
        let mut corrupt = expect.clone();
        corrupt[3] = b'y';
        assert!(t.check(&response(&corrupt, true)).is_err());
        assert!(t
            .check(&response(&expect[..expect.len() - 2], true))
            .is_err());
        // A materialized answer where a streamed one was asked for.
        assert!(t.check(&response(&expect, false)).is_err());
    }
}
