//! Adversarial memory-budget torture (ISSUE 10 acceptance): wildcard
//! queries over a stored corpus ≥ 8× the configured memory budget, at 2×
//! saturation with socket faults on — every 200 must reassemble to the
//! exact serial-oracle bytes, peak *tracked* memory must stay within the
//! budget, and overflow must shed as typed `429 memory`, never OOM.
//! Plus: the degradation ladder's eviction rung, per-tenant isolation,
//! and the `mem_*` gauge schema.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use jsonski::faults::{FaultPlan, FaultyConn};
use jsonski::JsonSki;
use jsonski_serve::{
    encode_corpus_request_opts, encode_frame, parse_response, parse_stream_frame, read_frame,
    BodyChecksum, Client, ProtocolError, Response, ServeConfig, Server, StreamFrame,
    DEFAULT_MAX_FRAME_BYTES,
};

const QUERY: &str = "$.items[*]";

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jsonski-memtort-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("corpora")).unwrap();
    dir
}

/// ~100-byte records so corpus sizing is predictable.
fn ndjson(n: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for i in 0..n {
        out.extend_from_slice(
            format!(
                "{{\"id\": {i}, \"pad\": \"{:=>40}\", \"items\": [{{\"price\": {}}}, {{\"price\": {}}}]}}\n",
                i, i * 2, i * 2 + 1
            )
            .as_bytes(),
        );
    }
    out
}

fn serial_reference(query: &str, body: &[u8]) -> Vec<u8> {
    let engine = JsonSki::compile(query).unwrap();
    let mut out = Vec::new();
    for record in body.split(|&b| b == b'\n').filter(|r| !r.is_empty()) {
        for m in engine.matches(record).unwrap() {
            out.extend_from_slice(m.as_raw());
            out.push(b'\n');
        }
    }
    out
}

fn start(
    config: ServeConfig,
) -> (
    String,
    jsonski::CancellationToken,
    std::thread::JoinHandle<std::io::Result<jsonski_serve::ServeSummary>>,
) {
    let server = Server::bind_tcp("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().to_string();
    let token = server.shutdown_token();
    let handle = std::thread::spawn(move || server.run());
    (addr, token, handle)
}

fn scrape_counter(addr: &str, name: &str) -> u64 {
    let mut c = Client::connect_tcp(addr).unwrap();
    let scrape = String::from_utf8(c.metrics(false).unwrap().body).unwrap();
    scrape
        .lines()
        .find(|l| l.starts_with(&format!("{name} ")))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("counter {name} missing from scrape:\n{scrape}"))
}

/// Streamed corpus query through an arbitrary (fault-injecting)
/// transport, reassembled with trailer-checksum verification.
fn streamed_corpus_query<T: std::io::Read + Write>(
    conn: &mut T,
    id: &str,
    tenant: &str,
    corpus: &str,
    stream: bool,
) -> Result<Response, ProtocolError> {
    let payload = encode_corpus_request_opts(id, tenant, QUERY, corpus, Some(60_000), stream);
    conn.write_all(&encode_frame(&payload))?;
    conn.flush()?;
    let first = read_frame(conn, DEFAULT_MAX_FRAME_BYTES)?
        .ok_or_else(|| ProtocolError::BadStream("no response frame".into()))?;
    let resp = parse_response(&first)?;
    if !resp.stream {
        return Ok(resp);
    }
    let mut acc = Vec::new();
    let mut checksum = BodyChecksum::new();
    loop {
        let frame = read_frame(conn, DEFAULT_MAX_FRAME_BYTES)?
            .ok_or_else(|| ProtocolError::BadStream("eof between chunks".into()))?;
        match parse_stream_frame(&frame)? {
            StreamFrame::Chunk(bytes) => {
                checksum.update(&bytes);
                acc.extend_from_slice(&bytes);
            }
            StreamFrame::Trailer {
                mut response,
                checksum: declared,
            } => {
                response.stream = true;
                if response.is_ok() {
                    let got = checksum.finish();
                    if got != declared {
                        return Err(ProtocolError::ChecksumMismatch {
                            expected: declared,
                            got,
                        });
                    }
                    response.body = acc;
                }
                return Ok(response);
            }
        }
    }
}

/// Peak resident set of this process in bytes (Linux), from VmHWM.
#[cfg(target_os = "linux")]
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .expect("VmHWM in /proc/self/status")
}

/// The headline torture: a corpus more than 8× the memory budget,
/// hammered by streamed + materialized clients (some through socket
/// fault plans) at 2× worker saturation.
#[test]
fn wildcard_over_corpus_8x_budget_stays_bounded_and_exact() {
    const BUDGET: usize = 512 * 1024;
    let dir = scratch("8x");
    let corpus = ndjson(48_000);
    assert!(
        corpus.len() >= 8 * BUDGET,
        "corpus must dwarf the budget ({} < {})",
        corpus.len(),
        8 * BUDGET
    );
    std::fs::write(dir.join("corpora/big.ndjson"), &corpus).unwrap();
    let reference = Arc::new(serial_reference(QUERY, &corpus));
    let config = ServeConfig {
        corpus_dir: Some(dir.join("corpora")),
        memory_budget: BUDGET,
        chunk_bytes: 16 * 1024,
        workers: 2,
        max_queue: 64,
        tenant_quota: 64,
        default_deadline: Duration::from_secs(60),
        max_deadline: Duration::from_secs(60),
        metrics_endpoint: true,
        ..ServeConfig::default()
    };
    let (addr, token, handle) = start(config);
    let oks = Arc::new(AtomicUsize::new(0));
    let memory_sheds = Arc::new(AtomicUsize::new(0));
    let mut threads = Vec::new();
    // 12 concurrent clients against 2 workers: 2×+ saturation. Even
    // threads stream (and must complete exactly); odd threads ask for a
    // materialized body larger than the whole budget (and must either
    // complete exactly or shed as typed 429 memory). Every third
    // connection routes through a write-fragmenting fault plan.
    for t in 0..12usize {
        let addr = addr.clone();
        let reference = Arc::clone(&reference);
        let (oks, memory_sheds) = (Arc::clone(&oks), Arc::clone(&memory_sheds));
        threads.push(std::thread::spawn(move || {
            for r in 0..2 {
                let id = format!("t{t}r{r}");
                let stream = TcpStream::connect(&addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(120)))
                    .unwrap();
                let want_stream = t % 2 == 0;
                let resp = if t % 3 == 0 {
                    let plan = FaultPlan::new(t as u64 * 31 + r)
                        .short_writes(9)
                        .interrupt_every(7);
                    let mut conn = FaultyConn::new(stream, plan);
                    streamed_corpus_query(
                        &mut conn,
                        &id,
                        &format!("t{t}"),
                        "big.ndjson",
                        want_stream,
                    )
                } else {
                    let mut conn = stream;
                    streamed_corpus_query(
                        &mut conn,
                        &id,
                        &format!("t{t}"),
                        "big.ndjson",
                        want_stream,
                    )
                }
                .expect("request must complete with typed frames");
                match resp.code {
                    200 => {
                        assert_eq!(
                            resp.body, *reference,
                            "response under memory pressure diverged from serial oracle"
                        );
                        oks.fetch_add(1, Ordering::SeqCst);
                    }
                    429 => {
                        let reason = resp.reason.as_deref().unwrap_or("");
                        assert!(
                            reason == "memory" || reason == "queue_full",
                            "untyped shed: {reason:?}"
                        );
                        assert!(resp.body.is_empty(), "shed frames carry no body");
                        if reason == "memory" {
                            memory_sheds.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    408 => assert!(resp.body.is_empty()),
                    other => panic!("unexpected status {other}: {:?}", resp.reason),
                }
            }
        }));
    }
    for th in threads {
        th.join().unwrap();
    }
    assert!(
        oks.load(Ordering::SeqCst) > 0,
        "streamed requests must complete under an 8x-undersized budget"
    );
    assert!(
        memory_sheds.load(Ordering::SeqCst) > 0,
        "materialized wildcard bodies larger than the budget must shed typed"
    );
    // The ledger never over-committed, and the corpus was demonstrably
    // served from disk rather than resident.
    let peak = scrape_counter(&addr, "mem_peak_bytes");
    assert!(
        peak <= BUDGET as u64,
        "tracked peak {peak} exceeded the {BUDGET}-byte budget"
    );
    assert!(
        scrape_counter(&addr, "mem_corpus_stream_fallbacks") > 0,
        "an 8x-oversized corpus must fall back to disk streaming"
    );
    assert_eq!(scrape_counter(&addr, "mem_budget_bytes"), BUDGET as u64);
    // RSS tripwire (not a tracked-memory assertion): if buffering were
    // quietly unbounded, 24 concurrent ~5 MB responses would blow far
    // past this. Generous headroom for allocator slack and test harness.
    #[cfg(target_os = "linux")]
    {
        let rss = peak_rss_bytes();
        assert!(
            rss < 768 * 1024 * 1024,
            "peak RSS {rss} suggests unbounded buffering"
        );
    }
    token.cancel();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Per-tenant budget shares: the tenant pushing oversized request bodies
/// sheds with typed `429 memory`; other tenants' requests proceed.
#[test]
fn tenant_share_sheds_only_the_hog() {
    let config = ServeConfig {
        memory_budget: 16 * 1024 * 1024,
        tenant_memory_budget: 64 * 1024,
        metrics_endpoint: true,
        ..ServeConfig::default()
    };
    let (addr, token, handle) = start(config);
    let big = ndjson(3000); // ~300 KB body, far over the 64 KB share
    let small = ndjson(50);
    let mut hog = Client::connect_tcp(&addr).unwrap();
    let resp = hog.query("hog", "hog", QUERY, None, &big).unwrap();
    assert_eq!(resp.code, 429, "{:?}", resp.reason);
    assert_eq!(resp.reason.as_deref(), Some("memory"));
    assert!(resp.body.is_empty(), "a memory shed carries no body");
    let mut other = Client::connect_tcp(&addr).unwrap();
    let resp = other.query("ok", "polite", QUERY, None, &small).unwrap();
    assert_eq!(resp.code, 200, "{:?}", resp.reason);
    assert_eq!(resp.body, serial_reference(QUERY, &small));
    assert!(scrape_counter(&addr, "mem_denied_tenant") >= 1);
    assert_eq!(scrape_counter(&addr, "mem_denied_global"), 0);
    token.cancel();
    handle.join().unwrap().unwrap();
}

/// A tenant-cap refusal evicts nothing: the cache and resident indexes
/// are charged to the global ledger only, so evicting them cannot make
/// room under a tenant cap.
#[test]
fn tenant_cap_refusal_keeps_residents() {
    let dir = scratch("tenant-relief");
    let corpus = ndjson(1000); // ~100 KB, over the 64 KB tenant share
    std::fs::write(dir.join("corpora/c.ndjson"), &corpus).unwrap();
    let config = ServeConfig {
        corpus_dir: Some(dir.join("corpora")),
        memory_budget: 8 * 1024 * 1024,
        tenant_memory_budget: 64 * 1024,
        chunk_bytes: 8 * 1024,
        metrics_endpoint: true,
        ..ServeConfig::default()
    };
    let (addr, token, handle) = start(config);
    let mut c = Client::connect_tcp(&addr).unwrap();
    for q in [QUERY, "$.id"] {
        assert_eq!(c.query("warm", "t", q, None, &ndjson(5)).unwrap().code, 200);
    }
    assert_eq!(scrape_counter(&addr, "cache_entries"), 2);
    // The tenant cap refuses the resident corpus read; the query falls
    // back to streaming the file through a chunk-sized buffer.
    let resp = c.query_corpus("c", "t", QUERY, "c.ndjson", None).unwrap();
    assert_eq!(resp.code, 200, "{:?}", resp.reason);
    assert_eq!(resp.body, serial_reference(QUERY, &corpus));
    assert_eq!(scrape_counter(&addr, "mem_corpus_stream_fallbacks"), 1);
    assert!(scrape_counter(&addr, "mem_denied_tenant") >= 1);
    assert_eq!(scrape_counter(&addr, "mem_evictions"), 0);
    assert_eq!(scrape_counter(&addr, "cache_entries"), 2);
    token.cancel();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A response that fits the tenant share is charged without a single
/// refusal: the server asks for a whole charge step only when the share
/// has room for it.
#[test]
fn fitting_response_under_a_small_share_counts_no_denial() {
    let config = ServeConfig {
        memory_budget: 8 * 1024 * 1024,
        tenant_memory_budget: 64 * 1024,
        metrics_endpoint: true,
        ..ServeConfig::default()
    };
    let (addr, token, handle) = start(config);
    let body: Vec<u8> = (0..50)
        .flat_map(|i| format!("{{\"id\": {i}, \"pad\": \"{:=>16}\"}}\n", "").into_bytes())
        .collect();
    let mut c = Client::connect_tcp(&addr).unwrap();
    let resp = c.query("q", "t", "$.id", None, &body).unwrap();
    assert_eq!(resp.code, 200, "{:?}", resp.reason);
    assert_eq!(resp.body, serial_reference("$.id", &body));
    assert_eq!(resp.body.split(|&b| b == b'\n').count() - 1, 50);
    assert_eq!(scrape_counter(&addr, "mem_denied_tenant"), 0);
    assert_eq!(scrape_counter(&addr, "mem_denied_global"), 0);
    token.cancel();
    handle.join().unwrap().unwrap();
}

/// The ladder's first rung: under pressure the server evicts compiled
/// queries and resident corpora/indexes *before* shedding, and the
/// request that triggered the eviction succeeds.
#[test]
fn pressure_evicts_residents_before_shedding() {
    let dir = scratch("evict");
    let small_corpus = ndjson(600); // ~60 KB resident once queried
    std::fs::write(dir.join("corpora/small.ndjson"), &small_corpus).unwrap();
    let config = ServeConfig {
        corpus_dir: Some(dir.join("corpora")),
        memory_budget: 256 * 1024,
        metrics_endpoint: true,
        ..ServeConfig::default()
    };
    let (addr, token, handle) = start(config);
    // Park the corpus (and a few compiled queries) in resident memory.
    let mut c = Client::connect_tcp(&addr).unwrap();
    let warm = c
        .query_corpus("w", "t", QUERY, "small.ndjson", None)
        .unwrap();
    assert_eq!(warm.code, 200, "{:?}", warm.reason);
    for q in ["$.id", "$.pad", "$..price"] {
        assert_eq!(c.query("q", "t", q, None, &ndjson(5)).unwrap().code, 200);
    }
    assert!(scrape_counter(&addr, "mem_used_bytes") > 0);
    // A request whose body needs most of the budget: admitting it
    // requires evicting the residents — and then it must succeed. The
    // query is low-fanout so body + response still fit post-eviction.
    let big_body = ndjson(2100); // ~210 KB of a 256 KB budget
    let resp = c.query("big", "t", "$.id", None, &big_body).unwrap();
    assert_eq!(resp.code, 200, "{:?}", resp.reason);
    assert_eq!(resp.body, serial_reference("$.id", &big_body));
    assert!(
        scrape_counter(&addr, "mem_evictions") >= 1,
        "relief must evict residents, not shed"
    );
    // The evicted corpus still answers exactly (reloaded from disk).
    let again = c
        .query_corpus("a", "t", QUERY, "small.ndjson", None)
        .unwrap();
    assert_eq!(again.code, 200, "{:?}", again.reason);
    assert_eq!(again.body, warm.body);
    token.cancel();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `mem_*` gauge schema is stable in both scrape renderings, and an
/// unlimited budget still tracks usage.
#[test]
fn mem_gauges_have_a_stable_schema() {
    let config = ServeConfig {
        metrics_endpoint: true,
        ..ServeConfig::default()
    };
    let (addr, token, handle) = start(config);
    let mut c = Client::connect_tcp(&addr).unwrap();
    assert_eq!(
        c.query("q", "t", QUERY, None, &ndjson(20)).unwrap().code,
        200
    );
    let text = String::from_utf8(c.metrics(false).unwrap().body).unwrap();
    for key in [
        "mem_budget_bytes",
        "mem_tenant_cap_bytes",
        "mem_used_bytes",
        "mem_peak_bytes",
        "mem_denied_global",
        "mem_denied_tenant",
        "mem_evictions",
        "mem_forced_streams",
        "mem_corpus_stream_fallbacks",
    ] {
        assert!(
            text.lines().any(|l| l.starts_with(&format!("{key} "))),
            "{key} missing from text scrape:\n{text}"
        );
    }
    // Budget 0 = unlimited, but the ledger still measures.
    assert!(
        scrape_counter(&addr, "mem_peak_bytes") > 0,
        "an unlimited budget must still track peak usage"
    );
    let json = String::from_utf8(c.metrics(true).unwrap().body).unwrap();
    assert!(
        json.contains("\"memory\":{\"mem_budget_bytes\":0"),
        "memory section missing from JSON scrape:\n{json}"
    );
    token.cancel();
    handle.join().unwrap().unwrap();
}

/// `index_warm` builds every stored corpus's index before the first
/// request: the very first corpus query is answered from the index
/// (`index_hit` moves with no prior misses for that corpus).
#[test]
fn index_warm_makes_the_first_query_hit() {
    let dir = scratch("warm");
    std::fs::write(dir.join("corpora/a.ndjson"), ndjson(200)).unwrap();
    std::fs::write(dir.join("corpora/b.ndjson"), ndjson(300)).unwrap();
    let config = ServeConfig {
        corpus_dir: Some(dir.join("corpora")),
        index_warm: true,
        metrics_endpoint: true,
        ..ServeConfig::default()
    };
    let (addr, token, handle) = start(config);
    let corpus_a = std::fs::read(dir.join("corpora/a.ndjson")).unwrap();
    let mut c = Client::connect_tcp(&addr).unwrap();
    let resp = c.query_corpus("w", "t", QUERY, "a.ndjson", None).unwrap();
    assert_eq!(resp.code, 200, "{:?}", resp.reason);
    assert_eq!(resp.body, serial_reference(QUERY, &corpus_a));
    assert!(
        scrape_counter(&addr, "index_hit") >= 1,
        "warmed index must serve the first query"
    );
    token.cancel();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
