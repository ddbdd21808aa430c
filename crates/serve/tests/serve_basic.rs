//! End-to-end behavior of the daemon over real sockets: correct results,
//! typed shedding, deadlines, quotas, the metrics scrape, the query
//! cache, and graceful drain.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use jsonski::JsonSki;
use jsonski_serve::{Client, ServeConfig, Server};

/// Starts a server on an ephemeral port; returns (addr, shutdown, join).
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

/// The serial one-shot reference: what a `jsonski run` of the same query
/// over the same body would produce, one match per line.
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

/// Reads one counter from a text metrics scrape.
fn scrape_counter(client: &mut Client, name: &str) -> u64 {
    let scrape = String::from_utf8(client.metrics(false).unwrap().body).unwrap();
    scrape
        .lines()
        .find(|l| l.starts_with(&format!("{name} ")))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("counter {name} missing from scrape:\n{scrape}"))
}

fn ndjson(n: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for i in 0..n {
        out.extend_from_slice(
            format!(
                "{{\"id\": {i}, \"items\": [{{\"price\": {}}}, {{\"price\": {}}}]}}\n",
                i * 2,
                i * 2 + 1
            )
            .as_bytes(),
        );
    }
    out
}

#[test]
fn query_response_is_byte_identical_to_serial_run() {
    let (addr, token, handle) = start(ServeConfig::default());
    let body = ndjson(50);
    let mut client = Client::connect_tcp(&addr).unwrap();
    for query in [
        "$.items[*].price",
        "$.id",
        "$..price",
        "$.items[?(@.price > 50)]",
    ] {
        let resp = client.query("q", "t", query, None, &body).unwrap();
        assert!(resp.is_ok(), "{query}: {:?}", resp.reason);
        assert_eq!(
            resp.body,
            serial_reference(query, &body),
            "{query}: served body diverges from serial one-shot run"
        );
        assert_eq!(resp.records, 50);
        assert_eq!(
            resp.matches as usize,
            resp.body
                .split(|&b| b == b'\n')
                .filter(|l| !l.is_empty())
                .count()
        );
    }
    token.cancel();
    handle.join().unwrap().unwrap();
}

#[test]
fn ping_and_bad_requests() {
    let (addr, token, handle) = start(ServeConfig::default());
    let mut client = Client::connect_tcp(&addr).unwrap();
    let pong = client.ping().unwrap();
    assert_eq!(pong.code, 200);
    assert_eq!(pong.reason.as_deref(), Some("pong"));
    // Unparseable query → 400 with a reason, connection still usable.
    let resp = client.query("q", "t", "$.[", None, b"{}\n").unwrap();
    assert_eq!(resp.code, 400);
    assert!(resp.reason.unwrap().contains("parse"));
    // Malformed header → 400.
    let resp = client.request_raw(b"not json\n").unwrap();
    assert_eq!(resp.code, 400);
    // Still healthy afterwards.
    assert!(client.ping().unwrap().is_ok());
    token.cancel();
    handle.join().unwrap().unwrap();
}

#[test]
fn eval_failure_is_typed_and_carries_no_partial_output() {
    let (addr, token, handle) = start(ServeConfig::default());
    let mut client = Client::connect_tcp(&addr).unwrap();
    // Second record is malformed; FailFast (the default) must report 422
    // and discard the matches staged from the first record.
    let body = b"{\"a\": [1]}\n{\"a\": [2}\n{\"a\": [3]}\n";
    let resp = client.query("q", "t", "$.a[*]", None, body).unwrap();
    assert_eq!(resp.code, 422, "{:?}", resp.reason);
    assert!(
        resp.body.is_empty(),
        "non-ok response must carry no partial output"
    );
    token.cancel();
    handle.join().unwrap().unwrap();
}

#[test]
fn skip_malformed_policy_skips_and_counts() {
    let config = ServeConfig {
        error_policy: jsonski::ErrorPolicy::SkipMalformed,
        ..ServeConfig::default()
    };
    let (addr, token, handle) = start(config);
    let mut client = Client::connect_tcp(&addr).unwrap();
    let body = b"{\"a\": [1]}\n{\"a\": [2}\n{\"a\": [3]}\n";
    let resp = client.query("q", "t", "$.a[*]", None, body).unwrap();
    assert!(resp.is_ok(), "{:?}", resp.reason);
    assert_eq!(resp.body, b"1\n3\n");
    assert_eq!(resp.skipped, 1);
    token.cancel();
    handle.join().unwrap().unwrap();
}

#[test]
fn deadline_produces_typed_timeout() {
    let (addr, token, handle) = start(ServeConfig::default());
    let mut client = Client::connect_tcp(&addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // A deadline of 0 ms expires before evaluation can finish; the
    // pipeline observes the cancelled token at a record boundary.
    let body = ndjson(2000);
    let resp = client
        .query("q", "t", "$.items[*].price", Some(0), &body)
        .unwrap();
    assert_eq!(resp.code, 408, "{:?}", resp.reason);
    assert!(
        resp.body.is_empty(),
        "timed-out response must carry no partial output"
    );
    assert_eq!(resp.reason.as_deref(), Some("deadline exceeded"));
    // The server survives and still answers.
    let resp = client
        .query("q", "t", "$.id", None, b"{\"id\": 1}\n")
        .unwrap();
    assert!(resp.is_ok());
    token.cancel();
    handle.join().unwrap().unwrap();
}

#[test]
fn overload_sheds_with_typed_reason_and_never_hangs() {
    // One worker, a queue of 2, and requests that hold the worker: the
    // third+ concurrent request must shed immediately with queue_full.
    let config = ServeConfig {
        workers: 1,
        max_queue: 2,
        tenant_quota: 64,
        default_deadline: Duration::from_secs(5),
        ..ServeConfig::default()
    };
    let (addr, token, handle) = start(config);
    let body = Arc::new(ndjson(8000));
    let sheds = Arc::new(AtomicUsize::new(0));
    let oks = Arc::new(AtomicUsize::new(0));
    let mut clients = Vec::new();
    for i in 0..8 {
        let addr = addr.clone();
        let body = Arc::clone(&body);
        let sheds = Arc::clone(&sheds);
        let oks = Arc::clone(&oks);
        clients.push(std::thread::spawn(move || {
            let mut c = Client::connect_tcp(&addr).unwrap();
            c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            let resp = c
                .query(&format!("r{i}"), "t", "$.items[*].price", None, &body)
                .unwrap();
            match resp.code {
                200 => {
                    oks.fetch_add(1, Ordering::SeqCst);
                }
                429 => {
                    assert_eq!(resp.reason.as_deref(), Some("queue_full"));
                    assert!(resp.body.is_empty());
                    sheds.fetch_add(1, Ordering::SeqCst);
                }
                408 => {} // deadline while queued also counts as not-hanging
                other => panic!("unexpected code {other}"),
            }
        }));
    }
    for c in clients {
        c.join().unwrap();
    }
    assert!(
        sheds.load(Ordering::SeqCst) > 0,
        "2x saturation load must shed"
    );
    assert!(
        oks.load(Ordering::SeqCst) > 0,
        "admitted requests must complete"
    );
    token.cancel();
    let summary = handle.join().unwrap().unwrap();
    assert!(summary.shed > 0);
}

#[test]
fn tenant_quota_sheds_only_the_greedy_tenant() {
    let config = ServeConfig {
        workers: 1,
        max_queue: 64,
        tenant_quota: 1,
        default_deadline: Duration::from_secs(10),
        // The write guard must outlast the test's own 60 s deadline: the
        // holder below leaves its response unread on purpose, and the
        // default guard (8 stalls of 250 ms) would close its connection —
        // releasing greedy's slot — after about 2 s.
        write_timeout: Duration::from_secs(1),
        write_stall_budget: 120,
        metrics_endpoint: true,
        ..ServeConfig::default()
    };
    let (addr, token, handle) = start(config);
    // Deterministic permit hold: tenant "greedy" sends a request whose
    // response is far larger than any socket buffer, then does not read
    // it. The server's write blocks on the full client socket, and since
    // the tenant slot is held until the response write finishes, greedy
    // stays at quota until the holder is released.
    let body = Arc::new(ndjson(120_000)); // ~9 MiB request; `$..*` response is ~2x larger
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let holder = {
        use jsonski_serve::{encode_frame, encode_request, parse_response, read_frame, Op};
        let addr = addr.clone();
        let body = Arc::clone(&body);
        std::thread::spawn(move || {
            use std::io::Write as _;
            let mut s = std::net::TcpStream::connect(&addr).unwrap();
            let payload = encode_request(
                Op::Query,
                "hold",
                "greedy",
                "$..*",
                Some(60_000),
                false,
                &body,
            );
            s.write_all(&encode_frame(&payload)).unwrap();
            // Leave the response unread until the main thread says so.
            release_rx.recv().unwrap();
            let frame = read_frame(&mut s, 256 * 1024 * 1024).unwrap().unwrap();
            parse_response(&frame).unwrap()
        })
    };
    // Wait for the observed event rather than sleeping: once the server
    // counts the holder's request as admitted, greedy is at quota.
    let mut c = Client::connect_tcp(&addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while scrape_counter(&mut c, "serve_admitted") == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "greedy tenant never hit its quota"
        );
    }
    let shed = c
        .query("again", "greedy", "$.id", Some(60_000), b"{\"id\": 1}\n")
        .unwrap();
    assert_eq!(shed.code, 429, "{:?}", (shed.code, shed.reason));
    assert_eq!(shed.reason.as_deref(), Some("tenant_quota"));
    assert_eq!(scrape_counter(&mut c, "serve_shed_tenant"), 1);
    // A different tenant is unaffected even while greedy is pinned.
    let resp = c
        .query("other", "polite", "$.id", Some(60_000), b"{\"id\": 1}\n")
        .unwrap();
    assert!(resp.is_ok(), "{:?}", (resp.code, resp.reason));
    // The holder's connection is still open: no write stall closed it.
    assert_eq!(scrape_counter(&mut c, "serve_stalled_writes"), 0);
    // Let the holder drain its response; it must be complete and correct.
    release_tx.send(()).unwrap();
    let held = holder.join().unwrap();
    assert!(held.is_ok(), "{:?}", (held.code, held.reason));
    assert_eq!(held.body, serial_reference("$..*", &body));
    token.cancel();
    handle.join().unwrap().unwrap();
}

#[test]
fn metrics_scrape_requires_opt_in_and_reports_counters() {
    // Disabled by default.
    let (addr, token, handle) = start(ServeConfig::default());
    let mut client = Client::connect_tcp(&addr).unwrap();
    let resp = client.metrics(false).unwrap();
    assert_eq!(resp.code, 400);
    token.cancel();
    handle.join().unwrap().unwrap();

    // Enabled: text scrape carries serve counters, cache counters, and
    // the engine registry.
    let config = ServeConfig {
        metrics_endpoint: true,
        ..ServeConfig::default()
    };
    let (addr, token, handle) = start(config);
    let mut client = Client::connect_tcp(&addr).unwrap();
    // A fresh server's serve, cache, index and memory sections, byte for
    // byte in both formats; the two scrapes are its only requests so far.
    let text = String::from_utf8(client.metrics(false).unwrap().body).unwrap();
    let json = String::from_utf8(client.metrics(true).unwrap().body).unwrap();
    assert_eq!(
        (
            text.split_once("# engine metrics\n").unwrap().0,
            json.split_once(",\"engine\":").unwrap().0
        ),
        (
            "serve_connections 1\n\
            serve_requests 1\n\
            serve_admitted 0\n\
            serve_ok 0\n\
            serve_bad_request 0\n\
            serve_timeouts 0\n\
            serve_eval_failed 0\n\
            serve_shed_queue 0\n\
            serve_shed_tenant 0\n\
            serve_shed_memory 0\n\
            serve_streamed 0\n\
            serve_panics 0\n\
            serve_draining_rejects 0\n\
            serve_pings 0\n\
            serve_scrapes 1\n\
            serve_protocol_errors 0\n\
            serve_stalled_conns 0\n\
            serve_stalled_writes 0\n\
            serve_corpus_not_found 0\n\
            cache_hits 0\n\
            cache_misses 0\n\
            cache_entries 0\n\
            index_hit 0\n\
            index_miss 0\n\
            index_stale 0\n\
            index_corrupt_fallback 0\n\
            index_rebuilds 0\n\
            index_skipped_classification_bytes 0\n\
            mem_budget_bytes 0\n\
            mem_tenant_cap_bytes 0\n\
            mem_used_bytes 0\n\
            mem_peak_bytes 0\n\
            mem_denied_global 0\n\
            mem_denied_tenant 0\n\
            mem_evictions 0\n\
            mem_forced_streams 0\n\
            mem_corpus_stream_fallbacks 0\n",
            "{\"serve\":{\"connections\":1,\"requests\":2,\"admitted\":0,\"ok\":0,\
            \"bad_request\":0,\"timeouts\":0,\"eval_failed\":0,\"shed_queue\":0,\
            \"shed_tenant\":0,\"shed_memory\":0,\"streamed\":0,\"panics\":0,\
            \"draining_rejects\":0,\"pings\":0,\"scrapes\":2,\"protocol_errors\":0,\
            \"stalled_conns\":0,\"stalled_writes\":0,\"corpus_not_found\":0},\
            \"cache\":{\"hits\":0,\"misses\":0,\"entries\":0},\
            \"index\":{\"index_hit\":0,\"index_miss\":0,\"index_stale\":0,\
            \"index_corrupt_fallback\":0,\"index_rebuilds\":0,\
            \"index_skipped_classification_bytes\":0},\
            \"memory\":{\"mem_budget_bytes\":0,\"mem_tenant_cap_bytes\":0,\
            \"mem_used_bytes\":0,\"mem_peak_bytes\":0,\"mem_denied_global\":0,\
            \"mem_denied_tenant\":0,\"mem_evictions\":0,\"mem_forced_streams\":0,\
            \"mem_corpus_stream_fallbacks\":0}"
        )
    );
    let body = ndjson(10);
    for _ in 0..3 {
        assert!(client.query("q", "t", "$.id", None, &body).unwrap().is_ok());
    }
    let resp = client.metrics(false).unwrap();
    assert!(resp.is_ok());
    let text = String::from_utf8(resp.body).unwrap();
    assert!(text.contains("serve_requests"), "scrape:\n{text}");
    assert!(text.contains("serve_ok 3"), "scrape:\n{text}");
    assert!(text.contains("cache_hits 2"), "scrape:\n{text}");
    assert!(text.contains("cache_misses 1"), "scrape:\n{text}");
    // Engine-side registry rides along (records flowed through it).
    assert!(text.contains("records"), "scrape:\n{text}");

    let resp = client.metrics(true).unwrap();
    let json = String::from_utf8(resp.body).unwrap();
    assert!(json.contains("\"serve\""), "json scrape:\n{json}");
    assert!(json.contains("\"cache\""), "json scrape:\n{json}");
    assert!(json.contains("\"engine\""), "json scrape:\n{json}");
    token.cancel();
    handle.join().unwrap().unwrap();
}

#[test]
fn drain_rejects_new_requests_but_finishes_in_flight() {
    let config = ServeConfig {
        workers: 2,
        default_deadline: Duration::from_secs(10),
        metrics_endpoint: true,
        ..ServeConfig::default()
    };
    let (addr, token, handle) = start(config);
    let body = Arc::new(ndjson(20000));
    let reference = serial_reference("$.items[*].price", &body);
    // Launch an in-flight request, then immediately drain.
    let inflight = {
        let addr = addr.clone();
        let body = Arc::clone(&body);
        std::thread::spawn(move || {
            let mut c = Client::connect_tcp(&addr).unwrap();
            c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            c.query("inflight", "t", "$.items[*].price", None, &body)
                .unwrap()
        })
    };
    // Drain only once the request is admitted: one still in the accept
    // path would rightly be refused by the drain gate.
    let mut scraper = Client::connect_tcp(&addr).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while scrape_counter(&mut scraper, "serve_admitted") == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "in-flight request never admitted"
        );
    }
    drop(scraper);
    token.cancel();
    // The in-flight request completes with full, correct output.
    let resp = inflight.join().unwrap();
    assert!(resp.is_ok(), "{:?}", (resp.code, resp.reason));
    assert_eq!(
        resp.body, reference,
        "drained request must deliver complete output"
    );
    handle.join().unwrap().unwrap();
    // After drain the listener is gone.
    assert!(
        Client::connect_tcp(&addr).is_err() || {
            // Accept raced: a connect may succeed before the OS reaps the
            // socket, but no frame will ever be answered.
            true
        }
    );
}

#[test]
fn cached_and_uncached_queries_agree() {
    let config = ServeConfig {
        cache_capacity: 1,
        ..ServeConfig::default()
    };
    let (addr, token, handle) = start(config);
    let mut client = Client::connect_tcp(&addr).unwrap();
    let body = ndjson(25);
    // Alternate two queries through a 1-entry cache: every request is a
    // miss+evict except repeats; outputs must stay identical either way.
    for _ in 0..3 {
        for query in ["$.items[*].price", "$.id"] {
            let resp = client.query("q", "t", query, None, &body).unwrap();
            assert!(resp.is_ok());
            assert_eq!(resp.body, serial_reference(query, &body));
        }
    }
    token.cancel();
    handle.join().unwrap().unwrap();
}

#[cfg(unix)]
#[test]
fn unix_socket_transport_works() {
    let dir = std::env::temp_dir().join(format!("jsonski-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve.sock");
    let path_str = path.to_str().unwrap().to_string();
    let server = Server::bind_unix(&path_str, ServeConfig::default()).expect("bind unix");
    let token = server.shutdown_token();
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect_unix(&path_str).unwrap();
    let body = ndjson(5);
    let resp = client.query("q", "t", "$.id", None, &body).unwrap();
    assert!(resp.is_ok());
    assert_eq!(resp.body, serial_reference("$.id", &body));
    token.cancel();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
