//! End-to-end behavior of chunked streaming responses over real sockets:
//! the differential oracle (streamed and single-frame responses
//! byte-identical after reassembly, for every kernel × both validation
//! modes), the fault matrix (trailer/body corruption → typed checksum
//! errors, a reader that dies mid-chunk harms only itself), and
//! interleave freedom under 2× saturation load.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use jsonski::faults::{FaultPlan, FaultyConn};
use jsonski::{EngineConfig, JsonSki, Kernel, ValidationMode};
use jsonski_serve::{
    encode_frame, encode_request_opts, parse_response, parse_stream_frame, read_frame,
    BodyChecksum, Client, ClientError, Op, ProtocolError, Response, ServeConfig, Server,
    StreamFrame, DEFAULT_MAX_FRAME_BYTES,
};

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

/// A hand-rolled streaming client over an arbitrary fault-injecting
/// transport: sends one stream-opted query and reassembles the response
/// exactly the way [`Client::request_raw`] does (including trailer
/// checksum verification), so the fault matrix can corrupt the read side.
fn streamed_query_via<T: std::io::Read + Write>(
    conn: &mut T,
    id: &str,
    query: &str,
    body: &[u8],
) -> Result<Response, ProtocolError> {
    let payload = encode_request_opts(Op::Query, id, "t", query, Some(30_000), false, true, body);
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

/// The differential oracle: for every supported kernel × both validation
/// modes, a streamed response (reassembled from many small chunks) must
/// be byte-identical to the single-frame response for the same request,
/// and both to a serial engine run.
#[test]
fn streamed_and_single_frame_are_byte_identical_for_every_kernel() {
    let body = ndjson(400);
    let mut kernels: Vec<Option<Kernel>> = vec![None];
    kernels.extend(
        Kernel::all()
            .iter()
            .filter(|k| k.is_supported())
            .map(|&k| Some(k)),
    );
    for kernel in kernels {
        for validation in [ValidationMode::Permissive, ValidationMode::Strict] {
            let config = ServeConfig {
                // Far below the response size, so streams really chunk.
                chunk_bytes: 512,
                engine_config: EngineConfig::builder()
                    .validation(validation)
                    .kernel(kernel)
                    .build(),
                ..ServeConfig::default()
            };
            let (addr, token, handle) = start(config);
            for query in ["$.items[*].price", "$..price"] {
                let reference = serial_reference(query, &body);
                let mut plain = Client::connect_tcp(&addr).unwrap();
                let single = plain.query("s", "t", query, None, &body).unwrap();
                assert_eq!(single.code, 200, "{:?}", single.reason);
                assert!(!single.stream);

                let mut chunked = Client::connect_tcp(&addr).unwrap();
                chunked.stream = true;
                let streamed = chunked.query("c", "t", query, None, &body).unwrap();
                assert_eq!(streamed.code, 200, "{:?}", streamed.reason);
                assert!(
                    streamed.stream,
                    "a multi-chunk response must arrive streamed ({kernel:?}/{validation:?})"
                );
                assert_eq!(
                    streamed.body, single.body,
                    "delivery mode changed bytes ({kernel:?}/{validation:?}/{query})"
                );
                assert_eq!(single.body, reference);
                assert_eq!(streamed.matches, single.matches);
                assert_eq!(streamed.records, single.records);
            }
            token.cancel();
            handle.join().unwrap().unwrap();
        }
    }
}

/// A stream-opted request whose response produces no chunks (here: zero
/// matches) falls back to the single-frame wire default.
#[test]
fn zero_chunk_streamed_request_is_a_single_frame() {
    let (addr, token, handle) = start(ServeConfig::default());
    let mut c = Client::connect_tcp(&addr).unwrap();
    c.stream = true;
    let resp = c.query("z", "t", "$.nope", None, &ndjson(50)).unwrap();
    assert_eq!(resp.code, 200, "{:?}", resp.reason);
    assert!(!resp.stream, "an empty body needs no stream");
    assert!(resp.body.is_empty());
    token.cancel();
    handle.join().unwrap().unwrap();
}

/// Read-side corruption (bit flips on the wire) must surface as a typed
/// protocol error — never a silently wrong body. At least one seed must
/// hit the body bytes and produce the checksum-mismatch error
/// specifically.
#[test]
fn corrupted_stream_is_a_typed_error_never_a_wrong_body() {
    let config = ServeConfig {
        chunk_bytes: 1024,
        ..ServeConfig::default()
    };
    let (addr, token, handle) = start(config);
    let body = ndjson(2000);
    let query = "$.items[*].price";
    let reference = serial_reference(query, &body);
    let mut mismatches = 0;
    for seed in 0..6u64 {
        let stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        // Corrupt one response byte every ~8 KiB: the request (a few
        // hundred KiB of writes) is untouched — FaultyConn corruption is
        // read-side only.
        let plan = FaultPlan::new(seed).corrupt_every(8 * 1024 + seed * 17);
        let mut conn = FaultyConn::new(stream, plan);
        match streamed_query_via(&mut conn, &format!("x{seed}"), query, &body) {
            Ok(resp) => {
                // Corruption that happened to miss every delivered frame:
                // the body must still be exact.
                assert_eq!(resp.code, 200, "{:?}", resp.reason);
                assert_eq!(resp.body, reference, "undetected corruption (seed {seed})");
            }
            Err(ProtocolError::ChecksumMismatch { expected, got }) => {
                assert_ne!(expected, got);
                mismatches += 1;
            }
            // A flip that landed in a length prefix or header line is a
            // different — but still typed — protocol error.
            Err(_) => {}
        }
    }
    assert!(
        mismatches > 0,
        "no seed produced a checksum mismatch — corruption not detected"
    );
    token.cancel();
    handle.join().unwrap().unwrap();
}

/// A client that requests a stream and then dies mid-chunk harms nothing
/// but its own connection: the worker is cancelled and drained, and
/// concurrent healthy clients keep getting exact streamed answers.
#[test]
fn reader_dying_mid_chunk_harms_only_itself() {
    let config = ServeConfig {
        chunk_bytes: 2048,
        workers: 2,
        // A dead peer's socket buffer absorbs writes for a while; a tight
        // write-stall clock bounds how long the worker can stay pinned.
        write_timeout: Duration::from_millis(50),
        write_stall_budget: 2,
        ..ServeConfig::default()
    };
    let (addr, token, handle) = start(config);
    let body = Arc::new(ndjson(30_000));
    let query = "$.items[*].price";
    let reference = Arc::new(serial_reference(query, &body));
    let stop = Arc::new(AtomicUsize::new(0));
    // Exact healthy responses completed so far, by either client, with a
    // condition variable signalled on each.
    let completed = Arc::new((Mutex::new(0usize), Condvar::new()));
    let mut healthy = Vec::new();
    for t in 0..2 {
        let addr = addr.clone();
        let (body, reference, stop, completed) = (
            Arc::clone(&body),
            Arc::clone(&reference),
            Arc::clone(&stop),
            Arc::clone(&completed),
        );
        healthy.push(std::thread::spawn(move || {
            let mut n = 0u64;
            while stop.load(Ordering::SeqCst) == 0 {
                let mut c = Client::connect_tcp(&addr).unwrap();
                c.stream = true;
                c.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
                let resp = c
                    .query(&format!("h{t}n{n}"), "healthy", query, None, &body)
                    .unwrap();
                assert_eq!(resp.code, 200, "{:?}", resp.reason);
                assert_eq!(*resp.body, *reference, "healthy stream corrupted");
                n += 1;
                let (count, done) = &*completed;
                *count.lock().unwrap() += 1;
                done.notify_all();
            }
        }));
    }
    // Saboteurs: request a large stream, read only the header frame,
    // vanish. The server's guarded chunk writes hit the dead socket,
    // the worker is cancelled and drained, nothing leaks.
    for i in 0..4 {
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let payload = encode_request_opts(
            Op::Query,
            &format!("sab{i}"),
            "saboteur",
            query,
            Some(30_000),
            false,
            true,
            &body,
        );
        stream.write_all(&encode_frame(&payload)).unwrap();
        stream.flush().unwrap();
        let first = read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES)
            .unwrap()
            .expect("stream header");
        let resp = parse_response(&first).unwrap();
        assert!(resp.stream, "large response must stream");
        drop(stream); // die mid-chunk
    }
    // Healthy clients must still be making progress after the carnage:
    // wait until one more of their responses completes.
    let (count, done) = &*completed;
    let after_carnage = *count.lock().unwrap();
    let progress = {
        let deadline = Duration::from_secs(60);
        let waited =
            done.wait_timeout_while(count.lock().unwrap(), deadline, |n| *n <= after_carnage);
        *waited.unwrap().0
    };
    stop.store(1, Ordering::SeqCst);
    for h in healthy {
        h.join().unwrap();
    }
    assert!(
        progress > after_carnage,
        "healthy clients must make progress after the carnage"
    );
    token.cancel();
    handle.join().unwrap().unwrap();
}

/// 2× saturation with a mix of streamed and single-frame clients: every
/// 200 reassembles to the exact serial bytes (no cross-request
/// interleaving — chunk frames of one response can never carry another's
/// bytes without tripping the checksum), overload sheds typed.
#[test]
fn saturated_streams_never_interleave() {
    let config = ServeConfig {
        workers: 1,
        max_queue: 2,
        tenant_quota: 64,
        chunk_bytes: 1024,
        default_deadline: Duration::from_secs(60),
        max_deadline: Duration::from_secs(60),
        ..ServeConfig::default()
    };
    let (addr, token, handle) = start(config);
    let heavy_body = Arc::new(ndjson(40_000));
    let light_body = Arc::new(ndjson(30));
    let heavy_ref = Arc::new(serial_reference("$..price", &heavy_body));
    let light_ref = Arc::new(serial_reference("$.items[*].price", &light_body));
    let sheds = Arc::new(AtomicUsize::new(0));
    let oks = Arc::new(AtomicUsize::new(0));
    let mut threads = Vec::new();
    for t in 0..16 {
        let addr = addr.clone();
        let (heavy_body, light_body) = (Arc::clone(&heavy_body), Arc::clone(&light_body));
        let (heavy_ref, light_ref) = (Arc::clone(&heavy_ref), Arc::clone(&light_ref));
        let (sheds, oks) = (Arc::clone(&sheds), Arc::clone(&oks));
        threads.push(std::thread::spawn(move || {
            let heavy = t % 2 == 0;
            let (query, body, reference) = if heavy {
                ("$..price", &*heavy_body, &*heavy_ref)
            } else {
                ("$.items[*].price", &*light_body, &*light_ref)
            };
            let mut c = Client::connect_tcp(&addr).unwrap();
            c.stream = heavy; // heavy responses stream, light ones don't
            c.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
            match c.query(
                &format!("s{t}"),
                &format!("t{t}"),
                query,
                Some(60_000),
                body,
            ) {
                Ok(resp) => match resp.code {
                    200 => {
                        assert_eq!(
                            resp.body, *reference,
                            "completed response under load diverged from serial run"
                        );
                        oks.fetch_add(1, Ordering::SeqCst);
                    }
                    429 => {
                        assert_eq!(resp.reason.as_deref(), Some("queue_full"));
                        assert!(resp.body.is_empty(), "shed frames carry no body");
                        sheds.fetch_add(1, Ordering::SeqCst);
                    }
                    408 => assert!(resp.body.is_empty(), "timeout responses carry no body"),
                    other => panic!("unexpected status {other}: {:?}", resp.reason),
                },
                Err(ClientError::Timeout) => panic!("server never answered"),
                Err(e) => panic!("protocol failure under load: {e}"),
            }
        }));
    }
    for th in threads {
        th.join().unwrap();
    }
    assert!(
        sheds.load(Ordering::SeqCst) > 0,
        "2x saturation must produce typed sheds"
    );
    assert!(
        oks.load(Ordering::SeqCst) > 0,
        "admitted requests must complete exactly"
    );
    token.cancel();
    handle.join().unwrap().unwrap();
}
