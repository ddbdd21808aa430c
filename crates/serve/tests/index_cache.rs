//! End-to-end behavior of the persistent structural-index cache over
//! real sockets: the differential oracle (cached and uncached responses
//! byte-identical, for every kernel × both validation modes), staleness
//! detection when the corpus mutates underneath the server, and the
//! damage matrix — truncated, bit-flipped, torn, and version-skewed
//! index files must silently fall back to full classification, count the
//! fault, and heal, never changing a single response byte.

use std::path::{Path, PathBuf};
use std::time::Duration;

use jsonski::faults::{FaultPlan, FaultyFile};
use jsonski::index::index_path_for;
use jsonski::{EngineConfig, JsonSki, Kernel, ValidationMode};
use jsonski_serve::{Client, ServeConfig, Server};

const QUERY: &str = "$.items[*].price";

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jsonski-idxcache-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("corpora")).unwrap();
    dir
}

fn ndjson(n: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for i in 0..n {
        out.extend_from_slice(
            format!(
                "{{\"id\": {i}, \"tag\": \"naïve—{i}\", \"items\": [{{\"price\": {}}}, {{\"price\": [{i}, {}]}}]}}\n",
                i * 3,
                i * 3 + 1
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
    dir: &Path,
    engine_config: EngineConfig,
) -> (
    String,
    jsonski::CancellationToken,
    std::thread::JoinHandle<std::io::Result<jsonski_serve::ServeSummary>>,
) {
    let config = ServeConfig {
        corpus_dir: Some(dir.join("corpora")),
        index_cache: Some(dir.join("indexes")),
        metrics_endpoint: true,
        engine_config,
        ..ServeConfig::default()
    };
    let server = Server::bind_tcp("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().to_string();
    let token = server.shutdown_token();
    let handle = std::thread::spawn(move || server.run());
    (addr, token, handle)
}

fn scrape_counter(client: &mut Client, name: &str) -> u64 {
    let scrape = String::from_utf8(client.metrics(false).unwrap().body).unwrap();
    scrape
        .lines()
        .find(|l| l.starts_with(&format!("{name} ")))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("counter {name} missing from scrape:\n{scrape}"))
}

/// Queries the stored corpus until a request is answered from the index
/// (the `index_hit` counter moves), returning that request's body.
/// Panics if no hit materializes — the cache must converge.
fn query_until_hit(client: &mut Client, corpus: &str) -> Vec<u8> {
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        let before = scrape_counter(client, "index_hit");
        let resp = client.query_corpus("h", "t", QUERY, corpus, None).unwrap();
        assert_eq!(resp.code, 200, "{:?}", resp.reason);
        if scrape_counter(client, "index_hit") > before {
            return resp.body;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "index never produced a hit"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The differential oracle: for every supported kernel × both validation
/// modes, the inline (uncached) response, the cold corpus response
/// (index miss → full classification), and the warm corpus response
/// (index hit → prebuilt bitmaps) must be byte-identical to each other
/// and to a serial engine run.
#[test]
fn cached_responses_are_byte_identical_for_every_kernel_and_validation() {
    let body = ndjson(40);
    let reference = serial_reference(QUERY, &body);
    let mut kernels: Vec<Option<Kernel>> = vec![None];
    kernels.extend(
        Kernel::all()
            .iter()
            .filter(|k| k.is_supported())
            .map(|&k| Some(k)),
    );
    for kernel in kernels {
        for validation in [ValidationMode::Permissive, ValidationMode::Strict] {
            let tag = format!(
                "diff-{}-{validation:?}",
                kernel.map_or("auto", |k| k.name())
            );
            let dir = scratch(&tag);
            std::fs::write(dir.join("corpora/c.ndjson"), &body).unwrap();
            let engine_config = EngineConfig::builder()
                .kernel(kernel)
                .validation(validation)
                .build();
            let (addr, token, handle) = start(&dir, engine_config);
            let mut client = Client::connect_tcp(&addr).unwrap();
            client
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            let inline = client.query("i", "t", QUERY, None, &body).unwrap();
            assert_eq!(inline.code, 200, "{tag}: {:?}", inline.reason);
            assert_eq!(inline.body, reference, "{tag}: inline vs serial");
            let cold = client
                .query_corpus("c", "t", QUERY, "c.ndjson", None)
                .unwrap();
            assert_eq!(cold.code, 200, "{tag}: {:?}", cold.reason);
            assert_eq!(cold.body, reference, "{tag}: cold corpus vs serial");
            let warm = query_until_hit(&mut client, "c.ndjson");
            assert_eq!(warm, reference, "{tag}: indexed corpus vs serial");
            assert!(scrape_counter(&mut client, "index_skipped_classification_bytes") > 0);
            token.cancel();
            handle.join().unwrap().unwrap();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Mutating the corpus file underneath a warm server must never serve
/// results for the old bytes: the resident and persisted indexes go
/// stale, the request falls back (correct against the *new* bytes), and
/// the cache heals onto the new content.
#[test]
fn mutated_corpus_is_detected_and_reindexed() {
    let dir = scratch("stale");
    let old_body = ndjson(20);
    std::fs::write(dir.join("corpora/c.ndjson"), &old_body).unwrap();
    let (addr, token, handle) = start(&dir, EngineConfig::default());
    let mut client = Client::connect_tcp(&addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    assert_eq!(
        query_until_hit(&mut client, "c.ndjson"),
        serial_reference(QUERY, &old_body)
    );
    // Rewrite the corpus with different records (and a different length).
    let new_body = ndjson(31);
    std::fs::write(dir.join("corpora/c.ndjson"), &new_body).unwrap();
    let new_reference = serial_reference(QUERY, &new_body);
    let resp = client
        .query_corpus("m", "t", QUERY, "c.ndjson", None)
        .unwrap();
    assert_eq!(resp.code, 200, "{:?}", resp.reason);
    assert_eq!(
        resp.body, new_reference,
        "stale index must not leak old results"
    );
    assert!(scrape_counter(&mut client, "index_stale") >= 1);
    assert_eq!(query_until_hit(&mut client, "c.ndjson"), new_reference);
    token.cancel();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The damage matrix: every way an index file can be wrong on disk —
/// truncation at various byte counts, single-byte corruption, torn and
/// bit-rotted writes staged through [`FaultyFile`], version skew, and
/// outright garbage — must degrade to a byte-identical fallback response
/// with the corruption counted, then heal in the background.
#[test]
fn damaged_index_files_degrade_silently_and_heal() {
    let dir = scratch("damage");
    let body = ndjson(24);
    let reference = serial_reference(QUERY, &body);
    std::fs::write(dir.join("corpora/c.ndjson"), &body).unwrap();
    // Prime a valid index file, then stop the server so the next one
    // must read it from disk.
    let (addr, token, handle) = start(&dir, EngineConfig::default());
    let mut client = Client::connect_tcp(&addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    query_until_hit(&mut client, "c.ndjson");
    token.cancel();
    handle.join().unwrap().unwrap();
    let index_path = index_path_for(&dir.join("indexes"), "c.ndjson");
    let pristine = std::fs::read(&index_path).unwrap();
    assert!(pristine.len() > 64, "sanity: index file has substance");

    type Damage = Box<dyn Fn(&[u8]) -> Vec<u8>>;
    let damages: Vec<(&str, Damage)> = vec![
        ("truncate-prefix", Box::new(|b: &[u8]| b[..8].to_vec())),
        ("truncate-header", Box::new(|b: &[u8]| b[..40].to_vec())),
        (
            "truncate-tail",
            Box::new(|b: &[u8]| b[..b.len() - 1].to_vec()),
        ),
        (
            "bitflip-header",
            Box::new(|b: &[u8]| {
                let mut v = b.to_vec();
                v[12] ^= 0x01;
                v
            }),
        ),
        (
            "bitflip-body",
            Box::new(|b: &[u8]| {
                let mut v = b.to_vec();
                let mid = v.len() / 2;
                v[mid] ^= 0x80;
                v
            }),
        ),
        (
            "version-skew",
            Box::new(|b: &[u8]| {
                let mut v = b.to_vec();
                v[..8].copy_from_slice(b"JSKIDX9\n");
                v
            }),
        ),
        (
            "garbage",
            Box::new(|_: &[u8]| b"not an index at all".to_vec()),
        ),
        ("empty", Box::new(|_: &[u8]| Vec::new())),
    ];
    for (tag, damage) in &damages {
        std::fs::write(&index_path, damage(&pristine)).unwrap();
        let (addr, token, handle) = start(&dir, EngineConfig::default());
        let mut client = Client::connect_tcp(&addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let resp = client
            .query_corpus("d", "t", QUERY, "c.ndjson", None)
            .unwrap();
        assert_eq!(
            resp.code, 200,
            "{tag}: damaged index must not fail the request"
        );
        assert_eq!(
            resp.body, reference,
            "{tag}: damaged index must not change bytes"
        );
        assert_eq!(
            scrape_counter(&mut client, "index_corrupt_fallback"),
            1,
            "{tag}: the fault must be counted"
        );
        assert_eq!(
            query_until_hit(&mut client, "c.ndjson"),
            reference,
            "{tag}: heal"
        );
        token.cancel();
        handle.join().unwrap().unwrap();
    }

    // Torn and bit-rotted writes staged through the seeded FaultyFile:
    // the lying-disk version of the same story.
    for (tag, plan) in [
        (
            "faulty-torn",
            FaultPlan::new(7).truncate_at(pristine.len() as u64 / 3),
        ),
        (
            "faulty-bitrot",
            FaultPlan::new(8).corrupt_every(211).short_writes(31),
        ),
    ] {
        let mut f = FaultyFile::create(&index_path, plan).unwrap();
        std::io::Write::write_all(&mut f, &pristine).unwrap();
        f.persist().unwrap();
        assert_ne!(
            std::fs::read(&index_path).unwrap(),
            pristine,
            "{tag}: damage landed"
        );
        let (addr, token, handle) = start(&dir, EngineConfig::default());
        let mut client = Client::connect_tcp(&addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let resp = client
            .query_corpus("f", "t", QUERY, "c.ndjson", None)
            .unwrap();
        assert_eq!(resp.code, 200, "{tag}");
        assert_eq!(resp.body, reference, "{tag}");
        assert_eq!(
            scrape_counter(&mut client, "index_corrupt_fallback"),
            1,
            "{tag}"
        );
        assert_eq!(query_until_hit(&mut client, "c.ndjson"), reference, "{tag}");
        token.cancel();
        handle.join().unwrap().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Unknown corpus names answer a typed 404, not a hang, 500, or empty
/// 200; a server without `--corpus-dir` answers the same for any name.
#[test]
fn unknown_corpora_answer_404() {
    let dir = scratch("notfound");
    let (addr, token, handle) = start(&dir, EngineConfig::default());
    let mut client = Client::connect_tcp(&addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for name in ["absent.ndjson", "../etc/passwd", ".."] {
        let resp = client.query_corpus("n", "t", QUERY, name, None).unwrap();
        assert_eq!(resp.code, 404, "{name}: {:?}", resp.reason);
        assert_eq!(resp.status, "not_found");
    }
    assert_eq!(scrape_counter(&mut client, "serve_corpus_not_found"), 3);
    token.cancel();
    handle.join().unwrap().unwrap();
    // No corpus dir at all: still a typed 404.
    let server = Server::bind_tcp("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let token = server.shutdown_token();
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect_tcp(&addr).unwrap();
    let resp = client
        .query_corpus("n", "t", QUERY, "c.ndjson", None)
        .unwrap();
    assert_eq!(resp.code, 404);
    token.cancel();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
