//! SIGTERM-drain smoke test against the real `jsonski serve` binary:
//! send load, signal, assert the in-flight request completes with a
//! byte-exact frame, new work is rejected, and the process exits by the
//! established exit-code contract (130 after a graceful drain).

#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use jsonski::JsonSki;
use jsonski_serve::Client;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_jsonski")
}

/// Spawns `jsonski serve` on an ephemeral port and parses the bound
/// address from its stderr banner.
fn spawn_serve(extra: &[&str]) -> (Child, String, BufReader<std::process::ChildStderr>) {
    let mut child = Command::new(bin())
        .arg("serve")
        .args(["--listen", "127.0.0.1:0", "--workers", "2"])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn jsonski serve");
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    stderr.read_line(&mut line).expect("read listen banner");
    let addr = line
        .trim()
        .strip_prefix("jsonski: listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_string();
    (child, addr, stderr)
}

fn sigterm(child: &Child) {
    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(status.success());
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

/// Blocks until the server's `serve_admitted` counter reaches `n`. The
/// server must run with `--metrics-endpoint`.
fn wait_admitted(addr: &str, n: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let mut c = Client::connect_tcp(addr).unwrap();
        let scrape = String::from_utf8(c.metrics(false).unwrap().body).unwrap();
        let admitted: u64 = scrape
            .lines()
            .find(|l| l.starts_with("serve_admitted "))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        if admitted >= n {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "queries were never admitted:\n{scrape}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn sigterm_while_idle_exits_130() {
    let (mut child, addr, _stderr) = spawn_serve(&[]);
    // Prove it serves before the signal.
    let mut c = Client::connect_tcp(&addr).unwrap();
    assert!(c.ping().unwrap().is_ok());
    sigterm(&child);
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(130), "graceful drain must exit 130");
}

#[test]
fn sigterm_under_load_drains_in_flight_and_exits_130() {
    let (mut child, addr, _stderr) = spawn_serve(&["--deadline-ms", "30000", "--metrics-endpoint"]);
    let body = ndjson(150_000); // ~10 MiB; `$..price` disables fast-forwarding
    let reference = serial_reference("$..price", &body);
    // Several in-flight requests, then SIGTERM mid-evaluation.
    let mut inflight = Vec::new();
    for i in 0..3 {
        let addr = addr.clone();
        let body = body.clone();
        inflight.push(std::thread::spawn(move || {
            let mut c = Client::connect_tcp(&addr).unwrap();
            c.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
            c.query(&format!("load{i}"), "t", "$..price", Some(30_000), &body)
                .unwrap()
        }));
    }
    // Wait until all three queries are past admission control before
    // signaling: admitted requests hold a tenant permit and are never
    // rejected by the drain gate, so each is guaranteed to complete.
    wait_admitted(&addr, 3);
    sigterm(&child);
    // Every in-flight request completes with a full, byte-exact frame.
    for t in inflight {
        let resp = t.join().unwrap();
        assert_eq!(resp.code, 200, "{:?}", resp.reason);
        assert_eq!(
            resp.body, reference,
            "drained response must be byte-identical to a serial run"
        );
    }
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(130), "graceful drain must exit 130");
}

#[test]
fn draining_server_rejects_new_queries_with_503() {
    let (mut child, addr, _stderr) = spawn_serve(&["--deadline-ms", "30000", "--metrics-endpoint"]);
    let body = ndjson(150_000);
    // Hold the server in drain with one slow in-flight request.
    let holder = {
        let addr = addr.clone();
        let body = body.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect_tcp(&addr).unwrap();
            c.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
            c.query("hold", "t", "$..price", Some(30_000), &body)
                .unwrap()
        })
    };
    // A second connection opened pre-drain stays usable for probing.
    let mut probe = Client::connect_tcp(&addr).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    // The holder must be admitted before the drain starts, or the drain
    // gate rejects it too.
    wait_admitted(&addr, 1);
    sigterm(&child);
    std::thread::sleep(Duration::from_millis(50));
    // New query on the surviving connection: typed 503, not a hang or cut.
    match probe.query("late", "t", "$.id", None, b"{\"id\": 1}\n") {
        Ok(resp) => {
            assert_eq!(resp.code, 503, "{:?}", resp.reason);
            assert_eq!(resp.reason.as_deref(), Some("server is draining"));
        }
        // The drain may finish (and close the socket) before the probe
        // lands; a clean transport error is acceptable, a hang is not.
        Err(e) => eprintln!("probe raced drain completion: {e}"),
    }
    assert!(holder.join().unwrap().is_ok());
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(130));
}

#[test]
fn serve_help_and_bad_flags_follow_exit_contract() {
    let out = Command::new(bin())
        .args(["serve", "--help"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: jsonski serve"));
    let out = Command::new(bin())
        .args(["serve", "--bogus"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown serve option"));
}
