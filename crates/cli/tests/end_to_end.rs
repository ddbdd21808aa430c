//! End-to-end tests driving the actual `jsonski` binary.

use std::io::Write;
use std::process::{Command, Stdio};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_jsonski")
}

fn run_with_stdin(args: &[&str], stdin: &[u8]) -> (String, String, Option<i32>) {
    let mut child = Command::new(bin())
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    // The child may exit before reading (e.g. on a bad query), closing the
    // pipe: ignore the resulting EPIPE instead of failing the test.
    let _ = child.stdin.as_mut().unwrap().write_all(stdin);
    let out = child.wait_with_output().unwrap();
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn stdin_single_query() {
    let (stdout, _, code) = run_with_stdin(&["$.a"], b"{\"a\": 1}\n{\"a\": 2}\n{\"b\": 3}\n");
    assert_eq!(stdout, "1\n2\n");
    assert_eq!(code, Some(0));
}

#[test]
fn file_input_and_count() {
    let dir = std::env::temp_dir().join(format!("jsonski-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("data.json");
    std::fs::write(&path, b"{\"pd\": [{\"id\": 1}, {\"id\": 2}]}").unwrap();
    let (stdout, _, code) = run_with_stdin(&["-c", "$.pd[*].id", path.to_str().unwrap()], b"");
    assert_eq!(stdout, "2\t$.pd[*].id\n");
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn no_match_still_exits_zero() {
    // Finding nothing is a successful run; exit codes are reserved for the
    // failure taxonomy (1 usage/IO, 2 fatal, 3 skips, 130 cancelled).
    let (_, _, code) = run_with_stdin(&["$.zzz"], b"{\"a\": 1}\n");
    assert_eq!(code, Some(0));
}

#[test]
fn bad_query_exits_1_with_message() {
    let (_, stderr, code) = run_with_stdin(&["$.a["], b"{}");
    assert_eq!(code, Some(1));
    assert!(stderr.contains("unclosed"), "{stderr}");
}

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    let (stdout, _, code) = run_with_stdin(&["--help"], b"");
    assert_eq!(code, Some(0));
    assert!(stdout.contains("usage: jsonski"));
    assert!(stdout.contains("exit codes"), "{stdout}");
}

#[test]
fn missing_file_exits_1() {
    let (_, stderr, code) = run_with_stdin(&["$.a", "/definitely/not/here.json"], b"");
    assert_eq!(code, Some(1));
    assert!(stderr.contains("/definitely/not/here.json"), "{stderr}");
}

#[test]
fn fatal_record_exits_2_under_fail_fast() {
    let (_, stderr, code) = run_with_stdin(&["$.a"], b"{\"a\": 1}\n{\"a\": [1,\n{\"a\": 2}\n");
    assert_eq!(code, Some(2), "{stderr}");
}

#[test]
fn skipped_records_exit_3() {
    let (stdout, stderr, code) = run_with_stdin(
        &["--skip-malformed", "$.a"],
        b"{\"a\": 1}\n{\"a\": [1,\n{\"a\": 2}\n",
    );
    assert_eq!(code, Some(3), "{stderr}");
    // The broken record is skipped, the ones around it still match.
    assert_eq!(stdout, "1\n2\n");
    assert!(stderr.contains("skipped"), "{stderr}");
}

#[test]
#[cfg(unix)]
fn sigint_drains_and_exits_130() {
    use std::time::Duration;
    let mut child = Command::new(bin())
        .args(["$.a"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(b"{\"a\": 1}\n{\"a\": 2}\n").unwrap();
    stdin.flush().unwrap();
    // Give the child time to finish exec and install its handler — a
    // SIGINT that lands before `signals::install` runs kills it raw.
    std::thread::sleep(Duration::from_millis(300));
    // First SIGINT: the self-pipe watcher trips the cancellation token.
    let pid = child.id().to_string();
    let killed = Command::new("kill").args(["-INT", &pid]).status().unwrap();
    assert!(killed.success());
    // glibc installs the handler with SA_RESTART, so a blocked stdin read
    // does not EINTR: give the watcher a moment to cancel, then close
    // stdin so the reader reaches the next record boundary and drains.
    std::thread::sleep(Duration::from_millis(300));
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(130));
    // Everything delivered before the cancel still reached stdout.
    assert_eq!(String::from_utf8_lossy(&out.stdout), "1\n2\n");
}

#[test]
fn stats_flag_reports_fast_forward() {
    let (_, stderr, _) = run_with_stdin(&["-s", "$.a"], b"{\"a\": 1, \"big\": {\"x\": [1,2,3]}}");
    assert!(stderr.contains("fast-forward"), "{stderr}");
}

#[test]
fn multi_query_stdin() {
    let (stdout, _, code) = run_with_stdin(&["$.a", "$.b"], b"{\"a\": 1, \"b\": 2}\n");
    assert!(stdout.contains("0\t1"));
    assert!(stdout.contains("1\t2"));
    assert_eq!(code, Some(0));
}

#[test]
fn jobs_fan_file_records_out_for_any_number_of_queries() {
    let dir = std::env::temp_dir().join(format!("jsonski-fanout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("d.ndjson");
    let mut input = String::new();
    for i in 0..4000 {
        input.push_str(&format!("{{\"a\": {i}, \"b\": [{i}, {i}, {i}]}}\n"));
    }
    std::fs::write(&path, input).unwrap();
    let file = path.to_str().unwrap();
    for queries in [&["$.a"][..], &["$.a", "$.b[1]"][..]] {
        let mut args = vec!["-j", "2", "--metrics", "json"];
        args.extend(queries);
        args.push(file);
        let (stdout, stderr, code) = run_with_stdin(&args, b"");
        assert_eq!(code, Some(0), "{stderr}");
        assert_eq!(stdout.lines().count(), 4000 * queries.len());
        assert!(!stderr.contains("serially"), "{stderr}");
        // The live run's registry is the `aggregate` object; its
        // per-worker record counts show where the records ran.
        let aggregate = &stderr[stderr.find("\"aggregate\":").expect("aggregate metrics")..];
        let list = &aggregate[aggregate.find("\"worker_records\":[").unwrap() + 18..];
        let per_worker: Vec<u64> = list[..list.find(']').unwrap()]
            .split(',')
            .map(|n| n.parse().unwrap())
            .collect();
        assert_eq!(per_worker.iter().sum::<u64>(), 4000, "{per_worker:?}");
        assert_eq!(
            per_worker.iter().filter(|&&n| n > 0).count(),
            2,
            "queries {queries:?}: records ran on {per_worker:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
