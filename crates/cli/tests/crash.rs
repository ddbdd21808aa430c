//! Crash-and-resume torture tests for the `--checkpoint` / `--resume`
//! path: the binary is repeatedly SIGKILLed mid-run (a real crash, no
//! graceful drain) and restarted with `--resume`; the concatenation of
//! each segment's durable output — truncated to the checkpoint's
//! `output_bytes`, exactly as a resume harness would — must be
//! byte-identical to an uninterrupted run.

#![cfg(unix)]

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use jsonski::Checkpoint;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_jsonski")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jsonski-crash-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A stream of `records` one-line objects (some malformed when `dirty`),
/// padded so a run takes long enough to be killed mid-flight.
fn make_input(path: &Path, records: usize, dirty: bool) {
    let mut input = Vec::new();
    for i in 0..records {
        if dirty && i % 97 == 42 {
            // An unclosed array: breaks the record boundary scan, so the
            // stream must resynchronize at the next newline.
            input.extend_from_slice(format!("{{\"id\": [{i}, {i}\n").as_bytes());
        } else {
            input.extend_from_slice(
                format!("{{\"id\": {i}, \"pad\": [{i}, {i}, {i}, \"xxxxxxxxxxxxxxxx\"]}}\n")
                    .as_bytes(),
            );
        }
    }
    std::fs::write(path, input).unwrap();
}

/// The query of the single-query runs.
const ONE: &[&str] = &["$.id"];
/// A query set whose matches interleave within records.
const TWO: &[&str] = &["$.id", "$.pad[0]"];

fn reference_output(input: &Path, queries: &[&str], skip_malformed: bool) -> Vec<u8> {
    let mut args: Vec<String> = queries.iter().map(|q| q.to_string()).collect();
    args.push(input.display().to_string());
    if skip_malformed {
        args.push("--skip-malformed".to_string());
    }
    let out = Command::new(bin()).args(&args).output().unwrap();
    let code = out.status.code();
    assert!(
        code == Some(0) || code == Some(3),
        "reference run failed: {code:?}"
    );
    out.stdout
}

/// Runs one checkpointed segment, killing the process with SIGKILL shortly
/// after the checkpoint file changes. Returns the segment's raw stdout and
/// whether the process finished on its own before the kill landed.
fn run_segment(
    input: &Path,
    ck_path: &Path,
    queries: &[&str],
    resume: bool,
    jobs: usize,
    skip_malformed: bool,
    kill: bool,
) -> (Vec<u8>, bool) {
    let jobs = jobs.to_string();
    let mut args = queries.to_vec();
    args.extend([
        input.to_str().unwrap(),
        "--checkpoint",
        ck_path.to_str().unwrap(),
        "--checkpoint-every",
        "64",
        "-j",
        &jobs,
    ]);
    if skip_malformed {
        args.push("--skip-malformed");
    }
    if resume {
        args.push("--resume");
    }
    let before = std::fs::read(ck_path).ok();
    let mut child = Command::new(bin())
        .args(&args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut finished = false;
    if kill {
        // Wait for the checkpoint file to advance past its pre-spawn
        // contents, then SIGKILL — the harshest possible interruption.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if child.try_wait().unwrap().is_some() {
                finished = true;
                break;
            }
            let now = std::fs::read(ck_path).ok();
            if now.is_some() && now != before {
                let _ = Command::new("kill")
                    .args(["-KILL", &child.id().to_string()])
                    .status();
                break;
            }
            assert!(Instant::now() < deadline, "checkpoint never advanced");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    // Drain stdout before waiting, then reap.
    let mut stdout = Vec::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_end(&mut stdout)
        .unwrap();
    let status = child.wait().unwrap();
    if !kill {
        let code = status.code();
        assert!(
            code == Some(0) || code == Some(3),
            "final segment failed: {code:?}"
        );
        finished = true;
    } else if status.code().is_some() {
        finished = true;
    }
    (stdout, finished)
}

/// The torture loop: kill-and-resume until the run completes, splicing
/// together each segment's durable prefix.
fn torture(tag: &str, queries: &[&str], jobs: usize, skip_malformed: bool, records: usize) {
    let dir = scratch(tag);
    let input = dir.join("input.jsonl");
    let ck_path = dir.join("run.ckpt");
    make_input(&input, records, skip_malformed);
    let reference = reference_output(&input, queries, skip_malformed);

    let mut assembled: Vec<u8> = Vec::new();
    let mut durable = 0u64; // output_bytes as of the last accepted segment
    let mut resume = false;
    let mut kills = 0usize;
    loop {
        let kill = kills < 8;
        let (stdout, finished) = run_segment(
            &input,
            &ck_path,
            queries,
            resume,
            jobs,
            skip_malformed,
            kill,
        );
        let ck = Checkpoint::load(&ck_path).expect("checkpoint readable after segment");
        if finished && ck.complete {
            // The final segment's stdout is entirely durable (the run
            // flushed everything before exiting).
            assembled.extend_from_slice(&stdout);
            break;
        }
        // Crash harness contract: keep only the output the checkpoint
        // vouches for. The segment's own contribution is the growth of
        // `output_bytes` since the previous accepted checkpoint.
        let contributed = usize::try_from(ck.output_bytes - durable).unwrap();
        assert!(
            contributed <= stdout.len(),
            "checkpoint claims {contributed} bytes but segment wrote {}",
            stdout.len()
        );
        assembled.extend_from_slice(&stdout[..contributed]);
        durable = ck.output_bytes;
        resume = true;
        kills += 1;
    }
    assert!(
        kills > 0,
        "no segment was ever killed; grow the input so runs outlive the first checkpoint"
    );
    assert_eq!(
        assembled, reference,
        "resumed output diverged (jobs={jobs}, skip={skip_malformed}, kills={kills})"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_and_resume_serial_fail_fast() {
    torture("serial-ff", ONE, 1, false, 30_000);
}

#[test]
fn kill_and_resume_parallel_fail_fast() {
    torture("par2-ff", ONE, 2, false, 30_000);
}

#[test]
fn kill_and_resume_parallel_skip_malformed() {
    torture("par8-skip", ONE, 8, true, 30_000);
}

#[test]
fn kill_and_resume_two_queries_serial() {
    torture("two-serial", TWO, 1, false, 30_000);
}

#[test]
fn kill_and_resume_two_queries_parallel() {
    torture("two-par4", TWO, 4, false, 30_000);
}

#[test]
fn resuming_a_complete_run_is_a_no_op() {
    let dir = scratch("complete");
    let input = dir.join("input.jsonl");
    let ck_path = dir.join("run.ckpt");
    make_input(&input, 500, false);
    let (stdout, finished) = run_segment(&input, &ck_path, ONE, false, 2, false, false);
    assert!(finished);
    assert!(!stdout.is_empty());
    let ck = Checkpoint::load(&ck_path).unwrap();
    assert!(ck.complete);
    // Resume: nothing to do, exit 0, no duplicate output.
    let (stdout, _) = run_segment(&input, &ck_path, ONE, true, 2, false, false);
    assert!(stdout.is_empty(), "complete resume re-emitted output");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_refuses_a_different_query_or_input() {
    let dir = scratch("mismatch");
    let input = dir.join("input.jsonl");
    let ck_path = dir.join("run.ckpt");
    make_input(&input, 500, false);
    let (_, finished) = run_segment(&input, &ck_path, ONE, false, 1, false, false);
    assert!(finished);
    // Different query → the config digest differs → usage error (exit 1).
    let out = Command::new(bin())
        .args([
            "$.other",
            input.to_str().unwrap(),
            "--checkpoint",
            ck_path.to_str().unwrap(),
            "--resume",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    // Different input bytes → the fingerprint differs → usage error.
    make_input(&input, 501, false);
    let out = Command::new(bin())
        .args([
            "$.id",
            input.to_str().unwrap(),
            "--checkpoint",
            ck_path.to_str().unwrap(),
            "--resume",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    std::fs::remove_dir_all(&dir).ok();
}
