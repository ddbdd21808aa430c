//! One run path, checked as a matrix: every way into the CLI's run loop —
//! FILE (`run_ctl`, in-memory records) or stdin (`run_reader_ctl`, a
//! chunked reader), serial or on three pipeline workers, one query or two,
//! raw or typed extraction, with or without `--skip-malformed`, with or
//! without `--limit` — must print the same bytes, count the same matches
//! and exit with the same code as the serial FILE run of that cell.

use jsonski_cli::{parse_args, run_ctl, run_reader_ctl, RunControls};

/// What one cell observes: stdout, per-query counts (`None` when the run
/// failed) and the exit code.
type Observed = (Vec<u8>, Option<Vec<usize>>, u8);

/// A stream with a record that fails only after streaming matches (`[9,
/// 9}` is balanced at the brace level, malformed inside) and an unclosed
/// record that breaks the record boundary scan, so the stream must
/// resynchronize. With `cut_first`, the second record fails after four
/// `$.a[*]` matches, fewer than `-n 5` but more than the run has left
/// after the first record: the run ends inside it, before the failure,
/// also when a worker scanned it before the first record was delivered.
/// Without `eval_failure` the `[9, 9}` record is well formed, so a
/// fail-fast run ends at the boundary scan's error, after printing every
/// record before it, while workers still hold some of those records.
fn corpus(cut_first: bool, eval_failure: bool) -> Vec<u8> {
    let mut s = String::new();
    if cut_first {
        s.push_str("{\"a\": [1, 2], \"b\": \"x\"}\n{\"a\": [3, 4, 5, 6}\n");
    }
    for i in 0..120 {
        match i {
            40 if eval_failure => s.push_str("{\"a\": [9, 9}\n"),
            80 => s.push_str("{\"a\": [1, 2\n"),
            _ => s.push_str(&format!(
                "{{\"a\": [{i}, {}], \"b\": \"q\\\"{i}\\u00e9\"}}\n",
                i * 10
            )),
        }
    }
    s.into_bytes()
}

fn run_cell(argv: &[String], input: &[u8], from_stdin: bool) -> Observed {
    let opts = parse_args(argv.iter().cloned()).unwrap();
    let mut out = Vec::new();
    let result = if from_stdin {
        run_reader_ctl(&opts, input, &mut out, &RunControls::default())
    } else {
        run_ctl(&opts, input, &mut out, &RunControls::default())
    };
    match result {
        Ok(report) => {
            let code = report.exit_code();
            (out, Some(report.counts), code)
        }
        Err(e) => (out, None, e.exit_code()),
    }
}

#[test]
fn every_path_matches_the_serial_file_run() {
    let mut cells = 0;
    for (cut_first, eval_failure) in [(false, true), (true, true), (false, false)] {
        let input = corpus(cut_first, eval_failure);
        for queries in [&["$.a[*]"][..], &["$.a[*]", "$.b"][..]] {
            for extract in ["raw", "typed"] {
                for skip in [false, true] {
                    for limit in ["0", "5"] {
                        let argv = |jobs: &str| {
                            let mut a: Vec<String> =
                                ["-j", jobs, "--extract", extract, "-n", limit]
                                    .iter()
                                    .map(|s| s.to_string())
                                    .collect();
                            if skip {
                                a.push("--skip-malformed".into());
                            }
                            a.extend(queries.iter().map(|q| q.to_string()));
                            a
                        };
                        let reference = run_cell(&argv("1"), &input, false);
                        // The matrix must exercise what it claims: the
                        // damage decides the exit code of an uncapped run.
                        if limit == "0" {
                            assert_eq!(reference.2, if skip { 3 } else { 2 }, "{:?}", argv("1"));
                        } else if !cut_first {
                            assert_eq!(reference.2, 0, "{:?}", argv("1"));
                            assert_eq!(reference.1.as_ref().unwrap().iter().sum::<usize>(), 5);
                        }
                        for from_stdin in [false, true] {
                            for jobs in ["1", "3"] {
                                let cell = run_cell(&argv(jobs), &input, from_stdin);
                                assert_eq!(
                                    cell,
                                    reference,
                                    "stdin={from_stdin} argv={:?} cut_first={cut_first} \
                                     eval_failure={eval_failure}",
                                    argv(jobs)
                                );
                                cells += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(cells, 192);
}
