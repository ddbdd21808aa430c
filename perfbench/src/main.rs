//! `perfbench`: the repository's benchmark. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <large_record|small_records|serve_mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! Prints a run fingerprint, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

#[global_allocator]
static ALLOC: harness::alloc::CountingAlloc = harness::alloc::CountingAlloc;

mod data;
mod fingerprint;
mod large;
mod layers;
mod metrics;
mod oracle;
mod serve;
mod setup;
mod sinks;
mod small;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for corpora, indexes and trace files.
    pub work_dir: PathBuf,
}

/// What a workload reports back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures (empty when every output matched the oracle).
    pub errors: Vec<String>,
    pub values: metrics::Values,
    /// Metrics under other estimators, printed for the estimator
    /// comparison in the README.
    pub estimators: Vec<(&'static str, metrics::Values)>,
}

impl Outcome {
    /// Records the result of one checked operation outside the timed loop.
    pub fn checked(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.errors.push(e);
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        work_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let print = fingerprint::collect(&args);
    println!("fingerprint: {print}");
    let dir = args.work_dir.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::from(1);
    }
    let tracer = trace::Tracer::new(args.trace);
    let outcome = match args.workload.as_str() {
        "large_record" => large::run(&args, &tracer),
        "small_records" => small::run(&args, &tracer),
        "serve_mixed" => serve::run(&args, &tracer, &dir),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            let _ = std::fs::remove_dir_all(&dir);
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    let mut values = outcome.values;
    if args.trace {
        let path = args.work_dir.join(format!(
            "trace-{}-seed{}{}.jsonl",
            args.workload,
            args.seed,
            if cfg!(feature = "instrumented") {
                "-instrumented"
            } else {
                ""
            }
        ));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                tracer.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        values.insert("trace.spans", tracer.len() as f64);
        // The traced run's own end-to-end numbers; `run.py` sets them
        // against an untraced run to give `trace.overhead_pct`.
        for (traced, plain) in [
            ("trace.throughput_gibps", "throughput_gibps"),
            ("trace.qps", "qps"),
        ] {
            let v = values.get(plain).copied().unwrap_or(0.0);
            values.insert(traced, v);
        }
    }
    for e in &outcome.errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    if !args.trace {
        let by_estimator: Vec<String> = outcome
            .estimators
            .iter()
            .map(|(name, values)| {
                let v: Vec<String> = values
                    .iter()
                    .map(|(k, v)| format!("\"{k}\": {v}"))
                    .collect();
                format!("\"{name}\": {{{}}}", v.join(", "))
            })
            .collect();
        println!("estimators: {{{}}}", by_estimator.join(", "));
    }
    let correct = outcome.errors.is_empty() && outcome.failed == 0;
    let catalogue: &[(&str, &str)] = if args.trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    metrics::print_result(
        correct,
        outcome.attempted,
        outcome.failed,
        catalogue,
        &values,
    );
    ExitCode::SUCCESS
}
