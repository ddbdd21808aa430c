//! `jsonski` — stream JSONPath matches from files or stdin.
//!
//! Exit codes (documented in [`jsonski_cli::usage`] and the README):
//! `0` success, `1` usage or I/O error, `2` fatal evaluation error under
//! fail-fast, `3` completed but skipped malformed records, `130` cancelled
//! by SIGINT/SIGTERM after a graceful drain.

use std::io::{Read, Write};
use std::process::ExitCode;

use jsonski::CancellationToken;
use jsonski_cli::{usage, CliError, InputIdentity, Options, RunControls, RunReport};

fn main() -> ExitCode {
    // `jsonski serve …` is a separate mode with its own flags, signal
    // wiring (the server's drain token), and exit-code mapping.
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("serve") {
        args.next();
        return match jsonski_cli::serve::parse_serve_args(args) {
            Ok(opts) => match jsonski_cli::serve::run_serve(&opts) {
                Ok(code) => ExitCode::from(code),
                Err(e) => {
                    eprintln!("jsonski: {e}");
                    ExitCode::from(e.exit_code())
                }
            },
            Err(CliError::Help) => {
                let _ = writeln!(std::io::stdout(), "{}", jsonski_cli::serve::serve_usage());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(e.exit_code())
            }
        };
    }
    let opts = match jsonski_cli::parse_args(args) {
        Ok(o) => o,
        Err(CliError::Help) => {
            // Not println!: piping help through `head` closes stdout early,
            // and an EPIPE must not panic.
            let _ = writeln!(std::io::stdout(), "{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(e.exit_code());
        }
    };
    let mut controls = RunControls::default();
    let token = CancellationToken::new();
    #[cfg(unix)]
    if jsonski_cli::signals::install(token.clone()) {
        controls.cancel = Some(token);
    }
    #[cfg(not(unix))]
    drop(token);
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let result = run(&opts, &mut controls, &mut out);
    let _ = out.flush();
    match result {
        Ok(report) => ExitCode::from(report.exit_code()),
        Err(e) => {
            eprintln!("jsonski: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn run(
    opts: &Options,
    controls: &mut RunControls,
    out: &mut dyn Write,
) -> Result<RunReport, CliError> {
    // A resumed run starts mid-input, so `--checkpoint` routes file input
    // through the same reader as stdin, which keeps whole-stream offsets
    // after the committed prefix is discarded.
    if opts.checkpoint.is_some() {
        let identity = match &opts.file {
            Some(path) => InputIdentity::of_file(std::path::Path::new(path))
                .map_err(|e| CliError::Io(format!("{path}: {e}")))?,
            None => InputIdentity::unknown(),
        };
        let plan = jsonski_cli::prepare_checkpoint(opts, &identity)?
            .expect("--checkpoint was given, so a plan exists");
        if plan.complete {
            eprintln!("jsonski: checkpoint marks this run complete; nothing to resume");
            return Ok(RunReport {
                counts: vec![0; opts.queries.len()],
                summary: jsonski::PipelineSummary::default(),
                metrics: None,
            });
        }
        let start = plan.start_offset;
        controls.checkpoint = Some(plan.setup);
        return match &opts.file {
            Some(path) => {
                let mut file =
                    std::fs::File::open(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
                discard_prefix(&mut file, start)?;
                jsonski_cli::run_reader_ctl(opts, file, out, controls)
            }
            None => {
                let mut stdin = std::io::stdin().lock();
                discard_prefix(&mut stdin, start)?;
                jsonski_cli::run_reader_ctl(opts, stdin, out, controls)
            }
        };
    }
    match &opts.file {
        Some(path) => {
            let input = std::fs::read(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
            jsonski_cli::run_ctl(opts, &input, out, controls)
        }
        // Stdin is processed record by record with bounded memory.
        None => jsonski_cli::run_reader_ctl(opts, std::io::stdin().lock(), out, controls),
    }
}

/// Skips the first `n` bytes of `reader` (the committed prefix of a
/// resumed run). Works on any reader, so stdin resumes too — the upstream
/// producer replays the stream and the committed prefix is discarded here.
fn discard_prefix<R: std::io::Read>(reader: &mut R, n: u64) -> Result<(), CliError> {
    let copied = std::io::copy(&mut reader.by_ref().take(n), &mut std::io::sink())
        .map_err(|e| CliError::Io(e.to_string()))?;
    if copied != n {
        return Err(CliError::Io(format!(
            "input ended at byte {copied} while resuming from checkpoint offset {n}; \
             is this the same input?"
        )));
    }
    Ok(())
}
