//! Library half of the `jsonski` command-line tool: argument parsing and
//! the run loop, separated from `main` so they are unit-testable.

#![deny(missing_docs)]

use std::io::{Read, Write};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use jsonski::metrics::render_pairs;
use jsonski::{
    digest_parts, fingerprint, CancellationToken, Checkpoint, CheckpointCadence, ChunkedRecords,
    CountSink, EngineConfig, EngineError, ErrorPolicy, JsonSki, Kernel, Metrics, MetricsSnapshot,
    MultiQuery, Pipeline, PipelineSummary, RecordSource, ResourceLimits, RetryPolicy, SliceRecords,
    ValidationMode, FINGERPRINT_BYTES,
};

pub mod serve;
#[cfg(unix)]
pub mod signals;

/// Exit code for a run cancelled by a signal (128 + SIGINT by convention).
pub const EXIT_CANCELLED: u8 = 130;
/// Exit code for a run that completed but skipped records under
/// `--skip-malformed`.
pub const EXIT_SKIPPED: u8 = 3;

/// A CLI failure, classified so `main` can map it to a distinct exit code:
/// `0` success, `1` usage or I/O error, `2` fatal evaluation error,
/// `3` completed with skips, `130` cancelled by a signal.
#[derive(Debug)]
pub enum CliError {
    /// Bad flags, arguments, or query syntax (exit 1).
    Usage(String),
    /// `--help` was requested (exit 0; the caller prints [`usage`]).
    Help,
    /// Reading the input or writing the output failed (exit 1).
    Io(String),
    /// A record failed to evaluate under fail-fast (exit 2).
    Fatal(String),
}

impl CliError {
    /// The process exit code this error maps to.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Help => 0,
            CliError::Usage(_) | CliError::Io(_) => 1,
            CliError::Fatal(_) => 2,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Io(m) | CliError::Fatal(m) => f.write_str(m),
            CliError::Help => f.write_str(&usage()),
        }
    }
}

impl std::error::Error for CliError {}

fn engine_error_to_cli(e: &EngineError) -> CliError {
    match e {
        EngineError::Io(_) => CliError::Io(e.to_string()),
        _ => CliError::Fatal(e.to_string()),
    }
}

/// How a completed run went: the per-query match counts, the pipeline's
/// summary, and the counters of the run's metrics registry.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Matches per query, in query order.
    pub counts: Vec<usize>,
    /// What the pipeline merged: records, skips, resyncs, whether the run
    /// was stopped or cancelled, and the input offset it committed (short
    /// of the input length when `--limit` ended the scan early).
    pub summary: PipelineSummary,
    /// The registry behind `--metrics` and `--stats`, read after the run;
    /// `None` when neither flag was given.
    pub metrics: Option<MetricsSnapshot>,
}

impl RunReport {
    /// Records skipped under `--skip-malformed`: evaluation failures,
    /// limit rejections, and resynchronized spans.
    pub fn skipped(&self) -> u64 {
        self.summary.failed + self.summary.resyncs
    }

    /// The process exit code: `130` when cancelled, [`EXIT_SKIPPED`] when
    /// records were skipped, `0` otherwise.
    pub fn exit_code(&self) -> u8 {
        if self.summary.cancelled {
            EXIT_CANCELLED
        } else if self.skipped() > 0 {
            EXIT_SKIPPED
        } else {
            0
        }
    }
}

/// Cross-cutting run controls: cooperative cancellation and durable
/// checkpointing. [`RunControls::default`] disables both, which is what the
/// plain [`run`]/[`run_reader`] wrappers use.
#[derive(Clone, Debug, Default)]
pub struct RunControls {
    /// Checked at record boundaries; flipping it drains in-flight work and
    /// exits with [`EXIT_CANCELLED`].
    pub cancel: Option<CancellationToken>,
    /// Durable progress tracking.
    pub checkpoint: Option<CheckpointSetup>,
}

/// Where and how often to persist progress.
#[derive(Clone, Debug)]
pub struct CheckpointSetup {
    /// Checkpoint file path (written atomically: tmp + fsync + rename).
    pub path: PathBuf,
    /// Accumulated progress from previous segments (fresh for a new run,
    /// loaded from `path` under `--resume`).
    pub baseline: Checkpoint,
    /// Checkpoint every N delivered records.
    pub every: u64,
}

/// What is knowable about the input's identity for checkpoint validation.
/// All fields are `None` for unseekable stdin.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InputIdentity {
    /// Input length in bytes.
    pub len: Option<u64>,
    /// [`fingerprint`] of the first [`FINGERPRINT_BYTES`] bytes.
    pub head: Option<u64>,
    /// [`fingerprint`] of the last [`FINGERPRINT_BYTES`] bytes.
    pub tail: Option<u64>,
}

impl InputIdentity {
    /// Identity of an unseekable stream (nothing knowable).
    pub fn unknown() -> Self {
        InputIdentity::default()
    }

    /// Identity of an in-memory input.
    pub fn of_bytes(bytes: &[u8]) -> Self {
        let head_len = bytes.len().min(FINGERPRINT_BYTES);
        let tail_start = bytes.len().saturating_sub(FINGERPRINT_BYTES);
        InputIdentity {
            len: Some(bytes.len() as u64),
            head: Some(fingerprint(&bytes[..head_len])),
            tail: Some(fingerprint(&bytes[tail_start..])),
        }
    }

    /// Identity of a file on disk (reads at most 2×[`FINGERPRINT_BYTES`]).
    ///
    /// # Errors
    ///
    /// I/O errors opening or reading the file.
    pub fn of_file(path: &Path) -> std::io::Result<Self> {
        use std::io::{Seek, SeekFrom};
        let mut f = std::fs::File::open(path)?;
        let len = f.metadata()?.len();
        let mut head = vec![0u8; (len as usize).min(FINGERPRINT_BYTES)];
        f.read_exact(&mut head)?;
        let tail_start = len.saturating_sub(FINGERPRINT_BYTES as u64);
        f.seek(SeekFrom::Start(tail_start))?;
        let mut tail = vec![0u8; (len - tail_start) as usize];
        f.read_exact(&mut tail)?;
        Ok(InputIdentity {
            len: Some(len),
            head: Some(fingerprint(&head)),
            tail: Some(fingerprint(&tail)),
        })
    }
}

/// The digest binding a checkpoint to the query set, error policy,
/// validation mode, and forced kernel, so a resume under different
/// semantics is refused. Strictness matters because a Permissive run may
/// have committed records a Strict resume would reject; the kernel matters
/// because a forced-kernel run exists to test *that* kernel end to end.
pub fn config_digest(opts: &Options) -> u64 {
    let mut parts: Vec<String> = opts.queries.clone();
    parts.push(if opts.skip_malformed { "skip" } else { "fail" }.to_string());
    parts.push(
        match opts.validation {
            ValidationMode::Permissive => "permissive",
            ValidationMode::Strict => "strict",
        }
        .to_string(),
    );
    parts.push(match opts.kernel {
        Some(k) => format!("kernel={}", k.name()),
        None => "kernel=auto".to_string(),
    });
    digest_parts(&parts)
}

/// A validated plan for a (possibly resumed) checkpointed run.
#[derive(Clone, Debug)]
pub struct ResumePlan {
    /// Path, cadence, and accumulated baseline for the run.
    pub setup: CheckpointSetup,
    /// Input byte offset to start reading from (0 for a fresh run).
    pub start_offset: u64,
    /// The loaded checkpoint says the run already finished; there is
    /// nothing to do.
    pub complete: bool,
}

/// Builds the checkpoint plan for this invocation: a fresh baseline, or —
/// under `--resume` — the validated state loaded from the checkpoint file.
///
/// # Errors
///
/// [`CliError::Io`] when the checkpoint file cannot be read;
/// [`CliError::Usage`] when it belongs to a different query set / policy or
/// a different input.
pub fn prepare_checkpoint(
    opts: &Options,
    identity: &InputIdentity,
) -> Result<Option<ResumePlan>, CliError> {
    let Some(path) = &opts.checkpoint else {
        return Ok(None);
    };
    let path = PathBuf::from(path);
    let every = opts.checkpoint_every.unwrap_or(1024);
    let digest = config_digest(opts);
    if !opts.resume {
        let mut baseline = Checkpoint::new(digest);
        baseline.input_len = identity.len;
        baseline.fingerprint_head = identity.head;
        baseline.fingerprint_tail = identity.tail;
        return Ok(Some(ResumePlan {
            setup: CheckpointSetup {
                path,
                baseline,
                every,
            },
            start_offset: 0,
            complete: false,
        }));
    }
    let ck =
        Checkpoint::load(&path).map_err(|e| CliError::Io(format!("{}: {e}", path.display())))?;
    if ck.identity != digest {
        return Err(CliError::Usage(format!(
            "{}: checkpoint was written by a different query set, error policy, \
             validation mode, or kernel; refusing to resume",
            path.display()
        )));
    }
    let mismatch = |a: Option<u64>, b: Option<u64>| matches!((a, b), (Some(x), Some(y)) if x != y);
    if mismatch(ck.input_len, identity.len)
        || mismatch(ck.fingerprint_head, identity.head)
        || mismatch(ck.fingerprint_tail, identity.tail)
    {
        return Err(CliError::Usage(format!(
            "{}: checkpoint does not match this input (length or content changed); \
             refusing to resume",
            path.display()
        )));
    }
    Ok(Some(ResumePlan {
        start_offset: ck.offset,
        complete: ck.complete,
        setup: CheckpointSetup {
            path,
            baseline: ck,
            every,
        },
    }))
}

/// Output format for the `--metrics` engine-counter report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricsMode {
    /// Human-readable multi-line report.
    Text,
    /// Single-line JSON object.
    Json,
}

/// Parsed command-line options.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Options {
    /// The JSONPath expressions to evaluate (one or more).
    pub queries: Vec<String>,
    /// Input file, or `None` for stdin.
    pub file: Option<String>,
    /// Print only the match count(s).
    pub count_only: bool,
    /// Print fast-forward statistics to stderr after the run.
    pub stats: bool,
    /// Stop after this many matches (0 = unlimited).
    pub limit: usize,
    /// Pipeline workers (1 = serial).
    pub jobs: usize,
    /// Skip records that fail to evaluate instead of aborting.
    pub skip_malformed: bool,
    /// Print engine counters to stderr after the run, in this format.
    pub metrics: Option<MetricsMode>,
    /// Reject records larger than this many bytes (`None` = default cap).
    pub max_record_bytes: Option<usize>,
    /// Reject records nested deeper than this (`None` = default cap).
    pub max_depth: Option<usize>,
    /// Cap the streaming reader's buffer at this many bytes.
    pub max_buffer_bytes: Option<usize>,
    /// Retry budget for transient reader errors (`WouldBlock`/`TimedOut`).
    pub retry: u32,
    /// Persist progress to this checkpoint file.
    pub checkpoint: Option<String>,
    /// Checkpoint every N delivered records (default 1024).
    pub checkpoint_every: Option<u64>,
    /// Resume from the state in the `--checkpoint` file.
    pub resume: bool,
    /// How much well-formedness checking each record receives. `--strict`
    /// validates every byte — including fast-forwarded spans — for UTF-8,
    /// escape grammar, balanced structure, and trailing garbage.
    pub validation: ValidationMode,
    /// Force a specific classification kernel (`--kernel`) instead of the
    /// best one the CPU supports; used for differential verification.
    pub kernel: Option<Kernel>,
    /// How match lines are rendered (`--extract raw|typed`).
    pub extract: ExtractMode,
}

/// Match rendering mode for `--extract`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExtractMode {
    /// Emit the raw JSON span exactly as it appears in the input.
    #[default]
    Raw,
    /// Decode scalars on demand: string matches are unquoted and
    /// unescaped (a non-decodable string falls back to its raw span);
    /// numbers, booleans, `null`, and containers are emitted raw, which
    /// is already their typed textual form.
    Typed,
}

/// The one streaming engine of every run: every query in one shared pass
/// (a single query runs the plain `JsonSki` evaluator).
fn compile_engine(opts: &Options) -> Result<MultiQuery, CliError> {
    let queries: Vec<&str> = opts.queries.iter().map(String::as_str).collect();
    Ok(MultiQuery::compile(&queries)
        .map_err(|e| CliError::Usage(e.to_string()))?
        .with_config(opts.engine_config()))
}

impl Options {
    /// The [`ResourceLimits`] these options configure (defaults where no
    /// flag was given).
    fn limits(&self) -> ResourceLimits {
        let mut limits = ResourceLimits::default();
        if let Some(n) = self.max_record_bytes {
            limits = limits.max_record_bytes(n);
        }
        if let Some(n) = self.max_depth {
            limits = limits.max_depth(n);
        }
        if let Some(n) = self.max_buffer_bytes {
            limits = limits.max_buffer_bytes(n);
        }
        limits
    }

    /// What the pipeline does with a record that fails to evaluate.
    fn error_policy(&self) -> ErrorPolicy {
        if self.skip_malformed {
            ErrorPolicy::SkipMalformed
        } else {
            ErrorPolicy::FailFast
        }
    }

    /// The full [`EngineConfig`] these options configure: resource limits,
    /// validation mode, and any forced kernel.
    fn engine_config(&self) -> EngineConfig {
        EngineConfig::builder()
            .limits(self.limits())
            .validation(self.validation)
            .kernel(self.kernel)
            .build()
    }
}

/// Usage text, with the kernel list of this build.
pub fn usage() -> String {
    USAGE_TEMPLATE.replace("{kernels}", &kernel_names())
}

/// [`usage`] before the kernel list is filled in.
const USAGE_TEMPLATE: &str = "\
usage: jsonski [OPTIONS] QUERY [QUERY...] [FILE]
       jsonski serve [OPTIONS]        (see `jsonski serve --help`)

Streams JSONPath matches from FILE (or stdin) using bit-parallel
fast-forwarding. The input may be a single JSON record or a sequence of
whitespace/newline-separated records (e.g. JSON Lines).

options:
  -c, --count        print the number of matches instead of the matches
  -s, --stats        print fast-forward statistics to stderr
  -n, --limit N      stop after N matches
  -j, --jobs N       evaluate records on N parallel pipeline workers
                     (output order is still record order)
      --skip-malformed
                     skip records that fail to evaluate (reported on stderr)
                     instead of aborting the whole stream
      --extract MODE render matches as `raw` JSON spans (default) or
                     `typed`: string matches are printed unquoted and
                     unescaped; other values keep their JSON form
      --metrics FMT  print engine counters (fast-forward ratio, bitmap,
                     pipeline and robustness health) to stderr after the
                     run; FMT is `text` or `json`. With multiple queries on
                     file input each query is additionally re-measured.
      --max-record-bytes N
                     reject records larger than N bytes (default 256 MiB);
                     with --skip-malformed the stream keeps going
      --max-depth N  reject records nested deeper than N containers
      --max-buffer-bytes N
                     cap the streaming reader's buffer at N bytes, so a
                     record that never closes cannot exhaust memory
      --strict       validate every byte of every record — including spans
                     the engine fast-forwards over — for UTF-8
                     well-formedness, string escape grammar, balanced
                     structure, and trailing garbage; the first violation
                     aborts the record with its byte offset (skippable with
                     --skip-malformed)
      --kernel NAME  force the bitmap classification kernel (one of:
                     {kernels}) instead of auto-detecting the best
                     one; errors if this CPU does not support NAME.
                     Equivalent to setting JSONSKI_KERNEL=NAME
      --retry N      retry transient stream errors (would-block/timed-out)
                     up to N times per read before giving up
      --checkpoint PATH
                     persist progress to PATH (atomically rewritten as the
                     run advances) so an interrupted run can be resumed
      --checkpoint-every N
                     checkpoint every N delivered records (default 1024)
      --resume       continue from the state in the --checkpoint file,
                     skipping input the previous run already committed
  -h, --help         show this help

Multiple QUERY arguments are evaluated together in one streaming pass;
each match line is then prefixed with its query index.

exit codes: 0 success; 1 usage or I/O error; 2 a record failed to evaluate
(without --skip-malformed); 3 completed but skipped records; 130 cancelled
by SIGINT/SIGTERM (in-flight records finish, then progress is committed).

supported JSONPath: $  .name  ['name']  [n]  [m:n]  [*]  .*  ..name
..[n]  ..*  ['a','b']  [0,2]  [?(@.x > 1)]  (filters compare an element
or its @-path against a number, string, bool, or null)";

/// Parses argv-style arguments (program name excluded).
///
/// # Errors
///
/// [`CliError::Usage`] with a human-readable message for unknown flags or
/// missing arguments; [`CliError::Help`] for `--help`.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Options, CliError> {
    parse_args_inner(args).map_err(|e| {
        if e == HELP_SENTINEL {
            CliError::Help
        } else {
            CliError::Usage(e)
        }
    })
}

const HELP_SENTINEL: &str = "\u{1}help";

/// The names of the kernels compiled into this build, comma-separated,
/// for the help and error text of `--kernel`.
fn kernel_names() -> String {
    let names: Vec<&str> = Kernel::all().iter().map(|k| k.name()).collect();
    names.join(", ")
}

/// Parses the value of a `--kernel` flag: a kernel of this build that this
/// CPU supports.
pub(crate) fn parse_kernel(name: Option<String>) -> Result<Kernel, String> {
    let name = name.ok_or_else(|| format!("--kernel needs a name ({})", kernel_names()))?;
    let k = Kernel::from_name(&name)
        .ok_or_else(|| format!("unknown kernel: {name} ({})", kernel_names()))?;
    if !k.is_supported() {
        return Err(format!("kernel {name} is not supported on this CPU"));
    }
    Ok(k)
}

fn parse_args_inner<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
    let mut positional: Vec<String> = Vec::new();
    let mut opts = Options {
        queries: Vec::new(),
        file: None,
        count_only: false,
        stats: false,
        limit: 0,
        jobs: 1,
        skip_malformed: false,
        metrics: None,
        max_record_bytes: None,
        max_depth: None,
        max_buffer_bytes: None,
        retry: 0,
        checkpoint: None,
        checkpoint_every: None,
        resume: false,
        validation: ValidationMode::Permissive,
        kernel: None,
        extract: ExtractMode::Raw,
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-c" | "--count" => opts.count_only = true,
            "-s" | "--stats" => opts.stats = true,
            "-n" | "--limit" => {
                let v = it.next().ok_or("--limit needs a number")?;
                opts.limit = v.parse().map_err(|_| format!("bad limit: {v}"))?;
            }
            "-j" | "--jobs" => {
                let v = it.next().ok_or("--jobs needs a number")?;
                opts.jobs = v.parse().map_err(|_| format!("bad job count: {v}"))?;
                if opts.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--skip-malformed" => opts.skip_malformed = true,
            "--extract" => {
                let v = it.next().ok_or("--extract needs a mode (raw or typed)")?;
                opts.extract = match v.as_str() {
                    "raw" => ExtractMode::Raw,
                    "typed" => ExtractMode::Typed,
                    other => return Err(format!("unknown extract mode: {other} (raw or typed)")),
                };
            }
            "--metrics" => {
                let v = it.next().ok_or("--metrics needs a format (text or json)")?;
                opts.metrics = Some(match v.as_str() {
                    "text" => MetricsMode::Text,
                    "json" => MetricsMode::Json,
                    other => return Err(format!("bad metrics format: {other} (text or json)")),
                });
            }
            "--max-record-bytes" => {
                let v = it.next().ok_or("--max-record-bytes needs a number")?;
                let n: usize = v.parse().map_err(|_| format!("bad record cap: {v}"))?;
                if n == 0 {
                    return Err("--max-record-bytes must be at least 1".into());
                }
                opts.max_record_bytes = Some(n);
            }
            "--max-depth" => {
                let v = it.next().ok_or("--max-depth needs a number")?;
                let n: usize = v.parse().map_err(|_| format!("bad depth cap: {v}"))?;
                if n == 0 {
                    return Err("--max-depth must be at least 1".into());
                }
                opts.max_depth = Some(n);
            }
            "--max-buffer-bytes" => {
                let v = it.next().ok_or("--max-buffer-bytes needs a number")?;
                let n: usize = v.parse().map_err(|_| format!("bad buffer cap: {v}"))?;
                if n == 0 {
                    return Err("--max-buffer-bytes must be at least 1".into());
                }
                opts.max_buffer_bytes = Some(n);
            }
            "--retry" => {
                let v = it.next().ok_or("--retry needs a number")?;
                opts.retry = v.parse().map_err(|_| format!("bad retry count: {v}"))?;
            }
            "--checkpoint" => {
                let v = it.next().ok_or("--checkpoint needs a file path")?;
                opts.checkpoint = Some(v);
            }
            "--checkpoint-every" => {
                let v = it.next().ok_or("--checkpoint-every needs a number")?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("bad checkpoint cadence: {v}"))?;
                if n == 0 {
                    return Err("--checkpoint-every must be at least 1".into());
                }
                opts.checkpoint_every = Some(n);
            }
            "--resume" => opts.resume = true,
            "--strict" => opts.validation = ValidationMode::Strict,
            "--kernel" => opts.kernel = Some(parse_kernel(it.next())?),
            "-h" | "--help" => return Err(HELP_SENTINEL.to_string()),
            flag if flag.starts_with('-') && flag.len() > 1 => {
                return Err(format!("unknown option: {flag}\n\n{}", usage()));
            }
            _ => positional.push(arg),
        }
    }
    // Every leading positional that parses as a path is a query; at most
    // one trailing non-path positional is the input file.
    for (i, p) in positional.iter().enumerate() {
        if p.starts_with('$') {
            opts.queries.push(p.clone());
        } else if i == positional.len() - 1 {
            opts.file = Some(p.clone());
        } else {
            return Err(format!("queries must start with `$`: {p}"));
        }
    }
    if opts.queries.is_empty() {
        return Err(format!("no query given\n\n{}", usage()));
    }
    if opts.resume && opts.checkpoint.is_none() {
        return Err("--resume needs --checkpoint".into());
    }
    if opts.checkpoint_every.is_some() && opts.checkpoint.is_none() {
        return Err("--checkpoint-every needs --checkpoint".into());
    }
    Ok(opts)
}

fn write_counts(opts: &Options, counts: &[usize], out: &mut dyn Write) -> Result<(), String> {
    if opts.count_only {
        for (q, c) in opts.queries.iter().zip(counts) {
            writeln!(out, "{c}\t{q}").map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the `--metrics` report: one entry per individually-measured
/// query (may be empty on streamed multi-query input, where records cannot
/// be replayed) plus the aggregate counters of the live run. Text is one
/// `metrics[...]:` header per entry over its indented `engine_<name>
/// <value>` lines; JSON is one compact object of the same counters.
fn render_metrics(
    mode: MetricsMode,
    per_query: &[(String, MetricsSnapshot)],
    aggregate: &MetricsSnapshot,
) -> String {
    let mut s = String::new();
    if mode == MetricsMode::Text {
        let entries = per_query.iter().map(|(q, snap)| (q.as_str(), snap));
        for (q, snap) in entries.chain([("aggregate", aggregate)]) {
            s.push_str(&format!("metrics[{q}]:\n"));
            let _ = render_pairs(&mut s, &snap.pairs(), Some("  engine_"));
        }
        return s;
    }
    let queries: Vec<String> = per_query
        .iter()
        .map(|(q, snap)| {
            let entry = [
                ("query", format!("\"{}\"", json_escape(q))),
                ("metrics", snap.to_json()),
            ];
            let mut object = String::new();
            let _ = render_pairs(&mut object, &entry, None);
            object
        })
        .collect();
    let report = [
        ("queries", format!("[{}]", queries.join(","))),
        ("aggregate", aggregate.to_json()),
    ];
    let _ = render_pairs(&mut s, &report, None);
    s
}

fn emit_metrics(
    mode: MetricsMode,
    per_query: &[(String, MetricsSnapshot)],
    aggregate: &MetricsSnapshot,
) {
    eprint!("{}", render_metrics(mode, per_query, aggregate));
    if mode == MetricsMode::Json {
        eprintln!();
    }
}

/// Measures each query in isolation over the in-memory input with a fresh
/// [`Metrics`] registry, so a multi-query run can still report a
/// fast-forward ratio *per query* (the live combined pass only yields
/// aggregate counters). `--limit` applies only to the live pass.
fn measure_queries(
    opts: &Options,
    input: &[u8],
) -> Result<Vec<(String, MetricsSnapshot)>, CliError> {
    let mut out = Vec::with_capacity(opts.queries.len());
    for q in &opts.queries {
        let engine = JsonSki::compile(q)
            .map_err(|e| CliError::Usage(e.to_string()))?
            .with_config(opts.engine_config());
        let metrics = Arc::new(Metrics::new());
        Pipeline::new()
            .workers(1)
            .error_policy(opts.error_policy())
            .limits(opts.limits())
            .metrics(Arc::clone(&metrics))
            .run(
                &engine,
                &mut SliceRecords::new(input),
                &mut CountSink::default(),
            )
            .map_err(|e| engine_error_to_cli(&e))?;
        out.push((q.clone(), metrics.snapshot()));
    }
    Ok(out)
}

/// Runs the tool over an in-memory input, writing matches to `out`.
/// Returns the per-query match counts.
///
/// # Errors
///
/// Query-compilation, streaming, or I/O errors as strings.
pub fn run(opts: &Options, input: &[u8], out: &mut dyn Write) -> Result<Vec<usize>, String> {
    run_ctl(opts, input, out, &RunControls::default())
        .map(|r| r.counts)
        .map_err(|e| e.to_string())
}

/// [`run`] with [`RunControls`], reporting the whole [`RunReport`]. The
/// records come from [`SliceRecords`], so the `committed_offset` of an
/// early `--limit` exit stops short of the input length: the bytes after
/// it were never examined. (`main` reads checkpointed file input through
/// [`run_reader_ctl`], which can start at a resumed offset.)
///
/// # Errors
///
/// [`CliError`], classified for exit-code selection.
pub fn run_ctl(
    opts: &Options,
    input: &[u8],
    out: &mut dyn Write,
    controls: &RunControls,
) -> Result<RunReport, CliError> {
    let registry = registry(opts);
    let mut source = SliceRecords::new(input);
    run_records(opts, &mut source, Some(input), registry, out, controls)
}

/// Runs the tool over a streaming reader with bounded memory (used for
/// stdin): records are pulled one at a time via [`ChunkedRecords`], so the
/// process never holds the whole stream.
///
/// # Errors
///
/// Query-compilation, streaming, or I/O errors as strings.
pub fn run_reader<R: std::io::Read>(
    opts: &Options,
    reader: R,
    out: &mut dyn Write,
) -> Result<Vec<usize>, String> {
    run_reader_ctl(opts, reader, out, &RunControls::default())
        .map(|r| r.counts)
        .map_err(|e| e.to_string())
}

/// [`run_reader`] with [`RunControls`]. A checkpointed run keeps
/// whole-stream coordinates: the caller has already discarded the
/// checkpoint's `offset` bytes from the reader.
///
/// # Errors
///
/// [`CliError`], classified for exit-code selection.
pub fn run_reader_ctl<R: std::io::Read>(
    opts: &Options,
    reader: R,
    out: &mut dyn Write,
    controls: &RunControls,
) -> Result<RunReport, CliError> {
    let registry = registry(opts);
    let mut source = ChunkedRecords::new(reader)
        .limits(opts.limits())
        .retry(RetryPolicy::new(opts.retry));
    if let Some(m) = &registry {
        source = source.metrics(Arc::clone(m));
    }
    if let Some(token) = &controls.cancel {
        source = source.cancel_token(token.clone());
    }
    if let Some(setup) = &controls.checkpoint {
        source = source.start_offset(setup.baseline.offset);
    }
    run_records(opts, &mut source, None, registry, out, controls)
}

/// The one registry behind `--metrics` and `--stats`, when either asks.
fn registry(opts: &Options) -> Option<Arc<Metrics>> {
    (opts.metrics.is_some() || opts.stats).then(|| Arc::new(Metrics::new()))
}

/// The run loop of every input: one [`MultiQuery`] over `source` through
/// one [`Pipeline`] into one [`WriteSink`]. `input` is the whole input when
/// it is in memory, so multi-query `--metrics` can re-measure each query.
fn run_records(
    opts: &Options,
    source: &mut dyn RecordSource,
    input: Option<&[u8]>,
    registry: Option<Arc<Metrics>>,
    out: &mut dyn Write,
    controls: &RunControls,
) -> Result<RunReport, CliError> {
    let engine = compile_engine(opts)?;
    let mut pipeline = Pipeline::new()
        .workers(opts.jobs)
        .error_policy(opts.error_policy())
        .limits(opts.limits())
        .max_matches(opts.limit);
    if let Some(m) = &registry {
        pipeline = pipeline.metrics(Arc::clone(m));
    }
    if let Some(token) = &controls.cancel {
        pipeline = pipeline.cancel_token(token.clone());
    }
    let mut sink = WriteSink {
        out,
        count_only: opts.count_only,
        extract: opts.extract,
        prefix: opts.queries.len() > 1,
        counts: vec![0; opts.queries.len()],
        io_error: None,
        checkpoint: None,
    };
    if let Some(setup) = &controls.checkpoint {
        pipeline = pipeline.checkpoints(CheckpointCadence::default().every_records(setup.every));
        sink.checkpoint = Some(CheckpointState {
            path: setup.path.clone(),
            baseline: setup.baseline.clone(),
            staged: Vec::new(),
            flushed_bytes: setup.baseline.output_bytes,
        });
    }
    let summary = pipeline
        .run(&engine, source, &mut sink)
        .map_err(|e| engine_error_to_cli(&e))?;
    // Destructuring releases the sink's reborrow of `out` so the trailer
    // (counts line, final checkpoint) can write to it directly.
    let WriteSink {
        counts,
        io_error,
        checkpoint,
        ..
    } = sink;
    if let Some(err) = io_error {
        return Err(CliError::Io(err.to_string()));
    }
    // Each resynced span is one abandoned record.
    let skipped = summary.failed + summary.resyncs;
    if skipped > 0 {
        eprintln!("jsonski: skipped {skipped} malformed record(s)");
    }
    if summary.resyncs > 0 {
        eprintln!(
            "jsonski: resynchronized past {} broken span(s) ({} bytes discarded)",
            summary.resyncs, summary.resync_bytes
        );
    }
    write_counts(opts, &counts, out).map_err(CliError::Io)?;
    if let Some(state) = checkpoint {
        if !summary.cancelled {
            // The run finished on its own terms (end of stream or --limit):
            // mark the checkpoint complete so a later --resume is a no-op
            // instead of a partial re-run.
            let mut ck = state.baseline.advanced(&summary);
            ck.output_bytes = state.flushed_bytes;
            ck.complete = true;
            ck.save(&state.path)
                .map_err(|e| CliError::Io(format!("checkpoint save failed: {e}")))?;
        }
    }
    let metrics = registry.map(|m| m.snapshot());
    if let Some(snap) = &metrics {
        if opts.stats {
            eprintln!("fast-forward: {}", snap.fast_forward_stats());
        }
        if let Some(mode) = opts.metrics {
            // One query: the live pass *is* the per-query measurement.
            // Streamed records cannot be replayed, so several queries on
            // streamed input report the aggregate only.
            let per_query = match (&opts.queries[..], input) {
                ([q], _) => vec![(q.clone(), snap.clone())],
                (_, Some(input)) => measure_queries(opts, input)?,
                (_, None) => Vec::new(),
            };
            emit_metrics(mode, &per_query, snap);
        }
    }
    Ok(RunReport {
        counts,
        summary,
        metrics,
    })
}

/// Per-run checkpoint state carried by [`WriteSink`]. Matches are staged
/// in memory and only flushed to the output stream when a checkpoint is
/// persisted, so `output_bytes` in the file never overstates what reached
/// stdout — the invariant a resume harness truncates partial output to.
struct CheckpointState {
    path: PathBuf,
    baseline: Checkpoint,
    staged: Vec<u8>,
    flushed_bytes: u64,
}

/// [`jsonski::MatchSink`] that prints matches (one per line, prefixed with
/// the query ordinal and a tab when there are several queries) and counts
/// them per query.
struct WriteSink<'a> {
    out: &'a mut dyn Write,
    count_only: bool,
    extract: ExtractMode,
    prefix: bool,
    counts: Vec<usize>,
    io_error: Option<std::io::Error>,
    checkpoint: Option<CheckpointState>,
}

impl jsonski::MatchSink for WriteSink<'_> {
    fn on_match(&mut self, m: jsonski::Match<'_>) -> ControlFlow<()> {
        self.counts[m.query()] += 1;
        if self.count_only {
            return ControlFlow::Continue(());
        }
        let decoded;
        let bytes: &[u8] = match self.extract {
            ExtractMode::Raw => m.bytes(),
            ExtractMode::Typed => match m.value().as_str() {
                Ok(s) => {
                    decoded = s;
                    decoded.as_bytes()
                }
                Err(_) => m.bytes(),
            },
        };
        let out: &mut dyn Write = match &mut self.checkpoint {
            Some(state) => &mut state.staged,
            None => &mut *self.out,
        };
        let mut line = || {
            if self.prefix {
                write!(out, "{}\t", m.query())?;
            }
            out.write_all(bytes)?;
            out.write_all(b"\n")
        };
        match line() {
            Ok(()) => ControlFlow::Continue(()),
            Err(err) => {
                self.io_error = Some(err);
                ControlFlow::Break(())
            }
        }
    }

    fn on_checkpoint(&mut self, summary: &PipelineSummary) -> Result<(), EngineError> {
        let Some(state) = &mut self.checkpoint else {
            return Ok(());
        };
        // Flush the staged output first, then persist the file: a crash
        // between the two leaves the checkpoint behind the output (extra
        // bytes the harness truncates), never ahead of it.
        self.out
            .write_all(&state.staged)
            .and_then(|()| self.out.flush())
            .map_err(EngineError::Io)?;
        state.flushed_bytes += state.staged.len() as u64;
        state.staged.clear();
        let mut ck = state.baseline.advanced(summary);
        ck.output_bytes = state.flushed_bytes;
        ck.save(&state.path).map_err(EngineError::Io)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Options, String> {
        parse_args(v.iter().map(|s| s.to_string())).map_err(|e| e.to_string())
    }

    #[test]
    fn parses_query_and_file() {
        let o = args(&["$.a.b", "data.json"]).unwrap();
        assert_eq!(o.queries, vec!["$.a.b"]);
        assert_eq!(o.file.as_deref(), Some("data.json"));
        assert!(!o.count_only);
        assert_eq!(o.jobs, 1);
        assert!(!o.skip_malformed);
    }

    #[test]
    fn parses_flags_and_multiple_queries() {
        let o = args(&["-c", "$.a", "$[*].b", "-n", "5", "--stats"]).unwrap();
        assert_eq!(o.queries.len(), 2);
        assert!(o.count_only && o.stats);
        assert_eq!(o.limit, 5);
        assert_eq!(o.file, None);
    }

    #[test]
    fn parses_jobs_and_skip_malformed() {
        let o = args(&["-j", "8", "--skip-malformed", "$.a"]).unwrap();
        assert_eq!(o.jobs, 8);
        assert!(o.skip_malformed);
        assert!(args(&["--jobs", "0", "$.a"]).is_err());
        assert!(args(&["-j", "x", "$.a"]).is_err());
        assert!(args(&["-j"]).is_err());
    }

    #[test]
    fn parses_metrics_mode() {
        let o = args(&["--metrics", "text", "$.a"]).unwrap();
        assert_eq!(o.metrics, Some(MetricsMode::Text));
        let o = args(&["--metrics", "json", "$.a"]).unwrap();
        assert_eq!(o.metrics, Some(MetricsMode::Json));
        assert!(args(&["$.a"]).unwrap().metrics.is_none());
        assert!(args(&["--metrics", "xml", "$.a"]).is_err());
        assert!(args(&["--metrics"]).is_err());
    }

    #[test]
    fn parses_resource_guard_flags() {
        let o = args(&[
            "--max-record-bytes",
            "1024",
            "--max-depth",
            "8",
            "--max-buffer-bytes",
            "4096",
            "--retry",
            "3",
            "$.a",
        ])
        .unwrap();
        assert_eq!(o.max_record_bytes, Some(1024));
        assert_eq!(o.max_depth, Some(8));
        assert_eq!(o.max_buffer_bytes, Some(4096));
        assert_eq!(o.retry, 3);
        let l = o.limits();
        assert_eq!(l.max_record_bytes, 1024);
        assert_eq!(l.max_depth, 8);
        assert_eq!(l.max_buffer_bytes, 4096);
        // Defaults apply when no flag is given.
        let l = args(&["$.a"]).unwrap().limits();
        assert_eq!(l, ResourceLimits::default());
        assert!(args(&["--max-record-bytes", "0", "$.a"]).is_err());
        assert!(args(&["--max-depth", "x", "$.a"]).is_err());
        assert!(args(&["--max-buffer-bytes"]).is_err());
        assert!(args(&["--retry"]).is_err());
    }

    #[test]
    fn parses_extract_mode() {
        assert_eq!(args(&["$.a"]).unwrap().extract, ExtractMode::Raw);
        let o = args(&["--extract", "typed", "$.a"]).unwrap();
        assert_eq!(o.extract, ExtractMode::Typed);
        let o = args(&["--extract", "raw", "$.a"]).unwrap();
        assert_eq!(o.extract, ExtractMode::Raw);
        assert!(args(&["--extract", "json", "$.a"]).is_err());
        assert!(args(&["--extract"]).is_err());
    }

    #[test]
    fn typed_extraction_decodes_strings_and_keeps_other_values_raw() {
        let input = r#"{"name": "café \"x\"", "n": 7, "flag": true}"#.as_bytes();
        let typed = args(&["--extract", "typed", "$.*"]).unwrap();
        let mut out = Vec::new();
        let counts = run(&typed, input, &mut out).unwrap();
        assert_eq!(counts, vec![3]);
        assert_eq!(out, "café \"x\"\n7\ntrue\n".as_bytes());
        // The default raw mode is unchanged: spans verbatim.
        let raw = args(&["$.*"]).unwrap();
        let mut out = Vec::new();
        run(&raw, input, &mut out).unwrap();
        let mut want = r#""café \"x\"""#.as_bytes().to_vec();
        want.extend_from_slice(b"\n7\ntrue\n");
        assert_eq!(out, want);
    }

    #[test]
    fn typed_extraction_applies_on_reader_pipeline_path() {
        let input = b"{\"a\": \"x\\ny\"}\n{\"a\": \"plain\"}\n" as &[u8];
        let opts = args(&["--extract", "typed", "-j", "2", "$.a"]).unwrap();
        let mut out = Vec::new();
        let counts = run_reader(&opts, input, &mut out).unwrap();
        assert_eq!(counts, vec![2]);
        assert_eq!(out, b"x\ny\nplain\n");
    }

    #[test]
    fn record_size_cap_applies_to_in_memory_runs() {
        let input = b"{\"a\": 1}\n{\"a\": [1, 2, 3, 4, 5, 6, 7]}\n{\"a\": 3}\n";
        let strict = args(&["--max-record-bytes", "16", "$.a"]).unwrap();
        let mut out = Vec::new();
        let err = run(&strict, input, &mut out).unwrap_err();
        assert!(err.contains("max_record_bytes"), "{err}");
        let lenient = args(&["--max-record-bytes", "16", "--skip-malformed", "$.a"]).unwrap();
        let mut out = Vec::new();
        let counts = run(&lenient, input, &mut out).unwrap();
        assert_eq!(counts, vec![2]);
        assert_eq!(out, b"1\n3\n");
    }

    #[test]
    fn depth_cap_applies_on_descent() {
        let input = b"{\"a\": {\"b\": {\"c\": 1}}}\n{\"a\": {\"b\": {\"c\": 2}}}\n";
        let strict = args(&["--max-depth", "2", "$.a.b.c"]).unwrap();
        let mut out = Vec::new();
        assert!(run(&strict, input, &mut out).is_err());
        let roomy = args(&["--max-depth", "8", "$.a.b.c"]).unwrap();
        let mut out = Vec::new();
        assert_eq!(run(&roomy, input, &mut out).unwrap(), vec![2]);
    }

    #[test]
    fn in_memory_runs_resync_past_truncated_tail() {
        // A truncated final record breaks the boundary scan itself; with
        // --skip-malformed the run must resynchronize (here: consume the
        // broken tail), not abort and discard the clean records' output.
        let input = b"{\"a\": 1}\n{\"a\": 3}\n{\"a\": [1, 2";
        let strict = args(&["$.a"]).unwrap();
        let mut out = Vec::new();
        assert!(run(&strict, input, &mut out).is_err());
        let lenient = args(&["--skip-malformed", "$.a"]).unwrap();
        let mut out = Vec::new();
        let counts = run(&lenient, input, &mut out).unwrap();
        assert_eq!(counts, vec![2]);
        assert_eq!(out, b"1\n3\n");
    }

    #[test]
    fn metrics_do_not_disturb_output() {
        let input = b"{\"a\": [1, 2]}\n{\"a\": [3]}\n";
        for fmt in ["text", "json"] {
            let o = args(&["--metrics", fmt, "$.a[*]"]).unwrap();
            let mut out = Vec::new();
            let counts = run(&o, input, &mut out).unwrap();
            assert_eq!(counts, vec![3]);
            assert_eq!(out, b"1\n2\n3\n");
            // Multi-query triggers the per-query re-measuring pass.
            let o = args(&["--metrics", fmt, "$.a[*]", "$.a"]).unwrap();
            let mut out = Vec::new();
            let counts = run(&o, input, &mut out).unwrap();
            assert_eq!(counts, vec![3, 2]);
        }
    }

    #[test]
    fn metrics_render_reports_ff_ratio_per_query() {
        // `$.big[*]` walks the whole array; `$.a` skips over it — so the
        // per-query fast-forward ratios must come out ordered.
        let mut doc = String::from("{\"big\": [");
        for i in 0..32 {
            doc.push_str(&format!("{i}, "));
        }
        doc.push_str("99], \"a\": 1}\n");
        let input = doc.as_bytes();
        let per = measure_queries(&args(&["$.big[*]", "$.a"]).unwrap(), input).unwrap();
        assert_eq!(per.len(), 2);
        let json = render_metrics(MetricsMode::Json, &per, &per[0].1);
        assert!(json.starts_with("{\"queries\":["));
        assert!(json.contains("\"query\":\"$.big[*]\""));
        assert!(json.contains("\"query\":\"$.a\""));
        assert_eq!(json.matches("\"ff_ratio\"").count(), 3, "{json}");
        assert!(json.contains("\"aggregate\":{"));
        assert!(
            per[1].1.overall_ff_ratio() > per[0].1.overall_ff_ratio(),
            "$.a should fast-forward more than $.big[*]: {} vs {}",
            per[1].1.overall_ff_ratio(),
            per[0].1.overall_ff_ratio()
        );
        let text = render_metrics(MetricsMode::Text, &per, &per[0].1);
        assert!(text.contains("metrics[$.big[*]]:"));
        assert!(text.contains("metrics[aggregate]:"));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("$['a\"b\\c']"), "$['a\\\"b\\\\c']");
        assert_eq!(json_escape("a\nb"), "a\\u000ab");
    }

    #[test]
    fn measure_queries_respects_skip_malformed() {
        let input = b"{\"a\": 1}\n{\"a\" 2}\n{\"a\": 3}\n";
        assert!(measure_queries(&args(&["$.a"]).unwrap(), input).is_err());
        let lenient = args(&["--skip-malformed", "$.a"]).unwrap();
        let per = measure_queries(&lenient, input).unwrap();
        assert_eq!(per[0].1.records_skipped, 1);
        assert_eq!(per[0].1.records_failed, 1);
        assert_eq!(per[0].1.matches_emitted, 2);
    }

    #[test]
    fn rejects_bad_usage() {
        assert!(args(&[]).is_err());
        assert!(args(&["--wat"]).is_err());
        assert!(args(&["notapath"]).unwrap_err().contains("no query"));
        assert!(args(&["file.json", "$.a"]).is_err()); // file before query
        assert!(args(&["-n"]).is_err());
        assert!(args(&["-h"]).unwrap_err().contains("usage"));
    }

    #[test]
    fn run_single_query_prints_matches() {
        let o = args(&["$.a"]).unwrap();
        let mut out = Vec::new();
        let counts = run(&o, b"{\"a\": 1}\n{\"a\": \"x\"}\n{\"b\": 2}\n", &mut out).unwrap();
        assert_eq!(counts, vec![2]);
        assert_eq!(out, b"1\n\"x\"\n");
    }

    #[test]
    fn run_count_only() {
        let o = args(&["-c", "$.a"]).unwrap();
        let mut out = Vec::new();
        run(&o, b"{\"a\": 1} {\"a\": 2}", &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "2\t$.a\n");
    }

    #[test]
    fn run_multi_query_prefixes_index() {
        let o = args(&["$.a", "$.b"]).unwrap();
        let mut out = Vec::new();
        let counts = run(&o, br#"{"a": 1, "b": 2}"#, &mut out).unwrap();
        assert_eq!(counts, vec![1, 1]);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("0\t1"));
        assert!(text.contains("1\t2"));
    }

    #[test]
    fn run_respects_limit() {
        let o = args(&["-n", "2", "$[*]"]).unwrap();
        let mut out = Vec::new();
        let counts = run(&o, b"[1, 2, 3, 4]", &mut out).unwrap();
        assert_eq!(counts, vec![2]);
        assert_eq!(out, b"1\n2\n");
    }

    #[test]
    fn limit_stops_scanning_early() {
        // `--limit 1` must stop the byte scan, not just truncate the output:
        // the breaking match is in the first record, so everything after it
        // stays unexamined.
        let mut input = Vec::new();
        for i in 0..1000 {
            input.extend_from_slice(format!("{{\"a\": {i}}}\n").as_bytes());
        }
        let o = args(&["-n", "1", "$.a"]).unwrap();
        let mut out = Vec::new();
        let report = run_ctl(&o, &input, &mut out, &RunControls::default()).unwrap();
        assert_eq!(report.counts, vec![1]);
        assert!(report.summary.stopped);
        let consumed = report.summary.committed_offset;
        assert!(
            consumed < input.len() as u64 / 10,
            "consumed {consumed} of {} bytes",
            input.len()
        );
    }

    #[test]
    fn limit_stops_scanning_inside_one_large_record() {
        // One ~4 MiB array: `-n 1` must stop the engine inside the record,
        // through the pipeline, serial or not, from memory or a reader.
        let mut input = b"[".to_vec();
        while input.len() < 4 << 20 {
            input.extend_from_slice(b"12345, ");
        }
        input.extend_from_slice(b"0]\n");
        let words = (input.len() / 64) as u64;
        for jobs in ["1", "2"] {
            let o = args(&["-j", jobs, "-n", "1", "--stats", "$[*]"]).unwrap();
            for from_reader in [false, true] {
                let mut out = Vec::new();
                let report = if from_reader {
                    run_reader_ctl(&o, &input[..], &mut out, &RunControls::default())
                } else {
                    run_ctl(&o, &input, &mut out, &RunControls::default())
                }
                .unwrap();
                assert_eq!(out, b"12345\n");
                assert!(report.summary.stopped);
                let classified = report.metrics.unwrap().words_classified;
                assert!(
                    classified * 100 < words,
                    "-j {jobs} (reader: {from_reader}): classified {classified} of {words} words"
                );
            }
        }
    }

    #[test]
    fn skip_malformed_discards_partial_matches() {
        // `{"a": [3, 30}` streams a match ("3") before the engine reaches
        // the malformed close: a skipped record must contribute *nothing*
        // to the output or counts, exactly like the parallel pipeline.
        let input = b"{\"a\": [1, 2]}\n{\"a\": [3, 30}\n{\"a\": [5, 6]}\n";
        let o = args(&["--skip-malformed", "$.a[*]"]).unwrap();
        let mut out = Vec::new();
        let counts = run(&o, input, &mut out).unwrap();
        assert_eq!(counts, vec![4]);
        assert_eq!(out, b"1\n2\n5\n6\n");
        let mut out = Vec::new();
        let counts = run_reader(&o, &input[..], &mut out).unwrap();
        assert_eq!(counts, vec![4]);
        assert_eq!(out, b"1\n2\n5\n6\n");
    }

    #[test]
    fn run_reports_malformed_input() {
        let o = args(&["$.a"]).unwrap();
        let mut out = Vec::new();
        assert!(run(&o, br#"{"a": [1, 2"#, &mut out).is_err());
    }

    #[test]
    fn skip_malformed_keeps_going() {
        let input = b"{\"a\": 1}\n{\"a\" 2}\n{\"a\": 3}\n";
        let strict = args(&["$.a"]).unwrap();
        let mut out = Vec::new();
        assert!(run(&strict, input, &mut out).is_err());
        let lenient = args(&["--skip-malformed", "$.a"]).unwrap();
        let mut out = Vec::new();
        let counts = run(&lenient, input, &mut out).unwrap();
        assert_eq!(counts, vec![2]);
        assert_eq!(out, b"1\n3\n");
    }

    #[test]
    fn parses_strict_and_kernel_flags() {
        let o = args(&["$.a"]).unwrap();
        assert_eq!(o.validation, ValidationMode::Permissive);
        assert_eq!(o.kernel, None);
        let o = args(&["--strict", "$.a"]).unwrap();
        assert_eq!(o.validation, ValidationMode::Strict);
        let o = args(&["--kernel", "swar", "$.a"]).unwrap();
        assert_eq!(o.kernel, Some(Kernel::Swar));
        assert!(args(&["--kernel", "wat", "$.a"])
            .unwrap_err()
            .contains("unknown kernel"));
        assert!(args(&["--kernel"]).is_err());
    }

    #[test]
    fn strict_flag_rejects_faults_in_skipped_spans() {
        // The fault (a raw 0xFF inside the "skip" attribute's string) sits
        // in a span `$.a` fast-forwards over: Permissive streams the match,
        // --strict reports the offending byte, and --strict
        // --skip-malformed drops the record but keeps the stream alive.
        let mut input = b"{\"skip\": \"a?b\", \"a\": 1}\n{\"a\": 2}\n".to_vec();
        input[11] = 0xFF;
        let permissive = args(&["$.a"]).unwrap();
        let mut out = Vec::new();
        assert_eq!(run(&permissive, &input, &mut out).unwrap(), vec![2]);
        assert_eq!(out, b"1\n2\n");
        let strict = args(&["--strict", "$.a"]).unwrap();
        let mut out = Vec::new();
        let err = run(&strict, &input, &mut out).unwrap_err();
        assert!(err.contains("byte 11"), "{err}");
        let mut out = Vec::new();
        let err = run_reader(&strict, &input[..], &mut out).unwrap_err();
        assert!(err.contains("byte 11"), "{err}");
        let lenient = args(&["--strict", "--skip-malformed", "$.a"]).unwrap();
        for jobs in [None, Some(4)] {
            let mut argv = vec!["--strict".to_string(), "--skip-malformed".to_string()];
            if let Some(j) = jobs {
                argv.extend(["-j".to_string(), j.to_string()]);
            }
            argv.push("$.a".to_string());
            let o = parse_args(argv).unwrap();
            let mut out = Vec::new();
            assert_eq!(run_reader(&o, &input[..], &mut out).unwrap(), vec![1]);
            assert_eq!(out, b"2\n", "jobs={jobs:?}");
        }
        let mut out = Vec::new();
        assert_eq!(run(&lenient, &input, &mut out).unwrap(), vec![1]);
        assert_eq!(out, b"2\n");
    }

    #[test]
    fn forced_kernel_output_matches_auto() {
        let input = b"{\"skip\": [1, 2, 3], \"a\": {\"b\": \"deep\"}}\n{\"a\": {\"b\": 7}}\n";
        let auto = args(&["$.a.b"]).unwrap();
        let mut expect = Vec::new();
        let reference = run(&auto, input, &mut expect).unwrap();
        for &k in Kernel::all() {
            if !k.is_supported() {
                continue;
            }
            for extra in [vec![], vec!["--strict"]] {
                let mut argv = vec!["--kernel".to_string(), k.name().to_string()];
                argv.extend(extra.iter().map(|s| (*s).to_string()));
                argv.push("$.a.b".to_string());
                let o = parse_args(argv).unwrap();
                let mut out = Vec::new();
                let counts = run(&o, input, &mut out).unwrap();
                assert_eq!(counts, reference, "kernel {k:?} strict={extra:?}");
                assert_eq!(out, expect, "kernel {k:?} strict={extra:?}");
            }
        }
    }

    #[test]
    fn resume_refuses_changed_validation_or_kernel() {
        let path = std::env::temp_dir().join(format!(
            "jsonski-cli-resume-{}-{:?}.ck",
            std::process::id(),
            std::thread::current().id()
        ));
        let input = b"{\"a\": 1}\n{\"a\": 2}\n";
        let identity = InputIdentity::of_bytes(input);
        let base = args(&["--checkpoint", path.to_str().unwrap(), "$.a"]).unwrap();
        // A fresh (non-resume) run plans a baseline bound to the current
        // validation mode and kernel; persist it as the interrupted state.
        let plan = prepare_checkpoint(&base, &identity).unwrap().unwrap();
        plan.setup.baseline.save(&plan.setup.path).unwrap();
        // Resuming with identical semantics is accepted.
        let mut resume = base.clone();
        resume.resume = true;
        assert!(prepare_checkpoint(&resume, &identity).is_ok());
        // Changing strictness or forcing a kernel changes what the run
        // would have accepted, so the resume must be refused.
        let mut strict = resume.clone();
        strict.validation = ValidationMode::Strict;
        let mut forced = resume.clone();
        forced.kernel = Some(Kernel::Swar);
        for opts in [&strict, &forced] {
            match prepare_checkpoint(opts, &identity) {
                Err(CliError::Usage(msg)) => {
                    assert!(msg.contains("refusing to resume"), "{msg}")
                }
                other => panic!("expected refusal, got {other:?}"),
            }
        }
        // And a matching strict baseline resumes under strict options.
        let plan = prepare_checkpoint(&strict, &identity);
        assert!(plan.is_err()); // still bound to the old file...
        std::fs::remove_file(&path).unwrap();
        let mut fresh_strict = strict.clone();
        fresh_strict.resume = false;
        let plan = prepare_checkpoint(&fresh_strict, &identity)
            .unwrap()
            .unwrap();
        plan.setup.baseline.save(&plan.setup.path).unwrap();
        assert!(prepare_checkpoint(&strict, &identity).is_ok());
        std::fs::remove_file(&path).unwrap();
    }
}

#[cfg(test)]
mod reader_tests {
    use super::*;

    #[test]
    fn run_reader_matches_run_on_same_input() {
        let input = b"{\"a\": 1}\n{\"a\": 2}\n{\"b\": {\"a\": 3}}\n";
        let o = parse_args(["$.a".to_string()]).unwrap();
        let mut out_mem = Vec::new();
        let c1 = run(&o, input, &mut out_mem).unwrap();
        let mut out_stream = Vec::new();
        let c2 = run_reader(&o, &input[..], &mut out_stream).unwrap();
        assert_eq!(c1, c2);
        assert_eq!(out_mem, out_stream);
    }

    #[test]
    fn run_reader_multi_query() {
        let input = b"{\"a\": 1, \"b\": 2}\n{\"a\": 3}\n";
        let o = parse_args(["$.a".to_string(), "$.b".to_string()]).unwrap();
        let mut out = Vec::new();
        let counts = run_reader(&o, &input[..], &mut out).unwrap();
        assert_eq!(counts, vec![2, 1]);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("0\t1") && text.contains("1\t2") && text.contains("0\t3"));
    }

    #[test]
    fn run_reader_limit_and_count() {
        let input = b"[1,2,3] [4,5] [6]";
        let o = parse_args(["-c".into(), "-n".into(), "4".into(), "$[*]".into()]).unwrap();
        let mut out = Vec::new();
        let counts = run_reader(&o, &input[..], &mut out).unwrap();
        assert_eq!(counts, vec![4]);
    }

    #[test]
    fn run_reader_propagates_malformed() {
        let o = parse_args(["$.a".to_string()]).unwrap();
        let mut out = Vec::new();
        assert!(run_reader(&o, &b"{\"a\": [1,"[..], &mut out).is_err());
    }

    /// A reader whose every odd-numbered attempt fails with `WouldBlock`
    /// and whose successful reads are short — a transiently-unhealthy pipe.
    struct Flaky<'a> {
        data: &'a [u8],
        pos: usize,
        attempts: u64,
    }

    impl std::io::Read for Flaky<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.attempts += 1;
            if self.attempts % 2 == 1 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "transient",
                ));
            }
            let k = buf.len().min(3).min(self.data.len() - self.pos);
            buf[..k].copy_from_slice(&self.data[self.pos..self.pos + k]);
            self.pos += k;
            Ok(k)
        }
    }

    #[test]
    fn retry_flag_survives_transient_errors() {
        let input = b"{\"a\": 1}\n{\"a\": 2}\n";
        let flaky = |d: &'static [u8]| Flaky {
            data: d,
            pos: 0,
            attempts: 0,
        };
        let no_retry = parse_args(["$.a".to_string()]).unwrap();
        let mut out = Vec::new();
        assert!(run_reader(&no_retry, flaky(input), &mut out).is_err());
        let with_retry = parse_args(["--retry".into(), "1".into(), "$.a".into()]).unwrap();
        let mut out = Vec::new();
        let counts = run_reader(&with_retry, flaky(input), &mut out).unwrap();
        assert_eq!(counts, vec![2]);
        assert_eq!(out, b"1\n2\n");
    }

    #[test]
    fn run_reader_skips_oversized_records() {
        let input = b"{\"a\": 1}\n{\"a\": [1, 2, 3, 4, 5, 6, 7]}\n{\"a\": 3}\n";
        let strict = parse_args([
            "--max-record-bytes".to_string(),
            "16".to_string(),
            "$.a".to_string(),
        ])
        .unwrap();
        let mut out = Vec::new();
        let err = run_reader(&strict, &input[..], &mut out).unwrap_err();
        assert!(err.contains("max_record_bytes"), "{err}");
        // The serial reader and the worker pipeline must agree: the
        // oversized middle record is skipped precisely, its neighbours
        // delivered.
        for jobs in [None, Some(4)] {
            let mut argv = vec![
                "--max-record-bytes".to_string(),
                "16".to_string(),
                "--skip-malformed".to_string(),
            ];
            if let Some(j) = jobs {
                argv.extend(["-j".to_string(), j.to_string()]);
            }
            argv.push("$.a".to_string());
            let o = parse_args(argv).unwrap();
            let mut out = Vec::new();
            let counts = run_reader(&o, &input[..], &mut out).unwrap();
            assert_eq!(counts, vec![2], "jobs={jobs:?}");
            assert_eq!(out, b"1\n3\n", "jobs={jobs:?}");
        }
    }

    #[test]
    fn run_reader_resyncs_past_truncated_tail() {
        let input = b"{\"a\": 1}\n{\"a\": 3}\n{\"a\": [1, 2";
        for jobs in ["1", "4"] {
            let strict =
                parse_args(["-j".to_string(), jobs.to_string(), "$.a".to_string()]).unwrap();
            let mut out = Vec::new();
            assert!(run_reader(&strict, &input[..], &mut out).is_err());
            let lenient = parse_args([
                "-j".to_string(),
                jobs.to_string(),
                "--skip-malformed".to_string(),
                "$.a".to_string(),
            ])
            .unwrap();
            let mut out = Vec::new();
            let counts = run_reader(&lenient, &input[..], &mut out).unwrap();
            assert_eq!(counts, vec![2], "jobs={jobs}");
            assert_eq!(out, b"1\n3\n", "jobs={jobs}");
        }
    }

    #[test]
    fn run_reader_parallel_output_matches_serial() {
        let mut input = Vec::new();
        for i in 0..200 {
            input.extend_from_slice(format!("{{\"a\": [{i}, {i}]}}\n").as_bytes());
        }
        let serial = parse_args(["$.a[*]".to_string()]).unwrap();
        let mut out_serial = Vec::new();
        let c1 = run_reader(&serial, &input[..], &mut out_serial).unwrap();
        let parallel = parse_args(["-j".into(), "4".into(), "$.a[*]".into()]).unwrap();
        let mut out_parallel = Vec::new();
        let c2 = run_reader(&parallel, &input[..], &mut out_parallel).unwrap();
        assert_eq!(c1, c2);
        assert_eq!(out_serial, out_parallel, "merge must preserve record order");
    }

    #[test]
    fn run_reader_parallel_skip_malformed() {
        let input = b"{\"a\": 1}\n{\"a\" 2}\n{\"a\": 3}\n";
        let strict = parse_args(["-j".into(), "4".into(), "$.a".into()]).unwrap();
        let mut out = Vec::new();
        assert!(run_reader(&strict, &input[..], &mut out).is_err());
        let lenient = parse_args([
            "-j".into(),
            "4".into(),
            "--skip-malformed".into(),
            "$.a".into(),
        ])
        .unwrap();
        let mut out = Vec::new();
        let counts = run_reader(&lenient, &input[..], &mut out).unwrap();
        assert_eq!(counts, vec![2]);
        assert_eq!(out, b"1\n3\n");
    }

    #[test]
    fn metrics_and_stats_work_with_pipeline() {
        let mut input = Vec::new();
        for i in 0..50 {
            input.extend_from_slice(format!("{{\"a\": [{i}, {i}]}}\n").as_bytes());
        }
        // --metrics json and --stats both ride on the shared registry now,
        // including under --jobs > 1; output must be unaffected either way.
        let plain = parse_args(["-c".into(), "$.a[*]".into()]).unwrap();
        let mut expect = Vec::new();
        run_reader(&plain, &input[..], &mut expect).unwrap();
        for extra in [
            vec!["--metrics", "json", "-j", "4"],
            vec!["--metrics", "text", "-j", "1"],
            vec!["--stats", "-j", "4"],
        ] {
            let mut argv: Vec<String> = vec!["-c".into()];
            argv.extend(extra.iter().map(|s| (*s).to_string()));
            argv.push("$.a[*]".into());
            let o = parse_args(argv).unwrap();
            let mut out = Vec::new();
            let counts = run_reader(&o, &input[..], &mut out).unwrap();
            assert_eq!(counts, vec![100]);
            assert_eq!(out, expect);
        }
    }

    #[test]
    fn run_reader_parallel_respects_limit() {
        let mut input = Vec::new();
        for i in 0..100 {
            input.extend_from_slice(format!("{{\"a\": {i}}}\n").as_bytes());
        }
        let o = parse_args([
            "-j".into(),
            "4".into(),
            "-n".into(),
            "3".into(),
            "$.a".into(),
        ])
        .unwrap();
        let mut out = Vec::new();
        let counts = run_reader(&o, &input[..], &mut out).unwrap();
        assert_eq!(counts, vec![3]);
        assert_eq!(out, b"0\n1\n2\n");
    }
}
