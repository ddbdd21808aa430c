//! The `jsonski serve` subcommand: argument parsing and the daemon run
//! loop, bridging the CLI's signal handling and exit-code contract onto
//! [`jsonski_serve::Server`].

use std::time::Duration;

use jsonski::{EngineConfig, ErrorPolicy, Kernel, ResourceLimits, ValidationMode};
use jsonski_serve::{ServeConfig, Server};

use crate::{CliError, EXIT_CANCELLED};

/// Default TCP listen address when neither `--listen` nor `--unix` is
/// given.
pub const DEFAULT_LISTEN: &str = "127.0.0.1:9649";

/// Help text for `jsonski serve`, with the kernel list of this build.
pub fn serve_usage() -> String {
    SERVE_USAGE_TEMPLATE.replace("{kernels}", &crate::kernel_names())
}

/// [`serve_usage`] before the kernel list is filled in.
const SERVE_USAGE_TEMPLATE: &str = "\
usage: jsonski serve [OPTIONS]

Runs a long-lived query-service daemon. Clients speak a length-prefixed
framed protocol: each frame is a 4-byte big-endian payload length, then a
JSON header line ({\"op\", \"id\", \"tenant\", \"query\", \"deadline_ms\"}),
then the raw NDJSON body to evaluate. Responses mirror the shape with an
HTTP-style code (200 ok, 408 timeout, 429 shed, 422 eval failure, 503
draining) and the match lines as the body. See DESIGN.md §12.

options:
  --listen ADDR      TCP listen address (default 127.0.0.1:9649; use port
                     0 for an ephemeral port). The bound address is
                     printed to stderr as `jsonski: listening on ADDR`.
  --unix PATH        listen on a unix-domain socket instead of TCP
  --workers N        evaluation worker threads (default 4)
  --queue N          admission watermark: maximum admitted-but-unfinished
                     requests before shedding with 429 queue_full
                     (default 64)
  --tenant-quota N   maximum in-flight requests per tenant before
                     shedding with 429 tenant_quota (default 16)
  --deadline-ms N    default per-request deadline when the client names
                     none (default 2000)
  --max-deadline-ms N
                     hard cap on client-requested deadlines (default 30000)
  --read-timeout-ms N
                     socket read timeout, one tick of the slow-loris
                     clock (default 250)
  --stall-budget N   mid-frame read timeouts tolerated before the
                     connection is closed (default 4)
  --write-timeout-ms N
                     socket write timeout, one tick of the response-write
                     stall clock (default 250)
  --write-stall-budget N
                     mid-response write timeouts tolerated before a
                     non-draining client's connection is closed
                     (default 8)
  --corpus-dir DIR   serve requests whose header names a `\"corpus\"` file
                     stored under DIR (the body is then ignored); unknown
                     names answer 404 not_found
  --index-cache DIR  persist structural indexes (record spans + bitmaps)
                     for stored corpora under DIR: repeat queries skip
                     classification entirely, and a damaged or stale index
                     file silently falls back to full classification and
                     rebuilds in the background (requires --corpus-dir)
  --index-warm       build (or load) the structural index for every stored
                     corpus at startup, before the listener accepts
                     traffic, so the first query of each corpus is already
                     fast; per-corpus progress is logged to stderr
                     (requires --corpus-dir)
  --memory-budget BYTES
                     global tracked-memory budget for resident request
                     bodies, corpora, indexes, compiled queries, and
                     response buffers. Under pressure the server degrades
                     in order: evict caches, force chunked streaming,
                     then shed with 429 memory (default 0 = unlimited,
                     usage still tracked in mem_* gauges)
  --tenant-memory-budget BYTES
                     per-tenant share of the memory budget; a tenant at
                     its cap sheds with 429 memory while others proceed
                     (default 0 = no per-tenant cap)
  --chunk-bytes N    chunk size for streamed responses — the server's
                     high-water response buffer per stream-opted request
                     (default 262144)
  --max-frame-bytes N
                     largest accepted request frame (default 16 MiB)
  --cache N          compiled-query LRU cache capacity (default 128;
                     0 disables)
  --metrics-endpoint serve `op: \"metrics\"` scrapes (text or JSON) with
                     serve counters, cache hit rates, and the engine's
                     metrics registry
  --skip-malformed   skip records in request bodies that fail to evaluate
                     (counted in the response header) instead of failing
                     the request with 422
  --strict           validate request bodies byte-for-byte (UTF-8, escape
                     grammar, balanced structure) — see `jsonski --help`
  --kernel NAME      force the bitmap classification kernel (one of:
                     {kernels}); JSONSKI_KERNEL overrides
  --max-record-bytes N
                     reject body records larger than N bytes
  --max-depth N      reject body records nested deeper than N containers
  -h, --help         show this help

exit codes: 0 clean shutdown; 1 usage or bind error; 130 drained after
SIGINT/SIGTERM (in-flight requests finish, new ones get 503, then the
process exits).";

/// Parsed `jsonski serve` options.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// TCP listen address (ignored when `unix` is set).
    pub listen: String,
    /// Unix-domain socket path, when serving over one.
    pub unix: Option<String>,
    /// Assembled server configuration.
    pub config: ServeConfig,
}

/// Parses `jsonski serve` arguments (everything after the subcommand
/// word).
///
/// # Errors
///
/// [`CliError::Usage`] for unknown flags or malformed values;
/// [`CliError::Help`] for `--help`.
pub fn parse_serve_args<I: IntoIterator<Item = String>>(args: I) -> Result<ServeOptions, CliError> {
    parse_inner(args).map_err(|e| {
        if e == "\u{1}help" {
            CliError::Help
        } else {
            CliError::Usage(e)
        }
    })
}

fn parse_inner<I: IntoIterator<Item = String>>(args: I) -> Result<ServeOptions, String> {
    let mut opts = ServeOptions {
        listen: DEFAULT_LISTEN.to_string(),
        unix: None,
        config: ServeConfig::default(),
    };
    let mut validation = ValidationMode::Permissive;
    let mut kernel: Option<Kernel> = None;
    let mut limits = ResourceLimits::default();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            it.next()
                .ok_or(format!("{name} needs a value"))?
                .parse::<u64>()
                .map_err(|_| format!("{name} needs a non-negative integer"))
        };
        match flag.as_str() {
            "--listen" => opts.listen = it.next().ok_or("--listen needs an address")?,
            "--unix" => opts.unix = Some(it.next().ok_or("--unix needs a path")?),
            "--workers" => opts.config.workers = num("--workers")?.max(1) as usize,
            "--queue" => opts.config.max_queue = num("--queue")?.max(1) as usize,
            "--tenant-quota" => opts.config.tenant_quota = num("--tenant-quota")?.max(1) as usize,
            "--deadline-ms" => {
                opts.config.default_deadline = Duration::from_millis(num("--deadline-ms")?)
            }
            "--max-deadline-ms" => {
                opts.config.max_deadline = Duration::from_millis(num("--max-deadline-ms")?)
            }
            "--read-timeout-ms" => {
                let ms = num("--read-timeout-ms")?.max(1);
                opts.config.read_timeout = Duration::from_millis(ms);
            }
            "--stall-budget" => opts.config.stall_budget = num("--stall-budget")? as u32,
            "--write-timeout-ms" => {
                let ms = num("--write-timeout-ms")?.max(1);
                opts.config.write_timeout = Duration::from_millis(ms);
            }
            "--write-stall-budget" => {
                opts.config.write_stall_budget = num("--write-stall-budget")? as u32
            }
            "--corpus-dir" => {
                let dir = it.next().ok_or("--corpus-dir needs a directory")?;
                opts.config.corpus_dir = Some(std::path::PathBuf::from(dir));
            }
            "--index-cache" => {
                let dir = it.next().ok_or("--index-cache needs a directory")?;
                opts.config.index_cache = Some(std::path::PathBuf::from(dir));
            }
            "--index-warm" => opts.config.index_warm = true,
            "--memory-budget" => {
                opts.config.memory_budget = num("--memory-budget")? as usize;
            }
            "--tenant-memory-budget" => {
                opts.config.tenant_memory_budget = num("--tenant-memory-budget")? as usize;
            }
            "--chunk-bytes" => opts.config.chunk_bytes = num("--chunk-bytes")?.max(16) as usize,
            "--max-frame-bytes" => {
                opts.config.max_frame_bytes = num("--max-frame-bytes")?.max(64) as usize
            }
            "--cache" => opts.config.cache_capacity = num("--cache")? as usize,
            "--metrics-endpoint" => opts.config.metrics_endpoint = true,
            "--skip-malformed" => opts.config.error_policy = ErrorPolicy::SkipMalformed,
            "--strict" => validation = ValidationMode::Strict,
            "--kernel" => kernel = Some(crate::parse_kernel(it.next())?),
            "--max-record-bytes" => {
                limits = limits.max_record_bytes(num("--max-record-bytes")?.max(1) as usize)
            }
            "--max-depth" => limits = limits.max_depth(num("--max-depth")?.max(1) as usize),
            "-h" | "--help" => return Err("\u{1}help".to_string()),
            other => {
                return Err(format!(
                    "unknown serve option: {other}\n\n{}",
                    serve_usage()
                ))
            }
        }
    }
    if opts.config.index_cache.is_some() && opts.config.corpus_dir.is_none() {
        return Err(format!(
            "--index-cache requires --corpus-dir\n\n{}",
            serve_usage()
        ));
    }
    if opts.config.index_warm && opts.config.corpus_dir.is_none() {
        return Err(format!(
            "--index-warm requires --corpus-dir\n\n{}",
            serve_usage()
        ));
    }
    opts.config.engine_config = EngineConfig::builder()
        .limits(limits)
        .validation(validation)
        .kernel(kernel)
        .build();
    opts.config.limits = limits;
    Ok(opts)
}

/// Binds and runs the daemon until a signal-initiated drain, translating
/// the outcome to the CLI exit-code contract: `0` for a programmatic
/// shutdown, [`EXIT_CANCELLED`] (130) after a SIGINT/SIGTERM drain.
///
/// # Errors
///
/// [`CliError::Io`] when binding or running the listener fails.
pub fn run_serve(opts: &ServeOptions) -> Result<u8, CliError> {
    let server = match &opts.unix {
        #[cfg(unix)]
        Some(path) => Server::bind_unix(path, opts.config.clone())
            .map_err(|e| CliError::Io(format!("{path}: {e}")))?,
        #[cfg(not(unix))]
        Some(_) => {
            return Err(CliError::Usage(
                "--unix is not supported on this platform".into(),
            ))
        }
        None => Server::bind_tcp(&opts.listen, opts.config.clone())
            .map_err(|e| CliError::Io(format!("{}: {e}", opts.listen)))?,
    };
    // Machine-parseable: tests (and humans) discover ephemeral ports here.
    eprintln!("jsonski: listening on {}", server.local_addr());
    let token = server.shutdown_token();
    #[cfg(unix)]
    let signalled = crate::signals::install(token.clone());
    #[cfg(not(unix))]
    let signalled = false;
    let summary = server
        .run()
        .map_err(|e| CliError::Io(format!("serve: {e}")))?;
    eprintln!(
        "jsonski: drained; {} requests ({} ok, {} shed, {} timeouts, {} panics)",
        summary.requests, summary.ok, summary.shed, summary.timeouts, summary.panics
    );
    // `run` returns only after the shutdown token tripped; when the signal
    // handler is what tripped it, honor the cancellation exit code.
    Ok(if signalled && token.is_cancelled() {
        EXIT_CANCELLED
    } else {
        0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ServeOptions, CliError> {
        parse_serve_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_sane() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts.listen, DEFAULT_LISTEN);
        assert!(opts.unix.is_none());
        assert_eq!(opts.config.workers, 4);
        assert_eq!(opts.config.max_queue, 64);
        assert!(!opts.config.metrics_endpoint);
        assert_eq!(opts.config.error_policy, ErrorPolicy::FailFast);
    }

    #[test]
    fn all_flags_parse() {
        let opts = parse(&[
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--queue",
            "8",
            "--tenant-quota",
            "3",
            "--deadline-ms",
            "500",
            "--max-deadline-ms",
            "1000",
            "--read-timeout-ms",
            "100",
            "--stall-budget",
            "2",
            "--write-timeout-ms",
            "150",
            "--write-stall-budget",
            "3",
            "--corpus-dir",
            "/tmp/corpora",
            "--index-cache",
            "/tmp/indexes",
            "--index-warm",
            "--memory-budget",
            "8388608",
            "--tenant-memory-budget",
            "1048576",
            "--chunk-bytes",
            "4096",
            "--max-frame-bytes",
            "1048576",
            "--cache",
            "16",
            "--metrics-endpoint",
            "--skip-malformed",
            "--strict",
            "--max-record-bytes",
            "65536",
        ])
        .unwrap();
        assert_eq!(opts.listen, "127.0.0.1:0");
        assert_eq!(opts.config.workers, 2);
        assert_eq!(opts.config.max_queue, 8);
        assert_eq!(opts.config.tenant_quota, 3);
        assert_eq!(opts.config.default_deadline, Duration::from_millis(500));
        assert_eq!(opts.config.max_deadline, Duration::from_millis(1000));
        assert_eq!(opts.config.read_timeout, Duration::from_millis(100));
        assert_eq!(opts.config.stall_budget, 2);
        assert_eq!(opts.config.write_timeout, Duration::from_millis(150));
        assert_eq!(opts.config.write_stall_budget, 3);
        assert_eq!(
            opts.config.corpus_dir.as_deref(),
            Some(std::path::Path::new("/tmp/corpora"))
        );
        assert_eq!(
            opts.config.index_cache.as_deref(),
            Some(std::path::Path::new("/tmp/indexes"))
        );
        assert_eq!(opts.config.max_frame_bytes, 1_048_576);
        assert!(opts.config.index_warm);
        assert_eq!(opts.config.memory_budget, 8_388_608);
        assert_eq!(opts.config.tenant_memory_budget, 1_048_576);
        assert_eq!(opts.config.chunk_bytes, 4096);
        assert_eq!(opts.config.cache_capacity, 16);
        assert!(opts.config.metrics_endpoint);
        assert_eq!(opts.config.error_policy, ErrorPolicy::SkipMalformed);
        assert_eq!(opts.config.engine_config.validation, ValidationMode::Strict);
        assert_eq!(opts.config.limits.max_record_bytes, 65_536);
    }

    #[test]
    fn bad_flags_are_usage_errors() {
        assert!(matches!(parse(&["--nope"]), Err(CliError::Usage(_))));
        assert!(matches!(parse(&["--workers"]), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&["--workers", "abc"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(parse(&["--help"]), Err(CliError::Help)));
        assert!(matches!(
            parse(&["--kernel", "quantum"]),
            Err(CliError::Usage(_))
        ));
        // The index cache is keyed to stored corpora; alone it is a
        // configuration mistake, not a silent no-op.
        assert!(matches!(
            parse(&["--index-cache", "/tmp/idx"]),
            Err(CliError::Usage(_))
        ));
        // Same reasoning for startup index warming.
        assert!(matches!(parse(&["--index-warm"]), Err(CliError::Usage(_))));
    }
}
