//! The daemon: listener, connection threads, worker pool, and drain.
//!
//! # Threading model
//!
//! One acceptor (the thread that called [`Server::run`]), one thread per
//! connection, and a fixed pool of evaluation workers fed through the
//! [`Dispatcher`]. A connection thread never
//! evaluates; it reads frames, runs admission, hands the body to the pool,
//! and waits for the result with the request's deadline as its own
//! watchdog. That split is what makes the deadline unconditional: even a
//! request stuck behind a full queue times out, because the clock starts
//! at admission, not at evaluation.
//!
//! # Robustness invariants
//!
//! * **No truncated frames.** Every frame — a whole single-frame
//!   response, or each header/chunk/trailer of a streamed one — is
//!   assembled fully in memory and written by its connection thread with
//!   a single `write_all`. The peer sees whole frames or a dropped
//!   connection — never a prefix, never an interleave.
//! * **No pinned workers.** Deadlines cancel through the engine's
//!   [`CancellationToken`], checked at record boundaries; socket reads
//!   carry an OS-level timeout with a budgeted stall allowance
//!   (slow-loris defense).
//! * **No lost work on drain.** Shutdown stops accepting, answers new
//!   requests with `503 draining`, and joins every connection thread —
//!   each of which finishes its in-flight request through the worker pool
//!   before exiting.
//! * **No fleet kill from one input.** Evaluation runs under the
//!   pipeline's per-record `catch_unwind` plus a whole-request unwind
//!   guard; a poisoned record costs its request a `500`, nothing more.

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use jsonski::metrics::render_pairs;
use jsonski::{
    digest_parts, CancellationToken, ChunkedRecords, EngineConfig, EngineError, ErrorPolicy,
    IndexedJsonSki, IndexedRecords, JsonSki, LimitExceeded, Match, MatchSink, MemBudget, MemDenied,
    MemPermit, Metrics, Pipeline, ResourceLimits, SliceRecords, StructuralIndex, ValidationMode,
};

use crate::admission::Dispatcher;
use crate::cache::QueryCache;
use crate::corpus::{CorpusError, CorpusStore};
use crate::protocol::{
    encode_response, encode_stream_chunk, encode_stream_header, encode_stream_trailer,
    parse_request, read_frame, BodyChecksum, Op, ProtocolError, Request, ShedReason, Status,
    DEFAULT_MAX_FRAME_BYTES,
};

/// Server tuning knobs. Construct with [`ServeConfig::default`] and adjust
/// builder-style.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Evaluation worker threads.
    pub workers: usize,
    /// Admission watermark: maximum admitted-but-unfinished requests.
    pub max_queue: usize,
    /// Maximum in-flight requests per tenant.
    pub tenant_quota: usize,
    /// Deadline applied when a request names none.
    pub default_deadline: Duration,
    /// Hard cap; client-requested deadlines are clamped to this.
    pub max_deadline: Duration,
    /// OS-level socket read timeout (one tick of the slow-loris clock).
    pub read_timeout: Duration,
    /// Mid-frame read timeouts tolerated before the connection is closed.
    pub stall_budget: u32,
    /// OS-level socket write timeout (one tick of the response-write
    /// stall clock).
    pub write_timeout: Duration,
    /// Mid-response write timeouts tolerated before the connection is
    /// closed — the write-side twin of `stall_budget`, so a client that
    /// stops draining its receive buffer cannot pin a connection thread.
    pub write_stall_budget: u32,
    /// Maximum frame payload size.
    pub max_frame_bytes: usize,
    /// Compiled-query cache capacity (0 disables).
    pub cache_capacity: usize,
    /// Whether `op: "metrics"` scrapes are served.
    pub metrics_endpoint: bool,
    /// Engine configuration (fast-forward groups, validation, kernel) the
    /// compiled-query cache is keyed on.
    pub engine_config: EngineConfig,
    /// Per-record resource guards; the per-request deadline is layered on
    /// top of these.
    pub limits: ResourceLimits,
    /// Per-record failure policy for request bodies.
    pub error_policy: ErrorPolicy,
    /// Directory of server-stored corpora that requests may name via the
    /// `"corpus"` header field (`None` disables stored-corpus requests).
    pub corpus_dir: Option<std::path::PathBuf>,
    /// Directory for the persistent structural-index cache over stored
    /// corpora (`None` keeps the index cache memory-only).
    pub index_cache: Option<std::path::PathBuf>,
    /// Global tracked-memory budget in bytes across request bodies,
    /// response buffers, the compiled-query cache, and resident corpus
    /// indexes (0 = unlimited, gauges still track).
    pub memory_budget: usize,
    /// Per-tenant share of the memory budget in bytes (0 = uncapped).
    pub tenant_memory_budget: usize,
    /// High-water response buffer for chunked streaming responses, and
    /// the read-buffer size when a corpus is streamed from disk under
    /// memory pressure.
    pub chunk_bytes: usize,
    /// Warm the stored-corpus index cache at startup instead of on first
    /// request (requires `corpus_dir`).
    pub index_warm: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            max_queue: 64,
            tenant_quota: 16,
            default_deadline: Duration::from_millis(2000),
            max_deadline: Duration::from_millis(30_000),
            read_timeout: Duration::from_millis(250),
            stall_budget: 4,
            write_timeout: Duration::from_millis(250),
            write_stall_budget: 8,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            cache_capacity: 128,
            metrics_endpoint: false,
            engine_config: EngineConfig::default(),
            limits: ResourceLimits::default(),
            error_policy: ErrorPolicy::FailFast,
            corpus_dir: None,
            index_cache: None,
            memory_budget: 0,
            tenant_memory_budget: 0,
            chunk_bytes: 256 * 1024,
            index_warm: false,
        }
    }
}

impl ServeConfig {
    /// Digest of everything baked into a cached compiled query, computed
    /// with the checkpoint format's [`digest_parts`]. Two configurations
    /// that would compile different automata never share a cache entry.
    pub fn cache_digest(&self) -> u64 {
        let cfg = &self.engine_config;
        let parts = [
            format!("g1={} g4={} g5={}", cfg.g1, cfg.g4, cfg.g5),
            match cfg.validation {
                ValidationMode::Permissive => "permissive".to_string(),
                ValidationMode::Strict => "strict".to_string(),
            },
            match cfg.kernel {
                Some(k) => format!("kernel={}", k.name()),
                None => "kernel=auto".to_string(),
            },
        ];
        digest_parts(&parts)
    }
}

jsonski::metric_struct! {
    /// Monotonic counters describing the server's lifetime, exposed by the
    /// metrics scrape and summarized by [`ServeSummary`]. All counters are
    /// relaxed atomics: cheap to bump, read-consistent enough for telemetry.
    #[derive(Debug, Default)]
    pub struct ServeStats {
        /// Connections accepted.
        pub connections: AtomicU64 => "connections",
        /// Request frames parsed (any op).
        pub requests: AtomicU64 => "requests",
        /// Query requests past admission control (holding a tenant permit).
        /// Besides `ok`, `timeouts`, `eval_failed` and `panics`, an admitted
        /// query can end as a 404 (`corpus_not_found`), a 429 memory shed
        /// (`shed_memory`, which also counts sheds at admission) or a 400
        /// query parse error (`bad_request`, which also counts frame errors
        /// before admission), so no difference of counters gives the number
        /// of admitted queries still in flight.
        pub admitted: AtomicU64 => "admitted",
        /// Query requests answered `200 ok`.
        pub ok: AtomicU64 => "ok",
        /// Requests rejected `400 bad_request`.
        pub bad_request: AtomicU64 => "bad_request",
        /// Requests that hit their deadline (`408 timeout`).
        pub timeouts: AtomicU64 => "timeouts",
        /// Requests whose body failed evaluation (`422 eval_failed`).
        pub eval_failed: AtomicU64 => "eval_failed",
        /// Requests shed for queue pressure (`429`, reason `queue_full`).
        pub shed_queue: AtomicU64 => "shed_queue",
        /// Requests shed for tenant quota (`429`, reason `tenant_quota`).
        pub shed_tenant: AtomicU64 => "shed_tenant",
        /// Requests shed because their buffers would exceed the memory
        /// budget even after eviction (`429`, reason `memory`).
        pub shed_memory: AtomicU64 => "shed_memory",
        /// `200 ok` responses delivered as chunked streams (header + chunk
        /// frames + checksummed trailer).
        pub streamed: AtomicU64 => "streamed",
        /// Requests that panicked in evaluation (`500 panic`).
        pub panics: AtomicU64 => "panics",
        /// Requests rejected because the server is draining (`503`).
        pub draining_rejects: AtomicU64 => "draining_rejects",
        /// `op: "ping"` probes answered.
        pub pings: AtomicU64 => "pings",
        /// `op: "metrics"` scrapes served.
        pub scrapes: AtomicU64 => "scrapes",
        /// Connections dropped for protocol violations (bad frame, oversized,
        /// truncated).
        pub protocol_errors: AtomicU64 => "protocol_errors",
        /// Connections closed for stalling mid-frame past the budget.
        pub stalled_conns: AtomicU64 => "stalled_conns",
        /// Connections closed because the peer stopped draining its receive
        /// buffer past the response-write stall budget.
        pub stalled_writes: AtomicU64 => "stalled_writes",
        /// Stored-corpus requests answered `404 not_found`.
        pub corpus_not_found: AtomicU64 => "corpus_not_found",
    }
}

impl ServeStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// What [`Server::run`] reports after a graceful drain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeSummary {
    /// Request frames served over the lifetime.
    pub requests: u64,
    /// `200 ok` responses.
    pub ok: u64,
    /// Typed shed responses (both reasons).
    pub shed: u64,
    /// Deadline timeouts.
    pub timeouts: u64,
    /// Evaluation panics survived.
    pub panics: u64,
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// One accepted connection, TCP or unix-domain, behind a common
/// `Read + Write` face.
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(t),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(t),
        }
    }

    fn set_write_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(t),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_write_timeout(t),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Everything a connection thread needs, shared behind one `Arc`.
struct Shared {
    config: ServeConfig,
    cache_digest: u64,
    dispatcher: Arc<Dispatcher>,
    cache: QueryCache,
    corpus: Option<Arc<CorpusStore>>,
    stats: ServeStats,
    metrics: Arc<Metrics>,
    /// The tracked-memory ledger every resident byte is charged to.
    budget: Arc<MemBudget>,
    shutdown: CancellationToken,
    /// Set the moment drain begins: new requests get `503`, idle
    /// connections close at their next read tick.
    draining: AtomicBool,
}

/// The outcome a worker sends back to the waiting connection thread.
struct WorkResult {
    status: Status,
    matches: u64,
    records: u64,
    skipped: u64,
    reason: Option<String>,
    /// Response body for single-frame delivery; empty for streamed
    /// responses (the body already went out as chunk frames).
    body: Vec<u8>,
    /// FNV-1a checksum over the chunk bytes of a streamed response
    /// (carried in the trailer; 0 for single-frame responses).
    checksum: u64,
    /// Tracked-memory charge covering `body` while it sits in the
    /// worker→connection channel and on the write path; released when
    /// the result is dropped after the response frame is written.
    permit: Option<MemPermit>,
}

/// A worker→connection message while a request is in flight: zero or
/// more body chunks (streamed requests only), then exactly one `Done`.
enum StreamMsg {
    /// A body chunk plus the memory charge covering it; the connection
    /// thread drops the permit after the chunk frame is written.
    Chunk(Vec<u8>, Option<MemPermit>),
    /// The request's final outcome.
    Done(WorkResult),
}

/// Evaluation input: request/corpus bytes resident in memory (with their
/// memory charge), or a corpus streamed from disk because its bytes
/// could not be reserved — the degradation ladder's bounded-input rung.
enum EvalInput {
    Slice(Vec<u8>, #[allow(dead_code)] Option<MemPermit>),
    File(std::path::PathBuf, #[allow(dead_code)] Option<MemPermit>),
}

/// Why the response sink broke off a run early.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SinkFail {
    /// The response buffer could not be charged even after eviction.
    Memory,
    /// The connection thread stopped receiving (peer gone).
    Receiver,
}

/// Response-buffer charge granularity: small enough to keep tracked
/// usage honest, large enough that a match-per-grow never happens.
const CHARGE_STEP: usize = 64 * 1024;

/// The degradation ladder's first rung: evict every evictable resident
/// (compiled queries, corpus indexes), counting the evictions.
fn relieve_memory(shared: &Shared) -> usize {
    let mut n = shared.cache.clear();
    if let Some(c) = &shared.corpus {
        n += c.evict_residents();
    }
    shared
        .budget
        .evictions
        .fetch_add(n as u64, Ordering::Relaxed);
    n
}

/// Reserves `bytes`, retrying once after eviction on denial.
fn reserve_with_relief(
    shared: &Shared,
    tenant: Option<&str>,
    bytes: usize,
) -> Result<MemPermit, MemDenied> {
    match shared.budget.try_reserve(tenant, bytes) {
        Ok(p) => Ok(p),
        Err(_) => {
            relieve_memory(shared);
            shared.budget.try_reserve(tenant, bytes)
        }
    }
}

/// Staging sink: accumulates match bytes as NDJSON lines, charged to the
/// memory budget as it grows. Mirrors the pipeline's discard-on-failure
/// staging — under `FailFast` an error aborts the run and the buffer is
/// thrown away, so a non-`ok` response never carries partial output.
///
/// For a stream-opted request (`tx` set) the sink flushes the buffer as
/// a chunk frame whenever it reaches `chunk_bytes`, so the server's
/// high-water response buffer is the chunk size, not the match set. A
/// denied buffer charge flushes early (shrinking the effective chunk)
/// before giving up; only a charge that fails with an *empty* buffer
/// sheds the request.
struct ChunkSink<'a> {
    shared: &'a Shared,
    tenant: &'a str,
    buf: Vec<u8>,
    matches: u64,
    /// Charge currently held for `buf`.
    permit: Option<MemPermit>,
    charged: usize,
    /// Chunk channel for stream-opted requests; `None` materializes the
    /// whole body in `buf`.
    tx: Option<&'a mpsc::SyncSender<StreamMsg>>,
    chunk_bytes: usize,
    checksum: BodyChecksum,
    fail: Option<SinkFail>,
}

impl<'a> ChunkSink<'a> {
    fn new(
        shared: &'a Shared,
        tenant: &'a str,
        tx: Option<&'a mpsc::SyncSender<StreamMsg>>,
    ) -> Self {
        ChunkSink {
            shared,
            tenant,
            buf: Vec::new(),
            matches: 0,
            permit: None,
            charged: 0,
            tx,
            chunk_bytes: shared.config.chunk_bytes.max(1),
            checksum: BodyChecksum::new(),
            fail: None,
        }
    }

    /// Grows the buffer charge to cover `buf`, evicting residents on
    /// denial. Prefers reserving a whole [`CHARGE_STEP`] ahead (so a
    /// match-per-reserve never happens) but falls back to the exact
    /// shortfall — a small response must fit under a small tenant cap.
    /// Returns false when the budget refuses even after relief.
    fn ensure_charged(&mut self) -> bool {
        if self.buf.len() <= self.charged {
            return true;
        }
        let need = self.buf.len() - self.charged;
        let want = need.max(CHARGE_STEP);
        for (attempt, extra) in [want, need, need].into_iter().enumerate() {
            if attempt == 2 {
                relieve_memory(self.shared);
            }
            let grown = match &mut self.permit {
                Some(p) => p.grow(extra).is_ok(),
                None => match self.shared.budget.try_reserve(Some(self.tenant), extra) {
                    Ok(p) => {
                        self.permit = Some(p);
                        true
                    }
                    Err(_) => false,
                },
            };
            if grown {
                self.charged += extra;
                return true;
            }
        }
        false
    }

    /// Sends the buffered bytes as one chunk, transferring their memory
    /// charge to the message (released by the connection thread after
    /// the frame is written). Returns false when the receiver is gone.
    fn flush_chunk(&mut self) -> bool {
        let Some(tx) = self.tx else { return true };
        if self.buf.is_empty() {
            return true;
        }
        let bytes = std::mem::take(&mut self.buf);
        let permit = self.permit.take();
        self.charged = 0;
        if tx.send(StreamMsg::Chunk(bytes, permit)).is_err() {
            self.fail = Some(SinkFail::Receiver);
            return false;
        }
        true
    }
}

impl MatchSink for ChunkSink<'_> {
    fn on_match(&mut self, m: Match<'_>) -> std::ops::ControlFlow<()> {
        self.buf.extend_from_slice(m.bytes());
        self.buf.push(b'\n');
        self.matches += 1;
        if self.tx.is_some() {
            self.checksum.update(m.bytes());
            self.checksum.update(b"\n");
        }
        if !self.ensure_charged() {
            if self.tx.is_some() {
                // Streaming: shed memory by shipping what we have now
                // (an undersized chunk), then retry the charge for a
                // fresh buffer on the next match.
                self.shared
                    .budget
                    .forced_streams
                    .fetch_add(1, Ordering::Relaxed);
                if !self.flush_chunk() {
                    return std::ops::ControlFlow::Break(());
                }
                return std::ops::ControlFlow::Continue(());
            }
            self.fail = Some(SinkFail::Memory);
            return std::ops::ControlFlow::Break(());
        }
        if self.tx.is_some() && self.buf.len() >= self.chunk_bytes && !self.flush_chunk() {
            return std::ops::ControlFlow::Break(());
        }
        std::ops::ControlFlow::Continue(())
    }
}

/// The `jsonski serve` daemon. Bind, then [`run`](Server::run); trip the
/// [shutdown token](Server::shutdown_token) (e.g. from a SIGTERM handler)
/// to drain and return.
pub struct Server {
    listener: Listener,
    shared: Arc<Shared>,
    addr: String,
}

impl Server {
    /// Binds a TCP listener on `addr` (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// The socket `bind` failure.
    pub fn bind_tcp(addr: &str, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?.to_string();
        Server::assemble(Listener::Tcp(listener), local, config)
    }

    /// Binds a unix-domain listener at `path` (removed first if stale).
    ///
    /// # Errors
    ///
    /// The socket `bind` failure.
    #[cfg(unix)]
    pub fn bind_unix(path: &str, config: ServeConfig) -> std::io::Result<Server> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        Server::assemble(Listener::Unix(listener), path.to_string(), config)
    }

    fn assemble(listener: Listener, addr: String, config: ServeConfig) -> std::io::Result<Server> {
        let metrics = Arc::new(Metrics::new());
        let dispatcher =
            Dispatcher::new(config.max_queue, config.tenant_quota, Arc::clone(&metrics));
        let cache_digest = config.cache_digest();
        let budget = MemBudget::with_tenant_cap(config.memory_budget, config.tenant_memory_budget);
        let cache = QueryCache::new(config.cache_capacity).with_budget(Arc::clone(&budget));
        let corpus = match &config.corpus_dir {
            Some(dir) => Some(Arc::new(
                CorpusStore::new(
                    dir.clone(),
                    config.index_cache.clone(),
                    &config.engine_config,
                )?
                .with_budget(Arc::clone(&budget)),
            )),
            None => None,
        };
        let shared = Arc::new(Shared {
            cache_digest,
            dispatcher,
            cache,
            corpus,
            stats: ServeStats::default(),
            metrics,
            budget,
            shutdown: CancellationToken::new(),
            draining: AtomicBool::new(false),
            config,
        });
        Ok(Server {
            listener,
            shared,
            addr,
        })
    }

    /// The bound address (`ip:port` for TCP — useful after binding port 0 —
    /// or the socket path for unix).
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// The token that initiates graceful drain; wire it to a signal
    /// handler. Safe to cancel from any thread.
    pub fn shutdown_token(&self) -> CancellationToken {
        self.shared.shutdown.clone()
    }

    /// Lifetime counters (shared with in-flight scrapes).
    pub fn stats(&self) -> &ServeStats {
        &self.shared.stats
    }

    /// Runs the accept loop on the calling thread until the shutdown token
    /// trips, then drains: stops accepting, joins every connection thread
    /// (each finishes its in-flight request through the worker pool), then
    /// retires the workers.
    ///
    /// # Errors
    ///
    /// Listener configuration failures; per-connection I/O errors are
    /// contained in their connection threads.
    pub fn run(self) -> std::io::Result<ServeSummary> {
        let shared = self.shared;
        // Startup index warm: pay the classification cost before the
        // first request instead of on it.
        if shared.config.index_warm {
            if let Some(corpus) = &shared.corpus {
                for (name, outcome) in corpus.warm() {
                    match outcome {
                        Ok(records) => {
                            eprintln!("jsonski serve: warmed index for {name} ({records} records)")
                        }
                        Err(why) => {
                            eprintln!("jsonski serve: index warm failed for {name}: {why}")
                        }
                    }
                }
            }
        }
        // Worker pool.
        let mut workers = Vec::with_capacity(shared.config.workers.max(1));
        for _ in 0..shared.config.workers.max(1) {
            let dispatcher = Arc::clone(&shared.dispatcher);
            workers.push(std::thread::spawn(move || {
                while let Some(job) = dispatcher.next_job() {
                    job();
                    dispatcher.finish();
                }
            }));
        }
        // Accept loop (non-blocking + poll so the shutdown token is
        // honored within one tick even with no inbound traffic).
        match &self.listener {
            Listener::Tcp(l) => l.set_nonblocking(true)?,
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(true)?,
        }
        let conns: Mutex<Vec<std::thread::JoinHandle<()>>> = Mutex::new(Vec::new());
        while !shared.shutdown.is_cancelled() {
            let accepted = match &self.listener {
                Listener::Tcp(l) => match l.accept() {
                    Ok((s, _)) => {
                        // Streamed responses are several back-to-back
                        // writes (header, chunks, trailer); Nagle holding
                        // the short tail segments behind delayed ACKs adds
                        // ~40ms per response, so turn it off.
                        s.set_nodelay(true).ok();
                        Some(Conn::Tcp(s))
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                    Err(_) => None,
                },
                #[cfg(unix)]
                Listener::Unix(l) => match l.accept() {
                    Ok((s, _)) => Some(Conn::Unix(s)),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                    Err(_) => None,
                },
            };
            match accepted {
                Some(conn) => {
                    ServeStats::bump(&shared.stats.connections);
                    let shared = Arc::clone(&shared);
                    let handle = std::thread::spawn(move || serve_connection(conn, &shared));
                    let mut guard = conns.lock().unwrap();
                    guard.retain(|h| !h.is_finished());
                    guard.push(handle);
                }
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        // --- Drain. ---
        shared.draining.store(true, Ordering::SeqCst);
        // Connection threads need live workers to finish in-flight
        // requests, so join them first.
        for handle in conns.into_inner().unwrap() {
            let _ = handle.join();
        }
        // Queue is now quiescent: nothing can enqueue. Retire the pool.
        shared.dispatcher.shutdown();
        for w in workers {
            let _ = w.join();
        }
        // Index rebuilds are fire-and-forget for requests, not for drain:
        // join them so shutdown never leaks a half-written tmp writer.
        if let Some(corpus) = &shared.corpus {
            corpus.drain();
        }
        let s = &shared.stats;
        Ok(ServeSummary {
            requests: s.requests.load(Ordering::Relaxed),
            ok: s.ok.load(Ordering::Relaxed),
            shed: s.shed_queue.load(Ordering::Relaxed)
                + s.shed_tenant.load(Ordering::Relaxed)
                + s.shed_memory.load(Ordering::Relaxed),
            timeouts: s.timeouts.load(Ordering::Relaxed),
            panics: s.panics.load(Ordering::Relaxed),
        })
    }
}

/// Reads one frame under the slow-loris clock: OS read timeouts at the
/// frame boundary are idle ticks (return `Ok(None)` so the caller can
/// check drain state); timeouts *mid-frame* burn the stall budget and
/// then kill the connection.
fn read_frame_guarded(conn: &mut Conn, shared: &Shared) -> Result<Option<Vec<u8>>, ProtocolError> {
    struct GuardedReader<'a> {
        conn: &'a mut Conn,
        at_frame_start: bool,
        read_any: bool,
        stalls_left: u32,
    }
    impl Read for GuardedReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            loop {
                match self.conn.read(buf) {
                    Ok(n) => {
                        if n > 0 {
                            self.read_any = true;
                        }
                        return Ok(n);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        if self.at_frame_start && !self.read_any {
                            // Idle between frames: not a stall.
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::WouldBlock,
                                "idle tick",
                            ));
                        }
                        if self.stalls_left == 0 {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::TimedOut,
                                "stall budget exhausted",
                            ));
                        }
                        self.stalls_left -= 1;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
    }
    conn.set_read_timeout(Some(shared.config.read_timeout)).ok();
    let mut reader = GuardedReader {
        conn,
        at_frame_start: true,
        read_any: false,
        stalls_left: shared.config.stall_budget,
    };
    match read_frame(&mut reader, shared.config.max_frame_bytes) {
        Ok(frame) => Ok(frame),
        Err(ProtocolError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => {
            // Idle tick at a frame boundary: no bytes consumed.
            Ok(None)
        }
        Err(ProtocolError::Io(e)) if e.kind() == std::io::ErrorKind::TimedOut => {
            Err(ProtocolError::Stalled)
        }
        Err(e) => Err(e),
    }
}

/// Why [`write_frame_guarded`] gave up on a connection.
enum WriteClose {
    /// The peer stopped draining its receive buffer past the stall
    /// budget; counted in `stalled_writes`.
    Stalled,
    /// The transport failed outright (peer gone).
    Io,
}

/// Writes one response frame under the write-side stall clock: OS write
/// timeouts burn the budget, then the connection is closed with a typed
/// reason instead of pinning the thread behind a peer that reads nothing.
/// The frame is still a single logical write — the peer observes a prefix
/// of it or all of it, never interleaving.
fn write_frame_guarded(conn: &mut Conn, shared: &Shared, payload: &[u8]) -> Result<(), WriteClose> {
    conn.set_write_timeout(Some(shared.config.write_timeout))
        .ok();
    let frame = crate::protocol::encode_frame(payload);
    let mut off = 0usize;
    let mut stalls_left = shared.config.write_stall_budget;
    while off < frame.len() {
        match conn.write(&frame[off..]) {
            Ok(0) => return Err(WriteClose::Io),
            Ok(n) => off += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stalls_left == 0 {
                    return Err(WriteClose::Stalled);
                }
                stalls_left -= 1;
            }
            Err(_) => return Err(WriteClose::Io),
        }
    }
    conn.flush().map_err(|_| WriteClose::Io)
}

/// One connection's lifetime: frames in, frames out, until EOF, a
/// protocol violation, or drain.
fn serve_connection(mut conn: Conn, shared: &Arc<Shared>) {
    loop {
        match read_frame_guarded(&mut conn, shared) {
            // Idle tick: between frames. Close if draining, else keep
            // listening.
            Ok(None) if shared.draining.load(Ordering::SeqCst) => return,
            Ok(None) => {
                // `read_frame_guarded` returns None both for clean EOF and
                // for an idle tick; distinguish by asking the socket
                // again — a dead socket yields EOF immediately. Simpler:
                // an idle tick costs nothing, so just loop. Clean EOF is
                // surfaced as Ok(None) by `read_frame` only on a true
                // zero-byte read, which `GuardedReader` forwards — so
                // this arm also ends EOF'd connections via the next
                // iteration's error or repeated None. To avoid a spin on
                // EOF, probe liveness cheaply here.
                if is_eof(&mut conn) {
                    return;
                }
                continue;
            }
            Ok(Some(payload)) => {
                ServeStats::bump(&shared.stats.requests);
                match handle_frame(&payload, &mut conn, shared) {
                    Ok(()) => {}
                    Err(WriteClose::Stalled) => {
                        // The peer stopped draining its receive buffer:
                        // the write stall budget bounds how long it can
                        // hold this thread, mirroring the read side.
                        ServeStats::bump(&shared.stats.stalled_writes);
                        return;
                    }
                    Err(WriteClose::Io) => {
                        // Peer gone mid-write: drop the connection. Each
                        // frame was a single logical write, so the peer
                        // saw a prefix of the frame sequence — never a
                        // reordered or interleaved frame.
                        return;
                    }
                }
            }
            Err(ProtocolError::Stalled) => {
                ServeStats::bump(&shared.stats.stalled_conns);
                return;
            }
            Err(_) => {
                ServeStats::bump(&shared.stats.protocol_errors);
                return;
            }
        }
    }
}

/// Distinguishes clean EOF from an idle timeout: a zero-timeout peek
/// returning `Ok(0)` means the peer closed.
fn is_eof(conn: &mut Conn) -> bool {
    // A connection at a frame boundary with nothing buffered: try a
    // non-blocking-ish 1ms read of 1 byte. Ok(0) = closed. WouldBlock /
    // TimedOut = alive but idle. Any byte read would be a protocol
    // desync, so treat it as fatal too (it cannot happen: read_frame
    // consumed whole frames only).
    conn.set_read_timeout(Some(Duration::from_millis(1))).ok();
    let mut byte = [0u8; 1];
    match conn.read(&mut byte) {
        Ok(0) => true,
        Ok(_) => true, // desync — close defensively
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            false
        }
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => false,
        Err(_) => true,
    }
}

/// Parses and dispatches one request frame, writing the response frame
/// (or frame sequence, for streamed responses) to the connection.
fn handle_frame(payload: &[u8], conn: &mut Conn, shared: &Arc<Shared>) -> Result<(), WriteClose> {
    let req = match parse_request(payload) {
        Ok(r) => r,
        Err(e) => {
            ServeStats::bump(&shared.stats.bad_request);
            let frame =
                encode_response(Status::BadRequest, b"", 0, 0, 0, Some(&e.to_string()), b"");
            return write_frame_guarded(conn, shared, &frame);
        }
    };
    match req.op {
        Op::Ping => {
            ServeStats::bump(&shared.stats.pings);
            let frame = encode_response(Status::Ok, &req.id, 0, 0, 0, Some("pong"), b"");
            write_frame_guarded(conn, shared, &frame)
        }
        Op::Metrics => {
            let frame = scrape_metrics(&req, shared);
            write_frame_guarded(conn, shared, &frame)
        }
        Op::Query => handle_query(req, conn, shared),
    }
}

/// Serves `op: "metrics"`: the serve counters, the cache counters, and
/// the engine's own [`Metrics`] registry, as text or JSON.
fn scrape_metrics(req: &Request, shared: &Arc<Shared>) -> Vec<u8> {
    if !shared.config.metrics_endpoint {
        ServeStats::bump(&shared.stats.bad_request);
        return encode_response(
            Status::BadRequest,
            &req.id,
            0,
            0,
            0,
            Some("metrics endpoint disabled (start with --metrics-endpoint)"),
            b"",
        );
    }
    ServeStats::bump(&shared.stats.scrapes);
    let snapshot = shared.metrics.snapshot();
    // Index-cache counters render even without a corpus store (all
    // zeros), so scrapers see a stable schema.
    let zero = jsonski::IndexStats::new();
    let index_pairs = match &shared.corpus {
        Some(c) => c.stats().pairs(),
        None => zero.pairs(),
    };
    let sections = [
        ("serve", "serve_", shared.stats.pairs()),
        ("cache", "cache_", shared.cache.pairs()),
        ("index", "", index_pairs),
        ("memory", "", shared.budget.pairs()),
    ];
    let mut body = String::new();
    if req.metrics_json {
        let mut objects: Vec<(&str, String)> = sections
            .iter()
            .map(|(section, _, pairs)| {
                let mut object = String::new();
                let _ = render_pairs(&mut object, pairs, None);
                (*section, object)
            })
            .collect();
        objects.push(("engine", snapshot.to_json()));
        let _ = render_pairs(&mut body, &objects, None);
        body.push('\n');
    } else {
        for (_, prefix, pairs) in &sections {
            let _ = render_pairs(&mut body, pairs, Some(prefix));
        }
        let _ = write!(body, "# engine metrics\n{snapshot}");
    }
    encode_response(Status::Ok, &req.id, 0, 0, 0, None, body.as_bytes())
}

/// A zero-counter [`WorkResult`] for watchdog-fabricated outcomes.
fn synthetic_result(status: Status, reason: &str) -> WorkResult {
    WorkResult {
        status,
        matches: 0,
        records: 0,
        skipped: 0,
        reason: Some(reason.to_string()),
        body: Vec::new(),
        checksum: 0,
        permit: None,
    }
}

/// Receives until the worker's `Done`, discarding chunks (their permits
/// release as they drop). Called after cancellation or a failed write,
/// so the worker — possibly blocked on a full chunk channel — always
/// unblocks and the permit lifetime covers the whole evaluation.
fn drain_until_done(rx: &mpsc::Receiver<StreamMsg>) -> Option<WorkResult> {
    loop {
        match rx.recv() {
            Ok(StreamMsg::Chunk(..)) => continue,
            Ok(StreamMsg::Done(r)) => return Some(r),
            Err(_) => return None,
        }
    }
}

/// The full query path: drain gate → admission → memory charge → enqueue
/// → deadline watchdog → response write(s). The tenant permit (for
/// admitted requests) is held until every response frame is written, so
/// a slow-reading client occupies its own quota, not the fleet's.
fn handle_query(req: Request, conn: &mut Conn, shared: &Arc<Shared>) -> Result<(), WriteClose> {
    if shared.draining.load(Ordering::SeqCst) {
        ServeStats::bump(&shared.stats.draining_rejects);
        let frame = encode_response(
            Status::Draining,
            &req.id,
            0,
            0,
            0,
            Some("server is draining"),
            b"",
        );
        return write_frame_guarded(conn, shared, &frame);
    }
    let permit = match shared.dispatcher.admit(&req.tenant) {
        Ok(p) => {
            ServeStats::bump(&shared.stats.admitted);
            p
        }
        Err(reason) => {
            match reason {
                ShedReason::QueueFull => ServeStats::bump(&shared.stats.shed_queue),
                ShedReason::TenantQuota => ServeStats::bump(&shared.stats.shed_tenant),
                ShedReason::Memory => ServeStats::bump(&shared.stats.shed_memory),
            }
            let frame = encode_response(Status::Shed, &req.id, 0, 0, 0, Some(reason.name()), b"");
            return write_frame_guarded(conn, shared, &frame);
        }
    };
    // A memory shed carries no body, like the admission-time shed;
    // `mem_denied_global`/`mem_denied_tenant` record which cap refused.
    let shed_memory = |conn: &mut Conn| -> Result<(), WriteClose> {
        ServeStats::bump(&shared.stats.shed_memory);
        let reason = Some(ShedReason::Memory.name());
        let frame = encode_response(Status::Shed, &req.id, 0, 0, 0, reason, b"");
        write_frame_guarded(conn, shared, &frame)
    };
    // Resolve the evaluation input on the connection thread (inside the
    // tenant permit, so corpus reads count against the tenant's quota),
    // charging resident bytes to the memory budget. A corpus whose bytes
    // the budget refuses even after eviction is *streamed from disk*
    // with a bounded read buffer instead of shed — the ladder's
    // bounded-input rung. The index lookup can only produce `Some` for a
    // fully verified index; every failure mode falls back to `None` =
    // full classification.
    let (input, index) = if req.corpus.is_empty() {
        let body_permit = if req.body.is_empty() {
            None
        } else {
            match reserve_with_relief(shared, Some(&req.tenant), req.body.len()) {
                Ok(p) => Some(p),
                Err(_) => {
                    let write = shed_memory(conn);
                    drop(permit);
                    return write;
                }
            }
        };
        (EvalInput::Slice(req.body.clone(), body_permit), None)
    } else {
        let resolved = match &shared.corpus {
            Some(store) => store
                .corpus_len(&req.corpus)
                .map(|(path, len)| (Arc::clone(store), path, len)),
            None => Err(CorpusError::NotConfigured),
        };
        match resolved {
            Ok((store, path, len)) => {
                match reserve_with_relief(shared, Some(&req.tenant), len as usize) {
                    Ok(corpus_permit) => match store.read_corpus(&req.corpus) {
                        Ok(bytes) => {
                            let index = store.index_for(&req.corpus, &bytes);
                            (EvalInput::Slice(bytes, Some(corpus_permit)), index)
                        }
                        Err(e) => {
                            ServeStats::bump(&shared.stats.corpus_not_found);
                            let frame = encode_response(
                                Status::NotFound,
                                &req.id,
                                0,
                                0,
                                0,
                                Some(&e.to_string()),
                                b"",
                            );
                            let write = write_frame_guarded(conn, shared, &frame);
                            drop(permit);
                            return write;
                        }
                    },
                    Err(_) => {
                        // Bounded-input fallback: evaluate straight off
                        // the file with a chunk-sized read buffer. Only
                        // that buffer is charged; a refusal of even the
                        // buffer sheds.
                        shared
                            .budget
                            .stream_fallbacks
                            .fetch_add(1, Ordering::Relaxed);
                        let buf_permit = match reserve_with_relief(
                            shared,
                            Some(&req.tenant),
                            shared.config.chunk_bytes.max(1),
                        ) {
                            Ok(p) => Some(p),
                            Err(_) => {
                                let write = shed_memory(conn);
                                drop(permit);
                                return write;
                            }
                        };
                        (EvalInput::File(path, buf_permit), None)
                    }
                }
            }
            Err(e) => {
                ServeStats::bump(&shared.stats.corpus_not_found);
                let frame = encode_response(
                    Status::NotFound,
                    &req.id,
                    0,
                    0,
                    0,
                    Some(&e.to_string()),
                    b"",
                );
                let write = write_frame_guarded(conn, shared, &frame);
                drop(permit);
                return write;
            }
        }
    };
    let deadline = req
        .deadline_ms
        .map(Duration::from_millis)
        .unwrap_or(shared.config.default_deadline)
        .min(shared.config.max_deadline);
    let req_token = CancellationToken::new();
    // Capacity 2: the worker runs at most two chunks ahead of the socket
    // (blocking-send backpressure), so a streamed response holds at most
    // ~3 chunk buffers regardless of the match set.
    let (tx, rx) = mpsc::sync_channel::<StreamMsg>(2);
    let streaming = req.stream;
    {
        let token = req_token.clone();
        let query = req.query.clone();
        let tenant = req.tenant.clone();
        shared.dispatcher.enqueue(Box::new({
            let shared = Arc::clone(shared);
            move || {
                let tx_chunks = if streaming { Some(&tx) } else { None };
                let result = evaluate_request(
                    &shared, &query, &tenant, input, index, deadline, &token, tx_chunks,
                );
                // The watchdog drains to `Done` before giving up, so a
                // blocking send cannot wedge; a dropped channel means
                // the connection is gone, which is fine.
                let _ = tx.send(StreamMsg::Done(result));
            }
        }));
    }
    // Deadline watchdog: the connection thread itself. The clock covers
    // queue wait AND evaluation; chunk frames are written as they
    // arrive, each under the write-stall guard.
    let started = std::time::Instant::now();
    let grace = deadline + Duration::from_millis(50);
    let mut streamed = false;
    // On a failed write the worker may still be running (and blocked on
    // the chunk channel): cancel and drain so its buffers release.
    macro_rules! abort_write {
        ($w:expr) => {{
            req_token.cancel();
            let _ = drain_until_done(&rx);
            drop(permit);
            return Err($w);
        }};
    }
    let result = loop {
        let left = grace.saturating_sub(started.elapsed());
        match rx.recv_timeout(left) {
            Ok(StreamMsg::Chunk(bytes, chunk_permit)) => {
                if !streamed {
                    let header = encode_stream_header(&req.id);
                    if let Err(w) = write_frame_guarded(conn, shared, &header) {
                        drop(chunk_permit);
                        abort_write!(w);
                    }
                    streamed = true;
                }
                let frame = encode_stream_chunk(&bytes);
                drop(bytes);
                if let Err(w) = write_frame_guarded(conn, shared, &frame) {
                    drop(chunk_permit);
                    abort_write!(w);
                }
                drop(chunk_permit);
            }
            Ok(StreamMsg::Done(r)) => break r,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                req_token.cancel();
                // The worker observes the token at its next record
                // boundary and replies promptly; block for that reply so
                // the permit lifetime covers the whole evaluation.
                break match drain_until_done(&rx) {
                    Some(mut r) => {
                        // Whatever the worker managed, the request missed
                        // its deadline: discard partial output, report
                        // 408. (Chunks already on the wire are voided by
                        // the trailer's status.)
                        r.status = Status::Timeout;
                        r.reason = Some("deadline exceeded".to_string());
                        r.body = Vec::new();
                        r.permit = None;
                        r
                    }
                    None => synthetic_result(Status::Timeout, "deadline exceeded"),
                };
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                break synthetic_result(Status::Panic, "worker vanished")
            }
        }
    };
    match result.status {
        Status::Ok => ServeStats::bump(&shared.stats.ok),
        Status::Timeout => ServeStats::bump(&shared.stats.timeouts),
        Status::EvalFailed => ServeStats::bump(&shared.stats.eval_failed),
        Status::Panic => ServeStats::bump(&shared.stats.panics),
        Status::BadRequest => ServeStats::bump(&shared.stats.bad_request),
        Status::Shed => ServeStats::bump(&shared.stats.shed_memory),
        _ => {}
    }
    let frame = if streamed {
        ServeStats::bump(&shared.stats.streamed);
        encode_stream_trailer(
            result.status,
            &req.id,
            result.matches,
            result.records,
            result.skipped,
            result.reason.as_deref(),
            result.checksum,
        )
    } else {
        // No chunks went out (non-stream client, empty body, or an error
        // before the first flush): single-frame response, the wire
        // default.
        encode_response(
            result.status,
            &req.id,
            result.matches,
            result.records,
            result.skipped,
            result.reason.as_deref(),
            &result.body,
        )
    };
    let write = write_frame_guarded(conn, shared, &frame);
    drop(permit);
    write
}

/// Worker-side evaluation: compiled-query cache → serial pipeline over the
/// evaluation input → typed result. Runs under a whole-request unwind
/// guard on top of the pipeline's per-record `catch_unwind`.
///
/// For a stream-opted request (`tx` set) the sink ships body chunks
/// through the channel as they fill and the returned result carries the
/// trailer checksum instead of a body. For single-frame delivery the
/// body travels in the result together with its memory charge.
#[allow(clippy::too_many_arguments)]
fn evaluate_request(
    shared: &Shared,
    query: &str,
    tenant: &str,
    input: EvalInput,
    index: Option<Arc<StructuralIndex>>,
    deadline: Duration,
    token: &CancellationToken,
    tx: Option<&mpsc::SyncSender<StreamMsg>>,
) -> WorkResult {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let engine = match shared
            .cache
            .get_or_compile(query, shared.cache_digest, |q| {
                JsonSki::compile(q).map(|e| e.with_config(shared.config.engine_config))
            }) {
            Ok(e) => e,
            Err(e) => {
                return synthetic_result(Status::BadRequest, &format!("query parse error: {e}"))
            }
        };
        // Layer the per-request deadline onto the configured limits; the
        // engine checks it at container boundaries (so a single huge
        // record cannot overstay), the pipeline at record boundaries.
        let limits = shared.config.limits.deadline(deadline);
        let engine = (*engine).clone().with_limits(limits);
        let mut sink = ChunkSink::new(shared, tenant, tx);
        let pipe = Pipeline::new()
            .workers(1)
            .error_policy(shared.config.error_policy)
            .limits(limits)
            .metrics(Arc::clone(&shared.metrics))
            .cancel_token(token.clone());
        let run = match &input {
            // A verified index: records come from its spans and the
            // engine consumes its pre-built bitmaps instead of
            // re-classifying. Results are byte-identical to the uncached
            // path by construction (strict validation still sees every
            // input byte).
            EvalInput::Slice(body, _) => match index.as_deref() {
                Some(idx) => {
                    let stats = shared.corpus.as_ref().map(|c| c.stats().as_ref());
                    let indexed = IndexedJsonSki::new(&engine, idx, stats);
                    let mut source = IndexedRecords::new(body, idx);
                    pipe.run(&indexed, &mut source, &mut sink)
                }
                None => {
                    let mut source = SliceRecords::new(body);
                    pipe.run(&engine, &mut source, &mut sink)
                }
            },
            // Budget-refused corpus: stream it straight off disk with a
            // bounded read buffer (no index; classification runs per
            // record). Byte-identical to the resident path because the
            // pipeline sees the same record sequence.
            EvalInput::File(path, _) => {
                let file = match std::fs::File::open(path) {
                    Ok(f) => f,
                    Err(e) => {
                        return synthetic_result(
                            Status::EvalFailed,
                            &format!("corpus open failed: {e}"),
                        )
                    }
                };
                let mut source =
                    ChunkedRecords::with_buffer_size(file, shared.config.chunk_bytes.max(16))
                        .limits(limits)
                        .metrics(Arc::clone(&shared.metrics))
                        .cancel_token(token.clone());
                pipe.run(&engine, &mut source, &mut sink)
            }
        };
        match run {
            Ok(summary) if summary.cancelled => WorkResult {
                // The only canceller of a request token is its deadline
                // watchdog (drain never cancels in-flight requests).
                status: Status::Timeout,
                matches: 0,
                records: summary.records,
                skipped: summary.failed + summary.resyncs,
                reason: Some("deadline exceeded".to_string()),
                body: Vec::new(),
                checksum: 0,
                permit: None,
            },
            Ok(summary) => match sink.fail {
                // Materialized response the budget refused even after
                // eviction: typed memory shed, partial output discarded.
                Some(SinkFail::Memory) => synthetic_result(Status::Shed, ShedReason::Memory.name()),
                // The connection thread is gone; nothing will be
                // written, the status is for the log only.
                Some(SinkFail::Receiver) => {
                    synthetic_result(Status::EvalFailed, "client disconnected mid-stream")
                }
                None => {
                    if tx.is_some() && !sink.flush_chunk() {
                        return synthetic_result(
                            Status::EvalFailed,
                            "client disconnected mid-stream",
                        );
                    }
                    let body = std::mem::take(&mut sink.buf);
                    let permit = sink.permit.take();
                    WorkResult {
                        status: Status::Ok,
                        matches: sink.matches,
                        records: summary.records,
                        skipped: summary.failed + summary.resyncs,
                        reason: None,
                        checksum: if tx.is_some() {
                            sink.checksum.finish()
                        } else {
                            0
                        },
                        body,
                        permit,
                    }
                }
            },
            Err(EngineError::Limit(LimitExceeded::Deadline { .. })) => {
                synthetic_result(Status::Timeout, "deadline exceeded")
            }
            Err(EngineError::Panic { payload, .. }) => {
                synthetic_result(Status::Panic, &format!("evaluation panicked: {payload}"))
            }
            Err(e) => synthetic_result(Status::EvalFailed, &e.to_string()),
        }
    }));
    outcome.unwrap_or_else(|_| synthetic_result(Status::Panic, "request evaluation panicked"))
}
