//! Deterministic fault injection for torture-testing the ingestion path.
//!
//! Everything here is seeded and reproducible: the same [`FaultPlan`] over
//! the same input produces byte-identical behaviour on every run, so a
//! failing torture case is a bug report, not a flake. The module is
//! compiled only for tests and under the `faults` cargo feature — release
//! builds without the feature carry none of it.
//!
//! * [`FaultyReader`] wraps any [`Read`] and injects short reads,
//!   [`ErrorKind::Interrupted`], `WouldBlock`, early EOF (truncation), and
//!   byte corruption according to a [`FaultPlan`].
//! * [`FaultyConn`] wraps any [`Read`]`+`[`Write`] transport (a socket)
//!   and additionally injects *write-side* faults — short writes,
//!   mid-frame stalls, and hard disconnects — for torture-testing
//!   framed-protocol servers from the client side.
//! * [`FaultyFile`] stages a file write through the same tmp-then-rename
//!   discipline the durable formats use, while injecting *storage-level*
//!   faults — silent truncation (a torn write), bit corruption on the way
//!   to disk, short/interrupted writes, and rename failure — for
//!   torture-testing loaders of persistent artifacts (checkpoints, the
//!   structural-index cache).
//! * [`mutate`] applies one seeded structural mutation to a record, for
//!   building malformed-input corpora.
//! * [`SplitMix64`] is the tiny PRNG underneath both (no external
//!   dependency).
//!
//! [`ErrorKind::Interrupted`]: std::io::ErrorKind::Interrupted

use std::io::{Error, ErrorKind, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// SplitMix64: a tiny, high-quality, seedable PRNG (public-domain
/// constants from Vigna's reference implementation). Deterministic across
/// platforms; not cryptographic.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A pseudo-random value in `0..n` (`n > 0`; modulo bias is irrelevant
    /// at test scale).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }
}

/// A seeded recipe for the faults a [`FaultyReader`] injects. All knobs
/// default to off; enable them builder-style.
#[non_exhaustive]
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    short_read_max: Option<usize>,
    interrupt_every: Option<u64>,
    would_block_every: Option<u64>,
    truncate_at: Option<u64>,
    corrupt_every: Option<u64>,
    panic_every: Option<u64>,
    short_write_max: Option<usize>,
    write_stall_every: Option<(u64, Duration)>,
    disconnect_after_writes: Option<u64>,
    rename_fails: bool,
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            short_read_max: None,
            interrupt_every: None,
            would_block_every: None,
            truncate_at: None,
            corrupt_every: None,
            panic_every: None,
            short_write_max: None,
            write_stall_every: None,
            disconnect_after_writes: None,
            rename_fails: false,
        }
    }

    /// Caps every read at a pseudo-random `1..=max` bytes, exercising
    /// refill paths that full-buffer reads never reach.
    pub fn short_reads(mut self, max: usize) -> Self {
        self.short_read_max = Some(max.max(1));
        self
    }

    /// Makes every `n`-th read *attempt* fail with
    /// [`ErrorKind::Interrupted`] (the attempt after it proceeds, so
    /// progress is always possible).
    pub fn interrupt_every(mut self, n: u64) -> Self {
        self.interrupt_every = Some(n.max(1));
        self
    }

    /// Makes every `n`-th read *attempt* fail with
    /// [`ErrorKind::WouldBlock`]. With `n == 1` every attempt fails —
    /// useful for asserting that retry budgets are finite.
    pub fn would_block_every(mut self, n: u64) -> Self {
        self.would_block_every = Some(n.max(1));
        self
    }

    /// Ends the stream (clean EOF) after `offset` delivered bytes,
    /// simulating a connection cut mid-record.
    pub fn truncate_at(mut self, offset: u64) -> Self {
        self.truncate_at = Some(offset);
        self
    }

    /// Corrupts every `n`-th delivered byte (XOR with a nonzero seeded
    /// value, so the byte always actually changes).
    pub fn corrupt_every(mut self, n: u64) -> Self {
        self.corrupt_every = Some(n.max(1));
        self
    }

    /// Makes a [`PanicInjector`] panic on every `n`-th record (by record
    /// ordinal: records `n-1`, `2n-1`, … counting from zero). Ignored by
    /// [`FaultyReader`], which injects byte-level faults only.
    pub fn panic_every(mut self, n: u64) -> Self {
        self.panic_every = Some(n.max(1));
        self
    }

    /// Caps every [`FaultyConn`] write at a pseudo-random `1..=max` bytes,
    /// so a framed payload crosses the wire in many fragments and the
    /// peer's reassembly path is exercised. Ignored by [`FaultyReader`].
    pub fn short_writes(mut self, max: usize) -> Self {
        self.short_write_max = Some(max.max(1));
        self
    }

    /// Makes every `n`-th [`FaultyConn`] write *attempt* sleep for
    /// `stall` before proceeding — a slow-loris client. Pair with a
    /// server-side read timeout to prove the stall budget closes the
    /// connection. Ignored by [`FaultyReader`].
    pub fn write_stall_every(mut self, n: u64, stall: Duration) -> Self {
        self.write_stall_every = Some((n.max(1), stall));
        self
    }

    /// Hard-disconnects a [`FaultyConn`] after `bytes` written bytes:
    /// the write that crosses the threshold delivers the remainder up to
    /// the threshold and every later write fails with
    /// [`ErrorKind::ConnectionAborted`] — a client dying mid-frame.
    /// Ignored by [`FaultyReader`].
    pub fn disconnect_after_writes(mut self, bytes: u64) -> Self {
        self.disconnect_after_writes = Some(bytes);
        self
    }

    /// Makes [`FaultyFile::persist`] fail instead of renaming the staged
    /// file over the destination — the commit step dying between write
    /// and rename. The staged tmp file is left behind, exactly as a real
    /// crash would leave it. Ignored by the stream adapters.
    pub fn fail_rename(mut self) -> Self {
        self.rename_fails = true;
        self
    }
}

/// An [`Evaluate`] decorator that panics deterministically on the records
/// selected by [`FaultPlan::panic_every`], delegating every other record to
/// the wrapped engine. For torture-testing the pipeline's panic isolation:
/// the panic fires *inside* worker evaluation, exactly where a buggy engine
/// would fail in production.
///
/// [`Evaluate`]: crate::Evaluate
#[derive(Debug)]
pub struct PanicInjector<'a, E: ?Sized> {
    inner: &'a E,
    every: u64,
}

impl<'a, E: crate::Evaluate + ?Sized> PanicInjector<'a, E> {
    /// Wraps `inner`, panicking per `plan` (a plan without
    /// [`panic_every`](FaultPlan::panic_every) never panics).
    pub fn new(inner: &'a E, plan: &FaultPlan) -> Self {
        PanicInjector {
            inner,
            every: plan.panic_every.unwrap_or(u64::MAX),
        }
    }
}

impl<E: crate::Evaluate + ?Sized> crate::Evaluate for PanicInjector<'_, E> {
    fn name(&self) -> &'static str {
        "PanicInjector"
    }

    fn evaluate_metered(
        &self,
        record: &[u8],
        record_idx: u64,
        sink: &mut dyn crate::MatchSink,
        metrics: Option<&crate::Metrics>,
    ) -> crate::RecordOutcome {
        if (record_idx + 1).is_multiple_of(self.every) {
            panic!("injected panic on record {record_idx}");
        }
        self.inner
            .evaluate_metered(record, record_idx, sink, metrics)
    }
}

/// A [`Read`] adapter that injects the faults described by a [`FaultPlan`];
/// see the [module docs](self).
#[derive(Debug)]
pub struct FaultyReader<R> {
    inner: R,
    plan: FaultPlan,
    rng: SplitMix64,
    /// Read attempts made so far (including ones that returned an error).
    attempts: u64,
    /// Bytes delivered to the caller so far.
    delivered: u64,
}

impl<R: Read> FaultyReader<R> {
    /// Wraps `inner`, injecting faults per `plan`.
    pub fn new(inner: R, plan: FaultPlan) -> Self {
        let rng = SplitMix64::new(plan.seed);
        FaultyReader {
            inner,
            plan,
            rng,
            attempts: 0,
            delivered: 0,
        }
    }

    /// Bytes delivered to the caller so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }
}

impl<R: Read> Read for FaultyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.attempts += 1;
        if let Some(n) = self.plan.interrupt_every {
            if self.attempts.is_multiple_of(n) {
                return Err(Error::new(ErrorKind::Interrupted, "injected interrupt"));
            }
        }
        if let Some(n) = self.plan.would_block_every {
            if self.attempts.is_multiple_of(n) {
                return Err(Error::new(ErrorKind::WouldBlock, "injected would-block"));
            }
        }
        let mut cap = buf.len();
        if let Some(max) = self.plan.short_read_max {
            cap = cap.min(1 + self.rng.below(max as u64) as usize);
        }
        if let Some(cut) = self.plan.truncate_at {
            let left = cut.saturating_sub(self.delivered);
            cap = cap.min(usize::try_from(left).unwrap_or(usize::MAX));
            if cap == 0 {
                return Ok(0); // injected truncation: clean early EOF
            }
        }
        let n = self.inner.read(&mut buf[..cap])?;
        if let Some(every) = self.plan.corrupt_every {
            for (i, byte) in buf.iter_mut().enumerate().take(n) {
                if (self.delivered + i as u64 + 1).is_multiple_of(every) {
                    *byte ^= 1 + (self.rng.next_u64() % 255) as u8;
                }
            }
        }
        self.delivered += n as u64;
        Ok(n)
    }
}

/// A [`Read`]`+`[`Write`] adapter that injects *socket-level* faults per a
/// [`FaultPlan`]: short writes ([`FaultPlan::short_writes`]), mid-frame
/// stalls ([`FaultPlan::write_stall_every`]), and hard disconnects
/// ([`FaultPlan::disconnect_after_writes`]) on the write side; short reads
/// ([`FaultPlan::short_reads`]), injected [`ErrorKind::Interrupted`]
/// ([`FaultPlan::interrupt_every`]), and byte corruption
/// ([`FaultPlan::corrupt_every`]) on the read side.
///
/// Wrap a *client's* connection in it to torture a framed-protocol
/// server: fragmented frames must still reassemble, a death mid-frame
/// must not corrupt any other connection, and stalls must trip the
/// server's slow-loris budget instead of pinning a thread. Like
/// everything in this module it is fully deterministic per seed.
#[derive(Debug)]
pub struct FaultyConn<T> {
    inner: T,
    plan: FaultPlan,
    rng: SplitMix64,
    write_attempts: u64,
    written: u64,
    read_attempts: u64,
    /// Bytes delivered to the reader so far (drives read-side corruption).
    read_delivered: u64,
}

impl<T: Read + Write> FaultyConn<T> {
    /// Wraps `inner`, injecting faults per `plan`.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        let rng = SplitMix64::new(plan.seed ^ 0xC0A8_1337_5EED_F00D);
        FaultyConn {
            inner,
            plan,
            rng,
            write_attempts: 0,
            written: 0,
            read_attempts: 0,
            read_delivered: 0,
        }
    }

    /// Bytes actually written to the transport so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Consumes the wrapper, returning the underlying transport.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// Shared access to the underlying transport (e.g. to set socket
    /// timeouts).
    pub fn get_ref(&self) -> &T {
        &self.inner
    }
}

impl<T: Read + Write> Read for FaultyConn<T> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.read_attempts += 1;
        if let Some(n) = self.plan.interrupt_every {
            if self.read_attempts.is_multiple_of(n) {
                return Err(Error::new(ErrorKind::Interrupted, "injected interrupt"));
            }
        }
        let mut cap = buf.len();
        if let Some(max) = self.plan.short_read_max {
            cap = cap.min(1 + self.rng.below(max as u64) as usize);
        }
        let n = self.inner.read(&mut buf[..cap])?;
        if let Some(every) = self.plan.corrupt_every {
            for (i, byte) in buf.iter_mut().enumerate().take(n) {
                if (self.read_delivered + i as u64 + 1).is_multiple_of(every) {
                    *byte ^= 1 + (self.rng.next_u64() % 255) as u8;
                }
            }
        }
        self.read_delivered += n as u64;
        Ok(n)
    }
}

impl<T: Read + Write> Write for FaultyConn<T> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.write_attempts += 1;
        if let Some((n, stall)) = self.plan.write_stall_every {
            if self.write_attempts.is_multiple_of(n) {
                std::thread::sleep(stall);
            }
        }
        let mut cap = buf.len();
        if let Some(cut) = self.plan.disconnect_after_writes {
            let left = cut.saturating_sub(self.written);
            if left == 0 {
                return Err(Error::new(
                    ErrorKind::ConnectionAborted,
                    "injected disconnect",
                ));
            }
            cap = cap.min(usize::try_from(left).unwrap_or(usize::MAX));
        }
        if let Some(max) = self.plan.short_write_max {
            cap = cap.min(1 + self.rng.below(max as u64) as usize);
        }
        let n = self.inner.write(&buf[..cap])?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// A [`Write`] adapter over a staged file that injects *storage-level*
/// faults per a [`FaultPlan`], for torture-testing loaders of durable
/// artifacts (checkpoints, the structural-index cache).
///
/// The faults model a lying disk rather than a failing syscall: with
/// [`FaultPlan::truncate_at`] every byte past the threshold is silently
/// discarded while the writer is told it was accepted (a torn write the
/// final `fsync` never saw), and [`FaultPlan::corrupt_every`] flips bytes
/// on their way to the platters. [`FaultPlan::short_writes`] and
/// [`FaultPlan::interrupt_every`] exercise the caller's `write_all`
/// retry loop, and [`FaultPlan::fail_rename`] kills the commit step.
///
/// The lifecycle mirrors the crates' atomic-save discipline: bytes go to
/// a staged sibling (`<dest>.ff-tmp`), then [`persist`](Self::persist)
/// syncs and renames over the destination. Dropping the value without
/// persisting — or calling [`abandon`](Self::abandon) — models a crash
/// before commit: the destination is never touched.
#[derive(Debug)]
pub struct FaultyFile {
    file: Option<std::fs::File>,
    tmp: PathBuf,
    dest: PathBuf,
    plan: FaultPlan,
    rng: SplitMix64,
    write_attempts: u64,
    /// Bytes the caller believes were accepted.
    accepted: u64,
    /// Bytes actually on disk (differs from `accepted` under truncation).
    durable: u64,
}

impl FaultyFile {
    /// Opens a staged sibling of `dest` for writing, injecting faults per
    /// `plan`. The destination itself is untouched until
    /// [`persist`](Self::persist) succeeds.
    pub fn create(dest: impl Into<PathBuf>, plan: FaultPlan) -> std::io::Result<Self> {
        let dest = dest.into();
        let mut name = dest
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_else(|| "faulty".into());
        name.push(".ff-tmp");
        let tmp = dest.with_file_name(name);
        let rng = SplitMix64::new(plan.seed ^ 0xF11E_5EED_0DD5_C0DE);
        Ok(FaultyFile {
            file: Some(std::fs::File::create(&tmp)?),
            tmp,
            dest,
            plan,
            rng,
            write_attempts: 0,
            accepted: 0,
            durable: 0,
        })
    }

    /// Bytes the caller was told were written (truncated bytes included).
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Bytes actually persisted to the staged file.
    pub fn durable(&self) -> u64 {
        self.durable
    }

    /// The staged tmp path (useful for asserting crash leftovers).
    pub fn tmp_path(&self) -> &Path {
        &self.tmp
    }

    /// Commits the staged file: flush, sync, rename over the destination.
    /// Fails without renaming when the plan says
    /// [`fail_rename`](FaultPlan::fail_rename), leaving the tmp behind.
    pub fn persist(mut self) -> std::io::Result<PathBuf> {
        let file = self.file.take().expect("persist called once");
        file.sync_all()?;
        drop(file);
        if self.plan.rename_fails {
            return Err(Error::other("injected rename failure"));
        }
        std::fs::rename(&self.tmp, &self.dest)?;
        Ok(std::mem::take(&mut self.dest))
    }

    /// Abandons the write, deleting the staged file and leaving the
    /// destination exactly as it was — a clean model of "the process died
    /// before commit and someone swept the tmp".
    pub fn abandon(mut self) {
        self.file.take();
        let _ = std::fs::remove_file(&self.tmp);
    }
}

impl Drop for FaultyFile {
    fn drop(&mut self) {
        // An unpersisted drop models a crash: the staged file is left
        // exactly as written (torn, corrupt, or incomplete) for the
        // loader under test to trip over.
        self.file.take();
    }
}

impl Write for FaultyFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.write_attempts += 1;
        if let Some(n) = self.plan.interrupt_every {
            if self.write_attempts.is_multiple_of(n) {
                return Err(Error::new(ErrorKind::Interrupted, "injected interrupt"));
            }
        }
        let mut cap = buf.len();
        if let Some(max) = self.plan.short_write_max {
            cap = cap.min(1 + self.rng.below(max as u64) as usize);
        }
        if cap == 0 {
            return Ok(0);
        }
        // The lying-disk window: bytes past `truncate_at` are reported as
        // accepted but never reach the file.
        let keep = match self.plan.truncate_at {
            Some(cut) => {
                let left = cut.saturating_sub(self.accepted);
                cap.min(usize::try_from(left).unwrap_or(usize::MAX))
            }
            None => cap,
        };
        if keep > 0 {
            let file = self.file.as_mut().expect("file open until persist");
            if let Some(every) = self.plan.corrupt_every {
                let mut staged = buf[..keep].to_vec();
                for (i, byte) in staged.iter_mut().enumerate() {
                    if (self.durable + i as u64 + 1).is_multiple_of(every) {
                        *byte ^= 1 + (self.rng.next_u64() % 255) as u8;
                    }
                }
                file.write_all(&staged)?;
            } else {
                file.write_all(&buf[..keep])?;
            }
            self.durable += keep as u64;
        }
        self.accepted += cap as u64;
        Ok(cap)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self.file.as_mut() {
            Some(f) => f.flush(),
            None => Ok(()),
        }
    }
}

/// Applies one seeded mutation to `record`, returning the mutated copy.
/// Mutations are the classic malformed-input moves: truncate, delete a
/// byte, duplicate a byte, flip a byte, or clobber a structural character
/// with garbage. Empty input is returned unchanged.
pub fn mutate(record: &[u8], seed: u64) -> Vec<u8> {
    if record.is_empty() {
        return Vec::new();
    }
    let mut rng = SplitMix64::new(seed);
    let mut out = record.to_vec();
    let at = rng.below(record.len() as u64) as usize;
    match rng.below(5) {
        0 => out.truncate(at.max(1)),
        1 => {
            out.remove(at);
        }
        2 => {
            let b = out[at];
            out.insert(at, b);
        }
        3 => out[at] ^= 1 + (rng.next_u64() % 255) as u8,
        _ => {
            // Find a structural byte to clobber (fall back to position
            // `at` when the record has none).
            let pos = record
                .iter()
                .enumerate()
                .cycle()
                .skip(at)
                .take(record.len())
                .find(|(_, b)| matches!(b, b'{' | b'}' | b'[' | b']' | b'"' | b':' | b','))
                .map(|(i, _)| i)
                .unwrap_or(at);
            out[pos] = b'@';
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_not_constant() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
        let mut c = SplitMix64::new(43);
        assert_ne!(xs[0], c.next_u64());
    }

    #[test]
    fn faulty_reader_is_deterministic() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let run = || {
            let plan = FaultPlan::new(9).short_reads(7).corrupt_every(97);
            let mut r = FaultyReader::new(&data[..], plan);
            let mut out = Vec::new();
            r.read_to_end(&mut out).unwrap();
            out
        };
        let a = run();
        assert_eq!(a, run());
        assert_eq!(a.len(), data.len());
        assert_ne!(a, data, "corruption must have changed something");
    }

    #[test]
    fn truncation_cuts_the_stream_short() {
        let data = vec![7u8; 1000];
        let plan = FaultPlan::new(1).truncate_at(123).short_reads(50);
        let mut r = FaultyReader::new(&data[..], plan);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out.len(), 123);
        assert_eq!(r.delivered(), 123);
    }

    #[test]
    fn interrupts_and_blocks_fire_on_schedule() {
        let data = [1u8; 64];
        let plan = FaultPlan::new(0).interrupt_every(2);
        let mut r = FaultyReader::new(&data[..], plan);
        let mut buf = [0u8; 8];
        assert!(r.read(&mut buf).is_ok());
        assert_eq!(r.read(&mut buf).unwrap_err().kind(), ErrorKind::Interrupted);
        assert!(r.read(&mut buf).is_ok());
        let plan = FaultPlan::new(0).would_block_every(1);
        let mut r = FaultyReader::new(&data[..], plan);
        assert_eq!(r.read(&mut buf).unwrap_err().kind(), ErrorKind::WouldBlock);
    }

    #[test]
    fn panic_injector_fires_on_schedule() {
        use crate::Evaluate;
        let engine = crate::JsonSki::compile("$.a").unwrap();
        let plan = FaultPlan::new(0).panic_every(3);
        let injector = PanicInjector::new(&engine, &plan);
        let mut sink = crate::CountSink::default();
        assert!(!injector.evaluate(b"{\"a\": 1}", 0, &mut sink).is_failed());
        assert!(!injector.evaluate(b"{\"a\": 1}", 1, &mut sink).is_failed());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut sink = crate::CountSink::default();
            injector.evaluate(b"{\"a\": 1}", 2, &mut sink)
        }));
        assert!(caught.is_err(), "record 2 must panic");
        // A plan without the knob never panics.
        let quiet = PanicInjector::new(&engine, &FaultPlan::new(0));
        assert!(!quiet.evaluate(b"{\"a\": 1}", 2, &mut sink).is_failed());
    }

    /// An in-memory duplex stand-in for a socket: reads from one buffer,
    /// writes to another.
    struct MemConn {
        rx: std::io::Cursor<Vec<u8>>,
        tx: Vec<u8>,
    }

    impl Read for MemConn {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.rx.read(buf)
        }
    }

    impl Write for MemConn {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.tx.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn faulty_conn_short_writes_fragment_but_deliver_everything() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(2000).collect();
        let conn = MemConn {
            rx: std::io::Cursor::new(Vec::new()),
            tx: Vec::new(),
        };
        let mut fc = FaultyConn::new(conn, FaultPlan::new(5).short_writes(3));
        fc.write_all(&payload).unwrap();
        assert_eq!(fc.written(), payload.len() as u64);
        assert!(fc.write_attempts >= payload.len() as u64 / 3);
        assert_eq!(fc.into_inner().tx, payload, "fragments must reassemble");
    }

    #[test]
    fn faulty_conn_disconnect_cuts_mid_frame() {
        let conn = MemConn {
            rx: std::io::Cursor::new(Vec::new()),
            tx: Vec::new(),
        };
        let mut fc = FaultyConn::new(conn, FaultPlan::new(1).disconnect_after_writes(10));
        let err = fc.write_all(&[9u8; 64]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::ConnectionAborted);
        assert_eq!(fc.written(), 10, "exactly the threshold leaks out");
        assert_eq!(fc.get_ref().tx.len(), 10);
    }

    #[test]
    fn faulty_conn_reads_honor_short_reads_and_interrupts() {
        let conn = MemConn {
            rx: std::io::Cursor::new((0..100u8).collect()),
            tx: Vec::new(),
        };
        let mut fc = FaultyConn::new(conn, FaultPlan::new(2).short_reads(4).interrupt_every(3));
        let mut out = Vec::new();
        let mut buf = [0u8; 64];
        loop {
            match fc.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    assert!(n <= 4, "short-read cap violated");
                    out.extend_from_slice(&buf[..n]);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(out, (0..100u8).collect::<Vec<_>>());
    }

    #[test]
    fn faulty_conn_write_stall_fires_on_schedule() {
        let conn = MemConn {
            rx: std::io::Cursor::new(Vec::new()),
            tx: Vec::new(),
        };
        let stall = Duration::from_millis(30);
        let mut fc = FaultyConn::new(conn, FaultPlan::new(0).write_stall_every(2, stall));
        let start = std::time::Instant::now();
        fc.write_all(&[1u8; 4]).unwrap(); // attempt 1: no stall
        fc.write_all(&[2u8; 4]).unwrap(); // attempt 2: stalls
        assert!(start.elapsed() >= stall, "second write must have stalled");
    }

    fn faulty_file_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("jsonski-ffile-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn faulty_file_truncation_is_silent() {
        let dir = faulty_file_dir("trunc");
        let dest = dir.join("artifact.bin");
        let mut f = FaultyFile::create(&dest, FaultPlan::new(3).truncate_at(100)).unwrap();
        f.write_all(&[0xAB; 1000]).unwrap();
        assert_eq!(f.accepted(), 1000, "writer must believe the write landed");
        assert_eq!(f.durable(), 100);
        f.persist().unwrap();
        assert_eq!(std::fs::read(&dest).unwrap().len(), 100, "torn write");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulty_file_corruption_is_deterministic() {
        let dir = faulty_file_dir("corrupt");
        let payload: Vec<u8> = (0..=255u8).cycle().take(2048).collect();
        let run = |name: &str| {
            let dest = dir.join(name);
            let plan = FaultPlan::new(11).corrupt_every(53).short_writes(17);
            let mut f = FaultyFile::create(&dest, plan).unwrap();
            f.write_all(&payload).unwrap();
            f.persist().unwrap();
            std::fs::read(&dest).unwrap()
        };
        let a = run("a.bin");
        assert_eq!(a, run("b.bin"), "same seed, same damage");
        assert_eq!(a.len(), payload.len());
        assert_ne!(a, payload, "corruption must have changed something");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulty_file_rename_failure_preserves_old_destination() {
        let dir = faulty_file_dir("rename");
        let dest = dir.join("artifact.bin");
        std::fs::write(&dest, b"old-and-valid").unwrap();
        let mut f = FaultyFile::create(&dest, FaultPlan::new(0).fail_rename()).unwrap();
        let tmp = f.tmp_path().to_path_buf();
        f.write_all(b"new-but-doomed").unwrap();
        let err = f.persist().unwrap_err();
        assert!(err.to_string().contains("injected rename failure"));
        assert_eq!(std::fs::read(&dest).unwrap(), b"old-and-valid");
        assert!(tmp.exists(), "crash leftovers stay for the sweeper");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulty_file_abandon_and_interrupts() {
        let dir = faulty_file_dir("abandon");
        let dest = dir.join("artifact.bin");
        let plan = FaultPlan::new(4).short_writes(8).interrupt_every(2);
        let mut f = FaultyFile::create(&dest, plan).unwrap();
        // write_all retries through injected Interrupted errors.
        f.write_all(&[7u8; 64]).unwrap();
        assert!(f.write_attempts > 8, "interrupts must have fired");
        assert_eq!(f.durable(), 64);
        let tmp = f.tmp_path().to_path_buf();
        f.abandon();
        assert!(!dest.exists() && !tmp.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mutate_changes_nonempty_records_deterministically() {
        let rec = br#"{"a": [1, 2, {"b": "c"}]}"#;
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..50 {
            let m = mutate(rec, seed);
            assert_eq!(m, mutate(rec, seed), "seed {seed} must be reproducible");
            assert!(!m.is_empty());
            distinct.insert(m);
        }
        assert!(distinct.len() > 10, "mutations should be diverse");
        assert!(mutate(b"", 1).is_empty());
    }
}
