//! Persistent structural index: cached per-record offsets and word bitmaps.
//!
//! The structural bitmaps JSONSki streams over (paper stage 1; the
//! "Parsing Gigabytes of JSON per Second" lineage) are a pure function of
//! the input bytes — for a *stored* corpus queried repeatedly, there is no
//! reason to rebuild them per request. [`StructuralIndex`] persists, per
//! corpus file, the record spans discovered by the bit-parallel
//! [`RecordSplitter`](crate::RecordSplitter) plus every record's
//! [`BlockBitmaps`], so a later evaluation can skip classification
//! entirely: [`IndexedJsonSki`] feeds the pre-built bitmaps straight into
//! the streaming cursor ([`JsonSki::stream_prebuilt`]).
//!
//! # On-disk format (version `JSKIDX1`)
//!
//! All integers are little-endian `u64`; each section carries its own
//! FNV-1a checksum so corruption is localized and detected before any
//! byte is trusted:
//!
//! ```text
//! magic            8 bytes  b"JSKIDX1\n"
//! config_digest    u64      engine-config digest (see [`config_digest`])
//! input_len        u64      corpus length in bytes
//! fingerprint_head u64      FNV of the first 4096 corpus bytes
//! fingerprint_tail u64      FNV of the last 4096 corpus bytes
//! record_count     u64      number of record spans
//! bitmap_words     u64      total 64-byte words across all records
//! header_checksum  u64      FNV of everything above
//! spans            record_count × (start u64, end u64)
//! spans_checksum   u64      FNV of the spans section
//! bitmaps          bitmap_words × 64 bytes ([`BlockBitmaps::to_wire`])
//! bitmaps_checksum u64      FNV of the bitmaps section
//! ```
//!
//! Records are classified independently (the classifier's cross-block
//! string state resets at each record boundary), exactly mirroring how
//! per-record evaluation constructs its cursor — which is what makes the
//! cached and uncached paths byte-identical.
//!
//! # Robustness contract
//!
//! A cache file is advisory, never authoritative:
//!
//! * every load failure — missing, torn, truncated, bit-flipped,
//!   version-skewed, config-mismatched, or stale against the live corpus
//!   bytes — is a typed [`IndexError`], and the caller's answer is always
//!   the same: evaluate with full classification and (optionally) rebuild;
//! * [`StructuralIndex::save`] stages into a `.tmp` sibling, fsyncs, and
//!   renames (the [`Checkpoint`](crate::Checkpoint) discipline), so a
//!   crash at any byte leaves either the old valid index or none;
//! * [`StructuralIndex::from_bytes`] fully validates structure (span
//!   monotonicity, bounds, word accounting) before returning, so a loaded
//!   index can never panic the cursor downstream;
//! * a mis-sized bitmap slice degrades to classification inside
//!   [`Cursor::with_prebuilt`](crate::cursor::Cursor::with_prebuilt) —
//!   belt and braces under the braces of load-time validation.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use simdbits::{classify_stream, BlockBitmaps, Classifier, BLOCK};

use crate::checkpoint::{digest_parts, fingerprint, FINGERPRINT_BYTES};
use crate::engine::{EngineConfig, JsonSki};
use crate::error::StreamError;
use crate::evaluate::{stream_outcome, EngineError, Evaluate, MatchSink, RecordOutcome};
use crate::pipeline::RecordSource;

/// Magic prefix of an index file; bump the digit on any layout change so
/// older/newer builds see a typed [`IndexError::BadMagic`], not garbage.
const MAGIC: &[u8; 8] = b"JSKIDX1\n";

/// Fixed header length: magic + six `u64` fields + header checksum.
const HEADER_BYTES: usize = 8 + 6 * 8 + 8;

/// Why a persistent index could not be used. Every variant means the same
/// thing operationally — evaluate with full classification instead — but
/// the caller's metrics distinguish *miss* (no index yet), *stale*
/// (corpus or config changed), and *corrupt* (the file itself is bad).
#[derive(Debug)]
pub enum IndexError {
    /// No index file exists at the probed path.
    Missing,
    /// Reading or writing the index file failed.
    Io(io::Error),
    /// The file does not start with this version's magic (foreign file or
    /// version skew).
    BadMagic,
    /// The file is shorter than its sections claim (torn or truncated
    /// write).
    Truncated {
        /// Bytes the header said the file needs.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// A section's checksum does not match its bytes (bit corruption).
    Checksum {
        /// Which section failed: `"header"`, `"spans"`, or `"bitmaps"`.
        section: &'static str,
    },
    /// The sections are internally inconsistent (overlapping or
    /// out-of-bounds spans, word counts that do not add up).
    Malformed {
        /// Human-readable description of the inconsistency.
        reason: String,
    },
    /// The index was built under a different engine configuration.
    ConfigMismatch,
    /// The corpus bytes changed since the index was built (length or
    /// head/tail fingerprint mismatch).
    Stale,
    /// Building a fresh index failed because the corpus itself cannot be
    /// split into records; nothing was persisted.
    Build(StreamError),
}

impl IndexError {
    /// Whether this failure means the cache *file* is damaged (as opposed
    /// to merely absent or out of date); feeds the corrupt-fallback
    /// counter.
    pub fn is_corrupt(&self) -> bool {
        matches!(
            self,
            IndexError::Io(_)
                | IndexError::BadMagic
                | IndexError::Truncated { .. }
                | IndexError::Checksum { .. }
                | IndexError::Malformed { .. }
        )
    }
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Missing => write!(f, "no index file"),
            IndexError::Io(e) => write!(f, "index i/o error: {e}"),
            IndexError::BadMagic => write!(f, "not a jsonski index (bad magic)"),
            IndexError::Truncated { expected, got } => {
                write!(f, "index truncated: expected {expected} bytes, got {got}")
            }
            IndexError::Checksum { section } => {
                write!(f, "index {section} checksum mismatch")
            }
            IndexError::Malformed { reason } => write!(f, "index malformed: {reason}"),
            IndexError::ConfigMismatch => {
                write!(f, "index built under a different configuration")
            }
            IndexError::Stale => write!(f, "index is stale (corpus changed)"),
            IndexError::Build(e) => write!(f, "index build failed: {e}"),
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Io(e) => Some(e),
            IndexError::Build(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for IndexError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::NotFound {
            IndexError::Missing
        } else {
            IndexError::Io(e)
        }
    }
}

/// Digests the parts of an [`EngineConfig`] that a persistent index must
/// not alias across: fast-forward toggles, validation mode, the effective
/// kernel (the `JSONSKI_KERNEL` override included, defensively — bitmaps
/// are kernel-invariant by the equivalence tests, but a digest is cheaper
/// than an argument), and the limits that shape per-record outcomes.
pub fn config_digest(config: &EngineConfig) -> u64 {
    let kernel = simdbits::forced_kernel().or(config.kernel);
    digest_parts(&[
        "jsonski-index v1".to_string(),
        format!("g1={} g4={} g5={}", config.g1, config.g4, config.g5),
        format!("validation={:?}", config.validation),
        format!("kernel={}", kernel.map_or("auto", |k| k.name())),
        format!("max_record_bytes={}", config.limits.max_record_bytes),
        format!("max_depth={}", config.limits.max_depth),
    ])
}

/// The cache file path for a corpus named `name` under `dir`: the name is
/// fingerprinted (not embedded) so arbitrary corpus names can never
/// traverse or collide in the cache directory.
pub fn index_path_for(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{:016x}.jskidx", fingerprint(name.as_bytes())))
}

crate::metric_struct! {
    /// Lock-free counters for index-cache outcomes; shared by reference
    /// between the serving path and the metrics scrape.
    #[derive(Debug, Default)]
    pub struct IndexStats {
        /// Requests answered from a valid index (classification skipped).
        pub hits: AtomicU64 => "index_hit",
        /// Requests with no index file yet.
        pub misses: AtomicU64 => "index_miss",
        /// Requests whose index was stale or config-mismatched.
        pub stale: AtomicU64 => "index_stale",
        /// Requests whose index file was damaged (magic, checksum, truncation,
        /// structural inconsistency, or I/O failure).
        pub corrupt_fallback: AtomicU64 => "index_corrupt_fallback",
        /// Background index (re)builds scheduled.
        pub rebuilds: AtomicU64 => "index_rebuilds",
        /// Input bytes whose classification was skipped thanks to index hits.
        pub skipped_bytes: AtomicU64 => "index_skipped_classification_bytes",
    }
}

impl IndexStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a non-hit outcome under the counter its [`IndexError`]
    /// classifies into: missing → miss, stale/config → stale, anything
    /// else → corrupt fallback.
    pub fn record_error(&self, e: &IndexError) {
        match e {
            IndexError::Missing => &self.misses,
            IndexError::Stale | IndexError::ConfigMismatch => &self.stale,
            _ => &self.corrupt_fallback,
        }
        .fetch_add(1, Ordering::Relaxed);
    }
}

/// A corpus's persistent structural index: record spans plus every
/// record's word bitmaps, bound to the corpus bytes (length + head/tail
/// fingerprints) and an engine-config digest. See the module docs for the
/// file format and the robustness contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StructuralIndex {
    config_digest: u64,
    input_len: u64,
    fingerprint_head: u64,
    fingerprint_tail: u64,
    spans: Vec<(u64, u64)>,
    /// `word_offsets[i]` is record `i`'s first word in `bitmaps`; derived
    /// from the spans on construction, never persisted.
    word_offsets: Vec<usize>,
    bitmaps: Vec<BlockBitmaps>,
}

impl StructuralIndex {
    /// Builds an index over `input` by splitting it into records
    /// ([`split_records`](crate::split_records)) and classifying each
    /// record independently — the same per-record classifier lifecycle
    /// evaluation uses, so the stored bitmaps are bit-for-bit what a
    /// fresh cursor would compute.
    ///
    /// # Errors
    ///
    /// [`IndexError::Build`] when the corpus cannot be split into records;
    /// nothing is usable (or persistable) from a partial split.
    pub fn build(input: &[u8], config_digest: u64) -> Result<StructuralIndex, IndexError> {
        let spans = crate::records::split_records(input).map_err(IndexError::Build)?;
        let mut cls = Classifier::new();
        let mut bitmaps = Vec::new();
        let mut word_offsets = Vec::with_capacity(spans.len());
        for &(s, e) in &spans {
            word_offsets.push(bitmaps.len());
            cls.reset();
            classify_stream(&mut cls, &input[s..e], |_, bm| bitmaps.push(bm));
        }
        Ok(StructuralIndex {
            config_digest,
            input_len: input.len() as u64,
            fingerprint_head: fingerprint(&input[..input.len().min(FINGERPRINT_BYTES)]),
            fingerprint_tail: fingerprint(&input[input.len().saturating_sub(FINGERPRINT_BYTES)..]),
            spans: spans.iter().map(|&(s, e)| (s as u64, e as u64)).collect(),
            word_offsets,
            bitmaps,
        })
    }

    /// The digest of the configuration this index was built under.
    pub fn config_digest(&self) -> u64 {
        self.config_digest
    }

    /// Record spans (byte ranges into the corpus), in corpus order.
    pub fn spans(&self) -> &[(u64, u64)] {
        &self.spans
    }

    /// Number of records covered.
    pub fn record_count(&self) -> usize {
        self.spans.len()
    }

    /// Approximate resident footprint of this index in bytes (span,
    /// word-offset, and bitmap storage), for memory-budget accounting.
    pub fn size_bytes(&self) -> usize {
        self.spans.len() * std::mem::size_of::<(u64, u64)>()
            + self.word_offsets.len() * std::mem::size_of::<usize>()
            + self.bitmaps.len() * std::mem::size_of::<BlockBitmaps>()
    }

    /// Record `idx`'s bitmaps: one [`BlockBitmaps`] per 64-byte word of
    /// the record's span. `None` when `idx` is out of range.
    pub fn bitmaps_for(&self, idx: usize) -> Option<&[BlockBitmaps]> {
        let &(s, e) = self.spans.get(idx)?;
        let off = *self.word_offsets.get(idx)?;
        let words = ((e - s) as usize).div_ceil(BLOCK);
        self.bitmaps.get(off..off + words)
    }

    /// Checks that this index still describes `input` under the
    /// configuration digested as `config_digest`.
    ///
    /// # Errors
    ///
    /// [`IndexError::ConfigMismatch`] or [`IndexError::Stale`]; config is
    /// checked first (a config mismatch says nothing about the corpus).
    pub fn verify(&self, input: &[u8], config_digest: u64) -> Result<(), IndexError> {
        if self.config_digest != config_digest {
            return Err(IndexError::ConfigMismatch);
        }
        let head = fingerprint(&input[..input.len().min(FINGERPRINT_BYTES)]);
        let tail = fingerprint(&input[input.len().saturating_sub(FINGERPRINT_BYTES)..]);
        if self.input_len != input.len() as u64
            || self.fingerprint_head != head
            || self.fingerprint_tail != tail
        {
            return Err(IndexError::Stale);
        }
        Ok(())
    }

    /// Serializes to the on-disk format (see the module docs).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            HEADER_BYTES + self.spans.len() * 16 + 8 + self.bitmaps.len() * 64 + 8,
        );
        out.extend_from_slice(MAGIC);
        for v in [
            self.config_digest,
            self.input_len,
            self.fingerprint_head,
            self.fingerprint_tail,
            self.spans.len() as u64,
            self.bitmaps.len() as u64,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        let header_sum = fingerprint(&out);
        out.extend_from_slice(&header_sum.to_le_bytes());

        let spans_start = out.len();
        for &(s, e) in &self.spans {
            out.extend_from_slice(&s.to_le_bytes());
            out.extend_from_slice(&e.to_le_bytes());
        }
        let spans_sum = fingerprint(&out[spans_start..]);
        out.extend_from_slice(&spans_sum.to_le_bytes());

        let bitmaps_start = out.len();
        for bm in &self.bitmaps {
            out.extend_from_slice(&bm.to_wire());
        }
        let bitmaps_sum = fingerprint(&out[bitmaps_start..]);
        out.extend_from_slice(&bitmaps_sum.to_le_bytes());
        out
    }

    /// Parses and *fully validates* a serialized index: magic, per-section
    /// checksums, exact length, span monotonicity and bounds, and word
    /// accounting. An index this returns can be streamed over without any
    /// possibility of an out-of-range bitmap access.
    ///
    /// # Errors
    ///
    /// The typed [`IndexError`] for whichever check failed first.
    pub fn from_bytes(bytes: &[u8]) -> Result<StructuralIndex, IndexError> {
        if bytes.len() < HEADER_BYTES {
            if bytes.len() >= 8 && &bytes[..8] != MAGIC {
                return Err(IndexError::BadMagic);
            }
            return Err(IndexError::Truncated {
                expected: HEADER_BYTES,
                got: bytes.len(),
            });
        }
        if &bytes[..8] != MAGIC {
            return Err(IndexError::BadMagic);
        }
        let u64_at =
            |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8-byte field"));
        let header_sum = u64_at(HEADER_BYTES - 8);
        if fingerprint(&bytes[..HEADER_BYTES - 8]) != header_sum {
            return Err(IndexError::Checksum { section: "header" });
        }
        let config_digest = u64_at(8);
        let input_len = u64_at(16);
        let fingerprint_head = u64_at(24);
        let fingerprint_tail = u64_at(32);
        let record_count = u64_at(40);
        let bitmap_words = u64_at(48);

        // Expected total length, guarded against a (checksummed but
        // absurd) header overflowing usize arithmetic.
        let too_big = || IndexError::Malformed {
            reason: "section sizes overflow".to_string(),
        };
        let spans_bytes = usize::try_from(record_count)
            .ok()
            .and_then(|n| n.checked_mul(16))
            .ok_or_else(too_big)?;
        let bitmap_bytes = usize::try_from(bitmap_words)
            .ok()
            .and_then(|n| n.checked_mul(64))
            .ok_or_else(too_big)?;
        let expected = HEADER_BYTES
            .checked_add(spans_bytes)
            .and_then(|n| n.checked_add(8))
            .and_then(|n| n.checked_add(bitmap_bytes))
            .and_then(|n| n.checked_add(8))
            .ok_or_else(too_big)?;
        if bytes.len() != expected {
            return Err(IndexError::Truncated {
                expected,
                got: bytes.len(),
            });
        }

        let spans_start = HEADER_BYTES;
        let spans_end = spans_start + spans_bytes;
        if fingerprint(&bytes[spans_start..spans_end]) != u64_at(spans_end) {
            return Err(IndexError::Checksum { section: "spans" });
        }
        let bitmaps_start = spans_end + 8;
        let bitmaps_end = bitmaps_start + bitmap_bytes;
        if fingerprint(&bytes[bitmaps_start..bitmaps_end]) != u64_at(bitmaps_end) {
            return Err(IndexError::Checksum { section: "bitmaps" });
        }

        let malformed = |reason: String| IndexError::Malformed { reason };
        let mut spans = Vec::with_capacity(record_count as usize);
        let mut word_offsets = Vec::with_capacity(record_count as usize);
        let mut prev_end = 0u64;
        let mut words = 0usize;
        for i in 0..record_count as usize {
            let s = u64_at(spans_start + i * 16);
            let e = u64_at(spans_start + i * 16 + 8);
            if s > e || e > input_len {
                return Err(malformed(format!("span {i} ({s}..{e}) out of bounds")));
            }
            if s < prev_end {
                return Err(malformed(format!("span {i} overlaps its predecessor")));
            }
            prev_end = e;
            word_offsets.push(words);
            words += ((e - s) as usize).div_ceil(BLOCK);
            spans.push((s, e));
        }
        if words as u64 != bitmap_words {
            return Err(malformed(format!(
                "spans need {words} bitmap words, file holds {bitmap_words}"
            )));
        }
        let mut bitmaps = Vec::with_capacity(bitmap_words as usize);
        for i in 0..bitmap_words as usize {
            let off = bitmaps_start + i * 64;
            let wire: &[u8; 64] = bytes[off..off + 64].try_into().expect("64-byte block");
            bitmaps.push(BlockBitmaps::from_wire(wire));
        }
        Ok(StructuralIndex {
            config_digest,
            input_len,
            fingerprint_head,
            fingerprint_tail,
            spans,
            word_offsets,
            bitmaps,
        })
    }

    /// Atomically persists the index at `path`: staged into a `.tmp`
    /// sibling, fsynced, renamed over the destination, parent directory
    /// synced best-effort — a crash at any byte leaves the old index or
    /// none.
    ///
    /// # Errors
    ///
    /// Any I/O error from writing, syncing, or renaming.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let tmp = tmp_path(path);
        {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            f.write_all(&self.to_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Loads, parses, validates, and verifies the index at `path` against
    /// the live corpus bytes and configuration — the one-call read path.
    ///
    /// # Errors
    ///
    /// [`IndexError::Missing`] when no file exists; otherwise whichever
    /// typed failure [`from_bytes`](Self::from_bytes) or
    /// [`verify`](Self::verify) hits first.
    pub fn load(
        path: &Path,
        input: &[u8],
        config_digest: u64,
    ) -> Result<StructuralIndex, IndexError> {
        let mut bytes = Vec::new();
        File::open(path)?
            .read_to_end(&mut bytes)
            .map_err(IndexError::Io)?;
        let index = StructuralIndex::from_bytes(&bytes)?;
        index.verify(input, config_digest)?;
        Ok(index)
    }
}

/// The sibling temp file a [`StructuralIndex::save`] stages into.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(ToOwned::to_owned).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// [`RecordSource`] over a corpus using an index's *persisted* spans —
/// record discovery is skipped along with classification. Record ordinals
/// assigned by the [`Pipeline`](crate::Pipeline) equal span indices, which
/// is what lets [`IndexedJsonSki`] find each record's bitmaps.
#[derive(Debug)]
pub struct IndexedRecords<'a> {
    corpus: &'a [u8],
    spans: &'a [(u64, u64)],
    next: usize,
    consumed: u64,
}

impl<'a> IndexedRecords<'a> {
    /// Iterates `corpus` according to `index`'s spans. The index must have
    /// been [`verify`](StructuralIndex::verify)-ed against these same
    /// bytes; span bounds were already validated at load time.
    pub fn new(corpus: &'a [u8], index: &'a StructuralIndex) -> Self {
        IndexedRecords {
            corpus,
            spans: index.spans(),
            next: 0,
            consumed: 0,
        }
    }
}

impl RecordSource for IndexedRecords<'_> {
    fn next_record(&mut self) -> Result<Option<&[u8]>, EngineError> {
        let Some(&(s, e)) = self.spans.get(self.next) else {
            return Ok(None);
        };
        self.next += 1;
        self.consumed = e;
        Ok(Some(&self.corpus[s as usize..e as usize]))
    }

    fn consumed_offset(&self) -> Option<u64> {
        Some(self.consumed)
    }
}

/// An [`Evaluate`] adapter that answers records of an indexed corpus with
/// [`JsonSki::stream_prebuilt`]: classification is skipped, bitmaps come
/// from the [`StructuralIndex`], and outcome mapping (limits, strict
/// verdicts, error classification) mirrors the plain [`JsonSki`]
/// implementation exactly — the differential tests pin the two paths
/// byte-identical.
///
/// Records must be delivered with ordinals matching span indices (which
/// [`IndexedRecords`] + [`Pipeline`](crate::Pipeline) guarantee); a
/// record the index cannot place falls back to plain evaluation.
pub struct IndexedJsonSki<'a> {
    engine: &'a JsonSki,
    index: &'a StructuralIndex,
    stats: Option<&'a IndexStats>,
}

impl<'a> IndexedJsonSki<'a> {
    /// Wraps `engine` to serve bitmaps from `index`, optionally counting
    /// hit bytes into `stats`.
    pub fn new(
        engine: &'a JsonSki,
        index: &'a StructuralIndex,
        stats: Option<&'a IndexStats>,
    ) -> Self {
        IndexedJsonSki {
            engine,
            index,
            stats,
        }
    }

    /// The record's bitmap slice, when the ordinal and length line up with
    /// the index.
    fn prebuilt_for(&self, record: &[u8], record_idx: u64) -> Option<&'a [BlockBitmaps]> {
        let idx = usize::try_from(record_idx).ok()?;
        let &(s, e) = self.index.spans().get(idx)?;
        if (e - s) as usize != record.len() {
            return None;
        }
        self.index.bitmaps_for(idx)
    }

    fn count_skip(&self, record: &[u8], words_classified: usize) {
        if let Some(stats) = self.stats {
            let bytes = (words_classified * BLOCK).min(record.len()) as u64;
            stats.skipped_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Both [`Evaluate`] entry points: the prebuilt-bitmap pass when the
    /// index can place the record, a plain pass otherwise, mapped by the
    /// shared outcome helper (words "classified" on the prebuilt path are
    /// words served from the index; `classify_ns` is the time the index
    /// saved, reported as 0).
    fn evaluate_with(
        &self,
        record: &[u8],
        record_idx: u64,
        sink: &mut dyn MatchSink,
        metrics: Option<&crate::Metrics>,
    ) -> RecordOutcome {
        let limits = self.engine.config().limits;
        let mut deliver = |m: crate::Match<'_>| sink.on_match(m.with_record_idx(record_idx));
        match self.prebuilt_for(record, record_idx) {
            Some(prebuilt) => stream_outcome(record, &limits, metrics, || {
                self.engine
                    .stream_prebuilt(record, prebuilt, &mut deliver)
                    .inspect(|o| self.count_skip(record, o.words_classified))
            }),
            None => stream_outcome(record, &limits, metrics, || {
                self.engine.stream(record, &mut deliver)
            }),
        }
    }
}

impl Evaluate for IndexedJsonSki<'_> {
    fn name(&self) -> &'static str {
        "JSONSki+index"
    }

    fn evaluate(&self, record: &[u8], record_idx: u64, sink: &mut dyn MatchSink) -> RecordOutcome {
        self.evaluate_with(record, record_idx, sink, None)
    }

    fn evaluate_metered(
        &self,
        record: &[u8],
        record_idx: u64,
        sink: &mut dyn MatchSink,
        metrics: &crate::Metrics,
    ) -> RecordOutcome {
        self.evaluate_with(record, record_idx, sink, Some(metrics))
    }
}

// Evaluate requires Sync; all fields are shared references to Sync types.
#[allow(dead_code)]
fn assert_sync(v: IndexedJsonSki<'_>) -> impl Sync + '_ {
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::FnSink;
    use crate::pipeline::{Pipeline, SliceRecords};
    use std::ops::ControlFlow;

    const CORPUS: &[u8] = b"{\"a\": 1, \"b\": {\"x\": [1, 2, 3]}}\n{\"a\": 2}\n{\"c\": [true, null]}\n{\"a\": {\"deep\": {\"a\": 3}}}\n";

    fn digest() -> u64 {
        config_digest(&EngineConfig::default())
    }

    fn collect(engine: &dyn Evaluate, source: &mut dyn RecordSource) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::new();
        let mut sink = FnSink::new(|m: crate::Match<'_>| {
            out.push((m.record_idx(), m.bytes().to_vec()));
            ControlFlow::Continue(())
        });
        Pipeline::new()
            .workers(1)
            .run(engine, source, &mut sink)
            .unwrap();
        out
    }

    #[test]
    fn build_covers_every_record_and_word() {
        let idx = StructuralIndex::build(CORPUS, digest()).unwrap();
        assert_eq!(idx.record_count(), 4);
        for (i, &(s, e)) in idx.spans().iter().enumerate() {
            let words = ((e - s) as usize).div_ceil(BLOCK);
            assert_eq!(idx.bitmaps_for(i).unwrap().len(), words);
        }
        assert!(idx.bitmaps_for(4).is_none());
    }

    #[test]
    fn roundtrip_preserves_index() {
        let idx = StructuralIndex::build(CORPUS, digest()).unwrap();
        let parsed = StructuralIndex::from_bytes(&idx.to_bytes()).unwrap();
        assert_eq!(parsed, idx);
        parsed.verify(CORPUS, digest()).unwrap();
    }

    #[test]
    fn verify_rejects_wrong_config_and_stale_corpus() {
        let idx = StructuralIndex::build(CORPUS, digest()).unwrap();
        assert!(matches!(
            idx.verify(CORPUS, digest() ^ 1),
            Err(IndexError::ConfigMismatch)
        ));
        let mut mutated = CORPUS.to_vec();
        mutated[3] = b'z';
        assert!(matches!(
            idx.verify(&mutated, digest()),
            Err(IndexError::Stale)
        ));
        let mut longer = CORPUS.to_vec();
        longer.extend_from_slice(b"{\"d\": 4}\n");
        assert!(matches!(
            idx.verify(&longer, digest()),
            Err(IndexError::Stale)
        ));
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = StructuralIndex::build(CORPUS, digest()).unwrap().to_bytes();
        for cut in 0..bytes.len() {
            let err = StructuralIndex::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, IndexError::Truncated { .. } | IndexError::BadMagic),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = StructuralIndex::build(CORPUS, digest()).unwrap().to_bytes();
        let original = StructuralIndex::from_bytes(&bytes).unwrap();
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x41;
            match StructuralIndex::from_bytes(&bad) {
                // A flip inside a checksum-or-checksummed byte is caught…
                Err(_) => {}
                // …and a flip that still parses must decode to different
                // bytes being rejected elsewhere — it can never silently
                // equal the original.
                Ok(parsed) => assert_ne!(parsed, original, "flip at {pos} undetected"),
            }
        }
    }

    #[test]
    fn version_skew_is_bad_magic() {
        let mut bytes = StructuralIndex::build(CORPUS, digest()).unwrap().to_bytes();
        bytes[6] = b'2'; // JSKIDX2
        assert!(matches!(
            StructuralIndex::from_bytes(&bytes),
            Err(IndexError::BadMagic)
        ));
        assert!(matches!(
            StructuralIndex::from_bytes(
                b"PNG\r\n\x1a\nxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"
            ),
            Err(IndexError::BadMagic)
        ));
    }

    #[test]
    fn malformed_spans_are_rejected_structurally() {
        // Hand-craft an index whose checksums are valid but whose spans
        // overlap: structural validation must catch it.
        let mut idx = StructuralIndex::build(CORPUS, digest()).unwrap();
        idx.spans[1].0 = 0; // overlaps span 0
        let bytes = idx.to_bytes();
        assert!(matches!(
            StructuralIndex::from_bytes(&bytes),
            Err(IndexError::Malformed { .. })
        ));
        let mut idx = StructuralIndex::build(CORPUS, digest()).unwrap();
        let last = idx.spans.len() - 1;
        idx.spans[last].1 = idx.input_len + 100; // out of bounds
        assert!(matches!(
            StructuralIndex::from_bytes(&idx.to_bytes()),
            Err(IndexError::Malformed { .. })
        ));
    }

    #[test]
    fn save_load_roundtrip_and_missing() {
        let dir = std::env::temp_dir().join(format!("jsonski-idx-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = index_path_for(&dir, "corpus.jsonl");
        assert!(matches!(
            StructuralIndex::load(&path, CORPUS, digest()),
            Err(IndexError::Missing)
        ));
        let idx = StructuralIndex::build(CORPUS, digest()).unwrap();
        idx.save(&path).unwrap();
        assert_eq!(StructuralIndex::load(&path, CORPUS, digest()).unwrap(), idx);
        assert!(!tmp_path(&path).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn build_refuses_unsplittable_corpus() {
        assert!(matches!(
            StructuralIndex::build(b"{\"never\": [1, 2\n", digest()),
            Err(IndexError::Build(_))
        ));
    }

    #[test]
    fn indexed_evaluation_is_byte_identical_to_uncached() {
        for query in ["$.a", "$.b.x[*]", "$..a", "$.c[1]"] {
            let engine = JsonSki::compile(query).unwrap();
            let idx = StructuralIndex::build(CORPUS, digest()).unwrap();
            let uncached = collect(&engine, &mut SliceRecords::new(CORPUS));
            let indexed = IndexedJsonSki::new(&engine, &idx, None);
            let cached = collect(&indexed, &mut IndexedRecords::new(CORPUS, &idx));
            assert_eq!(cached, uncached, "{query}");
        }
    }

    #[test]
    fn index_path_is_traversal_proof() {
        let dir = Path::new("/cache");
        let p = index_path_for(dir, "../../etc/passwd");
        assert!(p.starts_with(dir));
        assert!(p.to_str().unwrap().ends_with(".jskidx"));
        assert_ne!(index_path_for(dir, "a"), index_path_for(dir, "b"));
    }

    #[test]
    fn stats_classify_errors_into_counters() {
        let stats = IndexStats::new();
        stats.record_error(&IndexError::Missing);
        stats.record_error(&IndexError::Stale);
        stats.record_error(&IndexError::ConfigMismatch);
        stats.record_error(&IndexError::Checksum { section: "spans" });
        stats.record_error(&IndexError::BadMagic);
        let pairs: std::collections::HashMap<_, _> = stats.pairs().into_iter().collect();
        assert_eq!(pairs["index_miss"], 1);
        assert_eq!(pairs["index_stale"], 2);
        assert_eq!(pairs["index_corrupt_fallback"], 2);
        assert_eq!(pairs["index_hit"], 0);
    }
}
