//! **jsonski** — streaming JSONPath evaluation with bit-parallel
//! fast-forwarding, a Rust reproduction of *JSONSki: Streaming
//! Semi-structured Data with Bit-Parallel Fast-Forwarding* (Jiang & Zhao,
//! ASPLOS 2022).
//!
//! The streaming scheme evaluates a path query in a single pass over the
//! raw JSON bytes, with no parse tree and no structural index. What makes it
//! fast is *fast-forwarding*: substructures that provably cannot affect the
//! query result are skipped using bitwise/SIMD primitives instead of being
//! tokenized:
//!
//! | Group | Opportunity | Module |
//! |-------|-------------|--------|
//! | G1 | seek the next attribute/element of the type the query demands | [`fastforward`] |
//! | G2 | skip an unmatched attribute value or element wholesale | [`fastforward`] |
//! | G3 | skip an accepted value while emitting its bytes | [`fastforward`] |
//! | G4 | skip to the end of an object once a unique name matched | [`fastforward`] |
//! | G5 | skip array elements outside an index-range constraint | [`fastforward`] |
//!
//! The skips locate object/array ends with the counting-based pairing
//! strategy (paper Theorem 4.3) over per-64-byte-word metacharacter bitmaps
//! supplied by the [`simdbits`] crate, and [`interval`] provides the
//! word-local *structural interval* primitives of the paper's Algorithm 3.
//!
//! # Quick start
//!
//! ```
//! use jsonski::JsonSki;
//!
//! let json = br#"{"pd": [{"id": 7, "tags": ["a", "b"]}, {"id": 9}]}"#;
//! let query = JsonSki::compile("$.pd[*].id")?;
//! assert_eq!(query.matches(json)?, vec![&b"7"[..], &b"9"[..]]);
//!
//! // On-demand extraction: JSON-pointer lookup with lazy typed decoding.
//! let id = jsonski::get(json, "/pd/1/id")?.expect("present");
//! assert_eq!(id.as_i64(), Some(9));
//!
//! // Fast-forward accounting (the paper's Table 6 metric):
//! let stats = query.run(json, |_| {})?;
//! assert!(stats.overall_ratio() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

mod cancel;
mod checkpoint;
pub mod cursor;
mod engine;
mod error;
mod evaluate;
pub mod fastforward;
#[cfg(any(test, feature = "faults"))]
pub mod faults;
#[cfg(any(test, feature = "faults"))]
pub mod fuzz;
pub mod index;
pub mod interval;
mod lazy;
mod limits;
pub mod membudget;
pub mod metrics;
mod multi;
mod pipeline;
mod pointer;
mod reader;
mod records;
mod stats;
mod validate;

pub use cancel::CancellationToken;
pub use checkpoint::{digest_parts, fingerprint, Checkpoint, CheckpointCadence, FINGERPRINT_BYTES};
pub use engine::{EngineConfig, EngineConfigBuilder, JsonSki, StreamOutcome, MAX_DEPTH};
pub use error::{InvalidReason, StreamError};
pub use evaluate::{
    baseline_outcome, CountSink, EngineError, ErrorPolicy, Evaluate, FnSink, Match, MatchSink,
    RecordOutcome, Walk,
};
pub use index::{IndexError, IndexStats, IndexedJsonSki, IndexedRecords, StructuralIndex};
pub use lazy::{ArrayIter, DecodeError, LazyValue, ObjectIter, ValueKind};
pub use limits::{LimitExceeded, ResourceLimits, DEFAULT_MAX_BUFFER_BYTES};
pub use membudget::{MemBudget, MemDenied, MemPermit};
pub use metrics::{HistogramSnapshot, Metrics, MetricsSnapshot, Stopwatch, MAX_TRACKED_WORKERS};
pub use multi::MultiQuery;
pub use pipeline::{Pipeline, PipelineSummary, RecordSource, SliceRecords};
pub use pointer::{
    get, get_many, ExtractError, Extraction, Extractor, JsonPointer, PointerParseError,
    MAX_POINTER_DEPTH,
};
pub use reader::{ChunkedRecords, ReadRecordError, RetryPolicy, DEFAULT_BUFFER};
pub use records::{split_records, RecordSplitter};
pub use stats::{FastForwardStats, Group};
pub use validate::{validate_record, validate_record_with, ValidationMode, Validator};

// Re-export the kernel selector so embedders can force one without a direct
// simdbits dependency (mirrors the `--kernel` / `JSONSKI_KERNEL` plumbing).
pub use simdbits::{best_kernel, Kernel};

// Re-export the query types so downstream users need only this crate.
pub use jsonpath::{ExpectedType, ParsePathError, Path, Step};

/// A scrape value read as `u64`: an atomic counter, a plain size, or a
/// locked map's entry count.
#[doc(hidden)]
pub trait Gauge {
    /// The current value.
    fn read(&self) -> u64;
}

impl Gauge for std::sync::atomic::AtomicU64 {
    fn read(&self) -> u64 {
        self.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl Gauge for usize {
    fn read(&self) -> u64 {
        *self as u64
    }
}

/// A locked map reads as its entry count (through a poisoned lock too: a
/// count is safe to read whatever the holder left half done).
impl<K, V, S> Gauge for std::sync::Mutex<std::collections::HashMap<K, V, S>> {
    fn read(&self) -> u64 {
        let map = self
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        map.len() as u64
    }
}

/// Declares a struct whose fields marked `=> "name"` are exported
/// metrics, and its `pairs()`: every marked field's name and current
/// value, in declaration order, as [`metrics::render_pairs`] takes them.
/// Marked fields are `AtomicU64` counters, `usize` settings or locked
/// maps (their entry count). The engine registry's table is in
/// [`metrics`].
#[doc(hidden)]
#[macro_export]
macro_rules! metric_struct {
    (
        $(#[$attr:meta])*
        $vis:vis struct $Name:ident {
            $( $(#[$fattr:meta])* $fvis:vis $field:ident: $ty:ty $(=> $metric:literal)?, )*
        }
    ) => {
        $(#[$attr])*
        $vis struct $Name {
            $( $(#[$fattr])* $fvis $field: $ty, )*
        }

        impl $Name {
            /// Snapshot as `(name, value)` pairs in render order, named
            /// for the metrics scrape.
            pub fn pairs(&self) -> Vec<(&'static str, u64)> {
                vec![$($(($metric, $crate::Gauge::read(&self.$field)),)?)*]
            }
        }
    };
}
