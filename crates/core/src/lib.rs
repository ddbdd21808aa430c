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
    CountSink, EngineError, ErrorPolicy, Evaluate, FnSink, Match, MatchSink, RecordOutcome,
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
