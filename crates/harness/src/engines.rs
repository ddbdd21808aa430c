//! The engine abstraction for the five systems under test (paper Table 2).
//!
//! The abstraction is [`jsonski::Evaluate`] (re-exported here as
//! [`Engine`]): every engine crate implements its one required method,
//! `evaluate_metered`, natively (the four baselines through
//! [`jsonski::baseline_outcome`]), errors are the typed
//! [`jsonski::EngineError`], and `evaluate` and `count` are provided on
//! top of it. This module keeps the [`EngineKind`] enumeration, the
//! [`all_engines`] constructor, and the harness-only
//! [`ParallelPisonEngine`] configuration (the paper's "Pison(16)" bar).

use std::convert::Infallible;

use jsonpath::Path;

pub use jsonski::{EngineError, Evaluate as Engine};

/// Identifies one of the five evaluated systems.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Character-by-character streaming (dual-stack automaton).
    JpStream,
    /// Conventional DOM parse tree + traversal.
    RapidJsonClass,
    /// Two-stage SIMD tape parser.
    SimdJsonClass,
    /// Leveled-bitmap structural index.
    PisonClass,
    /// Streaming with bit-parallel fast-forwarding (this paper).
    JsonSki,
}

impl EngineKind {
    /// All five engines in the paper's presentation order.
    pub fn all() -> [EngineKind; 5] {
        [
            EngineKind::JpStream,
            EngineKind::RapidJsonClass,
            EngineKind::SimdJsonClass,
            EngineKind::PisonClass,
            EngineKind::JsonSki,
        ]
    }

    /// Builds this engine bound to `path`.
    pub fn build(self, path: &Path) -> Box<dyn Engine> {
        match self {
            EngineKind::JpStream => Box::new(jpstream::JpStream::new(path.clone())),
            EngineKind::RapidJsonClass => Box::new(domparser::DomQuery::new(path.clone())),
            EngineKind::SimdJsonClass => Box::new(tapeparser::TapeQuery::new(path.clone())),
            EngineKind::PisonClass => Box::new(pison::PisonQuery::new(path.clone())),
            EngineKind::JsonSki => Box::new(jsonski::JsonSki::new(path.clone())),
        }
    }
}

/// Builds all five engines (serial configurations) for `path`, in the
/// paper's presentation order.
pub fn all_engines(path: &Path) -> Vec<Box<dyn Engine>> {
    EngineKind::all()
        .into_iter()
        .map(|k| k.build(path))
        .collect()
}

/// Pison with *speculative parallel* index construction — the paper's
/// "Pison(16)" configuration. Harness-only: like the original Pison it
/// assumes well-formed input (no validation pass), so its timings stay
/// comparable; use [`pison::PisonQuery`] for mixed-quality streams.
pub struct ParallelPisonEngine {
    path: Path,
    threads: usize,
}

impl ParallelPisonEngine {
    /// Speculative parallel index construction with `threads` workers.
    pub fn new(path: &Path, threads: usize) -> Self {
        ParallelPisonEngine {
            path: path.clone(),
            threads,
        }
    }
}

impl Engine for ParallelPisonEngine {
    fn name(&self) -> &'static str {
        "Pison"
    }

    /// Parallel index construction is the build step, the index-guided
    /// query loop the traversal.
    fn evaluate_metered(
        &self,
        record: &[u8],
        record_idx: u64,
        sink: &mut dyn jsonski::MatchSink,
        metrics: Option<&jsonski::Metrics>,
    ) -> jsonski::RecordOutcome {
        let levels = self.path.len().max(1);
        jsonski::baseline_outcome(
            self.name(),
            jsonski::ValidationMode::Permissive,
            record,
            record_idx,
            sink,
            metrics,
            || Ok::<_, Infallible>(pison::build_parallel(record, levels, self.threads)),
            |index, out| {
                out.emit_slices(index.query(&self.path));
                Ok(())
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &[u8] = br#"{"pd": [{"cp": [{"id": 1}, {"id": 2}, {"id": 3}]},
                               {"cp": [{"id": 4}, {"id": 5}, {"id": 6}, {"id": 7}]}]}"#;

    #[test]
    fn all_engines_agree_on_sample() {
        let path: Path = "$.pd[*].cp[1:3].id".parse().unwrap();
        let counts: Vec<usize> = all_engines(&path)
            .iter()
            .map(|e| e.count(SAMPLE).unwrap())
            .collect();
        assert!(counts.iter().all(|&c| c == 4), "{counts:?}");
    }

    #[test]
    fn parallel_pison_agrees() {
        let path: Path = "$.pd[*].cp[1:3].id".parse().unwrap();
        let e = ParallelPisonEngine::new(&path, 4);
        assert_eq!(e.count(SAMPLE).unwrap(), 4);
    }

    #[test]
    fn names_match_paper() {
        let path: Path = "$.a".parse().unwrap();
        let names: Vec<&str> = all_engines(&path).iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            vec!["JPStream", "RapidJSON", "simdjson", "Pison", "JSONSki"]
        );
    }

    #[test]
    fn engines_report_typed_errors_on_truncated_input() {
        let path: Path = "$.a.b".parse().unwrap();
        for e in all_engines(&path) {
            let res = e.count(br#"{"a": {"b": [1, 2"#);
            assert!(res.is_err(), "{} accepted truncated input", e.name());
        }
    }

    #[test]
    fn engines_report_typed_errors_on_missing_colon() {
        // `{"a" 1}` is balanced, so even index-based engines must diagnose
        // it (Pison via its explicit validation pass).
        let path: Path = "$.a".parse().unwrap();
        for e in all_engines(&path) {
            let res = e.count(br#"{"a" 1}"#);
            assert!(res.is_err(), "{} accepted a missing colon", e.name());
        }
    }
}
