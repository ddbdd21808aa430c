//! [`jsonski::Evaluate`] adapter: a query-bound leveled-index engine.

use jsonpath::{ParsePathError, Path};

use crate::validate::validate;
use crate::LeveledIndex;

/// A JSONPath query evaluated by leveled-bitmap index construction plus
/// index-guided traversal (the paper's "Pison" baseline), usable wherever
/// [`jsonski::Evaluate`] is accepted — e.g. in a [`jsonski::Pipeline`].
///
/// Because the raw leveled index assumes well-formed input, each
/// evaluation first runs an explicit structural [validation
/// pass](crate::validate) so malformed records are *reported* instead of
/// yielding garbage — a documented concession for the unified API (the
/// benchmarks keep using the unvalidated [`LeveledIndex`] path).
#[derive(Clone, Debug)]
pub struct PisonQuery {
    path: Path,
    validation: jsonski::ValidationMode,
}

impl PisonQuery {
    /// Binds the engine to an already-parsed path.
    pub fn new(path: Path) -> Self {
        PisonQuery {
            path,
            validation: jsonski::ValidationMode::Permissive,
        }
    }

    /// Compiles a JSONPath expression.
    ///
    /// # Errors
    ///
    /// Returns the parse error for malformed expressions.
    pub fn compile(query: &str) -> Result<Self, ParsePathError> {
        Ok(PisonQuery::new(query.parse()?))
    }

    /// Sets the input trust level (builder-style); Strict adds the shared
    /// pre-pass of [`jsonski::baseline_outcome`] before the structural
    /// [validation pass](crate::validate) this engine always performs.
    pub fn with_validation(mut self, mode: jsonski::ValidationMode) -> Self {
        self.validation = mode;
        self
    }

    /// The compiled path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl jsonski::Evaluate for PisonQuery {
    fn name(&self) -> &'static str {
        "Pison"
    }

    /// Validation plus leveled-index construction is the build step, the
    /// index-guided query loop the traversal.
    fn evaluate_metered(
        &self,
        record: &[u8],
        record_idx: u64,
        sink: &mut dyn jsonski::MatchSink,
        metrics: Option<&jsonski::Metrics>,
    ) -> jsonski::RecordOutcome {
        jsonski::baseline_outcome(
            self.name(),
            self.validation,
            record,
            record_idx,
            sink,
            metrics,
            || {
                validate(record).map(|()| {
                    LeveledIndex::build(record, LeveledIndex::levels_for(record, &self.path))
                })
            },
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
    use jsonski::Evaluate;

    #[test]
    fn counts_and_failures() {
        let q = PisonQuery::compile("$.a").unwrap();
        assert_eq!(q.name(), "Pison");
        assert_eq!(q.count(br#"{"a": 1}"#).unwrap(), 1);
        assert_eq!(q.count(b"  ").unwrap(), 0);
        assert!(q.count(br#"{"a" 1}"#).is_err());
        assert_eq!(q.path().len(), 1);
    }

    #[test]
    fn early_exit_reports_stopped() {
        let q = PisonQuery::compile("$[*]").unwrap();
        let mut sink =
            jsonski::FnSink::new(|_m: jsonski::Match<'_>| std::ops::ControlFlow::Break(()));
        match q.evaluate(b"[1, 2, 3]", 0, &mut sink) {
            jsonski::RecordOutcome::Stopped { matches } => assert_eq!(matches, 1),
            other => panic!("expected Stopped, got {other:?}"),
        }
    }
}
