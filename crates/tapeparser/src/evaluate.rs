//! [`jsonski::Evaluate`] adapter: a query-bound tape engine.

use jsonpath::{ParsePathError, Path};

use crate::Tape;

/// A JSONPath query evaluated by two-stage tape construction plus on-tape
/// traversal (the paper's "simdjson" baseline), usable wherever
/// [`jsonski::Evaluate`] is accepted — e.g. in a [`jsonski::Pipeline`].
/// Each evaluation builds the whole tape first, as in the paper.
#[derive(Clone, Debug)]
pub struct TapeQuery {
    path: Path,
    validation: jsonski::ValidationMode,
}

impl TapeQuery {
    /// Binds the engine to an already-parsed path.
    pub fn new(path: Path) -> Self {
        TapeQuery {
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
        Ok(TapeQuery::new(query.parse()?))
    }

    /// Sets the input trust level (builder-style); Strict adds the shared
    /// pre-pass of [`jsonski::baseline_outcome`].
    pub fn with_validation(mut self, mode: jsonski::ValidationMode) -> Self {
        self.validation = mode;
        self
    }

    /// The compiled path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl jsonski::Evaluate for TapeQuery {
    fn name(&self) -> &'static str {
        "simdjson"
    }

    /// Tape construction is the build step, the on-tape query loop the
    /// traversal.
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
            || Tape::build(record),
            |tape, out| {
                out.emit_slices(tape.query(&self.path));
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
        let q = TapeQuery::compile("$.a").unwrap();
        assert_eq!(q.name(), "simdjson");
        assert_eq!(q.count(br#"{"a": 1}"#).unwrap(), 1);
        assert_eq!(q.count(b"  ").unwrap(), 0);
        assert!(q.count(br#"{"a" 1}"#).is_err());
        assert_eq!(q.path().len(), 1);
    }

    #[test]
    fn early_exit_reports_stopped() {
        let q = TapeQuery::compile("$[*]").unwrap();
        let mut sink =
            jsonski::FnSink::new(|_m: jsonski::Match<'_>| std::ops::ControlFlow::Break(()));
        match q.evaluate(b"[1, 2, 3]", 0, &mut sink) {
            jsonski::RecordOutcome::Stopped { matches } => assert_eq!(matches, 1),
            other => panic!("expected Stopped, got {other:?}"),
        }
    }
}
