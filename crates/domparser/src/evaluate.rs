//! [`jsonski::Evaluate`] adapter: a query-bound DOM engine.

use jsonpath::{ParsePathError, Path};

use crate::Dom;

/// A JSONPath query evaluated by full DOM construction plus tree walking
/// (the paper's "RapidJSON" baseline), usable wherever
/// [`jsonski::Evaluate`] is accepted — e.g. in a [`jsonski::Pipeline`].
/// Each evaluation parses the whole record first, as in the paper.
#[derive(Clone, Debug)]
pub struct DomQuery {
    path: Path,
    validation: jsonski::ValidationMode,
}

impl DomQuery {
    /// Binds the engine to an already-parsed path.
    pub fn new(path: Path) -> Self {
        DomQuery {
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
        Ok(DomQuery::new(query.parse()?))
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

impl jsonski::Evaluate for DomQuery {
    fn name(&self) -> &'static str {
        "RapidJSON"
    }

    /// DOM parsing is the build step, the tree walk the traversal.
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
            // Blank records have no values and thus no matches (the
            // streaming engines' convention); the DOM parser itself
            // rejects empty input.
            || {
                let blank = record.iter().all(u8::is_ascii_whitespace);
                (!blank).then(|| Dom::parse(record)).transpose()
            },
            |dom, out| {
                let nodes = dom.iter().flat_map(|dom| dom.query(&self.path));
                out.emit_spans(nodes.map(|node| node.span()));
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
        let q = DomQuery::compile("$.a").unwrap();
        assert_eq!(q.name(), "RapidJSON");
        assert_eq!(q.count(br#"{"a": 1}"#).unwrap(), 1);
        assert_eq!(q.count(b"  ").unwrap(), 0);
        assert!(q.count(br#"{"a" 1}"#).is_err());
        assert_eq!(q.path().len(), 1);
    }

    #[test]
    fn early_exit_reports_stopped() {
        let q = DomQuery::compile("$[*]").unwrap();
        let mut sink =
            jsonski::FnSink::new(|_m: jsonski::Match<'_>| std::ops::ControlFlow::Break(()));
        match q.evaluate(b"[1, 2, 3]", 0, &mut sink) {
            jsonski::RecordOutcome::Stopped { matches } => assert_eq!(matches, 1),
            other => panic!("expected Stopped, got {other:?}"),
        }
    }
}
