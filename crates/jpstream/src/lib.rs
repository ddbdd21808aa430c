//! JPStream-class baseline: character-by-character streaming query
//! evaluation with a dual-stack automaton and **no** fast-forwarding.
//!
//! This is the "conventional design" of the streaming scheme that the paper
//! improves on (Section 2, Figure 4): a query stack tracks the matching
//! progress per level and a syntax stack tracks the syntactic nesting, while
//! the input is scanned *in detail* — every token of every substructure is
//! recognized and fed to the automaton, even inside values that can never
//! match. Its per-character costs are exactly what JSONSki's bit-parallel
//! fast-forwarding removes, so this engine is the primary speedup baseline
//! (the paper reports JSONSki 12.3× faster on large records).
//!
//! The query automaton itself is shared with all other engines
//! ([`jsonpath::Runtime`]); only the *driving* differs.
//!
//! # Example
//!
//! ```
//! use jpstream::JpStream;
//!
//! let json = br#"{"place": {"name": "Manhattan", "x": 1}}"#;
//! let engine = JpStream::compile("$.place.name")?;
//! assert_eq!(engine.matches(json)?, vec![&b"\"Manhattan\""[..]]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

use std::error::Error;
use std::fmt;
use std::ops::ControlFlow;

use jsonpath::{ContainerKind, ParsePathError, Path, Runtime, Status};

/// Maximum nesting depth (recursion guard, matching the other engines).
pub const MAX_DEPTH: usize = 1024;

/// Error raised while streaming a malformed record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JpError {
    message: &'static str,
    /// Byte offset of the error.
    pub pos: usize,
}

impl JpError {
    fn new(message: &'static str, pos: usize) -> Self {
        JpError { message, pos }
    }
}

impl fmt::Display for JpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.pos)
    }
}

impl Error for JpError {}

/// A compiled query evaluated by character-at-a-time streaming.
#[derive(Clone, Debug)]
pub struct JpStream {
    path: Path,
    validation: jsonski::ValidationMode,
}

impl JpStream {
    /// Wraps an already-parsed path.
    pub fn new(path: Path) -> Self {
        JpStream {
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
        Ok(JpStream::new(query.parse()?))
    }

    /// Sets the input trust level (builder-style); Strict adds the shared
    /// pre-pass of [`jsonski::baseline_outcome`] to the
    /// [`jsonski::Evaluate`] entry point. The raw [`JpStream::stream`] API
    /// keeps its historical character-level checks only.
    pub fn with_validation(mut self, mode: jsonski::ValidationMode) -> Self {
        self.validation = mode;
        self
    }

    /// The compiled path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Streams one record with early-exit support: `sink` receives each
    /// match's raw bytes and may return [`ControlFlow::Break`] to stop the
    /// scan immediately.
    ///
    /// Unlike JSONSki the detailed scan cannot *skip* anything, but it can
    /// stop: bytes after the breaking match are never examined (see
    /// [`JpOutcome::consumed`]).
    ///
    /// # Errors
    ///
    /// [`JpError`] on any malformed syntax — the detailed scan validates
    /// everything it touches, which is the entire record up to the stop.
    pub fn stream<'a, F>(&self, input: &'a [u8], mut sink: F) -> Result<JpOutcome, JpError>
    where
        F: FnMut(&'a [u8]) -> ControlFlow<()>,
    {
        let mut ev = Eval {
            input,
            pos: 0,
            rt: Runtime::new(&self.path),
            sink: &mut sink,
            matches: 0,
            depth: 0,
            pending: Vec::new(),
            flush_from: 0,
        };
        let stopped = match ev.record() {
            Ok(()) => false,
            Err(Abort::Stop) => true,
            Err(Abort::Err(e)) => return Err(e),
        };
        Ok(JpOutcome {
            matches: ev.matches,
            stopped,
            consumed: ev.pos,
        })
    }

    /// Streams one record, calling `sink` with each match's raw bytes.
    ///
    /// # Errors
    ///
    /// [`JpError`] on any malformed syntax — the detailed scan validates
    /// everything it touches, which is the entire record.
    pub fn run<'a, F>(&self, input: &'a [u8], mut sink: F) -> Result<(), JpError>
    where
        F: FnMut(&'a [u8]),
    {
        self.stream(input, |m| {
            sink(m);
            ControlFlow::Continue(())
        })?;
        Ok(())
    }

    /// Counts matches in one record.
    ///
    /// # Errors
    ///
    /// Propagates [`JpError`] from [`JpStream::run`].
    pub fn count(&self, input: &[u8]) -> Result<usize, JpError> {
        let mut n = 0;
        self.run(input, |_| n += 1)?;
        Ok(n)
    }

    /// Collects all matches' raw bytes.
    ///
    /// # Errors
    ///
    /// Propagates [`JpError`] from [`JpStream::run`].
    pub fn matches<'a>(&self, input: &'a [u8]) -> Result<Vec<&'a [u8]>, JpError> {
        let mut out = Vec::new();
        self.run(input, |m| out.push(m))?;
        Ok(out)
    }
}

/// Outcome of one [`JpStream::stream`] call.
#[derive(Clone, Copy, Debug)]
pub struct JpOutcome {
    /// Matches delivered to the sink (including the one broken on).
    pub matches: usize,
    /// Whether the sink stopped the scan early.
    pub stopped: bool,
    /// Bytes examined; strictly fewer than the input length when an early
    /// stop saved work.
    pub consumed: usize,
}

/// Internal control-flow channel: a real error, or a sink-requested stop.
enum Abort {
    Err(JpError),
    Stop,
}

fn abort(message: &'static str, pos: usize) -> Abort {
    Abort::Err(JpError::new(message, pos))
}

/// A match deferred to preserve pre-order (span-start ascending): an
/// accepted container reaches the sink before the matches found inside it
/// (possible under descendant steps), but its span completes only after the
/// detailed traversal. `end == None` marks a still-open container entry.
struct PendingMatch {
    start: usize,
    end: Option<usize>,
}

struct Eval<'a, 'p, 's> {
    input: &'a [u8],
    pos: usize,
    rt: Runtime<'p>,
    sink: &'s mut dyn FnMut(&'a [u8]) -> ControlFlow<()>,
    matches: usize,
    depth: usize,
    pending: Vec<PendingMatch>,
    flush_from: usize,
}

impl<'a> Eval<'a, '_, '_> {
    /// Emits a completed span, or queues it while an enclosing accepted
    /// container's entry is still open (the container must go first).
    fn emit(&mut self, start: usize, end: usize) -> Result<(), Abort> {
        if self.flush_from == self.pending.len() {
            self.emit_now(start, end)
        } else {
            self.pending.push(PendingMatch {
                start,
                end: Some(end),
            });
            Ok(())
        }
    }

    fn emit_now(&mut self, start: usize, end: usize) -> Result<(), Abort> {
        self.matches += 1;
        match (self.sink)(&self.input[start..end]) {
            ControlFlow::Continue(()) => Ok(()),
            ControlFlow::Break(()) => Err(Abort::Stop),
        }
    }

    fn open_pending(&mut self, start: usize) {
        self.pending.push(PendingMatch { start, end: None });
    }

    fn close_pending(&mut self, end: usize) -> Result<(), Abort> {
        let open = self
            .pending
            .iter_mut()
            .rev()
            .find(|p| p.end.is_none())
            .expect("unbalanced pending-match close");
        open.end = Some(end);
        while let Some(p) = self.pending.get(self.flush_from) {
            let Some(end) = p.end else { break };
            let start = p.start;
            self.flush_from += 1;
            self.emit_now(start, end)?;
        }
        if self.flush_from == self.pending.len() {
            self.pending.clear();
            self.flush_from = 0;
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.input.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), Abort> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(abort(msg, self.pos))
        }
    }

    fn record(&mut self) -> Result<(), Abort> {
        self.skip_ws();
        let Some(t) = self.peek() else {
            return Ok(());
        };
        match t {
            b'{' => {
                let status = self.rt.enter_root(ContainerKind::Object);
                self.pos += 1;
                self.object(status == Status::Accept)?;
                self.rt.exit();
            }
            b'[' => {
                let status = self.rt.enter_root(ContainerKind::Array);
                self.pos += 1;
                self.array(status == Status::Accept)?;
                self.rt.exit();
            }
            _ => {
                let start = self.pos;
                self.primitive()?;
                if self.rt.path().is_empty() {
                    self.emit(start, self.pos)?;
                }
            }
        }
        self.skip_ws();
        Ok(())
    }

    /// Parses an object in full detail. `accepted` marks the object itself
    /// as a query result: its emission is deferred through the pending
    /// queue so it still precedes any match the traversal finds inside it
    /// (possible under descendant steps).
    fn object(&mut self, accepted: bool) -> Result<(), Abort> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(abort("nesting too deep", self.pos));
        }
        let start = self.pos - 1;
        if accepted {
            self.open_pending(start);
        }
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                let (ns, ne) = self.string()?;
                self.expect(b':', "expected `:`")?;
                // [Key] transition (raw name; escape-aware comparison).
                let (state, status) = self.rt.value_state_for_key_raw(&self.input[ns..ne]);
                self.value_with(state, status)?;
                // [Val] transition happens in value_with via exit().
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(abort("expected `,` or `}`", self.pos)),
                }
            }
        }
        if accepted {
            self.close_pending(self.pos)?;
        }
        self.depth -= 1;
        Ok(())
    }

    fn array(&mut self, accepted: bool) -> Result<(), Abort> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(abort("nesting too deep", self.pos));
        }
        let start = self.pos - 1;
        if accepted {
            self.open_pending(start);
        }
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
        } else {
            loop {
                // Filter predicates probe the candidate element's bytes.
                self.skip_ws();
                let pos = self.pos;
                let input = self.input;
                let (state, status) = self
                    .rt
                    .element_state_with(&mut |expr| jsonpath::filter::eval(expr, &input[pos..]));
                self.value_with(state, status)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        self.rt.increment(); // [Com] transition
                    }
                    Some(b']') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(abort("expected `,` or `]`", self.pos)),
                }
            }
        }
        if accepted {
            self.close_pending(self.pos)?;
        }
        self.depth -= 1;
        Ok(())
    }

    /// Parses one value, pushing/popping the automaton around containers.
    /// Every value is parsed in full detail regardless of its status.
    fn value_with(&mut self, state: jsonpath::State, status: Status) -> Result<(), Abort> {
        let accepted = matches!(status, Status::Accept | Status::AcceptAndDescend);
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                self.rt.enter(ContainerKind::Object, state);
                let r = self.object(accepted);
                self.rt.exit();
                r
            }
            Some(b'[') => {
                self.pos += 1;
                self.rt.enter(ContainerKind::Array, state);
                let r = self.array(accepted);
                self.rt.exit();
                r
            }
            Some(_) => {
                let start = self.pos;
                self.primitive()?;
                if accepted {
                    self.emit(start, self.pos)?;
                }
                Ok(())
            }
            None => Err(abort("expected value", self.pos)),
        }
    }

    /// Tokenizes a primitive character by character.
    fn primitive(&mut self) -> Result<(), Abort> {
        match self.peek() {
            Some(b'"') => {
                self.string()?;
                Ok(())
            }
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                self.pos += 1;
                while matches!(
                    self.peek(),
                    Some(c) if c.is_ascii_digit()
                        || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
                ) {
                    self.pos += 1;
                }
                Ok(())
            }
            _ => Err(abort("expected value", self.pos)),
        }
    }

    fn literal(&mut self, word: &'static [u8]) -> Result<(), Abort> {
        if self.input.len() >= self.pos + word.len()
            && &self.input[self.pos..self.pos + word.len()] == word
        {
            self.pos += word.len();
            Ok(())
        } else {
            Err(abort("invalid literal", self.pos))
        }
    }

    /// Tokenizes a string, returning its contents span (quotes excluded).
    fn string(&mut self) -> Result<(usize, usize), Abort> {
        if self.peek() != Some(b'"') {
            return Err(abort("expected string", self.pos));
        }
        self.pos += 1;
        let start = self.pos;
        loop {
            match self.peek() {
                Some(b'"') => {
                    let end = self.pos;
                    self.pos += 1;
                    return Ok((start, end));
                }
                Some(b'\\') => {
                    self.pos += 2;
                    if self.pos > self.input.len() {
                        return Err(abort("unterminated escape", self.pos));
                    }
                }
                Some(_) => self.pos += 1,
                None => return Err(abort("unterminated string", self.pos)),
            }
        }
    }
}

impl jsonski::Evaluate for JpStream {
    fn name(&self) -> &'static str {
        "JPStream"
    }

    /// JPStream is a pure streaming engine with no build step: all its
    /// time outside the Strict pre-pass is traversal.
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
            || Ok(()),
            |(), out| self.stream(record, |m| out.emit_slice(m)).map(drop),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matches_of(query: &str, json: &str) -> Vec<String> {
        let q = JpStream::compile(query).unwrap();
        q.matches(json.as_bytes())
            .unwrap()
            .into_iter()
            .map(|m| String::from_utf8_lossy(m).into_owned())
            .collect()
    }

    #[test]
    fn basic_child_query() {
        let json = r#"{"a": {"b": 42}, "c": 0}"#;
        assert_eq!(matches_of("$.a.b", json), vec!["42"]);
    }

    #[test]
    fn array_wildcard_and_slice() {
        let json = r#"[{"x": 1}, {"x": 2}, {"x": 3}, {"x": 4}]"#;
        assert_eq!(matches_of("$[*].x", json), vec!["1", "2", "3", "4"]);
        assert_eq!(matches_of("$[1:3].x", json), vec!["2", "3"]);
    }

    #[test]
    fn emits_container_matches_with_full_span() {
        let json = r#"{"a": {"deep": [1, {"b": 2}]}}"#;
        assert_eq!(matches_of("$.a", json), vec![r#"{"deep": [1, {"b": 2}]}"#]);
    }

    #[test]
    fn root_query() {
        assert_eq!(matches_of("$", r#"{"a": 1}"#), vec![r#"{"a": 1}"#]);
        assert_eq!(matches_of("$", "7"), vec!["7"]);
    }

    #[test]
    fn strings_with_metachars() {
        let json = r#"{"a": "{\"not\": [1]}", "t": {"v": "x"}}"#;
        assert_eq!(matches_of("$.t.v", json), vec!["\"x\""]);
    }

    #[test]
    fn validates_everything_it_scans() {
        let q = JpStream::compile("$.a").unwrap();
        // Unlike JSONSki, malformed syntax anywhere in the record errors.
        assert!(q.count(br#"{"zzz": {"bad" 1}, "a": 2}"#).is_err());
        assert!(q.count(br#"{"a": 1,}"#).is_err());
        assert!(q.count(br#"{"a": tru}"#).is_err());
    }

    #[test]
    fn deep_nesting_guard() {
        let mut v = Vec::new();
        v.extend(std::iter::repeat_n(b'[', 3000));
        v.extend(std::iter::repeat_n(b']', 3000));
        let q = JpStream::compile("$[0]").unwrap();
        assert!(q.count(&v).is_err());
    }

    #[test]
    fn empty_input_has_no_matches() {
        let q = JpStream::compile("$.a").unwrap();
        assert_eq!(q.count(b"  ").unwrap(), 0);
    }

    #[test]
    fn counter_tracks_commas() {
        let json = r#"{"a": [10, 20, 30, 40, 50]}"#;
        assert_eq!(matches_of("$.a[3]", json), vec!["40"]);
    }
    #[test]
    fn descendant_matches_every_depth_in_pre_order() {
        let json = r#"{"a": {"a": 1}, "b": [{"a": 2}]}"#;
        assert_eq!(matches_of("$..a", json), vec![r#"{"a": 1}"#, "1", "2"]);
        let json = r#"{"a": [1, {"b": 2}]}"#;
        assert_eq!(
            matches_of("$..*", json),
            vec![r#"[1, {"b": 2}]"#, "1", r#"{"b": 2}"#, "2"]
        );
    }

    #[test]
    fn unions_and_filters() {
        let json = r#"{"a": 1, "b": 2, "c": 3}"#;
        assert_eq!(matches_of("$['a','c']", json), vec!["1", "3"]);
        let json = r#"[10, 20, 30, 40]"#;
        assert_eq!(matches_of("$[1,3]", json), vec!["20", "40"]);
        let json = r#"{"items": [{"q": 5, "v": 1}, {"q": 9, "v": 2}, {"v": 3}]}"#;
        assert_eq!(matches_of("$.items[?(@.q > 4)].v", json), vec!["1", "2"]);
        assert_eq!(matches_of("$.items[?(@.q != 5)].v", json), vec!["2", "3"]);
    }

    #[test]
    fn stream_early_exit_consumes_fewer_bytes() {
        let json = br#"[{"x": 1}, {"x": 2}, {"x": 3}, {"x": 4}]"#;
        let q = JpStream::compile("$[*].x").unwrap();
        let outcome = q
            .stream(json, |_| std::ops::ControlFlow::Break(()))
            .unwrap();
        assert!(outcome.stopped);
        assert_eq!(outcome.matches, 1);
        assert!(outcome.consumed < json.len());
    }

    #[test]
    fn evaluate_trait_reports_failures() {
        use jsonski::Evaluate;
        let q = JpStream::compile("$.a").unwrap();
        assert_eq!(Evaluate::count(&q, br#"{"a": 7}"#).unwrap(), 1);
        assert!(Evaluate::count(&q, br#"{"a" 7}"#).is_err());
    }
}
