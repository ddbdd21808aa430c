//! Parallel runners for the two scenarios of Section 5.1.
//!
//! * [`count_records_parallel`] — the small-records scenario: "each thread
//!   is assigned to process one small record each time" (Figure 12). Since
//!   the unified evaluation API this is a thin wrapper over
//!   [`jsonski::Pipeline`]: records are sharded across a scoped worker pool
//!   through a bounded queue and results merge deterministically in record
//!   order.
//! * [`SegmentedRunner`] — the single-large-record scenario for engines with
//!   speculative parallelism (JPStream(16) in Figure 10): the dominant
//!   top-level array is located, its element boundaries are discovered with
//!   Pison's speculative chunk-parallel index, and the elements are streamed
//!   in parallel with the residual query. This reproduces the *mechanism
//!   class* (speculative parallel processing of one record); see DESIGN.md.

use std::sync::atomic::{AtomicUsize, Ordering};

use jsonpath::{Path, Step};
use jsonski::{CountSink, EngineError, Pipeline, RecordSource};

use crate::engines::Engine;

/// [`RecordSource`] over pre-split `(start, end)` spans of one buffer — the
/// paper's "offset array for starting positions" form of the small-records
/// scenario.
pub struct SpanRecords<'a> {
    bytes: &'a [u8],
    spans: &'a [(usize, usize)],
    next: usize,
}

impl<'a> SpanRecords<'a> {
    /// Wraps `bytes` and its record `spans`.
    pub fn new(bytes: &'a [u8], spans: &'a [(usize, usize)]) -> Self {
        SpanRecords {
            bytes,
            spans,
            next: 0,
        }
    }
}

impl RecordSource for SpanRecords<'_> {
    fn next_record(&mut self) -> Result<Option<&[u8]>, EngineError> {
        match self.spans.get(self.next) {
            Some(&(s, e)) => {
                self.next += 1;
                Ok(Some(&self.bytes[s..e]))
            }
            None => Ok(None),
        }
    }
}

/// Counts matches across `records`, fanning the records out to `threads`
/// pipeline workers (the paper's task-level parallelism for small records).
///
/// # Errors
///
/// The first per-record [`EngineError`] in record order, if any.
pub fn count_records_parallel(
    engine: &dyn Engine,
    bytes: &[u8],
    records: &[(usize, usize)],
    threads: usize,
) -> Result<usize, EngineError> {
    let mut source = SpanRecords::new(bytes, records);
    let mut sink = CountSink::default();
    Pipeline::new()
        .workers(threads)
        .run(engine, &mut source, &mut sink)?;
    Ok(sink.matches)
}

/// Which engine evaluates the residual query on each element.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegmentEngine {
    /// Character-by-character streaming (the paper's JPStream(16) bar).
    JpStream,
    /// Bit-parallel fast-forward streaming (the speculation the paper lists
    /// as future work for JSONSki itself).
    JsonSki,
}

/// Splits one large record at the first array step of the query and
/// processes the array's elements in parallel.
pub struct SegmentedRunner {
    /// Steps before the splitting array step (locate the array).
    prefix: Path,
    /// The array step itself (index constraints apply to element ordinals).
    split: Step,
    /// Steps after the array step (run per element).
    residual: Path,
    /// Per-element engine.
    engine: SegmentEngine,
}

impl SegmentedRunner {
    /// Prepares a runner for `path`, or `None` when the query has no array
    /// step to split at (e.g. NSPL1's pure-child path) — the caller should
    /// fall back to serial execution, as the paper does implicitly for
    /// queries that expose no parallelism.
    pub fn new(path: &Path) -> Option<Self> {
        Self::with_engine(path, SegmentEngine::JpStream)
    }

    /// Like [`SegmentedRunner::new`] with an explicit per-element engine.
    pub fn with_engine(path: &Path, engine: SegmentEngine) -> Option<Self> {
        let steps = path.steps();
        let split_at = steps.iter().position(|s| s.is_array_step())?;
        Some(SegmentedRunner {
            prefix: Path::new(steps[..split_at].to_vec()),
            split: steps[split_at].clone(),
            residual: Path::new(steps[split_at + 1..].to_vec()),
            engine,
        })
    }

    /// Runs the query over `record` with `threads` workers.
    ///
    /// # Errors
    ///
    /// [`EngineError`] on malformed input.
    pub fn count(&self, record: &[u8], threads: usize) -> Result<usize, EngineError> {
        // 1. Locate the array with a (serial, cheap) streaming pass over the
        //    prefix path.
        let finder = jsonski::JsonSki::new(self.prefix.clone());
        let arrays = finder.matches(record).map_err(EngineError::Stream)?;
        let mut total = 0usize;
        for array in arrays {
            total += self.count_array(array.as_raw(), threads)?;
        }
        Ok(total)
    }

    fn count_array(&self, array: &[u8], threads: usize) -> Result<usize, EngineError> {
        if array.is_empty() || array[0] != b'[' {
            return Ok(0); // kind mismatch: the query cannot match here
        }
        // 2. Element boundaries via the speculative parallel level-0 index.
        let index = pison::build_parallel(array, 1, threads);
        let elements = split_elements(&index, array);
        // 3. Stream the selected elements in parallel with the residual.
        let engine: Box<dyn Engine> = match self.engine {
            SegmentEngine::JsonSki => Box::new(jsonski::JsonSki::new(self.residual.clone())),
            SegmentEngine::JpStream => Box::new(jpstream::JpStream::new(self.residual.clone())),
        };
        let engine = engine.as_ref();
        let selected: Vec<&[u8]> = elements
            .iter()
            .enumerate()
            .filter(|(i, _)| self.split.selects_index(*i))
            .map(|(_, &(s, e))| &array[s..e])
            .collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads.max(1))
                .map(|_| {
                    let next = &next;
                    let selected = &selected;
                    scope.spawn(move || -> Result<usize, EngineError> {
                        let mut local = 0;
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= selected.len() {
                                return Ok(local);
                            }
                            local += engine.count(selected[i])?;
                        }
                    })
                })
                .collect();
            let mut total = 0;
            for h in handles {
                total += h.join().expect("worker panicked")?;
            }
            Ok(total)
        })
    }
}

/// Splits the body of `array` (which starts with `[`) into element spans
/// using the level-0 comma bitmap.
fn split_elements(index: &pison::LeveledIndex<'_>, array: &[u8]) -> Vec<(usize, usize)> {
    let end = array.len() - 1; // position of ']'
    let mut out = Vec::new();
    let mut start = 1usize;
    loop {
        let comma = index.next_comma(0, start, end);
        let stop = comma.unwrap_or(end);
        let span = trim(array, start, stop);
        if span.0 < span.1 {
            out.push(span);
        }
        match comma {
            Some(c) => start = c + 1,
            None => break,
        }
    }
    out
}

fn trim(input: &[u8], mut from: usize, mut to: usize) -> (usize, usize) {
    while from < to && matches!(input[from], b' ' | b'\t' | b'\n' | b'\r') {
        from += 1;
    }
    while to > from && matches!(input[to - 1], b' ' | b'\t' | b'\n' | b'\r') {
        to -= 1;
    }
    (from, to)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ski(path: &Path) -> jsonski::JsonSki {
        jsonski::JsonSki::new(path.clone())
    }

    #[test]
    fn parallel_record_counting_matches_serial() {
        let path: Path = "$.pd[*].id".parse().unwrap();
        let engine = ski(&path);
        let mut bytes = Vec::new();
        let mut records = Vec::new();
        for i in 0..100 {
            let start = bytes.len();
            bytes.extend_from_slice(format!(r#"{{"pd": [{{"id": {i}}}]}}"#).as_bytes());
            records.push((start, bytes.len()));
            bytes.push(b'\n');
        }
        let serial = count_records_parallel(&engine, &bytes, &records, 1).unwrap();
        let parallel = count_records_parallel(&engine, &bytes, &records, 8).unwrap();
        assert_eq!(serial, 100);
        assert_eq!(parallel, 100);
    }

    #[test]
    fn parallel_record_counting_reports_first_error() {
        let path: Path = "$.a".parse().unwrap();
        let engine = ski(&path);
        let bytes = br#"{"a": 1} {"a" 2} {"a": 3}"#;
        let records = vec![(0, 8), (9, 16), (17, 25)];
        let err = count_records_parallel(&engine, bytes, &records, 4).unwrap_err();
        assert!(matches!(err, EngineError::Stream(_)), "{err}");
    }

    #[test]
    fn segmented_runner_matches_serial_on_array_root() {
        let path: Path = "$[*].x".parse().unwrap();
        let mut json = b"[".to_vec();
        for i in 0..50 {
            json.extend_from_slice(format!(r#"{{"x": {i}, "pad": [1, {{"y": 2}}]}},"#).as_bytes());
        }
        json.pop();
        json.push(b']');
        let runner = SegmentedRunner::new(&path).unwrap();
        assert_eq!(runner.count(&json, 4).unwrap(), 50);
        assert_eq!(ski(&path).count(&json).unwrap(), 50);
    }

    #[test]
    fn segmented_runner_respects_index_constraints() {
        let path: Path = "$[10:21].x".parse().unwrap();
        let mut json = b"[".to_vec();
        for i in 0..50 {
            json.extend_from_slice(format!(r#"{{"x": {i}}},"#).as_bytes());
        }
        json.pop();
        json.push(b']');
        let runner = SegmentedRunner::new(&path).unwrap();
        assert_eq!(runner.count(&json, 4).unwrap(), 11);
    }

    #[test]
    fn segmented_runner_with_envelope_prefix() {
        let path: Path = "$.pd[*].cp[1:3].id".parse().unwrap();
        let json = br#"{"pd": [{"cp": [{"id": 1}, {"id": 2}, {"id": 3}]},
                        {"cp": [{"id": 4}, {"id": 5}, {"id": 6}, {"id": 7}]}]}"#;
        let runner = SegmentedRunner::new(&path).unwrap();
        assert_eq!(runner.count(json, 3).unwrap(), 4);
    }

    #[test]
    fn no_array_step_yields_none() {
        let path: Path = "$.mt.vw.nm".parse().unwrap();
        assert!(SegmentedRunner::new(&path).is_none());
    }
}
