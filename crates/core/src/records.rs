//! Bit-parallel record splitting for multi-record streams.
//!
//! The paper's second processing scenario is "a sequence of small records"
//! with "an offset array for starting positions". When the offsets are not
//! given (e.g. a raw JSON-Lines feed), this module discovers them with the
//! same counting-based pairing used for fast-forwarding: each top-level
//! container is skipped bit-parallel to find its end, without tokenizing
//! record contents at all.

use simdbits::BLOCK;

use crate::cursor::Cursor;
use crate::error::StreamError;
use crate::fastforward::{go_over_ary, go_over_obj};
use crate::stats::{FastForwardStats, Group};

/// Iterator over the byte spans of consecutive top-level JSON values in a
/// whitespace/newline-separated stream.
///
/// # Example
///
/// ```
/// use jsonski::RecordSplitter;
///
/// let stream = b"{\"a\": 1}\n[2, 3]\n\"four\"\n";
/// let spans: Result<Vec<_>, _> = RecordSplitter::new(stream).collect();
/// let spans = spans?;
/// assert_eq!(spans.len(), 3);
/// assert_eq!(&stream[spans[1].0..spans[1].1], b"[2, 3]");
/// # Ok::<(), jsonski::StreamError>(())
/// ```
#[derive(Debug)]
pub struct RecordSplitter<'a> {
    cursor: Cursor<'a>,
    stats: FastForwardStats,
    failed: bool,
    /// Start offset of the record most recently attempted, for resync
    /// span reporting.
    record_start: usize,
}

impl<'a> RecordSplitter<'a> {
    /// Creates a splitter over `stream`.
    pub fn new(stream: &'a [u8]) -> Self {
        RecordSplitter {
            cursor: Cursor::new(stream),
            stats: FastForwardStats::new(),
            failed: false,
            record_start: 0,
        }
    }

    /// The underlying stream.
    pub fn stream(&self) -> &'a [u8] {
        self.cursor.input()
    }

    /// The splitter's current position: the byte just past the most
    /// recently returned record (or, after [`resync`](Self::resync), the
    /// resume point past the abandoned span). This is the offset a
    /// checkpoint can safely restart from.
    pub fn pos(&self) -> usize {
        self.cursor.pos()
    }

    /// After [`next`](Iterator::next) returned an error, skips forward to
    /// the byte after the next raw `\n` (or to the end of the stream) and
    /// re-arms the iterator, returning the `(start, end)` span of the bytes
    /// given up on. Returns `None` when no error is pending.
    ///
    /// A raw (unescaped) newline cannot occur inside a valid JSON string,
    /// so for newline-delimited streams the byte after the next `\n` is a
    /// sound place to expect the next record boundary. The scan uses the
    /// same SWAR word-at-a-time search as `find_newline`.
    pub fn resync(&mut self) -> Option<(usize, usize)> {
        if !self.failed {
            return None;
        }
        self.failed = false;
        let input = self.cursor.input();
        // The error was detected at or after the record's start; scanning
        // from the detection point (not the record start) avoids resyncing
        // into the middle of the record that just failed.
        let from = self.cursor.pos().max(self.record_start);
        let resume = match find_newline(&input[from..]) {
            Some(i) => from + i + 1,
            None => input.len(),
        };
        // The failed scan may have classified words beyond the resume point,
        // and the streaming discipline discards every word's bitmaps but the
        // newest — a rewind into a discarded word must restart the cursor so
        // classification re-runs from the stream head. The classifier is
        // deterministic, so the re-derived bitmaps are identical; the cost
        // (re-classifying the abandoned prefix) stays on this cold path.
        let frontier = self.cursor.words_classified().saturating_sub(1) * BLOCK;
        if resume < frontier {
            self.cursor = Cursor::new(input);
        }
        self.cursor.set_pos(resume);
        Some((self.record_start, resume))
    }
}

/// Position of the first raw `\n` in `haystack`, scanning eight bytes per
/// step with SWAR zero-byte detection (Mycroft's `(w - 0x0101..) & !w &
/// 0x8080..` trick on the XOR against a broadcast `\n`).
pub fn find_newline(haystack: &[u8]) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    const NL: u64 = LO * b'\n' as u64;
    let mut i = 0;
    while i + 8 <= haystack.len() {
        let w = u64::from_le_bytes(haystack[i..i + 8].try_into().unwrap()) ^ NL;
        let zeros = w.wrapping_sub(LO) & !w & HI;
        if zeros != 0 {
            return Some(i + (zeros.trailing_zeros() / 8) as usize);
        }
        i += 8;
    }
    haystack[i..]
        .iter()
        .position(|&b| b == b'\n')
        .map(|p| i + p)
}

impl Iterator for RecordSplitter<'_> {
    /// A record's `(start, end)` byte span, or the structural error that
    /// ended the scan.
    type Item = Result<(usize, usize), StreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        self.cursor.skip_ws();
        let t = self.cursor.peek()?;
        self.record_start = self.cursor.pos();
        let result = match t {
            b'{' => go_over_obj(&mut self.cursor, &mut self.stats, Group::G2),
            b'[' => go_over_ary(&mut self.cursor, &mut self.stats, Group::G2),
            b'"' => {
                // A top-level string record: ends at its closing quote.
                let start = self.cursor.pos();
                self.cursor.seek_string_end(start).map(|end| {
                    self.cursor.set_pos(end + 1);
                    (start, end + 1)
                })
            }
            _ => {
                // A top-level number/literal record: at the top level the
                // only delimiter is whitespace (or end of stream); scalars
                // are short, so a byte scan suffices.
                let start = self.cursor.pos();
                let mut end = start;
                let input = self.cursor.input();
                while end < input.len() && !matches!(input[end], b' ' | b'\t' | b'\n' | b'\r') {
                    end += 1;
                }
                self.cursor.set_pos(end);
                Ok((start, end))
            }
        };
        match result {
            Ok(span) => Some(Ok(span)),
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

/// Splits a stream into record spans, failing on the first structural error.
///
/// # Errors
///
/// [`StreamError::Unbalanced`] (or EOF variants) if a record never closes.
pub fn split_records(stream: &[u8]) -> Result<Vec<(usize, usize)>, StreamError> {
    RecordSplitter::new(stream).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_mixed_records() {
        let stream = br#"{"a": {"b": [1]}}  [1, {"x": "]"}]   42 "s,tr" true"#;
        let spans = split_records(stream).unwrap();
        let texts: Vec<&[u8]> = spans.iter().map(|&(s, e)| &stream[s..e]).collect();
        assert_eq!(
            texts,
            vec![
                &br#"{"a": {"b": [1]}}"#[..],
                br#"[1, {"x": "]"}]"#,
                b"42",
                br#""s,tr""#,
                b"true",
            ]
        );
    }

    #[test]
    fn empty_stream_yields_nothing() {
        assert!(split_records(b"").unwrap().is_empty());
        assert!(split_records(b"  \n\t ").unwrap().is_empty());
    }

    #[test]
    fn unbalanced_record_errors() {
        let err = split_records(br#"{"a": 1} {"b": "#).unwrap_err();
        assert!(matches!(err, StreamError::Unbalanced { .. }));
        // The iterator stops after the error.
        let mut it = RecordSplitter::new(br#"{"ok": 1} {"bad": "#);
        assert!(it.next().unwrap().is_ok());
        assert!(it.next().unwrap().is_err());
        assert!(it.next().is_none());
    }

    #[test]
    fn spans_never_overlap_and_are_ordered() {
        let mut stream = Vec::new();
        for i in 0..50 {
            stream.extend_from_slice(format!("{{\"i\": {i}, \"p\": [{i}, {i}]}}\n").as_bytes());
        }
        let spans = split_records(&stream).unwrap();
        assert_eq!(spans.len(), 50);
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0);
        }
    }

    #[test]
    fn stream_accessor() {
        let s = b"1 2 3";
        let it = RecordSplitter::new(s);
        assert_eq!(it.stream(), s);
    }

    #[test]
    fn find_newline_matches_naive_scan() {
        // Exercise every offset/length combination around the 8-byte SWAR
        // word boundary.
        for len in 0..40 {
            for at in 0..=len {
                let mut v = vec![b'x'; len];
                let expected = if at < len {
                    v[at] = b'\n';
                    Some(at)
                } else {
                    None
                };
                assert_eq!(find_newline(&v), expected, "len={len} at={at}");
            }
        }
        // First of several newlines wins.
        assert_eq!(find_newline(b"ab\ncd\nef"), Some(2));
        assert_eq!(find_newline(b"\n"), Some(0));
    }

    #[test]
    fn resync_skips_to_next_line_and_continues() {
        let stream = b"{\"ok\": 1}\n{\"bad\": \n{\"ok\": 2}\n";
        let mut it = RecordSplitter::new(stream);
        assert_eq!(it.next().unwrap().unwrap(), (0, 9));
        assert!(it.next().unwrap().is_err());
        // Nothing pending before an error: resync is a no-op.
        let span = it.resync().expect("error pending");
        assert_eq!(&stream[span.0..span.1], b"{\"bad\": \n");
        assert_eq!(it.resync(), None);
        let next = it.next().unwrap().unwrap();
        assert_eq!(&stream[next.0..next.1], b"{\"ok\": 2}");
        assert!(it.next().is_none());
    }

    #[test]
    fn resync_rewinds_past_the_classified_frontier() {
        // The unclosed record's pairing scan classifies every word of the
        // stream looking for its `]`; the resync point is back in word 0.
        // The cursor must recover (restart classification) rather than hand
        // out discarded bitmaps — and still split the surviving records.
        let mut stream = b"{\"a\": [1, 2\n".to_vec();
        for i in 0..30 {
            stream.extend_from_slice(format!("{{\"b\": {i}}}\n").as_bytes());
        }
        let mut it = RecordSplitter::new(&stream);
        assert!(it.next().unwrap().is_err());
        let span = it.resync().unwrap();
        assert_eq!(&stream[span.0..span.1], b"{\"a\": [1, 2\n");
        let mut seen = 0;
        for next in it {
            let (s, e) = next.unwrap();
            assert_eq!(&stream[s..e], format!("{{\"b\": {seen}}}").as_bytes());
            seen += 1;
        }
        assert_eq!(seen, 30);
    }

    #[test]
    fn resync_after_an_error_past_a_window_boundary() {
        // The live cursor classifies 16 words (1 KiB) at a time. Here the
        // broken record starts past the first window, and its pairing scan
        // fails at the end of the stream, several windows on. With good
        // records after it the resync point is behind the frontier (the
        // cursor restarts); with the tail in the final word it is not (the
        // cursor continues from the window).
        for after in [30, 0] {
            let mut stream = Vec::new();
            for i in 0..120 {
                stream.extend_from_slice(format!("{{\"b\": {i}}}\n").as_bytes());
            }
            let bad = stream.len();
            stream.extend_from_slice(b"[1, {\"a\": 2}\n");
            for i in 0..after {
                stream.extend_from_slice(format!("{{\"c\": {i}}}\n").as_bytes());
            }
            stream.extend_from_slice(b"{\"z\": 1}");
            assert!(bad > 1024);
            let mut it = RecordSplitter::new(&stream);
            for i in 0..120 {
                let (s, e) = it.next().unwrap().unwrap();
                assert_eq!(&stream[s..e], format!("{{\"b\": {i}}}").as_bytes());
            }
            assert!(it.next().unwrap().is_err());
            let span = it.resync().unwrap();
            assert_eq!(
                &stream[span.0..span.1],
                b"[1, {\"a\": 2}\n",
                "after {after}"
            );
            let rest: Vec<_> = it.map(|r| r.unwrap()).collect();
            assert_eq!(rest.len(), after + 1, "after {after}");
            for (i, &(s, e)) in rest[..after].iter().enumerate() {
                assert_eq!(&stream[s..e], format!("{{\"c\": {i}}}").as_bytes());
            }
            let (s, e) = rest[after];
            assert_eq!(&stream[s..e], b"{\"z\": 1}");
        }
    }

    #[test]
    fn resync_at_stream_end_consumes_the_tail() {
        let stream = b"{\"ok\": 1} {\"bad\": ";
        let mut it = RecordSplitter::new(stream);
        assert!(it.next().unwrap().is_ok());
        assert!(it.next().unwrap().is_err());
        let span = it.resync().unwrap();
        assert_eq!(span, (10, stream.len()));
        assert!(it.next().is_none());
    }
}
