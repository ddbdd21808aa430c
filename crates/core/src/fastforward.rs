//! The five groups of bit-parallel fast-forward functions (paper Table 1,
//! Algorithms 4 and 5).
//!
//! All functions advance the [`Cursor`] without tokenizing the skipped
//! characters and record the skipped span in [`FastForwardStats`] under the
//! group of their *entry point* (nested skips performed inside a G1 search
//! are accounted to G1, matching how Table 6 partitions skipped characters).
//!
//! Position conventions (documented per function): functions that go *over*
//! a value leave the cursor immediately after it; functions that go *to* an
//! end leave the cursor *at* the closing `}`/`]` so the caller can consume
//! it and emit the automaton transition.

use simdbits::BlockBitmaps;

use crate::cursor::{after_ws, find_close, scan, with_words, Cursor, Words};
use crate::error::StreamError;
use crate::stats::{FastForwardStats, Group};

/// Byte span of a skipped value, for G3 outputting.
pub type Span = (usize, usize);

/// G2/G3 `goOverObj` (Algorithm 4): the cursor must be at a `{`; skips the
/// whole object using counting-based pairing and leaves the cursor just
/// after its `}`. Returns the object's span.
///
/// # Errors
///
/// [`StreamError::Unbalanced`] if the braces never pair.
pub fn go_over_obj(
    cur: &mut Cursor<'_>,
    stats: &mut FastForwardStats,
    group: Group,
) -> Result<Span, StreamError> {
    go_over_container(cur, stats, group, b'{', b'}')
}

/// G2/G3 `goOverAry`: bracket analog of [`go_over_obj`].
///
/// # Errors
///
/// [`StreamError::Unbalanced`] if the brackets never pair.
pub fn go_over_ary(
    cur: &mut Cursor<'_>,
    stats: &mut FastForwardStats,
    group: Group,
) -> Result<Span, StreamError> {
    go_over_container(cur, stats, group, b'[', b']')
}

fn go_over_container(
    cur: &mut Cursor<'_>,
    stats: &mut FastForwardStats,
    group: Group,
    open: u8,
    close: u8,
) -> Result<Span, StreamError> {
    let start = cur.pos();
    debug_assert_eq!(cur.peek(), Some(open));
    cur.bump(); // consume the opener; depth = 1
    let end = cur.seek_container_end(open, close, 1)?;
    cur.set_pos(end + 1);
    stats.record(group, (end + 1 - start) as u64);
    Ok((start, end + 1))
}

/// G4 `goToObjEnd`: like [`go_over_obj`] but invoked *inside* an object
/// (between attributes); leaves the cursor **at** the closing `}`.
///
/// # Errors
///
/// [`StreamError::Unbalanced`] if the braces never pair.
pub fn go_to_obj_end(
    cur: &mut Cursor<'_>,
    stats: &mut FastForwardStats,
    group: Group,
) -> Result<usize, StreamError> {
    let start = cur.pos();
    let end = cur.seek_container_end(b'{', b'}', 1)?;
    cur.set_pos(end);
    stats.record(group, (end - start) as u64);
    Ok(end)
}

/// G5 `goToAryEnd`: bracket analog of [`go_to_obj_end`]; leaves the cursor
/// **at** the closing `]`.
///
/// # Errors
///
/// [`StreamError::Unbalanced`] if the brackets never pair.
pub fn go_to_ary_end(
    cur: &mut Cursor<'_>,
    stats: &mut FastForwardStats,
    group: Group,
) -> Result<usize, StreamError> {
    let start = cur.pos();
    let end = cur.seek_container_end(b'[', b']', 1)?;
    cur.set_pos(end);
    stats.record(group, (end - start) as u64);
    Ok(end)
}

/// G2/G3 `goOverPriAttr` / `goOverPriElem` (Algorithm 4, lines 18–25): the
/// cursor must be at the first character of a primitive value; skips to its
/// terminating delimiter using a comma structural interval, leaving the
/// cursor **at** the delimiter (`,` or the enclosing container's closer).
///
/// Returns the primitive's span with trailing whitespace trimmed.
///
/// For a primitive at the very top level (a bare root), the span runs to
/// the end of the input.
pub fn go_over_primitive(
    cur: &mut Cursor<'_>,
    stats: &mut FastForwardStats,
    group: Group,
) -> Result<Span, StreamError> {
    let start = cur.pos();
    // A string primitive may contain unmasked-looking delimiters only inside
    // quotes, which the classifier has masked; numbers/true/false/null
    // contain none. The first structural `,`/`}`/`]` therefore terminates
    // the value (the `}` check of Algorithm 4 line 22 generalized to both
    // closers so the same routine serves attributes and elements).
    let delim = cur.next_pos_where(start, |b| b.comma | b.rbrace | b.rbracket);
    let end = delim.unwrap_or(cur.input().len());
    cur.set_pos(end);
    let trimmed = trim_span_end(cur.input(), start, end);
    stats.record(group, (end - start) as u64);
    Ok((start, trimmed))
}

/// Enhanced G1 `goOverPriAttrs`/`goOverPriElems` (Algorithm 5, lines 11–18):
/// from the start of a primitive value, fast-forwards over *consecutive
/// primitive values* until the next `{` or `[` (a container value worth
/// examining) or the enclosing container's closer.
///
/// Returns the number of commas passed, which equals the number of element
/// boundaries crossed — the array caller uses it to keep the index counter
/// exact (paper Section 4.2: "the fast-forward should track a counter").
/// The cursor is left at the stopping character (`{`, `[`, `}` or `]`).
pub fn go_over_primitives_to_opener(
    cur: &mut Cursor<'_>,
    stats: &mut FastForwardStats,
    group: Group,
) -> Result<usize, StreamError> {
    let start = cur.pos();
    let len = cur.input().len();
    if start >= len {
        return Err(StreamError::UnexpectedEof { expected: "value" });
    }
    let (stop, commas) = with_words!(cur, |src| scan(src, start, len, stops, |b| b.comma));
    let end = stop.ok_or(StreamError::Unbalanced { pos: len })?;
    cur.set_pos(end);
    stats.record(group, (end - start) as u64);
    Ok(commas)
}

/// The batched primitive skip's stop set: any opener or closer.
#[inline]
fn stops(b: &BlockBitmaps) -> u64 {
    b.openers() | b.closers()
}

/// G1 `goToObjAttr`/`goToAryAttr` (Algorithm 5): inside an object (cursor
/// after the `{` or after an attribute's delimiter), fast-forwards to the
/// next attribute whose value starts with `want_open` (`b'{'` or `b'['`),
/// skipping non-matching attributes *without extracting their names*.
///
/// On success returns the matching attribute's name span, with the cursor
/// left at the value's opener. Returns `None` when the object has no more
/// such attributes; the cursor is then **at** the closing `}`.
///
/// # Errors
///
/// Structural errors if the object is malformed on the examined path.
pub fn go_to_attr_with_opener(
    cur: &mut Cursor<'_>,
    stats: &mut FastForwardStats,
    want_open: u8,
) -> Result<Option<Span>, StreamError> {
    let (entry, input) = (cur.pos(), cur.input());
    let hop = with_words!(cur, |src| seek_attr(src, input, entry, want_open))?;
    cur.set_pos(hop.pos);
    stats.record(Group::G1, hop.skipped);
    Ok(hop.name)
}

/// Where a G1 attribute seek stopped.
struct AttrHop {
    /// The matched attribute's name span, `None` at the object's end.
    name: Option<Span>,
    /// The matched value's opener, or the object's `}`.
    pos: usize,
    /// Bytes accounted to G1.
    skipped: u64,
}

/// The G1 attribute seek, generic over where words come from. From
/// `entry`, hops colon to colon while the wanted opener is not yet in
/// sight: a primitive value starts a batched skip to the next depth-0
/// opener or closer (passing any run of primitive attributes at once), and
/// a container of the other kind is paired over. Names are read from the
/// raw bytes only once an opener of the wanted kind is found.
///
/// The G1 byte count reproduces the per-hop accounting of Algorithm 5's
/// component functions: each container and batched skip counts its own
/// span, and a seek that ends at a colon hop counts its whole distance
/// from `entry`.
fn seek_attr<W: Words>(
    src: &mut W,
    input: &[u8],
    entry: usize,
    want_open: u8,
) -> Result<AttrHop, StreamError> {
    let len = input.len();
    let unbalanced = || StreamError::Unbalanced { pos: len };
    let mut skipped = 0u64;
    let mut at = entry;
    loop {
        // Next attribute's colon, or the end of this object — whichever
        // comes first. Values between attributes have been fully skipped,
        // so the scan cannot see nested colons.
        let (hit, _) = scan(src, at, len, |b| b.colon | b.rbrace, |_| 0);
        let colon = hit.ok_or_else(unbalanced)?;
        if input[colon] == b'}' {
            return Ok(AttrHop {
                name: None,
                pos: colon,
                skipped: skipped + (colon - entry) as u64,
            });
        }
        let value = after_ws(input, colon + 1);
        let value_byte = *input.get(value).ok_or(StreamError::UnexpectedEof {
            expected: "attribute value",
        })?;
        if value_byte == want_open {
            // Matched type: recover the attribute name (the string just
            // before the colon) from the raw buffer — only matched-type
            // attributes pay for name extraction.
            let name = extract_name_before(input, colon)?;
            return Ok(AttrHop {
                name: Some(name),
                pos: value,
                skipped: skipped + name.0.saturating_sub(1).saturating_sub(entry) as u64,
            });
        }
        let opener = if matches!(value_byte, b'{' | b'[') {
            value
        } else {
            // Primitive: batch-skip consecutive primitive attributes to the
            // next opener or the object end (Algorithm 5's goOverPriAttrs).
            let (stop, _) = scan(src, value, len, stops, |_| 0);
            let stop = stop.ok_or_else(unbalanced)?;
            skipped += (stop - value) as u64;
            match input[stop] {
                b'}' => {
                    return Ok(AttrHop {
                        name: None,
                        pos: stop,
                        skipped,
                    })
                }
                b']' => {
                    return Err(StreamError::Unexpected {
                        expected: "`}` or next attribute",
                        found: b']',
                        pos: stop,
                    })
                }
                b if b == want_open => {
                    let colon = last_colon_before(input, stop)?;
                    return Ok(AttrHop {
                        name: Some(extract_name_before(input, colon)?),
                        pos: stop,
                        skipped,
                    });
                }
                _ => stop,
            }
        };
        // A container of the other kind: pair over it and look on.
        let end = if input[opener] == b'{' {
            find_close(src, opener + 1, len, 1, BlockBitmaps::braces)
        } else {
            find_close(src, opener + 1, len, 1, BlockBitmaps::brackets)
        }
        .ok_or_else(unbalanced)?;
        skipped += (end + 1 - opener) as u64;
        at = end + 1;
    }
}

/// Finds the structural colon immediately preceding `at` by scanning the
/// raw bytes backwards (the name/colon lie within the bytes the batched
/// skip just passed, so this stays within already-read input).
fn last_colon_before(input: &[u8], at: usize) -> Result<usize, StreamError> {
    let mut i = at;
    while i > 0 {
        i -= 1;
        match input[i] {
            b':' => return Ok(i),
            b' ' | b'\t' | b'\n' | b'\r' => continue,
            _ => continue, // we may pass over a skipped primitive + comma
        }
    }
    Err(StreamError::Unexpected {
        expected: "`:`",
        found: input[0],
        pos: 0,
    })
}

/// Extracts the attribute-name span whose closing quote precedes `colon`,
/// scanning backwards over raw bytes. Handles escaped quotes by backslash
/// run-length parity.
fn extract_name_before(input: &[u8], colon: usize) -> Result<Span, StreamError> {
    let mut i = colon;
    // Skip whitespace between the closing quote and the colon.
    loop {
        if i == 0 {
            return Err(StreamError::Unexpected {
                expected: "attribute name",
                found: input[0],
                pos: 0,
            });
        }
        i -= 1;
        match input[i] {
            b' ' | b'\t' | b'\n' | b'\r' => continue,
            b'"' => break,
            b => {
                return Err(StreamError::Unexpected {
                    expected: "`\"` before `:`",
                    found: b,
                    pos: i,
                })
            }
        }
    }
    let close = i;
    // Scan back to the opening quote: a quote is the opener iff it is
    // preceded by an even number of backslashes.
    let mut j = close;
    while j > 0 {
        j -= 1;
        if input[j] == b'"' {
            let mut bs = 0;
            while bs < j && input[j - 1 - bs] == b'\\' {
                bs += 1;
            }
            if bs % 2 == 0 {
                return Ok((j + 1, close));
            }
        }
    }
    Err(StreamError::Unexpected {
        expected: "opening `\"` of attribute name",
        found: input[close],
        pos: close,
    })
}

fn trim_span_end(input: &[u8], start: usize, mut end: usize) -> usize {
    while end > start && matches!(input[end - 1], b' ' | b'\t' | b'\n' | b'\r') {
        end -= 1;
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cursor_at<'a>(input: &'a [u8], pos: usize) -> Cursor<'a> {
        let mut c = Cursor::new(input);
        c.set_pos(pos);
        c
    }

    #[test]
    fn go_over_obj_skips_and_counts() {
        let v = br#"{"a": {"b": [1, 2]}, "c": 3} , next"#;
        let mut cur = cursor_at(v, 0);
        let mut st = FastForwardStats::new();
        let (s, e) = go_over_obj(&mut cur, &mut st, Group::G2).unwrap();
        assert_eq!(&v[s..e], br#"{"a": {"b": [1, 2]}, "c": 3}"#);
        assert_eq!(cur.pos(), e);
        assert_eq!(st.skipped(Group::G2), e as u64);
    }

    #[test]
    fn go_over_ary_skips_nested() {
        let v = br#"[[1, [2]], {"x": [3]}] tail"#;
        let mut cur = cursor_at(v, 0);
        let mut st = FastForwardStats::new();
        let (s, e) = go_over_ary(&mut cur, &mut st, Group::G2).unwrap();
        assert_eq!(&v[s..e], br#"[[1, [2]], {"x": [3]}]"#);
    }

    #[test]
    fn go_to_obj_end_stops_at_brace() {
        // Positioned inside the object after the first attribute.
        let v = br#"{"a": 1, "b": {"c": 2}, "d": 3}"#;
        let mut cur = cursor_at(v, 8); // at the space after the comma
        let mut st = FastForwardStats::new();
        let end = go_to_obj_end(&mut cur, &mut st, Group::G4).unwrap();
        assert_eq!(end, v.len() - 1);
        assert_eq!(v[end], b'}');
        assert_eq!(cur.pos(), end);
    }

    #[test]
    fn go_to_ary_end_stops_at_bracket() {
        let v = br#"[1, [2, 3], {"a": 4}, 5] after"#;
        let mut cur = cursor_at(v, 2);
        let mut st = FastForwardStats::new();
        let end = go_to_ary_end(&mut cur, &mut st, Group::G5).unwrap();
        assert_eq!(v[end], b']');
        assert_eq!(end, 23);
    }

    #[test]
    fn go_over_primitive_number() {
        let v = br#"123.5e2 , "next""#;
        let mut cur = cursor_at(v, 0);
        let mut st = FastForwardStats::new();
        let (s, e) = go_over_primitive(&mut cur, &mut st, Group::G2).unwrap();
        assert_eq!(&v[s..e], b"123.5e2");
        assert_eq!(v[cur.pos()], b',');
    }

    #[test]
    fn go_over_primitive_string_with_delimiters_inside() {
        let v = br#""a,b}c]d" }"#;
        let mut cur = cursor_at(v, 0);
        let mut st = FastForwardStats::new();
        let (s, e) = go_over_primitive(&mut cur, &mut st, Group::G3).unwrap();
        assert_eq!(&v[s..e], br#""a,b}c]d""#);
        assert_eq!(v[cur.pos()], b'}');
    }

    #[test]
    fn go_over_primitive_at_root() {
        let v = b"true";
        let mut cur = cursor_at(v, 0);
        let mut st = FastForwardStats::new();
        let (s, e) = go_over_primitive(&mut cur, &mut st, Group::G3).unwrap();
        assert_eq!(&v[s..e], b"true");
        assert!(cur.at_end());
    }

    #[test]
    fn batched_primitive_skip_counts_commas() {
        let v = br#"1, "two", 3.0, null, {"x": 1}]"#;
        let mut cur = cursor_at(v, 0);
        let mut st = FastForwardStats::new();
        let commas = go_over_primitives_to_opener(&mut cur, &mut st, Group::G1).unwrap();
        assert_eq!(commas, 4);
        assert_eq!(cur.peek(), Some(b'{'));
    }

    #[test]
    fn batched_primitive_skip_stops_at_closer() {
        let v = br#"1, 2, 3] , "#;
        let mut cur = cursor_at(v, 0);
        let mut st = FastForwardStats::new();
        let commas = go_over_primitives_to_opener(&mut cur, &mut st, Group::G1).unwrap();
        assert_eq!(commas, 2);
        assert_eq!(cur.peek(), Some(b']'));
    }

    #[test]
    fn go_to_attr_finds_object_attr_and_name() {
        let v = br#""a": 1, "b": [1, 2], "target": {"x": 9}, "z": 0}"#;
        let mut cur = cursor_at(v, 0);
        let mut st = FastForwardStats::new();
        let span = go_to_attr_with_opener(&mut cur, &mut st, b'{')
            .unwrap()
            .expect("found");
        assert_eq!(&v[span.0..span.1], b"target");
        assert_eq!(cur.peek(), Some(b'{'));
    }

    #[test]
    fn go_to_attr_finds_array_attr() {
        let v = br#""a": 1, "b": {"c": 2}, "arr": [5], "z": 0}"#;
        let mut cur = cursor_at(v, 0);
        let mut st = FastForwardStats::new();
        let span = go_to_attr_with_opener(&mut cur, &mut st, b'[')
            .unwrap()
            .expect("found");
        assert_eq!(&v[span.0..span.1], b"arr");
        assert_eq!(cur.peek(), Some(b'['));
    }

    #[test]
    fn go_to_attr_none_when_no_such_type() {
        let v = br#""a": 1, "b": "str", "c": 2.5} trailing"#;
        let mut cur = cursor_at(v, 0);
        let mut st = FastForwardStats::new();
        let got = go_to_attr_with_opener(&mut cur, &mut st, b'{').unwrap();
        assert!(got.is_none());
        assert_eq!(cur.peek(), Some(b'}'));
    }

    #[test]
    fn go_to_attr_none_on_empty_object() {
        let v = br#" }"#;
        let mut cur = cursor_at(v, 0);
        let mut st = FastForwardStats::new();
        let got = go_to_attr_with_opener(&mut cur, &mut st, b'{').unwrap();
        assert!(got.is_none());
        assert_eq!(cur.peek(), Some(b'}'));
    }

    #[test]
    fn go_to_attr_skips_colons_inside_strings() {
        let v = br#""a": "x:y", "obj": {"k": 1}}"#;
        let mut cur = cursor_at(v, 0);
        let mut st = FastForwardStats::new();
        let span = go_to_attr_with_opener(&mut cur, &mut st, b'{')
            .unwrap()
            .expect("found");
        assert_eq!(&v[span.0..span.1], b"obj");
    }

    #[test]
    fn extract_name_handles_escapes() {
        let v = br#"{"we\"ird" : 1"#;
        let colon = 11;
        assert_eq!(v[colon], b':');
        let (s, e) = extract_name_before(v, colon).unwrap();
        assert_eq!(&v[s..e], br#"we\"ird"#);
    }

    #[test]
    fn extract_name_rejects_missing_quote() {
        let v = b"{123 : 1";
        assert!(extract_name_before(v, 5).is_err());
    }

    #[test]
    fn stats_attribution_goes_to_entry_group() {
        let v = br#"{"a": 1}"#;
        let mut cur = cursor_at(v, 0);
        let mut st = FastForwardStats::new();
        go_over_obj(&mut cur, &mut st, Group::G3).unwrap();
        assert_eq!(st.skipped(Group::G3), v.len() as u64);
        assert_eq!(st.skipped(Group::G2), 0);
    }

    #[test]
    fn g1_accounting_per_hop_kind() {
        // Each case takes a different mix of hops: colon hop to a match,
        // batched primitive skip to a match or to `}`, a container of the
        // other kind paired over, and `}` found by the colon hop. The G1
        // byte counts are those of the per-hop accounting (a seek that ends
        // at a colon hop counts its whole distance from entry on top of the
        // container skips already counted), pinned so a rewrite of the seek
        // cannot drift from the Table 6 figures.
        fn seek(input: &[u8], want: u8) -> (Option<&str>, usize, u64) {
            let mut cur = cursor_at(input, 0);
            let mut st = FastForwardStats::new();
            let got = go_to_attr_with_opener(&mut cur, &mut st, want).unwrap();
            let name = got.map(|(s, e)| std::str::from_utf8(&input[s..e]).unwrap());
            (name, cur.pos(), st.skipped(Group::G1))
        }
        let v = br#""a": 1, "b": "x}", "t": {"k": 1}}"#;
        assert_eq!(seek(v, b'{'), (Some("t"), 24, 19));
        let v = br#""o": {"x": [1]}, "t": [2]}"#;
        assert_eq!(seek(v, b'['), (Some("t"), 22, 27));
        let v = br#""o": [1, {"y": 2}], "p": 3, "q": {"z": 1}}"#;
        assert_eq!(seek(v, b'{'), (Some("q"), 33, 21));
        let v = br#""a": 1, "b": [2, "]"], "c": 3}"#;
        assert_eq!(seek(v, b'{'), (None, 29, 17));
        let v = br#""a": {"b": 1}}  "#;
        assert_eq!(seek(v, b'['), (None, 13, 21));
        assert_eq!(seek(b"  }", b'{'), (None, 2, 2));
    }
}
