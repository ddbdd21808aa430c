//! Strict-mode streaming validation: well-formedness checks over *every*
//! classified word, including the spans fast-forwarding skips.
//!
//! JSONSki's speed comes from not looking at bytes it skips (paper Algs.
//! 4–5), which means a malformed or hostile document can sail through G1–G5
//! undetected. [`ValidationMode::Strict`] closes that blind spot the way
//! simdjson does (Langdale & Lemire, "Parsing Gigabytes of JSON per
//! Second"; Keiser & Lemire, "Validating UTF-8 in less than one instruction
//! per byte" and On-Demand): the validator rides the cursor's classification
//! window and checks each batch of 64-byte blocks with bit-parallel masks,
//! so validation costs one extra scan per word instead of a second parse.
//!
//! The validator is deliberately *independent* of the structural
//! [`Classifier`](simdbits::Classifier): it recomputes its own byte-class
//! bitmaps via [`simdbits::scan`], so a classifier bug cannot hide a
//! validation bug (and vice versa — the differential fuzzer exploits this).
//!
//! # How a block is checked
//!
//! Each block is first judged with masks. [`simdbits::scan::scan_many`]
//! gives its byte classes and the Keiser–Lemire UTF-8 flags; the string
//! mask follows from the quotes and the odd-backslash-run escapes (the
//! classifier's trick, over the validator's own bitmaps); escaped
//! characters, and the hex digits of `\u` escapes, are checked only at
//! escape positions; nesting depth moves by popcounts; whitespace before the
//! root and after it is one mask test each. A block the masks pass is clean,
//! and its end state is exact.
//!
//! The byte-at-a-time DFA is kept as the exact-offset locator for the cold
//! cases: a block the masks flag (the DFA then finds the first violation and
//! its offset), a block holding a surrogate `\u` escape (pairing is
//! sequential), the bytes of an escape or surrogate pair carried across a
//! block edge, and bare string or primitive roots.
//!
//! A violation is recorded with the block in which it was *detected*, which
//! is not always the block of its offset (a lone high surrogate is reported
//! at its `\` but detected at the byte that breaks the pair). A validator fed
//! ahead of its reader exposes a violation only once the reader reaches
//! that block ([`Validator::error_before`]).
//!
//! # What Strict checks (and what it doesn't)
//!
//! Strict rejects, with the byte offset of the first violation:
//! - malformed UTF-8 (overlongs, surrogates, > U+10FFFF, stray or missing
//!   continuation bytes);
//! - unescaped control bytes inside strings;
//! - invalid escapes, malformed `\u` sequences, lone UTF-16 surrogates;
//! - unterminated strings;
//! - trailing garbage after the root value;
//! - unbalanced `{}`/`[]` structure (counting-based, like Theorem 4.3).
//!
//! Strict does **not** tokenize skipped primitives (`truefalse` inside a
//! skipped array is still invisible, exactly as in the paper), and
//! Permissive intentionally checks nothing beyond what evaluation itself
//! touches. See DESIGN.md §9.

use crate::cursor::find_depth_zero;
use crate::error::InvalidReason;
use simdbits::bits::{mask_below, prefix_xor};
use simdbits::scan::{scan_many, ScanBitmaps, ScanCarry};
use simdbits::{Kernel, StringState, BLOCK};

/// Blocks per [`scan_many`] call in [`Validator::feed_blocks`].
const BATCH: usize = 16;

/// How much well-formedness checking the engine performs on each record.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ValidationMode {
    /// The paper's behavior: fast-forwarded spans receive only structural
    /// pairing checks; malformed bytes inside skipped substructures are
    /// not inspected.
    #[default]
    Permissive,
    /// Validate every classified word (UTF-8, strings, escapes, structure,
    /// trailing garbage) while streaming; reject with
    /// [`StreamError::Invalid`](crate::StreamError::Invalid).
    Strict,
}

impl ValidationMode {
    /// Short stable name (used in checkpoint digests and CLI plumbing).
    pub fn as_str(self) -> &'static str {
        match self {
            ValidationMode::Permissive => "permissive",
            ValidationMode::Strict => "strict",
        }
    }
}

/// Pending escape-sequence state inside a string literal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Escape {
    /// Not inside an escape.
    None,
    /// Saw `\`, awaiting the escape character.
    Backslash,
    /// Inside `\uXXXX`: digits consumed so far and their accumulated value.
    Hex(u8, u32),
}

/// Where the record stands relative to its single root value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Root {
    /// Only whitespace so far.
    NotSeen,
    /// Root is an object/array; done when depth returns to zero.
    Container,
    /// Root is an unquoted primitive; done at the next whitespace.
    Primitive,
    /// Root is a bare string; done at its closing quote.
    Str,
    /// Root value complete; only whitespace may follow.
    Done,
}

/// Incremental UTF-8 validation state (one code point at a time).
///
/// The lead-byte table is the standard shortest-form automaton: it rejects
/// overlong encodings, UTF-16 surrogates (`ED A0..BF`), and code points
/// above U+10FFFF by constraining the *first* continuation byte's range.
#[derive(Clone, Copy, Debug, Default)]
struct Utf8State {
    /// Continuation bytes still required (0 = between code points).
    need: u8,
    /// Valid range for the next continuation byte.
    lo: u8,
    hi: u8,
}

impl Utf8State {
    /// Feeds one byte; returns `false` on malformed UTF-8.
    #[inline]
    fn step(&mut self, b: u8) -> bool {
        if self.need == 0 {
            let (need, lo, hi) = match b {
                0x00..=0x7F => return true,
                0xC2..=0xDF => (1, 0x80, 0xBF),
                0xE0 => (2, 0xA0, 0xBF),
                0xE1..=0xEC | 0xEE..=0xEF => (2, 0x80, 0xBF),
                0xED => (2, 0x80, 0x9F), // excludes UTF-16 surrogates
                0xF0 => (3, 0x90, 0xBF),
                0xF1..=0xF3 => (3, 0x80, 0xBF),
                0xF4 => (3, 0x80, 0x8F), // excludes > U+10FFFF
                // 0x80..=0xC1: stray continuation or overlong lead;
                // 0xF5..=0xFF: beyond U+10FFFF.
                _ => return false,
            };
            (self.need, self.lo, self.hi) = (need, lo, hi);
            true
        } else if b < self.lo || b > self.hi {
            false
        } else {
            self.need -= 1;
            (self.lo, self.hi) = (0x80, 0xBF);
            true
        }
    }
}

/// Streaming strict validator. Feed 64-byte blocks in order via
/// [`Validator::feed_blocks`] (a batch of full blocks) or
/// [`Validator::feed_block`] (one block, possibly short); the first
/// violation freezes the state and is reported by [`Validator::error`] /
/// [`Validator::finish`].
#[derive(Clone, Debug)]
pub struct Validator {
    kernel: Kernel,
    /// Absolute byte offset of the next block to be fed.
    base: usize,
    /// The UTF-8 lookback the next block's scan reads.
    carry: ScanCarry,
    in_string: bool,
    escape: Escape,
    utf8: Utf8State,
    depth: usize,
    root: Root,
    /// Offset of a high-surrogate escape's `\` awaiting its low partner.
    expect_low: Option<usize>,
    error: Option<(usize, InvalidReason)>,
    /// Index of the block being fed when `error` was found.
    detected: usize,
}

impl Validator {
    /// Fresh validator scanning with the given kernel.
    pub fn new(kernel: Kernel) -> Self {
        Validator {
            kernel,
            base: 0,
            carry: ScanCarry::default(),
            in_string: false,
            escape: Escape::None,
            utf8: Utf8State::default(),
            depth: 0,
            root: Root::NotSeen,
            expect_low: None,
            error: None,
            detected: 0,
        }
    }

    /// The first violation found so far, as `(byte offset, reason)`.
    pub fn error(&self) -> Option<(usize, InvalidReason)> {
        self.error
    }

    /// The first violation found so far, provided it was detected in one of
    /// the first `blocks` blocks fed. A reader that fed the validator ahead
    /// of its position asks with the number of blocks it has reached, and
    /// so sees exactly what a validator fed block by block in step with it
    /// would have found.
    #[inline]
    pub fn error_before(&self, blocks: usize) -> Option<(usize, InvalidReason)> {
        self.error.filter(|_| self.detected < blocks)
    }

    /// Bytes fed so far.
    #[inline]
    pub(crate) fn offset(&self) -> usize {
        self.base
    }

    #[inline]
    fn fail(&mut self, pos: usize, reason: InvalidReason) {
        if self.error.is_none() {
            self.error = Some((pos, reason));
            // `base` already counts the block being fed.
            self.detected = self.base.saturating_sub(1) / BLOCK;
        }
    }

    /// Feeds the next block; `valid_len` is the number of real input bytes
    /// (the rest is padding, which carries no data and is skipped).
    pub fn feed_block(&mut self, block: &[u8; BLOCK], valid_len: usize) {
        debug_assert!(valid_len <= BLOCK);
        if self.error.is_some() {
            self.base += valid_len;
            return;
        }
        let mut scan = [ScanBitmaps::default()];
        let mut carry = self.carry;
        scan_many(
            self.kernel,
            std::slice::from_ref(block),
            &mut carry,
            &mut scan,
        );
        // The next block's UTF-8 lookback is the input's last bytes, not
        // this block's padding.
        self.carry.advance(&block[..valid_len]);
        self.feed_scanned(block, &scan[0], valid_len, prefix_xor);
    }

    /// Feeds the next `blocks.len()` full blocks, scanning them a batch at
    /// a time (one kernel dispatch per batch). Equivalent to one
    /// [`feed_block`](Self::feed_block) per block.
    pub fn feed_blocks(&mut self, blocks: &[[u8; BLOCK]]) {
        let mut scans = [ScanBitmaps::default(); BATCH];
        for batch in blocks.chunks(BATCH) {
            if self.error.is_some() {
                self.base += batch.len() * BLOCK;
                continue;
            }
            let scans = &mut scans[..batch.len()];
            scan_many(self.kernel, batch, &mut self.carry, scans);
            self.feed_scans(batch, scans);
        }
    }

    /// Checks a batch of scanned full blocks. With an x86 SIMD kernel the
    /// loop runs in a region with the CPU's `popcnt` and carry-less
    /// multiply (the depth popcounts and the string mask's prefix XOR);
    /// the portable kernels run the same loop on baseline instructions.
    fn feed_scans(&mut self, blocks: &[[u8; BLOCK]], scans: &[ScanBitmaps]) {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if self.kernel != Kernel::Scalar
            && self.kernel != Kernel::Swar
            && std::arch::is_x86_feature_detected!("popcnt")
        {
            // SAFETY: POPCNT was just detected, and an x86 SIMD kernel is
            // only supported with PCLMULQDQ (`Kernel::is_supported`).
            unsafe { self.feed_scans_x86(blocks, scans) };
            return;
        }
        for (block, scan) in blocks.iter().zip(scans) {
            self.feed_scanned(block, scan, BLOCK, prefix_xor);
        }
    }

    /// [`feed_scans`](Self::feed_scans) under POPCNT and PCLMULQDQ.
    ///
    /// # Safety
    ///
    /// The CPU must support both.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[target_feature(enable = "popcnt,pclmulqdq")]
    unsafe fn feed_scans_x86(&mut self, blocks: &[[u8; BLOCK]], scans: &[ScanBitmaps]) {
        for (block, scan) in blocks.iter().zip(scans) {
            // SAFETY: this function's own target features cover the multiply.
            self.feed_scanned(block, scan, BLOCK, |x| unsafe {
                simdbits::bits::clmul_prefix_xor(x)
            });
        }
    }

    /// Checks one scanned block: the bytes of an escape or surrogate pair
    /// carried in from the previous block first, byte by byte, then the
    /// rest with masks, or with the DFA where the masks cannot decide.
    #[inline(always)]
    fn feed_scanned(
        &mut self,
        block: &[u8; BLOCK],
        scan: &ScanBitmaps,
        valid_len: usize,
        prefix_xor: impl Fn(u64) -> u64,
    ) {
        let start = self.base;
        self.base += valid_len;
        if self.error.is_some() || valid_len == 0 {
            return;
        }
        if self.escape != Escape::None || self.expect_low.is_some() {
            self.feed_pending(block, scan, valid_len, prefix_xor);
        } else if !self.feed_masks(block, scan, 0, valid_len, prefix_xor) {
            self.walk(&block[..valid_len], start);
        }
    }

    /// [`feed_scanned`](Self::feed_scanned) for a block that starts inside
    /// an escape or a surrogate pair: the DFA walks those bytes first.
    #[cold]
    #[inline(never)]
    fn feed_pending(
        &mut self,
        block: &[u8; BLOCK],
        scan: &ScanBitmaps,
        valid_len: usize,
        prefix_xor: impl Fn(u64) -> u64,
    ) {
        let start = self.base - valid_len;
        let mut from = 0;
        while from < valid_len && (self.escape != Escape::None || self.expect_low.is_some()) {
            self.step_byte(block[from], start + from);
            if self.error.is_some() {
                return;
            }
            from += 1;
        }
        if from < valid_len && !self.feed_masks(block, scan, from, valid_len, prefix_xor) {
            self.walk(&block[from..valid_len], start + from);
        }
    }

    /// Checks bytes `from..valid_len` of a block with masks. Returns `true`
    /// with the state advanced past them when they are clean, or `false`,
    /// leaving the state untouched, when the DFA must walk them: a flagged
    /// violation (whose exact offset the DFA finds), a surrogate `\u`
    /// escape, a backslash outside strings (the DFA ignores it, where the
    /// odd-backslash trick would escape the next byte), or a bare string or
    /// primitive root.
    ///
    /// Requires no escape or surrogate pair pending at `from`.
    #[inline(always)]
    fn feed_masks(
        &mut self,
        block: &[u8; BLOCK],
        scan: &ScanBitmaps,
        from: usize,
        valid_len: usize,
        prefix_xor: impl Fn(u64) -> u64,
    ) -> bool {
        let live = mask_below(valid_len as u32) & !mask_below(from as u32);
        if scan.utf8 & live != 0 || matches!(self.root, Root::Primitive | Root::Str) {
            return false;
        }
        // The decoder state after the block: between code points, unless a
        // lead byte is among the last three bytes or the block is short.
        let tail = valid_len.saturating_sub(3).max(from);
        let tail_high = scan.high & mask_below(valid_len as u32) & !mask_below(tail as u32);
        let utf8 = if tail_high == 0 && valid_len - from >= 3 {
            Utf8State::default()
        } else {
            match self.utf8_at_end(block, from, valid_len) {
                Some(state) => state,
                None => return false,
            }
        };
        // The string mask: the prefix XOR of the quotes no odd backslash
        // run escapes (the escape carry is clear at `from`).
        let backslashes = scan.backslash & live;
        let mut escapes = StringState::new();
        let escaped = if backslashes == 0 {
            0
        } else {
            escapes.escaped(backslashes)
        };
        let entry = if self.in_string { u64::MAX } else { 0 };
        let in_string = (prefix_xor(scan.quote & live & !escaped) ^ entry) & live;
        if backslashes & !in_string != 0 || scan.control & in_string != 0 {
            return false;
        }
        let mut escape = Escape::None;
        if backslashes != 0 {
            match check_escapes(block, escaped & live, valid_len) {
                Some(end) => escape = end,
                None => return false,
            }
            let pending_backslash = if valid_len == BLOCK {
                escapes.pending_escape()
            } else {
                escaped >> valid_len & 1 != 0
            };
            if pending_backslash {
                escape = Escape::Backslash;
            }
        }

        let outside = live & !in_string;
        let (mut opens, closes) = (scan.openers() & outside, scan.closers() & outside);
        let (mut root, mut depth) = (self.root, self.depth);
        // Bytes that must be whitespace: those after the root value.
        let mut after_root = 0;
        if root == Root::NotSeen {
            let lead = live & !scan.ws;
            if lead != 0 {
                let first = lead & lead.wrapping_neg();
                if opens & first == 0 {
                    return false;
                }
                opens &= !first;
                root = Root::Container;
                depth = 1;
            }
        }
        match root {
            Root::Container => {
                let n_close = closes.count_ones() as usize;
                // With more closers than the depth the root may end here;
                // then the depth is at most 64.
                let end = (depth <= n_close)
                    .then(|| find_depth_zero(opens, closes, depth as u32))
                    .flatten();
                match end {
                    Some(p) => {
                        root = Root::Done;
                        depth = 0;
                        after_root = live & !mask_below(p + 1);
                    }
                    None => depth = depth + opens.count_ones() as usize - n_close,
                }
            }
            Root::Done => after_root = live,
            _ => {}
        }
        if after_root & !scan.ws != 0 {
            return false;
        }
        self.in_string = root != Root::Done && in_string >> (valid_len - 1) & 1 != 0;
        self.escape = escape;
        self.utf8 = utf8;
        self.root = root;
        self.depth = depth;
        true
    }

    /// The UTF-8 decoder state after byte `valid_len - 1`, for bytes
    /// `from..valid_len` the UTF-8 flags passed; `None` when a byte there
    /// is an invalid lead (flagged only on the byte after it).
    ///
    /// Only the last sequence can be open, and its lead is among the last
    /// three bytes: three continuations end a sequence.
    #[cold]
    #[inline(never)]
    fn utf8_at_end(&self, block: &[u8; BLOCK], from: usize, valid_len: usize) -> Option<Utf8State> {
        let tail = valid_len.saturating_sub(3).max(from);
        let (mut state, open) = match (tail..valid_len).rev().find(|&i| block[i] >= 0xC0) {
            Some(lead) => (Utf8State::default(), lead),
            // Fewer than three bytes from `from`: the sequence open there
            // may go on.
            None if valid_len - from < 3 => (self.utf8, from),
            None => return Some(Utf8State::default()),
        };
        block[open..valid_len]
            .iter()
            .all(|&b| state.step(b))
            .then_some(state)
    }

    /// Byte-at-a-time DFA walk.
    #[cold]
    #[inline(never)]
    fn walk(&mut self, bytes: &[u8], start: usize) {
        for (i, &b) in bytes.iter().enumerate() {
            if self.error.is_some() {
                return;
            }
            self.step_byte(b, start + i);
        }
    }

    #[inline]
    fn step_byte(&mut self, b: u8, pos: usize) {
        // UTF-8 first: it applies uniformly, inside and outside strings.
        if (b >= 0x80 || self.utf8.need > 0) && !self.utf8.step(b) {
            self.fail(pos, InvalidReason::Utf8);
            return;
        }
        if self.in_string {
            self.step_in_string(b, pos);
        } else {
            self.step_structural(b, pos);
        }
    }

    fn step_in_string(&mut self, b: u8, pos: usize) {
        match self.escape {
            Escape::None => {
                if let Some(high_pos) = self.expect_low {
                    // A high surrogate must be chased immediately by `\uDC00`
                    // .. `\uDFFF`; anything but a backslash breaks the pair.
                    if b != b'\\' {
                        self.fail(high_pos, InvalidReason::LoneSurrogate);
                        return;
                    }
                }
                match b {
                    b'\\' => self.escape = Escape::Backslash,
                    b'"' => {
                        self.in_string = false;
                        if self.root == Root::Str && self.depth == 0 {
                            self.root = Root::Done;
                        }
                    }
                    0x00..=0x1F => self.fail(pos, InvalidReason::ControlChar),
                    _ => {}
                }
            }
            Escape::Backslash => match b {
                b'u' => self.escape = Escape::Hex(0, 0),
                b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => {
                    if let Some(high_pos) = self.expect_low {
                        self.fail(high_pos, InvalidReason::LoneSurrogate);
                        return;
                    }
                    self.escape = Escape::None;
                }
                _ => self.fail(pos, InvalidReason::BadEscape),
            },
            Escape::Hex(n, acc) => {
                let digit = match b {
                    b'0'..=b'9' => b - b'0',
                    b'a'..=b'f' => b - b'a' + 10,
                    b'A'..=b'F' => b - b'A' + 10,
                    _ => {
                        self.fail(pos, InvalidReason::BadUnicodeEscape);
                        return;
                    }
                };
                let acc = (acc << 4) | u32::from(digit);
                if n + 1 < 4 {
                    self.escape = Escape::Hex(n + 1, acc);
                    return;
                }
                self.escape = Escape::None;
                // `pos` is the 4th hex digit; the escape's `\` is 5 back.
                let escape_start = pos - 5;
                match acc {
                    0xD800..=0xDBFF => {
                        if let Some(high_pos) = self.expect_low {
                            self.fail(high_pos, InvalidReason::LoneSurrogate);
                        } else {
                            self.expect_low = Some(escape_start);
                        }
                    }
                    0xDC00..=0xDFFF => {
                        if self.expect_low.take().is_none() {
                            self.fail(escape_start, InvalidReason::LoneSurrogate);
                        }
                    }
                    _ => {
                        if let Some(high_pos) = self.expect_low {
                            self.fail(high_pos, InvalidReason::LoneSurrogate);
                        }
                    }
                }
            }
        }
    }

    fn step_structural(&mut self, b: u8, pos: usize) {
        let is_ws = matches!(b, b' ' | b'\t' | b'\n' | b'\r');
        match self.root {
            Root::Done => {
                if !is_ws {
                    self.fail(pos, InvalidReason::TrailingGarbage);
                }
            }
            Root::NotSeen => {
                if is_ws {
                    return;
                }
                match b {
                    b'{' | b'[' => {
                        self.root = Root::Container;
                        self.depth = 1;
                    }
                    b'"' => {
                        self.root = Root::Str;
                        self.in_string = true;
                    }
                    b'}' | b']' => self.fail(pos, InvalidReason::Unbalanced),
                    _ => self.root = Root::Primitive,
                }
            }
            Root::Primitive => {
                // Only whitespace ends a bare primitive; token-level validity
                // (`truefalse`, `1.2.3`) is out of Strict's scope.
                if is_ws {
                    self.root = Root::Done;
                } else {
                    match b {
                        b'}' | b']' => self.fail(pos, InvalidReason::Unbalanced),
                        b'{' | b'[' | b'"' | b':' | b',' => {
                            self.fail(pos, InvalidReason::TrailingGarbage)
                        }
                        _ => {}
                    }
                }
            }
            Root::Container => match b {
                b'{' | b'[' => self.depth += 1,
                b'}' | b']' => {
                    self.depth -= 1;
                    if self.depth == 0 {
                        self.root = Root::Done;
                    }
                }
                b'"' => self.in_string = true,
                _ => {}
            },
            // Inside a bare-string root, `step_in_string` handles everything.
            Root::Str => unreachable!("Str root is only active while in_string"),
        }
    }

    /// End-of-record check; returns the first violation, if any, including
    /// truncation-class errors only visible at the end of the input.
    pub fn finish(&mut self) -> Option<(usize, InvalidReason)> {
        if self.error.is_some() {
            return self.error;
        }
        let len = self.base;
        if self.utf8.need > 0 {
            self.fail(len, InvalidReason::Utf8);
        } else if self.in_string || self.escape != Escape::None {
            self.fail(len, InvalidReason::UnterminatedString);
        } else if let Some(high_pos) = self.expect_low {
            self.fail(high_pos, InvalidReason::LoneSurrogate);
        } else if self.depth > 0 {
            self.fail(len, InvalidReason::Unbalanced);
        }
        self.error
    }
}

/// Validates a whole record in one pass (the baseline engines' strict
/// pre-pass). Uses the same state machine and block boundaries as the
/// streaming validator inside JSONSki's cursor, so every engine reports the
/// same first-failure offset.
pub fn validate_record(record: &[u8]) -> Option<(usize, InvalidReason)> {
    validate_record_with(
        record,
        simdbits::forced_kernel().unwrap_or_else(simdbits::best_kernel),
    )
}

/// [`validate_record`] with an explicit kernel (differential tests).
pub fn validate_record_with(record: &[u8], kernel: Kernel) -> Option<(usize, InvalidReason)> {
    fed(record, kernel).finish()
}

/// A validator fed every block of `record`, up to its end-of-record check.
fn fed(record: &[u8], kernel: Kernel) -> Validator {
    let mut v = Validator::new(kernel);
    let (blocks, tail) = record.as_chunks::<BLOCK>();
    v.feed_blocks(blocks);
    if v.error.is_none() && !tail.is_empty() {
        let mut block = [0u8; BLOCK];
        block[..tail.len()].copy_from_slice(tail);
        v.feed_block(&block, tail.len());
    }
    v
}

/// Checks the characters escaped in a clean block (`escaped`, each right
/// after an odd backslash run inside a string) and the hex digits of its
/// `\u` escapes. Returns the escape state the block ends in (a `\u` whose
/// digits run past `valid_len`), or `None` when the DFA must walk the block:
/// a bad escape, a bad hex digit, or a surrogate, whose pairing the DFA
/// tracks.
#[inline]
fn check_escapes(block: &[u8; BLOCK], escaped: u64, valid_len: usize) -> Option<Escape> {
    let mut bits = escaped;
    while bits != 0 {
        let p = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        match block[p] {
            b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => {}
            b'u' => {
                let digits = &block[p + 1..(p + 5).min(valid_len)];
                let mut acc = 0u32;
                for &d in digits {
                    acc = acc << 4 | char::from(d).to_digit(16)?;
                }
                if digits.len() < 4 {
                    // Only hex digits follow: this is the block's last escape.
                    return Some(Escape::Hex(digits.len() as u8, acc));
                }
                if (0xD800..=0xDFFF).contains(&acc) {
                    return None;
                }
            }
            _ => return None,
        }
    }
    Some(Escape::None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(doc: &[u8]) -> Option<(usize, InvalidReason)> {
        let kernels: Vec<Kernel> = Kernel::all()
            .iter()
            .copied()
            .filter(|k| k.is_supported())
            .collect();
        let reference = validate_record_with(doc, kernels[0]);
        for &k in &kernels[1..] {
            assert_eq!(
                validate_record_with(doc, k),
                reference,
                "kernel {k:?} diverges on {:?}",
                String::from_utf8_lossy(doc)
            );
        }
        reference
    }

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            &br#"{"a": 1, "b": [true, null, "x"]}"#[..],
            br#"  [1, 2, 3]  "#,
            br#""just a string""#,
            br#"42"#,
            br#"true "#,
            b"{}",
            b"",
            b"   ",
            // Direct UTF-8 (2-, 3-, and 4-byte sequences).
            "{\"emoji\": \"\u{1F600}\", \"de\": \"stra\u{00DF}e\"}".as_bytes(),
            // Surrogate *pair* escapes are legal; the raw string keeps the
            // backslashes literal so the validator sees `😀`.
            br#"{"pair": "\uD83D\uDE00", "esc": "\n\t\\\"A", "u": "\u00e9"}"#,
        ] {
            assert_eq!(check(doc), None, "doc {:?}", String::from_utf8_lossy(doc));
        }
    }

    #[test]
    fn rejects_bad_utf8_at_offset() {
        // Stray continuation byte.
        assert_eq!(
            check(b"{\"a\": \"x\xFFy\"}"),
            Some((8, InvalidReason::Utf8))
        );
        // Overlong encoding of '/'.
        assert_eq!(check(b"[\"\xC0\xAF\"]"), Some((2, InvalidReason::Utf8)));
        // UTF-16 surrogate encoded directly (ED A0 80).
        assert_eq!(check(b"[\"\xED\xA0\x80\"]"), Some((3, InvalidReason::Utf8)));
        // Truncated sequence at end of input.
        assert_eq!(check(b"\"\xE2\x82"), Some((3, InvalidReason::Utf8)));
    }

    #[test]
    fn rejects_string_violations() {
        assert_eq!(
            check(b"{\"a\": \"x\x01\"}"),
            Some((8, InvalidReason::ControlChar))
        );
        assert_eq!(
            check(br#"{"a": "b\q"}"#),
            Some((9, InvalidReason::BadEscape))
        );
        assert_eq!(
            check(br#"{"a": "\uZZZZ"}"#),
            Some((9, InvalidReason::BadUnicodeEscape))
        );
        // Lone high surrogate: reported at the escape's backslash.
        assert_eq!(
            check(br#"{"a": "\uD800"}"#),
            Some((7, InvalidReason::LoneSurrogate))
        );
        // Lone low surrogate.
        assert_eq!(
            check(br#"{"a": "\uDC00x"}"#),
            Some((7, InvalidReason::LoneSurrogate))
        );
        // High surrogate followed by a non-surrogate escape.
        assert_eq!(
            check(br#"{"a": "\uD800A"}"#),
            Some((7, InvalidReason::LoneSurrogate))
        );
        assert_eq!(
            check(br#"{"a": "unterminated"#),
            Some((19, InvalidReason::UnterminatedString))
        );
    }

    #[test]
    fn rejects_structural_violations() {
        assert_eq!(
            check(br#"{"a": 1} trailing"#),
            Some((9, InvalidReason::TrailingGarbage))
        );
        assert_eq!(
            check(br#"{"a": 1}}"#),
            Some((8, InvalidReason::TrailingGarbage))
        );
        assert_eq!(check(br#"]"#), Some((0, InvalidReason::Unbalanced)));
        assert_eq!(
            check(br#"{"a": [1, 2}"#),
            // Counting-based pairing: the mismatched `}` still closes the
            // bracket; the imbalance surfaces at end of input.
            Some((12, InvalidReason::Unbalanced))
        );
        assert_eq!(check(br#"{"a": {"#), Some((7, InvalidReason::Unbalanced)));
        assert_eq!(check(b"1 2"), Some((2, InvalidReason::TrailingGarbage)));
    }

    #[test]
    fn fast_and_scalar_paths_agree_across_boundaries() {
        // Shift a document across the 64-byte grid so the same bytes take
        // the fast path at some alignments and split differently at others.
        let core = br#"{"k": ["v", {"n": [1, 2, {"deep": "x"}]}], "t": "y"}"#;
        for pad in 0..130 {
            let mut doc = vec![b' '; pad];
            doc.extend_from_slice(core);
            assert_eq!(check(&doc), None, "pad {pad}");
            // And with an injected control byte, offsets must track the pad.
            let mut bad = doc.clone();
            let in_string = pad + 8; // inside "v"
            bad[in_string] = 0x07;
            assert_eq!(
                check(&bad),
                Some((in_string, InvalidReason::ControlChar)),
                "pad {pad}"
            );
        }
    }

    #[test]
    fn depth_zero_mid_block_hands_off_to_scalar() {
        // Root closes mid-block; the garbage after it fails the block's
        // whitespace mask, and the DFA locates it.
        let mut doc = br#"{"a": [1, 2, 3]}   "#.to_vec();
        doc.extend_from_slice(b"oops");
        let pos = doc.len() - 4;
        assert_eq!(check(&doc), Some((pos, InvalidReason::TrailingGarbage)));
    }

    #[test]
    fn validation_mode_names() {
        assert_eq!(ValidationMode::Permissive.as_str(), "permissive");
        assert_eq!(ValidationMode::Strict.as_str(), "strict");
        assert_eq!(ValidationMode::default(), ValidationMode::Permissive);
    }
    #[test]
    fn detection_block_gates_error_before() {
        // A lone high surrogate is reported at its `\` (word 0) but only
        // detected at the byte breaking the pair (word 1).
        let mut doc = br#"{"a": ""#.to_vec();
        doc.resize(58, b'x');
        doc.extend_from_slice(br#"\uD800x", "b": 1}"#);
        let backslash = 58;
        let mut v = fed(&doc, simdbits::best_kernel());
        assert_eq!(v.error(), Some((backslash, InvalidReason::LoneSurrogate)));
        assert_eq!(v.error_before(1), None, "detected in word 1, not 0");
        assert_eq!(
            v.error_before(2),
            Some((backslash, InvalidReason::LoneSurrogate))
        );
        assert_eq!(v.finish(), v.error());
        // A plain violation is detected in the block of its offset.
        let mut doc = vec![b' '; 130];
        doc[0] = b'[';
        doc[129] = b']';
        doc[100] = 0xFF;
        let v = fed(&doc, simdbits::best_kernel());
        assert_eq!(v.error_before(1), None);
        assert_eq!(v.error_before(2), Some((100, InvalidReason::Utf8)));
    }

    #[test]
    fn short_blocks_feed_only_their_input() {
        // Only the valid prefix of a block is input, wherever the block
        // falls: feeding a document in pieces of every length equals
        // feeding it whole, on every kernel.
        for doc in [
            &b"[\"\xE2\x82\xAC\", \"\\u00e9\"]"[..],
            b"[\"\xE2\x82A\"]",
            b"[\"\xF0\x9F\x98\", 1]",
            b"{\"a\": \"x\\",
        ] {
            for k in Kernel::all().iter().copied().filter(|k| k.is_supported()) {
                let want = validate_record_with(doc, k);
                for cut in 0..=doc.len() {
                    let mut v = Validator::new(k);
                    for piece in [&doc[..cut], &[][..], &doc[cut..]] {
                        let mut block = [0xFFu8; BLOCK];
                        block[..piece.len()].copy_from_slice(piece);
                        v.feed_block(&block, piece.len());
                    }
                    assert_eq!(v.finish(), want, "{k:?} cut {cut} {doc:?}");
                }
            }
        }
    }

    #[test]
    fn masks_cover_escapes_roots_and_utf8_across_edges() {
        // Escapes and multi-byte characters cut by the block edge at every
        // offset, inside a container root with whitespace around it.
        for pad in 0..70 {
            for piece in [
                &br#"\u00e9"#[..],
                br#"\uD83D\uDE00"#,
                br#"\\\""#,
                "\u{1F600}\u{20AC}".as_bytes(),
            ] {
                let mut doc = format!("  {{\"k\": \"{}", "x".repeat(pad)).into_bytes();
                doc.extend_from_slice(piece);
                doc.extend_from_slice(b"\", \"n\": [1, {}]}  \n");
                assert_eq!(check(&doc), None, "pad {pad} piece {piece:?}");
            }
        }
    }
}

/// The bit-parallel validator against the DFA alone, on every kernel.
#[cfg(test)]
mod differential {
    use proptest::prelude::*;

    use super::*;

    /// The DFA walking every byte, block by block: the verdict and the
    /// block in which it was detected.
    fn dfa_walk(record: &[u8]) -> (Option<(usize, InvalidReason)>, usize) {
        let mut v = Validator::new(Kernel::Scalar);
        for chunk in record.chunks(BLOCK) {
            let start = v.base;
            v.base += chunk.len();
            v.walk(chunk, start);
            if v.error.is_some() {
                break;
            }
        }
        (v.finish(), v.detected)
    }

    /// One of `pieces`, uniformly.
    fn bytes(pieces: &[&[u8]]) -> BoxedStrategy<Vec<u8>> {
        let pieces: Vec<Vec<u8>> = pieces.iter().map(|p| p.to_vec()).collect();
        (0..pieces.len()).prop_map(move |i| pieces[i].clone())
    }

    /// A piece of string content: text, characters and escapes, valid or
    /// not, and control bytes.
    fn string_piece() -> BoxedStrategy<Vec<u8>> {
        let valid_utf8 = bytes(&[
            "\u{E9}".as_bytes(),
            "\u{7FF}".as_bytes(),
            "\u{800}".as_bytes(),
            "\u{20AC}".as_bytes(),
            "\u{FFFF}".as_bytes(),
            "\u{10000}".as_bytes(),
            "\u{1F600}".as_bytes(),
            "\u{10FFFF}".as_bytes(),
        ]);
        let invalid_utf8 = bytes(&[
            // Overlong.
            b"\xC0\xAF",
            b"\xC1\xBF",
            b"\xE0\x80\xAF",
            b"\xE0\x9F\xBF",
            b"\xF0\x80\x80\xAF",
            b"\xF0\x8F\xBF\xBF",
            // Surrogate code points.
            b"\xED\xA0\x80",
            b"\xED\xBF\xBF",
            // Above U+10FFFF.
            b"\xF4\x90\x80\x80",
            b"\xF5\x80\x80\x80",
            b"\xF8\x88\x80\x80",
            b"\xFE",
            b"\xFF",
            // Stray continuation.
            b"\x80",
            b"\xBF",
            b"\xC3\xA9\xA9",
            // Missing continuation.
            b"\xC3",
            b"\xE2\x82",
            b"\xF0\x9F\x98",
        ]);
        let escapes = bytes(&[
            br#"\n"#,
            br#"\""#,
            br#"\\"#,
            br#"\/"#,
            br#"\b\f\r\t"#,
            br#"\u00e9"#,
            br#"\u0041"#,
            br#"\uFFFF"#,
            br#"\uD83D\uDE00"#,
            br#"\udbff\udfff"#,
            br#"\\\\\""#,
        ]);
        let bad_escapes = bytes(&[
            br#"\q"#,
            br#"\'"#,
            b"\\\x01",
            b"\\\xC3\xA9",
            br#"\u12G4"#,
            br#"\u12"#,
            br#"\uZZZZ"#,
            br#"\u"#,
            br#"\uD800"#,
            br#"\uDC00"#,
            br#"\uD800\n"#,
            br#"\uD800\u0041"#,
            br#"\uD800\uD800"#,
            br#"\uDFFF\uD800"#,
            br#"\uD800x"#,
        ]);
        let controls = bytes(&[b"\x00", b"\x01", b"\x1F", b"\n", b"\t", b"\x7F"]);
        prop_oneof![
            6 => "[a-z {}\\[\\]:,]{0,16}".prop_map(String::into_bytes),
            2 => valid_utf8,
            1 => invalid_utf8,
            2 => escapes,
            1 => bad_escapes,
            1 => controls,
            1 => prop::collection::vec(any::<u8>(), 0..4),
        ]
        .boxed()
    }

    fn string() -> BoxedStrategy<Vec<u8>> {
        prop::collection::vec(string_piece(), 0..6)
            .prop_map(|pieces| {
                let mut s = b"\"".to_vec();
                s.extend(pieces.concat());
                s.push(b'"');
                s
            })
            .boxed()
    }

    fn array(inner: BoxedStrategy<Vec<u8>>) -> BoxedStrategy<Vec<u8>> {
        prop::collection::vec(inner, 0..5)
            .prop_map(|vs| [&b"["[..], &vs.join(&b", "[..]), b"]"].concat())
    }

    fn object(inner: BoxedStrategy<Vec<u8>>) -> BoxedStrategy<Vec<u8>> {
        prop::collection::vec((string(), inner), 0..5).prop_map(|fields| {
            let fields: Vec<Vec<u8>> = fields
                .into_iter()
                .map(|(k, v)| [k, b": ".to_vec(), v].concat())
                .collect();
            [&b"{"[..], &fields.join(&b",\n"[..]), b"}"].concat()
        })
    }

    fn value() -> BoxedStrategy<Vec<u8>> {
        let leaf = prop_oneof![
            3 => string(),
            1 => bytes(&[b"1", b"-2.5e3", b"true", b"null"]),
        ];
        leaf.prop_recursive(3, 48, 5, |inner| {
            prop_oneof![array(inner.clone()), object(inner)]
        })
    }

    /// A record: whitespace shifting the root across the 64-byte grid, a
    /// container, string or primitive root (or none), and whitespace or
    /// garbage after it.
    fn record() -> BoxedStrategy<Vec<u8>> {
        let root = prop_oneof![
            2 => array(value()),
            2 => object(value()),
            1 => string(),
            1 => bytes(&[b"42", b"true", b"nul\x01l", b"1}", b"2:", b"-"]),
            1 => Just(Vec::new()),
        ];
        let after = bytes(&[
            b"", b"  \n", b"\t\r ", b" x", b"}", b"]", b" {}", b"\"s\"", b" \xFF",
        ]);
        (0usize..130, root, after)
            .prop_map(|(pad, root, after)| {
                let ws = [b' ', b'\n', b'\t', b'\r'];
                let mut doc: Vec<u8> = (0..pad).map(|i| ws[i % 4]).collect();
                doc.extend(root);
                doc.extend(after);
                doc
            })
            .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 256 }))]

        #[test]
        fn masks_match_the_dfa_at_every_length(doc in record()) {
            let kernels: Vec<Kernel> =
                Kernel::all().iter().copied().filter(|k| k.is_supported()).collect();
            // Every prefix: each case truncated at every length.
            let step = if cfg!(miri) { 29 } else { 1 };
            for len in (0..=doc.len()).step_by(step) {
                let prefix = &doc[..len];
                let want = dfa_walk(prefix);
                for &k in &kernels {
                    let mut v = fed(prefix, k);
                    let got = (v.finish(), v.detected);
                    prop_assert_eq!(
                        got, want,
                        "kernel {:?}, {:?}", k, String::from_utf8_lossy(prefix)
                    );
                }
            }
        }
    }
}
