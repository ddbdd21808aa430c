//! The streaming cursor: a forward-only position over the input plus the
//! bit-parallel word cache.
//!
//! The cursor embodies the paper's streaming discipline (Section 4.1): the
//! input is classified in order, and only a fixed, small amount of bitmaps
//! is ever retained — "an interval bitmap should be constructed after the
//! prior one has been used and destroyed". Fast-forward functions advance
//! the position by scanning words forward; no global index is ever
//! materialized, which is what keeps JSONSki's memory footprint at the
//! input buffer size (Figure 13).
//!
//! A live cursor classifies ahead in a fixed window of 16 words
//! (`WINDOW`): one [`Classifier::classify_many`] call fills it, so the kernel
//! is chosen once per batch and one word's serial string-state chain
//! overlaps the next word's compares (the same trick as simdjson's
//! stage 1). At most 16 words (1 KiB of input) of bitmaps are retained —
//! still O(1) in the input size. Classification ahead of the position is
//! invisible to callers: [`Cursor::words_classified`] counts only the
//! words actually reached.
//!
//! # Word access
//!
//! [`Cursor::word`] serves a word's bitmaps in one of four ways, the first
//! three inline:
//!
//! 1. **Cached word.** A request for the current word (`idx + 1 ==
//!    words_classified`) returns the retained bitmaps.
//! 2. **Prebuilt jump.** With a prebuilt index and no strict validator, a
//!    request for any later word reads that word's lanes directly; the
//!    words in between need no work, because prebuilt lanes carry no
//!    string state.
//! 3. **Window word.** A request for any later word already in the live
//!    window reads it from there; a forward skip inside the window costs
//!    nothing per word.
//! 4. **Slow path** (out of line): everything else. A live request past
//!    the window refills it, batch after batch, until the word is in it
//!    (a skip past the window still classifies every word in between,
//!    since string state must be carried through them, but a batch at a
//!    time). In Strict mode each refill also feeds the validator the same
//!    words, in order, in one batch, so a strict cursor serves words from
//!    the window like a permissive one. A prebuilt cursor with a validator
//!    comes here for every new word: its validator reads the input a
//!    batch at a time ahead of the lanes. A rewind panics (the
//!    streaming-violation assert).
//!
//! A validator fed ahead of the position may find a violation in a word
//! the cursor has not reached; it stays hidden (`poisoned`) until the
//! cursor reaches the word in which it was detected, so what a strict
//! run reports, and where it stops, is what a word-by-word validator
//! gives.
//!
//! The scanning primitives (pairing, next-bit search, the batched
//! primitive skip and the G1 attribute seek) are written once, generic
//! over a `Words` source: the cursor itself, or — on a prebuilt cursor
//! with no validator — the lane slice walked directly (`Lanes`), after
//! which the cursor accounts the walked words exactly as if each had
//! passed through [`Cursor::word`].

use simdbits::{bits, BlockBitmaps, Classifier, Kernel, BLOCK};

use crate::error::StreamError;
use crate::validate::{ValidationMode, Validator};

/// Words a live cursor classifies per batch and retains ahead of its
/// position (see the module docs).
const WINDOW: usize = 16;

/// Forward-only streaming cursor over a JSON byte buffer.
#[derive(Clone, Debug)]
pub struct Cursor<'a> {
    input: &'a [u8],
    pos: usize,
    cls: Classifier,
    /// Index of the word whose bitmaps are cached in `cur` (valid only when
    /// `classified > 0`; words `0..classified` have passed through the
    /// classifier).
    cur: BlockBitmaps,
    classified: usize,
    /// The live window: `window[..win_end - win_start]` holds words
    /// `win_start..win_end`, classified ahead (the classifier's string
    /// state stands at the end of word `win_end - 1`). Allocated by the
    /// first refill, so a cursor with a prebuilt index, which never
    /// refills, carries and copies only the pointer.
    window: Option<Box<[BlockBitmaps; WINDOW]>>,
    win_start: usize,
    win_end: usize,
    /// Strict-mode validator riding the live window: every word classified
    /// is validated, in classification order and in the same batch, so
    /// fast-forwarded spans are checked without a second pass. `None` in
    /// Permissive mode (zero cost on the hot path).
    validator: Option<Validator>,
    /// Pre-built bitmaps covering every word of `input` (one entry per
    /// 64-byte word, from a persistent structural index). When set,
    /// [`Cursor::word`] serves bitmaps from this slice instead of running
    /// the classifier; the strict-mode validator still consumes the actual
    /// input bytes in classification order, so validation verdicts are
    /// byte-identical with or without the prebuilt path.
    prebuilt: Option<&'a [BlockBitmaps]>,
    /// Word requests answered from the cached current word; maintained
    /// only when time-resolved instrumentation is compiled in, so the
    /// default build's hot loop carries no extra work.
    #[cfg(feature = "metrics")]
    cache_hits: u64,
    /// Nanoseconds spent inside the classifier.
    #[cfg(feature = "metrics")]
    classify_ns: u64,
}

impl<'a> Cursor<'a> {
    /// Creates a cursor at position 0 (Permissive, auto-selected kernel).
    pub fn new(input: &'a [u8]) -> Self {
        Self::with_options(input, None, ValidationMode::Permissive)
    }

    /// Creates a cursor with an explicit kernel override and validation
    /// mode. `kernel: None` uses the auto-selected kernel (which itself
    /// honors the `JSONSKI_KERNEL` environment variable).
    pub fn with_options(
        input: &'a [u8],
        kernel: Option<Kernel>,
        validation: ValidationMode,
    ) -> Self {
        let cls = match kernel {
            Some(k) => Classifier::with_kernel(k),
            None => Classifier::new(),
        };
        // The validator scans with the same kernel family as the classifier
        // but recomputes its own bitmaps (see `validate`): forcing a kernel
        // forces both, which is what differential verification wants.
        let validator =
            (validation == ValidationMode::Strict).then(|| Validator::new(cls.kernel()));
        Cursor {
            input,
            pos: 0,
            cls,
            cur: BlockBitmaps::default(),
            classified: 0,
            window: None,
            win_start: 0,
            win_end: 0,
            validator,
            prebuilt: None,
            #[cfg(feature = "metrics")]
            cache_hits: 0,
            #[cfg(feature = "metrics")]
            classify_ns: 0,
        }
    }

    /// Creates a cursor whose word bitmaps come from `prebuilt` (one
    /// [`BlockBitmaps`] per 64-byte word of `input`, as produced by a
    /// persistent structural index) instead of the classifier.
    ///
    /// Defensive rather than panicking: when `prebuilt` does not cover
    /// `input` exactly (`prebuilt.len() != input.len().div_ceil(64)`), the
    /// slice is ignored and the cursor classifies normally — a mis-sized
    /// index degrades to the full-classification path, never to a mixed
    /// (and therefore string-state-corrupted) bitmap stream.
    ///
    /// In Strict mode the validator still reads every input byte in word
    /// order (only the metacharacter classification is skipped), so strict
    /// verdicts cannot diverge between the prebuilt and classified paths.
    pub fn with_prebuilt(
        input: &'a [u8],
        prebuilt: &'a [BlockBitmaps],
        kernel: Option<Kernel>,
        validation: ValidationMode,
    ) -> Self {
        let mut cur = Self::with_options(input, kernel, validation);
        if prebuilt.len() == input.len().div_ceil(BLOCK) {
            cur.prebuilt = Some(prebuilt);
        }
        cur
    }

    /// Whether this cursor serves word bitmaps from a prebuilt index.
    #[inline]
    pub fn uses_prebuilt(&self) -> bool {
        self.prebuilt.is_some()
    }

    /// The first strict-validation violation discovered so far, as a typed
    /// error. `None` in Permissive mode or while the classified prefix is
    /// clean.
    #[inline]
    fn poisoned(&self) -> Option<StreamError> {
        // The validator runs up to a window ahead of the position; a
        // violation it found there stays hidden until the cursor reaches
        // the word in which it was detected.
        self.validator
            .as_ref()
            .and_then(|v| v.error_before(self.classified))
            .map(|(pos, reason)| StreamError::Invalid { pos, reason })
    }

    /// Strict-mode end-of-record check: classifies (and thereby validates)
    /// any words evaluation never touched, then applies the end-of-input
    /// rules (unterminated string, truncated UTF-8, unbalanced structure).
    /// No-op in Permissive mode.
    ///
    /// # Errors
    ///
    /// [`StreamError::Invalid`] with the first violation's byte offset.
    pub fn finish_strict(&mut self) -> Result<(), StreamError> {
        if self.validator.is_none() {
            return Ok(());
        }
        let words = self.word_count();
        let mut w = self.classified;
        while w < words && self.poisoned().is_none() {
            self.word(w);
            w += 1;
        }
        if let Some(e) = self.poisoned() {
            return Err(e);
        }
        if let Some(v) = self.validator.as_mut() {
            if let Some((pos, reason)) = v.finish() {
                return Err(StreamError::Invalid { pos, reason });
            }
        }
        Ok(())
    }

    /// Number of 64-byte words classified so far (bitmap-construction
    /// effort for this record).
    #[inline]
    pub fn words_classified(&self) -> usize {
        self.classified
    }

    /// Word requests served by the single-word bitmap cache. Always 0
    /// without the `metrics` cargo feature.
    #[inline]
    pub fn word_cache_hits(&self) -> u64 {
        #[cfg(feature = "metrics")]
        {
            self.cache_hits
        }
        #[cfg(not(feature = "metrics"))]
        {
            0
        }
    }

    /// Nanoseconds spent classifying words. Always 0 without the
    /// `metrics` cargo feature.
    #[inline]
    pub fn classify_ns(&self) -> u64 {
        #[cfg(feature = "metrics")]
        {
            self.classify_ns
        }
        #[cfg(not(feature = "metrics"))]
        {
            0
        }
    }

    /// The underlying input buffer.
    #[inline]
    pub fn input(&self) -> &'a [u8] {
        self.input
    }

    /// Current byte position.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Whether the cursor passed the end of the input.
    #[inline]
    pub fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    /// Moves the position forward (or within the current word).
    ///
    /// # Panics
    ///
    /// Panics in debug builds when moving backwards past the current word
    /// (that would violate the streaming discipline).
    #[inline]
    pub fn set_pos(&mut self, pos: usize) {
        debug_assert!(
            self.classified == 0 || pos >= (self.classified - 1) * BLOCK,
            "cursor rewound before the current word: pos {pos}, classified {}",
            self.classified
        );
        self.pos = pos;
    }

    /// The byte at the current position, if any.
    #[inline]
    pub fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    /// Advances one byte.
    #[inline]
    pub fn bump(&mut self) {
        self.pos += 1;
    }

    /// Skips JSON whitespace.
    #[inline]
    pub fn skip_ws(&mut self) {
        self.pos = after_ws(self.input, self.pos);
    }

    /// Skips whitespace, then consumes the expected byte.
    ///
    /// # Errors
    ///
    /// [`StreamError::Unexpected`] / [`StreamError::UnexpectedEof`] when the
    /// next non-whitespace byte is not `byte`.
    #[inline]
    pub fn expect(&mut self, byte: u8, expected: &'static str) -> Result<(), StreamError> {
        if let Some(e) = self.poisoned() {
            return Err(e);
        }
        self.skip_ws();
        match self.peek() {
            Some(b) if b == byte => {
                self.pos += 1;
                Ok(())
            }
            Some(b) => Err(StreamError::Unexpected {
                expected,
                found: b,
                pos: self.pos,
            }),
            None => Err(StreamError::UnexpectedEof { expected }),
        }
    }

    /// Skips whitespace and peeks, failing with EOF otherwise.
    #[inline]
    pub fn peek_token(&mut self, expected: &'static str) -> Result<u8, StreamError> {
        if let Some(e) = self.poisoned() {
            return Err(e);
        }
        self.skip_ws();
        self.peek().ok_or(StreamError::UnexpectedEof { expected })
    }

    /// Returns the bitmaps for word `idx`, classifying forward as needed
    /// (see the module docs for the four ways a word is served).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is before the current word (streaming violation) or
    /// past the end of the input.
    #[inline]
    pub fn word(&mut self, idx: usize) -> BlockBitmaps {
        if idx + 1 == self.classified {
            #[cfg(feature = "metrics")]
            {
                self.cache_hits += 1;
            }
            return self.cur;
        }
        if idx >= self.classified {
            if let Some(pre) = self.prebuilt {
                if self.validator.is_none() {
                    self.cur = pre[idx];
                    self.classified = idx + 1;
                    return self.cur;
                }
            } else if let Some(window) = &self.window {
                // Words `classified..win_end` are windowed, and
                // `win_start <= classified` (a refill starts the window at
                // or before the word it was filled for).
                if idx < self.win_end {
                    self.cur = window[idx - self.win_start];
                    self.classified = idx + 1;
                    return self.cur;
                }
            }
        }
        self.word_slow(idx);
        self.cur
    }

    /// [`Cursor::word`]'s out-of-line path: live words past the window,
    /// prebuilt lanes read in order for a validator, and rewinds (which
    /// panic). Leaves word `idx` current; returning nothing keeps the
    /// 64-byte bitmaps out of the call's return path.
    #[inline(never)]
    fn word_slow(&mut self, idx: usize) {
        assert!(
            self.classified == 0 || idx + 1 >= self.classified,
            "word {idx} was already discarded (classified through {})",
            self.classified
        );
        #[cfg(feature = "metrics")]
        if idx < self.classified {
            self.cache_hits += 1;
        }
        #[cfg(feature = "metrics")]
        let t0 = (self.classified <= idx).then(std::time::Instant::now);
        if idx >= self.classified {
            assert!(idx < self.word_count(), "word {idx} out of range");
            match self.prebuilt {
                // Only a validator sends a prebuilt cursor here: it reads
                // the input a batch at a time, ahead of the lanes.
                Some(pre) => {
                    if let Some(v) = self.validator.as_mut() {
                        validate_through(v, self.input, idx);
                    }
                    self.cur = pre[idx];
                }
                // Windowed words are taken as they are; only words past
                // the window are classified, a batch at a time.
                None => {
                    while self.win_end <= idx {
                        self.refill();
                    }
                    let window = self.window.as_ref().expect("a refill allocates the window");
                    self.cur = window[idx - self.win_start];
                }
            }
            self.classified = idx + 1;
        }
        #[cfg(feature = "metrics")]
        if let Some(t0) = t0 {
            self.classify_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
    }

    /// Classifies the next batch of live words, up to `WINDOW` of them
    /// including the zero-padded tail word, into the window, which then
    /// starts at the old window's end. A validator is fed the same words,
    /// in order, in the same batch.
    fn refill(&mut self) {
        let (full, tail) = batch(self.input, self.win_end * BLOCK);
        let n = full.len();
        let window = self
            .window
            .get_or_insert_with(|| Box::new([BlockBitmaps::default(); WINDOW]));
        self.cls.classify_many(full, &mut window[..n]);
        if let Some(v) = self.validator.as_mut() {
            v.feed_blocks(full);
        }
        let mut filled = n;
        if let Some((block, len)) = tail {
            window[n] = self.cls.classify(&block);
            if let Some(v) = self.validator.as_mut() {
                v.feed_block(&block, len);
            }
            filled += 1;
        }
        self.win_start = self.win_end;
        self.win_end += filled;
    }

    /// The prebuilt lanes, when a scan may walk them directly: only with no
    /// strict validator, which must see every word, in order, through
    /// [`Cursor::word`].
    #[inline]
    pub(crate) fn lanes(&self) -> Option<Lanes<'a>> {
        match (self.prebuilt, &self.validator) {
            (Some(pre), None) => Some(Lanes {
                pre,
                reached: self.classified,
            }),
            _ => None,
        }
    }

    /// Accounts a finished lane walk as if every word it read had passed
    /// through [`Cursor::word`]: the furthest word becomes the current one.
    #[inline]
    pub(crate) fn absorb(&mut self, lanes: Lanes<'a>) {
        if lanes.reached > self.classified {
            self.classified = lanes.reached;
            self.cur = lanes.pre[lanes.reached - 1];
        }
    }

    /// Number of 64-byte words covering the input.
    #[inline]
    pub fn word_count(&self) -> usize {
        self.input.len().div_ceil(BLOCK)
    }

    /// Finds the next position `>= from` whose bit is set in the bitmap
    /// selected by `sel`, scanning words forward. Returns `None` at EOF.
    #[inline]
    pub fn next_pos_where(
        &mut self,
        from: usize,
        sel: impl Fn(&BlockBitmaps) -> u64,
    ) -> Option<usize> {
        let len = self.input.len();
        with_words!(self, |src| scan(src, from, len, sel, |_| 0).0)
    }

    /// Advances to the closing quote of the string opening at `open_pos`
    /// (which must hold an unescaped `"`), returning the closing quote's
    /// position. The cursor position is left *at* the closing quote.
    ///
    /// # Errors
    ///
    /// [`StreamError::UnexpectedEof`] if the string never closes.
    pub fn seek_string_end(&mut self, open_pos: usize) -> Result<usize, StreamError> {
        debug_assert_eq!(self.input.get(open_pos), Some(&b'"'));
        let end = self.next_pos_where(open_pos + 1, |b| b.quote);
        // A violation found while classifying forward (strict mode) outranks
        // the EOF this scan would otherwise report.
        if let Some(e) = self.poisoned() {
            return Err(e);
        }
        let end = end.ok_or(StreamError::UnexpectedEof {
            expected: "closing `\"`",
        })?;
        self.pos = end;
        Ok(end)
    }

    /// Reads an attribute name or string: expects `"` at the current
    /// position (after whitespace) and returns the name's byte range
    /// (quotes excluded), leaving the cursor after the closing quote.
    ///
    /// # Errors
    ///
    /// Fails when the next token is not a string or the string never closes.
    pub fn read_string(&mut self) -> Result<(usize, usize), StreamError> {
        if let Some(e) = self.poisoned() {
            return Err(e);
        }
        self.skip_ws();
        match self.peek() {
            Some(b'"') => {
                let open = self.pos;
                let close = self.seek_string_end(open)?;
                self.pos = close + 1;
                Ok((open + 1, close))
            }
            Some(b) => Err(StreamError::Unexpected {
                expected: "string",
                found: b,
                pos: self.pos,
            }),
            None => Err(StreamError::UnexpectedEof { expected: "string" }),
        }
    }

    /// The counting-based pairing search (paper Theorem 4.3, Algorithm 4):
    /// starting at the current position with `depth` unpaired `open`
    /// characters, advances to the closer that brings the depth to zero and
    /// returns its position. The cursor is left *at* that closer.
    ///
    /// `open`/`close` must be `b'{'`/`b'}'` or `b'['`/`b']'`.
    ///
    /// # Errors
    ///
    /// [`StreamError::Unbalanced`] if the input ends first.
    pub fn seek_container_end(
        &mut self,
        open: u8,
        close: u8,
        depth: u32,
    ) -> Result<usize, StreamError> {
        debug_assert!(depth > 0);
        // Select the lane pair once, so the scan loop reads two lanes per
        // word with no per-word dispatch.
        let end = match (open, close) {
            (b'{', b'}') => self.find_close(depth, BlockBitmaps::braces),
            (b'[', b']') => self.find_close(depth, BlockBitmaps::brackets),
            _ => panic!("not a container pair: {:?}", (open as char, close as char)),
        };
        if let Some(end) = end {
            self.pos = end;
            return Ok(end);
        }
        // Same precedence as `seek_string_end`: a strict-validation error in
        // the scanned span wins over the bare imbalance report.
        if let Some(e) = self.poisoned() {
            return Err(e);
        }
        Err(StreamError::Unbalanced {
            pos: self.input.len(),
        })
    }

    /// [`find_close`] from the current position over this cursor's words.
    #[inline]
    fn find_close(
        &mut self,
        depth: u32,
        pair: impl Fn(&BlockBitmaps) -> (u64, u64),
    ) -> Option<usize> {
        let (from, len) = (self.pos, self.input.len());
        with_words!(self, |src| find_close(src, from, len, depth, pair))
    }
}

/// A short tail word zero-padded to a full word, with its length.
type PaddedWord = ([u8; BLOCK], usize);

/// The words of the batch starting at byte `start` (a word boundary):
/// up to `WINDOW` full words, then, when the input runs out first, its
/// short tail zero-padded to a word, with its length. The copy serves the
/// classifier and the validator alike (padding NULs are masked by the
/// valid length, so they never read as control bytes).
fn batch(input: &[u8], start: usize) -> (&[[u8; BLOCK]], Option<PaddedWord>) {
    let (full, tail) = input[start..].as_chunks::<BLOCK>();
    if full.len() >= WINDOW {
        return (&full[..WINDOW], None);
    }
    let tail = (!tail.is_empty()).then(|| {
        let mut block = [0u8; BLOCK];
        block[..tail.len()].copy_from_slice(tail);
        (block, tail.len())
    });
    (full, tail)
}

/// Feeds `v` the words of `input` a batch at a time until it has seen word
/// `idx` (a prebuilt strict cursor's validator, which reads ahead of the
/// lanes like a live window).
fn validate_through(v: &mut Validator, input: &[u8], idx: usize) {
    while v.offset() <= idx * BLOCK {
        let (full, tail) = batch(input, v.offset());
        v.feed_blocks(full);
        if let Some((block, len)) = tail {
            v.feed_block(&block, len);
        }
    }
}

/// The first non-whitespace position at or after `at` (`input.len()` if
/// none).
#[inline]
pub(crate) fn after_ws(input: &[u8], mut at: usize) -> usize {
    while matches!(input.get(at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        at += 1;
    }
    at
}

/// A source of word bitmaps for a forward scan. Requests never go back
/// before the previous request's word.
pub(crate) trait Words {
    /// The bitmaps of word `w`.
    fn word(&mut self, w: usize) -> BlockBitmaps;
}

impl Words for Cursor<'_> {
    #[inline]
    fn word(&mut self, w: usize) -> BlockBitmaps {
        Cursor::word(self, w)
    }
}

/// Prebuilt lanes walked directly, remembering how far the walk reached so
/// that [`Cursor::absorb`] can account for it afterwards.
pub(crate) struct Lanes<'a> {
    pre: &'a [BlockBitmaps],
    /// One past the furthest word read (the cursor's `words_classified`
    /// once absorbed).
    reached: usize,
}

impl Words for Lanes<'_> {
    #[inline]
    fn word(&mut self, w: usize) -> BlockBitmaps {
        debug_assert!(w + 1 >= self.reached, "lane walk went back to word {w}");
        self.reached = w + 1;
        self.pre[w]
    }
}

/// Runs `$body` with `$src` bound to the fastest [`Words`] source the
/// cursor `$cur` allows: its prebuilt lanes walked directly when no
/// validator needs the words, else the cursor itself. The body is compiled
/// once per source, and must reach the words only through `$src`.
macro_rules! with_words {
    ($cur:expr, |$src:ident| $body:expr) => {
        match $cur.lanes() {
            Some(mut lanes) => {
                let $src = &mut lanes;
                let out = $body;
                $cur.absorb(lanes);
                out
            }
            None => {
                let $src = &mut *$cur;
                $body
            }
        }
    };
}
pub(crate) use with_words;

/// Scans forward from byte `from` of a `len`-byte input for the first
/// position whose `stop` bit is set, also counting the `count` bits passed
/// before it. Returns `(None, _)` at the end of the input; a `from` at or
/// past the end reads no word at all.
#[inline]
pub(crate) fn scan<W: Words>(
    src: &mut W,
    from: usize,
    len: usize,
    stop: impl Fn(&BlockBitmaps) -> u64,
    count: impl Fn(&BlockBitmaps) -> u64,
) -> (Option<usize>, usize) {
    if from >= len {
        return (None, 0);
    }
    let words = len.div_ceil(BLOCK);
    let mut w = from / BLOCK;
    let mut mask = !bits::mask_below((from % BLOCK) as u32);
    let mut counted = 0usize;
    while w < words {
        let bm = src.word(w);
        let hits = stop(&bm) & mask;
        if hits != 0 {
            let bit = hits.trailing_zeros();
            counted += (count(&bm) & mask & bits::mask_below(bit)).count_ones() as usize;
            return (Some(w * BLOCK + bit as usize), counted);
        }
        counted += (count(&bm) & mask).count_ones() as usize;
        mask = u64::MAX;
        w += 1;
    }
    (None, counted)
}

/// Counting-based pairing over a word source: from byte `from` with `depth`
/// unpaired openers, the position of the closer that brings the depth to
/// zero. `pair` selects the `(opener, closer)` lanes. `None` when the input
/// ends first; a `from` at or past the end reads no word.
#[inline]
pub(crate) fn find_close<W: Words>(
    src: &mut W,
    from: usize,
    len: usize,
    depth: u32,
    pair: impl Fn(&BlockBitmaps) -> (u64, u64),
) -> Option<usize> {
    if from >= len {
        return None;
    }
    let words = len.div_ceil(BLOCK);
    let mut w = from / BLOCK;
    let mut mask = !bits::mask_below((from % BLOCK) as u32);
    let mut depth = depth;
    while w < words {
        let (opens, closes) = pair(&src.word(w));
        let (opens, closes) = (opens & mask, closes & mask);
        if let Some(bit) = find_depth_zero(opens, closes, depth) {
            return Some(w * BLOCK + bit as usize);
        }
        depth = depth + opens.count_ones() - closes.count_ones();
        mask = u64::MAX;
        w += 1;
    }
    None
}

/// Finds the first bit position where the running nesting depth (starting at
/// `depth`, +1 per `opens` bit, −1 per `closes` bit, in position order)
/// reaches zero, i.e. the word-local formulation of the paper's
/// counting-based pairing: the `k`-th closer at position `p` ends the
/// container iff `k == depth + popcount(opens below p)`.
///
/// A word with fewer than `depth` closers cannot end the container, so most
/// words cost one popcount. Otherwise the first `depth - 1` closers are
/// dropped unexamined (each can pair at most `k < depth`), and each
/// remaining closer costs one popcount and one compare.
#[inline]
pub(crate) fn find_depth_zero(opens: u64, closes: u64, depth: u32) -> Option<u32> {
    if closes.count_ones() < depth {
        return None;
    }
    let mut c = closes;
    for _ in 1..depth {
        c &= c - 1;
    }
    // `j` counts the closers examined beyond the first `depth - 1`: the
    // closer ends the container iff exactly `j` openers precede it.
    let mut j = 0u32;
    while c != 0 {
        let below = c.wrapping_sub(1) & !c;
        if (opens & below).count_ones() == j {
            return Some(c.trailing_zeros());
        }
        c &= c - 1;
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_depth_zero_orders_bits() {
        // word: } {   (close before open), depth 1 -> ends at bit 0
        let opens = 0b10;
        let closes = 0b01;
        assert_eq!(find_depth_zero(opens, closes, 1), Some(0));
        // word: { } } , depth 1: bit1 close pairs the bit0 open; bit2 ends.
        let opens = 0b001;
        let closes = 0b110;
        assert_eq!(find_depth_zero(opens, closes, 1), Some(2));
        // depth 2: first close pairs inner, second pairs the outer-of-two.
        assert_eq!(find_depth_zero(0, 0b11, 2), Some(1));
        // not found
        assert_eq!(find_depth_zero(0b1, 0b10, 2), None);
        assert_eq!(find_depth_zero(0, 0, 1), None);
    }

    #[test]
    fn next_pos_where_scans_across_words() {
        let mut v = vec![b' '; 100];
        v[80] = b',';
        let mut cur = Cursor::new(&v);
        assert_eq!(cur.next_pos_where(0, |b| b.comma), Some(80));
        assert_eq!(cur.next_pos_where(81, |b| b.comma), None);
    }

    #[test]
    fn next_pos_where_respects_from_within_word() {
        let v = b",    ,   ".to_vec();
        let mut cur = Cursor::new(&v);
        assert_eq!(cur.next_pos_where(0, |b| b.comma), Some(0));
        assert_eq!(cur.next_pos_where(1, |b| b.comma), Some(5));
        assert_eq!(cur.next_pos_where(6, |b| b.comma), None);
    }

    #[test]
    fn next_pos_where_ignores_string_contents() {
        let v = br#"  "a,b" , "#.to_vec();
        let mut cur = Cursor::new(&v);
        assert_eq!(cur.next_pos_where(0, |b| b.comma), Some(8));
    }

    #[test]
    fn seek_container_end_simple() {
        let v = br#"{"a": {"b": 1}, "c": [2, {"d": 3}]}"#.to_vec();
        let mut cur = Cursor::new(&v);
        cur.set_pos(1); // just after the outer '{'
        let end = cur.seek_container_end(b'{', b'}', 1).unwrap();
        assert_eq!(end, v.len() - 1);
        assert_eq!(v[end], b'}');
    }

    #[test]
    fn seek_container_end_nested_and_strings() {
        let v = br#"{"a": "}}}", "b": {"x": "{"}}   tail"#.to_vec();
        let mut cur = Cursor::new(&v);
        cur.set_pos(1);
        let end = cur.seek_container_end(b'{', b'}', 1).unwrap();
        assert_eq!(v[end], b'}');
        assert_eq!(&v[end + 1..end + 4], b"   ");
    }

    #[test]
    fn seek_container_end_across_words() {
        let mut v = b"{".to_vec();
        for _ in 0..40 {
            v.extend_from_slice(br#""key": {"deep": [1, 2, 3]}, "#);
        }
        v.extend_from_slice(br#""last": 0}"#);
        let mut cur = Cursor::new(&v);
        cur.set_pos(1);
        let end = cur.seek_container_end(b'{', b'}', 1).unwrap();
        assert_eq!(end, v.len() - 1);
    }

    #[test]
    fn seek_container_end_unbalanced_errors() {
        let v = br#"{"a": {"b": 1}"#.to_vec();
        let mut cur = Cursor::new(&v);
        cur.set_pos(1);
        assert_eq!(
            cur.seek_container_end(b'{', b'}', 1),
            Err(StreamError::Unbalanced { pos: v.len() })
        );
    }

    #[test]
    fn brackets_pair_independently_of_braces() {
        let v = br#"[{"a": [1, 2]}, {"b": 3}] ,"#.to_vec();
        let mut cur = Cursor::new(&v);
        cur.set_pos(1);
        let end = cur.seek_container_end(b'[', b']', 1).unwrap();
        assert_eq!(v[end], b']');
        assert_eq!(end, 24);
    }

    #[test]
    fn read_string_returns_span() {
        let v = br#"   "hello" : 1"#.to_vec();
        let mut cur = Cursor::new(&v);
        let (s, e) = cur.read_string().unwrap();
        assert_eq!(&v[s..e], b"hello");
        assert_eq!(cur.pos(), e + 1);
    }

    #[test]
    fn read_string_with_escaped_quote() {
        let v = br#""he\"llo" next"#.to_vec();
        let mut cur = Cursor::new(&v);
        let (s, e) = cur.read_string().unwrap();
        assert_eq!(&v[s..e], br#"he\"llo"#);
    }

    #[test]
    fn read_string_rejects_non_string() {
        let v = b"123".to_vec();
        let mut cur = Cursor::new(&v);
        assert!(matches!(
            cur.read_string(),
            Err(StreamError::Unexpected { .. })
        ));
    }

    #[test]
    fn expect_and_peek_token() {
        let v = b"  { }".to_vec();
        let mut cur = Cursor::new(&v);
        cur.expect(b'{', "`{`").unwrap();
        assert_eq!(cur.peek_token("token").unwrap(), b'}');
        cur.expect(b'}', "`}`").unwrap();
        assert!(cur.expect(b',', "`,`").is_err());
    }

    #[test]
    fn string_state_is_continuous_across_fast_words() {
        // A long string spanning several words; the comma inside it must be
        // masked even when we query a later word first (forcing sequential
        // classification underneath).
        let mut v = b"\"".to_vec();
        v.extend(std::iter::repeat_n(b'x', 70));
        v.extend_from_slice(b",\"");
        v.extend_from_slice(b" , done");
        let mut cur = Cursor::new(&v);
        let p = cur.next_pos_where(0, |b| b.comma).unwrap();
        assert_eq!(v[p], b',');
        assert_eq!(p, 74); // the comma outside the string
    }

    #[test]
    fn find_depth_zero_early_out_and_full_word() {
        // Fewer closers than the depth: no search.
        assert_eq!(find_depth_zero(0, 0b111, 4), None);
        // 64 closers close depth 64 at the last bit.
        assert_eq!(find_depth_zero(0, u64::MAX, 64), Some(63));
        // An opener before the depth-th closer defers the end by one.
        assert_eq!(find_depth_zero(0b001, 0b1110, 2), Some(3));
    }

    #[test]
    fn prebuilt_jump_and_lane_walk_keep_words_classified() {
        let mut v = b"[".to_vec();
        v.extend(std::iter::repeat_n(b' ', 300));
        v.extend_from_slice(b"]  ");
        let mut pre = Vec::new();
        simdbits::classify_stream(&mut Classifier::new(), &v, |_, bm| pre.push(bm));
        let mut cur = Cursor::with_prebuilt(&v, &pre, None, ValidationMode::Permissive);
        assert_eq!(cur.word(3), pre[3]);
        assert_eq!(cur.words_classified(), 4);
        let mut live = Cursor::new(&v);
        assert_eq!(live.word(3), pre[3]);
        assert_eq!(live.words_classified(), 4);
        for c in [&mut cur, &mut live] {
            c.set_pos(200);
            assert_eq!(c.seek_container_end(b'[', b']', 1), Ok(301));
            assert_eq!(c.words_classified(), 5);
        }
    }

    #[test]
    #[should_panic(expected = "discarded")]
    fn rewinding_words_panics() {
        let v = vec![b' '; 300];
        let mut cur = Cursor::new(&v);
        cur.word(3);
        cur.word(1);
    }
}

/// Property tests pinning the pairing primitives to scalar models.
#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    /// Character-at-a-time depth model of [`find_depth_zero`].
    fn depth_model(opens: u64, closes: u64, depth: u32) -> Option<u32> {
        let mut depth = i64::from(depth);
        for p in 0..64 {
            if opens >> p & 1 == 1 {
                depth += 1;
            } else if closes >> p & 1 == 1 {
                depth -= 1;
                if depth == 0 {
                    return Some(p);
                }
            }
        }
        None
    }

    /// A random word of disjoint opener and closer bits, dense or sparse.
    fn pair_word() -> BoxedStrategy<(u64, u64)> {
        (any::<u64>(), any::<u64>(), any::<u64>(), 0u32..3)
            .prop_map(|(a, b, keep, sparsity)| {
                let keep = match sparsity {
                    0 => u64::MAX,
                    1 => keep,
                    _ => keep & keep.rotate_left(17) & keep.rotate_left(41),
                };
                (a & !b & keep, b & !a & keep)
            })
            .boxed()
    }

    /// Byte offset just past the container whose opener is `input[open]`,
    /// or `None` if it never closes.
    fn scalar_container_end(input: &[u8], open: usize) -> Option<usize> {
        let mut depth = 0i64;
        let mut in_string = false;
        let mut i = open;
        while i < input.len() {
            let b = input[i];
            if in_string {
                match b {
                    b'\\' => i += 1,
                    b'"' => in_string = false,
                    _ => {}
                }
            } else {
                match b {
                    b'"' => in_string = true,
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(i + 1);
                        }
                    }
                    _ => {}
                }
            }
            i += 1;
        }
        None
    }

    /// Random nested JSON whose strings hold brackets, braces and escapes.
    fn json_value(depth: u32) -> BoxedStrategy<String> {
        let string = prop::collection::vec(
            prop_oneof![
                Just("x"),
                Just("{"),
                Just("}"),
                Just("["),
                Just("]"),
                Just("\\\""),
                Just("\\\\"),
                Just(", "),
            ],
            0..8,
        )
        .prop_map(|parts| format!("\"{}\"", parts.concat()));
        let scalar = prop_oneof![
            Just("null".to_string()),
            (-999i64..999).prop_map(|n| n.to_string()),
            string,
        ];
        scalar
            .prop_recursive(depth, 64, 6, |inner| {
                prop_oneof![
                    prop::collection::vec(inner.clone(), 0..6)
                        .prop_map(|vs| format!("[{}]", vs.join(", "))),
                    prop::collection::btree_map("[a-d]{1,3}", inner, 0..6).prop_map(|m| {
                        let fields: Vec<String> = m
                            .into_iter()
                            .map(|(k, v)| format!("\"{k}\": {v}"))
                            .collect();
                        format!("{{{}}}", fields.join(", "))
                    }),
                ]
            })
            .boxed()
    }

    /// Documents for the window tests: a root array of nested values and
    /// long strings (brackets, braces and escaped quotes inside strings
    /// straddle word and window boundaries), from empty to past three
    /// windows, optionally cut short to end mid-value.
    fn window_doc() -> BoxedStrategy<Vec<u8>> {
        let long_string = prop::collection::vec(
            prop_oneof![
                Just("x"),
                Just("{["),
                Just("]}"),
                Just("\\\""),
                Just("\\\\")
            ],
            0..200,
        )
        .prop_map(|parts| format!("\"{}\"", parts.concat()));
        let value = prop_oneof![3 => json_value(4), 1 => long_string];
        (
            prop::collection::vec(value, 0..40),
            0usize..4,
            0usize..BLOCK,
        )
            .prop_map(|(values, shape, cut)| {
                let text = match shape {
                    0 => String::new(),
                    _ => format!("[{}]", values.join(", ")),
                };
                let mut bytes = text.into_bytes();
                // Lengths span 0–3 windows plus a short tail.
                bytes.truncate(3 * WINDOW * BLOCK + BLOCK);
                if shape == 3 {
                    bytes.truncate(bytes.len().saturating_sub(cut));
                }
                bytes
            })
            .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn find_depth_zero_matches_depth_model(word in pair_word(), depth in 1u32..70) {
            let (opens, closes) = word;
            prop_assert_eq!(
                find_depth_zero(opens, closes, depth),
                depth_model(opens, closes, depth),
                "opens {:#x} closes {:#x} depth {}", opens, closes, depth
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn lane_pairing_matches_depth_model(
            words in prop::collection::vec(pair_word(), 1..6),
            from in 0usize..384,
            depth in 1u32..8,
            cut in 0usize..64,
        ) {
            let len = (words.len() * BLOCK).saturating_sub(cut).max(1);
            let mut pre: Vec<BlockBitmaps> = words[..len.div_ceil(BLOCK)]
                .iter()
                .map(|&(lbrace, rbrace)| BlockBitmaps { lbrace, rbrace, ..Default::default() })
                .collect();
            // Like real lanes, the tail word has no bits past the input.
            let tail = pre.last_mut().expect("at least one word");
            let keep = bits::mask_below((len - (len - 1) / BLOCK * BLOCK) as u32);
            tail.lbrace &= keep;
            tail.rbrace &= keep;
            let pre = &pre[..];
            // The model walks the same bits one position at a time.
            let bit = |lane: fn(&BlockBitmaps) -> u64, p: usize| {
                lane(&pre[p / BLOCK]) >> (p % BLOCK) & 1 == 1
            };
            let mut d = i64::from(depth);
            let mut want = None;
            for p in from..len {
                if bit(|b| b.lbrace, p) {
                    d += 1;
                } else if bit(|b| b.rbrace, p) {
                    d -= 1;
                    if d == 0 {
                        want = Some(p);
                        break;
                    }
                }
            }
            let mut lanes = Lanes { pre, reached: 0 };
            let got = find_close(&mut lanes, from, len, depth, BlockBitmaps::braces);
            prop_assert_eq!(got, want);
            // The walk reads exactly the words up to the one it stopped in.
            let reached = match (got, from < len) {
                (Some(p), _) => p / BLOCK + 1,
                (None, true) => pre.len(),
                (None, false) => 0,
            };
            prop_assert_eq!(lanes.reached, reached);
        }

        #[test]
        fn live_window_and_prebuilt_cursors_agree(
            doc in window_doc(),
            ops in prop::collection::vec((0u8..2, 0usize..1200, 0u8..4, 1u32..3), 1..12),
        ) {
            // Random skips move the position up to ~19 words at a time,
            // so scans start inside, at the edge of and past the window.
            let bytes = &doc[..];
            let len = bytes.len();
            let mut pre = Vec::new();
            simdbits::classify_stream(&mut Classifier::new(), bytes, |_, bm| pre.push(bm));
            let mut live = Cursor::new(bytes);
            let mut built = Cursor::with_prebuilt(bytes, &pre, None, ValidationMode::Permissive);
            prop_assert!(built.uses_prebuilt());
            for (kind, skip, sel, depth) in ops {
                let from = live.pos() + skip;
                let got = if kind == 0 {
                    let lane = match sel {
                        0 => |b: &BlockBitmaps| b.comma,
                        1 => |b: &BlockBitmaps| b.quote,
                        2 => |b: &BlockBitmaps| b.colon,
                        _ => |b: &BlockBitmaps| b.closers(),
                    };
                    let a = live.next_pos_where(from, lane);
                    prop_assert_eq!(a, built.next_pos_where(from, lane), "next_pos_where from {}", from);
                    a.ok_or(StreamError::Unbalanced { pos: len })
                } else {
                    let (open, close) = if sel % 2 == 0 { (b'{', b'}') } else { (b'[', b']') };
                    live.set_pos(from);
                    built.set_pos(from);
                    let a = live.seek_container_end(open, close, depth);
                    prop_assert_eq!(&a, &built.seek_container_end(open, close, depth), "seek from {}", from);
                    a
                };
                prop_assert_eq!(live.pos(), built.pos());
                prop_assert_eq!(live.words_classified(), built.words_classified(), "len {}", len);
                // A failed scan read to the end: the words behind are gone.
                let Ok(p) = got else { break };
                live.set_pos(p + 1);
                built.set_pos(p + 1);
            }
        }

        #[test]
        fn live_prebuilt_and_strict_pairing_agree(
            doc in json_value(5),
            pad in 0usize..130,
            cut in 0usize..4,
        ) {
            // Leading padding moves the container across word boundaries;
            // a `cut` of 1..=3 truncates it to exercise the imbalance error.
            let text = format!("{}{doc}  ", " ".repeat(pad));
            let first = text.as_bytes()[pad];
            if first != b'{' && first != b'[' {
                return Ok(());
            }
            let len = if cut == 0 { text.len() } else { (pad + 1).max(text.len() - 2 - cut) };
            let bytes = &text.as_bytes()[..len];
            let close = if first == b'{' { b'}' } else { b']' };
            let want = scalar_container_end(bytes, pad)
                .map(|end| end - 1)
                .ok_or(StreamError::Unbalanced { pos: len });
            let mut pre = Vec::new();
            simdbits::classify_stream(&mut Classifier::new(), bytes, |_, bm| pre.push(bm));
            let cursors = [
                ("live", Cursor::new(bytes)),
                ("prebuilt", Cursor::with_prebuilt(bytes, &pre, None, ValidationMode::Permissive)),
                ("strict", Cursor::with_options(bytes, None, ValidationMode::Strict)),
                ("prebuilt strict", Cursor::with_prebuilt(bytes, &pre, None, ValidationMode::Strict)),
            ];
            let mut words = None;
            for (name, mut cur) in cursors {
                cur.set_pos(pad + 1);
                let got = cur.seek_container_end(first, close, 1);
                prop_assert_eq!(&got, &want, "{}: {:?}", name, text);
                let w = cur.words_classified();
                prop_assert_eq!(*words.get_or_insert(w), w, "{}: words_classified", name);
            }
        }
    }
}
