//! Streaming block classification: raw kernels + string masking + padding.

use crate::kernels::{best_kernel, Kernel, RawBitmaps};
use crate::string_mask::StringState;
use crate::BLOCK;

/// Structural bitmaps for one 64-byte block, with in-string
/// pseudo-metacharacters already removed (paper Algorithm 3, lines 16-20).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockBitmaps {
    /// `{` outside strings.
    pub lbrace: u64,
    /// `}` outside strings.
    pub rbrace: u64,
    /// `[` outside strings.
    pub lbracket: u64,
    /// `]` outside strings.
    pub rbracket: u64,
    /// `:` outside strings.
    pub colon: u64,
    /// `,` outside strings.
    pub comma: u64,
    /// Unescaped `"` characters (both string delimiters).
    pub quote: u64,
    /// Bytes inside string literals (opening quote incl., closing excl.).
    pub string_mask: u64,
}

impl BlockBitmaps {
    /// Size of one serialized block: eight little-endian `u64` lanes.
    pub const WIRE_BYTES: usize = 64;

    /// Serializes the bitmaps to their on-disk wire form: the eight lanes
    /// as little-endian `u64`s, in declaration order (`lbrace`, `rbrace`,
    /// `lbracket`, `rbracket`, `colon`, `comma`, `quote`, `string_mask`).
    /// The layout is versioned by the containing file format (a persistent
    /// index bumps its magic when this changes), not self-describing.
    #[inline]
    pub fn to_wire(&self) -> [u8; Self::WIRE_BYTES] {
        let mut out = [0u8; Self::WIRE_BYTES];
        for (i, lane) in self.lanes().into_iter().enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&lane.to_le_bytes());
        }
        out
    }

    /// Deserializes bitmaps previously produced by [`to_wire`]. Total — any
    /// 64 bytes decode to *some* bitmaps, so integrity must come from the
    /// containing format's checksums.
    ///
    /// [`to_wire`]: Self::to_wire
    #[inline]
    pub fn from_wire(wire: &[u8; Self::WIRE_BYTES]) -> Self {
        let lane =
            |i: usize| u64::from_le_bytes(wire[i * 8..i * 8 + 8].try_into().expect("8-byte lane"));
        BlockBitmaps {
            lbrace: lane(0),
            rbrace: lane(1),
            lbracket: lane(2),
            rbracket: lane(3),
            colon: lane(4),
            comma: lane(5),
            quote: lane(6),
            string_mask: lane(7),
        }
    }

    #[inline]
    fn lanes(&self) -> [u64; 8] {
        [
            self.lbrace,
            self.rbrace,
            self.lbracket,
            self.rbracket,
            self.colon,
            self.comma,
            self.quote,
            self.string_mask,
        ]
    }

    /// The `(opener, closer)` lanes of `{}`. Pairing scans take this (or
    /// [`brackets`](Self::brackets)) as a lane selector chosen once per
    /// scan, so their loop reads two lanes per word with no dispatch.
    #[inline]
    pub fn braces(&self) -> (u64, u64) {
        (self.lbrace, self.rbrace)
    }

    /// The `(opener, closer)` lanes of `[]`; see [`braces`](Self::braces).
    #[inline]
    pub fn brackets(&self) -> (u64, u64) {
        (self.lbracket, self.rbracket)
    }

    /// Union of `{` and `[` (any opener), used by the enhanced G1 functions.
    #[inline]
    pub fn openers(&self) -> u64 {
        self.lbrace | self.lbracket
    }

    /// Union of `}` and `]` (any closer).
    #[inline]
    pub fn closers(&self) -> u64 {
        self.rbrace | self.rbracket
    }
}

/// Stateful block classifier: applies a [`Kernel`] and carries string state
/// across blocks.
///
/// # Example
///
/// ```
/// use simdbits::{Classifier, BLOCK};
/// let mut cls = Classifier::new();
/// let mut block = [b' '; BLOCK];
/// block[..13].copy_from_slice(br#"{"a": [1, 2]}"#);
/// let bm = cls.classify(&block);
/// assert_eq!(bm.comma.count_ones(), 1);
/// assert_eq!(bm.colon.count_ones(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Classifier {
    kernel: Kernel,
    strings: StringState,
}

impl Default for Classifier {
    fn default() -> Self {
        Self::new()
    }
}

impl Classifier {
    /// Creates a classifier using the widest kernel this CPU supports, unless
    /// the `JSONSKI_KERNEL` environment variable forces one for differential
    /// verification (see [`crate::forced_kernel`]).
    pub fn new() -> Self {
        Self::with_kernel(crate::forced_kernel().unwrap_or_else(best_kernel))
    }

    /// Creates a classifier pinned to a specific kernel (used by the kernel
    /// benchmarks and the equivalence tests).
    pub fn with_kernel(kernel: Kernel) -> Self {
        assert!(kernel.is_supported(), "kernel {kernel:?} not supported");
        Self {
            kernel,
            strings: StringState::new(),
        }
    }

    /// The kernel in use.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Classifies the next 64-byte block of the stream.
    #[inline]
    pub fn classify(&mut self, block: &[u8; BLOCK]) -> BlockBitmaps {
        let raw = self.kernel.classify(block);
        self.masked(raw)
    }

    /// Classifies a possibly-short tail block by zero-padding to 64 bytes.
    ///
    /// # Panics
    ///
    /// Panics if `tail.len() > BLOCK`.
    #[inline]
    pub fn classify_tail(&mut self, tail: &[u8]) -> BlockBitmaps {
        assert!(tail.len() <= BLOCK);
        let mut block = [0u8; BLOCK];
        block[..tail.len()].copy_from_slice(tail);
        self.classify(&block)
    }

    #[inline]
    fn masked(&mut self, raw: RawBitmaps) -> BlockBitmaps {
        let (string_mask, real_quotes) = self.strings.step(raw.quote, raw.backslash);
        let keep = !string_mask;
        BlockBitmaps {
            lbrace: raw.lbrace & keep,
            rbrace: raw.rbrace & keep,
            lbracket: raw.lbracket & keep,
            rbracket: raw.rbracket & keep,
            colon: raw.colon & keep,
            comma: raw.comma & keep,
            quote: real_quotes,
            string_mask,
        }
    }

    /// Whether the classified stream currently ends inside a string literal.
    pub fn in_string(&self) -> bool {
        self.strings.in_string()
    }

    /// Resets all cross-block state (for reuse on a new stream).
    pub fn reset(&mut self) {
        self.strings.reset();
    }
}

/// Classifies every word of `input` in order, calling `f(word_index,
/// bitmaps)` for each. Full words are classified in place (no copy); only
/// the final short word is zero-padded. This is the preferred whole-stream
/// driver for index builders.
///
/// ```
/// use simdbits::{classify_stream, Classifier};
/// let mut commas = 0;
/// let data = vec![b','; 100];
/// classify_stream(&mut Classifier::new(), &data, |_w, bm| {
///     commas += bm.comma.count_ones();
/// });
/// assert_eq!(commas, 100);
/// ```
#[inline]
pub fn classify_stream(cls: &mut Classifier, input: &[u8], mut f: impl FnMut(usize, BlockBitmaps)) {
    let mut blocks = Blocks::new(input);
    let mut w = 0usize;
    for block in blocks.by_ref() {
        f(w, cls.classify(block));
        w += 1;
    }
    let tail = blocks.remainder();
    if !tail.is_empty() {
        f(w, cls.classify_tail(tail));
    }
}

/// Iterator over the full 64-byte blocks of a byte slice (no padding; the
/// tail shorter than 64 bytes is available via [`Blocks::remainder`]).
#[derive(Clone, Debug)]
pub struct Blocks<'a> {
    data: &'a [u8],
    offset: usize,
}

impl<'a> Blocks<'a> {
    /// Creates a block iterator over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, offset: 0 }
    }

    /// The trailing bytes (fewer than 64) not yielded by the iterator.
    pub fn remainder(&self) -> &'a [u8] {
        let start = self.data.len() - self.data.len() % BLOCK;
        &self.data[start..]
    }
}

impl<'a> Iterator for Blocks<'a> {
    type Item = &'a [u8; BLOCK];

    fn next(&mut self) -> Option<Self::Item> {
        if self.offset + BLOCK <= self.data.len() {
            let block: &[u8; BLOCK] = self.data[self.offset..self.offset + BLOCK]
                .try_into()
                .expect("exact block");
            self.offset += BLOCK;
            Some(block)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.data.len() - self.offset) / BLOCK;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Blocks<'_> {}

/// Iterator yielding every block of a byte slice, zero-padding the final
/// short block, together with the number of valid bytes in it.
#[derive(Clone, Debug)]
pub struct PaddedBlocks<'a> {
    data: &'a [u8],
    offset: usize,
}

impl<'a> PaddedBlocks<'a> {
    /// Creates a padded block iterator over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, offset: 0 }
    }
}

impl Iterator for PaddedBlocks<'_> {
    /// `(block, valid_len)` — `valid_len < BLOCK` only for the final block.
    type Item = ([u8; BLOCK], usize);

    fn next(&mut self) -> Option<Self::Item> {
        if self.offset >= self.data.len() {
            return None;
        }
        let mut block = [0u8; BLOCK];
        let n = (self.data.len() - self.offset).min(BLOCK);
        block[..n].copy_from_slice(&self.data[self.offset..self.offset + n]);
        self.offset += n;
        Some((block, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structural_lookup_covers_all_metachars() {
        let bm = BlockBitmaps {
            lbrace: 1,
            rbrace: 2,
            lbracket: 4,
            rbracket: 8,
            colon: 16,
            comma: 32,
            ..Default::default()
        };
        assert_eq!(bm.braces(), (1, 2));
        assert_eq!(bm.brackets(), (4, 8));
        assert_eq!(bm.openers(), 5);
        assert_eq!(bm.closers(), 10);
    }

    #[test]
    fn wire_roundtrip_preserves_every_lane() {
        let bm = BlockBitmaps {
            lbrace: 0x0123_4567_89ab_cdef,
            rbrace: u64::MAX,
            lbracket: 1,
            rbracket: 1 << 63,
            colon: 0xdead_beef,
            comma: 0,
            quote: 0xaaaa_5555_aaaa_5555,
            string_mask: 0x00ff_00ff_00ff_00ff,
        };
        assert_eq!(BlockBitmaps::from_wire(&bm.to_wire()), bm);
    }

    #[test]
    fn wire_format_is_little_endian_in_lane_order() {
        let bm = BlockBitmaps {
            lbrace: 0x0102_0304_0506_0708,
            string_mask: 0x1112_1314_1516_1718,
            ..Default::default()
        };
        let wire = bm.to_wire();
        assert_eq!(wire[0], 0x08); // lbrace, least-significant byte first
        assert_eq!(wire[7], 0x01);
        assert_eq!(wire[56], 0x18); // string_mask is the final lane
        assert_eq!(&wire[8..56], &[0u8; 48]); // untouched lanes serialize as zero
    }

    #[test]
    fn blocks_iterator_splits_exactly() {
        let data = vec![b'a'; 200];
        let mut it = Blocks::new(&data);
        assert_eq!(it.len(), 3);
        assert_eq!(it.by_ref().count(), 3);
        assert_eq!(it.remainder().len(), 200 - 192);
    }

    #[test]
    fn padded_blocks_cover_everything() {
        let data = vec![b'x'; 130];
        let blocks: Vec<_> = PaddedBlocks::new(&data).collect();
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0].1, 64);
        assert_eq!(blocks[2].1, 2);
        assert_eq!(blocks[2].0[2], 0); // padded
    }

    #[test]
    fn padded_blocks_empty_input() {
        assert_eq!(PaddedBlocks::new(b"").count(), 0);
    }

    #[test]
    fn classifier_masks_string_contents_across_blocks() {
        let mut json = b"{\"k\": \"".to_vec();
        json.extend(std::iter::repeat_n(b'{', 100)); // braces inside string
        json.extend_from_slice(b"\", \"j\": {}}");
        let mut cls = Classifier::new();
        let mut lbrace_count = 0u32;
        for (block, _) in PaddedBlocks::new(&json) {
            lbrace_count += cls.classify(&block).lbrace.count_ones();
        }
        assert_eq!(lbrace_count, 2); // outer `{` and the `{}` value
    }

    #[test]
    fn classify_tail_pads() {
        let mut cls = Classifier::new();
        let bm = cls.classify_tail(b"[1,2]");
        assert_eq!(bm.comma.count_ones(), 1);
        assert_eq!(bm.lbracket, 1);
        assert_eq!(bm.rbracket, 1 << 4);
    }

    #[test]
    fn all_supported_kernels_agree_through_classifier() {
        let json = br#"{"a": "\\\" {fake}", "b": [1, {"c": 2}], "d": "x"}"#;
        let reference: Vec<_> = {
            let mut c = Classifier::with_kernel(Kernel::Scalar);
            PaddedBlocks::new(json)
                .map(|(b, _)| c.classify(&b))
                .collect()
        };
        for &k in Kernel::all() {
            if !k.is_supported() {
                continue;
            }
            let mut c = Classifier::with_kernel(k);
            let got: Vec<_> = PaddedBlocks::new(json)
                .map(|(b, _)| c.classify(&b))
                .collect();
            assert_eq!(got, reference, "kernel {k:?}");
        }
    }
}
