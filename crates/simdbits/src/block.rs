//! Streaming block classification: raw kernels + string masking + padding.
//!
//! The classifier is fused per kernel: the raw compares, escape detection,
//! prefix XOR and string masking of a batch of blocks run in one
//! `#[target_feature]` region, chosen once per batch.

use crate::bits::prefix_xor;
use crate::kernels::{best_kernel, classify_scalar, classify_swar, Kernel, RawBitmaps};
#[cfg(target_arch = "x86_64")]
use crate::kernels::{classify_avx2, classify_avx512, classify_sse2, clmul_prefix_xor};
use crate::string_mask::StringState;
use crate::BLOCK;

/// Blocks per [`Classifier::classify_many`] call in [`classify_stream`].
const BATCH: usize = 16;

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
        let mut out = [BlockBitmaps::default()];
        self.classify_many(std::slice::from_ref(block), &mut out);
        out[0]
    }

    /// Classifies the next `blocks.len()` blocks of the stream into `out`,
    /// exactly as that many [`classify`](Self::classify) calls would. The
    /// kernel is chosen once per call, and each block's compares, escape
    /// detection, prefix XOR and masking run in one `#[target_feature]`
    /// region, so one block's serial string-state chain overlaps the next
    /// block's compares.
    ///
    /// ```
    /// use simdbits::{BlockBitmaps, Classifier, BLOCK};
    /// let blocks = [[b','; BLOCK]; 3];
    /// let mut out = [BlockBitmaps::default(); 3];
    /// Classifier::new().classify_many(&blocks, &mut out);
    /// assert!(out.iter().all(|bm| bm.comma == u64::MAX));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != blocks.len()`.
    #[inline]
    pub fn classify_many(&mut self, blocks: &[[u8; BLOCK]], out: &mut [BlockBitmaps]) {
        assert_eq!(blocks.len(), out.len(), "one output slot per block");
        let strings = &mut self.strings;
        match self.kernel {
            Kernel::Scalar => fused(strings, blocks, out, classify_scalar, prefix_xor),
            Kernel::Swar => fused(strings, blocks, out, classify_swar, prefix_xor),
            // SAFETY (x86 arms): `with_kernel` asserted that the CPU
            // supports the kernel, which includes PCLMULQDQ.
            #[cfg(target_arch = "x86_64")]
            Kernel::Sse2 => unsafe { fused_sse2(strings, blocks, out) },
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => unsafe { fused_avx2(strings, blocks, out) },
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => unsafe { fused_avx512(strings, blocks, out) },
        }
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

    /// Whether the classified stream currently ends inside a string literal.
    pub fn in_string(&self) -> bool {
        self.strings.in_string()
    }

    /// Resets all cross-block state (for reuse on a new stream).
    pub fn reset(&mut self) {
        self.strings.reset();
    }
}

/// The body shared by every kernel's fused region: one block at a time,
/// raw compares, then the string state step with `prefix_xor`, then the
/// masking. Inlined into each caller, so in an x86 region the kernel and
/// the carry-less multiply inline with it.
#[inline(always)]
fn fused(
    strings: &mut StringState,
    blocks: &[[u8; BLOCK]],
    out: &mut [BlockBitmaps],
    kernel: impl Fn(&[u8; BLOCK]) -> RawBitmaps,
    prefix_xor: impl Fn(u64) -> u64 + Copy,
) {
    for (block, slot) in blocks.iter().zip(out) {
        let raw = kernel(block);
        let (string_mask, real_quotes) = strings.step_with(raw.quote, raw.backslash, prefix_xor);
        let keep = !string_mask;
        *slot = BlockBitmaps {
            lbrace: raw.lbrace & keep,
            rbrace: raw.rbrace & keep,
            lbracket: raw.lbracket & keep,
            rbracket: raw.rbracket & keep,
            colon: raw.colon & keep,
            comma: raw.comma & keep,
            quote: real_quotes,
            string_mask,
        };
    }
}

/// Stamps out one x86 kernel's fused region: [`fused`] with the kernel's
/// compares and the carry-less-multiply prefix XOR, under the kernel's
/// target feature plus PCLMULQDQ.
macro_rules! fused_x86 {
    ($name:ident, $feature:literal, $kernel:ident) => {
        /// [`fused`] under this kernel's target features.
        ///
        /// # Safety
        ///
        /// The CPU must support the kernel's feature and PCLMULQDQ.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $feature, enable = "pclmulqdq")]
        unsafe fn $name(
            strings: &mut StringState,
            blocks: &[[u8; BLOCK]],
            out: &mut [BlockBitmaps],
        ) {
            // SAFETY: this function's own target features cover both callees.
            fused(
                strings,
                blocks,
                out,
                |block| unsafe { $kernel(block) },
                |x| unsafe { clmul_prefix_xor(x) },
            )
        }
    };
}
fused_x86!(fused_sse2, "sse2", classify_sse2);
fused_x86!(fused_avx2, "avx2", classify_avx2);
fused_x86!(fused_avx512, "avx512bw", classify_avx512);

/// Classifies every word of `input` in order, calling `f(word_index,
/// bitmaps)` for each. Full words are classified in place (no copy), in
/// batches through [`Classifier::classify_many`]; only the final short
/// word is zero-padded. This is the preferred whole-stream driver for
/// index builders.
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
    let (blocks, tail) = input.as_chunks::<BLOCK>();
    let mut out = [BlockBitmaps::default(); BATCH];
    let mut w = 0usize;
    for batch in blocks.chunks(BATCH) {
        let out = &mut out[..batch.len()];
        cls.classify_many(batch, out);
        for &bm in out.iter() {
            f(w, bm);
            w += 1;
        }
    }
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
