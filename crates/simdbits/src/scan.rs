//! Byte-class scanning for validation: bracket, quote, backslash, non-ASCII,
//! control and whitespace bitmaps per 64-byte block, plus the positions a
//! UTF-8 check flags.
//!
//! The Strict validation mode (simdjson-style validate-as-you-go, Keiser &
//! Lemire) needs a *second*, independent view of each block: it must not
//! consume the structural classifier's bitmaps, or a classifier bug would be
//! invisible to the validator that is supposed to cross-check it. This module
//! recomputes the byte classes the validator cares about with the same
//! kernel family (scalar reference, portable SWAR, SSE2, AVX2, AVX-512) and
//! is property-tested against the scalar reference like the structural
//! kernels.
//!
//! [`scan_many`] scans a batch of consecutive blocks in one
//! `#[target_feature]` region, as [`Classifier::classify_many`] does for
//! classification. Blocks holding a non-ASCII byte (or following one) also
//! get the Keiser–Lemire three-lookup UTF-8 check ("Validating UTF-8 in
//! less than one instruction per byte"): `pshufb` nibble lookups on AVX2
//! and AVX-512, a table walk over the same lookups on the portable kernels
//! (and under Miri).
//!
//! [`Classifier::classify_many`]: crate::Classifier::classify_many

use crate::{Kernel, BLOCK};

/// Bytes before a block that the UTF-8 check reads (a 4-byte sequence
/// reaches back three bytes).
const LOOKBACK: usize = 3;

/// Byte-class bitmaps for one 64-byte block (bit `i` ↔ byte `i`, LSB-first).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanBitmaps {
    /// Bitmap of `{` bytes.
    pub lbrace: u64,
    /// Bitmap of `}` bytes.
    pub rbrace: u64,
    /// Bitmap of `[` bytes.
    pub lbracket: u64,
    /// Bitmap of `]` bytes.
    pub rbracket: u64,
    /// Bitmap of `"` bytes.
    pub quote: u64,
    /// Bitmap of `\` bytes.
    pub backslash: u64,
    /// Bitmap of non-ASCII bytes (`>= 0x80`), i.e. UTF-8 lead/continuation.
    pub high: u64,
    /// Bitmap of control bytes (`< 0x20`), illegal unescaped inside strings.
    pub control: u64,
    /// Bitmap of JSON whitespace (space, tab, line feed, carriage return).
    pub ws: u64,
    /// Bytes the UTF-8 check flags, given the three bytes before the block
    /// (see [`ScanCarry`]). A flag sits on the byte that completes a bad
    /// pattern, so it can trail the byte a byte-at-a-time decoder rejects
    /// (an invalid lead byte is flagged on the byte after it), and a
    /// sequence still incomplete at the end of the block is not flagged.
    /// Always zero when neither the block nor the three bytes before it
    /// hold a non-ASCII byte.
    pub utf8: u64,
}

impl ScanBitmaps {
    /// Container openers (`{` and `[`).
    #[inline]
    pub fn openers(&self) -> u64 {
        self.lbrace | self.lbracket
    }

    /// Container closers (`}` and `]`).
    #[inline]
    pub fn closers(&self) -> u64 {
        self.rbrace | self.rbracket
    }
}

/// What a scanned block hands to the next one: its last three bytes, which
/// the next block's UTF-8 check reads. The default is a stream start (as if
/// ASCII preceded it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanCarry {
    prev: [u8; LOOKBACK],
}

impl ScanCarry {
    /// Moves the lookback past `bytes` of the stream: for a block of which
    /// only a prefix is input, whose scan must not hand its padding on.
    pub fn advance(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().rev().take(LOOKBACK).rev() {
            self.prev.rotate_left(1);
            self.prev[LOOKBACK - 1] = b;
        }
    }
}

/// Scans one block with the given kernel, as the first block of a stream.
///
/// SIMD kernels fall back to SWAR under Miri (no vendor intrinsics there);
/// all kernels produce identical bitmaps, enforced by property tests.
#[inline]
pub fn scan_block(kernel: Kernel, block: &[u8; BLOCK]) -> ScanBitmaps {
    let mut out = [ScanBitmaps::default()];
    scan_many(
        kernel,
        std::slice::from_ref(block),
        &mut ScanCarry::default(),
        &mut out,
    );
    out[0]
}

/// Scans the next `blocks.len()` consecutive blocks of a stream into `out`,
/// carrying the UTF-8 lookback through `carry`. The kernel is chosen once
/// per call and the whole batch runs in its `#[target_feature]` region.
///
/// # Panics
///
/// Panics if `out.len() != blocks.len()`.
#[inline]
pub fn scan_many(
    kernel: Kernel,
    blocks: &[[u8; BLOCK]],
    carry: &mut ScanCarry,
    out: &mut [ScanBitmaps],
) {
    assert_eq!(blocks.len(), out.len(), "one output slot per block");
    match kernel {
        Kernel::Scalar => scan_with(blocks, carry, out, classes_scalar, utf8_scalar),
        Kernel::Swar => scan_with(blocks, carry, out, classes_swar, utf8_scalar),
        #[cfg(target_arch = "x86_64")]
        #[allow(unused_variables)]
        k @ (Kernel::Sse2 | Kernel::Avx2 | Kernel::Avx512) => {
            #[cfg(not(miri))]
            {
                // SAFETY: an x86 kernel is only chosen on CPUs where its
                // `is_supported()` held (AVX-512BW or AVX2 detected); SSE2
                // is part of the x86_64 baseline.
                unsafe {
                    match k {
                        Kernel::Avx512 => scan_many_avx512(blocks, carry, out),
                        Kernel::Avx2 => scan_many_avx2(blocks, carry, out),
                        _ => scan_many_sse2(blocks, carry, out),
                    }
                };
                return;
            }
            #[allow(unreachable_code)]
            scan_with(blocks, carry, out, classes_swar, utf8_scalar)
        }
    }
}

/// The body of every kernel's batch: byte classes per block, and the UTF-8
/// check on the blocks that hold, or follow, a non-ASCII byte. `utf8`
/// reads the three bytes before the block and the block itself.
#[inline(always)]
fn scan_with(
    blocks: &[[u8; BLOCK]],
    carry: &mut ScanCarry,
    out: &mut [ScanBitmaps],
    classes: impl Fn(&[u8; BLOCK]) -> ScanBitmaps,
    utf8: impl Fn(&[u8; LOOKBACK + BLOCK]) -> u64,
) {
    let flat = blocks.as_flattened();
    let mut first = [0u8; LOOKBACK + BLOCK];
    let mut prev_high = carry.prev.iter().any(|&b| b >= 0x80);
    for (i, (block, slot)) in blocks.iter().zip(out).enumerate() {
        let mut bm = classes(block);
        if bm.high != 0 || prev_high {
            let window: &[u8; LOOKBACK + BLOCK] = if i == 0 {
                first[..LOOKBACK].copy_from_slice(&carry.prev);
                first[LOOKBACK..].copy_from_slice(block);
                &first
            } else {
                let start = i * BLOCK - LOOKBACK;
                flat[start..start + LOOKBACK + BLOCK]
                    .try_into()
                    .expect("a block and its lookback")
            };
            bm.utf8 = utf8(window);
        }
        prev_high = bm.high >> (BLOCK - LOOKBACK) != 0;
        *slot = bm;
    }
    if let Some(last) = blocks.last() {
        carry.prev.copy_from_slice(&last[BLOCK - LOOKBACK..]);
    }
}

/// Byte-at-a-time reference scan (the first block of a stream).
pub fn scan_scalar(block: &[u8; BLOCK]) -> ScanBitmaps {
    scan_block(Kernel::Scalar, block)
}

fn classes_scalar(block: &[u8; BLOCK]) -> ScanBitmaps {
    let mut bm = ScanBitmaps::default();
    for (i, &b) in block.iter().enumerate() {
        let bit = 1u64 << i;
        match b {
            b'{' => bm.lbrace |= bit,
            b'}' => bm.rbrace |= bit,
            b'[' => bm.lbracket |= bit,
            b']' => bm.rbracket |= bit,
            b'"' => bm.quote |= bit,
            b'\\' => bm.backslash |= bit,
            b' ' | b'\t' | b'\n' | b'\r' => bm.ws |= bit,
            _ => {}
        }
        if b >= 0x80 {
            bm.high |= bit;
        }
        if b < 0x20 {
            bm.control |= bit;
        }
    }
    bm
}

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;
const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;

/// Exact zero-byte detector: 0x80 in each lane whose byte is zero (same
/// formulation as the structural SWAR kernel; no borrow false-positives).
#[inline]
fn swar_zero(word: u64) -> u64 {
    let y = (word & LOW7).wrapping_add(LOW7);
    !(y | word | LOW7)
}

/// Compresses 0x80-per-lane indicators of one word into 8 contiguous bits.
///
/// The multiply gathers lane `i`'s indicator into bit `56 + i`: writing the
/// product as Σ b_i·2^(8i+7) · Σ 2^(7j), the terms landing in the top byte
/// are exactly those with i + j = 7. Verified exhaustively over all 256
/// indicator patterns in the tests below.
#[inline]
fn movemask(indicators: u64) -> u64 {
    (indicators & HI).wrapping_mul(0x0002_0408_1020_4081) >> 56
}

fn classes_swar(block: &[u8; BLOCK]) -> ScanBitmaps {
    #[inline]
    fn eq(word: u64, needle: u8) -> u64 {
        swar_zero(word ^ LO.wrapping_mul(needle as u64))
    }
    let mut bm = ScanBitmaps::default();
    for i in 0..8 {
        let word = u64::from_le_bytes(block[i * 8..i * 8 + 8].try_into().unwrap());
        let shift = i * 8;
        bm.lbrace |= movemask(eq(word, b'{')) << shift;
        bm.rbrace |= movemask(eq(word, b'}')) << shift;
        bm.lbracket |= movemask(eq(word, b'[')) << shift;
        bm.rbracket |= movemask(eq(word, b']')) << shift;
        bm.quote |= movemask(eq(word, b'"')) << shift;
        bm.backslash |= movemask(eq(word, b'\\')) << shift;
        let ws = eq(word, b' ') | eq(word, b'\t') | eq(word, b'\n') | eq(word, b'\r');
        bm.ws |= movemask(ws) << shift;
        // Non-ASCII: the sign bit of each lane, already an 0x80 indicator.
        bm.high |= movemask(word & HI) << shift;
        // Control (< 0x20): the top three bits of the lane are all zero.
        bm.control |= movemask(swar_zero(word & 0xE0E0_E0E0_E0E0_E0E0)) << shift;
    }
    bm
}

// The Keiser–Lemire lookup tables. Each names the error patterns a byte
// pair can still complete given one nibble: the high nibble of the first
// byte, its low nibble, and the high nibble of the second byte. A pair is
// bad where all three agree on some pattern.
const TOO_SHORT: u8 = 1 << 0; // lead (or ASCII) not followed by a continuation
const TOO_LONG: u8 = 1 << 1; // ASCII followed by a continuation
const OVERLONG_3: u8 = 1 << 2; // E0 80..9F
const TOO_LARGE: u8 = 1 << 3; // F4 90..BF, F5..FF 90..BF
const SURROGATE: u8 = 1 << 4; // ED A0..BF
const OVERLONG_2: u8 = 1 << 5; // C0..C1 80..BF
const TOO_LARGE_1000: u8 = 1 << 6; // F5..FF 80..8F
const OVERLONG_4: u8 = 1 << 6; // F0 80..8F
const TWO_CONTS: u8 = 1 << 7; // continuation followed by a continuation
const CARRY: u8 = TOO_SHORT | TOO_LONG | TWO_CONTS;

const BYTE_1_HIGH: [u8; 16] = [
    TOO_LONG,
    TOO_LONG,
    TOO_LONG,
    TOO_LONG,
    TOO_LONG,
    TOO_LONG,
    TOO_LONG,
    TOO_LONG,
    TWO_CONTS,
    TWO_CONTS,
    TWO_CONTS,
    TWO_CONTS,
    TOO_SHORT | OVERLONG_2,
    TOO_SHORT,
    TOO_SHORT | OVERLONG_3 | SURROGATE,
    TOO_SHORT | TOO_LARGE | TOO_LARGE_1000 | OVERLONG_4,
];

const BYTE_1_LOW: [u8; 16] = [
    CARRY | OVERLONG_3 | OVERLONG_2 | OVERLONG_4,
    CARRY | OVERLONG_2,
    CARRY,
    CARRY,
    CARRY | TOO_LARGE,
    CARRY | TOO_LARGE | TOO_LARGE_1000,
    CARRY | TOO_LARGE | TOO_LARGE_1000,
    CARRY | TOO_LARGE | TOO_LARGE_1000,
    CARRY | TOO_LARGE | TOO_LARGE_1000,
    CARRY | TOO_LARGE | TOO_LARGE_1000,
    CARRY | TOO_LARGE | TOO_LARGE_1000,
    CARRY | TOO_LARGE | TOO_LARGE_1000,
    CARRY | TOO_LARGE | TOO_LARGE_1000,
    CARRY | TOO_LARGE | TOO_LARGE_1000 | SURROGATE,
    CARRY | TOO_LARGE | TOO_LARGE_1000,
    CARRY | TOO_LARGE | TOO_LARGE_1000,
];

const BYTE_2_HIGH: [u8; 16] = [
    TOO_SHORT,
    TOO_SHORT,
    TOO_SHORT,
    TOO_SHORT,
    TOO_SHORT,
    TOO_SHORT,
    TOO_SHORT,
    TOO_SHORT,
    TOO_LONG | OVERLONG_2 | TWO_CONTS | OVERLONG_3 | TOO_LARGE_1000 | OVERLONG_4,
    TOO_LONG | OVERLONG_2 | TWO_CONTS | OVERLONG_3 | TOO_LARGE,
    TOO_LONG | OVERLONG_2 | TWO_CONTS | SURROGATE | TOO_LARGE,
    TOO_LONG | OVERLONG_2 | TWO_CONTS | SURROGATE | TOO_LARGE,
    TOO_SHORT,
    TOO_SHORT,
    TOO_SHORT,
    TOO_SHORT,
];

/// The UTF-8 check one byte at a time over the same tables: bit `i` is set
/// when byte `i` of the block (`window[LOOKBACK + i]`) is flagged.
fn utf8_scalar(window: &[u8; LOOKBACK + BLOCK]) -> u64 {
    let mut flags = 0u64;
    for (i, w) in window.windows(LOOKBACK + 1).enumerate() {
        let (p3, p2, p1, b) = (w[0], w[1], w[2], w[3]);
        let special = BYTE_1_HIGH[usize::from(p1 >> 4)]
            & BYTE_1_LOW[usize::from(p1 & 0x0F)]
            & BYTE_2_HIGH[usize::from(b >> 4)];
        // The third or fourth byte of a sequence must be a continuation;
        // `special` reports "two continuations in a row" as TWO_CONTS, so
        // the two must agree.
        let must_continue = if p2 >= 0xE0 || p3 >= 0xF0 { 0x80 } else { 0 };
        if special ^ must_continue != 0 {
            flags |= 1 << i;
        }
    }
    flags
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "sse2")]
#[inline]
unsafe fn classes_sse2(block: &[u8; BLOCK]) -> ScanBitmaps {
    use std::arch::x86_64::*;
    #[inline]
    unsafe fn eq(chunk: std::arch::x86_64::__m128i, c: u8) -> __m128i {
        use std::arch::x86_64::*;
        _mm_cmpeq_epi8(chunk, _mm_set1_epi8(c as i8))
    }
    #[inline]
    unsafe fn bits(v: std::arch::x86_64::__m128i) -> u64 {
        std::arch::x86_64::_mm_movemask_epi8(v) as u32 as u64
    }
    let ptr = block.as_ptr();
    let top3 = _mm_set1_epi8(0xE0u8 as i8);
    let zero = _mm_setzero_si128();
    let mut bm = ScanBitmaps::default();
    for i in 0..4 {
        let chunk = _mm_loadu_si128(ptr.add(i * 16) as *const __m128i);
        let shift = i * 16;
        bm.lbrace |= bits(eq(chunk, b'{')) << shift;
        bm.rbrace |= bits(eq(chunk, b'}')) << shift;
        bm.lbracket |= bits(eq(chunk, b'[')) << shift;
        bm.rbracket |= bits(eq(chunk, b']')) << shift;
        bm.quote |= bits(eq(chunk, b'"')) << shift;
        bm.backslash |= bits(eq(chunk, b'\\')) << shift;
        let ws = _mm_or_si128(
            _mm_or_si128(eq(chunk, b' '), eq(chunk, b'\t')),
            _mm_or_si128(eq(chunk, b'\n'), eq(chunk, b'\r')),
        );
        bm.ws |= bits(ws) << shift;
        // movemask reads the sign bit: exactly the >= 0x80 class.
        bm.high |= bits(chunk) << shift;
        bm.control |= bits(_mm_cmpeq_epi8(_mm_and_si128(chunk, top3), zero)) << shift;
    }
    bm
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn classes_avx2(block: &[u8; BLOCK]) -> ScanBitmaps {
    use std::arch::x86_64::*;
    #[inline]
    unsafe fn eq(chunk: std::arch::x86_64::__m256i, c: u8) -> __m256i {
        use std::arch::x86_64::*;
        _mm256_cmpeq_epi8(chunk, _mm256_set1_epi8(c as i8))
    }
    #[inline]
    unsafe fn bits(v: std::arch::x86_64::__m256i) -> u64 {
        std::arch::x86_64::_mm256_movemask_epi8(v) as u32 as u64
    }
    let ptr = block.as_ptr();
    let top3 = _mm256_set1_epi8(0xE0u8 as i8);
    let zero = _mm256_setzero_si256();
    let mut bm = ScanBitmaps::default();
    for i in 0..2 {
        let chunk = _mm256_loadu_si256(ptr.add(i * 32) as *const __m256i);
        let shift = i * 32;
        bm.lbrace |= bits(eq(chunk, b'{')) << shift;
        bm.rbrace |= bits(eq(chunk, b'}')) << shift;
        bm.lbracket |= bits(eq(chunk, b'[')) << shift;
        bm.rbracket |= bits(eq(chunk, b']')) << shift;
        bm.quote |= bits(eq(chunk, b'"')) << shift;
        bm.backslash |= bits(eq(chunk, b'\\')) << shift;
        let ws = _mm256_or_si256(
            _mm256_or_si256(eq(chunk, b' '), eq(chunk, b'\t')),
            _mm256_or_si256(eq(chunk, b'\n'), eq(chunk, b'\r')),
        );
        bm.ws |= bits(ws) << shift;
        bm.high |= bits(chunk) << shift;
        bm.control |= bits(_mm256_cmpeq_epi8(_mm256_and_si256(chunk, top3), zero)) << shift;
    }
    bm
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx512bw")]
#[inline]
unsafe fn classes_avx512(block: &[u8; BLOCK]) -> ScanBitmaps {
    use std::arch::x86_64::*;
    let v = _mm512_loadu_si512(block.as_ptr() as *const __m512i);
    let eq = |c: u8| _mm512_cmpeq_epi8_mask(v, _mm512_set1_epi8(c as i8));
    ScanBitmaps {
        lbrace: eq(b'{'),
        rbrace: eq(b'}'),
        lbracket: eq(b'['),
        rbracket: eq(b']'),
        quote: eq(b'"'),
        backslash: eq(b'\\'),
        ws: eq(b' ') | eq(b'\t') | eq(b'\n') | eq(b'\r'),
        // The sign bit of each byte: exactly the >= 0x80 class.
        high: _mm512_movepi8_mask(v),
        control: _mm512_cmplt_epu8_mask(v, _mm512_set1_epi8(0x20)),
        utf8: 0,
    }
}

/// The UTF-8 check 32 bytes at a time, with `pshufb` nibble lookups.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn utf8_avx2(window: &[u8; LOOKBACK + BLOCK]) -> u64 {
    use std::arch::x86_64::*;
    let table = |t: &[u8; 16]| _mm256_broadcastsi128_si256(_mm_loadu_si128(t.as_ptr().cast()));
    let (b1h, b1l, b2h) = (table(&BYTE_1_HIGH), table(&BYTE_1_LOW), table(&BYTE_2_HIGH));
    let nibble = _mm256_set1_epi8(0x0F);
    let high_nibble = |v| _mm256_and_si256(_mm256_srli_epi16::<4>(v), nibble);
    let mut flags = 0u64;
    for half in 0..2 {
        // `at(k)` is the 32 bytes starting k bytes before this half.
        let at = |k: usize| {
            _mm256_loadu_si256(
                window
                    .as_ptr()
                    .add(LOOKBACK + half * 32 - k)
                    .cast::<__m256i>(),
            )
        };
        let (cur, p1, p2, p3) = (at(0), at(1), at(2), at(3));
        let special = _mm256_and_si256(
            _mm256_and_si256(
                _mm256_shuffle_epi8(b1h, high_nibble(p1)),
                _mm256_shuffle_epi8(b1l, _mm256_and_si256(p1, nibble)),
            ),
            _mm256_shuffle_epi8(b2h, high_nibble(cur)),
        );
        // Saturating subtraction leaves the sign bit set only for bytes
        // at or above E0 (two back) or F0 (three back).
        let third = _mm256_subs_epu8(p2, _mm256_set1_epi8((0xE0u8 - 0x80) as i8));
        let fourth = _mm256_subs_epu8(p3, _mm256_set1_epi8((0xF0u8 - 0x80) as i8));
        let must = _mm256_and_si256(
            _mm256_or_si256(third, fourth),
            _mm256_set1_epi8(0x80u8 as i8),
        );
        let error = _mm256_xor_si256(must, special);
        let clean = _mm256_movemask_epi8(_mm256_cmpeq_epi8(error, _mm256_setzero_si256()));
        flags |= u64::from(!(clean as u32)) << (half * 32);
    }
    flags
}

/// The UTF-8 check 64 bytes at a time, with in-lane `vpshufb` lookups.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx512bw")]
#[inline]
unsafe fn utf8_avx512(window: &[u8; LOOKBACK + BLOCK]) -> u64 {
    use std::arch::x86_64::*;
    let table = |t: &[u8; 16]| _mm512_broadcast_i32x4(_mm_loadu_si128(t.as_ptr().cast()));
    let nibble = _mm512_set1_epi8(0x0F);
    let high_nibble = |v| _mm512_and_si512(_mm512_srli_epi16::<4>(v), nibble);
    // `at(k)` is the block's 64 bytes starting k bytes before it.
    let at = |k: usize| _mm512_loadu_si512(window.as_ptr().add(LOOKBACK - k).cast::<__m512i>());
    let (cur, p1, p2, p3) = (at(0), at(1), at(2), at(3));
    let special = _mm512_and_si512(
        _mm512_and_si512(
            _mm512_shuffle_epi8(table(&BYTE_1_HIGH), high_nibble(p1)),
            _mm512_shuffle_epi8(table(&BYTE_1_LOW), _mm512_and_si512(p1, nibble)),
        ),
        _mm512_shuffle_epi8(table(&BYTE_2_HIGH), high_nibble(cur)),
    );
    let third = _mm512_subs_epu8(p2, _mm512_set1_epi8((0xE0u8 - 0x80) as i8));
    let fourth = _mm512_subs_epu8(p3, _mm512_set1_epi8((0xF0u8 - 0x80) as i8));
    let must = _mm512_and_si512(
        _mm512_or_si512(third, fourth),
        _mm512_set1_epi8(0x80u8 as i8),
    );
    let error = _mm512_xor_si512(must, special);
    _mm512_test_epi8_mask(error, error)
}

/// Stamps out one x86 kernel's batch region: [`scan_with`] with the
/// kernel's class compares and UTF-8 check, under its target feature.
macro_rules! scan_many_x86 {
    ($name:ident, $feature:literal, $classes:ident, $utf8:expr) => {
        /// [`scan_with`] under this kernel's target feature.
        ///
        /// # Safety
        ///
        /// The CPU must support the kernel's feature.
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        #[target_feature(enable = $feature)]
        unsafe fn $name(blocks: &[[u8; BLOCK]], carry: &mut ScanCarry, out: &mut [ScanBitmaps]) {
            // SAFETY: this function's own target feature covers both callees.
            scan_with(
                blocks,
                carry,
                out,
                |block| unsafe { $classes(block) },
                #[allow(unused_unsafe)]
                |window| unsafe { $utf8(window) },
            )
        }
    };
}
// SSE2 has no byte shuffle (`pshufb` is SSSE3), so its UTF-8 check walks
// the tables like the portable kernels.
scan_many_x86!(scan_many_sse2, "sse2", classes_sse2, utf8_scalar);
scan_many_x86!(scan_many_avx2, "avx2", classes_avx2, utf8_avx2);
scan_many_x86!(scan_many_avx512, "avx512bw", classes_avx512, utf8_avx512);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn movemask_exhaustive() {
        // 8 independent indicator lanes -> 256 patterns covers the multiply
        // completely (carry pollution from colliding partial products would
        // show up here).
        for pattern in 0u64..256 {
            let mut indicators = 0u64;
            for lane in 0..8 {
                if pattern & (1 << lane) != 0 {
                    indicators |= 0x80 << (lane * 8);
                }
            }
            assert_eq!(movemask(indicators), pattern, "pattern {pattern:#x}");
        }
    }

    #[test]
    fn kernels_agree_on_all_single_bytes() {
        for byte in 0u8..=255 {
            let block = [byte; BLOCK];
            let reference = scan_scalar(&block);
            for &k in Kernel::all() {
                if k.is_supported() {
                    assert_eq!(scan_block(k, &block), reference, "byte {byte} kernel {k:?}");
                }
            }
        }
    }

    /// A small deterministic LCG over the full byte range.
    fn lcg_bytes(state: &mut u64, out: &mut [u8]) {
        for b in out {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (*state >> 33) as u8;
        }
    }

    #[test]
    fn kernels_agree_on_random_blocks() {
        let mut state = 0x243F_6A88_85A3_08D3u64;
        for _ in 0..200 {
            let mut block = [0u8; BLOCK];
            lcg_bytes(&mut state, &mut block);
            let reference = scan_scalar(&block);
            for &k in Kernel::all() {
                if k.is_supported() {
                    assert_eq!(scan_block(k, &block), reference, "kernel {k:?}");
                }
            }
        }
    }

    #[test]
    fn batches_carry_the_lookback_like_single_blocks() {
        // Mostly-valid UTF-8 with sequences cut at every block edge: a
        // batch must equal the same blocks scanned one at a time with the
        // carry threaded through.
        let text = "aé€😀".repeat(40);
        let mut bytes = text.into_bytes();
        bytes[77] = 0xFF;
        let (blocks, _) = bytes.as_chunks::<BLOCK>();
        let mut one = ScanCarry::default();
        let reference: Vec<ScanBitmaps> = blocks
            .iter()
            .map(|b| {
                let mut out = [ScanBitmaps::default()];
                scan_many(Kernel::Scalar, std::slice::from_ref(b), &mut one, &mut out);
                out[0]
            })
            .collect();
        assert_ne!(reference[1].utf8, 0, "the bad byte is flagged");
        for &k in Kernel::all() {
            if k.is_supported() {
                let mut out = vec![ScanBitmaps::default(); blocks.len()];
                scan_many(k, blocks, &mut ScanCarry::default(), &mut out);
                assert_eq!(out, reference, "kernel {k:?}");
            }
        }
    }

    /// Byte positions a shortest-form UTF-8 decoder rejects, or where a
    /// sequence still open is cut by a byte that cannot continue it.
    fn decoder_rejects(bytes: &[u8]) -> Vec<usize> {
        let mut bad = Vec::new();
        let mut i = 0;
        while i < bytes.len() {
            match std::str::from_utf8(&bytes[i..]) {
                Ok(_) => break,
                Err(e) => {
                    let at = i + e.valid_up_to();
                    match e.error_len() {
                        Some(n) => {
                            bad.push(at);
                            i = at + n;
                        }
                        None => break,
                    }
                }
            }
        }
        bad
    }

    #[test]
    fn utf8_flags_exactly_the_invalid_blocks() {
        // Each sample sits after some ASCII (so the check's lookback is
        // inside the block) and is followed by ASCII: a block is flagged
        // iff the standard library's decoder rejects it.
        let samples: &[&[u8]] = &[
            b"\xC3\xA9",
            b"\xE2\x82\xAC",
            b"\xF0\x9F\x98\x80",
            b"\xF4\x8F\xBF\xBF",
            b"\xED\x9F\xBF",
            b"\x80",
            b"\xBF",
            b"\xC0\xAF",
            b"\xC1\xBF",
            b"\xE0\x80\xAF",
            b"\xE0\x9F\xBF",
            b"\xED\xA0\x80",
            b"\xF0\x80\x80\xAF",
            b"\xF4\x90\x80\x80",
            b"\xF5\x80\x80\x80",
            b"\xFF",
            b"\xC3",
            b"\xE2\x82",
            b"\xF0\x9F\x98",
            b"\xC3\xA9\xA9",
            b"\xE2\x82\xAC\x80",
        ];
        for sample in samples {
            for at in [1usize, 30, 58] {
                let mut block = [b'a'; BLOCK];
                block[at..at + sample.len()].copy_from_slice(sample);
                let reference = decoder_rejects(&block).is_empty();
                for &k in Kernel::all() {
                    if k.is_supported() {
                        let flags = scan_block(k, &block).utf8;
                        assert_eq!(flags == 0, reference, "{sample:x?} at {at}, kernel {k:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn scalar_classes_are_correct() {
        let mut block = [b'x'; BLOCK];
        block[0] = b'"';
        block[1] = b'\\';
        block[2] = 0x80;
        block[3] = 0xFF;
        block[4] = 0x1F;
        block[5] = 0x00;
        block[6] = 0x20; // space: not a control byte
        block[7] = b'{';
        block[8] = b'}';
        block[9] = b'[';
        block[10] = b']';
        block[11] = b'\t';
        block[12] = b'\n';
        block[13] = b'\r';
        let bm = scan_scalar(&block);
        assert_eq!(bm.quote, 1 << 0);
        assert_eq!(bm.backslash, 1 << 1);
        assert_eq!(bm.high, (1 << 2) | (1 << 3));
        assert_eq!(bm.control, (1 << 4) | (1 << 5) | (0b111 << 11));
        assert_eq!(bm.ws, (1 << 6) | (0b111 << 11));
        assert_eq!(bm.openers(), (1 << 7) | (1 << 9));
        assert_eq!(bm.closers(), (1 << 8) | (1 << 10));
        // A stray continuation (0x80 after ASCII) and 0xFF are flagged.
        assert_ne!(bm.utf8, 0);
    }
}
