//! Byte-class scanning for validation: bracket, quote, backslash, non-ASCII,
//! and control-byte bitmaps per 64-byte block.
//!
//! The Strict validation mode (simdjson-style validate-as-you-go, Keiser &
//! Lemire) needs a *second*, independent view of each block: it must not
//! consume the structural classifier's bitmaps, or a classifier bug would be
//! invisible to the validator that is supposed to cross-check it. This module
//! recomputes the byte classes the validator cares about with the same
//! kernel family (scalar reference, portable SWAR, SSE2, AVX2) and is
//! property-tested against the scalar reference like the structural kernels.

use crate::{Kernel, BLOCK};

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

/// Scans one block with the given kernel.
///
/// SIMD kernels fall back to SWAR under Miri (no vendor intrinsics there);
/// all kernels produce identical bitmaps, enforced by property tests.
#[inline]
pub fn scan_block(kernel: Kernel, block: &[u8; BLOCK]) -> ScanBitmaps {
    match kernel {
        Kernel::Scalar => scan_scalar(block),
        Kernel::Swar => scan_swar(block),
        #[cfg(target_arch = "x86_64")]
        #[allow(unused_variables)]
        k @ (Kernel::Sse2 | Kernel::Avx2 | Kernel::Avx512) => {
            #[cfg(not(miri))]
            {
                // SAFETY: an x86 kernel is only chosen on CPUs where its
                // `is_supported()` held (AVX-512BW or AVX2 detected); SSE2
                // is part of the x86_64 baseline.
                return unsafe {
                    match k {
                        Kernel::Avx512 => scan_avx512(block),
                        Kernel::Avx2 => scan_avx2(block),
                        _ => scan_sse2(block),
                    }
                };
            }
            #[allow(unreachable_code)]
            scan_swar(block)
        }
    }
}

/// Byte-at-a-time reference scan.
pub fn scan_scalar(block: &[u8; BLOCK]) -> ScanBitmaps {
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

/// Portable SWAR scan (8 bytes at a time).
pub fn scan_swar(block: &[u8; BLOCK]) -> ScanBitmaps {
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
        // Non-ASCII: the sign bit of each lane, already an 0x80 indicator.
        bm.high |= movemask(word & HI) << shift;
        // Control (< 0x20): the top three bits of the lane are all zero.
        bm.control |= movemask(swar_zero(word & 0xE0E0_E0E0_E0E0_E0E0)) << shift;
    }
    bm
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "sse2")]
unsafe fn scan_sse2(block: &[u8; BLOCK]) -> ScanBitmaps {
    use std::arch::x86_64::*;
    #[inline]
    unsafe fn eq(chunk: std::arch::x86_64::__m128i, c: u8) -> u64 {
        use std::arch::x86_64::*;
        _mm_movemask_epi8(_mm_cmpeq_epi8(chunk, _mm_set1_epi8(c as i8))) as u32 as u64
    }
    let ptr = block.as_ptr();
    let top3 = _mm_set1_epi8(0xE0u8 as i8);
    let zero = _mm_setzero_si128();
    let mut bm = ScanBitmaps::default();
    for i in 0..4 {
        let chunk = _mm_loadu_si128(ptr.add(i * 16) as *const __m128i);
        let shift = i * 16;
        bm.lbrace |= eq(chunk, b'{') << shift;
        bm.rbrace |= eq(chunk, b'}') << shift;
        bm.lbracket |= eq(chunk, b'[') << shift;
        bm.rbracket |= eq(chunk, b']') << shift;
        bm.quote |= eq(chunk, b'"') << shift;
        bm.backslash |= eq(chunk, b'\\') << shift;
        // movemask reads the sign bit: exactly the >= 0x80 class.
        bm.high |= (_mm_movemask_epi8(chunk) as u32 as u64) << shift;
        let ctl = _mm_movemask_epi8(_mm_cmpeq_epi8(_mm_and_si128(chunk, top3), zero));
        bm.control |= (ctl as u32 as u64) << shift;
    }
    bm
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
unsafe fn scan_avx2(block: &[u8; BLOCK]) -> ScanBitmaps {
    use std::arch::x86_64::*;
    #[inline]
    unsafe fn eq(chunk: std::arch::x86_64::__m256i, c: u8) -> u64 {
        use std::arch::x86_64::*;
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(chunk, _mm256_set1_epi8(c as i8))) as u32 as u64
    }
    let ptr = block.as_ptr();
    let top3 = _mm256_set1_epi8(0xE0u8 as i8);
    let zero = _mm256_setzero_si256();
    let mut bm = ScanBitmaps::default();
    for i in 0..2 {
        let chunk = _mm256_loadu_si256(ptr.add(i * 32) as *const __m256i);
        let shift = i * 32;
        bm.lbrace |= eq(chunk, b'{') << shift;
        bm.rbrace |= eq(chunk, b'}') << shift;
        bm.lbracket |= eq(chunk, b'[') << shift;
        bm.rbracket |= eq(chunk, b']') << shift;
        bm.quote |= eq(chunk, b'"') << shift;
        bm.backslash |= eq(chunk, b'\\') << shift;
        bm.high |= (_mm256_movemask_epi8(chunk) as u32 as u64) << shift;
        let ctl = _mm256_movemask_epi8(_mm256_cmpeq_epi8(_mm256_and_si256(chunk, top3), zero));
        bm.control |= (ctl as u32 as u64) << shift;
    }
    bm
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx512bw")]
unsafe fn scan_avx512(block: &[u8; BLOCK]) -> ScanBitmaps {
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
        // The sign bit of each byte: exactly the >= 0x80 class.
        high: _mm512_movepi8_mask(v),
        control: _mm512_cmplt_epu8_mask(v, _mm512_set1_epi8(0x20)),
    }
}

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

    #[test]
    fn kernels_agree_on_random_blocks() {
        // Small deterministic LCG over full byte range, incl. invalid UTF-8.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        for _ in 0..200 {
            let mut block = [0u8; BLOCK];
            for b in &mut block {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *b = (state >> 33) as u8;
            }
            let reference = scan_scalar(&block);
            for &k in Kernel::all() {
                if k.is_supported() {
                    assert_eq!(scan_block(k, &block), reference, "kernel {k:?}");
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
        let bm = scan_scalar(&block);
        assert_eq!(bm.quote, 1 << 0);
        assert_eq!(bm.backslash, 1 << 1);
        assert_eq!(bm.high, (1 << 2) | (1 << 3));
        assert_eq!(bm.control, (1 << 4) | (1 << 5));
        assert_eq!(bm.openers(), (1 << 7) | (1 << 9));
        assert_eq!(bm.closers(), (1 << 8) | (1 << 10));
    }
}
