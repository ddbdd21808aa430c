//! Character-classification kernels: scalar reference, SWAR, and x86 SIMD.
//!
//! Each kernel maps a 64-byte block to [`RawBitmaps`] — per-character bitmaps
//! *before* string masking. The scalar kernel is the semantic reference; the
//! SWAR/SSE2/AVX2/AVX-512 kernels are property-tested against it. Runtime
//! dispatch picks the widest kernel the CPU supports.
//!
//! The x86 kernels are `#[inline]` `#[target_feature]` functions so that the
//! fused classifier (`block.rs`) can inline them into one region per kernel
//! together with the carry-less-multiply prefix XOR ([`clmul_prefix_xor`]).

use crate::BLOCK;

/// Per-character bitmaps for one 64-byte block, prior to string masking.
///
/// Bit `i` set in a field means byte `i` of the block equals that character.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RawBitmaps {
    /// Bitmap of `{` bytes.
    pub lbrace: u64,
    /// Bitmap of `}` bytes.
    pub rbrace: u64,
    /// Bitmap of `[` bytes.
    pub lbracket: u64,
    /// Bitmap of `]` bytes.
    pub rbracket: u64,
    /// Bitmap of `:` bytes.
    pub colon: u64,
    /// Bitmap of `,` bytes.
    pub comma: u64,
    /// Bitmap of `"` bytes.
    pub quote: u64,
    /// Bitmap of `\` bytes.
    pub backslash: u64,
}

/// Selects which classification kernel a [`crate::Classifier`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Byte-at-a-time loop; the semantic reference implementation.
    Scalar,
    /// SIMD-within-a-register over `u64` lanes; portable.
    Swar,
    /// 16-byte `cmpeq`/`movemask`; requires SSE2 (x86_64 baseline).
    #[cfg(target_arch = "x86_64")]
    Sse2,
    /// 32-byte `cmpeq`/`movemask`; requires AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// One 64-byte `cmpeq` into a mask register per character class;
    /// requires AVX-512BW.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// Returns the widest kernel supported by the running CPU.
///
/// ```
/// let k = simdbits::best_kernel();
/// // Always at least the portable SWAR kernel.
/// assert_ne!(k, simdbits::Kernel::Scalar);
/// ```
pub fn best_kernel() -> Kernel {
    // Under Miri no x86 kernel is supported (no vendor intrinsics there),
    // so the portable SWAR kernel is the widest it can run.
    #[cfg(target_arch = "x86_64")]
    let widest = [Kernel::Avx512, Kernel::Avx2, Kernel::Sse2];
    #[cfg(not(target_arch = "x86_64"))]
    let widest: [Kernel; 0] = [];
    widest
        .into_iter()
        .find(|k| k.is_supported())
        .unwrap_or(Kernel::Swar)
}

impl Kernel {
    /// Classifies one 64-byte block with this kernel.
    ///
    /// # Panics
    ///
    /// Panics if the CPU does not support the kernel (see
    /// [`is_supported`](Self::is_supported)).
    #[inline]
    pub fn classify(self, block: &[u8; BLOCK]) -> RawBitmaps {
        assert!(self.is_supported(), "kernel {self:?} not supported");
        // SAFETY (every arm): the CPU supports the kernel, asserted above.
        match self {
            Kernel::Scalar => classify_scalar(block),
            Kernel::Swar => classify_swar(block),
            #[cfg(target_arch = "x86_64")]
            Kernel::Sse2 => unsafe { classify_sse2(block) },
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => unsafe { classify_avx2(block) },
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => unsafe { classify_avx512(block) },
        }
    }

    /// All kernels available on this build target (not necessarily this CPU).
    pub fn all() -> &'static [Kernel] {
        #[cfg(target_arch = "x86_64")]
        {
            &[
                Kernel::Scalar,
                Kernel::Swar,
                Kernel::Sse2,
                Kernel::Avx2,
                Kernel::Avx512,
            ]
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            &[Kernel::Scalar, Kernel::Swar]
        }
    }

    /// Whether this CPU can execute the kernel.
    ///
    /// The x86 kernels also need PCLMULQDQ: the classifier fuses their
    /// compares with the carry-less-multiply prefix XOR of the string mask.
    pub fn is_supported(self) -> bool {
        // Miri interprets Rust, not x86: vendor intrinsics are unsupported
        // there even though the host CPU has them, so it detects nothing.
        #[cfg(target_arch = "x86_64")]
        let simd = |feature: fn() -> bool| {
            !cfg!(miri) && std::arch::is_x86_feature_detected!("pclmulqdq") && feature()
        };
        match self {
            Kernel::Scalar | Kernel::Swar => true,
            // SSE2 is part of the x86_64 baseline.
            #[cfg(target_arch = "x86_64")]
            Kernel::Sse2 => simd(|| true),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => simd(|| std::arch::is_x86_feature_detected!("avx2")),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => simd(|| std::arch::is_x86_feature_detected!("avx512bw")),
        }
    }

    /// The canonical lowercase name used by `JSONSKI_KERNEL` and `--kernel`.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Swar => "swar",
            #[cfg(target_arch = "x86_64")]
            Kernel::Sse2 => "sse2",
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => "avx512",
        }
    }

    /// Parses a kernel name as accepted by `JSONSKI_KERNEL` and `--kernel`.
    ///
    /// Returns `None` for names that are unknown *or* not compiled into this
    /// build target (e.g. `sse2` on non-x86_64), so callers can surface one
    /// uniform "unknown kernel" error.
    pub fn from_name(name: &str) -> Option<Kernel> {
        Kernel::all().iter().copied().find(|k| k.name() == name)
    }
}

/// The kernel forced via the `JSONSKI_KERNEL` environment variable, if any.
///
/// Read once per process (the classifier is on the per-block hot path) and
/// cached. An unknown or unsupported value aborts loudly rather than silently
/// falling back — the variable exists for differential verification, where a
/// silent fallback would defeat the point.
pub fn forced_kernel() -> Option<Kernel> {
    static FORCED: std::sync::OnceLock<Option<Kernel>> = std::sync::OnceLock::new();
    *FORCED.get_or_init(|| {
        let name = std::env::var("JSONSKI_KERNEL").ok()?;
        let kernel = Kernel::from_name(&name).unwrap_or_else(|| {
            panic!(
                "JSONSKI_KERNEL={name:?} is not a known kernel on this target \
                 (expected one of: {})",
                Kernel::all()
                    .iter()
                    .map(|k| k.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        });
        assert!(
            kernel.is_supported(),
            "JSONSKI_KERNEL={name:?} is not supported by this CPU"
        );
        Some(kernel)
    })
}

/// Byte-at-a-time reference classification.
pub(crate) fn classify_scalar(block: &[u8; BLOCK]) -> RawBitmaps {
    let mut bm = RawBitmaps::default();
    for (i, &b) in block.iter().enumerate() {
        let bit = 1u64 << i;
        match b {
            b'{' => bm.lbrace |= bit,
            b'}' => bm.rbrace |= bit,
            b'[' => bm.lbracket |= bit,
            b']' => bm.rbracket |= bit,
            b':' => bm.colon |= bit,
            b',' => bm.comma |= bit,
            b'"' => bm.quote |= bit,
            b'\\' => bm.backslash |= bit,
            _ => {}
        }
    }
    bm
}

/// Classic SWAR byte-equality: returns a `u64` where byte lane `i` is 0x80
/// if `word`'s byte `i` equals `needle`, else 0.
#[inline]
fn swar_eq(word: u64, needle: u8) -> u64 {
    const LO: u64 = 0x0101_0101_0101_0101;
    const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    let x = word ^ (LO.wrapping_mul(needle as u64));
    // Exact zero-byte detector: 0x80 in each lane whose byte is zero. The
    // cheaper `(x - LO) & !x & HI` variant has borrow-induced false
    // positives (e.g. a 0x01 lane directly above a zero lane), caught by
    // the kernel-equivalence property tests.
    let y = (x & LOW7).wrapping_add(LOW7);
    !(y | x | LOW7)
}

/// Compresses the 0x80-per-lane match masks of the 8 words of a block into
/// one bit-per-byte u64 bitmap.
#[inline]
fn swar_gather(words: &[u64; 8], needle: u8) -> u64 {
    let mut out = 0u64;
    for (w, &word) in words.iter().enumerate() {
        let m = swar_eq(word, needle);
        // Move each lane's 0x80 indicator to one bit. Multiplying the
        // 0x80-spaced indicators by the magic constant gathers them into the
        // top byte; simpler and still branch-free: shift each lane down.
        let mut bits = 0u64;
        let mut m2 = m;
        while m2 != 0 {
            let lane = m2.trailing_zeros() / 8;
            bits |= 1 << lane;
            m2 &= m2 - 1;
        }
        out |= bits << (w * 8);
    }
    out
}

/// Portable SWAR classification (8 bytes at a time).
pub(crate) fn classify_swar(block: &[u8; BLOCK]) -> RawBitmaps {
    let mut words = [0u64; 8];
    for (i, w) in words.iter_mut().enumerate() {
        *w = u64::from_le_bytes(block[i * 8..i * 8 + 8].try_into().unwrap());
    }
    RawBitmaps {
        lbrace: swar_gather(&words, b'{'),
        rbrace: swar_gather(&words, b'}'),
        lbracket: swar_gather(&words, b'['),
        rbracket: swar_gather(&words, b']'),
        colon: swar_gather(&words, b':'),
        comma: swar_gather(&words, b','),
        quote: swar_gather(&words, b'"'),
        backslash: swar_gather(&words, b'\\'),
    }
}

/// # Safety
///
/// SSE2 is the x86_64 baseline; callable on every x86_64 CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
#[inline]
pub(crate) unsafe fn classify_sse2(block: &[u8; BLOCK]) -> RawBitmaps {
    use std::arch::x86_64::*;
    let ptr = block.as_ptr();
    let chunks = [
        _mm_loadu_si128(ptr as *const __m128i),
        _mm_loadu_si128(ptr.add(16) as *const __m128i),
        _mm_loadu_si128(ptr.add(32) as *const __m128i),
        _mm_loadu_si128(ptr.add(48) as *const __m128i),
    ];
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn eq_mask(chunks: &[std::arch::x86_64::__m128i; 4], c: u8) -> u64 {
        use std::arch::x86_64::*;
        let needle = _mm_set1_epi8(c as i8);
        let mut out = 0u64;
        for (i, &ch) in chunks.iter().enumerate() {
            let m = _mm_movemask_epi8(_mm_cmpeq_epi8(ch, needle)) as u32 as u64;
            out |= m << (i * 16);
        }
        out
    }
    RawBitmaps {
        lbrace: eq_mask(&chunks, b'{'),
        rbrace: eq_mask(&chunks, b'}'),
        lbracket: eq_mask(&chunks, b'['),
        rbracket: eq_mask(&chunks, b']'),
        colon: eq_mask(&chunks, b':'),
        comma: eq_mask(&chunks, b','),
        quote: eq_mask(&chunks, b'"'),
        backslash: eq_mask(&chunks, b'\\'),
    }
}

/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
pub(crate) unsafe fn classify_avx2(block: &[u8; BLOCK]) -> RawBitmaps {
    use std::arch::x86_64::*;
    let ptr = block.as_ptr();
    let lo = _mm256_loadu_si256(ptr as *const __m256i);
    let hi = _mm256_loadu_si256(ptr.add(32) as *const __m256i);
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn eq_mask(
        lo: std::arch::x86_64::__m256i,
        hi: std::arch::x86_64::__m256i,
        c: u8,
    ) -> u64 {
        use std::arch::x86_64::*;
        let needle = _mm256_set1_epi8(c as i8);
        let ml = _mm256_movemask_epi8(_mm256_cmpeq_epi8(lo, needle)) as u32 as u64;
        let mh = _mm256_movemask_epi8(_mm256_cmpeq_epi8(hi, needle)) as u32 as u64;
        ml | (mh << 32)
    }
    RawBitmaps {
        lbrace: eq_mask(lo, hi, b'{'),
        rbrace: eq_mask(lo, hi, b'}'),
        lbracket: eq_mask(lo, hi, b'['),
        rbracket: eq_mask(lo, hi, b']'),
        colon: eq_mask(lo, hi, b':'),
        comma: eq_mask(lo, hi, b','),
        quote: eq_mask(lo, hi, b'"'),
        backslash: eq_mask(lo, hi, b'\\'),
    }
}

/// # Safety
///
/// The CPU must support AVX-512BW.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512bw")]
#[inline]
pub(crate) unsafe fn classify_avx512(block: &[u8; BLOCK]) -> RawBitmaps {
    use std::arch::x86_64::*;
    let v = _mm512_loadu_si512(block.as_ptr() as *const __m512i);
    #[target_feature(enable = "avx512bw")]
    #[inline]
    unsafe fn eq_mask(v: std::arch::x86_64::__m512i, c: u8) -> u64 {
        use std::arch::x86_64::*;
        _mm512_cmpeq_epi8_mask(v, _mm512_set1_epi8(c as i8))
    }
    RawBitmaps {
        lbrace: eq_mask(v, b'{'),
        rbrace: eq_mask(v, b'}'),
        lbracket: eq_mask(v, b'['),
        rbracket: eq_mask(v, b']'),
        colon: eq_mask(v, b':'),
        comma: eq_mask(v, b','),
        quote: eq_mask(v, b'"'),
        backslash: eq_mask(v, b'\\'),
    }
}

/// Prefix XOR of `x` by carry-less multiplication with all ones (the trick
/// simdjson uses); equal to [`crate::bits::prefix_xor`].
///
/// # Safety
///
/// The CPU must support PCLMULQDQ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq")]
#[inline]
pub unsafe fn clmul_prefix_xor(x: u64) -> u64 {
    use std::arch::x86_64::*;
    let v = _mm_set_epi64x(0, x as i64);
    let ones = _mm_set1_epi8(-1);
    let product = _mm_clmulepi64_si128(v, ones, 0);
    _mm_cvtsi128_si64(product) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block() -> [u8; BLOCK] {
        let mut b = [b' '; BLOCK];
        let s = br#"{"k": [1, 2, {"x\"y": "z"}], "m": null}  {}[],:"\"#;
        b[..s.len()].copy_from_slice(s);
        b
    }

    #[test]
    fn kernels_agree_on_sample() {
        let block = sample_block();
        let reference = classify_scalar(&block);
        for &k in Kernel::all() {
            if k.is_supported() {
                assert_eq!(k.classify(&block), reference, "kernel {k:?}");
            }
        }
    }

    #[test]
    fn kernels_agree_on_all_single_bytes() {
        for byte in 0u8..=255 {
            let block = [byte; BLOCK];
            let reference = classify_scalar(&block);
            for &k in Kernel::all() {
                if k.is_supported() {
                    assert_eq!(k.classify(&block), reference, "byte {byte} kernel {k:?}");
                }
            }
        }
    }

    #[test]
    fn best_kernel_is_supported() {
        assert!(best_kernel().is_supported());
    }

    #[test]
    fn kernel_names_round_trip() {
        for &k in Kernel::all() {
            assert_eq!(Kernel::from_name(k.name()), Some(k), "kernel {k:?}");
        }
        assert_eq!(Kernel::from_name("neon"), None);
        assert_eq!(Kernel::from_name("SWAR"), None, "names are lowercase");
    }

    #[test]
    fn scalar_positions_are_correct() {
        let mut block = [b'x'; BLOCK];
        block[0] = b'{';
        block[63] = b'}';
        block[10] = b'"';
        let bm = classify_scalar(&block);
        assert_eq!(bm.lbrace, 1);
        assert_eq!(bm.rbrace, 1 << 63);
        assert_eq!(bm.quote, 1 << 10);
        assert_eq!(bm.comma, 0);
    }
}
