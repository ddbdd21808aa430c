//! Word-level bit manipulation helpers used by the interval and pairing
//! algorithms (paper Algorithm 3 and the counting-based pairing strategy of
//! Section 4.2).

#[cfg(target_arch = "x86_64")]
pub use crate::kernels::clmul_prefix_xor;

/// Computes the prefix XOR (cumulative XOR, inclusive) of all bits in `x`.
///
/// Given a bitmap of unescaped quotes, the prefix XOR yields the in-string
/// mask: bits from each opening quote (inclusive) up to its closing quote
/// (exclusive) are set. This is the portable equivalent of the
/// carry-less-multiply-by-all-ones trick used by simdjson.
///
/// ```
/// // quotes at positions 1 and 4 -> bits 1..=3 are "inside"
/// assert_eq!(simdbits::bits::prefix_xor(0b1_0010), 0b0_1110);
/// ```
#[inline]
pub fn prefix_xor(x: u64) -> u64 {
    let mut x = x;
    x ^= x << 1;
    x ^= x << 2;
    x ^= x << 4;
    x ^= x << 8;
    x ^= x << 16;
    x ^= x << 32;
    x
}

/// Returns the position of the `k`-th (1-based) set bit of `x`, or `None`
/// if `x` has fewer than `k` set bits.
///
/// This is the `getPosition(bitmap, k)` primitive of the paper's Algorithm 4
/// (line 15): once the counting strategy knows the object ends at the
/// `num_open`-th `}` within an interval, `select` finds its byte offset.
///
/// ```
/// assert_eq!(simdbits::bits::select(0b1011, 1), Some(0));
/// assert_eq!(simdbits::bits::select(0b1011, 3), Some(3));
/// assert_eq!(simdbits::bits::select(0b1011, 4), None);
/// ```
#[inline]
pub fn select(x: u64, k: u32) -> Option<u32> {
    if k == 0 || x.count_ones() < k {
        return None;
    }
    let mut x = x;
    for _ in 1..k {
        x &= x - 1; // clear lowest set bit
    }
    Some(x.trailing_zeros())
}

/// Clears the lowest set bit of `x` (the `bitmap & (bitmap - 1)` idiom from
/// Algorithm 3, line 27).
///
/// ```
/// assert_eq!(simdbits::bits::clear_lowest(0b1100), 0b1000);
/// assert_eq!(simdbits::bits::clear_lowest(0), 0);
/// ```
#[inline]
pub fn clear_lowest(x: u64) -> u64 {
    x & x.wrapping_sub(1)
}

/// Isolates the lowest set bit of `x` (the `bitmap & -bitmap` idiom from
/// Algorithm 3, line 26). Returns 0 when `x` is 0.
///
/// ```
/// assert_eq!(simdbits::bits::lowest(0b1100), 0b0100);
/// assert_eq!(simdbits::bits::lowest(0), 0);
/// ```
#[inline]
pub fn lowest(x: u64) -> u64 {
    x & x.wrapping_neg()
}

/// Builds a mask with all bits strictly below position `pos` set.
///
/// `pos` may be 64, in which case the mask is all ones.
///
/// # Panics
///
/// Panics in debug builds if `pos > 64`.
///
/// ```
/// assert_eq!(simdbits::bits::mask_below(3), 0b111);
/// assert_eq!(simdbits::bits::mask_below(0), 0);
/// assert_eq!(simdbits::bits::mask_below(64), u64::MAX);
/// ```
#[inline]
pub fn mask_below(pos: u32) -> u64 {
    debug_assert!(pos <= 64);
    if pos >= 64 {
        u64::MAX
    } else {
        (1u64 << pos) - 1
    }
}

/// Builds the interval bitmap between the lowest set bit of `start_bit` and
/// the lowest set bit of `end_bit` (exclusive), i.e. `b_end - b_start` from
/// Algorithm 3 line 8. Both inputs must be single-bit masks with
/// `start_bit <= end_bit`; an `end_bit` of 0 means "no end within this word"
/// and yields all bits from the start upward.
///
/// ```
/// let start = 1u64 << 2;
/// let end = 1u64 << 5;
/// assert_eq!(simdbits::bits::span(start, end), 0b011100);
/// assert_eq!(simdbits::bits::span(start, 0), u64::MAX << 2);
/// ```
#[inline]
pub fn span(start_bit: u64, end_bit: u64) -> u64 {
    debug_assert!(start_bit.count_ones() <= 1 && end_bit.count_ones() <= 1);
    if end_bit == 0 {
        start_bit.wrapping_neg() // all bits >= start
    } else {
        end_bit.wrapping_sub(start_bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefix_xor_ref(x: u64) -> u64 {
        let mut acc = 0u64;
        let mut out = 0u64;
        for i in 0..64 {
            acc ^= (x >> i) & 1;
            out |= acc << i;
        }
        out
    }

    #[test]
    fn prefix_xor_matches_reference_on_patterns() {
        for &x in &[
            0u64,
            1,
            u64::MAX,
            0b1_0010,
            0xDEAD_BEEF_CAFE_BABE,
            1 << 63,
            (1 << 63) | 1,
        ] {
            assert_eq!(prefix_xor(x), prefix_xor_ref(x), "x={x:#x}");
        }
    }

    #[test]
    fn prefix_xor_matches_reference_exhaustive_low_bits() {
        for x in 0u64..4096 {
            assert_eq!(prefix_xor(x), prefix_xor_ref(x));
        }
    }

    #[test]
    fn select_finds_every_bit() {
        let x = 0b1010_1100u64;
        let positions: Vec<u32> = (0..64).filter(|i| x >> i & 1 == 1).collect();
        for (k, &p) in positions.iter().enumerate() {
            assert_eq!(select(x, k as u32 + 1), Some(p));
        }
        assert_eq!(select(x, positions.len() as u32 + 1), None);
        assert_eq!(select(x, 0), None);
        assert_eq!(select(0, 1), None);
    }

    #[test]
    fn select_full_word() {
        assert_eq!(select(u64::MAX, 64), Some(63));
        assert_eq!(select(u64::MAX, 1), Some(0));
    }

    #[test]
    fn span_covers_expected_bits() {
        assert_eq!(span(1, 1 << 63), (1u64 << 63) - 1);
        assert_eq!(span(1 << 10, 1 << 10), 0);
        assert_eq!(span(1, 0), u64::MAX);
    }

    #[test]
    fn mask_below_boundaries() {
        assert_eq!(mask_below(1), 1);
        assert_eq!(mask_below(63), u64::MAX >> 1);
    }

    #[test]
    fn lowest_and_clear_lowest_roundtrip() {
        let x = 0b10110100u64;
        assert_eq!(lowest(x) | clear_lowest(x), x);
        assert_eq!(lowest(x) & clear_lowest(x), 0);
    }
}
