//! Cross-block string-literal tracking: escaped-character detection via the
//! odd-length-backslash-run algorithm and the in-string mask via prefix XOR.
//!
//! This implements the `buildStringBitmap()` dependency of the paper's
//! Algorithm 3 (line 17), using the bit-parallel formulation introduced by
//! Mison/simdjson: a quote is *real* (string-delimiting) iff it is not
//! preceded by an odd-length run of backslashes, and the in-string mask is
//! the prefix XOR of the real-quote bitmap, carried across 64-byte blocks.

use crate::bits::prefix_xor;

const EVEN: u64 = 0x5555_5555_5555_5555;
const ODD: u64 = 0xAAAA_AAAA_AAAA_AAAA;

/// Carry state for string tracking across consecutive 64-byte blocks.
///
/// Feed blocks in order via [`StringState::step`]; the state records whether
/// the previous block ended inside a string and whether it ended with an
/// odd-length backslash run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StringState {
    /// 1 if the previous block ended with an odd-length backslash run.
    prev_ends_odd_backslash: u64,
    /// All-ones if the previous block ended inside a string literal.
    prev_in_string: u64,
}

impl StringState {
    /// Fresh state: not inside a string, no pending escape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Explicit state, for speculative chunk-parallel processing (Pison
    /// style): a chunk may need to re-execute with the true boundary state
    /// after validation.
    pub fn with_state(in_string: bool, pending_escape: bool) -> Self {
        StringState {
            prev_ends_odd_backslash: u64::from(pending_escape),
            prev_in_string: if in_string { u64::MAX } else { 0 },
        }
    }

    /// Whether the last processed block ended with an odd-length backslash
    /// run (the next character is escaped).
    pub fn pending_escape(&self) -> bool {
        self.prev_ends_odd_backslash != 0
    }

    /// Whether the stream is currently inside a string literal (i.e. the last
    /// processed block ended inside one).
    pub fn in_string(&self) -> bool {
        self.prev_in_string != 0
    }

    /// Processes one block given its raw quote and backslash bitmaps.
    ///
    /// Returns `(string_mask, real_quotes)` where `string_mask` has a bit set
    /// for every byte inside a string literal (opening quote inclusive,
    /// closing quote exclusive) and `real_quotes` marks unescaped quotes.
    #[inline]
    pub fn step(&mut self, quotes: u64, backslashes: u64) -> (u64, u64) {
        self.step_with(quotes, backslashes, fast_prefix_xor)
    }

    /// [`step`](Self::step) with the prefix XOR supplied by the caller, so
    /// a fused classifier can pass the carry-less multiply of its own
    /// `#[target_feature]` region instead of a per-block feature check.
    #[inline(always)]
    pub(crate) fn step_with(
        &mut self,
        quotes: u64,
        backslashes: u64,
        prefix_xor: impl Fn(u64) -> u64,
    ) -> (u64, u64) {
        let escaped = self.escaped(backslashes);
        let real_quotes = quotes & !escaped;
        let in_string = prefix_xor(real_quotes) ^ self.prev_in_string;
        // Sign-extend the top bit: all-ones if still inside a string.
        self.prev_in_string = ((in_string as i64) >> 63) as u64;
        (in_string, real_quotes)
    }

    /// Bitmap of characters escaped by an odd-length backslash run
    /// (the character *after* the run), with cross-block carry. Advances
    /// only the escape carry: [`step`](Self::step) calls it, and a reader
    /// that tracks the string state itself may call it alone.
    ///
    /// This is the branch-structured algorithm from "Parsing Gigabytes of
    /// JSON per Second" (Langdale & Lemire), ported bit-for-bit.
    #[inline(always)]
    pub fn escaped(&mut self, backslashes: u64) -> u64 {
        let bs = backslashes;
        // Start-of-run edges (a backslash not preceded by one), adjusted for
        // a run continuing from the previous block.
        let start_edges = bs & !(bs << 1);
        let even_start_mask = EVEN ^ self.prev_ends_odd_backslash;
        let even_starts = start_edges & even_start_mask;
        let odd_starts = start_edges & !even_start_mask;
        let even_carries = bs.wrapping_add(even_starts);
        let (odd_carries, ends_odd) = bs.overflowing_add(odd_starts);
        let odd_carries = odd_carries | self.prev_ends_odd_backslash;
        self.prev_ends_odd_backslash = u64::from(ends_odd);
        let even_carry_ends = even_carries & !bs;
        let odd_carry_ends = odd_carries & !bs;
        let even_start_odd_end = even_carry_ends & ODD;
        let odd_start_even_end = odd_carry_ends & EVEN;
        even_start_odd_end | odd_start_even_end
    }

    /// Resets to the initial (outside-string) state.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Prefix XOR via carry-less multiplication by all-ones when the CPU has
/// it, with the shift-XOR ladder as the portable fallback. Only the
/// standalone [`StringState::step`] pays this per-block feature check; the
/// classifier's fused kernels call the multiply directly. The equivalence
/// is covered by the kernel property tests (the string masks of every
/// kernel path must agree with the scalar model).
#[inline]
fn fast_prefix_xor(x: u64) -> u64 {
    // Miri does not model the carry-less multiply intrinsic.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        if std::arch::is_x86_feature_detected!("pclmulqdq") {
            // SAFETY: feature presence checked at runtime just above.
            return unsafe { crate::kernels::clmul_prefix_xor(x) };
        }
    }
    prefix_xor(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::classify_scalar;
    use crate::BLOCK;

    /// Scalar reference: walk bytes tracking escape/in-string state, return
    /// per-block string masks.
    fn reference_masks(input: &[u8]) -> Vec<u64> {
        let mut masks = Vec::new();
        let mut in_string = false;
        let mut escaped = false;
        for chunk in input.chunks(BLOCK) {
            let mut mask = 0u64;
            for (i, &b) in chunk.iter().enumerate() {
                if in_string {
                    // Opening quote was already marked; interior bytes are in.
                    if escaped {
                        escaped = false;
                        mask |= 1 << i;
                        continue;
                    }
                    match b {
                        b'\\' => {
                            escaped = true;
                            mask |= 1 << i;
                        }
                        b'"' => in_string = false, // closing quote excluded
                        _ => mask |= 1 << i,
                    }
                } else if b == b'"' {
                    in_string = true;
                    mask |= 1 << i; // opening quote included
                }
            }
            masks.push(mask);
        }
        masks
    }

    fn bitparallel_masks(input: &[u8]) -> Vec<u64> {
        let mut st = StringState::new();
        input
            .chunks(BLOCK)
            .map(|chunk| {
                let mut block = [0u8; 64];
                block[..chunk.len()].copy_from_slice(chunk);
                let raw = classify_scalar(&block);
                let valid = if chunk.len() == BLOCK {
                    u64::MAX
                } else {
                    (1u64 << chunk.len()) - 1
                };
                // Padding bytes carry no data; compare valid bits only.
                st.step(raw.quote, raw.backslash).0 & valid
            })
            .collect()
    }

    #[track_caller]
    fn check(input: &[u8]) {
        assert_eq!(
            bitparallel_masks(input),
            reference_masks(input),
            "input: {:?}",
            String::from_utf8_lossy(input)
        );
    }

    #[test]
    fn simple_string() {
        check(br#"{"name": "value"}"#);
    }

    #[test]
    fn escaped_quote_stays_inside() {
        check(br#"{"a": "x\"y"}"#);
    }

    #[test]
    fn double_backslash_closes() {
        check(br#"{"a": "x\\", "b": 1}"#);
    }

    #[test]
    fn long_backslash_runs() {
        check(br#"{"a": "\\\\\\\"still in", "b": "\\\\\\" }"#);
    }

    #[test]
    fn string_spanning_blocks() {
        let mut v = b"{\"k\": \"".to_vec();
        v.extend(std::iter::repeat_n(b'x', 200));
        v.extend_from_slice(b"\"}");
        check(&v);
    }

    #[test]
    fn backslash_run_spanning_block_boundary() {
        // Put an odd backslash run straddling the 64-byte boundary.
        let mut v = vec![b' '; 60];
        v[0] = b'"';
        v.extend_from_slice(br#"\\\\\\\"after"#); // 7 backslashes then quote
        v.extend(std::iter::repeat_n(b' ', 40));
        check(&v);
    }

    /// Boundary audit: every split of a backslash run across the 64-byte
    /// word boundary, odd and even lengths, in and out of strings. A carry
    /// bug here silently flips string state for the rest of the stream.
    #[test]
    fn backslash_carry_chains_at_every_boundary_split() {
        for run_len in 1usize..=9 {
            for run_start in (64 - run_len).saturating_sub(2)..=64 {
                // Inside a string: `"<pad>\\..\"tail` — the quote after the
                // run is escaped iff the run length is odd.
                let mut v = vec![b'a'; run_start];
                v[0] = b'"';
                v.extend(std::iter::repeat_n(b'\\', run_len));
                v.push(b'"');
                v.extend_from_slice(b"tail ");
                check(&v);

                // Same run followed by a non-quote char, then a real close:
                // exercises the carry without the escaped-quote interaction.
                // (Backslashes *outside* strings are not tested: there the
                // bit-parallel escape detector intentionally diverges from a
                // grammar-aware walker — valid JSON never produces them, and
                // Strict validation rejects such documents outright.)
                let mut v = vec![b'a'; run_start];
                v[0] = b'"';
                v.extend(std::iter::repeat_n(b'\\', run_len));
                if run_len % 2 == 1 {
                    v.push(b'n'); // complete the escape
                }
                v.extend_from_slice(b"x\" ");
                check(&v);
            }
        }
    }

    /// Boundary audit: alternating `\"` pairs straddling the boundary, so the
    /// escaped-quote detector must distinguish run phase across the carry.
    #[test]
    fn escaped_quote_chains_across_boundary() {
        for start in 56..=64 {
            let mut v = vec![b'x'; start];
            v[0] = b'"';
            for _ in 0..8 {
                v.extend_from_slice(br#"\""#);
            }
            v.push(b'"'); // real closing quote
            v.extend_from_slice(b" after");
            check(&v);
        }
    }

    /// Boundary audit: real quotes at positions 63 and 64 (last bit of one
    /// word, first bit of the next) — the prefix-XOR carry sign-extension.
    #[test]
    fn quote_state_spanning_word_boundary() {
        for open in [62usize, 63, 64, 65] {
            for span in [1usize, 2, 64, 65, 127, 128] {
                let mut v = vec![b' '; open];
                v.push(b'"');
                v.extend(std::iter::repeat_n(b'y', span));
                v.push(b'"');
                v.extend_from_slice(b" , ");
                check(&v);
            }
        }
    }

    /// Boundary audit: a backslash run spanning *three* blocks (>128 chars),
    /// so `ends_odd` must propagate through a block that is all backslashes.
    #[test]
    fn backslash_run_spanning_three_blocks() {
        for total in [127usize, 128, 129, 130] {
            let mut v = vec![b'"'; 1];
            v.extend(std::iter::repeat_n(b'z', 62));
            v.extend(std::iter::repeat_n(b'\\', total));
            v.push(b'"');
            v.extend_from_slice(b"rest ");
            check(&v);
        }
    }

    #[test]
    fn metachars_inside_strings_masked() {
        let input = br#"{"a": "{}[]:,\"", "b": [1]}"#;
        let masks = bitparallel_masks(input);
        let mut block = [0u8; BLOCK];
        block[..input.len()].copy_from_slice(input);
        let raw = classify_scalar(&block);
        let structural_lbrace = raw.lbrace & !masks[0];
        assert_eq!(structural_lbrace.count_ones(), 1); // only the outer `{`
        let structural_colon = raw.colon & !masks[0];
        assert_eq!(structural_colon.count_ones(), 2); // after "a" and "b"
    }

    #[test]
    fn in_string_flag_tracks_state() {
        let mut st = StringState::new();
        let mut block = [0u8; BLOCK];
        block[0] = b'"';
        let raw = classify_scalar(&block);
        st.step(raw.quote, raw.backslash);
        assert!(st.in_string());
        st.step(raw.quote, raw.backslash); // another lone quote closes it
        assert!(!st.in_string());
        st.reset();
        assert!(!st.in_string());
    }
}

#[cfg(test)]
mod clmul_tests {
    use super::*;

    #[test]
    fn fast_prefix_xor_equals_portable() {
        for &x in &[
            0u64,
            1,
            u64::MAX,
            0xDEAD_BEEF,
            1 << 63,
            0x5555_5555_5555_5555,
        ] {
            assert_eq!(fast_prefix_xor(x), prefix_xor(x), "{x:#x}");
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            assert_eq!(fast_prefix_xor(x), prefix_xor(x), "{x:#x}");
        }
    }
}
