//! Property tests: every SIMD kernel is bit-for-bit equivalent to the
//! scalar reference, and the string mask matches a byte-at-a-time model on
//! arbitrary inputs (including pathological backslash runs).

use proptest::prelude::*;
use simdbits::scan::{scan_block, scan_many, scan_scalar, ScanBitmaps, ScanCarry};
use simdbits::{bits, BlockBitmaps, Classifier, Kernel, PaddedBlocks, BLOCK};

/// Arbitrary bytes biased towards JSON metacharacters, quotes, and
/// backslashes so the interesting code paths fire constantly.
fn spicy_bytes(max_len: usize) -> BoxedStrategy<Vec<u8>> {
    prop::collection::vec(
        prop_oneof![
            4 => prop::num::u8::ANY,
            1 => Just(b'"'),
            2 => Just(b'\\'),
            1 => Just(b'{'),
            1 => Just(b'}'),
            1 => Just(b'['),
            1 => Just(b']'),
            1 => Just(b':'),
            1 => Just(b','),
        ],
        0..max_len,
    )
    .boxed()
}

/// UTF-8 text, mostly valid: ASCII, 2-, 3- and 4-byte characters, and now
/// and then a byte that breaks a sequence.
fn utf8_piece() -> BoxedStrategy<Vec<u8>> {
    prop_oneof![
        4 => Just(b"a".to_vec()),
        2 => Just("\u{E9}".as_bytes().to_vec()),
        2 => Just("\u{20AC}".as_bytes().to_vec()),
        2 => Just("\u{1F600}".as_bytes().to_vec()),
        1 => Just("\u{10FFFF}".as_bytes().to_vec()),
        1 => prop::num::u8::ANY.prop_map(|b| vec![b]),
    ]
    .boxed()
}

/// Scalar model of the classifier: tracks in-string/escape state byte by
/// byte and reports per-block structural bitmaps.
fn scalar_model(input: &[u8]) -> Vec<[u64; 7]> {
    let mut out = Vec::new();
    let mut in_string = false;
    let mut escaped = false;
    for chunk in input.chunks(BLOCK) {
        // [lbrace, rbrace, lbracket, rbracket, colon, comma, quote]
        let mut maps = [0u64; 7];
        for (i, &b) in chunk.iter().enumerate() {
            let bit = 1u64 << i;
            if in_string {
                if escaped {
                    escaped = false;
                } else {
                    match b {
                        b'\\' => escaped = true,
                        b'"' => {
                            in_string = false;
                            maps[6] |= bit;
                        }
                        _ => {}
                    }
                }
            } else {
                // Outside strings a backslash is not valid JSON; the
                // bit-parallel escape logic still neutralizes a *quote*
                // after an odd backslash run, but structural characters
                // are only masked by the string mask, so they stay
                // structural even when "escaped". Mirror that exactly.
                let was_escaped = escaped;
                escaped = false;
                match b {
                    b'{' => maps[0] |= bit,
                    b'}' => maps[1] |= bit,
                    b'[' => maps[2] |= bit,
                    b']' => maps[3] |= bit,
                    b':' => maps[4] |= bit,
                    b',' => maps[5] |= bit,
                    b'"' if !was_escaped => {
                        in_string = true;
                        maps[6] |= bit;
                    }
                    b'"' => {} // escaped quote outside a string: not real
                    b'\\' if !was_escaped => escaped = true,
                    _ => {}
                }
            }
        }
        out.push(maps);
    }
    out
}

fn classified(input: &[u8], kernel: Kernel) -> Vec<[u64; 7]> {
    let mut cls = Classifier::with_kernel(kernel);
    PaddedBlocks::new(input)
        .map(|(block, len)| {
            let bm = cls.classify(&block);
            let valid = if len == BLOCK {
                u64::MAX
            } else {
                (1u64 << len) - 1
            };
            [
                bm.lbrace & valid,
                bm.rbrace & valid,
                bm.lbracket & valid,
                bm.rbracket & valid,
                bm.colon & valid,
                bm.comma & valid,
                bm.quote & valid,
            ]
        })
        .collect()
}

/// Adversarial inputs engineered to straddle 64-byte word boundaries:
/// a padding shift places a sequence of hostile segments (backslash runs,
/// quote-carry chains, metachar bursts) at every alignment relative to the
/// block grid, so carry bugs that only fire at bit 63/0 are exercised.
fn boundary_straddling() -> BoxedStrategy<Vec<u8>> {
    let segment = prop_oneof![
        // Backslash run of adversarial length (odd/even, spanning words).
        (1usize..130).prop_map(|n| vec![b'\\'; n]),
        // Quote-carry chain: alternating escaped quotes.
        (1usize..40).prop_map(|n| br#"\""#.repeat(n)),
        // A lone real quote toggling string state.
        Just(vec![b'"']),
        // Metachar burst that must be masked iff inside a string.
        Just(b"{}[]:,".to_vec()),
        // Neutral filler.
        (1usize..20).prop_map(|n| vec![b'x'; n]),
    ];
    (0usize..BLOCK, prop::collection::vec(segment, 1..12))
        .prop_map(|(shift, segments)| {
            let mut v = vec![b' '; shift];
            for s in segments {
                v.extend_from_slice(&s);
            }
            v
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn all_kernels_agree_on_boundary_straddling_input(input in boundary_straddling()) {
        let reference = classified(&input, Kernel::Scalar);
        for &k in Kernel::all() {
            if k.is_supported() {
                prop_assert_eq!(&classified(&input, k), &reference, "kernel {:?}", k);
            }
        }
    }

    #[test]
    fn bitparallel_matches_scalar_model_on_boundary_straddling(input in boundary_straddling()) {
        let got = classified(&input, Kernel::Scalar);
        let want = scalar_model(&input);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn scan_kernels_agree_with_scalar(input in prop::collection::vec(any::<u8>(), BLOCK..BLOCK + 1)) {
        let block: [u8; BLOCK] = input.try_into().unwrap();
        let reference = scan_scalar(&block);
        for &k in Kernel::all() {
            if k.is_supported() {
                prop_assert_eq!(scan_block(k, &block), reference, "kernel {:?}", k);
            }
        }
    }

    #[test]
    fn all_kernels_agree_with_each_other(input in spicy_bytes(300)) {
        let reference = classified(&input, Kernel::Scalar);
        for &k in Kernel::all() {
            if k.is_supported() {
                prop_assert_eq!(&classified(&input, k), &reference, "kernel {:?}", k);
            }
        }
    }

    #[test]
    fn bitparallel_matches_scalar_model(input in spicy_bytes(300)) {
        let got = classified(&input, Kernel::Scalar);
        let want = scalar_model(&input);
        prop_assert_eq!(got, want);
    }

    // The batched path is the per-word path: for every supported kernel,
    // classifying `split` blocks one at a time and the rest `batch` at a
    // time through `classify_many` yields the same bitmaps, so the string
    // state carried into and out of a batch is exact at every split.
    #[test]
    fn classify_many_equals_repeated_classify(
        input in spicy_bytes(64 * 24),
        batch in 1usize..=16,
        split in 0usize..24,
    ) {
        let (blocks, _) = input.as_chunks::<BLOCK>();
        let split = split.min(blocks.len());
        for &k in Kernel::all() {
            if !k.is_supported() {
                continue;
            }
            let mut one = Classifier::with_kernel(k);
            let want: Vec<BlockBitmaps> = blocks.iter().map(|b| one.classify(b)).collect();
            let mut many = Classifier::with_kernel(k);
            let mut got: Vec<BlockBitmaps> = blocks[..split].iter().map(|b| many.classify(b)).collect();
            for chunk in blocks[split..].chunks(batch) {
                let mut out = vec![BlockBitmaps::default(); chunk.len()];
                many.classify_many(chunk, &mut out);
                got.extend(out);
            }
            prop_assert_eq!(&got, &want, "kernel {:?}", k);
            prop_assert_eq!(many.in_string(), one.in_string(), "kernel {:?}", k);
        }
    }

    // Batched scans equal the scalar reference one block at a time, with
    // the UTF-8 lookback carried across every batch edge; and on a stream
    // that ends on a complete character, some byte is flagged exactly when
    // the standard library rejects the stream.
    #[test]
    fn scan_many_equals_scalar_blocks_and_flags_invalid_utf8(
        pieces in prop::collection::vec(utf8_piece(), 0..120),
        batch in 1usize..=16,
    ) {
        let mut input = pieces.concat();
        input.push(b' ');
        input.resize(input.len().next_multiple_of(BLOCK), b' ');
        let (blocks, _) = input.as_chunks::<BLOCK>();
        let mut carry = ScanCarry::default();
        let want: Vec<ScanBitmaps> = blocks
            .iter()
            .map(|b| {
                let mut out = [ScanBitmaps::default()];
                scan_many(Kernel::Scalar, std::slice::from_ref(b), &mut carry, &mut out);
                out[0]
            })
            .collect();
        for &k in Kernel::all() {
            if !k.is_supported() {
                continue;
            }
            let mut carry = ScanCarry::default();
            let mut got = Vec::new();
            for chunk in blocks.chunks(batch) {
                let mut out = vec![ScanBitmaps::default(); chunk.len()];
                scan_many(k, chunk, &mut carry, &mut out);
                got.extend(out);
            }
            prop_assert_eq!(&got, &want, "kernel {:?}", k);
        }
        let flagged = want.iter().any(|bm| bm.utf8 != 0);
        prop_assert_eq!(flagged, std::str::from_utf8(&input).is_err());
    }

    #[test]
    fn select_matches_naive(x in any::<u64>(), k in 1u32..=64) {
        let naive = (0..64u32).filter(|i| x >> i & 1 == 1).nth(k as usize - 1);
        prop_assert_eq!(bits::select(x, k), naive);
    }

    #[test]
    fn prefix_xor_matches_naive(x in any::<u64>()) {
        let mut acc = 0u64;
        let mut want = 0u64;
        for i in 0..64 {
            acc ^= (x >> i) & 1;
            want |= acc << i;
        }
        prop_assert_eq!(bits::prefix_xor(x), want);
    }
}
