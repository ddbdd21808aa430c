//! Seeded inputs: the six `datagen` families and the paper's Table 5
//! queries, each tagged sparse or dense.

use crate::stats::Class;
use datagen::{Dataset, GenConfig, GeneratedData};

/// Bytes of each family's single large record.
pub const LARGE_BYTES: usize = 2 << 20;
/// Bytes of each family's small-record (NDJSON) stream.
pub const SMALL_BYTES: usize = 2 << 20;
/// Bytes of each corpus `jsonski serve` stores.
pub const CORPUS_BYTES: usize = 1 << 20;

/// One Table 5 query.
#[derive(Clone, Copy, Debug)]
pub struct Query {
    pub id: &'static str,
    pub path: &'static str,
    pub family: usize,
    pub class: Class,
}

/// At most about one match per 4 KiB: dominated by G1/G2/G4/G5 skipping.
const SPARSE: [&str; 6] = ["BB2", "GMD2", "NSPL1", "WM1", "WP1", "WP2"];

/// The queries of every family in the paper's order; `small` drops the
/// ones the paper runs only on the large-record form (NSPL1, WP2).
pub fn queries(small: bool) -> Vec<Query> {
    let mut out = Vec::new();
    for (family, ds) in Dataset::all().into_iter().enumerate() {
        for (id, path) in ds.queries() {
            if small && ds.large_only_queries().contains(&id) {
                continue;
            }
            let class = if SPARSE.contains(&id) {
                Class::Sparse
            } else {
                Class::Dense
            };
            out.push(Query {
                id,
                path,
                family,
                class,
            });
        }
    }
    out
}

/// SplitMix64: derives independent per-family seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The six families' inputs, large or small form.
pub fn families(seed: u64, large: bool, bytes: usize) -> Vec<GeneratedData> {
    Dataset::all()
        .into_iter()
        .enumerate()
        .map(|(i, ds)| {
            let cfg = GenConfig {
                target_bytes: bytes,
                seed: mix(seed, i as u64 + 1),
            };
            if large {
                ds.generate_large(&cfg)
            } else {
                ds.generate_small(&cfg)
            }
        })
        .collect()
}

/// The family's name as `datagen` spells it.
pub fn family_name(family: usize) -> &'static str {
    Dataset::all()[family].name()
}

/// A seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = mix(state, i as u64);
        let j = (state % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}
