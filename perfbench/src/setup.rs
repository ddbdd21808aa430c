//! The program's own set-up shared by the workloads: compiled queries and
//! engines. `setup_s` times it cold; the structural indexes the indexed
//! operations read are built beside it, untimed and before the heap
//! baseline, because the paper's paths (`large_record`, `small_records`)
//! have no index.

use crate::data::Query;
use jsonski::{index, EngineConfig, JsonSki, MultiQuery, StructuralIndex};

/// One engine per query, one `MultiQuery` per two-query family and one
/// strict engine per family.
pub struct Compiled {
    pub engines: Vec<JsonSki>,
    pub multi: Vec<MultiQuery>,
    pub strict: Vec<JsonSki>,
}

impl Compiled {
    /// Compiles `queries`; `pairs` is [`query_pairs`] of them.
    pub fn new(queries: &[Query], pairs: &[(usize, usize)]) -> Compiled {
        let compile = |q: &Query| JsonSki::compile(q.path).expect("benchmark queries parse");
        Compiled {
            engines: queries.iter().map(compile).collect(),
            multi: pairs
                .iter()
                .map(|&(a, b)| {
                    MultiQuery::compile(&[queries[a].path, queries[b].path])
                        .expect("benchmark queries parse")
                })
                .collect(),
            strict: strict_queries(queries)
                .map(|qi| {
                    compile(&queries[qi]).with_config(EngineConfig::builder().strict().build())
                })
                .collect(),
        }
    }
}

/// A structural index over each of `inputs`.
pub fn indexes(inputs: &[&[u8]]) -> Vec<StructuralIndex> {
    let digest = index::config_digest(&EngineConfig::default());
    inputs
        .iter()
        .map(|r| StructuralIndex::build(r, digest).expect("generated inputs split"))
        .collect()
}

/// The first query of each family, evaluated once more under strict
/// validation.
pub fn strict_queries(queries: &[Query]) -> impl Iterator<Item = usize> + '_ {
    (0..queries.len()).filter(|&i| i == 0 || queries[i].family != queries[i - 1].family)
}

/// Families with two queries, as `(first, second)` query indices.
pub fn query_pairs(queries: &[Query]) -> Vec<(usize, usize)> {
    (1..queries.len())
        .filter(|&i| queries[i].family == queries[i - 1].family)
        .map(|i| (i - 1, i))
        .collect()
}
