//! Per-layer probes shared by the workloads' traced runs. Each probe
//! repeats one call into a layer inside a span; the metric is computed
//! from the spans' self times.

use crate::data::Query;
use crate::metrics::Values;
use crate::oracle::Digest;
use crate::trace::Tracer;
use jsonski::{
    index, EngineConfig, FastForwardStats, Group, JsonSki, StreamOutcome, StructuralIndex,
};
use simdbits::{classify_stream, Classifier, StringState};
use std::collections::BTreeMap;
use std::path::Path;

/// Repeats per probe; the estimator keeps the fastest of them.
pub const REPS: usize = 10;

/// Runs `f` `REPS` times, each inside a span `name` for input `key`.
pub fn probe(tracer: &Tracer, name: &'static str, key: u32, bytes: u64, mut f: impl FnMut()) {
    for _ in 0..REPS {
        let _span = tracer.span(name, key, bytes);
        f();
    }
}

/// `simdbits.classify_gibps` and `simdbits.string_mask_gibps` over
/// `inputs`.
pub fn simdbits(tracer: &Tracer, inputs: &[&[u8]], v: &mut Values) {
    let kernel = jsonski::best_kernel();
    for (k, input) in inputs.iter().enumerate() {
        let key = k as u32;
        let bytes = input.len() as u64;
        probe(tracer, "simdbits.classify_stream", key, bytes, || {
            let mut acc = 0u64;
            classify_stream(&mut Classifier::new(), input, |_, bm| acc ^= bm.string_mask);
            std::hint::black_box(acc);
        });
        // The string mask's inputs: raw quote and backslash lanes.
        let lanes: Vec<(u64, u64)> = input
            .chunks(64)
            .map(|c| {
                let mut block = [0u8; 64];
                block[..c.len()].copy_from_slice(c);
                let raw = kernel.classify(&block);
                (raw.quote, raw.backslash)
            })
            .collect();
        probe(tracer, "simdbits.string_mask", key, bytes, || {
            let mut st = StringState::new();
            let mut acc = 0u64;
            for &(q, b) in std::hint::black_box(&lanes) {
                acc ^= st.step(q, b).0;
            }
            std::hint::black_box(acc);
        });
    }
    v.insert(
        "simdbits.classify_gibps",
        tracer.gibps("simdbits.classify_stream"),
    );
    v.insert(
        "simdbits.string_mask_gibps",
        tracer.gibps("simdbits.string_mask"),
    );
}

/// Exact per-round counts from the engine's own outcomes.
#[derive(Default)]
pub struct Counts {
    pub ff: FastForwardStats,
    pub words_classified: u64,
    pub word_cache_hits: u64,
    pub matches: u64,
    pub match_bytes: u64,
}

impl Counts {
    pub fn add(&mut self, o: &StreamOutcome, match_bytes: u64) {
        for g in Group::ALL {
            self.ff.record(g, o.stats.skipped(g));
        }
        self.ff.add_total(o.stats.total());
        self.words_classified += o.words_classified as u64;
        self.word_cache_hits += o.word_cache_hits;
        self.matches += o.matches as u64;
        self.match_bytes += match_bytes;
    }

    pub fn report(&self, v: &mut Values) {
        let names = [
            "fastforward.g1_bytes",
            "fastforward.g2_bytes",
            "fastforward.g3_bytes",
            "fastforward.g4_bytes",
            "fastforward.g5_bytes",
        ];
        for (g, name) in Group::ALL.into_iter().zip(names) {
            v.insert(name, self.ff.skipped(g) as f64);
        }
        v.insert("fastforward.ratio", self.ff.overall_ratio());
        v.insert("cursor.words_classified", self.words_classified as f64);
        v.insert("cursor.word_cache_hits", self.word_cache_hits as f64);
        v.insert("lazy.matches", self.matches as f64);
        v.insert("lazy.match_bytes", self.match_bytes as f64);
    }
}

/// `jsonpath.compile_us`: mean best compile time per query.
pub fn compile(tracer: &Tracer, queries: &[&str], v: &mut Values) {
    for (k, q) in queries.iter().enumerate() {
        probe(tracer, "jsonpath.compile", k as u32, 0, || {
            std::hint::black_box(jsonski::JsonSki::compile(q).expect("benchmark queries parse"));
        });
    }
    v.insert(
        "jsonpath.compile_us",
        tracer.best_ns("jsonpath.compile") / queries.len().max(1) as f64 / 1e3,
    );
}

/// Match delivery for one query over `records`: a counting sink, then a
/// byte-hashing one, each inside its own span. Returns the matches.
pub fn delivery(tracer: &Tracer, key: u32, eng: &JsonSki, records: &[&[u8]]) -> u64 {
    let bytes = records.iter().map(|r| r.len() as u64).sum();
    let mut matches = 0;
    probe(tracer, "lazy.count_sink", key, bytes, || {
        matches = records
            .iter()
            .map(|r| eng.count(r).expect("verified above") as u64)
            .sum();
    });
    probe(tracer, "lazy.hash_sink", key, bytes, || {
        let mut d = Digest::default();
        for r in records {
            eng.run(r, |m| d.push(m.bytes())).expect("verified above");
        }
        std::hint::black_box(d);
    });
    matches
}

/// `lazy.deliver_ns_per_match` from the spans [`delivery`] recorded.
pub fn report_delivery(tracer: &Tracer, matches: u64, v: &mut Values) {
    let extra = tracer.best_ns("lazy.hash_sink") - tracer.best_ns("lazy.count_sink");
    v.insert("lazy.deliver_ns_per_match", extra / matches.max(1) as f64);
}

/// `validate.gibps`: `validate_record` over each input's records.
pub fn validate(tracer: &Tracer, inputs: &[Vec<&[u8]>], v: &mut Values) {
    for (k, records) in inputs.iter().enumerate() {
        let bytes = records.iter().map(|r| r.len() as u64).sum();
        probe(tracer, "validate.validate_record", k as u32, bytes, || {
            for r in records {
                std::hint::black_box(jsonski::validate_record(r));
            }
        });
    }
    v.insert("validate.gibps", tracer.gibps("validate.validate_record"));
}

/// The index layer over `inputs` and their prebuilt `indexes`: build and
/// verify rates and the size ratio, plus save and load times when
/// `save_to` names a scratch file.
pub fn index(
    tracer: &Tracer,
    inputs: &[&[u8]],
    indexes: &[StructuralIndex],
    save_to: Option<&Path>,
    v: &mut Values,
) {
    let digest = index::config_digest(&EngineConfig::default());
    let (mut idx_bytes, mut in_bytes) = (0u64, 0u64);
    for (k, (input, idx)) in inputs.iter().zip(indexes).enumerate() {
        let (key, bytes) = (k as u32, input.len() as u64);
        probe(tracer, "index.build", key, bytes, || {
            std::hint::black_box(StructuralIndex::build(input, digest).expect("splits"));
        });
        probe(tracer, "index.verify", key, bytes, || {
            idx.verify(input, digest).expect("fresh index verifies");
        });
        if let Some(path) = save_to {
            probe(tracer, "index.save", key, bytes, || {
                idx.save(path).expect("index saves");
            });
            probe(tracer, "index.load", key, bytes, || {
                std::hint::black_box(StructuralIndex::load(path, input, digest).expect("loads"));
            });
            v.insert("index.save_ms", tracer.best_ns("index.save") / 1e6);
            v.insert("index.load_ms", tracer.best_ns("index.load") / 1e6);
        }
        idx_bytes += idx.size_bytes() as u64;
        in_bytes += bytes;
    }
    v.insert("index.build_gibps", tracer.gibps("index.build"));
    v.insert("index.verify_gibps", tracer.gibps("index.verify"));
    v.insert(
        "index.size_ratio",
        idx_bytes as f64 / in_bytes.max(1) as f64,
    );
}

/// `multi.saving_pct`: the `MultiQuery` passes against the two
/// single-query passes they replace, from the sampled times `t`.
pub fn multi_saving(
    t: &BTreeMap<&str, f64>,
    queries: &[Query],
    pairs: &[(usize, usize)],
    v: &mut Values,
) {
    let (mut multi, mut single) = (0.0, 0.0);
    for &(a, b) in pairs {
        let (a, b) = (queries[a].id, queries[b].id);
        multi += t[format!("multi/{a}+{b}").as_str()];
        single += t[format!("inline/{a}").as_str()] + t[format!("inline/{b}").as_str()];
    }
    v.insert("multi.saving_pct", 100.0 * share(multi, single));
}

/// `1 - a/b` guarded against an empty denominator.
pub fn share(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        1.0 - a / b
    } else {
        0.0
    }
}
