//! Compact Criterion renditions of the paper's timing figures. The full
//! tables (all twelve queries, larger inputs, match-count validation) are
//! produced by the `harness` binaries (`fig10` ... `fig14`); these benches
//! give statistically sampled versions of representative rows so
//! `cargo bench` touches every figure.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use datagen::{Dataset, GenConfig};
use harness::all_engines;
use harness::engines::ParallelPisonEngine;
use harness::parallel::{count_records_parallel, SegmentedRunner};
use harness::Engine as _;
use jsonpath::Path;

const MIB: usize = 1024 * 1024;

fn cfg(bytes: usize) -> GenConfig {
    GenConfig {
        target_bytes: bytes,
        seed: 0x5eed_0001,
    }
}

/// Figure 10 (single large record): TT1 and WM2 rows, all five engines plus
/// the parallel JPStream/Pison configurations.
fn fig10_rows(c: &mut Criterion) {
    for (ds, id, query) in [
        (Dataset::Tt, "TT1", "$[*].en.urls[*].url"),
        (Dataset::Wm, "WM2", "$.it[*].nm"),
    ] {
        let data = ds.generate_large(&cfg(2 * MIB));
        let record = data.bytes();
        let path: Path = query.parse().unwrap();
        let mut g = c.benchmark_group(format!("fig10_{id}"));
        g.throughput(Throughput::Bytes(record.len() as u64));
        g.sample_size(10);
        for engine in all_engines(&path) {
            g.bench_with_input(
                BenchmarkId::from_parameter(engine.name()),
                &record,
                |b, record| b.iter(|| engine.count(record).unwrap()),
            );
        }
        if let Some(runner) = SegmentedRunner::new(&path) {
            g.bench_function("JPStream(16)", |b| {
                b.iter(|| runner.count(record, 16).unwrap())
            });
        }
        let p16 = ParallelPisonEngine::new(&path, 16);
        g.bench_function("Pison(16)", |b| b.iter(|| p16.count(record).unwrap()));
        g.finish();
    }
}

/// Figures 11 and 12 (small records, serial and 16 threads): BB1 row.
fn fig11_fig12_rows(c: &mut Criterion) {
    let data = Dataset::Bb.generate_small(&cfg(2 * MIB));
    let path: Path = "$.pd[*].cp[1:3].id".parse().unwrap();
    for (label, threads) in [("fig11_BB1_serial", 1usize), ("fig12_BB1_16threads", 16)] {
        let mut g = c.benchmark_group(label);
        g.throughput(Throughput::Bytes(data.bytes().len() as u64));
        g.sample_size(10);
        for engine in all_engines(&path) {
            g.bench_with_input(
                BenchmarkId::from_parameter(engine.name()),
                &data,
                |b, data| {
                    b.iter(|| {
                        count_records_parallel(
                            engine.as_ref(),
                            data.bytes(),
                            data.records(),
                            threads,
                        )
                        .unwrap()
                    })
                },
            );
        }
        g.finish();
    }
}

/// Figure 14 (input-size scalability, BB1): JSONSki and the DOM baseline at
/// three sizes; linearity shows as constant throughput.
fn fig14_scaling(c: &mut Criterion) {
    let path: Path = "$.pd[*].cp[1:3].id".parse().unwrap();
    let ski = jsonski::JsonSki::new(path.clone());
    let mut g = c.benchmark_group("fig14_bb1_scaling");
    g.sample_size(10);
    for mib in [1usize, 2, 4] {
        let data = Dataset::Bb.generate_large(&cfg(mib * MIB));
        let record = data.bytes().to_vec();
        g.throughput(Throughput::Bytes(record.len() as u64));
        g.bench_with_input(
            BenchmarkId::new("JSONSki", format!("{mib}MiB")),
            &record,
            |b, record| b.iter(|| ski.count(record).unwrap()),
        );
        g.bench_with_input(
            BenchmarkId::new("RapidJSON", format!("{mib}MiB")),
            &record,
            |b, record| b.iter(|| domparser::Dom::parse(record).unwrap().count(&path)),
        );
    }
    g.finish();
}

/// Overhead guard for the observability layer: the disabled-registry
/// `evaluate_metered` path must track plain `evaluate` to within 2% (the
/// acceptance bound); the live-registry column shows the enabled cost.
fn metrics_overhead_guard(c: &mut Criterion) {
    use jsonski::Evaluate as _;
    let data = Dataset::Tt.generate_large(&cfg(2 * MIB));
    let record = data.bytes();
    let path: Path = "$[*].en.urls[*].url".parse().unwrap();
    let ski = jsonski::JsonSki::new(path);
    let disabled = jsonski::Metrics::disabled();
    let live = jsonski::Metrics::new();
    let mut g = c.benchmark_group("metrics_guard_TT1");
    g.throughput(Throughput::Bytes(record.len() as u64));
    g.sample_size(10);
    g.bench_function("plain", |b| b.iter(|| ski.count(record).unwrap()));
    g.bench_function("metered_disabled", |b| {
        b.iter(|| {
            let mut sink = jsonski::CountSink::default();
            ski.evaluate_metered(record, 0, &mut sink, &disabled)
        })
    });
    g.bench_function("metered_live", |b| {
        b.iter(|| {
            let mut sink = jsonski::CountSink::default();
            ski.evaluate_metered(record, 0, &mut sink, &live)
        })
    });
    g.finish();
}

/// Overhead guard for the resource guards: evaluation under the default
/// `ResourceLimits` (no deadline — the depth check rides the existing
/// depth bump, and the unset deadline is a never-taken branch) must track
/// the unbounded configuration to within noise. A regression here means a
/// limit check leaked onto the hot path.
fn limits_overhead_guard(c: &mut Criterion) {
    use jsonski::Evaluate as _;
    let data = Dataset::Tt.generate_large(&cfg(2 * MIB));
    let record = data.bytes();
    let path: Path = "$[*].en.urls[*].url".parse().unwrap();
    let default_limits = jsonski::JsonSki::new(path.clone());
    let unbounded = jsonski::JsonSki::new(path).with_limits(jsonski::ResourceLimits::unbounded());
    let mut g = c.benchmark_group("limits_guard_TT1");
    g.throughput(Throughput::Bytes(record.len() as u64));
    g.sample_size(10);
    g.bench_function("default_limits", |b| {
        b.iter(|| {
            let mut sink = jsonski::CountSink::default();
            default_limits.evaluate(record, 0, &mut sink)
        })
    });
    g.bench_function("unbounded", |b| {
        b.iter(|| {
            let mut sink = jsonski::CountSink::default();
            unbounded.evaluate(record, 0, &mut sink)
        })
    });
    g.finish();
}

/// Overhead guard for adversarial-input hardening. Two bounds:
///
/// * `permissive` must track the seed configuration exactly — Permissive
///   mode allocates no validator, so its only cost is a never-taken
///   `Option` branch at the chokepoints (acceptance: within ±2% noise of
///   previous baselines);
/// * `strict` pays streaming validation on every classified word and must
///   stay under 10% overhead on clean input — the fast path skips the
///   scalar DFA for blocks with no backslashes, no high bytes, and no
///   carried-over string state, which is the common case by construction.
fn strict_guard(c: &mut Criterion) {
    use jsonski::Evaluate as _;
    let data = Dataset::Tt.generate_large(&cfg(2 * MIB));
    let record = data.bytes();
    let path: Path = "$[*].en.urls[*].url".parse().unwrap();
    let permissive = jsonski::JsonSki::new(path.clone());
    let strict =
        jsonski::JsonSki::new(path).with_config(jsonski::EngineConfig::builder().strict().build());
    let mut g = c.benchmark_group("strict_guard_TT1");
    g.throughput(Throughput::Bytes(record.len() as u64));
    g.sample_size(10);
    g.bench_function("permissive", |b| {
        b.iter(|| {
            let mut sink = jsonski::CountSink::default();
            permissive.evaluate(record, 0, &mut sink)
        })
    });
    g.bench_function("strict", |b| {
        b.iter(|| {
            let mut sink = jsonski::CountSink::default();
            strict.evaluate(record, 0, &mut sink)
        })
    });
    g.finish();
}

/// Overhead guard for the on-demand extraction API: `lazy_match_sink`
/// delivers matches as lazy [`jsonski::Match`] handles through `FnSink` —
/// the handle is a `Copy` of (index, record pointer, span), so building it
/// adds no per-match allocation. The `typed_decode` column shows the
/// opt-in cost of actually decoding each match, and `get_many` shows the
/// pointer-tree batch extractor on the same record.
fn extract_guard(c: &mut Criterion) {
    use std::ops::ControlFlow;

    use jsonski::Evaluate as _;
    let data = Dataset::Tt.generate_large(&cfg(2 * MIB));
    let record = data.bytes();
    let path: Path = "$[*].en.urls[*].url".parse().unwrap();
    let ski = jsonski::JsonSki::new(path);
    let mut g = c.benchmark_group("extract_guard_TT1");
    g.throughput(Throughput::Bytes(record.len() as u64));
    g.sample_size(10);
    g.bench_function("lazy_match_sink", |b| {
        b.iter(|| {
            let mut total = 0usize;
            let mut sink = jsonski::FnSink::new(|m: jsonski::Match<'_>| {
                total += m.bytes().len();
                ControlFlow::Continue(())
            });
            ski.evaluate(record, 0, &mut sink);
            total
        })
    });
    g.bench_function("typed_decode", |b| {
        b.iter(|| {
            let mut total = 0usize;
            let mut sink = jsonski::FnSink::new(|m: jsonski::Match<'_>| {
                total += m.value().as_str().map_or(0, |s| s.len());
                ControlFlow::Continue(())
            });
            ski.evaluate(record, 0, &mut sink);
            total
        })
    });
    let pointers = ["/0/en/urls/0/url", "/0/ct", "/1/en/urls/0/url", "/1/ct"];
    let ex = jsonski::Extractor::compile(&pointers).unwrap();
    g.bench_function("get_many", |b| {
        b.iter(|| {
            let found = ex.extract(record).unwrap();
            found
                .values()
                .iter()
                .flatten()
                .map(|v| v.as_raw().len())
                .sum::<usize>()
        })
    });
    g.finish();
}

/// Overhead guard for the crash-safety layer: a pipeline run with an
/// armed-but-untripped cancellation token, or with a checkpoint cadence
/// that never fires mid-run, must track the plain pipeline to within
/// noise. A regression here means a cancellation check or checkpoint
/// bookkeeping leaked onto the per-record hot path.
fn crash_guard(c: &mut Criterion) {
    let mut stream = Vec::new();
    for i in 0..20_000u32 {
        stream.extend_from_slice(format!("{{\"id\": {i}, \"pad\": [{i}, {i}, {i}]}}\n").as_bytes());
    }
    let path: Path = "$.id".parse().unwrap();
    let ski = jsonski::JsonSki::new(path);
    let mut g = c.benchmark_group("crash_guard_pipeline");
    g.throughput(Throughput::Bytes(stream.len() as u64));
    g.sample_size(10);
    g.bench_function("plain", |b| {
        b.iter(|| {
            let mut source = jsonski::SliceRecords::new(&stream);
            let mut sink = jsonski::CountSink::default();
            jsonski::Pipeline::new()
                .workers(4)
                .run(&ski, &mut source, &mut sink)
                .unwrap()
        })
    });
    g.bench_function("cancel_token_armed", |b| {
        let token = jsonski::CancellationToken::new();
        b.iter(|| {
            let mut source = jsonski::SliceRecords::new(&stream);
            let mut sink = jsonski::CountSink::default();
            jsonski::Pipeline::new()
                .workers(4)
                .cancel_token(token.clone())
                .run(&ski, &mut source, &mut sink)
                .unwrap()
        })
    });
    g.bench_function("checkpoint_cadence_idle", |b| {
        let cadence = jsonski::CheckpointCadence::default()
            .every_records(u64::MAX)
            .every_bytes(u64::MAX);
        b.iter(|| {
            let mut source = jsonski::SliceRecords::new(&stream);
            let mut sink = jsonski::CountSink::default();
            jsonski::Pipeline::new()
                .workers(4)
                .checkpoints(cadence)
                .run(&ski, &mut source, &mut sink)
                .unwrap()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    fig10_rows,
    fig11_fig12_rows,
    fig14_scaling,
    metrics_overhead_guard,
    limits_overhead_guard,
    extract_guard,
    strict_guard,
    crash_guard
);
criterion_main!(benches);
