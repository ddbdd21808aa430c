//! The seven experiment scenarios (one per paper table/figure).

use std::time::Duration;

use datagen::{Dataset, GenConfig};
use jsonpath::Path;

use crate::engines::{all_engines, ParallelPisonEngine};
use crate::parallel::{count_records_parallel, SegmentEngine, SegmentedRunner};
use crate::report::{mib, pct, secs, time, Table};
use crate::{alloc, engines::Engine, seed, target_bytes, thread_count};

/// One dataset/query pair of the paper's Table 5.
#[derive(Clone, Debug)]
pub struct Case {
    /// The dataset the query runs on.
    pub dataset: Dataset,
    /// Query id (e.g. `TT1`).
    pub id: &'static str,
    /// The JSONPath text.
    pub query: &'static str,
    /// The compiled path.
    pub path: Path,
    /// Whether the query only applies to the single-large-record form.
    pub large_only: bool,
}

/// All twelve cases in the paper's order.
pub fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for ds in Dataset::all() {
        for (id, query) in ds.queries() {
            out.push(Case {
                dataset: ds,
                id,
                query,
                path: query.parse().expect("paper query parses"),
                large_only: ds.large_only_queries().contains(&id),
            });
        }
    }
    out
}

fn gen_cfg() -> GenConfig {
    GenConfig {
        target_bytes: target_bytes(),
        seed: seed(),
    }
}

fn banner(title: &str) {
    println!("\n=== {title} ===");
    println!(
        "(datasets ~{} MiB each; REPRO_MB to change; seed {})\n",
        target_bytes() / (1024 * 1024),
        seed()
    );
}

/// Table 4: structural statistics of the synthetic datasets, next to the
/// paper's (1 GB-scale) figures for shape comparison.
pub fn table4() {
    banner("Table 4: dataset statistics (synthetic)");
    // Paper values: (#objects, #arrays, #attrs, #prims, #records, depth).
    let paper: &[(&str, &str)] = &[
        (
            "TT",
            "2.39M obj, 2.29M ary, 26.5M attr, 24.3M prim, 150K sub, depth 11",
        ),
        (
            "BB",
            "1.91M obj, 4.88M ary, 40.7M attr, 35.8M prim, 230K sub, depth 7",
        ),
        (
            "GMD",
            "10.3M obj, 43K ary, 29.0M attr, 21.0M prim, 4.44K sub, depth 9",
        ),
        (
            "NSPL",
            "613 obj, 3.50M ary, 1.66K attr, 84.2M prim, 1.74M sub, depth 9",
        ),
        (
            "WM",
            "333K obj, 34K ary, 8.19M attr, 9.92K prim, 275K sub, depth 4",
        ),
        (
            "WP",
            "17.3M obj, 6.53M ary, 53.2M attr, 35.0M prim, 137K sub, depth 12",
        ),
    ];
    let mut t = Table::new(&[
        "Data", "MiB", "#objects", "#arrays", "#attr", "#prim", "#sub", "depth",
    ]);
    for ds in Dataset::all() {
        let large = ds.generate_large(&gen_cfg());
        let st = datagen::structural_stats(large.bytes());
        let small = ds.generate_small(&gen_cfg());
        t.row(vec![
            ds.name().into(),
            mib(large.bytes().len()),
            st.objects.to_string(),
            st.arrays.to_string(),
            st.attributes.to_string(),
            st.primitives.to_string(),
            small.records().len().to_string(),
            st.depth.to_string(),
        ]);
    }
    t.print();
    println!("\nPaper (1 GB scale), for shape comparison:");
    for (name, desc) in paper {
        println!("  {name:5} {desc}");
    }
    // Table 5 companion: per-query match counts on the synthetic data,
    // validated across all engines by fig10.
    println!("\nTable 5 companion: match counts on the synthetic datasets");
    let mut t5 = Table::new(&[
        "ID",
        "Query",
        "#matches (synthetic)",
        "#matches (paper, 1GB)",
    ]);
    let paper_matches: &[(&str, &str)] = &[
        ("TT1", "88,881"),
        ("TT2", "150,135"),
        ("BB1", "459,332"),
        ("BB2", "8,857"),
        ("GMD1", "1,716,752"),
        ("GMD2", "270"),
        ("NSPL1", "44"),
        ("NSPL2", "3,509,764"),
        ("WM1", "15,892"),
        ("WM2", "272,499"),
        ("WP1", "15,603"),
        ("WP2", "35"),
    ];
    for case in cases() {
        let data = case.dataset.generate_large(&gen_cfg());
        let engine = jsonski::JsonSki::new(case.path.clone());
        let n = engine.count(data.bytes()).expect("valid data");
        let paper_n = paper_matches
            .iter()
            .find(|(id, _)| *id == case.id)
            .map(|(_, n)| *n)
            .unwrap_or("-");
        t5.row(vec![
            case.id.into(),
            case.query.into(),
            n.to_string(),
            paper_n.into(),
        ]);
    }
    t5.print();
}

/// Figure 10: performance on a single large record, all engines plus the
/// speculative-parallel JPStream(16)/Pison(16) configurations.
pub fn fig10() {
    banner("Figure 10: single large record, total execution time (s)");
    let threads = thread_count();
    let mut t = Table::new(&[
        "Query",
        "#matches",
        "JPStream",
        "RapidJSON",
        "simdjson",
        "Pison",
        "JSONSki",
        &format!("JPStream({threads})"),
        &format!("Pison({threads})"),
        &format!("JSONSki({threads})*"),
    ]);
    let mut speedup_jp = Vec::new();
    let mut speedup_simd = Vec::new();
    let mut speedup_pison = Vec::new();
    for case in cases() {
        let data = case.dataset.generate_large(&gen_cfg());
        let record = data.bytes();
        let engines = all_engines(&case.path);
        let mut times = Vec::new();
        let mut counts = Vec::new();
        for e in &engines {
            let (d, n) = time(|| e.count(record).expect("engines accept generated data"));
            times.push(d);
            counts.push(n);
        }
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "{}: engines disagree: {counts:?}",
            case.id
        );
        // JPStream(16): segmented speculative runner (serial fallback when
        // the query exposes no array to split at, e.g. NSPL1).
        let (jp16, n_jp16) = match SegmentedRunner::new(&case.path) {
            Some(runner) => {
                let (d, n) = time(|| runner.count(record, threads).expect("valid"));
                (d, n)
            }
            None => {
                let e = jpstream::JpStream::new(case.path.clone());
                time(|| e.count(record).expect("valid"))
            }
        };
        assert_eq!(
            n_jp16, counts[0],
            "{}: JPStream({threads}) diverges",
            case.id
        );
        // Pison(16): speculative parallel index construction.
        let p16 = ParallelPisonEngine::new(&case.path, threads);
        let (pison16, n_p16) = time(|| p16.count(record).expect("valid"));
        assert_eq!(n_p16, counts[0], "{}: Pison({threads}) diverges", case.id);
        // JSONSki(16): the speculation the paper lists as future work
        // ("we are not aware of any parts of its design prevent it from
        // adopting speculation optimization").
        let (ski16, n_s16) = match SegmentedRunner::with_engine(&case.path, SegmentEngine::JsonSki)
        {
            Some(runner) => time(|| runner.count(record, threads).expect("valid")),
            None => {
                let e = jsonski::JsonSki::new(case.path.clone());
                time(|| e.count(record).expect("valid"))
            }
        };
        assert_eq!(n_s16, counts[0], "{}: JSONSki({threads}) diverges", case.id);
        let ski = times[4];
        speedup_jp.push(times[0].as_secs_f64() / ski.as_secs_f64());
        speedup_simd.push(times[2].as_secs_f64() / ski.as_secs_f64());
        speedup_pison.push(times[3].as_secs_f64() / ski.as_secs_f64());
        t.row(vec![
            case.id.into(),
            counts[0].to_string(),
            secs(times[0]),
            secs(times[1]),
            secs(times[2]),
            secs(times[3]),
            secs(ski),
            secs(jp16),
            secs(pison16),
            secs(ski16),
        ]);
    }
    t.print();
    let gm = |v: &[f64]| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp();
    println!("\n* JSONSki(N) = segmented speculative parallelism, the paper's stated future work.");
    println!("Geomean speedup of JSONSki (serial): {:.1}x over JPStream (paper: 12.3x), {:.1}x over simdjson (paper: 4.8x), {:.1}x over Pison (paper: 3.1x)",
        gm(&speedup_jp), gm(&speedup_simd), gm(&speedup_pison));
}

/// Shared small-records runner for Figures 11 and 12.
fn small_records(threads: usize) {
    let mut t = Table::new(&[
        "Query",
        "#matches",
        "JPStream",
        "RapidJSON",
        "simdjson",
        "Pison",
        "JSONSki",
    ]);
    let mut per_engine_totals = [Duration::ZERO; 5];
    for case in cases() {
        if case.large_only {
            continue; // the paper excludes NSPL1 and WP2 here
        }
        let data = case.dataset.generate_small(&gen_cfg());
        let engines = all_engines(&case.path);
        let mut row = vec![case.id.to_string(), String::new()];
        let mut first_count = None;
        for (i, e) in engines.iter().enumerate() {
            let (d, n) = time(|| {
                count_records_parallel(e.as_ref(), data.bytes(), data.records(), threads)
                    .expect("engines accept generated data")
            });
            per_engine_totals[i] += d;
            match first_count {
                None => first_count = Some(n),
                Some(c) => assert_eq!(c, n, "{}: {} diverges", case.id, e.name()),
            }
            row.push(secs(d));
        }
        row[1] = first_count.unwrap().to_string();
        t.row(row);
    }
    t.print();
    println!(
        "\nTotal across queries (s): JPStream {} | RapidJSON {} | simdjson {} | Pison {} | JSONSki {}",
        secs(per_engine_totals[0]),
        secs(per_engine_totals[1]),
        secs(per_engine_totals[2]),
        secs(per_engine_totals[3]),
        secs(per_engine_totals[4]),
    );
}

/// Figure 11: sequential performance on a series of small records.
pub fn fig11() {
    banner("Figure 11: small records, single thread, time (s)");
    small_records(1);
}

/// Figure 12: parallel performance on a series of small records.
pub fn fig12() {
    let threads = thread_count();
    banner(&format!(
        "Figure 12: small records, {threads} threads, time (s)"
    ));
    println!(
        "NOTE: this host exposes {} CPU core(s); with a single core the\n\
         thread pool is functionally exercised but wall-clock speedup over\n\
         Figure 11 cannot manifest (paper machine: 16 cores).\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    small_records(threads);
}

/// Figure 13: peak memory footprint on a single large record.
///
/// Requires the counting allocator to be installed (the `fig13` binary does
/// this); without it all deltas read as zero.
pub fn fig13() {
    banner("Figure 13: peak extra heap over the input buffer (MiB), large record");
    let mut t = Table::new(&[
        "Query",
        "input",
        "JPStream",
        "RapidJSON",
        "simdjson",
        "Pison",
        "JSONSki",
    ]);
    for case in cases() {
        let data = case.dataset.generate_large(&gen_cfg());
        let record = data.bytes();
        let mut row = vec![case.id.to_string(), mib(record.len())];
        let engines = all_engines(&case.path);
        for e in &engines {
            alloc::reset_peak();
            let before = alloc::current_bytes();
            let n = e.count(record).expect("valid");
            std::hint::black_box(n);
            let peak = alloc::peak_bytes().saturating_sub(before);
            row.push(mib(peak));
        }
        t.row(row);
    }
    t.print();
    println!(
        "\n(The streaming engines' extra heap should be ~0: they keep only\n\
         cursor state. The paper's Figure 13 reports total footprints of\n\
         ~1 GB for streaming vs 2-3 GB for the preprocessing engines at\n\
         1 GB input — i.e. 1-2 GB of *extra* heap, matching this table's\n\
         shape at the scaled-down input size.)"
    );
}

/// Figure 14: input-size scalability on query BB1.
pub fn fig14() {
    banner("Figure 14: scalability with input size (BB1), time (s)");
    let case = cases().into_iter().find(|c| c.id == "BB1").expect("BB1");
    let base = target_bytes();
    let mut t = Table::new(&[
        "MiB",
        "JPStream",
        "RapidJSON",
        "simdjson",
        "Pison",
        "JSONSki",
    ]);
    for mult in [1usize, 2, 4, 8] {
        let cfg = GenConfig {
            target_bytes: base * mult / 4,
            seed: seed(),
        };
        let data = case.dataset.generate_large(&cfg);
        let record = data.bytes();
        let mut row = vec![mib(record.len())];
        for e in all_engines(&case.path) {
            let (d, n) = time(|| e.count(record).expect("valid"));
            std::hint::black_box(n);
            row.push(secs(d));
        }
        t.row(row);
    }
    t.print();
    println!(
        "\n(Execution time should grow linearly for every engine; at the\n\
         paper's 72 GB point the preprocessing engines exhaust memory while\n\
         the streaming engines keep only the input buffer.)"
    );
}

/// Table 6: fast-forward ratios by function group.
pub fn table6() {
    banner("Table 6: fast-forward ratios by group, large record");
    let paper_overall: &[(&str, &str)] = &[
        ("TT1", "99.44%"),
        ("TT2", "99.07%"),
        ("BB1", "98.49%"),
        ("BB2", "97.99%"),
        ("GMD1", "97.41%"),
        ("GMD2", "99.99%"),
        ("NSPL1", "99.99%"),
        ("NSPL2", "95.94%"),
        ("WM1", "99.77%"),
        ("WM2", "98.79%"),
        ("WP1", "99.33%"),
        ("WP2", "99.99%"),
    ];
    let mut t = Table::new(&[
        "Query",
        "G1",
        "G2",
        "G3",
        "G4",
        "G5",
        "Overall",
        "Paper overall",
    ]);
    for case in cases() {
        let data = case.dataset.generate_large(&gen_cfg());
        let ski = jsonski::JsonSki::new(case.path.clone());
        // The table is derived from the live metrics registry — the same
        // counters `--metrics` exposes — not from a side estimate.
        let metrics = jsonski::Metrics::new();
        let mut sink = jsonski::CountSink::default();
        let outcome =
            jsonski::Evaluate::evaluate_metered(&ski, data.bytes(), 0, &mut sink, Some(&metrics));
        assert!(
            matches!(outcome, jsonski::RecordOutcome::Complete { .. }),
            "{}: generated record failed to evaluate: {outcome:?}",
            case.id
        );
        let snap = metrics.snapshot();
        // Cross-check: the legacy streaming-pass estimate must agree with
        // the live counters to within one percentage point.
        let est = ski
            .run(data.bytes(), |_| {})
            .expect("valid")
            .overall_ratio();
        let live = snap.overall_ff_ratio();
        assert!(
            (est - live).abs() <= 0.01,
            "{}: live ff ratio {live:.4} diverges from estimate {est:.4}",
            case.id
        );
        use jsonski::Group::*;
        let paper = paper_overall
            .iter()
            .find(|(id, _)| *id == case.id)
            .map(|(_, p)| *p)
            .unwrap_or("-");
        t.row(vec![
            case.id.into(),
            pct(snap.ff_ratio(G1)),
            pct(snap.ff_ratio(G2)),
            pct(snap.ff_ratio(G3)),
            pct(snap.ff_ratio(G4)),
            pct(snap.ff_ratio(G5)),
            pct(live),
            paper.into(),
        ]);
    }
    t.print();
}

/// Quick self-check used by integration tests: every engine agrees on every
/// query over small versions of every dataset.
pub fn verify_engine_agreement(bytes_per_dataset: usize) {
    let cfg = GenConfig {
        target_bytes: bytes_per_dataset,
        seed: seed(),
    };
    for case in cases() {
        let data = case.dataset.generate_large(&cfg);
        let record = data.bytes();
        let reference = domparser::DomQuery::new(case.path.clone())
            .count(record)
            .expect("valid");
        for e in [
            Box::new(jpstream::JpStream::new(case.path.clone())) as Box<dyn Engine>,
            Box::new(tapeparser::TapeQuery::new(case.path.clone())),
            Box::new(pison::PisonQuery::new(case.path.clone())),
            Box::new(jsonski::JsonSki::new(case.path.clone())),
        ] {
            assert_eq!(
                e.count(record).expect("valid"),
                reference,
                "{}: {} disagrees with the DOM reference",
                case.id,
                e.name()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_cases_compile() {
        let cs = cases();
        assert_eq!(cs.len(), 12);
        assert_eq!(cs.iter().filter(|c| c.large_only).count(), 2);
    }

    #[test]
    fn engines_agree_on_all_cases_small_scale() {
        verify_engine_agreement(96 * 1024);
    }

    #[test]
    fn segmented_runner_agrees_on_every_splittable_case() {
        let cfg = GenConfig {
            target_bytes: 64 * 1024,
            seed: 99,
        };
        for case in cases() {
            let Some(runner) = SegmentedRunner::new(&case.path) else {
                continue;
            };
            let data = case.dataset.generate_large(&cfg);
            let serial = jsonski::JsonSki::new(case.path.clone())
                .count(data.bytes())
                .expect("valid");
            let parallel = runner.count(data.bytes(), 4).expect("valid");
            assert_eq!(serial, parallel, "{}", case.id);
        }
    }
}
