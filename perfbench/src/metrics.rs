//! The metric catalogue (names and units, as in `BENCHMARK.json`) and the
//! end-to-end computation every workload shares.

use crate::stats::{
    fastest_tenth, fastest_twentieth, gibps, median, quantile, Class, Input, Kind, Samples,
};
use std::collections::BTreeMap;

/// End-to-end metrics, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 13] = [
    ("throughput_gibps", "GiB/s"),
    ("sparse_gibps", "GiB/s"),
    ("dense_gibps", "GiB/s"),
    ("multi_gibps", "GiB/s"),
    ("strict_gibps", "GiB/s"),
    ("qps", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("indexed_p50_ms", "ms"),
    ("inline_p50_ms", "ms"),
    ("stream_p50_ms", "ms"),
    ("peak_heap_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by a traced run. A layer the workload does
/// not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("simdbits.classify_gibps", "GiB/s"),
    ("simdbits.string_mask_gibps", "GiB/s"),
    ("cursor.classify_share", "ratio"),
    ("cursor.words_classified", "count"),
    ("cursor.word_cache_hits", "count"),
    ("fastforward.g1_bytes", "bytes"),
    ("fastforward.g2_bytes", "bytes"),
    ("fastforward.g3_bytes", "bytes"),
    ("fastforward.g4_bytes", "bytes"),
    ("fastforward.g5_bytes", "bytes"),
    ("fastforward.ratio", "ratio"),
    ("fastforward.traverse_gibps", "GiB/s"),
    ("jsonpath.compile_us", "us"),
    ("lazy.matches", "count"),
    ("lazy.match_bytes", "bytes"),
    ("lazy.deliver_ns_per_match", "ns"),
    ("records.split_gibps", "GiB/s"),
    ("reader.read_gibps", "GiB/s"),
    ("records.count", "count"),
    ("pipeline.overhead_pct", "%"),
    ("pipeline.j2_queue_stalls", "count"),
    ("multi.saving_pct", "%"),
    ("validate.gibps", "GiB/s"),
    ("index.build_gibps", "GiB/s"),
    ("index.save_ms", "ms"),
    ("index.load_ms", "ms"),
    ("index.verify_gibps", "GiB/s"),
    ("index.size_ratio", "ratio"),
    ("index.hit_ratio", "ratio"),
    ("serve.ping_us", "us"),
    ("protocol.encode_frame_gibps", "GiB/s"),
    ("serve.indexed_eval_share", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("mem.peak_bytes", "bytes"),
    ("mem.evictions", "count"),
    ("serve.streamed", "count"),
    ("trace.spans", "count"),
    ("trace.throughput_gibps", "GiB/s"),
    ("trace.qps", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// Named metric values of one run.
pub type Values = BTreeMap<&'static str, f64>;

fn is_query(k: Kind) -> bool {
    matches!(k, Kind::Inline | Kind::Indexed | Kind::Stream)
}

/// Per-input times under estimator `est`, in nanoseconds.
pub fn input_times(inputs: &[Input<'_>], samples: &Samples, est: fn(&[u64]) -> f64) -> Vec<f64> {
    (0..inputs.len())
        .map(|i| {
            if samples.ns[i].is_empty() {
                0.0
            } else {
                est(&samples.ns[i])
            }
        })
        .collect()
}

/// Each input's fastest-twentieth time by name, for the per-layer ratios.
pub fn times_by_name<'a>(inputs: &'a [Input<'_>], samples: &Samples) -> BTreeMap<&'a str, f64> {
    let t = input_times(inputs, samples, fastest_twentieth);
    inputs.iter().map(|i| i.name.as_str()).zip(t).collect()
}

/// The throughput metrics under estimator `est`: `throughput_gibps`,
/// `sparse_gibps` and `dense_gibps` over the operations `headline` picks,
/// and `multi_gibps` and `strict_gibps`.
pub fn throughputs(
    inputs: &[Input<'_>],
    samples: &Samples,
    headline: &dyn Fn(&Input<'_>) -> bool,
    est: fn(&[u64]) -> f64,
) -> Values {
    let t = input_times(inputs, samples, est);
    let g = |pick: &dyn Fn(&Input<'_>) -> bool| gibps(inputs, &t, pick).unwrap_or(0.0);
    Values::from([
        ("throughput_gibps", g(&|i| headline(i))),
        (
            "sparse_gibps",
            g(&|i| headline(i) && i.class == Class::Sparse),
        ),
        (
            "dense_gibps",
            g(&|i| headline(i) && i.class == Class::Dense),
        ),
        ("multi_gibps", g(&|i| i.kind == Kind::Multi)),
        ("strict_gibps", g(&|i| i.kind == Kind::Strict)),
    ])
}

/// How a workload summarises its samples into end-to-end metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Summary {
    /// Each operation timed by its fastest twentieth; each request sample
    /// rescaled by its cycle's slowdown (`large_record`, `small_records`).
    Fastest,
    /// Each operation timed by its median over the whole run; each
    /// request sample rescaled by its neighbours' slowdown, and each
    /// percentile the median over [`STRETCHES`] stretches (`serve_mixed`).
    WholeRun,
}

/// How request samples are rescaled before percentiles are taken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rescale {
    AsMeasured,
    /// By the cycle's slowdown against fastest-twentieth times.
    Cycle,
    /// By the slowdown of the [`NEIGHBOURS`] samples either side, against
    /// median times.
    Neighbours,
}

/// Samples on either side of a request whose slowdown it is divided by
/// under [`Summary::WholeRun`]: nine samples, some tens of milliseconds on
/// `serve_mixed`.
const NEIGHBOURS: usize = 4;

/// Consecutive stretches of the run whose latency percentiles are taken
/// separately under [`Summary::WholeRun`], reporting their median. On a
/// shared host the hypervisor takes the CPU away from the run for up to a
/// few percent of its time (steal time), in phases of tens of seconds;
/// the requests it stalls are about one in a hundred on `serve_mixed`,
/// enough to set `p99_ms` on their own. A busy phase over two stretches
/// of five does not set it; a tail the program causes in three or more
/// does.
const STRETCHES: usize = 5;

/// The throughput metrics under the other per-input estimators, and the
/// latencies over samples left as measured, for the estimator comparison
/// in the README.
pub fn estimators(
    inputs: &[Input<'_>],
    samples: &Samples,
    headline: &dyn Fn(&Input<'_>) -> bool,
) -> Vec<(&'static str, Values)> {
    vec![
        ("median", throughputs(inputs, samples, headline, median)),
        (
            "fastest_twentieth",
            throughputs(inputs, samples, headline, fastest_twentieth),
        ),
        (
            "fastest_tenth",
            throughputs(inputs, samples, headline, fastest_tenth),
        ),
        (
            "as_measured",
            latencies(inputs, samples, Rescale::AsMeasured),
        ),
    ]
}

/// Every sample of the query operations as `(kind, ns)`, each operation
/// sampled as often as its mix weight, rescaled as `rescale` says.
fn request_samples(inputs: &[Input<'_>], samples: &Samples, rescale: Rescale) -> Vec<(Kind, u64)> {
    if rescale == Rescale::Neighbours {
        return neighbour_rescaled(inputs, samples);
    }
    let rescale = rescale == Rescale::Cycle;
    let best = input_times(inputs, samples, fastest_twentieth);
    let timed: Vec<usize> = (0..inputs.len())
        .filter(|&i| inputs[i].kind != Kind::Setup && !samples.ns[i].is_empty())
        .collect();
    let cycle = |i: usize, r: usize| {
        let c = samples.per_cycle[i];
        &samples.ns[i][r * c..(r + 1) * c]
    };
    let cycles = timed
        .iter()
        .map(|&i| samples.ns[i].len() / samples.per_cycle[i])
        .min()
        .unwrap_or(0);
    if cycles == 0 {
        return Vec::new();
    }
    let slowdown: Vec<f64> = (0..cycles)
        .map(|r| {
            let mut ratios: Vec<f64> = timed
                .iter()
                .flat_map(|&i| {
                    let b = best[i];
                    cycle(i, r).iter().map(move |&s| s as f64 / b)
                })
                .collect();
            ratios.sort_unstable_by(f64::total_cmp);
            ratios[ratios.len() / 2]
        })
        .collect();
    let mut out = Vec::new();
    for &i in timed.iter().filter(|&&i| is_query(inputs[i].kind)) {
        for (r, &slow) in slowdown.iter().enumerate() {
            let scale = if rescale { slow } else { 1.0 };
            out.extend(
                cycle(i, r)
                    .iter()
                    .map(|&s| (inputs[i].kind, (s as f64 / scale) as u64)),
            );
        }
    }
    out
}

/// Every request sample in execution order, divided by its local
/// slowdown: the median, over it and the [`NEIGHBOURS`] samples of timed
/// operations on either side, of sample time over the operation's median
/// time. A burst of host load that spans several requests slows the whole
/// window and scales out; one slow request among its neighbours does not
/// move their median, so it stays slow and the tail percentiles see it.
fn neighbour_rescaled(inputs: &[Input<'_>], samples: &Samples) -> Vec<(Kind, u64)> {
    let base = input_times(inputs, samples, median);
    let mut next = vec![0; inputs.len()];
    let mut ran = Vec::with_capacity(samples.seq.len());
    for &i in &samples.seq {
        let i = i as usize;
        let ns = samples.ns[i][next[i]];
        next[i] += 1;
        if inputs[i].kind != Kind::Setup && base[i] > 0.0 {
            ran.push((i, ns));
        }
    }
    let ratios: Vec<f64> = ran.iter().map(|&(i, ns)| ns as f64 / base[i]).collect();
    let mut window = Vec::with_capacity(2 * NEIGHBOURS + 1);
    let mut out = Vec::new();
    for (t, &(i, ns)) in ran.iter().enumerate() {
        if !is_query(inputs[i].kind) {
            continue;
        }
        window.clear();
        window.extend_from_slice(
            &ratios[t.saturating_sub(NEIGHBOURS)..(t + NEIGHBOURS + 1).min(ran.len())],
        );
        window.sort_unstable_by(f64::total_cmp);
        let slow = window[window.len() / 2];
        out.push((inputs[i].kind, (ns as f64 / slow) as u64));
    }
    out
}

/// `p50_ms`, `p99_ms` and the per-kind medians over [`request_samples`].
/// Under [`Rescale::Neighbours`] the samples are in execution order and
/// each percentile is the median of its values over [`STRETCHES`]
/// consecutive stretches of the run.
fn latencies(inputs: &[Input<'_>], samples: &Samples, rescale: Rescale) -> Values {
    let pooled = request_samples(inputs, samples, rescale);
    let stretches = if rescale == Rescale::Neighbours {
        STRETCHES
    } else {
        1
    };
    let ms = |pick: &dyn Fn(Kind) -> bool, q: f64| {
        let ns: Vec<u64> = pooled.iter().filter(|p| pick(p.0)).map(|p| p.1).collect();
        let n = stretches.min(ns.len());
        if n == 0 {
            return 0.0;
        }
        let mut per: Vec<f64> = (0..n)
            .map(|k| quantile(&ns[k * ns.len() / n..(k + 1) * ns.len() / n], q))
            .collect();
        per.sort_unstable_by(f64::total_cmp);
        per[n / 2] / 1e6
    };
    Values::from([
        ("p50_ms", ms(&|_| true, 0.5)),
        ("p99_ms", ms(&|_| true, 0.99)),
        ("indexed_p50_ms", ms(&|k| k == Kind::Indexed, 0.5)),
        ("inline_p50_ms", ms(&|k| k == Kind::Inline, 0.5)),
        ("stream_p50_ms", ms(&|k| k == Kind::Stream, 0.5)),
    ])
}

/// The end-to-end metrics of one run. `headline` picks the operations that
/// `throughput_gibps`, `sparse_gibps` and `dense_gibps` cover.
///
/// Throughputs, `qps` and `setup_s` time each operation by the estimator
/// `summary` names. Latency percentiles are taken over every request,
/// each rescaled as `summary` says (see [`request_samples`]).
pub fn end_to_end(
    inputs: &[Input<'_>],
    samples: &Samples,
    headline: &dyn Fn(&Input<'_>) -> bool,
    peak_heap_bytes: u64,
    summary: Summary,
) -> Values {
    let (est, rescale): (fn(&[u64]) -> f64, _) = match summary {
        Summary::Fastest => (fastest_twentieth, Rescale::Cycle),
        Summary::WholeRun => (median, Rescale::Neighbours),
    };
    let mut v = throughputs(inputs, samples, headline, est);
    let t = input_times(inputs, samples, est);
    let (mut ops, mut ns) = (0.0, 0.0);
    for (i, &ti) in inputs.iter().zip(&t) {
        if is_query(i.kind) {
            ops += f64::from(i.weight);
            ns += ti * f64::from(i.weight);
        }
    }
    v.insert("qps", if ns > 0.0 { ops / ns * 1e9 } else { 0.0 });
    v.extend(latencies(inputs, samples, rescale));
    v.insert(
        "peak_heap_mib",
        peak_heap_bytes as f64 / f64::from(1u32 << 20),
    );
    let setup_ns: f64 = inputs
        .iter()
        .zip(&t)
        .filter(|(i, _)| i.kind == Kind::Setup)
        .map(|(_, &ti)| ti)
        .sum();
    v.insert("setup_s", setup_ns / 1e9);
    v
}

/// Prints the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every metric of `catalogue`.
pub fn print_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[(&str, &str)],
    values: &Values,
) {
    let mut body = Vec::new();
    for &(name, unit) in catalogue {
        let v = values.get(name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        body.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Sample;

    fn input(kind: Kind) -> Input<'static> {
        Input {
            name: String::new(),
            kind,
            class: Class::Mixed,
            bytes: 1,
            weight: 1,
            run: Box::new(|| Sample { ns: 0, ok: true }),
        }
    }

    #[test]
    fn a_slow_phase_scales_out_and_a_slow_request_stays() {
        let inputs: Vec<Input<'_>> = (0..4).map(|_| input(Kind::Inline)).collect();
        // 40 cycles of four operations at 100 ns; cycles 20..40 run at
        // twice that (a slow phase), and one request of cycle 5 stalls.
        let mut ns = vec![Vec::new(); 4];
        for r in 0..40u64 {
            for (i, op) in ns.iter_mut().enumerate() {
                let slow = if r >= 20 { 2 } else { 1 };
                op.push(if r == 5 && i == 0 { 1000 } else { 100 * slow });
            }
        }
        let samples = Samples {
            ns,
            per_cycle: vec![1; 4],
            attempted: 160,
            failed: 0,
            seq: Vec::new(),
        };
        let rescaled = request_samples(&inputs, &samples, Rescale::Cycle);
        assert_eq!(rescaled.len(), 160);
        assert_eq!(rescaled.iter().filter(|s| s.1 == 100).count(), 159);
        assert!(rescaled.iter().any(|s| s.1 == 1000));
        let v = latencies(&inputs, &samples, Rescale::Cycle);
        assert_eq!(v["p50_ms"], 100.0 / 1e6);
        let raw = latencies(&inputs, &samples, Rescale::AsMeasured);
        assert_eq!(raw["p99_ms"], 200.0 / 1e6);
    }

    #[test]
    fn a_burst_scales_out_and_a_lone_stall_stays_among_neighbours() {
        let mut inputs: Vec<Input<'_>> = (0..4).map(|_| input(Kind::Stream)).collect();
        inputs.push(input(Kind::Setup));
        // 160 samples round-robin over four operations at 100 ns, with a
        // cold set-up after every 40. Samples 60..80 run at twice that (a
        // burst of host load), and sample 10 stalls.
        let (mut ns, mut seq) = (vec![Vec::new(); 5], Vec::new());
        for t in 0..160u32 {
            let i = (t % 4) as usize;
            let slow = if (60..80).contains(&t) { 2 } else { 1 };
            ns[i].push(if t == 10 { 1000 } else { 100 * slow });
            seq.push(i as u32);
            if t % 40 == 39 {
                ns[4].push(5_000);
                seq.push(4);
            }
        }
        let samples = Samples {
            ns,
            per_cycle: vec![10, 10, 10, 10, 1],
            attempted: 164,
            failed: 0,
            seq,
        };
        let rescaled = request_samples(&inputs, &samples, Rescale::Neighbours);
        assert_eq!(rescaled.len(), 160);
        assert_eq!(rescaled.iter().filter(|s| s.1 == 100).count(), 159);
        assert_eq!(rescaled[10].1, 1000);
        let v = latencies(&inputs, &samples, Rescale::Neighbours);
        assert_eq!(v["stream_p50_ms"], 100.0 / 1e6);
        let raw = latencies(&inputs, &samples, Rescale::AsMeasured);
        assert_eq!(raw["p99_ms"], 200.0 / 1e6);
    }

    /// 500 requests at 100 ns, in five stretches of 100, where every
    /// 25th request of the stretches in `stalled` stalls at 1000 ns.
    fn stalls(stalled: &[u32]) -> Samples {
        let mut ns = vec![Vec::new()];
        for t in 0..500u32 {
            let stall = stalled.contains(&(t / 100)) && t % 25 == 0;
            ns[0].push(if stall { 1000 } else { 100 });
        }
        Samples {
            ns,
            per_cycle: vec![1],
            attempted: 500,
            failed: 0,
            seq: vec![0; 500],
        }
    }

    #[test]
    fn a_tail_in_two_stretches_of_five_does_not_set_p99_and_in_three_does() {
        let inputs = vec![input(Kind::Indexed)];
        // Four stalls in each stalled stretch: 1.6% of all requests.
        let v = latencies(&inputs, &stalls(&[3, 4]), Rescale::Neighbours);
        assert_eq!(v["p99_ms"], 100.0 / 1e6);
        let raw = latencies(&inputs, &stalls(&[3, 4]), Rescale::AsMeasured);
        assert_eq!(raw["p99_ms"], 1000.0 / 1e6);
        let v = latencies(&inputs, &stalls(&[0, 2, 4]), Rescale::Neighbours);
        assert_eq!(v["p99_ms"], 1000.0 / 1e6);
        assert_eq!(v["p50_ms"], 100.0 / 1e6);
    }
}
