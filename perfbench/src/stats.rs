//! Sampling and the estimators every metric is computed with.
//!
//! On a small shared host a neighbour can slow SIMD-bound code by up to
//! half for seconds or minutes at a time, so a mean or median over a run
//! moves with the neighbour rather than with the program. Samples are
//! therefore interleaved round-robin across all inputs of a workload (a
//! slow phase hits every input alike) and each input is summarised by its
//! fastest twentieth of samples: in slow phases fewer than a tenth of the
//! samples may be quiet, so the fastest tenth still drifts with the
//! neighbour (see the README's steadiness section). Latency percentiles
//! are the exception: they are taken over every sample, tail included,
//! each rescaled by its cycle's slowdown (see `metrics`).
//!
//! `serve_mixed` is summarised over the whole run instead: each operation
//! by its median, each request sample rescaled by the slowdown of its
//! nearest samples in execution order. Its samples spread widely (a
//! median request takes about 1.6 times its operation's fastest-twentieth
//! time), and how many fast ones a run gets varies from run to run far
//! more than its medians do.

use std::time::{Duration, Instant};

/// What one timed operation reports.
pub struct Sample {
    /// Nanoseconds spent in the measured call only.
    pub ns: u64,
    /// Whether the operation succeeded and its output checked out.
    pub ok: bool,
}

/// One repeatable operation of a workload.
pub struct Input<'a> {
    pub name: String,
    pub kind: Kind,
    pub class: Class,
    /// Input bytes one run of the operation evaluates.
    pub bytes: u64,
    /// Times the operation occurs in one round of the workload's mix.
    pub weight: u32,
    pub run: Box<dyn FnMut() -> Sample + 'a>,
}

/// How an operation reaches the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Live classification, one query, matches counted.
    Inline,
    /// Word bitmaps served from a prebuilt structural index.
    Indexed,
    /// Every match's bytes delivered in chunks to the consumer.
    Stream,
    /// One `MultiQuery` pass answering two queries.
    Multi,
    /// One pass under `ValidationMode::Strict`.
    Strict,
    /// One cold set-up of the program, timed between the operations so
    /// that it sees the same quiet phases they do.
    Setup,
}

/// The query's selectivity regime (see the benchmark README).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Sparse,
    Dense,
    Mixed,
}

/// Sample storage, reserved before the heap baseline is taken so that
/// recording samples never shows up in `peak_heap_mib`.
pub struct Samples {
    pub ns: Vec<Vec<u64>>,
    /// Times each input occurs in one cycle of the sampling order, so that
    /// sample `n` of input `i` belongs to cycle `n / per_cycle[i]`.
    pub per_cycle: Vec<usize>,
    pub attempted: u64,
    pub failed: u64,
    /// The input of every recorded sample, in the order they ran.
    pub seq: Vec<u32>,
}

/// Most inputs any workload has.
pub const MAX_INPUTS: usize = 64;
/// Samples kept per input; later ones are still run and counted.
pub const SAMPLE_CAPACITY: usize = 1 << 14;

impl Samples {
    pub fn reserve() -> Samples {
        Samples {
            ns: (0..MAX_INPUTS)
                .map(|_| Vec::with_capacity(SAMPLE_CAPACITY))
                .collect(),
            per_cycle: Vec::new(),
            attempted: 0,
            failed: 0,
            seq: Vec::with_capacity(MAX_INPUTS * SAMPLE_CAPACITY),
        }
    }
}

/// Runs the inputs in `order` (indices, repeated as a cycle) until
/// `seconds` have passed, always finishing the current cycle so every
/// input has the same number of samples per cycle.
pub fn sample(out: &mut Samples, inputs: &mut [Input<'_>], order: &[usize], seconds: f64) {
    assert!(inputs.len() <= MAX_INPUTS, "raise MAX_INPUTS");
    let Samples {
        ns,
        per_cycle,
        attempted,
        failed,
        seq,
    } = out;
    *per_cycle = vec![0; inputs.len()];
    for &i in order {
        per_cycle[i] += 1;
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        for &i in order {
            let s = (inputs[i].run)();
            *attempted += 1;
            if !s.ok {
                *failed += 1;
            }
            if ns[i].len() < SAMPLE_CAPACITY {
                seq.push(i as u32);
                ns[i].push(s.ns);
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
}

/// Runs one untimed round of every input except the cold set-up and
/// returns the live-heap peak above `base` it reached, then samples the
/// inputs in `order` for `seconds`. The peak leaves the cold set-ups out:
/// each builds a second copy of the program's state beside the live one.
pub fn measure(
    out: &mut Samples,
    inputs: &mut [Input<'_>],
    order: &[usize],
    seconds: f64,
    base: usize,
) -> u64 {
    for input in inputs.iter_mut().filter(|i| i.kind != Kind::Setup) {
        let s = (input.run)();
        out.attempted += 1;
        if !s.ok {
            out.failed += 1;
        }
    }
    let peak = harness::alloc::peak_bytes().saturating_sub(base) as u64;
    sample(out, inputs, order, seconds);
    peak
}

/// Mean of the fastest `1/parts` (at least one) of `samples`.
fn fastest(samples: &[u64], parts: usize) -> f64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    let n = v.len().div_ceil(parts).clamp(1, v.len());
    v[..n].iter().map(|&x| x as f64).sum::<f64>() / n as f64
}

/// The estimator every timing of `large_record` and `small_records`
/// uses: mean of the fastest twentieth (at least one) of `samples`, in
/// nanoseconds.
pub fn fastest_twentieth(samples: &[u64]) -> f64 {
    fastest(samples, 20)
}

/// Mean of the fastest tenth; printed only for the estimator comparison
/// in the README.
pub fn fastest_tenth(samples: &[u64]) -> f64 {
    fastest(samples, 10)
}

/// Median of `samples` (nanoseconds): the estimator of `serve_mixed`,
/// printed for the other workloads for the estimator comparison in the
/// README.
pub fn median(samples: &[u64]) -> f64 {
    quantile(samples, 0.5)
}

/// The `q` quantile (nearest rank) of `samples`.
pub fn quantile(samples: &[u64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// Bytes over summed per-input time, in GiB/s, for the inputs `pick`
/// selects; `None` when it selects nothing.
pub fn gibps(
    inputs: &[Input<'_>],
    times_ns: &[f64],
    pick: impl Fn(&Input<'_>) -> bool,
) -> Option<f64> {
    let (mut bytes, mut ns) = (0f64, 0f64);
    for (inp, &t) in inputs.iter().zip(times_ns) {
        if pick(inp) {
            bytes += inp.bytes as f64 * f64::from(inp.weight);
            ns += t * f64::from(inp.weight);
        }
    }
    (ns > 0.0).then(|| bytes / ns * 1e9 / (1u64 << 30) as f64)
}

/// Times one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let out = f();
    (
        out,
        u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_share_ignores_slow_phases() {
        let mut v: Vec<u64> = (0..100).map(|i| 100 + i % 7).collect();
        v.extend(std::iter::repeat_n(250, 40));
        let t = fastest_tenth(&v);
        assert!((100.0..=102.0).contains(&t), "{t}");
        // 95% of the samples slow: the twentieth still finds the quiet ones.
        let mut w: Vec<u64> = vec![100; 10];
        w.extend(std::iter::repeat_n(180, 190));
        assert_eq!(fastest_twentieth(&w), 100.0);
        assert_eq!(fastest_twentieth(&[7]), 7.0);
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[7], 0.99), 7.0);
    }
}
