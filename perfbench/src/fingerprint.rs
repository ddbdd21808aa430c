//! The run fingerprint printed before every result: enough to tell two
//! runs' machines, builds and settings apart.

use crate::Args;

/// The commit of a git checkout in the working directory, read from
/// `.git` directly; `none` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "none".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_flags() -> Vec<&'static str> {
    let mut flags = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            flags.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("avx512bw") {
            flags.push("avx512bw");
        }
        if std::arch::is_x86_feature_detected!("avx512vbmi") {
            flags.push("avx512vbmi");
        }
    }
    flags
}

/// Collects the fingerprint as one JSON object. A kernel forced through
/// `JSONSKI_KERNEL` is also announced on stderr, since numbers measured
/// under it must never be taken for a baseline.
pub fn collect(args: &Args) -> String {
    let forced = std::env::var("JSONSKI_KERNEL").ok();
    if let Some(k) = &forced {
        eprintln!("perfbench: ==================================================");
        eprintln!("perfbench: WARNING: JSONSKI_KERNEL={k} forces the bitmap kernel.");
        eprintln!("perfbench: These numbers are not a baseline for the best kernel.");
        eprintln!("perfbench: ==================================================");
    }
    let flags: Vec<String> = cpu_flags().iter().map(|f| format!("\"{f}\"")).collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"cpu_flags\": [{}], \"usable_cpus\": {}, \"rustc\": \"{}\", \"git_rev\": \"{}\", \"kernel\": \"{}\", \"kernel_forced\": {}, \"instrumented\": {}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        flags.join(", "),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        env!("PERFBENCH_RUSTC"),
        git_rev(),
        jsonski::best_kernel().name(),
        forced.map_or("null".to_string(), |k| format!("\"{k}\"")),
        cfg!(feature = "instrumented"),
    )
}
