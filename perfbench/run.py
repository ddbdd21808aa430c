#!/usr/bin/env python3
"""Builds and runs the repository's benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds two binaries of the
`perfbench` package with cargo (in CARGO_TARGET_DIR, default
`.bench_build`): the default build, which gives every timing, and an
`instrumented` one (the core crate's `metrics` feature), which is the only
source of `cursor.word_cache_hits`.

`--trace 0` runs the default build untraced: the end-to-end metrics.
`--trace 1` runs it untraced and then traced (in-memory spans) on the same
seed, reports the per-layer metrics of the traced run, the difference in
throughput between the two as `trace.overhead_pct`, and the word-cache hit
count from a short run of the instrumented build.

Every run of the binary is pinned to one CPU (the highest-numbered one
this process may use): serve_mixed's client and one-worker server hand
off every request, and a wakeup across vCPUs costs more, and varies more
with a neighbour's load, than a context switch on one CPU.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. A failed build or a failed run exits
non-zero without printing it.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def build(target_dir, instrumented):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    if instrumented:
        cmd += ["--features", "instrumented"]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Cargo's own output goes to stderr so the result stays the last line
    # of standard output.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed ({' '.join(cmd)})")
    return os.path.join(target_dir, "release", "perfbench")


def run(binary, args, trace, work_dir, cpu, seconds=None):
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds or args.seconds),
        "--trace", str(trace),
        "--work-dir", work_dir,
    ]
    try:
        done = subprocess.run(
            cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=3 * args.seconds + 120,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} timed out")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perfbench: {args.workload} exited with {done.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    work_dir = os.path.join(target_dir, "perfbench-work")
    # Both binaries are built on every run (a no-op once built), so the
    # first run of a checkout pays for both builds.
    plain = build(target_dir, instrumented=False)
    instrumented = build(os.path.join(target_dir, "instrumented"), instrumented=True)

    cpu = max(os.sched_getaffinity(0))
    print("host: " + json.dumps({"nproc": os.cpu_count(), "pinned_cpu": cpu}))
    result = run(plain, args, 0, work_dir, cpu)
    if args.trace:
        layered = run(plain, args, 1, work_dir, cpu)
        # The per-round counts do not depend on run length.
        counted = run(instrumented, args, 1, work_dir, cpu, seconds=1)
        metrics = layered["metrics"]
        metrics["cursor.word_cache_hits"] = counted["metrics"]["cursor.word_cache_hits"]
        untraced = result["metrics"]["throughput_gibps"]["value"]
        with_spans = metrics["trace.throughput_gibps"]["value"]
        overhead = 100.0 * (1.0 - with_spans / untraced) if untraced > 0 else 0.0
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        runs = (result, layered, counted)
        result = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
