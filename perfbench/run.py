#!/usr/bin/env python3
"""End-to-end benchmark for the firzen library.

Builds the library from ../src together with the benchmark's own C++
program (perfbench/src) in Release into an ignored build directory, then
runs one workload:

    python3 perfbench/run.py --workload train-coldstart --seed 1 \
        --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer metrics of a traced run (the
span file lands in .bench_out/). `--self-test` builds and runs the tests of
the benchmark's own correctness checks instead. Build output goes to
standard error.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-coldstart", "batch-topk", "online-mixed")
# Thread-pool width per workload, fixed (not nproc) so that both sides of a
# comparison use the same one. On a 4-core host a pool as wide as the
# machine lets one stalled worker hold up every ParallelFor, so no workload
# uses all 4. batch-topk's large panels and training both run at 3: in five
# interleaved pairs on one host, train-coldstart at width 1 spread 22.6%
# (IQR/median) in PrepareColdInference time and 10.1% in samples/s, at
# width 3 6.7% and 5.2%; a slow spell of the host stretched the single
# thread's calls by up to 40% while the same spell left width 3 alone. The
# online shards' small fused batches gained little from a pool, so
# online-mixed runs inline at width 1; its two shard servers still score in
# parallel.
POOL_WIDTH = {"train-coldstart": 3, "batch-topk": 3, "online-mixed": 1}
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no library sources (src/) next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return out


def run(cmd, pool_width=1):
    env = dict(os.environ)
    env["FIRZEN_NUM_THREADS"] = str(pool_width)
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    out = build()
    if args.trace:
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    if args.self_test:
        return run([os.path.join(out, "perfbench_selftest")])
    return run([os.path.join(out, "firzen_perfbench"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)],
               POOL_WIDTH[args.workload])


if __name__ == "__main__":
    sys.exit(main())
