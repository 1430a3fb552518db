#!/usr/bin/env python3
"""Builds the product and the end-to-end benchmark, runs one workload, and
prints the result as one JSON line.

    python3 bench_e2e/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
.bench_build): the repository's own CMake project in product/, this
benchmark's project in bench/, and the run's files in work/. The last line
of standard output is
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding every end_to_end metric of BENCHMARK.json with --trace 0 and every
per_layer metric with --trace 1. Exits non-zero without a result when the
build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run(cmd):
    """Runs cmd with its output on stderr; raises on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def build(root, out):
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        raise RuntimeError("no product sources (CMakeLists.txt, src/) in " + root)
    jobs = str(min(4, os.cpu_count() or 1))
    product = os.path.join(out, "product")
    bench = os.path.join(out, "bench")
    # Configured on every run, with every setting: cmake refuses a build
    # tree configured from other sources, so a build directory shared by
    # two checkouts fails loudly instead of measuring the wrong tree.
    run(["cmake", "-S", root, "-B", product, "-DCMAKE_BUILD_TYPE=Release"])
    run(["cmake", "--build", product, "-j", jobs, "--target",
         "datamaran", "datamaran_cli", "datamaran_crawl"])
    run(["cmake", "-S", HERE, "-B", bench, "-DCMAKE_BUILD_TYPE=Release",
         "-DDM_ROOT=" + root, "-DDM_PRODUCT_BUILD=" + product])
    run(["cmake", "--build", bench, "-j", jobs])
    return product, os.path.join(bench, "bench_e2e")


def commit(root):
    try:
        return subprocess.run(["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
                              check=True, capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    # Compilers and the benchmark keep their scratch files inside the build tree.
    os.environ["TMPDIR"] = os.path.join(out, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        declared = json.load(f)
    section = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in declared[section]]

    try:
        product, bench = build(root, out)
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1

    work = os.path.join(out, "work")
    result_path = os.path.join(work, "BENCH_e2e.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    os.makedirs(work, exist_ok=True)
    cmd = [bench, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--runs=1", "--seconds=%g" % args.seconds, "--bin-dir=" + product,
           "--work-dir=" + work, "--json-out=" + result_path,
           "--trace-out=" + os.path.join(work, "bench_e2e_trace.json"),
           "--benchmark-json=" + os.path.join(root, "BENCHMARK.json"),
           "--commit=" + commit(root)]
    code = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
    if not os.path.exists(result_path):
        log("bench_e2e exited %d without a result" % code)
        return 1
    with open(result_path) as f:
        result = json.load(f)["workloads"][args.workload]

    metrics = {}
    for name in names:
        m = result[section].get(name)
        if m is None:
            log("metric %s missing from the result" % name)
            return 1
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": bool(result["correct"]) and code == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
