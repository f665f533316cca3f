#!/usr/bin/env python3
"""The repo benchmark: builds ivybench_driver from source and runs one workload.

    python3 ivybench/run.py --workload cold_corpus --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Every run configures and builds
ivybench_driver (with the program it measures) under .bench_build/; only
the first build compiles everything. ivybench_driver checks every operation against an independent
reference; this wrapper also checks the verdict digest against golden.json
(for the seeds listed there) and that every metric BENCHMARK.json names is
printed with its unit. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. Exits nonzero on any failure,
and without a result when the build fails.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics, a self-time table and the path of a Chrome trace. --scale tiny and
--golden exist for selftest.py.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ivybench")
OUT = os.path.join(ROOT, ".bench_build", "out")
WORKLOADS = ("cold_corpus", "edit_serve", "vm_hbench")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds ivybench_driver; returns its path or None.

    Configures on every run, so a build directory left by another revision
    picks up this revision's build type and source list.
    """
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "-j", jobs]]
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                 text=True, timeout=870)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("ivybench: %s failed: %s" % (cmd[0], e))
            return None
        if res.returncode != 0:
            log(res.stdout[-4000:])
            log("ivybench: build step failed: %s" % " ".join(cmd))
            return None
    return os.path.join(BUILD, "ivybench_driver")


def expected_metrics(trace):
    """The metric names and units BENCHMARK.json promises for this mode."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def golden_digest(path, scale, workload, seed):
    """The stored verdict digest for (scale, workload, seed), or None."""
    try:
        with open(path) as f:
            golden = json.load(f)
    except (OSError, ValueError):
        return None
    for entry in golden.get(scale, {}).get(workload, {}).values():
        if entry.get("seed") == seed:
            return entry.get("digest")
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--golden", default=os.path.join(HERE, "golden.json"))
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    driver = build()
    if driver is None:
        return 1
    os.makedirs(OUT, exist_ok=True)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--out-dir", OUT]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        log("ivybench: ivybench_driver timed out")
        return 1
    lines = res.stdout.rstrip("\n").split("\n")
    try:
        raw = json.loads(lines[-1])
    except (ValueError, IndexError):
        log(res.stdout[-4000:])
        log("ivybench: ivybench_driver exited %d without a result" % res.returncode)
        return 1
    for line in lines[:-1]:
        print(line)

    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    problems = []
    if res.returncode != 0:
        problems.append("ivybench_driver exited %d" % res.returncode)

    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in raw["metrics"].items()}
    if want is None:
        problems.append("BENCHMARK.json unreadable")
    elif got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        problems.append("metrics differ from BENCHMARK.json: missing %s, extra %s, units %s"
                        % (missing, extra, units))

    # The verdict digest is one more checked operation.
    stored = golden_digest(args.golden, args.scale, args.workload, args.seed)
    attempted += 1
    if stored is None:
        print("  golden digest: none stored for seed %d (verdict %s)" % (args.seed, raw["digest"]))
    elif stored == raw["digest"]:
        print("  golden digest: match (%s)" % stored)
    else:
        failed += 1
        problems.append("verdict digest %s differs from golden %s" % (raw["digest"], stored))

    print("  failed_frac: %.6g (%d failed of %d attempted)"
          % (failed / attempted, failed, attempted))
    for p in problems:
        print("  FAILED: %s" % p)
    correct = failed == 0 and not problems
    metrics = {name: {"value": float(m["value"]), "unit": m["unit"]}
               for name, m in sorted(raw["metrics"].items())}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
