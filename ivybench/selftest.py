#!/usr/bin/env python3
"""Self-test of the repo benchmark; run from the root of a checkout:

    python3 ivybench/selftest.py

Runs every workload at a tiny size through run.py, untraced and traced, and
checks that:
  - the last line is the result object, with exactly the keys correct,
    attempted, failed and metrics, and correct is true;
  - every metric BENCHMARK.json names for that mode is printed with its unit;
  - the traced run prints the per-layer table and writes a loadable Chrome
    trace;
  - a deliberately wrong golden digest makes failed_frac > 0 and the command
    exit nonzero (the correctness check can fail);
  - in a directory holding only BENCHMARK.json and the benchmark, the
    command exits nonzero without printing a result.
Exits nonzero on the first failed check.
"""
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")
WORKLOADS = ("cold_corpus", "edit_serve", "vm_hbench")


def fail(msg):
    print("selftest FAILED: " + msg)
    sys.exit(1)


def run(workload, trace, extra=(), cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "ivybench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    res = subprocess.run(cmd + list(extra), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, cwd=cwd, timeout=900)
    return res.returncode, res.stdout.rstrip("\n").split("\n"), res.stderr


def result_of(lines):
    try:
        out = json.loads(lines[-1])
    except (ValueError, IndexError):
        return None
    return out if isinstance(out, dict) else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, lines, err = run(workload, trace)
            tag = "%s --trace %d" % (workload, trace)
            out = result_of(lines)
            if out is None:
                fail("%s: no result line (exit %d)\n%s" % (tag, rc, err[-2000:]))
            if sorted(out) != ["attempted", "correct", "failed", "metrics"]:
                fail("%s: result keys %s" % (tag, sorted(out)))
            if rc != 0 or out["correct"] is not True or out["failed"] != 0:
                fail("%s: exit %d, result %s\n%s" % (tag, rc, lines[-1], "\n".join(lines[:-1])))
            for m in spec["per_layer" if trace else "end_to_end"]:
                got = out["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    fail("%s: metric %s missing or with the wrong unit" % (tag, m["name"]))
            if not any(l.startswith("  failed_frac: 0 ") for l in lines):
                fail("%s: failed_frac not reported as 0" % tag)
            if trace:
                if not any(l.startswith("per-layer self time") for l in lines):
                    fail("%s: no per-layer table" % tag)
                paths = [m.group(1) for m in
                         (re.search(r"chrome trace .*: (\S+)$", l) for l in lines) if m]
                if not paths:
                    fail("%s: no Chrome trace written" % tag)
                with open(paths[0]) as f:
                    events = json.load(f).get("traceEvents")
                if not events:
                    fail("%s: Chrome trace has no events" % tag)
            print("ok  %s: %d operations, %d metrics" % (tag, out["attempted"], len(out["metrics"])))

        # A wrong golden digest must fail the run.
        os.makedirs(SCRATCH, exist_ok=True)
        wrong = os.path.join(SCRATCH, "wrong-golden.json")
        with open(wrong, "w") as f:
            json.dump({"tiny": {workload: {"default": {"seed": 1, "digest": "0" * 16}}}}, f)
        rc, lines, _ = run(workload, 0, ["--golden", wrong])
        out = result_of(lines)
        if out is None or rc == 0 or out["correct"] or out["failed"] <= 0:
            fail("%s: a wrong golden digest did not fail the run (exit %d)" % (workload, rc))
        frac = [l for l in lines if l.startswith("  failed_frac: ")]
        if not frac or float(frac[0].split()[1]) <= 0:
            fail("%s: failed_frac not above 0 with a wrong digest" % workload)
        print("ok  %s: wrong golden digest -> %s, exit %d" % (workload, frac[0].strip(), rc))

    # Only BENCHMARK.json and the benchmark: no program to build.
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "ivybench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines, _ = run("cold_corpus", 0, cwd=bare)
    if rc == 0 or result_of(lines) is not None:
        fail("bare directory: exit %d, last line %r" % (rc, lines[-1]))
    shutil.rmtree(bare, ignore_errors=True)
    print("ok  bare directory: exit %d without a result" % rc)
    print("selftest passed")


if __name__ == "__main__":
    main()
