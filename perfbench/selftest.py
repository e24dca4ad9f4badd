#!/usr/bin/env python3
"""Self-test of the benchmark: exact counts, traced = untraced op stream.

Usage (from the repository root):

    python3 perfbench/selftest.py [--seeds 1,7] [--seconds 2] [--workloads ...]

For each workload and seed it runs perfbench/run.py twice untraced and twice
traced, and asserts that

  * every run passes its correctness gate (exit code 0, "correct": true);
  * the count metrics repeat exactly between the two runs of a kind:
    bytes_per_query and requests_per_query (untraced), and
    core.elements_per_query, net.exchanges_per_op and
    store.wal_bytes_per_mutation (traced);
  * the count prefix (op stream digest, bytes, exchanges, WAL bytes) is
    identical in every untraced and traced window of one seed.

Exits non-zero on the first violation.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
E2E_COUNTS = ("bytes_per_query", "requests_per_query")
LAYER_COUNTS = ("core.elements_per_query", "net.exchanges_per_op", "store.wal_bytes_per_mutation")
PREFIX = re.compile(r"count prefix: (.*)$")


def run(workload, seed, seconds, trace):
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, universal_newlines=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        raise SystemExit("FAIL: %s exited %d" % (" ".join(cmd[1:]), done.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit("FAIL: %s seed %d trace %d: incorrect answers" % (workload, seed, trace))
    prefixes = [m.group(1) for m in map(PREFIX.search, lines) if m]
    return result["metrics"], prefixes


def check_equal(what, a, b):
    if a != b:
        raise SystemExit("FAIL: %s differs between runs: %r vs %r" % (what, a, b))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,7")
    parser.add_argument("--seconds", default="2")
    parser.add_argument("--workloads", default="query,churn,cluster")
    opts = parser.parse_args()
    for workload in opts.workloads.split(","):
        for seed in (int(s) for s in opts.seeds.split(",")):
            e2e = [run(workload, seed, opts.seconds, 0) for _ in range(2)]
            layers = [run(workload, seed, opts.seconds, 1) for _ in range(2)]
            for name in E2E_COUNTS:
                check_equal(name, e2e[0][0][name], e2e[1][0][name])
            for name in LAYER_COUNTS:
                check_equal(name, layers[0][0][name], layers[1][0][name])
            # One prefix line per untraced run, two (untraced + traced
            # window) per traced run: all must match.
            prefixes = [p for _, ps in e2e + layers for p in ps]
            if len(prefixes) != 6:
                raise SystemExit("FAIL: expected 6 count-prefix lines, got %d" % len(prefixes))
            for p in prefixes[1:]:
                check_equal("count prefix", prefixes[0], p)
            print(
                "ok %-8s seed %-3d %s; %s"
                % (
                    workload,
                    seed,
                    ", ".join("%s=%.6g" % (n, e2e[0][0][n]["value"]) for n in E2E_COUNTS),
                    ", ".join("%s=%.6g" % (n, layers[0][0][n]["value"]) for n in LAYER_COUNTS),
                )
            )
            sys.stdout.flush()
    print("selftest passed")


if __name__ == "__main__":
    main()
