#!/usr/bin/env python3
"""Builds and runs one benchmark workload; prints its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload query|churn|cluster --seed N \
        --seconds S --trace 0|1

Builds perfbench/ (which pulls in the repository's library and shard
server) into $CARGO_TARGET_DIR, default .bench_build, then runs the workload
in its own process. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the metrics are the
end-to-end set with --trace 0 and the per-layer set with --trace 1 (see
BENCHMARK.json and perfbench/NOTES.md). Exits non-zero, without a result
line, when the build or the run fails, and with the result line but a
non-zero code when an answer was wrong.
"""

import argparse
import ctypes
import errno
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("query", "churn", "cluster")
RUN_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no repository sources next to perfbench/ (CMakeLists.txt, src/)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "zr_perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace"))
            fail("build failed: " + " ".join(step))


def reap_orphans():
    """Waits for every remaining descendant this process has adopted."""
    while True:
        try:
            pid, _ = os.waitpid(-1, 0)
        except ChildProcessError:
            return
        except OSError as e:
            if e.errno == errno.EINTR:
                continue
            return
        if pid == 0:
            return


def run(binary, args):
    # Shard servers are grandchildren. As a subreaper this process adopts
    # any the runner leaves behind, so it can kill and wait for them.
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except OSError:
        pass
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        reap_orphans()
    if out is None:
        fail("workload run timed out after %d s" % RUN_TIMEOUT_S)
    return proc.returncode, out.decode(errors="replace")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if opts.seed < 0 or opts.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    base = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(base, "perfbench")
    build(build_dir)

    run_dir = os.path.join(base, "perfbench-run", "%s-%d" % (opts.workload, os.getpid()))
    spans_dir = os.path.join(base, "perfbench-spans")
    os.makedirs(run_dir, exist_ok=True)
    os.makedirs(spans_dir, exist_ok=True)
    args = [
        "--workload=" + opts.workload,
        "--seed=%d" % opts.seed,
        "--seconds=%r" % opts.seconds,
        "--trace=%d" % opts.trace,
        "--run-dir=" + run_dir,
        "--shard-server=" + os.path.join(build_dir, "zerberr", "shard_server"),
    ]
    if opts.trace:
        args.append(
            "--spans-out=" + os.path.join(spans_dir, "%s-seed%d.csv" % (opts.workload, opts.seed))
        )
    try:
        code, out = run(os.path.join(build_dir, "zr_perfbench"), args)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        report = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(out)
        fail("workload run exited %d without a report" % code)
    for line in lines[:-1]:
        print(line)

    metrics = report["per_layer" if opts.trace else "end_to_end"]
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        wanted = [m["name"] for m in spec["per_layer" if opts.trace else "end_to_end"]]
        missing = [name for name in wanted if name not in metrics]
        if missing:
            fail("report lacks metrics: " + ", ".join(missing))
        metrics = {name: metrics[name] for name in wanted}
    result = {
        "correct": bool(report["correct"]) and code == 0,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
