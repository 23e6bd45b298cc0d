#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

One workload, one run; the last stdout line is the result object:

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 20 --trace 0

Every workload in turn, with a summary table of the end-to-end metrics:

    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The program is compiled from this checkout's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).  Exit status:
0 ok, 1 wrong result or a malformed report, 2 build or usage failure.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RUN_LIMIT_S = 170  # one run must end within 180 s of its start (after a build)
BUILD_LIMIT_S = 850


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("program sources (src/) not found next to perfbench/; nothing to build")
        sys.exit(2)
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j",
                  str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout carries only the report.
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                           timeout=BUILD_LIMIT_S)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
                OSError) as e:
            log("build failed: %s" % e)
            sys.exit(2)
    return os.path.join(out, "perfbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (subprocess.SubprocessError, OSError):
        return "unknown"


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def check_result(line, spec, trace):
    """Problems with the result line against BENCHMARK.json (empty = ok)."""
    try:
        res = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if not isinstance(res, dict) or sorted(res) != ["attempted", "correct",
                                                    "failed", "metrics"]:
        return ["result keys must be exactly correct, attempted, failed, metrics"]
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(res["failed"], int) or res["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = res["metrics"]
    if sorted(got) != sorted(want):
        problems.append("metric set differs from BENCHMARK.json: missing %s, extra %s"
                        % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, m in got.items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append("%s: value is not a finite number" % name)
        if name in want and m.get("unit") != want[name]:
            problems.append("%s: unit %r, BENCHMARK.json says %r"
                            % (name, m.get("unit"), want[name]))
    return problems


def run_one(exe, args, spec, deadline):
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(),
           "--trace-out", os.path.join(trace_dir, "%s-seed%d.json"
                                       % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("run exceeded its time limit; killed")
        return 1
    lines = out.rstrip("\n").split("\n")
    problems = check_result(lines[-1], spec, args.trace) if lines else ["no output"]
    if problems:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        for p in problems:
            log(p)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def run_all(args, spec):
    """Each workload in its own run of this script; prints a summary."""
    rows, status = [], 0
    for w in [x["name"] for x in spec["workloads"]]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        status = max(status, p.returncode)
        lines = p.stdout.rstrip("\n").split("\n")
        try:
            rows.append((w, json.loads(lines[-1])))
        except ValueError:
            rows.append((w, None))
            status = max(status, 1)
    print("%-12s %-22s %16s %s" % ("workload", "metric", "value", "unit"))
    for w, res in rows:
        if res is None:
            print("%-12s (no result)" % w)
            continue
        for name, m in res["metrics"].items():
            print("%-12s %-22s %16.6g %s" % (w, name, m["value"], m["unit"]))
        print("%-12s attempted %d failed %d correct %s"
              % (w, res["attempted"], res["failed"], str(res["correct"]).lower()))
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload %r" % args.workload)
        return 2
    exe = build()
    return run_one(exe, args, spec, time.monotonic() + RUN_LIMIT_S)


if __name__ == "__main__":
    sys.exit(main())
