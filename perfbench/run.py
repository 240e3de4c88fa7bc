#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload life_batch|mesh_batch|serve_edit \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds the
na_perfbench binary (perfbench/CMakeLists.txt, which compiles the
program's libraries from src/) under .bench_build/; later runs only
rebuild what changed.  Build output goes to standard error.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end_to_end list of BENCHMARK.json, with --trace 1 the per_layer list.
Lines before it (starting with '#') carry the thread budget, the run size
and the digest of every diagram and response the run produced.
"""

import argparse
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 160


def build_dir():
    return os.path.abspath(os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                                        "perfbench"))


def build():
    """Configures (once) and builds na_perfbench; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", "na_perfbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "na_perfbench")


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--host-threads", type=int, default=0,
                    help="serve_edit: SessionHost pool size (default: from the thread budget)")
    args = ap.parse_args()

    spec = load_json("BENCHMARK.json")
    layers = load_json(os.path.join(BENCH_DIR, "layers.json"))["per_layer"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit("unknown workload %r" % args.workload)

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("build failed: %s" % e)

    trace_out = os.path.join(build_dir(), "traces",
                             "%s-seed%d.json" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-out", trace_out]
    if args.host_threads > 0:
        cmd += ["--host-threads", str(args.host_threads)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit("na_perfbench printed nothing (exit %d)" % proc.returncode)
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.exit("na_perfbench output is not a result: %r" % lines[-1][:200])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    problems = list(raw["problems"])
    for m in wanted:
        name, got = m["name"], raw["metrics"].get(m["name"])
        if got is None and args.trace and args.workload not in layers[name]["on"]:
            got = {"value": 0, "unit": m["unit"]}  # a layer this workload does not load
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            problems.append("metric %s missing or not finite" % name)
            continue
        if got["unit"] != m["unit"]:
            problems.append("metric %s in %s, expected %s" % (name, got["unit"], m["unit"]))
        metrics[name] = {"value": got["value"], "unit": m["unit"]}

    for note in raw["notes"]:
        print("# " + note)
    print("# digest %s" % raw["digest"])
    for p in problems:
        print("# PROBLEM " + p)
    result = {
        "correct": bool(raw["correct"]) and not problems,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
