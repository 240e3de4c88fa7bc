#!/usr/bin/env python3
"""The benchmark's own tests: outputs are checked and their digest repeats.

    python3 perfbench/selftest.py

Run from the repository root (it calls perfbench/run.py, which builds the
benchmark binary on first use).  Checks, on short runs:
  * every workload reports correct, with no failed operation, and prints
    every end-to-end metric (and, traced, every per-layer metric);
  * the digest of every diagram and response repeats across two runs of
    the same seed;
  * serve_edit's digest is the same with 1 and 2 SessionHost threads, and
    changes with the seed (the edit stream is seeded).
Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run(workload, seed, seconds, trace=0, host_threads=0):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if host_threads:
        cmd += ["--host-threads", str(host_threads)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next(l.split()[2] for l in lines if l.startswith("# digest "))
    return result, digest


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        sys.exit(1)


def main():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    lists = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}

    def checked_run(workload, seed, seconds, trace=0, host_threads=0):
        result, digest = run(workload, seed, seconds, trace, host_threads)
        label = "%s seed=%d trace=%d host_threads=%s" % (
            workload, seed, trace, host_threads or "default")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
              label + ": correct, nothing failed")
        check(sorted(result["metrics"]) == sorted(lists[trace]),
              label + ": every metric of the list printed")
        return digest

    for workload, seconds in (("life_batch", 2), ("mesh_batch", 1)):
        a = checked_run(workload, 7, seconds)
        b = checked_run(workload, 7, seconds)
        check(a == b, "%s: digest repeats across two runs (%s)" % (workload, a))
        checked_run(workload, 7, seconds, trace=1)

    a = checked_run("serve_edit", 7, 1, host_threads=2)
    b = checked_run("serve_edit", 7, 1, host_threads=2)
    check(a == b, "serve_edit: digest repeats across two runs (%s)" % a)
    c = checked_run("serve_edit", 7, 1, host_threads=1)
    check(a == c, "serve_edit: digest equal at 1 and 2 host threads")
    d = checked_run("serve_edit", 8, 1, host_threads=1)
    check(d != a, "serve_edit: the seed changes the edit stream")
    checked_run("serve_edit", 7, 1, trace=1)
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
