#!/usr/bin/env python3
"""Smoke-sized self-test of the end-to-end benchmark.

    python3 perfbench/selftest.py

For every workload, at tiny input sizes:
  1. an untraced run is correct and reports every end-to-end metric
     of BENCHMARK.json, each a positive number in its unit;
  2. a traced run reports every per-layer metric, and its blocking-
     path layer times plus session.unattributed_s sum to its traced
     wall time, with the unattributed part a minority of it;
  3. a run whose known answer is perturbed is reported incorrect,
     with failed > 0 and a non-zero exit status.
Exit status 0 when every check passes.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Layer times on the blocking path of each workload's traced run.
BLOCKING = {
    "offline_small": ["session.finalize_s", "trace.open_s",
                      "ingest.call_s", "pool.drain_s",
                      "report.canonicalize_s", "report.render_s"],
    "online_apps": ["api.requests_s", "api.final_drain_s"],
}
BLOCKING["offline_sparse"] = BLOCKING["offline_small"]


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(ok, message):
        print("%s %s" % ("ok  " if ok else "FAIL", message))
        if not ok:
            failures.append(message)

    for workload in [w["name"] for w in spec["workloads"]]:
        code, result, err = run(workload, 0)
        check(code == 0 and result and result["correct"] and
              result["failed"] == 0 and result["attempted"] > 0,
              "%s: untraced run correct" % workload)
        if result is None:
            sys.stderr.write(err)
            continue
        for m in spec["end_to_end"]:
            got = result["metrics"].get(m["name"])
            check(got is not None and got["unit"] == m["unit"] and
                  math.isfinite(got["value"]) and got["value"] > 0,
                  "%s: %s present and positive" % (workload, m["name"]))

        code, result, err = run(workload, 1)
        check(code == 0 and result and result["correct"],
              "%s: traced run correct" % workload)
        if result is None:
            sys.stderr.write(err)
            continue
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        check(sorted(metrics) == sorted(m["name"]
                                        for m in spec["per_layer"]),
              "%s: every per-layer metric reported" % workload)
        wall = metrics["obs.traced_wall_s"]
        unattributed = metrics["session.unattributed_s"]
        total = sum(metrics[k] for k in BLOCKING[workload]) + unattributed
        check(wall > 0 and abs(total - wall) <= 1e-9 * max(1.0, wall),
              "%s: layer times + unattributed = traced wall "
              "(%.6f vs %.6f s)" % (workload, total, wall))
        check(0 <= unattributed < 0.25 * wall,
              "%s: unattributed %.6f s is under a quarter of the wall"
              % (workload, unattributed))

        code, result, _ = run(workload, 0, "--perturb-reference")
        check(code != 0 and result is not None and
              not result["correct"] and result["failed"] > 0,
              "%s: perturbed reference is caught (exit %d)"
              % (workload, code))

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
