#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload offline_small --seed 1 \
        --seconds 10 --trace 0

Builds the driver (perfbench/CMakeLists.txt, Release, against ../src)
on first use, runs it once — one process per run, so peak RSS belongs
to this run alone — and relays its result. The last line of stdout is
the result JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics (and writes a Chrome trace-event file of one traced run to
trace-events/<workload>.json under the build directory). Build logs
and the human-readable summary go to stderr. The exit status is 0
only when every output matched its known answer.

The build directory is $CARGO_TARGET_DIR when set (relative paths are
taken from the repository root), else .bench_build at the root.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("offline_small", "offline_sparse", "online_apps")
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return os.path.join(path, "perfbench")


def build(bdir):
    """Configure (once) and build the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no src/ next to perfbench/; run "
                         "from a full checkout\n")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target",
                  "pmtest_perfbench", "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed\n")
            return None
    return os.path.join(bdir, "pmtest_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-sized inputs (self-test)")
    parser.add_argument("--perturb-reference", action="store_true",
                        help="corrupt the known answer (self-test)")
    args = parser.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        return 2

    workdir = os.path.join(bdir, "work", "%s-%d" % (args.workload,
                                                   os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "--workload=" + args.workload,
           "--seed=%d" % args.seed, "--seconds=%d" % args.seconds,
           "--trace=%d" % args.trace, "--workdir=" + workdir]
    if args.trace:
        events = os.path.join(bdir, "trace-events")
        os.makedirs(events, exist_ok=True)
        # One file per workload: the latest traced run's timeline.
        cmd.append("--trace-events=" + os.path.join(
            events, args.workload + ".json"))
    if args.tiny:
        cmd.append("--tiny")
    if args.perturb_reference:
        cmd.append("--perturb-reference")

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
