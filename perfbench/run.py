#!/usr/bin/env python3
"""End-to-end benchmark of STARK: one command for every workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The script builds the program from the
checkout's own sources (perfbench/CMakeLists.txt compiles ../src into
.bench_build/perfbench), generates the workload's inputs from the seed,
runs the measured process with every STARK_* variable removed from its
environment, and prints that process's result as the last line of standard
output: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics (spans are written to
.bench_build/run/<workload>-<seed>-trace1/spans.json).

--selftest builds and runs the tests of the output checks, which feed every
checker a result with one item altered and require a rejection.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("fig4_selfjoin", "region_analytics", "serve_ingest", "stream_cep")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("STARK_")}


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no program sources at", os.path.join(ROOT, "src"))
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=clean_env(), timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build step failed:", e)
            return False
        if done.returncode != 0:
            log("build step failed:", " ".join(cmd))
            return False
    return True


def call(cmd, timeout):
    """Runs cmd to completion (killing it on timeout); returns (rc, stdout)."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          env=clean_env(), text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log("timed out:", " ".join(cmd))
            return 1, ""
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        if not build("perfbench_checks_test"):
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_checks_test")],
                              env=clean_env(), timeout=600).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in [1, 60]")
    if not build("stark_perfbench"):
        return 1

    binary = os.path.join(BUILD, "stark_perfbench")
    rundir = os.path.join(ROOT, ".bench_build", "run",
                          "%s-%d-trace%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--dir", rundir]
    rc, _ = call([binary, "gen"] + common, RUN_TIMEOUT_S)
    if rc != 0:
        log("input generation failed")
        return 1
    rc, out = call([binary, "run"] + common + ["--trace", str(args.trace)],
                   RUN_TIMEOUT_S)
    # The inputs are regenerated from the seed on demand; keep only the
    # spans and the detail file.
    for name in os.listdir(rundir):
        if name.endswith(".csv"):
            os.remove(os.path.join(rundir, name))
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        log("measured process failed with exit code", rc)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("measured process printed no result line")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
