#!/usr/bin/env python3
"""Build and run the fetchsim benchmark.

    python3 perfbench/run.py --workload paper-report|design-sweep|service-mix \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  The first run configures
and builds the driver (perfbench/CMakeLists.txt, a Release build of the
simulator from the checkout's sources) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; traces and scratch files go to
.bench_out.  The last line of standard output is the driver's JSON
result; build output goes to standard error.  README.md describes the
workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "build.ninja")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-G", "Ninja",
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "fetchsim_cli", "-j", jobs],
                   check=True, stdout=sys.stderr)


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    out_dir = os.path.join(ROOT, ".bench_out")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT,
           "--cli", os.path.join(build_dir, "fetchsim", "examples",
                                 "fetchsim_cli"),
           "--out-dir", os.path.relpath(out_dir), "--commit", commit()]
    # The driver and the daemon it launches share a process group, so
    # a timeout stops both.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("run.py: the driver timed out", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"run.py: the driver exited {proc.returncode}",
              file=sys.stderr)
        return 1

    lines = stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        print(f"run.py: metric set differs from BENCHMARK.json: "
              f"{sorted(missing)}", file=sys.stderr)
        return 4
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
