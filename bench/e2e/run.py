#!/usr/bin/env python3
"""Builds bench_e2e from this checkout and runs one workload.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; spill files and traces stay inside it too. Build output goes
to stderr, so the last line of stdout is the benchmark's result object
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the Chrome
trace lands in <build>/traces/ and must load as JSON. Exits non-zero when
the build, a run or an output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "bench", "e2e"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j4", "--target", "bench_e2e"],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "bench_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 1

    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
    trace_base = os.path.join(build_dir, "traces", "trace-seed%d.json" % args.seed)
    if args.trace:
        os.makedirs(os.path.dirname(trace_base), exist_ok=True)
        command[-1] = trace_base
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, universal_newlines=True)
    except subprocess.TimeoutExpired:
        print("run.py: bench_e2e exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = sorted(result) == ["attempted", "correct", "failed", "metrics"]
    except ValueError:
        ok = False
    if proc.returncode != 0 or not ok:
        sys.stderr.write(proc.stdout)
        print("run.py: bench_e2e failed (exit %d)" % proc.returncode, file=sys.stderr)
        return 1
    if args.trace:
        trace = trace_base[:-len(".json")] + "." + args.workload + ".json"
        try:
            with open(trace) as f:
                json.load(f)
        except (OSError, ValueError) as e:
            sys.stderr.write(proc.stdout)
            print("run.py: trace %s does not load: %s" % (trace, e), file=sys.stderr)
            return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
