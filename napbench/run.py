#!/usr/bin/env python3
"""Builds the program from source (Release) and runs one napbench workload.

    python3 napbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR/napbench
(default .bench_build/napbench); the trace file and the out-of-core
workload's temporary store go to .../napbench-out. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("offline-products", "serve-mixed", "serve-hot-churn", "outofcore-1m")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "napbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "inference.cc")):
        sys.stderr.write("napbench: no program sources under %s/src\n" % ROOT)
        return False
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "napbench"), "-B", bdir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return subprocess.run(["cmake", "--build", bdir, "-j", "4"],
                          stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    bdir = build_dir()
    if not build(bdir):
        sys.stderr.write("napbench: build failed\n")
        return 1
    out_dir = os.path.join(os.path.dirname(bdir), "napbench-out")
    os.makedirs(out_dir, exist_ok=True)

    # The benchmark fixes thread counts and the storage backend itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("NAI_")}
    cmd = [os.path.join(bdir, "napbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace, "--out-dir", out_dir]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("napbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = [line for line in stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write("napbench: run failed (exit %d)\n" % proc.returncode)
        return 1
    for line in lines[:-1]:
        sys.stderr.write(line + "\n")
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
