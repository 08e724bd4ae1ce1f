#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark binary and the stencilc daemon from source with dune
(in the checkout's own _build directory, dune's shared cache off), then
runs one workload.  Everything the run writes stays under
perfbench/_work.  The last line of standard output is the JSON result.
Exits non-zero without a result when the sources are missing, the build
fails or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["solve-heat2d", "halo-wave2d", "serve-mix"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    needed = ["dune-project", "lib", os.path.join("bin", "stencilc.ml")]
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("sources not found next to the benchmark: " + ", ".join(missing), 2)

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--cache=disabled", "--root", ROOT, "./perfbench/main.exe", "./bin/stencilc.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
        timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("build failed", 3)

    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--stencilc", os.path.join("_build", "default", "bin", "stencilc.exe"),
           "--work-dir", os.path.join("perfbench", "_work")]
    # Own process group, so a timeout also takes down any daemon it spawned.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, preexec_fn=os.setpgrp)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    if proc.returncode != 0:
        fail("run failed with exit code %d" % proc.returncode, 5)


if __name__ == "__main__":
    main()
