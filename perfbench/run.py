#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sim_bin2 --seed 1 --seconds 36 --trace 0

Builds `eccparityd` with the root `cargo build --release` and the
`perfbench` package beside it (into `$CARGO_TARGET_DIR`, default
`.bench_build`), then runs `perfbench` in a fresh working directory under
the target directory, in its own process group, with a time limit. The
last line of standard output is the result JSON; build logs and
diagnostics go to standard error. Exits non-zero, printing no result, if
anything fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

WORKLOADS = ["sim_bin2", "sim_bin1", "functional"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "eccparityd"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "Cargo.toml")],
    ):
        try:
            res = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                                 timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build timed out: {' '.join(cmd)}")
        if res.returncode != 0:
            fail(f"build failed ({res.returncode}): {' '.join(cmd)}")


def run(exe, daemon, args, workdir):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", daemon]
    # A process group of its own, so the daemon children die with perfbench even
    # if it has to be killed.
    proc = subprocess.Popen(cmd, cwd=workdir, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None:
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"perfbench exited with {proc.returncode}")
    return out.decode()


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        fail("run from the repository root: no Cargo.toml here")
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(root, target_dir)
    exe = os.path.join(target_dir, "release", "perfbench")
    daemon = os.path.join(target_dir, "release", "eccparityd")

    runs = os.path.join(target_dir, "perfbench-runs")
    os.makedirs(runs, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=runs)
    try:
        out = run(exe, daemon, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = out.strip().splitlines()
    if not lines:
        fail("perfbench printed nothing")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"malformed result: {lines[-1]}")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
