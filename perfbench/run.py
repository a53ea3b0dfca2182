#!/usr/bin/env python3
"""Runs one benchmark workload of adya-check --stream / adya-serve.

    python3 perfbench/run.py --workload stream-wide --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds adya-check and adya-serve from
source (release) and the probe in perfbench/probe, then runs the probe,
which prints a table of metrics and, as its last stdout line, the
result JSON: {"correct", "attempted", "failed", "metrics"}. --trace 0
gives the end-to-end metrics, --trace 1 the per-layer ones. The exit
status is non-zero when a build fails or a correctness gate fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("stream-wide", "stream-hot", "serve-repl")
# A run ends well within 180 s; a probe that overruns is stopped.
PROBE_TIMEOUT_S = 175


def build(target_dir):
    """Builds the program under test and the probe; False on failure."""
    steps = [
        ["cargo", "build", "--release", "--offline", "--bin", "adya-check", "--bin", "adya-serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "probe", "Cargo.toml")],
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in steps:
        # Cargo's progress goes to stderr so stdout stays the result.
        if subprocess.run(cmd, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(target):
        return 2
    bins = os.path.join(target, "release")
    cmd = [
        os.path.join(bins, "perfbench-probe"), "run",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--bin-dir", bins,
        "--work", os.path.join(root, ".bench_work", args.workload),
        "--cache", os.path.join(root, ".bench_cache"),
    ]
    # Own process group: on a timeout the probe and every server it
    # spawned are stopped together.
    probe = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, start_new_session=True)
    try:
        return probe.wait(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(probe.pid, signal.SIGKILL)
        probe.wait()
        print("perfbench: probe timed out", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        os.killpg(probe.pid, signal.SIGKILL)
        probe.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
