#!/usr/bin/env python3
"""Builds the repository's `ttk` binary and the `perfbench` harness from
source, then runs one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload local-query --seed 1 --seconds 30 --trace 0

Builds go to $CARGO_TARGET_DIR (default `.bench_build`). Build output goes
to standard error; the last line of standard output is the run's JSON
result. Exits non-zero, without a result, when the checkout does not hold
the repository's sources.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("local-query", "serve-mixed", "remote-shards")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(command, env):
    result = subprocess.run(command, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"build failed: {' '.join(command)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("Cargo.toml", "crates/cli/Cargo.toml", "crates/core/Cargo.toml"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"{needed} not found: run from the root of a full checkout")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(["cargo", "build", "--release", "--offline", "--quiet", "-p", "ttk-cli"], env)
    build(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
        ],
        env,
    )

    command = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--ttk", os.path.join(target, "release", "ttk"),
        "--work-dir", os.path.join(target, "perfbench-work"),
    ]
    # Its own process group, so a run that overstays can be stopped together
    # with the daemons it started.
    child = subprocess.Popen(command, env=env, start_new_session=True)

    def forward(signum, _frame):
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    try:
        sys.exit(child.wait(timeout=RUN_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    main()
