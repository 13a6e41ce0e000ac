#!/usr/bin/env python3
"""Build and run the HDSampler end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: cold_local, cold_http, warm_l2, chaos_fleet (see
perfbench/README.md). The benchmark is a Rust package of its own
(perfbench/Cargo.toml); this script builds it in release mode into
$CARGO_TARGET_DIR (default: .bench_build in the checkout), confines the
run to one CPU, and runs it. The benchmark prints notes and, as the last
line of standard output, the result as one JSON object. Build output goes
to standard error. A failed build or run exits non-zero without a result.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cold_local", "cold_http", "warm_l2", "chaos_fleet")
# A safety net only: a run is time-boxed by --seconds and ends long before.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    package = Path(__file__).resolve().parent
    root = package.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))

    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(package / "Cargo.toml"),
        ],
        cwd=root,
        env=env,
        stdout=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    # One CPU for the whole process: the load is closed loop, so a client
    # and the server it waits on never run at the same time and lose no
    # parallelism; the run is spared migrations and cross-CPU wake-ups.
    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[-1]

    def confine() -> None:
        os.sched_setaffinity(0, {cpu})

    run = subprocess.run(
        [
            str(target / "release" / "perfbench"),
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
            "--out",
            str(target / "perfbench-out"),
        ],
        cwd=root,
        preexec_fn=confine,
        timeout=RUN_TIMEOUT_S,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
