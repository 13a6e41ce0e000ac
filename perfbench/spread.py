#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [--trace 0]
                                [--workloads cold_local,cold_http,...]

For every workload it runs `perfbench/run.py` once per seed, one run at a
time, with BENCHMARK.json's `run_seconds`, then prints per metric the
median, the first and third quartiles (Python's
`statistics.quantiles(values, n=4)`), their distance as a share of the
median, and that share against the metric's bound. Raw results are kept in
<target>/perfbench-out/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in spec["workloads"])
    )
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    target = Path(os.environ.get("CARGO_TARGET_DIR", root / ".bench_build"))
    out = target / "perfbench-out"
    out.mkdir(parents=True, exist_ok=True)
    worst = 0.0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        log = out / f"spread-{workload}.jsonl"
        with log.open("w") as f:
            for seed in range(args.first_seed, args.first_seed + args.seeds):
                cmd = spec["command"] + [
                    "--workload", workload,
                    "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]),
                    "--trace", str(args.trace),
                ]
                run = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
                lines = run.stdout.strip().splitlines()
                if run.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit {run.returncode}\n{run.stderr}")
                    return 1
                result = json.loads(lines[-1])
                f.write(json.dumps({"seed": seed, "result": result}) + "\n")
                attempted += result["attempted"]
                failed += result["failed"]
                if not result["correct"]:
                    print(f"{workload} seed {seed}: correctness gate failed")
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
        print(f"\n{workload}: {args.seeds} runs, {failed}/{attempted} failed")
        for name, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            share = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            verdict = ""
            if bound:
                verdict = f"bound {bound:<5} {'ok' if share < bound / 3 else 'WIDE'}"
                worst = max(worst, share / bound)
            print(f"  {name:<34} median {med:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {share:7.2%}  {verdict}")
    if worst:
        print(f"\nwidest spread: {worst:.2f} of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
