#!/usr/bin/env python3
"""The benchmark's steadiness self-check.

Usage, from the repository root:

    python3 perfbench/steadiness.py

Runs every workload of `BENCHMARK.json` ten times, with seeds 1 to 10,
through `perfbench/run.py` with its `run_seconds`, untraced. For each
end-to-end metric it reports the median and the spread: the distance
between the first and third quartiles (`statistics.quantiles(n=4)`) as a
share of the median, against the metric's bound. Exits 1 if a run fails
its output checks or a spread exceeds its bound.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        capture_output=True,
        text=True,
        timeout=900,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        results = []
        for seed in range(1, RUNS + 1):
            r = run_once(workload, seed, bench["run_seconds"])
            if not r["correct"] or r["failed"]:
                print(f"{workload} seed {seed}: outputs failed their checks")
                ok = False
            results.append(r)
        print(f"{workload} ({RUNS} runs, seeds 1..{RUNS})")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok &= spread <= bound
            flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO NOISY")
            print(
                f"  {metric:<22} median {med:>14.6g}  spread {100 * spread:6.2f}%  "
                f"bound {100 * bound:5.1f}%  {flag}",
                flush=True,
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
