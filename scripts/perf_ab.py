#!/usr/bin/env python3
"""A/B the campaign benchmark: a parent ref against the working tree.

Usage, from the repository root:

    python3 scripts/perf_ab.py --parent HEAD --workloads city_1m \\
        --seeds 1,2,3,4,5,6,7,8,9,11 --seconds 20 --claim city_1m:wall_s

Checks the parent ref out into a temporary `git worktree`, then runs
`perfbench/run.py` from each tree, each with its own `CARGO_TARGET_DIR`,
in alternating pairs: pair k runs seed k of the seed list (cycled) on both
trees, parent first on even pairs and change first on odd ones, so a slow
drift of the host's speed hits both sides alike. run.py builds its tree
before every run (a no-op once warm) and pins one worker thread.

Prints one markdown row per workload and end-to-end metric of
BENCHMARK.json: each side's median [Q1-Q3], the change in the median, and
in how many pairs the change was better. With --claim it also prints the
benchmark's verdict on that metric: the change must be better in at least
nine pairs of ten, and its median must beat the parent's by more than the
parent's interquartile range. It warns when a pair's two outputs digests
differ, which a speed-only change never causes.

Reads BENCHMARK.json and calls perfbench/run.py; changes nothing in
either tree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(tree, target, workload, seed, seconds):
    """One perfbench run: (metrics dict, outputs digest or None)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    out = subprocess.run(
        [
            sys.executable,
            os.path.join(tree, "perfbench", "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            repr(seconds),
            "--trace",
            "0",
        ],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"perf_ab: {workload} seed {seed} failed in {tree}:\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.exit(f"perf_ab: {workload} seed {seed} failed its output checks in {tree}")
    digest = next(
        (l.rsplit(" ", 1)[-1] for l in lines if "outputs digest" in l), None
    )
    return {k: v["value"] for k, v in result["metrics"].items()}, digest


def quartiles(xs):
    """(Q1, median, Q3), linearly interpolated between order statistics."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def fmt(x):
    return f"{x:.4g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent side")
    ap.add_argument("--workloads", required=True, help="comma-separated names")
    ap.add_argument("--seeds", required=True, help="comma-separated seeds, cycled")
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--claim", help="workload:metric the change claims to improve")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    lower = {m["name"]: m["better"] == "lower" for m in metrics}

    scratch = tempfile.mkdtemp(prefix="perf_ab-")
    parent_tree = os.path.join(scratch, "parent")
    subprocess.run(
        ["git", "-C", ROOT, "worktree", "add", "--detach", parent_tree, args.parent],
        check=True,
        capture_output=True,
    )
    sides = {
        "parent": (parent_tree, os.path.join(scratch, "target-parent")),
        "change": (ROOT, os.path.join(scratch, "target-change")),
    }
    runs = {(w, s): [] for w in workloads for s in sides}
    try:
        for w in workloads:
            for k in range(args.pairs):
                seed = seeds[k % len(seeds)]
                order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
                digests = {}
                for side in order:
                    values, digests[side] = run_once(*sides[side], w, seed, args.seconds)
                    runs[(w, side)].append(values)
                if digests["parent"] != digests["change"]:
                    print(
                        f"warning: {w} seed {seed}: outputs digest {digests['parent']} "
                        f"(parent) vs {digests['change']} (change)",
                        file=sys.stderr,
                    )
                print(f"{w}: pair {k + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)
    finally:
        subprocess.run(
            ["git", "-C", ROOT, "worktree", "remove", "--force", parent_tree],
            capture_output=True,
        )

    print("| workload | metric | parent median [Q1–Q3] | change median [Q1–Q3] "
          "| Δ median | change better |")
    print("|---|---|---|---|---|---|")
    verdicts = {}
    for w in workloads:
        for m in (m["name"] for m in metrics):
            parent = [r[m] for r in runs[(w, "parent")]]
            change = [r[m] for r in runs[(w, "change")]]
            pq, cq = quartiles(parent), quartiles(change)
            better = sum(
                (c < p) if lower[m] else (c > p) for p, c in zip(parent, change)
            )
            delta = (cq[1] - pq[1]) / pq[1] * 100 if pq[1] else float("nan")
            print(
                f"| `{w}` | `{m}` | {fmt(pq[1])} [{fmt(pq[0])}–{fmt(pq[2])}] "
                f"| {fmt(cq[1])} [{fmt(cq[0])}–{fmt(cq[2])}] | {delta:+.1f}% "
                f"| {better}/{len(parent)} |"
            )
            gap = (pq[1] - cq[1]) if lower[m] else (cq[1] - pq[1])
            verdicts[f"{w}:{m}"] = (better, len(parent), gap, pq[2] - pq[0])
    if args.claim:
        if args.claim not in verdicts:
            sys.exit(f"perf_ab: no runs of {args.claim}")
        better, pairs, gap, iqr = verdicts[args.claim]
        wins = better * 10 >= 9 * pairs
        clear = gap > iqr
        print(
            f"\nclaim {args.claim}: better in {better}/{pairs} pairs "
            f"({'ok' if wins else 'FAIL'}: needs 9 of 10), median gap {fmt(gap)} "
            f"vs parent IQR {fmt(iqr)} ({'ok' if clear else 'FAIL'}) -> "
            f"{'HOLDS' if wins and clear else 'NOT MET'}"
        )
        return 0 if wins and clear else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
