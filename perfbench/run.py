#!/usr/bin/env python3
"""Build and run one workload of the campaign benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload city_1m --seed 1 --seconds 20 --trace 0

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs the workload in its own process with
one worker thread (`MILBACK_THREADS=1`). The workload's lines go to stdout;
the last one is the result JSON. Exits non-zero without a result when the
build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("city_1m", "sector_sdm", "gap_relay", "session_packet")
# The build may take up to 900 s on a cold checkout. A run measures for
# --seconds (at most MAX_SECONDS) and needs up to RUN_MARGIN_S more for its
# set-up, warm-up unit and, traced, its replays of a 10^6-node campaign.
BUILD_TIMEOUT_S = 880
MAX_SECONDS = 60
RUN_MARGIN_S = 100


def rustc_version():
    try:
        out = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, timeout=30
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= MAX_SECONDS:
        ap.error(f"--seed must be >= 0 and --seconds in (0, {MAX_SECONDS}]")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        build = subprocess.run(
            [
                "cargo",
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                os.path.join(HERE, "Cargo.toml"),
            ],
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    print(
        f"host: cores={os.cpu_count()} threads=1 rustc={rustc_version()!r} "
        "features=milback-core/default(telemetry)",
        flush=True,
    )
    env["MILBACK_THREADS"] = "1"
    try:
        run = subprocess.run(
            [
                os.path.join(target, "release", "perfbench"),
                "--workload",
                args.workload,
                "--seed",
                str(args.seed),
                "--seconds",
                repr(args.seconds),
                "--trace",
                args.trace,
            ],
            env=env,
            timeout=args.seconds + RUN_MARGIN_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
