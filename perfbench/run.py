#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fleet-benign --seed 1 --seconds 15 --trace 0

Prints each metric by name and unit, then a JSON line with the workload's
named metrics, the host and the seed, and last a JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
Exits 1 when a correctness check fails and 2 when the program cannot
be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench import REPO_ROOT, WORK_DIR, ensure_program_importable  # noqa: E402
from perfbench import report  # noqa: E402

WORKLOADS = ("fleet-benign", "fleet-flood", "analysis-play", "serve-mix")


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> report.Outcome:
    """Dispatch to the workload's module."""
    if workload.startswith("fleet-"):
        from perfbench import fleet

        return fleet.run(workload, seed, seconds, trace)
    if workload == "analysis-play":
        from perfbench import analysis_play

        return analysis_play.run(seed, seconds, trace)
    from perfbench import serve_mix

    return serve_mix.run(seed, seconds, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        ensure_program_importable()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # Paths the benchmark hands to child processes are relative to here.
    os.chdir(REPO_ROOT)
    # A terminated run still unwinds, so its daemon is shut down.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run_dir = WORK_DIR / "runs"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    catalogue = report.PER_LAYER if args.trace else report.END_TO_END
    metrics = {name: {"value": float(outcome.metrics.get(name, 0.0)),
                      "unit": unit} for name, unit in catalogue}
    for name, entry in metrics.items():
        print(f"{args.workload:14s} {name:42s} {entry['value']:14.4f} "
              f"{entry['unit']}")
    for failure in outcome.failures:
        print(f"CHECK FAILED: {failure}")
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": report.host_metadata(), "detail": outcome.detail,
              "failures": outcome.failures}
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": outcome.correct,
                      "attempted": int(outcome.attempted),
                      "failed": int(outcome.failed),
                      "metrics": metrics}))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
