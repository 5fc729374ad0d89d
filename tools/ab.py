#!/usr/bin/env python3
"""Same-host A/B perf gate: this tree against a base commit, over perfbench.

    python3 tools/ab.py --base REF --workload fleet-benign [--workload W ...]

Checks ``REF`` out into a temporary ``git worktree`` and runs each
workload's ``perfbench/run.py`` in both trees, ``PAIRS`` times,
alternating which side goes first, with the run length that
``BENCHMARK.json`` sets.  The gate then applies the acceptance rule to
the medians: for every end-to-end metric of ``BENCHMARK.json`` the
head may be worse than the base by at most that metric's ``bound``,
in the metric's ``better`` direction.  A run reporting
``correct: false`` on either side, or a head whose failed share of
attempted operations is above the base's, fails too.

Prints one line per metric.  Exits 0 on pass, 1 on fail, 2 on a usage
error.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Paired runs per workload; the order inside a pair alternates.
PAIRS = 3


def worse_by(better: str, base: float, head: float) -> float:
    """How much worse ``head`` is than ``base``, as a fraction of base."""
    if base == 0:
        return 0.0 if head == base else float("inf")
    change = (head - base) / abs(base)
    return -change if better == "higher" else change


def failed_share(runs) -> float:
    """Failed operations over attempted ones, summed across runs."""
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    return failed / attempted if attempted else 0.0


def verdict(bench, base_runs, head_runs):
    """``(ok, lines)`` for one workload's base and head runs.

    Each run is the last JSON line ``perfbench/run.py`` prints:
    ``correct``, ``attempted``, ``failed`` and ``metrics``.
    """
    def median(runs, name):
        return statistics.median(run["metrics"][name]["value"] for run in runs)

    ok = True
    lines = []
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        base, head = median(base_runs, name), median(head_runs, name)
        passed = worse_by(metric["better"], base, head) <= bound
        ok = ok and passed
        ratio = head / base if base else float("nan")
        lines.append(f"{name:18s} base {base:12.4f}  head {head:12.4f}  "
                     f"ratio {ratio:6.3f}  bound {bound:.2f} "
                     f"({metric['better']} is better)  "
                     f"{'ok' if passed else 'FAIL'}")
    base_share, head_share = failed_share(base_runs), failed_share(head_runs)
    passed = head_share <= base_share
    ok = ok and passed
    lines.append(f"{'failed share':18s} base {base_share:12.6f}  head "
                 f"{head_share:12.6f}  {'ok' if passed else 'FAIL'}")
    for side, runs in (("base", base_runs), ("head", head_runs)):
        wrong = sum(1 for run in runs if not run["correct"])
        passed = wrong == 0
        ok = ok and passed
        lines.append(f"{'correct':18s} {side}: {len(runs) - wrong}/"
                     f"{len(runs)} run(s)  {'ok' if passed else 'FAIL'}")
    return ok, lines


def run_side(tree: pathlib.Path, workload: str, seed: int, seconds: float):
    """One perfbench run in ``tree``; its last JSON line, parsed."""
    # Each tree imports its own ``src``, never the caller's PYTHONPATH.
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise RuntimeError(f"{tree}: {workload} printed no result "
                       f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")


def git(*args: str) -> None:
    subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git ref to compare against")
    parser.add_argument("--workload", required=True, action="append",
                        choices=names)
    args = parser.parse_args(argv)
    try:
        git("rev-parse", "--verify", "--quiet", f"{args.base}^{{commit}}")
    except subprocess.CalledProcessError:
        print(f"ab: unknown --base {args.base!r}", file=sys.stderr)
        return 2
    ok = True
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        base_tree = pathlib.Path(scratch) / "base"
        git("worktree", "add", "--detach", str(base_tree), args.base)
        try:
            for workload in args.workload:
                runs = {"base": [], "head": []}
                for pair in range(1, PAIRS + 1):
                    order = ("base", "head") if pair % 2 else ("head", "base")
                    for side in order:
                        tree = base_tree if side == "base" else ROOT
                        runs[side].append(run_side(tree, workload, pair,
                                                   bench["run_seconds"]))
                passed, lines = verdict(bench, runs["base"], runs["head"])
                ok = ok and passed
                print(f"{workload}: {'PASS' if passed else 'FAIL'} "
                      f"(median of {PAIRS} pairs, base {args.base})")
                for line in lines:
                    print(f"  {workload:14s} {line}")
        finally:
            git("worktree", "remove", "--force", str(base_tree))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
