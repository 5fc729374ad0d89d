#!/usr/bin/env python3
"""Wall-clock benchmark harness for the fleet-engine hot path.

Times the reference fleet (a serial, attack-free campaign — the
engine's per-install overhead with no pool scheduling noise), then
either records the measurement as a ``BENCH_*.json`` baseline or
gates it against a committed one:

    python tools/bench.py --write BENCH_fleet.json
    python tools/bench.py --compare BENCH_fleet.json          # exit 1 on
                                                              # >10% slowdown

``--compare`` exits 0 when the best-of-N wall clock is within the
threshold of the baseline, 1 on a regression, 2 on usage errors.
``--inject-slowdown 0.2`` scales the measurement by +20% before the
gate — the synthetic-regression knob the tests use to prove the gate
actually fires.  ``--trace``/``--report`` export the evidence CI
uploads as build artifacts.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.engine import CampaignSpec, NullProgress, run_fleet  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.obs import host_metadata, write_trace_jsonl  # noqa: E402
from repro.obs.baseline import (  # noqa: E402
    BenchBaseline,
    load_baseline,
    regression_gate,
    save_baseline,
)

#: The reference fleet: large enough that best-of-N wall clock is
#: stable (seconds, not milliseconds), small enough for a CI job.
DEFAULT_INSTALLS = 2000
DEFAULT_SHARDS = 4
DEFAULT_SEED = 7

#: The reference analysis workload for ``--analyze``: the scaled Play
#: corpus the acceptance gate runs (classifier + redirect scan per app).
DEFAULT_APPS = 100000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="benchmark the fleet engine against a wall-clock baseline")
    parser.add_argument("--installs", type=int, default=DEFAULT_INSTALLS)
    parser.add_argument("--shards", type=int, default=DEFAULT_SHARDS)
    parser.add_argument("--backend", default="serial",
                        choices=["serial", "process", "auto"],
                        help="serial by default: per-install cost without "
                             "pool scheduling noise")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed repetitions; the gate uses the best")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="tolerated relative slowdown (0.10 = 10%%)")
    parser.add_argument("--inject-slowdown", type=float, default=0.0,
                        metavar="FRAC",
                        help="synthetic slowdown added to the measurement "
                             "(testing the gate itself)")
    parser.add_argument("--write", metavar="PATH",
                        help="record the measurement as a baseline file")
    parser.add_argument("--compare", metavar="PATH",
                        help="gate the measurement against a baseline file")
    parser.add_argument("--trace", metavar="PATH",
                        help="also export a JSONL trace of one observed run")
    parser.add_argument("--report", metavar="PATH",
                        help="write the text report to PATH as well")
    parser.add_argument("--profile", type=int, default=0, metavar="N",
                        help="cProfile one fleet run and append the top N "
                             "functions by cumulative time (usable without "
                             "--write/--compare)")
    parser.add_argument("--serve", type=int, default=0, metavar="JOBS",
                        help="measure warm-pool jobs/s against cold "
                             "one-shot fleets over JOBS submissions "
                             "(usable without --write/--compare)")
    parser.add_argument("--serve-installs", type=int, default=200,
                        help="installs per job in --serve mode (small on "
                             "purpose: pool startup is the cost under test)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes in --serve mode")
    parser.add_argument("--analyze", action="store_true",
                        help="benchmark the sharded measurement pipeline "
                             "(apps/s) instead of the install engine")
    parser.add_argument("--apps", type=int, default=DEFAULT_APPS,
                        help="scaled Play-corpus size in --analyze mode")
    parser.add_argument("--warm", action="store_true",
                        help="in --analyze mode, also time a cold-"
                             "populate + warm re-run through a fresh "
                             "analysis cache; recorded as baseline "
                             "metadata (the gate still compares the "
                             "cold, cache-free wall clock)")
    parser.add_argument("--telemetry", action="store_true",
                        help="run the timed fleets with per-shard "
                             "telemetry sampling on (measures the "
                             "probe's own overhead)")
    return parser


def time_fleet(spec: CampaignSpec, shards: int, backend: str,
               repeat: int, telemetry: bool = False) -> list:
    """Best-of-N timing of the reference fleet (seconds per repeat)."""
    runs = []
    for _ in range(max(1, repeat)):
        started = time.perf_counter()
        report = run_fleet(spec, shards=shards, backend=backend,
                           progress=NullProgress(), telemetry=telemetry)
        runs.append(time.perf_counter() - started)
        if report.stats.runs != spec.installs:
            raise ReproError(
                f"benchmark fleet ran {report.stats.runs} installs, "
                f"expected {spec.installs}")
    return runs


def time_analysis(apps: int, shards: int, backend: str, seed: int,
                  repeat: int, telemetry: bool = False) -> list:
    """Best-of-N timing of the sharded analysis pipeline."""
    from repro.analysis.pipeline import AnalysisSpec, run_analysis

    spec = AnalysisSpec(corpus="play", apps=apps, seed=seed)
    runs = []
    for _ in range(max(1, repeat)):
        started = time.perf_counter()
        report = run_analysis(spec, shards=shards, backend=backend,
                              telemetry=telemetry)
        runs.append(time.perf_counter() - started)
        if report.stats.runs != apps:
            raise ReproError(
                f"benchmark analysis covered {report.stats.runs} apps, "
                f"expected {apps}")
    return runs


def time_analysis_warm(apps: int, shards: int, backend: str, seed: int,
                       telemetry: bool = False) -> dict:
    """Cold-populate + warm re-run timings through a fresh pack cache.

    The warm run must serve every app from the cache (0 analyzed) and
    reproduce the cold stats exactly — both are asserted, so the warm
    number can never come from doing different work.
    """
    import shutil
    import tempfile

    from repro.analysis.pipeline import AnalysisSpec, run_analysis

    cache_dir = tempfile.mkdtemp(prefix="bench-analysis-cache-")
    try:
        spec = AnalysisSpec(corpus="play", apps=apps, seed=seed,
                            cache_dir=cache_dir)
        started = time.perf_counter()
        cold = run_analysis(spec, shards=shards, backend=backend,
                            telemetry=telemetry)
        cold_seconds = time.perf_counter() - started
        started = time.perf_counter()
        warm = run_analysis(spec, shards=shards, backend=backend,
                            telemetry=telemetry)
        warm_seconds = time.perf_counter() - started
        hits = warm.counters.get("cache_hits", 0)
        misses = warm.counters.get("cache_misses", 0)
        if misses or hits != apps:
            raise ReproError(
                f"warm analysis re-analyzed {misses} app(s) "
                f"({hits} hit(s)); the cache must serve all {apps}")
        if warm.stats.counters != cold.stats.counters:
            raise ReproError("warm analysis stats diverged from cold")
        return {
            "cold_seconds": round(cold_seconds, 6),
            "warm_seconds": round(warm_seconds, 6),
            "warm_throughput": round(apps / warm_seconds, 2),
            "warm_hits": hits,
        }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def profile_fleet(spec: CampaignSpec, shards: int, backend: str,
                  top: int) -> str:
    """cProfile one fleet run; the top-``top`` cumulative-time report.

    Paths are stripped to bare filenames (``pstats.strip_dirs``) so the
    committed report is stable across checkouts and interpreters.
    """
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    run_fleet(spec, shards=shards, backend=backend, progress=NullProgress())
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)
    return stream.getvalue().rstrip()


def bench_serve(installs: int, shards: int, jobs: int, workers: int,
                seed: int) -> list:
    """Warm-pool vs cold-start job throughput (the serve daemon's win).

    Cold runs each job the way one-shot ``repro fleet`` does — a fresh
    worker pool per campaign, fork+import paid every time.  Warm runs
    the same jobs through one resident :class:`FleetExecutor` pool
    after a single untimed warm-up job, which is exactly the serve
    daemon's steady state.  Stats are asserted equal, so the speedup
    is never bought with different work.
    """
    from repro.engine import FleetExecutor, multiprocessing_usable

    if not multiprocessing_usable():
        raise ReproError("--serve needs multiprocessing (process pools "
                         "are unavailable in this environment)")
    spec = CampaignSpec(installs=installs, seed=seed)
    expected = None
    started = time.perf_counter()
    for _ in range(jobs):
        report = run_fleet(spec, shards=shards, backend="process",
                           workers=workers, progress=NullProgress())
        expected = report.stats.counter_tuple()
    cold = time.perf_counter() - started
    with FleetExecutor(workers=workers, backend="process") as fleet:
        fleet.run(spec, shards=shards)  # pool warm-up, untimed
        started = time.perf_counter()
        for _ in range(jobs):
            report = fleet.run(spec, shards=shards)
            if report.stats.counter_tuple() != expected:
                raise ReproError("warm pool produced different stats "
                                 "than the cold fleet")
        warm = time.perf_counter() - started
    return [
        f"bench serve: {jobs} job(s) x {installs} installs, "
        f"{shards} shard(s), {workers} worker(s), seed={seed}",
        f"  cold     : {cold:.3f}s total  "
        f"({jobs / cold:.2f} jobs/s) — new pool per job",
        f"  warm     : {warm:.3f}s total  "
        f"({jobs / warm:.2f} jobs/s) — resident pool, serve steady state",
        f"  speedup  : {cold / warm:.2f}x jobs/s "
        f"(identical merged stats verified per job)",
    ]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    standalone = args.profile or args.serve
    if bool(args.write) == bool(args.compare) and not (
            standalone and not args.write and not args.compare):
        print("error: exactly one of --write/--compare is required "
              "(unless only --profile/--serve is given)",
              file=sys.stderr)
        return 2
    try:
        spec = CampaignSpec(installs=args.installs, seed=args.seed)
        if args.analyze:
            bench_name, unit, size = "analysis", "apps", args.apps
        else:
            bench_name, unit, size = "fleet", "installs", args.installs
        lines = []
        if args.write or args.compare or args.trace or args.profile:
            lines.append(
                f"bench {bench_name}: {size} {unit}, "
                f"{args.shards} shard(s), "
                f"backend={args.backend}, seed={args.seed}"
                + (", telemetry=on" if args.telemetry else ""))
        exit_code = 0
        warm_info = None
        if args.write or args.compare:
            if args.analyze:
                runs = time_analysis(args.apps, args.shards, args.backend,
                                     args.seed, args.repeat,
                                     telemetry=args.telemetry)
            else:
                runs = time_fleet(spec, args.shards, args.backend,
                                  args.repeat, telemetry=args.telemetry)
            best = min(runs)
            measured = best * (1.0 + args.inject_slowdown)
            lines += [
                "  runs     : " + ", ".join(f"{run:.3f}s" for run in runs),
                f"  best     : {best:.3f}s "
                f"({size / best:.0f} {unit}/s)",
            ]
            if args.warm and args.analyze:
                warm_info = time_analysis_warm(
                    args.apps, args.shards, args.backend, args.seed,
                    telemetry=args.telemetry)
                lines.append(
                    f"  warm     : {warm_info['warm_seconds']:.3f}s "
                    f"({warm_info['warm_throughput']:.0f} {unit}/s from "
                    f"cache, {warm_info['warm_hits']} hit(s), 0 analyzed; "
                    f"cold populate {warm_info['cold_seconds']:.3f}s)")
        if args.inject_slowdown and (args.write or args.compare):
            lines.append(
                f"  injected : +{args.inject_slowdown * 100.0:.1f}% "
                f"synthetic slowdown -> {measured:.3f}s")
        if args.write:
            baseline = BenchBaseline(
                name=bench_name,
                installs=size,
                shards=args.shards,
                backend=args.backend,
                repeats=args.repeat,
                wall_seconds=measured,
                throughput=size / measured,
                runs=[round(run, 6) for run in runs],
                # Host facts make cross-machine baselines interpretable;
                # the regression gate compares wall_seconds only, so the
                # block never affects a pass/fail verdict.
                meta={"seed": args.seed, "unit": unit,
                      "telemetry": bool(args.telemetry),
                      # Cache-path evidence only: the regression gate
                      # compares the cold, cache-free wall_seconds.
                      **({"warm": warm_info} if warm_info else {}),
                      "host": host_metadata()},
            )
            save_baseline(args.write, baseline)
            lines.append(f"  baseline : wrote {args.write}")
        elif args.compare:
            baseline = load_baseline(args.compare)
            if (baseline.installs, baseline.shards) != (size, args.shards):
                raise ReproError(
                    f"baseline {args.compare} measured "
                    f"{baseline.installs} {unit} / {baseline.shards} "
                    f"shard(s); rerun with matching "
                    f"--{unit}/--shards")
            gate = regression_gate(baseline, measured,
                                   threshold=args.threshold)
            lines.append(gate.render(name=baseline.name))
            exit_code = 0 if gate.ok else 1
        if args.trace:
            observed = CampaignSpec(installs=min(args.installs, 200),
                                    seed=args.seed, observe=True)
            report = run_fleet(observed, shards=args.shards,
                               backend="serial", progress=NullProgress())
            count = write_trace_jsonl(args.trace, report.trace_records())
            lines.append(f"  trace    : {count} record(s) -> {args.trace}")
        if args.profile:
            lines.append(f"  profile  : top {args.profile} functions by "
                         "cumulative time, one fleet run")
            lines.append(profile_fleet(spec, args.shards, args.backend,
                                       args.profile))
        if args.serve:
            lines += bench_serve(args.serve_installs, args.shards,
                                 args.serve, args.workers, args.seed)
        text = "\n".join(lines)
        print(text)
        if args.report:
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        return exit_code
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
