"""``analysis-play``: the scaled Play corpus, cold then warm.

Each round analyzes the corpus with
:func:`repro.analysis.pipeline.run_analysis` (serial backend, 4 shards)
into a fresh, empty cache directory, then again over that cache.  On
the cold pass corpus generation, the smali scan and the classifier do
the work and the cache only writes; on the warm pass the cache only
reads.  No fleet layer runs here.
"""

from __future__ import annotations

import shutil
import time
from typing import Dict, List

from perfbench import WORK_DIR, report
from perfbench.report import Outcome
from perfbench.tracing import Patches, Tracer, instrument_analysis

APPS = 6000
SHARDS = 4
MIN_ROUNDS = 3

IMPORTS = ("repro.analysis.pipeline",)


def planted_table2(apps: int) -> Dict[str, int]:
    """Table II counts the scaled corpus plants, straight from its spec."""
    from repro.analysis.corpus import scaled_play_spec

    spec = scaled_play_spec(apps)
    return {
        "total": spec.total,
        "installers": spec.installers,
        "vulnerable": spec.vulnerable,
        "secure": spec.secure,
        "unknown": (spec.unknown_reflection + spec.unknown_field_mode
                    + spec.unknown_mixed),
        "write_external": spec.write_external_total,
    }


def check_round(cold, warm, apps: int) -> List[str]:
    """What is wrong with one cold+warm round (empty: nothing)."""
    from repro.analysis.pipeline import table2_counts

    problems = []
    counts = table2_counts(cold.stats)
    if counts != planted_table2(apps):
        problems.append(f"analysis-play: table II counts {counts} differ "
                        f"from the planted {planted_table2(apps)}")
    if cold.cache_misses != apps or cold.cache_hits:
        problems.append(f"analysis-play: cold pass had {cold.cache_hits} "
                        f"hits and {cold.cache_misses} misses")
    if warm.cache_misses or warm.cache_hits != apps:
        problems.append(f"analysis-play: warm pass had {warm.cache_misses} "
                        f"misses and {warm.cache_hits} hits, expected "
                        f"{apps} hits")
    if warm.stats.identity_tuple() != cold.stats.identity_tuple():
        problems.append("analysis-play: warm stats differ from cold stats")
    return problems


class Rounds:
    """Cold+warm rounds over fresh cache directories under the work dir."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.index = 0
        self.root = WORK_DIR / "runs" / "analysis"

    def spec(self, cache_dir):
        from repro.analysis.pipeline import AnalysisSpec

        return AnalysisSpec(corpus="play", apps=APPS, seed=self.seed,
                            cache_dir=str(cache_dir))

    def run(self):
        """One round: (cold s, warm s, cold report, warm report, bytes)."""
        from repro.analysis.pipeline import run_analysis

        self.index += 1
        cache_dir = self.root / f"cache-{self.index}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache_dir.mkdir(parents=True)
        spec = self.spec(cache_dir)
        try:
            started = time.perf_counter()
            cold = run_analysis(spec, shards=SHARDS, backend="serial")
            cold_s = time.perf_counter() - started
            written = report.directory_bytes(cache_dir)
            started = time.perf_counter()
            warm = run_analysis(spec, shards=SHARDS, backend="serial")
            warm_s = time.perf_counter() - started
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return cold_s, warm_s, cold, warm, written


def setup_seconds(rounds: Rounds) -> float:
    """Imports plus the corpus plan and an empty cache directory."""
    total = report.import_seconds(IMPORTS)
    samples = []
    for index in range(report.SETUP_REPEATS):
        started = time.perf_counter()
        cache_dir = rounds.root / f"setup-{index}"
        cache_dir.mkdir(parents=True, exist_ok=True)
        rounds.spec(cache_dir).plan()
        samples.append(time.perf_counter() - started)
        shutil.rmtree(cache_dir, ignore_errors=True)
    return total + report.median(samples)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    """One benchmark run of ``analysis-play``."""
    outcome = Outcome()
    rounds = Rounds(seed)
    setup = setup_seconds(rounds)
    reference = []

    def account(result) -> None:
        _cold_s, _warm_s, cold, warm, _written = result
        outcome.attempted += 2 * APPS
        outcome.failed += cold.counters.get("errors", 0)
        outcome.failed += warm.counters.get("errors", 0)
        identity = cold.stats.identity_tuple()
        if not reference:
            reference.append(identity)
            for problem in check_round(cold, warm, APPS):
                outcome.check(False, problem)
        outcome.check(identity == reference[0] and
                      warm.stats.identity_tuple() == reference[0],
                      "analysis-play: merged stats differ between runs")

    account(rounds.run())  # warm-up: imports, plan memos, allocator
    if trace:
        _traced(seed, seconds, rounds, outcome, account)
        return outcome

    def step():
        result = rounds.run()
        account(result)
        return result

    results, rss = report.timed_loop(seconds, MIN_ROUNDS, step)
    cold_rates = [APPS / cold_s for cold_s, *_ in results]
    warm_rates = [APPS / warm_s for _, warm_s, *_ in results]
    warm_ms = [warm_s * 1000.0 for _, warm_s, *_ in results]
    outcome.metrics.update({
        "setup_s": setup,
        "throughput_per_s": report.median(cold_rates),
        "latency_p50_ms": report.median(warm_ms),
        "peak_rss_mb": rss,
    })
    outcome.detail.update({
        "apps_per_s_cold": report.median(cold_rates),
        "apps_per_s_warm": report.median(warm_rates),
        "warm_pass_p50_ms": report.median(warm_ms),
        "peak_rss_mb": rss,
        "setup_s": setup,
        "apps": APPS,
        "rounds": len(results),
    })
    return outcome


def _traced(seed, seconds, rounds, outcome, account) -> None:
    """Alternate untraced and traced rounds; derive the per-layer metrics."""
    tracer = Tracer()
    plain: List[float] = []
    traced: List[float] = []
    written = 0
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        untraced = rounds.run()
        account(untraced)
        plain.append(untraced[0] + untraced[1])
        with Patches() as patches:
            instrument_analysis(tracer, patches)
            result = rounds.run()
        outcome.check(
            result[2].stats.identity_tuple()
            == untraced[2].stats.identity_tuple(),
            "analysis-play: tracing changed the merged stats")
        account(result)
        traced.append(result[0] + result[1])
        written += result[4]
    # Per app of the corpus: a round analyzes each app cold, then warm.
    ops = APPS * len(traced)
    metrics = report.layer_metrics(tracer.self_times_ns(), ops,
                                   int(sum(traced) * 1e9), tracer.span_count)
    metrics.update({
        "analysis.smali.lines_per_app": tracer.counts["smali_lines"] / ops,
        "analysis.cache.hits_per_app": tracer.counts["cache_hits"] / ops,
        "analysis.cache.bytes_written_per_app": written / ops,
        "trace.overhead_ratio": report.median(traced) / report.median(plain),
    })
    outcome.metrics.update(metrics)
    outcome.detail.update({"traced_rounds": len(traced), "apps": APPS,
                           "untraced_round_s": report.median(plain),
                           "traced_round_s": report.median(traced)})
    tracer.write(WORK_DIR / "traces" / f"analysis-play-seed{seed}",
                 {"workload": "analysis-play", "seed": seed, "apps": ops})
