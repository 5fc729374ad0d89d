"""``fleet-benign`` and ``fleet-flood``: in-process install campaigns.

Both drive :func:`repro.engine.run_fleet` on the serial backend, 4
shards per campaign, one campaign after another in this process.

- ``fleet-benign`` runs one attack-free, undefended campaign per
  registered installer on ``nexus5`` (so the DM, self-download and
  rename-on-complete staging paths all run), 100 installs each.
  Nothing watches the filesystem.
- ``fleet-flood`` runs the ``watcher-flood`` attack against the
  ``dapp-rescan`` defense on ``amazon`` with 64-deep watch queues: the
  VFS is used the other way round, by thousands of writes into bounded
  subscriber queues per install.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from perfbench import WORK_DIR, report
from perfbench.report import Outcome
from perfbench.tracing import Patches, Tracer, instrument_fleet

SHARDS = 4
BENIGN_INSTALLS = 100
FLOOD_INSTALLS = 4
FLOOD_SEEDS = 4
MIN_ROUNDS = 3

IMPORTS = ("repro.engine", "repro.installers.registry")


def campaign_specs(workload: str, seed: int, **overrides) -> List[List]:
    """The campaigns of ``workload``, one list per round variant.

    Rounds cycle through the variants.  ``fleet-flood`` has one variant
    per campaign seed: a flood install's work depends on its seed by a
    few percent, so each run averages over ``FLOOD_SEEDS`` of them.
    """
    from repro.engine import CampaignSpec
    from repro.installers.registry import all_installer_types

    if workload == "fleet-benign":
        return [[CampaignSpec(installs=BENIGN_INSTALLS, installer=name,
                              device="nexus5", seed=seed, **overrides)
                 for name in sorted(all_installer_types())]]
    return [[CampaignSpec(installs=FLOOD_INSTALLS, installer="amazon",
                          attack="watcher-flood", defenses=("dapp-rescan",),
                          watch_queue_depth=64, seed=seed * FLOOD_SEEDS + k,
                          **overrides)]
            for k in range(FLOOD_SEEDS)]


def check_campaign(workload: str, spec, stats) -> List[str]:
    """What is wrong with one campaign's merged stats (empty: nothing)."""
    problems = []
    label = f"{workload} {spec.installer} seed={spec.seed}"
    if stats.runs != spec.installs:
        problems.append(f"{label}: {stats.runs} runs, expected "
                        f"{spec.installs}")
    if stats.errors:
        problems.append(f"{label}: {stats.errors} install errors")
    if workload == "fleet-benign":
        if stats.hijacks or stats.clean_installs != stats.runs:
            problems.append(f"{label}: {stats.clean_installs} clean installs "
                            f"and {stats.hijacks} hijacks in {stats.runs} "
                            f"benign runs")
    elif not stats.hijacks == stats.alarmed_runs == stats.runs:
        problems.append(f"{label}: {stats.hijacks} hijacks and "
                        f"{stats.alarmed_runs} alarmed runs in {stats.runs} "
                        f"flood runs (dapp-rescan must alarm on every one)")
    return problems


def run_round(specs) -> Tuple[float, List[float], List[Tuple[int, ...]]]:
    """Run every campaign once: (wall s, campaign latencies s, stats)."""
    from repro.engine import NullProgress, run_fleet

    latencies, stats = [], []
    started = time.perf_counter()
    for spec in specs:
        begun = time.perf_counter()
        fleet = run_fleet(spec, shards=SHARDS, backend="serial",
                          progress=NullProgress())
        latencies.append(time.perf_counter() - begun)
        stats.append(fleet.stats)
    return time.perf_counter() - started, latencies, stats


def provision_seconds(specs) -> float:
    """Median time to provision every shard of one round (fresh devices)."""
    samples = []
    for _ in range(report.SETUP_REPEATS):
        started = time.perf_counter()
        for spec in specs:
            for shard in spec.shard(SHARDS):
                shard.publish_workload(shard.build_scenario())
        samples.append(time.perf_counter() - started)
    return report.median(samples)


class Rounds:
    """Rounds cycling through a workload's variants, each one checked."""

    def __init__(self, workload: str, seed: int, outcome: Outcome) -> None:
        self.workload = workload
        self.variants = campaign_specs(workload, seed)
        self.outcome = outcome
        self.count = 0
        self._reference: Dict[int, List[Tuple[int, ...]]] = {}

    def installs(self, variant: int) -> int:
        return sum(spec.installs for spec in self.variants[variant])

    def run(self, variant: Optional[int] = None):
        """One round: (variant, wall s, campaign latencies s, stats)."""
        if variant is None:
            variant = self.count % len(self.variants)
        self.count += 1
        specs = self.variants[variant]
        wall, latencies, stats = run_round(specs)
        outcome = self.outcome
        outcome.attempted += self.installs(variant)
        outcome.failed += sum(part.errors for part in stats)
        tuples = [part.counter_tuple() for part in stats]
        reference = self._reference.setdefault(variant, tuples)
        if reference is tuples:
            for spec, part in zip(specs, stats):
                for problem in check_campaign(self.workload, spec, part):
                    outcome.check(False, problem)
        outcome.check(tuples == reference,
                      f"{self.workload}: merged stats differ between runs")
        return variant, wall, latencies, stats


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """One benchmark run of a fleet workload."""
    outcome = Outcome()
    rounds = Rounds(workload, seed, outcome)
    setup = report.import_seconds(IMPORTS)
    setup += provision_seconds(rounds.variants[0])
    rounds.run(0)  # warm-up: lets process-wide artifact caches fill
    if trace:
        _traced(workload, seed, seconds, rounds, outcome)
        return outcome
    results, rss = report.timed_loop(seconds, MIN_ROUNDS, rounds.run)
    rates = [rounds.installs(variant) / wall
             for variant, wall, _, _ in results]
    latencies = [latency for _, _, per, _ in results for latency in per]
    outcome.metrics.update({
        "setup_s": setup,
        "throughput_per_s": report.median(rates),
        "latency_p50_ms": report.median(latencies) * 1000.0,
        "peak_rss_mb": rss,
    })
    outcome.detail.update({
        "installs_per_s": report.median(rates),
        "peak_rss_mb": rss,
        "setup_s": setup,
        "campaign_p50_ms": report.median(latencies) * 1000.0,
        "rounds": len(results),
        "campaigns": len(latencies),
        "installs": sum(rounds.installs(v) for v, *_ in results),
    })
    return outcome


def _traced(workload, seed, seconds, rounds: Rounds, outcome) -> None:
    """Alternate untraced and traced rounds; derive the per-layer metrics."""
    tracer = Tracer()
    plain: List[float] = []
    traced: List[float] = []
    ops = 0
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        variant, wall, _, untraced_stats = rounds.run()
        plain.append(wall)
        with Patches() as patches:
            instrument_fleet(tracer, patches)
            _, wall, _, stats = rounds.run(variant)
        outcome.check(
            [s.counter_tuple() for s in stats]
            == [s.counter_tuple() for s in untraced_stats],
            f"{workload}: tracing changed the merged stats")
        traced.append(wall)
        ops += rounds.installs(variant)
    metrics = report.layer_metrics(tracer.self_times_ns(), ops,
                                   int(sum(traced) * 1e9), tracer.span_count)
    counts = tracer.counts
    dropped = sum(sub.dropped for sub in tracer.subscriptions)
    metrics.update({
        "sim.kernel.events_per_install": counts["kernel_events"] / ops,
        "android.filesystem.calls_per_install": counts["fs_calls"] / ops,
        "sim.events.publishes_per_install": counts["publishes"] / ops,
        "sim.events.delivered_per_install": counts["delivered"] / ops,
        "sim.events.dropped_per_install": dropped / ops,
        "android.apk.bytes_hashed_per_install": counts["bytes_hashed"] / ops,
        "android.signing.verifies_per_install": counts["verifies"] / ops,
        "trace.overhead_ratio": report.median(traced) / report.median(plain),
    })
    outcome.metrics.update(metrics)
    outcome.detail.update({"traced_rounds": len(traced),
                           "traced_installs": ops,
                           "untraced_round_s": report.median(plain),
                           "traced_round_s": report.median(traced)})
    tracer.write(WORK_DIR / "traces" / f"{workload}-seed{seed}",
                 {"workload": workload, "seed": seed, "installs": ops})


