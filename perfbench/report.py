"""Metric catalogue, statistics helpers and the per-run result."""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from perfbench import REPO_ROOT, SRC

#: End-to-end metrics, reported by every workload with tracing off.
#: Every workload must report each one, so they are slots that every
#: workload fills with its own named metric (README.md has the map):
#: throughput is installs/s, cold apps/s or burst jobs/s, and the
#: latency is a campaign, a warm analysis pass or an open-phase job.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics, reported by every workload with tracing on.  A
#: layer a workload does not run reads 0 there.  ``_per_op`` means per
#: install, per app or per job, whichever the workload counts.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("sim.kernel.events_per_install", "count"),
    ("sim.kernel.self_us_per_install", "us"),
    ("android.filesystem.calls_per_install", "count"),
    ("android.filesystem.self_us_per_install", "us"),
    ("sim.events.publishes_per_install", "count"),
    ("sim.events.delivered_per_install", "count"),
    ("sim.events.dropped_per_install", "count"),
    ("sim.events.self_us_per_install", "us"),
    ("android.fileobserver.self_us_per_install", "us"),
    ("attacks.self_us_per_install", "us"),
    ("defenses.self_us_per_install", "us"),
    ("installers.self_us_per_install", "us"),
    ("android.pms.self_us_per_install", "us"),
    ("android.apk.bytes_hashed_per_install", "bytes"),
    ("android.apk.self_us_per_install", "us"),
    ("android.signing.verifies_per_install", "count"),
    ("android.signing.self_us_per_install", "us"),
    ("android.other.self_us_per_install", "us"),
    ("core.self_us_per_install", "us"),
    ("engine.merge.self_us_per_install", "us"),
    ("analysis.corpus.self_us_per_app", "us"),
    ("analysis.smali.lines_per_app", "count"),
    ("analysis.smali.self_us_per_app", "us"),
    ("analysis.classifier.self_us_per_app", "us"),
    ("analysis.pipeline.fold_us_per_app", "us"),
    ("analysis.pipeline.self_us_per_app", "us"),
    ("analysis.cache.hits_per_app", "count"),
    ("analysis.cache.key_us_per_app", "us"),
    ("analysis.cache.load_us_per_app", "us"),
    ("analysis.cache.store_us_per_app", "us"),
    ("analysis.cache.flush_us_per_app", "us"),
    ("analysis.cache.bytes_written_per_app", "bytes"),
    ("serve.submit_ack_p50_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p95_ms", "ms"),
    ("serve.run_p50_ms", "ms"),
    ("serve.checkpoint.bytes_per_job", "bytes"),
    ("engine.executor.shard_wall_p50_ms", "ms"),
    ("engine.executor.shard_cpu_p50_ms", "ms"),
    ("engine.executor.pool_restarts", "count"),
    ("engine.executor.self_us_per_op", "us"),
    ("other.self_us_per_op", "us"),
    ("trace.unattributed_us_per_op", "us"),
    ("trace.wall_us_per_op", "us"),
    ("trace.spans_per_op", "count"),
    ("trace.overhead_ratio", "ratio"),
)

#: Self-time metric of each traced layer (span name).  Every span name
#: a traced run can record is here, so these plus
#: ``trace.unattributed_us_per_op`` add up to ``trace.wall_us_per_op``.
SELF_TIME_METRICS: Dict[str, str] = {
    "sim.kernel": "sim.kernel.self_us_per_install",
    "android.filesystem": "android.filesystem.self_us_per_install",
    "sim.events": "sim.events.self_us_per_install",
    "android.fileobserver": "android.fileobserver.self_us_per_install",
    "attacks": "attacks.self_us_per_install",
    "defenses": "defenses.self_us_per_install",
    "installers": "installers.self_us_per_install",
    "android.pms": "android.pms.self_us_per_install",
    "android.apk": "android.apk.self_us_per_install",
    "android.signing": "android.signing.self_us_per_install",
    "android.other": "android.other.self_us_per_install",
    "core": "core.self_us_per_install",
    "engine.merge": "engine.merge.self_us_per_install",
    "engine.executor": "engine.executor.self_us_per_op",
    "analysis.corpus": "analysis.corpus.self_us_per_app",
    "analysis.smali": "analysis.smali.self_us_per_app",
    "analysis.classifier": "analysis.classifier.self_us_per_app",
    "analysis.pipeline": "analysis.pipeline.self_us_per_app",
    "analysis.pipeline.fold": "analysis.pipeline.fold_us_per_app",
    "analysis.cache.key": "analysis.cache.key_us_per_app",
    "analysis.cache.load": "analysis.cache.load_us_per_app",
    "analysis.cache.store": "analysis.cache.store_us_per_app",
    "analysis.cache.flush": "analysis.cache.flush_us_per_app",
}

#: Repetitions of each set-up step; ``setup_s`` is the median.
SETUP_REPEATS = 5


@dataclass
class Outcome:
    """What one workload run measured and whether its outputs were right."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    #: The workload's named metrics and run facts (samples, lateness).
    detail: Dict[str, Any] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        """Record a correctness check; a false one fails the run."""
        if not ok:
            self.failures.append(message)

    @property
    def correct(self) -> bool:
        """True when every check passed."""
        return not self.failures


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile, ``share`` in (0, 1], of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return float(ordered[int(rank) - 1])


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """High-water resident set size in MB (``ru_maxrss`` is KB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def host_metadata() -> Dict[str, Any]:
    """Where a result was measured: the program's host facts plus nproc."""
    from repro.obs.runtime import host_metadata as program_host_metadata

    facts = program_host_metadata()
    facts["nproc"] = (len(os.sched_getaffinity(0))
                      if hasattr(os, "sched_getaffinity") else facts["cpus"])
    return facts


def program_env() -> Dict[str, str]:
    """Environment for a child Python that imports the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_seconds(modules: Sequence[str]) -> float:
    """Median time a fresh interpreter takes to import ``modules``.

    The child times itself: timing it from here would add the
    parent's exit polling, which ``subprocess`` does in steps of up
    to 50 ms when given a timeout.
    """
    code = ("import time; started = time.perf_counter(); "
            + "; ".join(f"import {name}" for name in modules)
            + "; print(time.perf_counter() - started)")
    samples = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run([sys.executable, "-c", code],
                               env=program_env(), cwd=str(REPO_ROOT),
                               capture_output=True, text=True, check=True,
                               timeout=60)
        samples.append(float(child.stdout.strip().splitlines()[-1]))
    return median(samples)


def directory_bytes(path) -> int:
    """Total size of the regular files under ``path`` (0 if absent)."""
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _dirs, files in os.walk(path) for name in files)


def timed_loop(seconds: float, minimum: int, step) -> Tuple[List[Any], float]:
    """Call ``step()`` until ``seconds`` have passed and ``minimum`` calls ran.

    Returns the step results and the peak RSS (MB) read right after the
    ``minimum``-th call: a fixed amount of work, so the figure does not
    depend on how many rounds the host's speed allowed.
    """
    results: List[Any] = []
    rss = 0.0
    started = time.perf_counter()
    while len(results) < minimum or time.perf_counter() - started < seconds:
        results.append(step())
        if len(results) == minimum:
            rss = peak_rss_mb()
    return results, rss


def layer_metrics(self_ns: Dict[str, int], ops: int, wall_ns: int,
                  spans: int) -> Dict[str, float]:
    """Self time per op of every traced layer, plus the unattributed rest."""
    metrics: Dict[str, float] = {}
    unknown = sorted(set(self_ns) - set(SELF_TIME_METRICS) - {"other"})
    if unknown:
        raise ValueError(f"spans with no self-time metric: {unknown}")
    for layer, total in self_ns.items():
        name = SELF_TIME_METRICS.get(layer, "other.self_us_per_op")
        metrics[name] = metrics.get(name, 0.0) + total / 1000.0 / ops
    metrics["trace.wall_us_per_op"] = wall_ns / 1000.0 / ops
    metrics["trace.unattributed_us_per_op"] = (
        wall_ns - sum(self_ns.values())) / 1000.0 / ops
    metrics["trace.spans_per_op"] = spans / ops
    return metrics
