"""The benchmark's own tests: span arithmetic, checks, tracing, contract.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

from perfbench import REPO_ROOT, ensure_program_importable

ensure_program_importable()

from perfbench import analysis_play, fleet, report, serve_mix  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    Patches,
    Tracer,
    instrument_analysis,
    instrument_fleet,
    layer_of,
    self_times,
)


# -- span arithmetic ----------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0, 100) > a [10, 60) > b [20, 30);  root > c [70, 90)
    spans = [
        ("root", 0, 100, -1),
        ("a", 10, 60, 0),
        ("b", 20, 30, 1),
        ("c", 70, 90, 0),
        ("b", 92, 95, 0),
    ]
    assert self_times(spans) == {"root": 100 - 50 - 20 - 3, "a": 40,
                                 "b": 13, "c": 20}


def test_self_times_plus_unattributed_add_up_to_wall():
    spans = [("root", 5, 95, -1), ("a", 10, 40, 0), ("a", 50, 60, 0)]
    totals = self_times(spans)
    wall_ns = 100_000
    metrics = report.layer_metrics(
        {"engine.executor": totals["root"] * 1000,
         "core": totals["a"] * 1000}, ops=10, wall_ns=wall_ns, spans=3)
    assert metrics["engine.executor.self_us_per_op"] == 5.0
    assert metrics["core.self_us_per_install"] == 4.0
    parts = (metrics["engine.executor.self_us_per_op"]
             + metrics["core.self_us_per_install"]
             + metrics["trace.unattributed_us_per_op"])
    assert parts == pytest.approx(metrics["trace.wall_us_per_op"])


def test_tracer_records_nested_spans_and_generator_resumes():
    tracer = Tracer()
    inner = tracer.timed("inner", lambda x: x + 1)
    outer = tracer.timed("outer", lambda x: inner(x) * 2)

    def gen():
        value = yield 1
        yield value + outer(1)

    traced = tracer.timed_generator("gen", gen())
    assert next(traced) == 1
    assert traced.send(10) == 14
    names = [tracer.names[tracer.spans[i * 5]]
             for i in range(tracer.span_count)]
    assert names == ["gen", "gen", "outer", "inner"]
    parents = [tracer.spans[i * 5 + 3] for i in range(tracer.span_count)]
    assert parents == [-1, -1, 1, 2]
    assert tracer.stack == [-1]


def test_layers_follow_modules():
    assert layer_of("android.filesystem") == "android.filesystem"
    assert layer_of("android.download_manager") == "android.other"
    assert layer_of("attacks.watcher_flood") == "attacks"
    assert layer_of("defenses.dapp_rescan") == "defenses"
    assert layer_of("installers.base") == "installers"
    assert layer_of("engine.executor") == "engine.executor"
    assert layer_of("analysis.smali") == "analysis.smali"


# -- correctness checks fire on bad output ------------------------------------


def _run(spec):
    from repro.engine import NullProgress, run_fleet

    return run_fleet(spec, shards=fleet.SHARDS, backend="serial",
                     progress=NullProgress()).stats


def test_flood_check_passes_and_fires_on_a_sabotaged_defense():
    spec = fleet.campaign_specs("fleet-flood", 3)[0][0]
    assert fleet.check_campaign("fleet-flood", spec, _run(spec)) == []
    sabotaged = fleet.campaign_specs("fleet-flood", 3,
                                     sabotage_defense="dapp-rescan")[0][0]
    problems = fleet.check_campaign("fleet-flood", sabotaged, _run(sabotaged))
    assert problems and "alarmed runs" in problems[0]


def test_benign_check_fires_on_a_hijack():
    from repro.engine import CampaignSpec

    spec = CampaignSpec(installs=8, installer="dtignite",
                        attack="fileobserver", seed=3)
    problems = fleet.check_campaign("fleet-benign", spec, _run(spec))
    assert problems and "hijacks" in problems[0]


def test_analysis_check_fires_when_the_warm_pass_misses(tmp_path):
    from repro.analysis.pipeline import AnalysisSpec, run_analysis

    spec = AnalysisSpec(corpus="play", apps=300, seed=3,
                        cache_dir=str(tmp_path / "cache"))
    cold = run_analysis(spec, shards=4, backend="serial")
    warm = run_analysis(spec, shards=4, backend="serial")
    assert analysis_play.check_round(cold, warm, 300) == []
    shutil.rmtree(tmp_path / "cache")  # the warm pass finds nothing
    emptied = run_analysis(spec, shards=4, backend="serial")
    problems = analysis_play.check_round(cold, emptied, 300)
    assert any("warm pass had 300 misses" in p for p in problems)


# -- tracing does not change what the program computes ------------------------


def test_traced_fleet_run_leaves_merged_stats_unchanged():
    from repro.sim.kernel import Kernel

    original_run = Kernel.run
    specs = fleet.campaign_specs("fleet-flood", 5)[0]
    specs += [spec for spec in fleet.campaign_specs("fleet-benign", 5)[0]
              if spec.installer in ("amazon", "xiaomi", "google-play")]
    plain = [_run(spec).counter_tuple() for spec in specs]
    tracer = Tracer()
    with Patches() as patches:
        instrument_fleet(tracer, patches)
        traced = [_run(spec).counter_tuple() for spec in specs]
    assert traced == plain
    assert Kernel.run is original_run
    assert tracer.span_count > 0 and tracer.stack == [-1]
    assert tracer.counts["fs_calls"] > 0 and tracer.counts["verifies"] > 0
    assert set(tracer.self_times_ns()) <= set(report.SELF_TIME_METRICS)


def test_traced_analysis_run_leaves_merged_stats_unchanged(tmp_path):
    from repro.analysis.pipeline import AnalysisSpec, run_analysis

    spec = AnalysisSpec(corpus="play", apps=400, seed=5,
                        cache_dir=str(tmp_path / "plain"))
    plain = run_analysis(spec, shards=4, backend="serial")
    tracer = Tracer()
    with Patches() as patches:
        instrument_analysis(tracer, patches)
        traced = run_analysis(
            AnalysisSpec(corpus="play", apps=400, seed=5,
                         cache_dir=str(tmp_path / "traced")),
            shards=4, backend="serial")
    assert traced.stats.identity_tuple() == plain.stats.identity_tuple()
    assert tracer.counts["smali_lines"] > 0
    assert set(tracer.self_times_ns()) <= set(report.SELF_TIME_METRICS)


# -- serve-mix load shape -----------------------------------------------------


def test_serve_mix_is_seeded_and_mostly_small():
    sizes = serve_mix.job_sizes(serve_mix.OPEN_JOBS, random.Random(4))
    assert sizes == serve_mix.job_sizes(serve_mix.OPEN_JOBS,
                                        random.Random(4))
    assert sizes.count(serve_mix.LARGE_SIZE) == (
        serve_mix.OPEN_JOBS // serve_mix.LARGE_EVERY)
    assert set(sizes) == set(serve_mix.SMALL_SIZES) | {serve_mix.LARGE_SIZE}
    offsets = serve_mix.arrival_offsets(200, 5.0, random.Random(4))
    assert offsets == sorted(offsets)
    assert 0.0 <= offsets[0] and offsets[-1] <= 200 / 5.0


# -- the result contract ----------------------------------------------------


def test_benchmark_json_matches_the_metric_catalogue():
    config = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in config["end_to_end"]] == list(
        report.END_TO_END)
    assert [(m["name"], m["unit"]) for m in config["per_layer"]] == list(
        report.PER_LAYER)
    assert set(report.SELF_TIME_METRICS.values()) <= {
        name for name, _ in report.PER_LAYER}
    from perfbench.run import WORKLOADS

    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(REPO_ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-benign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
