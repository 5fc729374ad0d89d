"""The same-host A/B perf gate (tools/ab.py) on synthetic perfbench runs."""

import json
import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).parent.parent
AB = runpy.run_path(str(ROOT / "tools" / "ab.py"))
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(throughput=1000.0, latency=40.0, setup=0.3, rss=30.0,
        attempted=1000, failed=0, correct=True):
    """One perfbench result line, as ``perfbench/run.py`` prints it."""
    values = {"setup_s": setup, "throughput_per_s": throughput,
              "latency_p50_ms": latency, "peak_rss_mb": rss}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": "-"}
                        for name, value in values.items()}}


BASE = [run(throughput=990.0), run(), run(throughput=1010.0)]


def gate(head_runs, base_runs=BASE):
    return AB["verdict"](BENCH, base_runs, head_runs)


def failing(lines):
    return [line.split()[0] for line in lines if line.endswith("FAIL")]


def test_identical_runs_pass():
    ok, lines = gate(list(BASE))
    assert ok, lines
    assert failing(lines) == []
    assert len(lines) == len(BENCH["end_to_end"]) + 3


def test_fifty_percent_regression_fails():
    slow = [run(throughput=t / 1.5, latency=40.0 * 1.5, setup=0.3 * 1.5)
            for t in (990.0, 1000.0, 1010.0)]
    ok, lines = gate(slow)
    assert not ok
    assert failing(lines) == ["setup_s", "throughput_per_s",
                              "latency_p50_ms"]


def test_rss_above_its_bound_fails():
    ok, lines = gate([run(rss=30.0 * 1.12) for _ in BASE])
    assert not ok
    assert failing(lines) == ["peak_rss_mb"]
    # The same growth stays inside the wider latency bound.
    assert gate([run(latency=40.0 * 1.12) for _ in BASE])[0]


def test_higher_failed_share_with_equal_metrics_fails():
    ok, lines = gate([run(failed=1)] + list(BASE[1:]))
    assert not ok
    assert failing(lines) == ["failed"]


def test_incorrect_head_run_fails():
    ok, lines = gate([run(correct=False)] + list(BASE[1:]))
    assert not ok
    assert failing(lines) == ["correct"]
    assert "head: 2/3" in lines[-1]


def test_better_on_every_metric_passes():
    ok, lines = gate([run(throughput=2000.0, latency=20.0, setup=0.1,
                          rss=20.0) for _ in BASE])
    assert ok, lines


@pytest.mark.parametrize("argv", [
    [],
    ["--base", "HEAD"],
    ["--base", "HEAD", "--workload", "no-such-workload"],
    ["--base", "no-such-ref", "--workload", "fleet-benign"],
], ids=["no-args", "no-workload", "unknown-workload", "unknown-base"])
def test_usage_errors_exit_2(argv, capsys):
    try:
        code = AB["main"](argv)
    except SystemExit as exit_info:
        code = exit_info.code
    assert code == 2
    capsys.readouterr()
