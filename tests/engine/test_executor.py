"""Tests for the fleet executor: backends, retries, timeouts, fallback."""

import pytest

from repro.engine import executor as executor_module
from repro.engine.executor import (
    FleetExecutor,
    multiprocessing_usable,
    run_fleet,
    run_shard,
)
from repro.engine.progress import FleetProgress
from repro.engine.spec import CampaignSpec
from repro.errors import ReproError

needs_multiprocessing = pytest.mark.skipif(
    not multiprocessing_usable(),
    reason="multiprocessing unavailable in this environment")


class RecordingProgress(FleetProgress):
    def __init__(self):
        self.starts = []
        self.dones = []
        self.retries = []
        self.fleet = []

    def on_fleet_start(self, spec, shard_count, workers, backend):
        self.fleet.append((shard_count, workers, backend))

    def on_shard_start(self, shard, attempt):
        self.starts.append((shard.index, attempt))

    def on_shard_done(self, result, done, total):
        self.dones.append((result.shard_index, done, total))

    def on_shard_retry(self, shard, attempt, reason):
        self.retries.append((shard.index, attempt, reason))


def test_run_shard_executes_slice():
    shard = CampaignSpec(installs=6, seed=3).shard(2)[1]
    result = run_shard(shard)
    assert result.stats.runs == 3
    assert result.stats.clean_installs == 3
    assert (result.start, result.stop) == (3, 6)
    assert result.wall_seconds > 0


def test_serial_backend_runs_all_shards_with_progress():
    progress = RecordingProgress()
    report = run_fleet(CampaignSpec(installs=8, seed=3), shards=4,
                       backend="serial", progress=progress)
    assert report.backend == "serial"
    assert report.stats.runs == 8
    assert report.stats.clean_installs == 8
    assert progress.fleet == [(4, 1, "serial")]
    assert [d[0] for d in progress.dones] == [0, 1, 2, 3]
    assert progress.retries == []


def test_attack_fleet_counts_hijacks_and_blocks():
    spec = CampaignSpec(installs=6, installer="dtignite",
                        attack="fileobserver", seed=5)
    report = run_fleet(spec, shards=3, backend="serial")
    assert report.stats.hijacks == 6
    assert report.stats.hijack_rate == 1.0
    defended = CampaignSpec(installs=6, installer="dtignite",
                            attack="fileobserver", defenses=("fuse-dac",),
                            seed=5)
    dreport = run_fleet(defended, shards=3, backend="serial")
    assert dreport.stats.hijacks == 0
    assert dreport.stats.blocked >= 6
    assert dreport.stats.blocked_runs == 6


def test_auto_backend_with_one_worker_is_serial():
    report = run_fleet(CampaignSpec(installs=2, seed=1), shards=2, workers=1)
    assert report.backend == "serial"


def test_process_request_degrades_when_multiprocessing_unavailable(monkeypatch):
    monkeypatch.setattr(executor_module, "multiprocessing_usable",
                        lambda: False)
    progress = RecordingProgress()
    report = run_fleet(CampaignSpec(installs=4, seed=1), shards=2, workers=2,
                       backend="process", progress=progress)
    assert report.backend == "serial"
    assert report.stats.runs == 4
    assert progress.fleet == [(2, 1, "serial")]


def test_executor_validates_options():
    with pytest.raises(ReproError):
        FleetExecutor(backend="threads")
    with pytest.raises(ReproError):
        FleetExecutor(workers=0)
    with pytest.raises(ReproError):
        FleetExecutor(max_retries=-1)


def test_empty_campaign_is_fine():
    report = run_fleet(CampaignSpec(installs=0), shards=2, backend="serial")
    assert report.stats.runs == 0
    assert report.stats == run_fleet(
        CampaignSpec(installs=0), shards=1, backend="serial").stats


@needs_multiprocessing
def test_process_backend_matches_serial():
    spec = CampaignSpec(installs=8, seed=13, defenses=("dapp",))
    serial = run_fleet(spec, shards=4, backend="serial")
    parallel = run_fleet(spec, shards=4, workers=2, backend="process")
    assert parallel.backend == "process"
    assert parallel.stats == serial.stats


@needs_multiprocessing
def test_crashed_worker_is_retried_then_falls_back_to_serial():
    progress = RecordingProgress()
    spec = CampaignSpec(installs=8, seed=5, chaos="crash:1")
    report = run_fleet(spec, shards=4, workers=2, max_retries=1,
                       progress=progress)
    reference = run_fleet(CampaignSpec(installs=8, seed=5), shards=4,
                          backend="serial")
    assert report.stats == reference.stats
    crashed = [s for s in report.shards if s.shard_index == 1][0]
    assert crashed.attempts == 3  # 2 pool attempts + 1 serial fallback
    assert crashed.backend == "serial-fallback"
    assert [r[0] for r in progress.retries] == [1, 1]
    assert "crashed" in progress.retries[0][2]
    healthy = [s for s in report.shards if s.shard_index != 1]
    assert all(s.backend == "process" and s.attempts == 1 for s in healthy)


@needs_multiprocessing
def test_hung_worker_times_out_and_falls_back():
    progress = RecordingProgress()
    spec = CampaignSpec(installs=4, seed=5, chaos="hang:0")
    report = run_fleet(spec, shards=2, workers=2, max_retries=0,
                       shard_timeout=1.0, progress=progress)
    reference = run_fleet(CampaignSpec(installs=4, seed=5), shards=2,
                          backend="serial")
    assert report.stats == reference.stats
    hung = [s for s in report.shards if s.shard_index == 0][0]
    assert hung.backend == "serial-fallback"
    assert any("timeout" in r[2] for r in progress.retries)


@needs_multiprocessing
def test_worker_exception_is_reported_and_retried():
    progress = RecordingProgress()
    spec = CampaignSpec(installs=4, seed=5, chaos="error:1")
    report = run_fleet(spec, shards=2, workers=2, max_retries=0,
                       progress=progress)
    reference = run_fleet(CampaignSpec(installs=4, seed=5), shards=2,
                          backend="serial")
    assert report.stats == reference.stats
    assert any("RuntimeError" in r[2] for r in progress.retries)


# -- blocking result wait (replaces fixed-interval polling) -------------------

def _exit_immediately():  # worker target; must be module-level (spawn-safe)
    pass


@needs_multiprocessing
def test_wait_for_result_wakes_immediately_on_a_queued_message():
    import multiprocessing
    import time

    reader, writer = multiprocessing.get_context().Pipe(duplex=False)
    writer.send((0, "ok", "payload"))
    started = time.perf_counter()
    assert executor_module.wait_for_result([reader], (), timeout=5.0) == [
        reader]
    elapsed = time.perf_counter() - started
    # The old scheduler polled at a fixed 50ms interval; a ready result
    # must wake the blocking wait in well under one poll tick.
    assert elapsed < 0.05
    assert reader.recv() == (0, "ok", "payload")
    reader.close()
    writer.close()


@needs_multiprocessing
def test_wait_for_result_wakes_on_worker_death_without_a_message():
    import multiprocessing
    import time

    context = multiprocessing.get_context()
    reader, writer = context.Pipe(duplex=False)
    process = context.Process(target=_exit_immediately)
    process.start()
    started = time.perf_counter()
    ready = executor_module.wait_for_result([reader], [process], timeout=5.0)
    elapsed = time.perf_counter() - started
    process.join()
    reader.close()
    writer.close()
    # The death sentinel, not the timeout, ended the wait.
    assert ready == []
    assert elapsed < 5.0


@needs_multiprocessing
def test_wait_for_result_times_out_when_nothing_happens():
    import multiprocessing
    import time

    reader, writer = multiprocessing.get_context().Pipe(duplex=False)
    started = time.perf_counter()
    assert executor_module.wait_for_result([reader], (), timeout=0.05) == []
    assert time.perf_counter() - started >= 0.04
    reader.close()
    writer.close()


# -- record-time outcome compaction -------------------------------------------

def test_run_shard_records_compact_outcomes():
    from repro.engine import OutcomeRecord

    shard = CampaignSpec(installs=4, seed=3).shard(1)[0]
    result = run_shard(shard)
    assert result.stats.runs == 4
    assert len(result.stats.outcomes) == 4
    assert all(isinstance(outcome, OutcomeRecord)
               for outcome in result.stats.outcomes)


def test_run_shard_honours_keep_outcomes_cap():
    from repro.engine import OutcomeRecord

    shard = CampaignSpec(installs=6, seed=3, keep_outcomes=2).shard(1)[0]
    result = run_shard(shard)
    # Counters cover every run; only the retained records are capped.
    assert result.stats.runs == 6
    assert result.stats.clean_installs == 6
    assert len(result.stats.outcomes) == 2
    assert all(isinstance(outcome, OutcomeRecord)
               for outcome in result.stats.outcomes)


def test_keep_outcomes_rejects_negative_values():
    with pytest.raises(ReproError, match="keep_outcomes"):
        CampaignSpec(installs=1, keep_outcomes=-1)
