"""Worker pool: reuse, determinism, crash recovery, leak-free shutdown."""

import os
import signal
import time

import pytest

from repro.engine import executor as executor_module
from repro.engine.executor import (
    FleetExecutor,
    WarmPool,
    multiprocessing_usable,
)
from repro.engine.progress import FleetProgress
from repro.engine.spec import CampaignSpec

needs_multiprocessing = pytest.mark.skipif(
    not multiprocessing_usable(),
    reason="multiprocessing unavailable in this environment")


def _alive_children(pids):
    """Which of ``pids`` still exist as live processes?"""
    alive = []
    for pid in pids:
        try:
            os.kill(pid, 0)
        except OSError:
            continue
        alive.append(pid)
    return alive


# -- warm pool scheduling -----------------------------------------------------

def _drive(pool, spec, shards=4):
    """Run every shard of ``spec`` through ``pool``; results by index."""
    pending = list(spec.shard(shards))
    results = {}
    submitted = {}
    while pending or submitted:
        while pending and pool.has_idle():
            shard = pending.pop(0)
            pool.submit(shard.index, shard)
            submitted[shard.index] = shard
        for ticket, status, payload in pool.poll(timeout=5.0):
            assert status == "ok", (ticket, status, payload)
            submitted.pop(ticket)
            results[ticket] = payload
    return results


def _readers(pool):
    return [worker.reader for worker in pool._workers.values()]


@needs_multiprocessing
def test_poll_collects_a_burst_from_every_worker_in_one_pass():
    shards = CampaignSpec(installs=24, seed=7).shard(3)
    with WarmPool(3) as pool:
        for shard in shards:
            pool.submit(shard.index, shard)
        deadline = time.monotonic() + 10.0
        while (len(executor_module.wait_for_result(_readers(pool), (), 1.0))
               < 3 and time.monotonic() < deadline):
            time.sleep(0.01)
        events = pool.poll(timeout=1.0)
        assert sorted((t, s) for t, s, _ in events) == [
            (0, "ok"), (1, "ok"), (2, "ok")]
        assert not pool.busy()


@needs_multiprocessing
def test_poll_returns_nothing_when_no_worker_reports():
    with WarmPool(1) as pool:
        started = time.monotonic()
        assert pool.poll(timeout=0.05) == []
        assert time.monotonic() - started >= 0.04
        assert pool.has_idle() and pool.restarts == 0


@needs_multiprocessing
def test_warm_pool_reuses_the_same_worker_processes():
    spec = CampaignSpec(installs=24, seed=7)
    with WarmPool(2) as pool:
        first = pool.worker_pids()
        _drive(pool, spec)
        _drive(pool, spec)
        assert pool.worker_pids() == first  # no respawn between runs
        assert pool.restarts == 0
        assert pool.tasks_done == 8


@needs_multiprocessing
def test_warm_pool_results_match_serial_execution():
    spec = CampaignSpec(installs=40, seed=7)
    serial = FleetExecutor(backend="serial").run(spec, shards=4)
    with WarmPool(2) as pool:
        results = _drive(pool, spec)
    assert sorted(results) == [0, 1, 2, 3]
    merged = results[0].stats
    for index in (1, 2, 3):
        merged = merged.merge(results[index].stats)
    assert merged.counter_tuple() == serial.stats.counter_tuple()
    assert all(result.backend == "process" for result in results.values())


@needs_multiprocessing
def test_warm_pool_close_leaves_no_processes_behind():
    pool = WarmPool(3)
    pids = list(pool.worker_pids().values())
    assert len(_alive_children(pids)) == 3
    pool.close()
    deadline = time.monotonic() + 5.0
    while _alive_children(pids) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _alive_children(pids) == []
    assert pool.closed
    pool.close()  # idempotent


@needs_multiprocessing
def test_warm_pool_restarts_a_dead_worker_and_reports_the_crash():
    # chaos crash in shard 0 kills the resident worker mid-task; the
    # pool must surface the crash (satellite: the worker-death sentinel
    # path) and respawn the slot so the pool stays at full strength.
    spec = CampaignSpec(installs=8, seed=7, chaos="crash:0")
    shard = list(spec.shard(2))[0]
    with WarmPool(1) as pool:
        before = pool.worker_pids()
        pool.submit(shard.index, shard)
        events = []
        deadline = time.monotonic() + 10.0
        while not events and time.monotonic() < deadline:
            events = pool.poll(timeout=1.0)
        assert len(events) == 1
        ticket, status, payload = events[0]
        assert ticket == 0
        assert status == "crash"
        assert "crashed" in payload
        assert pool.restarts == 1
        assert pool.worker_pids() != before
        assert pool.has_idle()  # replacement is ready for work


@needs_multiprocessing
def test_warm_pool_reaps_a_hung_worker_on_timeout():
    spec = CampaignSpec(installs=8, seed=7, chaos="hang:0")
    shard = list(spec.shard(2))[0]
    with WarmPool(1) as pool:
        pool.submit(shard.index, shard)
        time.sleep(0.3)
        events = pool.reap_timeouts(0.1)
        assert [(t, s) for t, s, _ in events] == [(0, "timeout")]
        assert pool.restarts == 1
        assert pool.has_idle()


@needs_multiprocessing
def test_warm_pool_drops_a_result_left_by_a_reaped_worker():
    # A worker reaped just after it reported leaves its result in its
    # pipe.  The retry of the same ticket must not be credited with
    # it, and the slot the retry runs on must stay busy until the
    # retry itself reports.
    first, second = CampaignSpec(installs=8, seed=7).shard(2)
    with WarmPool(2) as pool:
        pool.submit(0, first)
        assert executor_module.wait_for_result(_readers(pool), (), 10.0)
        assert [s for _, s, _ in pool.reap_timeouts(0.0)] == ["timeout"]
        pool.submit(1, second)                  # the respawned slot
        pool.submit(0, first, telemetry=True)   # the retry, other slot
        events = []
        deadline = time.monotonic() + 10.0
        while pool.busy() and time.monotonic() < deadline:
            events += pool.poll(timeout=1.0)
        assert sorted((t, s) for t, s, _ in events) == [(0, "ok"), (1, "ok")]
        retry = [payload for ticket, _, payload in events if ticket == 0][0]
        assert retry.telemetry is not None      # the retry's own result
        assert sorted(pool._idle) == [0, 1]
        assert pool.tasks_done == 2
        # A message that answers no submit at all is dropped too.
        import multiprocessing

        reader, writer = multiprocessing.get_context().Pipe(duplex=False)
        pool._workers[0].reader.close()
        pool._workers[0].reader = reader
        writer.send((10_000, "ok", None))
        assert pool.poll(timeout=1.0) == []
        assert sorted(pool._idle) == [0, 1]
        writer.close()


@needs_multiprocessing
@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_a_worker_killed_mid_send_does_not_silence_the_others():
    # Each shard's result is larger than a pipe buffer, so a worker
    # blocks part-way through sending it until the parent reads.  Kill
    # one there: only its own result may be lost (and retried), the
    # other workers must still report, and the run must match serial.
    # A shared result channel fails this: the killed writer leaves a
    # torn message and, for a multiprocessing.Queue, its write lock held.
    spec = CampaignSpec(installs=2400, seed=7, observe=True)
    shards = spec.shard(4)
    serial = FleetExecutor(backend="serial").run(spec, shards=4)

    def expire(signum, frame):
        raise TimeoutError("pool stopped delivering results")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        with WarmPool(2) as pool:
            pool.submit(0, shards[0])
            ready = executor_module.wait_for_result(_readers(pool), (), 30.0)
            assert len(ready) == 1  # shard 0's worker has begun to send
            time.sleep(0.3)  # ... and is blocked on the full pipe
            pool.submit(1, shards[1])
            events = pool.reap_timeouts(0.2)
            assert [(t, s) for t, s, _ in events] == [(0, "timeout")]
            pending = [shards[0], shards[2], shards[3]]
            results = {}
            while pending or pool.busy():
                while pending and pool.has_idle():
                    shard = pending.pop(0)
                    pool.submit(shard.index, shard)
                for ticket, status, payload in pool.poll(timeout=5.0):
                    assert status == "ok", (ticket, status, payload)
                    results[ticket] = payload
            assert pool.restarts == 1
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert sorted(results) == [0, 1, 2, 3]
    merged = results[0].stats
    for index in (1, 2, 3):
        merged = merged.merge(results[index].stats)
    assert merged.counter_tuple() == serial.stats.counter_tuple()


def test_warm_pool_validates_worker_count():
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        WarmPool(0)


# -- executor integration -----------------------------------------------------

@needs_multiprocessing
def test_warm_executor_matches_serial_and_reuses_workers():
    spec = CampaignSpec(installs=60, seed=7)
    serial = FleetExecutor(backend="serial").run(spec, shards=4)
    with FleetExecutor(workers=2, backend="process") as fleet:
        first = fleet.run(spec, shards=4)
        pids = fleet._pool.worker_pids()
        second = fleet.run(spec, shards=4)
        assert fleet._pool.worker_pids() == pids
    assert first.stats.counter_tuple() == serial.stats.counter_tuple()
    assert second.stats.counter_tuple() == serial.stats.counter_tuple()
    assert {shard.backend for shard in first.shards} == {"process"}


@needs_multiprocessing
def test_warm_executor_survives_chaos_via_retry_and_fallback():
    spec = CampaignSpec(installs=24, seed=7, chaos="crash:1")
    serial = FleetExecutor(backend="serial").run(
        CampaignSpec(installs=24, seed=7))
    with FleetExecutor(workers=2, backend="process",
                       max_retries=0) as fleet:
        report = fleet.run(spec, shards=3)
    assert report.stats.counter_tuple() == serial.stats.counter_tuple()
    assert report.counters["crashes"] >= 1
    assert report.counters["fallbacks"] == 1


@needs_multiprocessing
def test_executor_close_is_idempotent_and_releases_the_pool():
    fleet = FleetExecutor(workers=2, backend="process")
    fleet.run(CampaignSpec(installs=8, seed=7), shards=2)
    pids = list(fleet._pool.worker_pids().values())
    fleet.close()
    assert fleet._pool is None
    deadline = time.monotonic() + 5.0
    while _alive_children(pids) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _alive_children(pids) == []
    fleet.close()  # second close is a no-op
    # a closed executor can still run (it rebuilds the pool lazily)
    report = fleet.run(CampaignSpec(installs=8, seed=7), shards=2)
    assert report.stats.runs == 8
    fleet.close()


class _InFlight(FleetProgress):
    """Tracks the most shards ever started but not yet done."""

    def __init__(self):
        self.running = 0
        self.peak = 0

    def on_shard_start(self, shard, attempt):
        self.running += 1
        self.peak = max(self.peak, self.running)

    def on_shard_done(self, result, done, total):
        self.running -= 1


@needs_multiprocessing
def test_reused_executor_pool_grows_to_full_width_and_never_shrinks():
    with FleetExecutor(workers=4, backend="process") as fleet:
        one = fleet.run(CampaignSpec(installs=4, seed=7), shards=1)
        assert (one.workers, fleet._pool.workers) == (1, 1)
        fleet.progress = in_flight = _InFlight()
        four = fleet.run(CampaignSpec(installs=16, seed=7), shards=4)
        assert (four.workers, fleet._pool.workers) == (4, 4)
        assert in_flight.peak == 4
        two = fleet.run(CampaignSpec(installs=8, seed=7), shards=2)
        assert (two.workers, fleet._pool.workers) == (2, 4)
    for report in (one, four, two):
        assert {shard.backend for shard in report.shards} == {"process"}


def _pool_children():
    import multiprocessing

    return [child for child in multiprocessing.active_children()
            if child.name.startswith("fleet-warm-")]


@needs_multiprocessing
def test_one_shot_runs_leave_no_worker_alive():
    from repro.analysis.pipeline import AnalysisSpec, run_analysis
    from repro.engine.executor import run_fleet

    assert _pool_children() == []
    fleet = run_fleet(CampaignSpec(installs=12, seed=7), shards=3,
                      workers=2, backend="process")
    assert _pool_children() == []
    analysis = run_analysis(AnalysisSpec(corpus="play", apps=60), shards=3,
                            workers=2, backend="process")
    assert _pool_children() == []
    for report in (fleet, analysis):
        assert report.backend == "process"
        assert report.workers == 2
        assert {shard.backend for shard in report.shards} == {"process"}


class _FailingObserver(FleetProgress):
    def on_shard_done(self, result, done, total):
        raise RuntimeError("observer failed")


@needs_multiprocessing
def test_a_run_that_raises_kills_its_in_flight_workers():
    # Shard 1 hangs; shard 0's completion makes the observer raise.
    # The hung task must not outlive the run, in this pool or the next.
    spec = CampaignSpec(installs=8, seed=7, chaos="hang:1")
    serial = FleetExecutor(backend="serial").run(
        CampaignSpec(installs=8, seed=7), shards=2)
    with FleetExecutor(workers=2, backend="process") as fleet:
        fleet.progress = _FailingObserver()
        with pytest.raises(RuntimeError, match="observer failed"):
            fleet.run(spec, shards=2)
        assert fleet._pool is None
        assert _pool_children() == []
        fleet.progress = FleetProgress()
        report = fleet.run(CampaignSpec(installs=8, seed=7), shards=2)
    assert report.stats.counter_tuple() == serial.stats.counter_tuple()
