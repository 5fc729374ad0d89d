"""Fleet executor: run campaign shards across a worker pool.

The process backend is a small explicit scheduler over
``multiprocessing.Process`` workers rather than a ``Pool``: a pool
loses the task (and may hang the caller) when a worker dies abruptly,
while the whole point here is precise per-shard crash/timeout
semantics — a shard whose worker crashes or overruns its deadline is
retried a bounded number of times, then degraded to the in-process
serial backend, which is also the fleet-wide fallback when
``multiprocessing`` itself is unavailable (restricted sandboxes).

There is one pool, scoped to the executor: a :class:`WarmPool` of
resident workers, created on the first pooled run and released by
:meth:`FleetExecutor.close`.  One-shot helpers (:func:`run_fleet`,
``run_analysis``) close their executor after one ``run``, so their pool
lives exactly as long as that run; the ``repro serve`` daemon keeps one
executor open, so fork/import/artifact-cache warm-up is paid once per
worker instead of once per shard.  The pool forks no more workers than
a run has shards and grows on demand up to ``workers``; crashed or
timed-out workers are restarted in place.

Results merge in shard-index order regardless of completion order, so
the merged stats honour the determinism contract of
:mod:`repro.engine.spec` for any worker count — and, with a
checkpoint journal attached, for any resume point: restored shard
results are byte-for-byte the ones the interrupted run recorded.
"""

from __future__ import annotations

import os
import queue as queue_module
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.core.campaign import Campaign, CampaignStats
from repro.engine.merge import FleetReport, ShardResult
from repro.engine.progress import FleetProgress, NullProgress
from repro.engine.spec import CampaignSpec, ShardSpec, parse_chaos
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceRecorder

_OK = "ok"
_ERROR = "error"
_CRASH = "crash"
_TIMEOUT = "timeout"
#: Maps a failure status to its executor fault counter.
_FAULT_KINDS = {_ERROR: "errors", _CRASH: "crashes", _TIMEOUT: "timeouts"}
#: Ceiling on one blocking wait in the pool loop.  The loop does not
#: poll at this cadence — results and worker deaths interrupt the wait
#: immediately (see :func:`wait_for_result`); the ceiling only bounds
#: how stale the timeout bookkeeping in :meth:`WarmPool.reap_timeouts`
#: can get.
_IDLE_WAIT_SECONDS = 0.5

BACKENDS = ("auto", "process", "serial")


def default_workers() -> int:
    """Worker-count default: the machine's cores, capped at 4."""
    return max(1, min(4, os.cpu_count() or 1))


def run_shard(shard: ShardSpec, telemetry: bool = False,
              profile: bool = False) -> ShardResult:
    """Execute one shard in this process (the serial backend's unit).

    With ``telemetry=True`` the execution is bracketed by a
    :class:`repro.obs.runtime.TelemetryProbe` (rusage + perf_counter_ns)
    and the result carries a ``telemetry`` payload on the wall-clock
    side channel; with ``profile=True`` it additionally runs under
    cProfile and carries the marshaled profile blob.  Both default off,
    and the disabled path makes zero extra clock/rusage calls (pinned
    by ``tests/engine/test_telemetry.py``).  Neither ever touches the
    shard's deterministic stats/trace/metrics.
    """
    if not (telemetry or profile):
        return _execute_shard(shard)
    probe = None
    profiler = None
    if telemetry:
        from repro.obs.runtime import TelemetryProbe

        probe = TelemetryProbe.start()
    if profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        result = _execute_shard(shard)
    finally:
        if profiler is not None:
            profiler.disable()
    if probe is not None:
        result.telemetry = probe.finish(shard.index).to_dict()
    if profiler is not None:
        from repro.obs.runtime import profile_blob

        result.profile = profile_blob(profiler)
    return result


def _execute_shard(shard: ShardSpec) -> ShardResult:
    """The untelemetered core of :func:`run_shard`.

    Provisions a fresh device from the shard spec, publishes the
    shard's slice of the global workload, runs the installs, and
    returns compacted (picklable, trace-free) stats.  When the
    campaign spec has ``observe=True`` the shard also carries its
    trace records and metrics snapshot (simulated-time only, so both
    are deterministic for a fixed shard spec).
    """
    execute = getattr(shard, "execute", None)
    if execute is not None:
        # Self-executing workload (e.g. repro.analysis.pipeline shards):
        # the spec knows how to run its own slice; the executor supplies
        # only pooling, retries, chaos and merge.
        return execute()
    started = time.perf_counter()
    spec = shard.campaign
    recorder = TraceRecorder() if spec.observe else None
    metrics = MetricsRegistry() if spec.observe else None
    scenario = shard.build_scenario(recorder=recorder, metrics=metrics)
    packages = shard.publish_workload(scenario)
    # Compact at record time: outcomes are projected to trace-free
    # OutcomeRecord as they happen, so the shard never accumulates
    # transaction traces only to strip them post-hoc.
    campaign = Campaign(scenario, stats=CampaignStats(
        compact=True, keep_outcomes=spec.keep_outcomes))
    campaign.install_many(
        packages,
        arm_attacker=spec.arm_attacker,
        rearm_between=spec.rearm_between,
    )
    return ShardResult(
        shard_index=shard.index,
        start=shard.start,
        stop=shard.stop,
        stats=campaign.stats,
        wall_seconds=time.perf_counter() - started,
        backend="serial",
        trace=recorder.records() if recorder is not None else None,
        metrics=metrics.snapshot() if metrics is not None else None,
    )


def _chaos_indices(spec: CampaignSpec, mode: str) -> Set[int]:
    chaos_mode, indices = parse_chaos(spec.chaos)
    if chaos_mode != mode:
        return set()
    return set(indices)


def wait_for_result(readers, processes=(),
                    timeout: float = _IDLE_WAIT_SECONDS) -> list:
    """Block until a result pipe is readable, a worker exits, or timeout.

    The scheduler's replacement for fixed-interval polling: it sleeps
    on every worker's result pipe and death sentinel at once
    (:func:`multiprocessing.connection.wait`), so a finished shard or a
    crashed worker wakes the parent immediately instead of after the
    next poll tick.  Returns the readable ``readers`` (a ``recv`` on
    each returns a message or raises ``EOFError``); empty on a
    sentinel wake or timeout.
    """
    from multiprocessing.connection import wait as connection_wait

    sentinels = [process.sentinel for process in processes]
    try:
        ready = connection_wait([*readers, *sentinels], timeout)
    except OSError:  # a sentinel closed under us: the caller sweeps
        return []
    return [reader for reader in readers if reader in ready]


def multiprocessing_usable() -> bool:
    """Can this environment create process pools at all?

    Creating a queue exercises the semaphores and pipes that
    restricted sandboxes typically forbid.
    """
    try:
        import multiprocessing

        context = multiprocessing.get_context()
        probe = context.Queue()
        probe.close()
        probe.join_thread()
        return True
    except (ImportError, OSError, PermissionError):
        return False


def _warm_worker_entry(task_queue, results) -> None:
    """Resident worker loop: run shards until a ``None`` sentinel.

    Failure injection (``spec.chaos``) lives here on purpose: only
    pool workers honour it, so the serial fallback always recovers.
    The worker stays alive between tasks: module imports and the
    content-addressed artifact caches built by earlier shards carry
    over to later ones.  Tasks are ``(seq, shard, (telemetry,
    profile))``; messages, sent on the worker's own ``results`` pipe,
    are ``(seq, status, payload)``, where ``seq`` names the submit that
    the result answers.

    A worker orphaned by a hard-killed parent (SIGKILL skips
    :meth:`WarmPool.close`) notices the reparenting on its next idle
    tick and exits instead of blocking on the task queue forever.
    """
    parent = os.getppid()
    while True:
        try:
            task = task_queue.get(timeout=5.0)
        except queue_module.Empty:
            if os.getppid() != parent:
                os._exit(0)  # orphaned: the parent is gone
            continue
        if task is None:
            break
        seq, shard, (telemetry, profile) = task
        try:
            if shard.index in _chaos_indices(shard.campaign, "crash"):
                os._exit(13)
            if shard.index in _chaos_indices(shard.campaign, "hang"):
                time.sleep(3600)
            if shard.index in _chaos_indices(shard.campaign, "error"):
                raise RuntimeError(f"injected error in shard {shard.index}")
            result = run_shard(shard, telemetry=telemetry, profile=profile)
            result.backend = "process"
            results.send((seq, _OK, result))
        except BaseException as exc:  # pragma: no cover - failure-mode paths
            try:
                results.send((seq, _ERROR, f"{type(exc).__name__}: {exc}"))
            except Exception:
                os._exit(14)


class _WarmWorker:
    """Parent-side handle on one resident worker process."""

    __slots__ = ("process", "task_queue", "reader")

    def __init__(self, process, task_queue, reader) -> None:
        self.process = process
        self.task_queue = task_queue
        #: Read end of the worker's result pipe; the worker holds the
        #: only write end, so EOF here means the worker is gone.
        self.reader = reader


class WarmPool:
    """Resident shard workers, reused across campaigns.

    Workers are forked once and then fed tasks over per-worker queues;
    each answers on its own result pipe, waited on together with every
    worker's death sentinel.  A worker killed part-way through sending
    tears only its own pipe, which is closed with it when the slot is
    respawned, so a reaped or dead worker's result can neither be
    credited to the ticket's retry nor idle a slot twice, and never
    stops another worker from reporting.  Every submit also gets a
    fresh sequence number, and a result counts only if it carries the
    number of the submit that currently holds its ticket.
    A dead worker (crash chaos, OOM, kill) is detected via its process
    sentinel, restarted in place, and its in-flight ticket is reported
    as a crash so the scheduler can retry the shard — ``restarts``
    counts every such replacement (the serve daemon exports it as the
    ``serve/worker_restarts`` metric).  :meth:`grow` adds workers; the
    pool never shrinks.  ``close`` shuts the pool down
    deterministically: sentinel every idle worker, terminate busy ones,
    join, terminate stragglers — no leaked processes, pinned by the
    leak-check test.
    """

    def __init__(self, workers: int, context=None) -> None:
        if workers < 1:
            raise ReproError(f"warm pool needs workers >= 1, got {workers}")
        if context is None:
            import multiprocessing

            context = multiprocessing.get_context()
        self._context = context
        self.restarts = 0
        self.tasks_done = 0
        self._closed = False
        self._submits = 0
        self._workers: Dict[int, _WarmWorker] = {}
        self._idle: List[int] = []
        #: ticket -> (slot, submit sequence number, monotonic start)
        self._running: Dict[int, Tuple[int, int, float]] = {}
        self.grow(workers)

    # -- lifecycle -------------------------------------------------------------

    @property
    def workers(self) -> int:
        """How many worker slots the pool has."""
        return len(self._workers)

    def grow(self, workers: int) -> None:
        """Spawn workers until the pool has at least ``workers``."""
        if self._closed:
            raise ReproError("warm pool is closed")
        for slot in range(len(self._workers), workers):
            self._spawn(slot)

    def _spawn(self, slot: int) -> None:
        """(Re)create the worker in ``slot`` with fresh channels.

        A fresh task queue and result pipe per incarnation, so a task
        the dead worker popped but never finished cannot resurface in its
        replacement, and a result it half sent is dropped with its pipe.
        """
        task_queue = self._context.Queue()
        reader, writer = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_warm_worker_entry,
            args=(task_queue, writer),
            name=f"fleet-warm-{slot}",
            daemon=True,
        )
        process.start()
        writer.close()  # the worker's copy is the only write end left
        self._workers[slot] = _WarmWorker(process, task_queue, reader)
        self._idle.append(slot)

    def _respawn(self, slot: int) -> None:
        if slot in self._idle:
            self._idle.remove(slot)
        self._workers[slot].reader.close()
        self.restarts += 1
        self._spawn(slot)

    def close(self, timeout: float = 5.0) -> None:
        """Shut every worker down; idempotent, never leaks a process.

        Idle workers get a ``None`` sentinel; a worker still running a
        task is terminated at once, since nothing will collect its
        result.
        """
        if self._closed:
            return
        self._closed = True
        busy = {slot for slot, _, _ in self._running.values()}
        for slot, worker in self._workers.items():
            if slot in busy:
                worker.process.terminate()
                continue
            try:
                worker.task_queue.put(None)
            except Exception:  # queue already broken: terminate below
                pass
        deadline = time.monotonic() + timeout
        for worker in self._workers.values():
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join()
            worker.task_queue.close()
            worker.reader.close()
        self._workers.clear()
        self._idle.clear()
        self._running.clear()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection ---------------------------------------------------------

    def has_idle(self) -> bool:
        """Is at least one worker free to take a task?"""
        return bool(self._idle)

    def busy(self) -> bool:
        """Is at least one task in flight?"""
        return bool(self._running)

    def worker_pids(self) -> Dict[int, int]:
        """Slot -> current worker PID (warm reuse is PID stability)."""
        return {slot: worker.process.pid
                for slot, worker in self._workers.items()}

    def earliest_start(self) -> Optional[float]:
        """Monotonic start of the oldest in-flight task, if any."""
        if not self._running:
            return None
        return min(started for _, _, started in self._running.values())

    # -- scheduling ------------------------------------------------------------

    def submit(self, ticket: int, shard: ShardSpec, telemetry: bool = False,
               profile: bool = False) -> None:
        """Hand ``shard`` to an idle worker under key ``ticket``.

        ``telemetry``/``profile`` ride along as a flags tuple so the
        worker brackets execution with the rusage probe / cProfile
        (see :func:`run_shard`); both default off.
        """
        if self._closed:
            raise ReproError("warm pool is closed")
        if not self._idle:
            raise ReproError("no idle warm worker; poll() first")
        slot = self._idle.pop()
        self._submits += 1
        self._workers[slot].task_queue.put(
            (self._submits, shard, (telemetry, profile)))
        self._running[ticket] = (slot, self._submits, time.monotonic())

    def poll(self, timeout: float = _IDLE_WAIT_SECONDS
             ) -> List[Tuple[int, str, object]]:
        """Collect finished/failed tickets, restarting dead workers.

        Blocks up to ``timeout`` on every worker's result pipe and death
        sentinel (:func:`wait_for_result`), takes one message off each
        readable pipe, then sweeps for dead workers: an in-flight
        ticket whose worker died without reporting comes back as a
        ``crash`` event and the slot is respawned.  Returns ``(ticket,
        status, payload)`` tuples where status is ``ok`` (payload:
        :class:`ShardResult`), ``error`` or ``crash`` (payload: reason
        string).
        """
        events: List[Tuple[int, str, object]] = []
        by_seq = {seq: ticket
                  for ticket, (_, seq, _) in self._running.items()}

        def receive(worker: _WarmWorker) -> None:
            try:
                seq, status, payload = worker.reader.recv()
            except (EOFError, OSError):
                return  # died before a whole message: the sweep reports it
            ticket = by_seq.pop(seq, None)
            if ticket is None:
                return  # answers no submit that holds a ticket now
            slot = self._running.pop(ticket)[0]
            self._idle.append(slot)
            self.tasks_done += 1
            events.append((ticket, status, payload))

        workers = list(self._workers.values())
        by_reader = {worker.reader: worker for worker in workers}
        for reader in wait_for_result(list(by_reader),
                                      [w.process for w in workers], timeout):
            receive(by_reader[reader])
        for slot, worker in list(self._workers.items()):
            if worker.process.is_alive():
                continue
            # A result it finished sending before it died still counts.
            if worker.reader.poll():
                receive(worker)
            dead = [ticket for ticket, (s, _, _) in self._running.items()
                    if s == slot]
            exitcode = worker.process.exitcode
            worker.process.join()
            self._respawn(slot)
            for ticket in dead:
                self._running.pop(ticket)
                events.append(
                    (ticket, _CRASH, f"worker crashed (exit code {exitcode})"))
        return events

    def reap_timeouts(self, shard_timeout: Optional[float]
                      ) -> List[Tuple[int, str, object]]:
        """Terminate workers whose task overran ``shard_timeout``.

        Each overrun worker is restarted and its ticket reported as a
        ``timeout`` event; None disables policing.
        """
        if shard_timeout is None:
            return []
        events: List[Tuple[int, str, object]] = []
        now = time.monotonic()
        for ticket, (slot, _, started) in list(self._running.items()):
            if now - started <= shard_timeout:
                continue
            worker = self._workers[slot]
            worker.process.terminate()
            worker.process.join()
            self._running.pop(ticket)
            self._respawn(slot)
            events.append((ticket, _TIMEOUT,
                           f"timeout after {shard_timeout:.1f}s"))
        return events


class FleetExecutor:
    """Shard a campaign spec, execute the shards, merge the results."""

    def __init__(self, workers: Optional[int] = None, backend: str = "auto",
                 shard_timeout: Optional[float] = None, max_retries: int = 2,
                 progress: Optional[FleetProgress] = None,
                 telemetry: bool = False,
                 profile_shards: bool = False) -> None:
        if backend not in BACKENDS:
            raise ReproError(
                f"unknown backend {backend!r}; valid: {BACKENDS}")
        if max_retries < 0:
            raise ReproError(f"max_retries must be >= 0, got {max_retries}")
        self.workers = workers if workers is not None else default_workers()
        if self.workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        self.backend = backend
        self.shard_timeout = shard_timeout
        self.max_retries = max_retries
        self.progress = progress if progress is not None else NullProgress()
        #: Wall-clock plane switches (see :mod:`repro.obs.runtime`):
        #: both default off, and the off path adds zero clock/rusage
        #: calls to shard execution.
        self.telemetry = telemetry
        self.profile_shards = profile_shards
        #: The executor's :class:`WarmPool`: created on the first pooled
        #: run, kept across ``run`` calls, released by :meth:`close`.
        self._pool: Optional[WarmPool] = None

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release the worker pool (if any); idempotent, leak-free.

        Call it (or use the executor as a context manager) once the
        executor has done its last run: the pool's workers stay
        resident until then.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "FleetExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_pool(self, workers: int) -> WarmPool:
        """The pool, created or grown to at least ``workers`` workers."""
        if self._pool is None or self._pool.closed:
            self._pool = WarmPool(workers)
        else:
            self._pool.grow(workers)
        return self._pool

    # -- public API -----------------------------------------------------------

    def run(self, spec: CampaignSpec, shards: Optional[int] = None,
            checkpoint=None) -> FleetReport:
        """Run ``spec`` across the pool and return the merged report.

        ``checkpoint`` is an optional shard-completion journal (duck
        typed; see :class:`repro.serve.checkpoint.ShardJournal`): shards
        it has already recorded are restored instead of re-run, and
        every fresh completion is recorded before the fleet moves on —
        so a killed campaign resumes from its last completed shard and
        still merges to bit-identical stats.

        On the process backend a shard that errors, crashes its worker
        or overruns ``shard_timeout`` is retried up to ``max_retries``
        times, then run in this process as a ``serial-fallback``.
        """
        started = time.perf_counter()
        shard_count = shards if shards is not None else self.workers
        shard_specs = spec.shard(shard_count)
        restored: Dict[int, ShardResult] = {}
        if checkpoint is not None:
            restored = checkpoint.restore(spec, len(shard_specs))
        todo = [shard for shard in shard_specs
                if shard.index not in restored]
        backend = self._resolve_backend()
        workers = 1 if backend == "serial" else min(self.workers,
                                                    len(todo) or 1)
        total = len(shard_specs)
        self.progress.on_fleet_start(spec, total, workers, backend)
        counters = {"retries": 0, "timeouts": 0, "crashes": 0,
                    "errors": 0, "fallbacks": 0, "restored": len(restored)}
        results: Dict[int, ShardResult] = {}
        for index in sorted(restored):
            results[index] = restored[index]
            self.progress.on_shard_done(restored[index], len(results), total)
        on_result = None if checkpoint is None else checkpoint.record
        if backend == "serial":
            for shard in todo:
                self.progress.on_shard_start(shard, 1)
                self._finish(run_shard(shard, telemetry=self.telemetry,
                                       profile=self.profile_shards),
                             results, total, on_result)
        elif todo:
            pool = self._ensure_pool(workers)
            pending: Deque[ShardSpec] = deque(todo)
            attempts = {shard.index: 0 for shard in todo}
            by_index = {shard.index: shard for shard in todo}
            fallback: List[ShardSpec] = []
            try:
                while pending or pool.busy():
                    while pending and pool.has_idle():
                        shard = pending.popleft()
                        attempts[shard.index] += 1
                        self.progress.on_shard_start(shard,
                                                     attempts[shard.index])
                        pool.submit(shard.index, shard,
                                    telemetry=self.telemetry,
                                    profile=self.profile_shards)
                    events = pool.poll(self._warm_wait_timeout(pool))
                    events += pool.reap_timeouts(self.shard_timeout)
                    for index, status, payload in events:
                        shard = by_index[index]
                        if status == _OK:
                            payload.attempts = attempts[index]
                            self._finish(payload, results, total, on_result)
                            continue
                        counters[_FAULT_KINDS[status]] += 1
                        self.progress.on_shard_retry(shard, attempts[index],
                                                     str(payload))
                        if attempts[index] <= self.max_retries:
                            counters["retries"] += 1
                            pending.append(shard)
                        else:
                            fallback.append(shard)
            except BaseException:
                # The in-flight tasks belong to this run alone: kill
                # them rather than hand their results to a later run.
                self.close()
                raise
            for shard in fallback:
                counters["fallbacks"] += 1
                attempts[shard.index] += 1
                self.progress.on_shard_start(shard, attempts[shard.index])
                result = run_shard(shard, telemetry=self.telemetry,
                                   profile=self.profile_shards)
                result.attempts = attempts[shard.index]
                result.backend = "serial-fallback"
                self._finish(result, results, total, on_result)
        report_class = getattr(type(spec), "report_class", None) or FleetReport
        report = report_class.from_shards(
            spec, list(results.values()),
            wall_seconds=time.perf_counter() - started,
            workers=workers, backend=backend,
            counters=counters,
        )
        self.progress.on_fleet_done(report)
        return report

    def _resolve_backend(self) -> str:
        if self.backend == "serial":
            return "serial"
        if self.backend == "auto" and self.workers <= 1:
            return "serial"
        if not multiprocessing_usable():
            # Graceful degradation: both "auto" and an explicit
            # "process" request fall back rather than fail.
            return "serial"
        return "process"

    def _finish(self, result: ShardResult, results: Dict[int, ShardResult],
                total: int, on_result) -> None:
        """Record one completed shard: merge set, checkpoint, progress.

        The checkpoint write comes *before* the progress hook: once a
        shard has been announced as done, it must already be durable,
        or a kill landing right after the announcement would resume
        with fewer shards than an observer was told had finished.
        """
        results[result.shard_index] = result
        if on_result is not None:
            on_result(result)
        self.progress.on_shard_done(result, len(results), total)

    def _warm_wait_timeout(self, pool: WarmPool) -> float:
        """How long one blocking wait may last before timeouts are reaped.

        With a shard timeout configured, the wait ends no later than
        the earliest running shard's deadline so overruns are policed
        on time; either way it is capped at :data:`_IDLE_WAIT_SECONDS`.
        """
        soonest = pool.earliest_start()
        if self.shard_timeout is None or soonest is None:
            return _IDLE_WAIT_SECONDS
        remaining = soonest + self.shard_timeout - time.monotonic()
        return max(0.0, min(_IDLE_WAIT_SECONDS, remaining))


def run_fleet(spec: CampaignSpec, shards: Optional[int] = None,
              workers: Optional[int] = None, backend: str = "auto",
              shard_timeout: Optional[float] = None, max_retries: int = 2,
              progress: Optional[FleetProgress] = None,
              checkpoint=None, telemetry: bool = False,
              profile_shards: bool = False) -> FleetReport:
    """One-call fleet execution (the ``python -m repro fleet`` engine)."""
    with FleetExecutor(
        workers=workers,
        backend=backend,
        shard_timeout=shard_timeout,
        max_retries=max_retries,
        progress=progress,
        telemetry=telemetry,
        profile_shards=profile_shards,
    ) as executor:
        return executor.run(spec, shards=shards, checkpoint=checkpoint)
