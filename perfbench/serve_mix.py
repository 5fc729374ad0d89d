"""``serve-mix``: a ``repro serve`` daemon under open and burst load.

The daemon runs as ``python -m repro serve --workers 2 --backend
process`` in its own process group.  This process talks to it through
:class:`repro.serve.client.ServeClient` over at most two connections
at a time: a submitter thread, and the main thread watching jobs in
submit order (the daemon runs jobs FIFO at equal priority).

- Open phase: ``OPEN_JOBS`` arrivals of a seeded Poisson process at
  ``OPEN_RATE`` jobs/s, about half the daemon's closed-loop capacity
  on the reference host.  Latency counts from when a submit was due,
  so a late generator shows up as latency.
- Bursts: ``BURSTS`` times ``BURST_JOBS`` submits back to back, one
  before the open phase and the rest after it; jobs/s is the median
  over bursts of the count over the time from the first submit to the
  last result.

Jobs are campaigns of mostly 100-400 installs with a rare
2000-install one, 4 shards each: small per-job compute, so service
overhead and head-of-line waits behind the large job are visible.
"""

from __future__ import annotations

import json
import os
import queue
import random
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from perfbench import REPO_ROOT, WORK_DIR, report
from perfbench.report import Outcome

WORKERS = 2
SHARDS = 4
OPEN_JOBS = 200
#: Half the closed-loop capacity of the mix (README.md, sizing).
OPEN_RATE = 4.0
BURSTS = 3
BURST_JOBS = 25
#: One job in this many is the large one.
LARGE_EVERY = 50
SMALL_SIZES = (100, 200, 300, 400)
LARGE_SIZE = 2000
WARM_UP_INSTALLS = 40
#: Ceiling on any one wait for the daemon.
TIMEOUT_S = 60.0


def job_sizes(count: int, rng: random.Random) -> List[int]:
    """Installs per job: one large job per ``LARGE_EVERY``, rest cycled."""
    sizes = []
    for block in range(0, count, LARGE_EVERY):
        length = min(LARGE_EVERY, count - block)
        chunk = [SMALL_SIZES[i % len(SMALL_SIZES)] for i in range(length)]
        if length == LARGE_EVERY or block == 0:
            chunk[0] = LARGE_SIZE
        rng.shuffle(chunk)
        sizes.extend(chunk)
    return sizes


def arrival_offsets(count: int, rate: float,
                    rng: random.Random) -> List[float]:
    """Poisson arrival times conditioned on ``count`` arrivals in count/rate s.

    Given its count, a Poisson process's arrival times are uniform
    order statistics; fixing the count fixes the phase length, so runs
    differ only in where the arrivals cluster.
    """
    span = count / rate
    return sorted(rng.uniform(0.0, span) for _ in range(count))


def campaign(installs: int, seed: int):
    """The job spec of one ``installs``-sized campaign."""
    from repro.engine import CampaignSpec

    return CampaignSpec(installs=installs, seed=seed)


# ---------------------------------------------------------------------------
# the daemon
# ---------------------------------------------------------------------------


class Daemon:
    """One ``repro serve`` subprocess with a fresh state directory."""

    def __init__(self, state_dir: Path, seed: int) -> None:
        from repro.serve.client import ServeClient

        shutil.rmtree(state_dir, ignore_errors=True)
        state_dir.mkdir(parents=True)
        self.state_dir = state_dir
        # Relative to the checkout root (the cwd of both sides): unix
        # socket paths are limited to ~100 bytes.
        self.socket = os.path.relpath(state_dir / "serve.sock", REPO_ROOT)
        self._log = open(state_dir / "daemon.log", "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--state-dir", str(state_dir), "--socket", self.socket,
             "--workers", str(WORKERS), "--backend", "process",
             "--seed", str(seed)],
            cwd=str(REPO_ROOT), env=report.program_env(),
            stdout=self._log, stderr=subprocess.STDOUT,
            start_new_session=True)
        self.client = ServeClient(socket_path=self.socket, timeout=TIMEOUT_S)

    def wait_ready(self) -> None:
        self.client.wait_until_ready(timeout=TIMEOUT_S, interval=0.005)

    def stop(self) -> None:
        """Graceful shutdown; kills the process group if that fails."""
        from repro.errors import ReproError

        try:
            if self.process.poll() is None:
                self.client.shutdown()
                self.process.wait(timeout=TIMEOUT_S)
        except (ReproError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.process.poll() is None:
                os.killpg(self.process.pid, signal.SIGKILL)
                self.process.wait(timeout=TIMEOUT_S)
            self._log.close()


def start_daemon(state_dir: Path, seed: int) -> Daemon:
    """Start a daemon and run one warm-up job through it."""
    daemon = Daemon(state_dir, seed)
    try:
        daemon.wait_ready()
        job = daemon.client.submit_campaign(
            campaign(WARM_UP_INSTALLS, seed), shards=SHARDS, label="warm-up")
        final = daemon.client.wait(job["job_id"], timeout=TIMEOUT_S)
        if final["state"] != "done":
            raise RuntimeError(f"warm-up job ended {final['state']}")
    except BaseException:
        daemon.stop()
        raise
    return daemon


# ---------------------------------------------------------------------------
# load phases
# ---------------------------------------------------------------------------


@dataclass
class JobRecord:
    """One job's timeline on this side of the socket (monotonic seconds)."""

    index: int
    installs: int
    due: float
    sent: float = 0.0
    acked: float = 0.0
    job_id: str = ""
    first_shard: Optional[float] = None
    done: Optional[float] = None
    final: Dict[str, Any] = field(default_factory=dict)
    shard_telemetry: List[Dict[str, Any]] = field(default_factory=list)
    late_watch: bool = False
    error: str = ""


def run_phase(daemon: Daemon, seed: int, sizes: List[int],
              offsets: List[float], label: str) -> List[JobRecord]:
    """Submit ``sizes`` at ``offsets`` (s from now); watch each to the end."""
    from repro.errors import ReproError
    from repro.serve.client import ServeClient

    submitter = ServeClient(socket_path=daemon.socket, timeout=TIMEOUT_S)
    watcher = daemon.client
    submitted: "queue.Queue[Optional[JobRecord]]" = queue.Queue()
    start = time.monotonic() + 0.05
    records = [JobRecord(index=i, installs=size, due=start + offset)
               for i, (size, offset) in enumerate(zip(sizes, offsets))]

    stop = threading.Event()

    def submit_all() -> None:
        for record in records:
            if stop.wait(max(0.0, record.due - time.monotonic())):
                break
            record.sent = time.monotonic()
            try:
                job = submitter.submit_campaign(
                    campaign(record.installs, seed), shards=SHARDS,
                    label=f"{label}-{record.index}")
                record.job_id = job["job_id"]
            except ReproError as exc:
                record.error = f"submit: {exc}"
            record.acked = time.monotonic()
            submitted.put(record)
        submitted.put(None)

    thread = threading.Thread(target=submit_all, name=f"{label}-submitter")
    thread.start()
    try:
        while True:
            record = submitted.get(timeout=TIMEOUT_S * 2)
            if record is None:
                break
            if not record.error:
                _watch(watcher, record)
    finally:
        stop.set()
        thread.join(timeout=TIMEOUT_S)
    return records


def _watch(client, record: JobRecord) -> None:
    from repro.errors import ReproError

    def on_frame(frame: Dict[str, Any]) -> None:
        now = time.monotonic()
        event = frame.get("event")
        if event == "status":
            job = frame.get("job", {})
            if job.get("progress", [0])[0] or job.get("state") == "done":
                record.late_watch = True  # a shard landed before we looked
        elif event == "shard":
            if record.first_shard is None:
                record.first_shard = now
            if frame.get("telemetry"):
                record.shard_telemetry.append(frame["telemetry"])
        elif event == "done":
            record.done = now
            if record.first_shard is None:
                record.first_shard = now
            record.final = frame.get("job", {})

    try:
        frames = client.watch(record.job_id, on_frame=on_frame,
                              timeout=TIMEOUT_S)
    except ReproError as exc:
        record.error = f"watch: {exc}"
        return
    if frames[-1].get("event") != "done":
        record.error = f"job ended {frames[-1].get('event')}"
        record.final = frames[-1].get("job", {})


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    """One benchmark run of ``serve-mix``.

    ``seconds`` is not used: the open phase needs ``OPEN_JOBS`` jobs
    for its p95 whatever the run length (about a minute).
    """
    from repro.engine import NullProgress, run_fleet
    from repro.serve.protocol import stats_counters

    outcome = Outcome()
    rng = random.Random(f"serve-mix:{seed}")
    open_sizes = job_sizes(OPEN_JOBS, rng)
    offsets = arrival_offsets(OPEN_JOBS, OPEN_RATE, rng)
    burst_sizes = job_sizes(BURST_JOBS, rng)
    root = WORK_DIR / "runs" / "serve"

    # The reference each job's summary must equal (benchmark-side work,
    # not part of the program's set-up time).
    expected = {}
    for size in sorted(set(open_sizes) | set(burst_sizes)):
        fleet = run_fleet(campaign(size, seed), shards=SHARDS,
                          backend="serial", progress=NullProgress())
        expected[size] = stats_counters(fleet.stats)

    setups, daemon = [], None
    for attempt in range(report.SETUP_REPEATS):
        if daemon is not None:
            daemon.stop()
        started = time.perf_counter()
        daemon = start_daemon(root / f"daemon-{attempt}", seed)
        setups.append(time.perf_counter() - started)
    bursts = []

    def burst(label: str) -> List[JobRecord]:
        return run_phase(daemon, seed, burst_sizes, [0.0] * BURST_JOBS,
                         label)

    try:
        # One burst before the open phase and the rest after it: this
        # host's speed drifts over tens of seconds, and the median of
        # bursts far apart in time is steadier than adjacent ones.
        bursts.append(burst("burst0"))
        open_records = run_phase(daemon, seed, open_sizes, offsets, "open")
        if trace:
            layers = _layer_metrics(daemon, open_records)
            # Before the bursts: the flight sidecar compacts itself to
            # the last 256 events once it passes 2,048 lines.
            _write_spans(seed, daemon, open_records)
        bursts += [burst(f"burst{index}") for index in range(1, BURSTS)]
        if trace:
            plain = burst("burst-untraced")
            layers["trace.overhead_ratio"] = report.median(
                [_burst_seconds(records) for records in bursts]
            ) / _burst_seconds(plain)
            bursts.append(plain)
            layers["engine.executor.pool_restarts"] = _exposition_value(
                daemon.client.metrics(), "repro_serve_worker_restarts_total")
    finally:
        daemon.stop()
    records = open_records + [r for burst in bursts for r in burst]

    for record in records:
        outcome.attempted += 1
        ok = (not record.error and record.final.get("state") == "done"
              and record.final.get("summary") == expected[record.installs])
        if not ok:
            outcome.failed += 1
            reason = record.error or "summary differs from run_fleet"
            outcome.check(False, f"serve-mix job {record.job_id or '?'} "
                          f"({record.installs} installs): {reason}")
    ok_open = [r for r in open_records if r.done is not None]
    done_ms = [(r.done - r.due) * 1000.0 for r in ok_open]
    first_ms = [(r.first_shard - r.due) * 1000.0 for r in ok_open]
    late_ms = [(r.sent - r.due) * 1000.0 for r in open_records]
    jobs_per_s = report.median([BURST_JOBS / _burst_seconds(burst)
                                for burst in bursts[:BURSTS]])
    rss = report.peak_rss_mb(resource.RUSAGE_CHILDREN)
    setup = report.median(setups)
    outcome.detail.update({
        "jobs_per_s": jobs_per_s,
        "submit_to_first_shard_p50_ms": report.median(first_ms),
        "submit_to_done_p50_ms": report.median(done_ms),
        "submit_to_done_p95_ms": report.percentile(done_ms, 0.95),
        "open_samples": len(done_ms),
        "open_rate_per_s": OPEN_RATE,
        "generator_late_p50_ms": report.median(late_ms),
        "generator_late_max_ms": max(late_ms),
        "late_watches": sum(r.late_watch for r in records),
        "burst_jobs": BURST_JOBS,
        "bursts": BURSTS,
        "submits": len(records),
        "failed_submits": sum(r.error.startswith("submit")
                              for r in records),
        "daemon_tree_peak_rss_mb": rss,
        "setup_s": setup,
    })
    if trace:
        outcome.metrics.update(layers)
    else:
        outcome.metrics.update({
            "setup_s": setup,
            "throughput_per_s": jobs_per_s,
            "latency_p50_ms": report.median(done_ms),
            "peak_rss_mb": rss,
        })
    return outcome


def _burst_seconds(records: List[JobRecord]) -> float:
    """First submit to last result of a back-to-back phase."""
    return (max(r.done or r.acked for r in records)
            - min(r.sent for r in records))


def _layer_metrics(daemon: Daemon,
                   records: List[JobRecord]) -> Dict[str, float]:
    """Per-layer serve numbers of the open phase.

    Submit acks come from the client, queue waits from each job's
    telemetry (the scheduler's own fold, microsecond resolution), run
    times and checkpoint sizes from the state directory and shard times
    from the telemetry frames.  The flight sidecar supplies the spans.
    """
    jobs_dir = daemon.state_dir / "jobs"
    queue_ms, run_ms, checkpoint = [], [], 0
    for record in records:
        queue_ms.append(record.final["telemetry"]["queue_wait_s"] * 1000.0)
        result = json.loads((jobs_dir / record.job_id / "result.json")
                            .read_text(encoding="utf-8"))
        run_ms.append(result["wall_seconds"] * 1000.0)
        checkpoint += report.directory_bytes(
            jobs_dir / record.job_id / "checkpoint")
    telemetry = [t for r in records for t in r.shard_telemetry]
    return {
        "serve.submit_ack_p50_ms": report.median(
            [(r.acked - r.sent) * 1000.0 for r in records]),
        "serve.queue_wait_p50_ms": report.median(queue_ms),
        "serve.queue_wait_p95_ms": report.percentile(queue_ms, 0.95),
        "serve.run_p50_ms": report.median(run_ms),
        "serve.checkpoint.bytes_per_job": checkpoint / len(records),
        "engine.executor.shard_wall_p50_ms": report.median(
            [t["wall_ns"] / 1e6 for t in telemetry]),
        "engine.executor.shard_cpu_p50_ms": report.median(
            [(t["cpu_user_s"] + t["cpu_system_s"]) * 1000.0
             for t in telemetry]),
    }


def _flight_events(state_dir: Path) -> List[Dict[str, Any]]:
    """Every event in the daemon's flight sidecar."""
    events = []
    with open(state_dir / "flight.jsonl", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                events.append(json.loads(line))
    return events


def _exposition_value(text: str, family: str) -> float:
    """One unlabelled sample of a Prometheus exposition (0 if absent)."""
    for line in text.splitlines():
        if line.startswith(family + " "):
            return float(line.split()[1])
    return 0.0


def _write_spans(seed: int, daemon: Daemon, records: List[JobRecord]) -> None:
    """Per-job spans: client submit, then queue and run from the flight."""
    by_job: Dict[str, Dict[str, float]] = {}
    for event in _flight_events(daemon.state_dir):
        job = event.get("job")
        if job and event["kind"] in ("submit", "schedule", "start", "finish"):
            by_job.setdefault(job, {})[event["kind"]] = event["t"]
    spans = []
    for record in records:
        times = by_job.get(record.job_id, {})
        spans.append({"name": "serve.submit", "request": record.job_id,
                      "start_s": record.sent, "end_s": record.acked,
                      "clock": "monotonic", "parent": None})
        if "submit" in times and "start" in times:
            spans.append({"name": "serve.queue", "request": record.job_id,
                          "start_s": times["submit"],
                          "end_s": times["start"], "clock": "wall",
                          "parent": None})
        if "start" in times and "finish" in times:
            spans.append({"name": "serve.run", "request": record.job_id,
                          "start_s": times["start"],
                          "end_s": times["finish"], "clock": "wall",
                          "parent": None})
    out = WORK_DIR / "traces" / f"serve-mix-seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seed": seed, "spans": spans}) + "\n")
