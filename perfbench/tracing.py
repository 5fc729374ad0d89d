"""Traced runs: spans around the program's public entry points.

The program carries no spans of its own yet.  For the length of one
traced run the benchmark wraps public functions and methods of each
layer from the outside and restores them afterwards.  Spans are kept
in one flat in-memory array and written out once, at the end.

A span is ``(name, start_ns, end_ns, parent, request)``.  ``name`` is
the layer, ``parent`` the index of the enclosing span (-1 for a root)
and ``request`` the global index of the install or app the span worked
for.  A layer's self time is the length of its spans minus the length
of their direct children; self times of every layer plus the time no
span covers add up to the traced wall time.

Process resumes and kernel callbacks are attributed to the module
their code object lives in, so an attacker's generator counts as
``attacks`` and a DAPP listener as ``defenses`` although both run
from inside the kernel's dispatch loop.
"""

from __future__ import annotations

import array
import json
import pathlib
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Slots per span in :attr:`Tracer.spans`.
FIELDS = 5
_NAME, _START, _END, _PARENT, _REQUEST = range(FIELDS)

#: Modules whose layer is not simply their package (see :func:`layer_of`).
_EXACT_LAYERS = {
    "sim.kernel": "sim.kernel",
    "sim.events": "sim.events",
    "android.filesystem": "android.filesystem",
    "android.fileobserver": "android.fileobserver",
    "android.pms": "android.pms",
    "android.apk": "android.apk",
    "android.signing": "android.signing",
    "engine.merge": "engine.merge",
}
_PREFIX_LAYERS = (
    ("android.", "android.other"),
    ("installers.", "installers"),
    ("attacks.", "attacks"),
    ("defenses.", "defenses"),
    ("core.", "core"),
    ("engine.", "engine.executor"),
    ("sim.", "sim.kernel"),
    ("analysis.", None),  # analysis modules are layers of their own
)


def layer_of(module: str) -> str:
    """The layer a ``repro`` module (dotted, without ``repro.``) belongs to."""
    exact = _EXACT_LAYERS.get(module)
    if exact is not None:
        return exact
    for prefix, layer in _PREFIX_LAYERS:
        if module.startswith(prefix):
            return layer if layer is not None else module
    return "other"


_FILE_LAYERS: Dict[str, str] = {}


def layer_of_code(code) -> str:
    """Layer of a code object, from the file it was compiled from."""
    filename = code.co_filename
    layer = _FILE_LAYERS.get(filename)
    if layer is None:
        parts = pathlib.PurePath(filename).with_suffix("").parts
        if "repro" in parts:
            inner = parts[len(parts) - 1 - parts[::-1].index("repro") + 1:]
            layer = layer_of(".".join(inner))
        else:
            layer = "other"
        _FILE_LAYERS[filename] = layer
    return layer


def layer_of_callable(func) -> Optional[str]:
    """Layer of a function, bound method or lambda (None if unknown)."""
    code = getattr(func, "__code__", None)
    if code is None:
        code = getattr(getattr(func, "__func__", None), "__code__", None)
    return layer_of_code(code) if code is not None else None


def self_times(spans: Iterable[Tuple[Any, int, int, int]]) -> Dict[Any, int]:
    """Self time per span name.

    ``spans`` are ``(name, start, end, parent)`` with ``parent`` the
    position of the enclosing span in the same sequence (-1 for a
    root).  A span's self time is its length minus the lengths of its
    direct children.
    """
    names: List[Any] = []
    lengths: List[int] = []
    parents: List[int] = []
    for name, start, end, parent in spans:
        names.append(name)
        lengths.append(end - start)
        parents.append(parent)
    children = [0] * len(names)
    for length, parent in zip(lengths, parents):
        if parent >= 0:
            children[parent] += length
    totals: Dict[Any, int] = {}
    for name, length, child in zip(names, lengths, children):
        totals[name] = totals.get(name, 0) + length - child
    return totals


class Tracer:
    """In-memory span recorder plus the work counters of a traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.spans = array.array("q")
        self.stack: List[int] = [-1]
        #: Global index of the install or app being worked on (-1: none).
        self.request = -1
        self.counts: Counter = Counter()
        #: Bounded event-hub subscriptions made while tracing (their
        #: drop counters are read at the end).
        self.subscriptions: List[Any] = []

    def name_id(self, name: str) -> int:
        """Stable small integer for a span name."""
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
        return found

    @property
    def span_count(self) -> int:
        """Spans recorded so far."""
        return len(self.spans) // FIELDS

    def open(self, name_id: int) -> int:
        """Start a span under the innermost open one; returns its index."""
        index = len(self.spans) // FIELDS
        self.spans.extend((name_id, time.perf_counter_ns(), 0,
                           self.stack[-1], self.request))
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        """End the innermost span (which must be ``index``)."""
        self.spans[index * FIELDS + _END] = time.perf_counter_ns()
        self.stack.pop()

    def inside(self, name_id: int) -> bool:
        """True when the innermost open span has this name."""
        top = self.stack[-1]
        return top >= 0 and self.spans[top * FIELDS] == name_id

    def timed(self, name: str, func: Callable,
              after: Optional[Callable[..., None]] = None) -> Callable:
        """``func`` recording one ``name`` span per call.

        ``after(result, *args, **kwargs)`` runs once the span has
        closed, so what it costs is not charged to the layer.
        """
        name_id = self.name_id(name)
        open_span, close_span = self.open, self.close

        def traced(*args, **kwargs):
            index = open_span(name_id)
            try:
                result = func(*args, **kwargs)
            finally:
                close_span(index)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        traced.__wrapped__ = func
        return traced

    def timed_generator(self, name: str, gen):
        """A generator that forwards to ``gen``, one span per resume."""
        name_id = self.name_id(name)
        open_span, close_span = self.open, self.close
        send = gen.send
        value = None
        while True:
            index = open_span(name_id)
            try:
                yielded = send(value)
            except StopIteration as stop:
                close_span(index)
                return stop.value
            except BaseException:
                close_span(index)
                raise
            close_span(index)
            value = yield yielded

    def self_times_ns(self) -> Dict[str, int]:
        """Self time per layer over every span recorded."""
        spans = self.spans
        totals = self_times(zip(spans[_NAME::FIELDS], spans[_START::FIELDS],
                                spans[_END::FIELDS], spans[_PARENT::FIELDS]))
        return {self.names[name_id]: total
                for name_id, total in totals.items()}

    def write(self, stem: pathlib.Path, meta: Dict[str, Any]) -> None:
        """Write ``<stem>.json`` (names, counters, meta) and ``<stem>.spans``.

        The ``.spans`` file is the raw span array: native-endian int64,
        five per span (name id, start ns, end ns, parent, request).
        """
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".spans"), "wb") as handle:
            self.spans.tofile(handle)
        header = {"fields": ["name", "start_ns", "end_ns", "parent",
                             "request"],
                  "names": self.names, "spans": self.span_count,
                  "counts": dict(self.counts), "meta": meta}
        stem.with_suffix(".json").write_text(
            json.dumps(header, indent=1, sort_keys=True) + "\n")


class Patches:
    """Attribute replacements that are undone on exit."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        """Replace ``owner.name`` until :meth:`restore`."""
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def method(self, tracer: Tracer, cls: type, name: str, layer: str,
               after: Optional[Callable[..., None]] = None) -> None:
        """Time a method, staticmethod or classmethod of ``cls``."""
        raw = cls.__dict__[name]
        if isinstance(raw, staticmethod):
            self.set(cls, name, staticmethod(
                tracer.timed(layer, raw.__func__, after)))
        elif isinstance(raw, classmethod):
            self.set(cls, name, classmethod(
                tracer.timed(layer, raw.__func__, after)))
        else:
            self.set(cls, name, tracer.timed(layer, raw, after))

    def function(self, tracer: Tracer, module: Any, name: str, layer: str,
                 after: Optional[Callable[..., None]] = None) -> None:
        """Time a module-level function wherever ``repro`` imported it."""
        original = getattr(module, name)
        wrapped = tracer.timed(layer, original, after)
        for loaded in list(sys.modules.values()):
            if (getattr(loaded, "__name__", "").startswith("repro")
                    and loaded.__dict__.get(name) is original):
                self.set(loaded, name, wrapped)

    def restore(self) -> None:
        """Undo every replacement, newest first."""
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


# ---------------------------------------------------------------------------
# what each workload wraps
# ---------------------------------------------------------------------------

#: The VFS calls counted by ``android.filesystem.calls_per_install``.
FS_PUBLIC_CALLS = ("open", "create", "read_bytes", "write_bytes", "rename",
                   "unlink", "symlink", "chmod", "stat", "exists")


def instrument_fleet(tracer: Tracer, patches: Patches) -> None:
    """Wrap the install path's layers (fleet workloads)."""
    from repro.android import apk as apk_module
    from repro.android.apk import AndroidManifest, Apk, ApkBuilder
    from repro.android.fileobserver import FileObserver
    from repro.android.filesystem import Filesystem
    from repro.android.pms import PackageManagerService
    from repro.android.signing import Signature, SigningKey
    from repro.core.campaign import Campaign
    from repro.core.scenario import Scenario
    from repro.engine.executor import FleetExecutor
    from repro.engine.merge import FleetReport
    from repro.sim.events import EventHub, QueueOverflow
    from repro.sim.kernel import Kernel

    counts = tracer.counts
    patches.method(tracer, FleetExecutor, "run", "engine.executor")
    patches.method(tracer, FleetReport, "from_shards", "engine.merge")

    # -- core: scenario provisioning and the per-install loop ---------------
    for name in ("build", "publish_app"):
        patches.method(tracer, Scenario, name, "core")
    patches.method(tracer, Campaign, "install_many", "core")
    run_install = tracer.timed("core", Scenario.run_install)

    def run_install_for(scenario, package, *args, **kwargs):
        # Fleet packages are named by global install index (appNNNNNN).
        index = package.rsplit("app", 1)[-1]
        tracer.request = int(index) if index.isdigit() else -1
        try:
            return run_install(scenario, package, *args, **kwargs)
        finally:
            tracer.request = -1

    patches.set(Scenario, "run_install", run_install_for)

    # -- sim.kernel: dispatch, plus resumes attributed by code module -------
    def count_events(dispatched, *_args, **_kwargs):
        counts["kernel_events"] += dispatched

    patches.method(tracer, Kernel, "run", "sim.kernel", after=count_events)
    call_at, spawn = Kernel.call_at, Kernel.spawn

    def traced_call_at(kernel, when_ns, callback):
        # call_later delegates here, so this covers both.
        layer = layer_of_callable(callback)
        if layer is not None and layer != "sim.kernel":
            callback = tracer.timed(layer, callback)
        return call_at(kernel, when_ns, callback)

    def traced_spawn(kernel, gen, name=""):
        layer = layer_of_code(gen.gi_code)
        if layer != "sim.kernel":
            gen = tracer.timed_generator(layer, gen)
        return spawn(kernel, gen, name)

    patches.set(Kernel, "call_at", traced_call_at)
    patches.set(Kernel, "spawn", traced_spawn)

    # -- sim.events: publish, deliveries, drops -----------------------------
    def count_publish(targets, *_args, **_kwargs):
        counts["publishes"] += targets

    patches.method(tracer, EventHub, "publish", "sim.events",
                   after=count_publish)
    subscribe = EventHub.subscribe

    def traced_subscribe(hub, topic, handler, limits=None):
        timed = tracer.timed(layer_of_callable(handler) or "other", handler)

        def deliver(payload):
            if not isinstance(payload, QueueOverflow):
                counts["delivered"] += 1
            timed(payload)

        sub = subscribe(hub, topic, deliver, limits=limits)
        if sub.limits is not None:
            tracer.subscriptions.append(sub)
        return sub

    patches.set(EventHub, "subscribe", traced_subscribe)
    on_event = FileObserver.on_event

    def traced_on_event(observer, listener):
        return on_event(observer, tracer.timed(
            layer_of_callable(listener) or "other", listener))

    patches.set(FileObserver, "on_event", traced_on_event)

    # -- android.filesystem: the public VFS calls ---------------------------
    fs_id = tracer.name_id("android.filesystem")
    for name in FS_PUBLIC_CALLS:
        method = Filesystem.__dict__[name]
        patches.set(Filesystem, name, _counted(tracer, fs_id, method))

    # -- android.pms / apk / signing ----------------------------------------
    for name in ("install_package", "install_package_with_verification",
                 "install_parsed", "uninstall_package", "parse_apk_file"):
        patches.method(tracer, PackageManagerService, name, "android.pms")

    def count_hashed(_result, data, *_args, **_kwargs):
        counts["bytes_hashed"] += len(data)

    patches.function(tracer, apk_module, "hash_bytes", "android.apk",
                     after=count_hashed)
    # Both digests are memoized on the instance: only a call that finds
    # no memo hashes anything.
    for cls, name, memo in ((Apk, "file_hash", "_file_hash"),
                            (AndroidManifest, "checksum", "_checksum")):
        patches.set(cls, name, _memo_hashed(tracer, cls.__dict__[name], memo))
    for name in ("from_bytes", "to_bytes"):
        patches.method(tracer, Apk, name, "android.apk")
    patches.method(tracer, ApkBuilder, "build", "android.apk")

    def count_verify(*_args, **_kwargs):
        counts["verifies"] += 1

    patches.method(tracer, Signature, "matches", "android.signing",
                   after=count_verify)
    patches.method(tracer, SigningKey, "sign", "android.signing")


def _counted(tracer: Tracer, name_id: int, func: Callable) -> Callable:
    """A VFS method: one span per call, outermost calls counted."""
    open_span, close_span, inside = tracer.open, tracer.close, tracer.inside
    counts = tracer.counts

    def traced(*args, **kwargs):
        if not inside(name_id):
            counts["fs_calls"] += 1
        index = open_span(name_id)
        try:
            return func(*args, **kwargs)
        finally:
            close_span(index)

    traced.__wrapped__ = func
    return traced


def _memo_hashed(tracer: Tracer, method: Callable, memo: str) -> Callable:
    """A memoized digest method: timed, bytes counted when it hashes."""
    timed = tracer.timed("android.apk", method)
    counts = tracer.counts

    def traced(obj):
        fresh = memo not in obj.__dict__
        result = timed(obj)
        if fresh:
            counts["bytes_hashed"] += len(obj.to_bytes())
        return result

    traced.__wrapped__ = method
    return traced


def instrument_analysis(tracer: Tracer, patches: Patches) -> None:
    """Wrap the measurement pipeline's layers (analysis workload)."""
    from repro.analysis import pipeline
    from repro.analysis.classifier import InstallerClassifier
    from repro.analysis.corpus import PlayCorpusPlan
    from repro.engine.executor import FleetExecutor

    counts = tracer.counts
    patches.method(tracer, FleetExecutor, "run", "engine.executor")
    patches.method(tracer, pipeline.AnalysisShardSpec, "execute",
                   "analysis.pipeline")
    patches.method(tracer, pipeline.AnalysisReport, "from_shards",
                   "analysis.pipeline")
    patches.set(pipeline, "analyze_app",
                tracer.timed("analysis.pipeline", pipeline.analyze_app))
    patches.set(pipeline, "fold_analysis",
                tracer.timed("analysis.pipeline.fold", pipeline.fold_analysis))

    parse = tracer.timed("analysis.smali", pipeline.parse_program)

    def parse_program(text, *args, **kwargs):
        counts["smali_lines"] += text.count("\n") + 1
        return parse(text, *args, **kwargs)

    patches.set(pipeline, "parse_program", parse_program)
    patches.method(tracer, InstallerClassifier, "classify",
                   "analysis.classifier")
    app_at = tracer.timed("analysis.corpus", PlayCorpusPlan.app_at)

    def app_at_index(plan, index):
        tracer.request = index
        return app_at(plan, index)

    patches.set(PlayCorpusPlan, "app_at", app_at_index)

    def count_hit(record, *_args, **_kwargs):
        if record is not None:
            counts["cache_hits"] += 1

    cache = pipeline.AnalysisCache
    patches.method(tracer, cache, "key_for", "analysis.cache.key")
    patches.method(tracer, cache, "load", "analysis.cache.load",
                   after=count_hit)
    patches.method(tracer, cache, "store", "analysis.cache.store")
    patches.method(tracer, cache, "flush", "analysis.cache.flush")
