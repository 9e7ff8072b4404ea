"""Layer spans recorded from outside the program.

:func:`install` wraps each layer's public entry functions (module or
class attributes, restored by :meth:`Recorder.uninstall`) so every call
opens a :class:`repro.obs.span.Span` on its thread.  Spans are grouped
per request and kept in memory; :meth:`Recorder.summary` reduces them to
per-name totals and per-layer self time, and the kept request trees are
exported in the Chrome ``trace_event`` format of :mod:`repro.obs.export`.

Requests: in the server the envelope is ``QueryService._handle_request``
on the event loop, and the engine work runs on a worker thread inside
``_execute_query`` / ``_execute_mutations``; both carry the session, so
``(session id, request number)`` ties the worker spans to their envelope.
In-process, the benchmark loop brackets each call with
:meth:`Recorder.begin` / :meth:`Recorder.end`.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

from repro.obs.span import Span

#: Request trees kept for the Chrome export (aggregates cover them all).
KEEP_REQUESTS = 500

#: Layers in request order; self time is reported for each.
LAYERS = ("server", "oql", "optimizer", "exec", "engine", "storage", "views")


class Recorder:
    """Span stacks per thread, request roots, and the aggregates."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self._envelopes: dict[tuple, object] = {}
        self.armed = False
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.seconds: dict[str, float] = defaultdict(float)
            self.calls: dict[str, int] = defaultdict(int)
            self.self_seconds: dict[str, float] = defaultdict(float)
            self.units: dict[str, float] = defaultdict(float)
            #: Wall of the finished request roots (``units["covered"]``
            #: holds the part of it that layer spans cover).
            self.request_seconds = 0.0
            self.requests = 0
            self.kept: list = []

    # -- span bookkeeping ------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str):
        span = Span(name, start=time.perf_counter())
        span.attributes["layer"] = layer
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        else:
            parent = self._envelopes.get(getattr(self._local, "request", None))
            if parent is not None:
                parent.children.append(span)
        stack.append(span)
        return span

    def _close(self, span, units: float = 0.0) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if not self.armed:
            return
        name = span.name
        leaves = span.attributes.pop("leaves", None)
        with self._lock:
            self.seconds[name] += span.seconds
            self.calls[name] += 1
            self.self_seconds[span.attributes["layer"]] += span.self_seconds
            if units:
                self.units[name] += units
            if leaves:
                # Leaf calls ran inside this span but are no child spans:
                # move their time from this span's self time to theirs.
                for (leaf, layer), (seconds, calls) in leaves.items():
                    self.seconds[leaf] += seconds
                    self.calls[leaf] += calls
                    self.self_seconds[layer] += seconds
                    self.self_seconds[span.attributes["layer"]] -= seconds
                    span.attributes[leaf] = seconds

    def set_request(self, key) -> None:
        """Attribute this thread's top-level spans to request ``key``."""
        self._local.request = key

    # -- request roots -----------------------------------------------------

    def begin(self, key, name: str = "request", layer: str | None = None):
        """Open a request root; ``layer=None`` makes it a bare envelope
        whose own time counts toward no layer (the in-process caller)."""
        root = Span(name, start=time.perf_counter())
        root.attributes["layer"] = layer
        self._envelopes[key] = root
        return root

    def end(self, key, wall: float | None = None) -> None:
        """Close request ``key``; ``wall`` overrides the root's own span as
        the request's wall time (a client-side measurement)."""
        root = self._envelopes.pop(key)
        root.end = time.perf_counter()
        if not self.armed:
            return
        covered = sum(child.seconds for child in root.children)
        with self._lock:
            if root.attributes["layer"] is not None:
                self.seconds[root.name] += root.seconds
                self.calls[root.name] += 1
                self.self_seconds[root.attributes["layer"]] += root.self_seconds
                covered = root.seconds
            self.requests += 1
            self.request_seconds += root.seconds if wall is None else wall
            self.units["covered"] += covered
            if len(self.kept) < KEEP_REQUESTS:
                self.kept.append(root)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, layer: str, units=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``units(args, result)`` optionally returns a count folded into
        ``self.units[name]`` (bytes written, patterns decoded...).
        """
        fn = getattr(owner, attr)
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = recorder._open(name, layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                recorder._close(span, units(args, result) if units else 0.0)

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, fn))

    def wrap_leaf(self, owner, attr: str, name: str, layer: str) -> None:
        """Like :meth:`wrap` for a function called once per pattern: no
        span, only time and calls, folded into the enclosing span."""
        fn = getattr(owner, attr)
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stack = recorder._stack()
                if stack:
                    leaves = stack[-1].attributes.setdefault("leaves", {})
                    seconds, calls = leaves.get((name, layer), (0.0, 0))
                    leaves[(name, layer)] = (
                        seconds + time.perf_counter() - started,
                        calls + 1,
                    )

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, fn))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    # -- output ----------------------------------------------------------------

    def summary(self) -> dict:
        with self._lock:
            return {
                "seconds": dict(self.seconds),
                "calls": dict(self.calls),
                "self_seconds": dict(self.self_seconds),
                "units": dict(self.units),
                "requests": self.requests,
                "request_seconds": self.request_seconds,
            }

    def chrome(self, pid: int) -> list[dict]:
        """Kept request trees as Chrome ``X`` events on a shared clock."""
        from repro.obs.export import spans_to_chrome_trace

        with self._lock:
            roots = list(self.kept)
        if not roots:
            return []
        events = spans_to_chrome_trace(roots, pid=pid)["traceEvents"]
        origin = min(root.start for root in roots)
        for event in events:
            event["ts"] += origin * 1e6  # absolute perf_counter µs
        return events


def install(recorder: Recorder, *, server: bool) -> None:
    """Wrap every layer's entry points (and the server's, with ``server``)."""
    import repro.oql
    import repro.storage.wal as wal
    from repro.engine.database import Database
    from repro.exec import physical
    from repro.exec.arena import PatternArena
    from repro.exec.executor import Executor
    from repro.optimizer.stats import StatisticsCatalog
    from repro.storage.engine import FileEngine
    from repro.views.registry import ViewRegistry

    w = recorder.wrap
    w(repro.oql, "compile_oql", "oql.compile", "oql")
    w(Database, "query", "engine.query", "engine")
    for dml in ("insert", "insert_value", "link", "unlink", "delete", "update_value"):
        w(Database, dml, "engine.dml", "engine")
    w(Executor, "run", "exec.run", "exec")
    w(Executor, "on_mutation", "exec.on_mutation", "exec")
    w(physical.PhysicalPlanner, "plan", "exec.plan", "exec")
    for fn in dir(physical):
        if fn.startswith("k_"):
            w(physical, fn, "exec.kernel", "exec")
    for fn in (
        "a_complement",
        "a_difference",
        "a_divide",
        "a_intersect",
        "a_project",
        "a_select",
        "a_union",
        "associate",
        "non_associate",
    ):
        w(physical, fn, "exec.object_op", "exec")
    w(PatternArena, "decode_set", "exec.decode", "exec")
    w(PatternArena, "apply", "exec.arena_apply", "exec")
    w(StatisticsCatalog, "analyze", "optimizer.analyze", "optimizer")
    w(StatisticsCatalog, "apply", "optimizer.stats_apply", "optimizer")
    w(ViewRegistry, "on_mutation", "views.maintain", "views")
    w(FileEngine, "append", "storage.append", "storage")
    w(FileEngine, "flush", "storage.flush", "storage")
    w(FileEngine, "checkpoint", "storage.checkpoint", "storage")
    w(
        FileEngine,
        "_write_atomic",
        "storage.write_file",
        "storage",
        units=lambda args, _: args[1].stat().st_size,
    )
    w(wal, "encode_payload", "storage.encode", "storage", units=lambda _, r: len(r))
    if server:
        _install_server(recorder)


def _install_server(recorder: Recorder) -> None:
    from repro.server import protocol, service
    from repro.server.service import QueryService

    w = recorder.wrap
    recorder.wrap_leaf(service, "pattern_to_wire", "server.encode", "server")
    w(protocol, "encode_frame", "server.encode_frame", "server")

    for attr in ("_execute_query", "_execute_mutations"):
        w(QueryService, attr, "server.execute", "server")
        spanned = getattr(QueryService, attr)

        # Outermost: tie this worker thread's spans to the session's
        # current request before the ``server.execute`` span opens.
        def execute(self, session, *args, __fn=spanned, **kwargs):
            recorder.set_request((session.id, session.requests))
            try:
                return __fn(self, session, *args, **kwargs)
            finally:
                recorder.set_request(None)

        setattr(QueryService, attr, execute)
        recorder._restore.append((QueryService, attr, spanned))

    handle = QueryService._handle_request

    async def handle_request(self, session, request):
        key = (session.id, session.requests + 1)
        recorder.begin(key, "server.request", "server")
        try:
            return await handle(self, session, request)
        finally:
            recorder.end(key)
            if request.get("op") == "ping":
                # The benchmark pings right before its measured window.
                recorder.reset()
                recorder.armed = True

    QueryService._handle_request = handle_request
    recorder._restore.append((QueryService, "_handle_request", handle))
