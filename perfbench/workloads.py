"""The three workloads and what each run measures.

Every workload is a closed loop: one caller (a connection, or the
in-process caller) sends its next request only after the previous reply.

* ``serve_hot`` — one connection to ``repro serve`` over a 1000-student
  store, drawing from the eight served texts by fixed Zipf popularity.
* ``analytic_cold`` — in-process ``Database.query`` over a 2000-student
  store; nine operator templates with constants that never repeat.
* ``write_mix`` — one connection to ``repro serve`` over a 500-student
  store sending 20% durable ``mutate`` batches and 80% served texts; a
  second connection is subscribed to two materialized views and drained
  by a thread.

An untraced run reports the end-to-end metrics.  A traced run measures
the same workload untraced for half its time, then sets up afresh with
the layer wrappers installed and replays exactly the same requests; the
wall-time ratio of the two halves is the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import tracing
from common import (
    OUT,
    SETUP_REPEATS,
    Reference,
    Server,
    histogram_mean_ms,
    median,
    peak_rss_mb,
    ratio,
    reset_peak_rss,
    scrape,
    scrape_labeled,
    tail,
    wait_answering,
    wire,
)
from texts import (
    ANALYTIC_STUDENTS,
    DATASET_SEED,
    SERVE_STUDENTS,
    WRITE_SHARE,
    WRITE_STUDENTS,
    TEMPLATES,
    AnalyticStream,
    Deck,
    Mutator,
    courses_for,
    serve_deck,
    serve_texts,
)

#: Durable mutate batches a read-only workload sends after its window, so
#: its store has a write path and a WAL tail to recover.
PROBE_BATCHES = 5000

#: Restarts after each ``kill -9``; ``recovery_s`` is their median.
RECOVERIES = 9

#: Requests after which a workload reads the engine process's peak memory.
#: Memory grows per request (the unbounded PlanCache, write_mix's inserted
#: students), so a fixed count measures a fixed amount of work and a faster
#: engine is not charged for serving more requests in the window.  Each is
#: well below what a 10-s window completed at the slowest rate measured on
#: a 2-core host (about 350 analytic queries, 500 served requests).
RSS_AFTER = {"serve_hot": 300, "analytic_cold": 200, "write_mix": 300}

#: write_mix's materialized views (its second connection subscribes to both).
VIEWS = {
    "honors": "sigma(Student * GPA)[GPA >= 3.5]",
    "grad_sections": "Grad * Student * Section",
}


@dataclass
class Outcome:
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def dataset(n_students: int):
    from repro.datagen.synthetic import university_scaled

    return university_scaled(
        n_students=n_students, n_courses=courses_for(n_students), seed=DATASET_SEED
    )


def pkey(wire_pattern: dict) -> str:
    return json.dumps(wire_pattern, sort_keys=True)


def metric_delta(before: str, after: str) -> dict[str, float]:
    a, b = scrape(after), scrape(before)
    return {k: v - b.get(k, 0.0) for k, v in a.items()}


# ----------------------------------------------------------------------
# lanes
# ----------------------------------------------------------------------


class Lane:
    """The closed-loop caller: latencies, counts and request spans."""

    def __init__(self, read_rss, rss_after: int) -> None:
        self.read_rss = read_rss
        self.rss_after = rss_after
        self.rss_mb: float | None = None
        self.q_lat: list[float] = []
        self.m_lat: list[float] = []
        self.failed = 0
        self.wrong = 0
        self.ops = 0
        self.spans: list[tuple[str, float, float]] = []

    def step(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float | None = None, ops: int | None = None) -> float:
        """Step until ``seconds`` pass or ``ops`` requests are done; the
        wall time."""
        started = time.perf_counter()
        deadline = started + seconds if seconds is not None else None
        while (deadline is None or time.perf_counter() < deadline) and (
            ops is None or self.ops < ops
        ):
            self.step()
            if self.ops == self.rss_after:
                self.rss_mb = self.read_rss()
        return time.perf_counter() - started

    def peak_rss_mb(self) -> float:
        """The engine's peak memory after ``rss_after`` requests (or at the
        end of a window that did fewer)."""
        return self.rss_mb if self.rss_mb is not None else self.read_rss()

    def _timed(self, name: str, call, samples: list[float]):
        started = time.perf_counter()
        result = call()
        ended = time.perf_counter()
        samples.append(ended - started)
        if len(self.spans) < tracing.KEEP_REQUESTS:
            self.spans.append((name, started, ended))
        return result


class ServeLane(Lane):
    def __init__(
        self, client, n_students: int, seed: int, mutator, read_rss, rss_after: int
    ) -> None:
        super().__init__(read_rss, rss_after)
        self.client = client
        self.mutator = mutator
        if mutator is not None:
            self.mix = Deck(
                {"read": 1 - WRITE_SHARE, "write": WRITE_SHARE},
                10,
                random.Random(f"{seed}/mix"),
            )
        self.reads = serve_deck(n_students, random.Random(f"{seed}/reads"))
        self.counts: dict[str, set[int]] = {}
        self.last: dict[str, object] = {}

    def step(self) -> None:
        from repro.server.protocol import ServerError

        self.ops += 1
        try:
            if self.mutator is not None and self.mix.next() == "write":
                batch = self.mutator.next()
                response = self._timed(
                    "client.mutate", lambda: self.client.mutate(batch), self.m_lat
                )
                self.mutator.acked(response)
            else:
                text = self.reads.next()
                result = self._timed(
                    "client.query", lambda: self.client.query(text), self.q_lat
                )
                self.counts.setdefault(text, set()).add(result.count)
                self.last[text] = result
        except ServerError:
            self.failed += 1


class Subscriber:
    """write_mix's second connection: subscribed to every view, its push
    frames drained by a thread and applied to local copies (snapshot +
    deltas) once the window is over, so applying them takes no time from
    the driving thread inside the window."""

    def __init__(self, client) -> None:
        self.client = client
        self.copies = {}
        for name in VIEWS:
            snapshot = client.subscribe(name)
            self.copies[name] = {
                "version": snapshot["version"],
                "patterns": {pkey(p) for p in snapshot["patterns"]},
                "deltas": 0,
            }
        self.received: list[dict] = []
        self.frames = 0
        self.problems: list[str] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._drain, daemon=True)
        self._thread.start()

    def _drain(self) -> None:
        while not self._stop.is_set():
            frame = self.client.next_notification(timeout=0.05)
            if frame is not None:
                self.received.append(frame)

    def _apply(self, frame: dict) -> None:
        self.frames += 1
        copy = self.copies.get(frame.get("view"))
        if frame.get("notify") != "view.delta" or copy is None:
            self.problems.append(f"unexpected push frame {frame.get('notify')}")
            return
        if frame["version"] != copy["version"] + 1:
            self.problems.append(
                f"view {frame['view']}: version {frame['version']} after {copy['version']}"
            )
        copy["version"] = frame["version"]
        for pattern in frame["removed"]:
            copy["patterns"].discard(pkey(pattern))
        for pattern in frame["added"]:
            copy["patterns"].add(pkey(pattern))
        copy["deltas"] += len(frame["added"]) + len(frame["removed"])

    def settle(self) -> None:
        """Stop the thread, read frames until none arrives for 0.3 s, then
        apply every frame in arrival order."""
        self._stop.set()
        self._thread.join()
        while (frame := self.client.next_notification(timeout=0.3)) is not None:
            self.received.append(frame)
        for frame in self.received:
            self._apply(frame)
        self.received.clear()

    def check(self, out: Outcome, before: str, after: str) -> None:
        """Pushed delta patterns per view against the server's counter."""
        for problem in self.problems:
            out.expect(False, problem)
        for name, copy in self.copies.items():
            deltas = scrape_labeled(after, "repro_view_delta_total", view=name)
            deltas -= scrape_labeled(before, "repro_view_delta_total", view=name)
            out.expect(
                copy["deltas"] == deltas,
                f"view {name}: {copy['deltas']} pushed delta patterns,"
                f" server counted {deltas:g}",
            )


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def end_to_end(
    out: Outcome,
    setup_times: list[float],
    lane: Lane,
    wall: float,
    mutate_lat: list[float],
    recovery_s: float,
    rss_mb: float,
) -> None:
    q_lat = lane.q_lat
    ops = lane.ops
    out.attempted += ops
    out.failed += lane.failed + lane.wrong
    q_tail, q_pct = tail(q_lat)
    m_tail, m_pct = tail(mutate_lat)
    out.put("setup_s", median(setup_times), "s")
    out.put("throughput_ops", ops / wall, "1/s")
    out.put("query_p50_ms", 1e3 * median(q_lat), "ms")
    out.put("query_p99_ms", 1e3 * q_tail, "ms")
    out.put("mutate_p50_ms", 1e3 * median(mutate_lat), "ms")
    out.put("mutate_p99_ms", 1e3 * m_tail, "ms")
    out.put("recovery_s", recovery_s, "s")
    out.put("ok_ratio", 1.0 - ratio(out.failed, out.attempted), "ratio")
    out.put("peak_rss_mb", rss_mb, "MB")
    out.notes.append(
        f"setup {['%.3f' % s for s in setup_times]} s; {ops} ops in {wall:.2f} s;"
        f" query tail = p{q_pct:.2f} of {len(q_lat)};"
        f" mutate tail = p{m_pct:.2f} of {len(mutate_lat)}"
    )


def layer_metrics(
    out: Outcome,
    summary: dict,
    delta: dict[str, float],
    *,
    queries: int,
    mutates: int,
    wall_untraced: float,
    wall_traced: float,
    request_wall: float,
    covered: float,
    server_request_ms: float = 0.0,
    client_query_ms: float = 0.0,
    push_frames: int = 0,
    n_views: int = 0,
    replay_records: int = 0,
) -> None:
    """Per-layer metrics of one traced window (0 = layer not exercised)."""
    s = summary["seconds"]
    calls = summary["calls"]
    units = summary["units"]
    ops = queries + mutates

    def per(name: str, n: int) -> float:
        return 1e3 * ratio(s.get(name, 0.0), n)

    put = out.put
    put("server.request_ms", server_request_ms, "ms")
    put("server.wire_ms", client_query_ms - server_request_ms if client_query_ms else 0.0, "ms")
    put(
        "server.encode_ms",
        1e3 * ratio(s.get("server.encode", 0.0) + s.get("server.encode_frame", 0.0), ops),
        "ms",
    )
    put("server.queue_wait_ms", histogram_mean_ms(delta, "repro_server_queue_wait_seconds"), "ms")
    put("server.shed", delta.get("repro_server_shed_total", 0.0), "count")
    put("oql.compile_ms", per("oql.compile", queries), "ms")
    put("oql.compiles_per_query", ratio(calls.get("oql.compile", 0), queries), "count")
    put("exec.plan_ms", per("exec.plan", queries), "ms")
    put("exec.plans_per_query", ratio(calls.get("exec.plan", 0), queries), "count")
    hits = delta.get("repro_plan_cache_hits_total", 0.0)
    misses = delta.get("repro_plan_cache_misses_total", 0.0)
    put("exec.cache_hit_ratio", ratio(hits, hits + misses), "ratio")
    put("exec.cache_invalidations", delta.get("repro_plan_cache_invalidations_total", 0.0), "count")
    put("exec.kernel_ms", per("exec.kernel", queries), "ms")
    put("exec.kernel_calls", ratio(calls.get("exec.kernel", 0), queries), "count")
    put("exec.object_op_ms", per("exec.object_op", queries), "ms")
    put("exec.decode_ms", per("exec.decode", queries), "ms")
    put("exec.decoded_patterns", ratio(delta.get("repro_compact_decode_total", 0.0), queries), "count")
    put("exec.compact_fallbacks", delta.get("repro_compact_fallback_total", 0.0), "count")
    compiled = delta.get("repro_select_compiled_total", 0.0)
    fallback = delta.get("repro_select_fallback_total", 0.0)
    put("exec.select_compiled_ratio", ratio(compiled, compiled + fallback), "ratio")
    put("exec.arena_apply_ms", per("exec.arena_apply", mutates), "ms")
    put("engine.query_ms", histogram_mean_ms(delta, "repro_query_seconds"), "ms")
    put("engine.dml_ms", per("engine.dml", mutates), "ms")
    put("optimizer.stats_refresh", delta.get("repro_stats_refresh_total", 0.0), "count")
    put("optimizer.analyze_ms", per("optimizer.analyze", mutates), "ms")
    put("storage.fsync_ms", histogram_mean_ms(delta, "repro_wal_fsync_seconds"), "ms")
    records = delta.get("repro_wal_records_total", 0.0)
    put("storage.records_per_fsync", ratio(records, delta.get("repro_wal_fsync_seconds_count", 0.0)), "count")
    put("storage.checkpoint_ms", 1e3 * ratio(s.get("storage.checkpoint", 0.0), calls.get("storage.checkpoint", 0)), "ms")
    written = units.get("storage.encode", 0.0) + units.get("storage.write_file", 0.0)
    put("storage.bytes_per_mutation", ratio(written, records), "B")
    put("storage.replay_records", replay_records, "count")
    put("views.maintain_ms", histogram_mean_ms(delta, "repro_view_maintain_seconds"), "ms")
    passes = delta.get("repro_view_maintain_seconds_count", 0.0) * n_views
    recomputes = delta.get("repro_view_recompute_total", 0.0)
    put("views.delta_ratio", 1.0 - ratio(recomputes, passes) if passes else 0.0, "ratio")
    put("views.push_frames", push_frames, "count")
    for layer in tracing.LAYERS:
        put(f"{layer}.self_ms", 1e3 * ratio(summary["self_seconds"].get(layer, 0.0), ops), "ms")
    put("unaccounted_share", 1.0 - ratio(covered, request_wall), "ratio")
    put("trace_overhead_pct", 100.0 * (wall_traced / wall_untraced - 1.0), "%")


def write_chrome(name: str, seed: int, events: list[dict], lane: Lane) -> Path:
    """Engine-process spans plus the caller's request spans, one file."""
    pid = os.getpid()
    for span_name, start, end in lane.spans:
        events.append(
            {
                "name": span_name,
                "cat": "client",
                "ph": "X",
                "ts": start * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": 0,
                "args": {},
            }
        )
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}.trace.json"
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    return path


# ----------------------------------------------------------------------
# the shared crash/recovery epilogue
# ----------------------------------------------------------------------


def probe_mutations(client, graph, seed: int) -> tuple[Mutator, list[float]]:
    """``PROBE_BATCHES`` durable batches on one connection, timed."""
    mutator = Mutator(graph, random.Random(f"{seed}/probe"))
    samples = []
    for _ in range(PROBE_BATCHES):
        batch = mutator.next()
        started = time.perf_counter()
        response = client.mutate(batch)
        samples.append(time.perf_counter() - started)
        mutator.acked(response)
    return mutator, samples


def crash_and_recover(
    out: Outcome,
    server: Server,
    mutator: Mutator,
    check_texts: list[str],
    view_copies: dict | None = None,
) -> tuple[float, int]:
    """``kill -9`` the server and time restarts until one answers (killed
    again ``RECOVERIES - 1`` times), then check the recovered store.
    Returns ``(median recovery seconds, replayed records)``."""
    from repro.engine.database import Database

    server.kill()
    times = []
    for attempt in range(RECOVERIES):
        started = time.perf_counter()
        recovered = Server(server.store)
        if attempt < RECOVERIES - 1:
            # Answering is all that is timed; the next restart replays the
            # same WAL tail because nothing checkpointed in between.
            wait_answering(recovered, check_texts[0]).close()
            times.append(time.perf_counter() - started)
            recovered.kill()
            continue
        try:
            client = wait_answering(recovered, check_texts[0])
            times.append(time.perf_counter() - started)
            replay = client.events(type="recovery.replay")["events"][-1]["data"]
            answers = {text: client.query(text).patterns for text in check_texts}
            snapshots = {
                name: client.subscribe(name)["patterns"]
                for name in (view_copies or {})
            }
            client.close()
        finally:
            recovered.stop()
    db = Database.open(server.store, create=False, analyze=False)
    try:
        missing = mutator.check(db)
        out.expect(not missing, f"acknowledged mutations lost: {missing[:3]}")
        reference = Reference(db.graph)
        for text, patterns in answers.items():
            out.expect(
                patterns == wire(reference.evaluate(text)),
                f"recovered answer differs from reference: {text}",
            )
        for name, copy in (view_copies or {}).items():
            expected = {pkey(p) for p in wire(reference.evaluate(VIEWS[name]))}
            out.expect(
                {pkey(p) for p in snapshots[name]} == expected,
                f"view {name}: maintained set differs from its recompute",
            )
            out.expect(
                copy["patterns"] == expected,
                f"view {name}: snapshot + pushed deltas differ from its recompute",
            )
    finally:
        db.close()
    return median(times), int(replay["records"])


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


class Workload:
    name = "?"

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed

    def run(self, seconds: float, trace: bool) -> Outcome:
        out = Outcome()
        if not trace:
            times = []
            for index in range(SETUP_REPEATS):
                if index:
                    # Drop the previous setup before building the next, so
                    # two never overlap in memory.
                    self.teardown(env)
                    env = None
                    gc.collect()
                started = time.perf_counter()
                env = self.setup(index)
                times.append(time.perf_counter() - started)
            lane = self.lane(env)
            # analytic_cold's engine runs in this process: its peak memory
            # counts from the window's start, not from the setups.
            reset_peak_rss()
            wall = lane.run(seconds=seconds)
            self.finish(env, out, lane, wall, times)
            return out
        env = self.setup(0)
        lane = self.lane(env)
        wall_untraced = lane.run(seconds=seconds / 2)
        self.teardown(env)
        self.traced(out, lane.ops, wall_untraced)
        return out


class ServeWorkload(Workload):
    """A loopback workload over ``repro serve --db STORE``."""

    n_students = SERVE_STUDENTS

    def setup(self, index: int, spans_out: Path | None = None):
        from repro.engine.database import Database

        env = SimpleNamespace()
        env.ds = dataset(self.n_students)
        env.store = self.work / f"{self.name}-{index}"
        Database.open(
            env.store, schema=env.ds.schema, graph=env.ds.graph, analyze=False
        ).close()
        env.server = Server(env.store, spans_out)
        env.client = env.server.client()
        env.texts = [text for text, _ in serve_texts(self.n_students)]
        for text in env.texts * 2:
            env.client.query(text)
        env.subscriber = None
        return env

    def teardown(self, env) -> None:
        env.client.close()
        if env.subscriber is not None:
            env.subscriber.settle()
            env.subscriber.client.close()
        env.server.stop()
        shutil.rmtree(env.store, ignore_errors=True)

    def lane(self, env) -> ServeLane:
        return ServeLane(
            env.client,
            self.n_students,
            self.seed,
            self.mutator(env),
            env.server.peak_rss_mb,
            RSS_AFTER[self.name],
        )

    def mutator(self, env) -> Mutator | None:
        return None

    def check_reads(self, out: Outcome, env, lane: ServeLane) -> None:
        """Each distinct text's result against the reference (read-only)."""
        reference = Reference(env.ds.graph)
        for text, result in lane.last.items():
            expected = wire(reference.evaluate(text))
            if result.patterns != expected or lane.counts[text] != {len(expected)}:
                lane.wrong += 1
                out.expect(False, f"served result differs from reference: {text}")

    def finish(self, env, out: Outcome, lane, wall, times) -> None:
        raise NotImplementedError

    def traced(self, out: Outcome, ops: int, wall_untraced: float) -> None:
        spans_out = self.work / f"{self.name}.spans.json"
        env = self.setup(1, spans_out)
        lane = self.lane(env)
        before = env.client.metrics()
        env.client.ping()  # arms the server's recorder
        wall_traced = lane.run(ops=ops)
        env.server.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 60
        while not spans_out.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("traced server wrote no spans")
            time.sleep(0.01)
        dump = json.loads(spans_out.read_text())
        if env.subscriber is not None:
            env.subscriber.settle()
        after = env.client.metrics()
        replay = self.after_traced(out, env, lane, before, after)
        served = scrape_labeled(after, "repro_server_request_seconds_sum", op="query")
        served -= scrape_labeled(before, "repro_server_request_seconds_sum", op="query")
        summary = dump["summary"]
        out.attempted += lane.ops
        out.failed += lane.failed + lane.wrong
        layer_metrics(
            out,
            summary,
            metric_delta(before, after),
            queries=len(lane.q_lat),
            mutates=len(lane.m_lat),
            wall_untraced=wall_untraced,
            wall_traced=wall_traced,
            request_wall=sum(lane.q_lat) + sum(lane.m_lat),
            covered=summary["units"].get("covered", 0.0)
            + summary["seconds"].get("server.encode_frame", 0.0),
            server_request_ms=1e3 * ratio(served, len(lane.q_lat)),
            client_query_ms=1e3 * ratio(sum(lane.q_lat), len(lane.q_lat)),
            push_frames=env.subscriber.frames if env.subscriber else 0,
            n_views=len(VIEWS) if env.subscriber else 0,
            replay_records=replay,
        )
        path = write_chrome(self.name, self.seed, dump["events"], lane)
        out.notes.append(f"trace: {path}")

    def after_traced(self, out: Outcome, env, lane, before: str, after: str) -> int:
        """Post-window checks of a traced run; returns replayed records."""
        raise NotImplementedError


class ServeHot(ServeWorkload):
    name = "serve_hot"

    def finish(self, env, out, lane, wall, times) -> None:
        self.check_reads(out, env, lane)
        rss = lane.peak_rss_mb()
        probe, samples = probe_mutations(env.client, env.ds.graph, self.seed)
        recovery_s, _ = crash_and_recover(out, env.server, probe, env.texts[:1])
        env.client.close()
        end_to_end(out, times, lane, wall, samples, recovery_s, rss)
        shutil.rmtree(env.store, ignore_errors=True)

    def after_traced(self, out, env, lane, before, after) -> int:
        self.check_reads(out, env, lane)
        self.teardown(env)
        return 0


class WriteMix(ServeWorkload):
    name = "write_mix"
    n_students = WRITE_STUDENTS

    def setup(self, index: int, spans_out: Path | None = None):
        env = super().setup(index, spans_out)
        for name, text in VIEWS.items():
            env.client.create_view(name, text)
        env.subscriber = Subscriber(env.server.client())
        return env

    def mutator(self, env) -> Mutator:
        return Mutator(env.ds.graph, random.Random(f"{self.seed}/writes"))

    def lane(self, env) -> ServeLane:
        env.baseline = env.client.metrics()
        return super().lane(env)

    def finish(self, env, out, lane, wall, times) -> None:
        env.subscriber.settle()
        env.subscriber.check(out, env.baseline, env.client.metrics())
        rss = lane.peak_rss_mb()
        recovery_s, _ = crash_and_recover(
            out, env.server, lane.mutator, env.texts, env.subscriber.copies
        )
        env.client.close()
        env.subscriber.client.close()
        end_to_end(out, times, lane, wall, lane.m_lat, recovery_s, rss)
        shutil.rmtree(env.store, ignore_errors=True)

    def after_traced(self, out, env, lane, before, after) -> int:
        env.subscriber.check(out, before, after)
        _, replayed = crash_and_recover(
            out, env.server, lane.mutator, env.texts, env.subscriber.copies
        )
        env.client.close()
        env.subscriber.client.close()
        shutil.rmtree(env.store, ignore_errors=True)
        return replayed


def fingerprint(result) -> tuple[int, int]:
    """Size and hash of an association-set (the hash of its pattern set)."""
    return len(result), hash(result)


class AnalyticLane(Lane):
    def __init__(self, db, seed: int, recorder=None) -> None:
        super().__init__(
            lambda: peak_rss_mb(os.getpid()), RSS_AFTER[AnalyticCold.name]
        )
        self.db = db
        self.stream = AnalyticStream(
            ANALYTIC_STUDENTS, random.Random(f"{seed}/analytic")
        )
        self.recorder = recorder
        #: ``(text, fingerprint)`` per query; the result sets themselves are
        #: not kept, so they do not add to the measured peak memory.
        self.results: list[tuple[str, tuple[int, int]]] = []

    def step(self) -> None:
        from repro.errors import ReproError

        text = self.stream.next()
        self.ops += 1
        recorder = self.recorder
        try:
            if recorder is None:
                result = self._timed("query", lambda: self.db.query(text), self.q_lat)
            else:
                recorder.set_request(self.ops)
                recorder.begin(self.ops)
                try:
                    result = self._timed(
                        "query", lambda: self.db.query(text), self.q_lat
                    )
                finally:
                    recorder.end(self.ops)
                    recorder.set_request(None)
        except ReproError:
            self.failed += 1
            return
        self.results.append((text, fingerprint(result.set)))


class AnalyticCold(Workload):
    name = "analytic_cold"

    def setup(self, index: int):
        from repro.engine.database import Database

        env = SimpleNamespace()
        env.ds = dataset(ANALYTIC_STUDENTS)
        env.store = self.work / f"{self.name}-{index}"
        env.db = Database.open(env.store, schema=env.ds.schema, graph=env.ds.graph)
        # Warm-up: one query per template, from a separate rng; the
        # measured stream skips these texts.
        warm = random.Random(f"{self.seed}/analytic/warm")
        env.warm = {t(warm, ANALYTIC_STUDENTS) for t in TEMPLATES.values()}
        for text in env.warm:
            env.db.query(text)
        env.lane = None
        return env

    def teardown(self, env) -> None:
        env.db.close()
        shutil.rmtree(env.store, ignore_errors=True)

    def lane(self, env) -> AnalyticLane:
        env.lane = AnalyticLane(env.db, self.seed, getattr(env, "recorder", None))
        env.lane.stream.seen |= env.warm  # no measured text was warmed
        return env.lane

    def check(self, out: Outcome, env) -> None:
        """Every query's result against the memoized reference."""
        lane = env.lane
        reference = Reference(env.db.graph)
        for text, result in lane.results:
            if result != fingerprint(reference.evaluate(text)):
                lane.wrong += 1
                out.expect(False, f"analytic result differs from reference: {text}")
        texts = [text for text, _ in lane.results]
        repeated = len(texts) - len(set(texts) - env.warm)
        out.expect(repeated == 0, f"{repeated} analytic texts repeated")

    def finish(self, env, out, lane, wall, times) -> None:
        # The engine runs in this process; its peak was reset as the
        # window started, so this is the window's peak, not the setup's.
        rss = lane.peak_rss_mb()
        self.check(out, env)
        env.db.close()
        server = Server(env.store)
        client = wait_answering(server, "Student * GPA")
        probe, samples = probe_mutations(client, env.ds.graph, self.seed)
        recovery_s, _ = crash_and_recover(out, server, probe, ["Student * GPA"])
        client.close()
        end_to_end(out, times, lane, wall, samples, recovery_s, rss)
        shutil.rmtree(env.store, ignore_errors=True)

    def traced(self, out: Outcome, ops: int, wall_untraced: float) -> None:
        from repro.obs.export import metrics_to_prometheus

        env = self.setup(1)
        env.recorder = tracing.Recorder()
        tracing.install(env.recorder, server=False)
        try:
            lane = self.lane(env)
            before = metrics_to_prometheus(env.db.metrics)
            env.recorder.armed = True
            wall_traced = lane.run(ops=ops)
            env.recorder.armed = False
            after = metrics_to_prometheus(env.db.metrics)
        finally:
            env.recorder.uninstall()
        summary = env.recorder.summary()
        self.check(out, env)
        out.attempted += lane.ops
        out.failed += lane.failed + lane.wrong
        layer_metrics(
            out,
            summary,
            metric_delta(before, after),
            queries=len(lane.q_lat),
            mutates=0,
            wall_untraced=wall_untraced,
            wall_traced=wall_traced,
            request_wall=summary["request_seconds"],
            covered=summary["units"].get("covered", 0.0),
        )
        path = write_chrome(self.name, self.seed, env.recorder.chrome(os.getpid()), lane)
        out.notes.append(f"trace: {path}")
        self.teardown(env)


WORKLOADS = {cls.name: cls for cls in (ServeHot, AnalyticCold, WriteMix)}
