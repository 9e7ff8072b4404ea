"""Shared plumbing: the server subprocess, percentiles, metric scraping,
and the memoized reference evaluator the correctness checks compare with.

Nothing here imports :mod:`repro` at module level, so ``run.py`` can fail
cleanly (no result line) when the package sources are missing.
"""

from __future__ import annotations

import copy
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch stores and port files; removed by each run.
WORK = ROOT / ".perfbench_work"
#: Chrome traces written by ``--trace 1`` runs; kept for inspection.
OUT = ROOT / ".perfbench_out"

#: How many times one run sets its workload up (``setup_s`` is the median).
SETUP_REPEATS = 3


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """``(value, percentile)``: p99, or the highest percentile that still
    has at least ten samples beyond it when there are fewer than 1000."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = min(math.ceil(0.99 * n) - 1, n - 11)
    rank = max(rank, 0)
    return ordered[rank], 100.0 * (rank + 1) / n


def median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


# ----------------------------------------------------------------------
# Prometheus text scraping
# ----------------------------------------------------------------------

_LINE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


def scrape(text: str) -> dict[str, float]:
    """Sum every sample of each series name over its labels.

    Histogram ``_sum``/``_count`` series come through under those names;
    bucket lines are skipped.
    """
    out: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _LINE.match(line)
        if match is None or match.group(1).endswith("_bucket"):
            continue
        out[match.group(1)] = out.get(match.group(1), 0.0) + float(match.group(3))
    return out


def scrape_labeled(text: str, name: str, **labels: str) -> float:
    """One series' value summed over samples carrying ``labels``."""
    total = 0.0
    for line in text.splitlines():
        match = _LINE.match(line)
        if match is None or match.group(1) != name:
            continue
        label_text = match.group(2) or ""
        if all(f'{k}="{v}"' in label_text for k, v in labels.items()):
            total += float(match.group(3))
    return total


def histogram_mean_ms(metrics: dict[str, float], name: str) -> float:
    count = metrics.get(f"{name}_count", 0.0)
    return 1e3 * metrics.get(f"{name}_sum", 0.0) / count if count else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# the server subprocess
# ----------------------------------------------------------------------


class Server:
    """``repro serve --db STORE`` in its own process (own interpreter, own GIL).

    With ``spans_out`` the process runs through ``traced_serve.py``, which
    installs the layer wrappers before handing over to ``repro.cli.main``
    and writes the collected spans to ``spans_out`` on ``SIGUSR1``.
    """

    #: Processes not yet stopped, so a failing run can kill them all.
    live: set["Server"] = set()

    def __init__(self, store: Path, spans_out: Path | None = None) -> None:
        self.store = store
        self.spans_out = spans_out
        port_file = store.with_name(store.name + ".port")
        port_file.unlink(missing_ok=True)
        args = [
            "serve",
            "--db",
            str(store),
            "--port-file",
            str(port_file),
            "--admin-port",
            "-1",
            "--max-concurrency",
            "2",
        ]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro.cli", *args]
        else:
            cmd = [
                sys.executable,
                str(BENCH_DIR / "traced_serve.py"),
                str(spans_out),
                *args,
            ]
        self.log = store.with_name(store.name + ".log")
        with self.log.open("ab") as log:
            self.proc = subprocess.Popen(
                cmd,
                env=child_env(),
                cwd=str(ROOT),
                stdout=subprocess.DEVNULL,
                stderr=log,
            )
        Server.live.add(self)
        deadline = time.monotonic() + 60.0
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    "server exited early: " + self.log.read_text()[-2000:]
                )
            text = port_file.read_text() if port_file.exists() else ""
            if text.strip():
                self.port = int(text)
                break
            if time.monotonic() > deadline:
                self.kill()
                raise RuntimeError("server did not start within 60 s")
            time.sleep(0.005)

    def client(self):
        from repro.server import ServerClient

        return ServerClient("127.0.0.1", self.port, timeout=120.0)

    def peak_rss_mb(self) -> float:
        """Peak resident set of the server process."""
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Graceful SIGTERM stop (drain, close the store)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
        Server.live.discard(self)

    def kill(self) -> None:
        """``kill -9``: no drain, no checkpoint, no WAL close."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=60)
        Server.live.discard(self)


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of process ``pid`` (its peak resident set), in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def reset_peak_rss() -> None:
    """Reset this process's ``VmHWM`` to its current resident set."""
    Path("/proc/self/clear_refs").write_text("5")


def wait_answering(server: Server, text: str):
    """Connect and run ``text`` until the server answers; returns the client."""
    from repro.server.protocol import ServerError

    deadline = time.monotonic() + 60.0
    while True:
        try:
            client = server.client()
        except ServerError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.002)
            continue
        client.query(text)
        return client


# ----------------------------------------------------------------------
# reference evaluation
# ----------------------------------------------------------------------


class Reference:
    """The paper's semantics (``Expr.evaluate`` over ``core/operators``),
    memoized per subexpression so recurring operands are evaluated once.

    Each node is evaluated by its own reference ``_evaluate`` with every
    child replaced by a :class:`Literal` of the child's memoized result;
    the literal keeps the child's head/tail classes so shorthand
    association resolution sees what the original tree would.
    """

    def __init__(self, graph) -> None:
        self.graph = graph
        self._memo: dict = {}

    def evaluate(self, text_or_expr):
        from repro.core.expression import Expr, Literal
        from repro.oql import compile_oql

        expr = (
            text_or_expr
            if isinstance(text_or_expr, Expr)
            else compile_oql(text_or_expr, self.graph.schema)
        )
        hit = self._memo.get(expr)
        if hit is not None:
            return hit
        node = copy.copy(expr)
        for attr in ("left", "right", "operand"):
            child = getattr(expr, attr, None)
            if isinstance(child, Expr):
                setattr(
                    node,
                    attr,
                    Literal(
                        self.evaluate(child),
                        head=child.head_class,
                        tail=child.tail_class,
                    ),
                )
        result = node.evaluate(self.graph)
        self._memo[expr] = result
        return result


def wire(patterns) -> list:
    """Patterns in the server's canonical wire order."""
    from repro.server.protocol import pattern_to_wire

    return sorted(
        (pattern_to_wire(p) for p in patterns),
        key=lambda p: (p["vertices"], p["edges"]),
    )

