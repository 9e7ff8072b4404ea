"""End-to-end benchmark of the A-algebra engine.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

Workloads: ``serve_hot``, ``analytic_cold``, ``write_mix`` (see
``workloads.py``).  ``--trace 0`` reports the end-to-end metrics of an
untraced run; ``--trace 1`` reports the per-layer metrics of a traced
replay and writes its Chrome trace under ``.perfbench_out/``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name → value and unit).  Every correctness
problem found is printed to standard error.

The benchmark runs the package from ``src/`` of the checkout it sits in;
without it, it exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC, WORK, Server  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument(
        "--workload", required=True, choices=("serve_hot", "analytic_cold", "write_mix")
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    # A terminated run still kills its servers and removes its stores.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        outcome = workload.run(args.seconds, bool(args.trace))
    finally:
        for server in list(Server.live):
            server.kill()
        shutil.rmtree(work, ignore_errors=True)
    for note in outcome.notes:
        print(f"# {note}")
    for problem in outcome.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not outcome.problems,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": outcome.metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
