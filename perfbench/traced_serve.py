"""``repro serve`` with the benchmark's layer wrappers installed.

Usage::

    python perfbench/traced_serve.py SPANS_OUT serve --db STORE [serve options]

Installs :func:`tracing.install` (server entry points included), then
hands over to ``repro.cli.main``.  A ``ping`` request arms the recorder
(the benchmark pings right before its measured window); ``SIGUSR1``
writes the summary and the kept request trees to ``SPANS_OUT`` as JSON
(written to a temporary name, then renamed).
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Recorder, install  # noqa: E402


def main() -> int:
    out = Path(sys.argv[1])
    recorder = Recorder()
    install(recorder, server=True)

    def dump(*_) -> None:
        recorder.armed = False
        document = {
            "summary": recorder.summary(),
            "events": recorder.chrome(pid=os.getpid()),
        }
        tmp = out.with_name(out.name + ".tmp")
        tmp.write_text(json.dumps(document))
        os.replace(tmp, out)

    signal.signal(signal.SIGUSR1, dump)
    from repro.cli import main as cli_main

    return cli_main(sys.argv[2:])


if __name__ == "__main__":
    raise SystemExit(main())
