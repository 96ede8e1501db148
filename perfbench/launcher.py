"""Start ``hrms-serve`` with its default settings, optionally traced.

    python3 perfbench/launcher.py STORE [TRACE_FILE]

With a trace file, the benchmark's wrappers are installed before the
server starts, and the spans are written to TRACE_FILE once the server
has stopped (SIGTERM or SIGINT stops it in order).  Only the store
directory and an ephemeral port are set; everything else is the
service's default (thread backend, automatic worker count, tracing on).
"""

from __future__ import annotations

import sys
from pathlib import Path

from common import require_source


def main(argv: list[str]) -> int:
    store = argv[0]
    trace_file = Path(argv[1]) if len(argv) > 1 else None
    require_source()
    spans = None
    if trace_file is not None:
        import tracer

        spans = tracer.install()
    from repro.service.cli import serve_main

    try:
        return serve_main(["--store", store, "--port", "0"])
    finally:
        if spans is not None:
            spans.uninstall()
            spans.save(trace_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
