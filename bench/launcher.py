"""Traced stand-in for ``python -m tunnelnoise.cli`` in one fresh process.

Usage: ``python launcher.py TRACE_JSON -- ARGV...``

Times the import of ``tunnelnoise.cli``, installs the span tracer, runs
``cli.main(ARGV)`` and writes the span times, the per-layer exception
counts and the import time to TRACE_JSON.  The CLI's stdout and exit
code are passed through unchanged; an uncaught exception is written to
the trace file and re-raised, so the process ends the same way the
plain CLI does.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def main() -> int:
    trace_path, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: launcher.py TRACE_JSON -- ARGV...")
    t0 = perf_counter()
    import tunnelnoise.cli as cli

    import_s = perf_counter() - t0
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    code = None
    try:
        code = cli.main(argv)
        return code
    finally:
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump({
                "import_s": import_s,
                "exit": code,
                **tracer.times(),
                "failed": tracer.failed,
            }, handle)


if __name__ == "__main__":
    sys.exit(main())
