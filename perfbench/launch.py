"""Run a ``repro`` CLI command with the benchmark's span wrappers installed.

Usage::

    python perfbench/launch.py TRACE_DIR serve --registry DIR --port 0

The wrappers go in first; the command then runs through ``repro.cli.main``,
the same entry point as ``python -m repro``.  Spans are written to
``TRACE_DIR`` when the process exits.
"""

import atexit
import sys

import tracer


def main(argv: list[str]) -> int:
    recorder = tracer.install(argv[0])
    atexit.register(recorder.flush)
    from repro.cli import main as cli_main

    return cli_main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
