"""Launch ``repro serve`` for the benchmark, optionally with timing shims.

Usage: ``python perfbench/serve.py [--spans PATH] serve <repro serve flags>``.
With ``--spans`` the shims of :mod:`tracing` are installed before the CLI
builds its session, recording starts at once, and every span is written to
PATH when the server exits (SIGINT shuts it down gracefully).
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    tracer = None
    if spans_path is not None:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.active = True
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        if tracer is not None:
            tracer.active = False
            tracer.dump(spans_path, {})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
