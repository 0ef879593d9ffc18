"""Benchmark of the allocation stack: one command, four workloads.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``static-proximity``, ``static-unconstrained``, ``queueing`` and
``service`` (see ``workloads.WHY`` for why each exists).  Runs from the root
of a source checkout; the program is imported from ``src/``.

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it installs timing shims around the public calls of each layer
(:mod:`tracing`) and reports the per-layer metrics instead.  Either way the
outputs are checked, human-readable lines go first, and the last line of
standard output is the JSON record ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 0 only when a record was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def environment(workload: str) -> dict:
    """The header stamped on every record: what the numbers were measured on."""
    import numpy

    from repro.backends.registry import resolve_engine_name

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    family = "queueing" if workload == "queueing" else "assignment"
    return {
        "workload": workload,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": has_numba,
        "auto_engine": resolve_engine_name("auto", family),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    if args.workload not in workloads.WHY:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    header = environment(args.workload)
    print(f"# env {json.dumps(header)}")
    print(f"# why {workloads.WHY[args.workload]}")
    outcome = workloads.run(args.workload, args.seed, args.seconds, tracer)

    for line in outcome.info:
        print(f"# {line}")
    for name, ok, detail in outcome.checks:
        print(f"# check {name}: {'ok' if ok else 'FAILED'} - {detail}")
    print(f"# fail_ratio {outcome.failed / max(1, outcome.attempted):.6g}")

    # BENCHMARK.json is the one list of metric names and units.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if tracer is None:
        values, listed = outcome.metrics, spec["end_to_end"]
    else:
        import tracing

        values = tracing.reduce_spans(tracer.spans)
        values.update(outcome.per_layer)
        listed = spec["per_layer"]
        workloads.OUT.mkdir(exist_ok=True)
        tracer.dump(workloads.OUT / f"spans-{args.workload}-{args.seed}.json", header)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, entry in metrics.items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")

    correct = all(ok for _, ok, _ in outcome.checks) and outcome.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(outcome.attempted),
                "failed": int(outcome.failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
