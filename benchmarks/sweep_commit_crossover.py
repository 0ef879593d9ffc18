"""Where the speculative commit starts to pay: the sweep behind the routing.

The ``kernel`` engine commits a d-choice window either through the scalar
loop (:mod:`repro.kernels.commit`) or through the speculate-and-repair rounds
(:mod:`repro.kernels.batch_commit`); both are bit-identical, so the choice is
a cost one, made from two constants in :mod:`repro.kernels.engine`
(``SPECULATE_MIN_NODES`` and ``SPECULATE_MIN_WINDOW``).  This script measures
the commit alone, both ways, over a grid of network sizes ``n`` and window
sizes ``m``, for each of the two routed commit families:

* ``of_sample`` — Strategy II, d = 2 distinct candidates per request;
* ``hybrid`` — the threshold hybrid, d = 2 sampled candidates, slack 1.

Each path serves a run of equal windows into its own persistent
:class:`~repro.kernels.loads.LoadVector` (as a session would), after one
untimed warm-up window; the best of three alternating repeats is kept.  From
the grid it derives the two constants:

* per ``n``, the crossover window is the smallest grid ``m`` from which the
  speculative rounds win at every larger grid ``m`` in both families;
* ``SPECULATE_MIN_NODES`` is the smallest grid ``n`` from which every larger
  grid ``n`` has a crossover;
* ``SPECULATE_MIN_WINDOW`` is the largest crossover at those ``n``, so every
  routed grid point is one where speculation won.

Usage (about five minutes on a 2-core host)::

    PYTHONPATH=src python benchmarks/sweep_commit_crossover.py

Prints the table and writes ``benchmarks/results/commit_crossover.json``;
``tests/test_kernels_batch_commit.py`` checks that the constants in
:mod:`repro.kernels.engine` match the values recorded there.
"""

from __future__ import annotations

import json
import time

import numpy as np

from _bench_utils import host_header, results_dir

from repro.kernels import batch_commit, commit
from repro.kernels.loads import LoadVector

NODES = (100, 1024, 4096, 16384, 65536)
WINDOWS = (2, 8, 32, 128, 256, 512, 1024, 2048, 8192, 65536)
FAMILIES = ("of_sample", "hybrid")
#: Requests served per grid point (at least one window).
REQUESTS_PER_POINT = 65536
SEED = 23


def _window_args(family: str, n: int, m: int, rng):
    """One window's commit arguments, minus ``num_nodes`` and the loads."""
    first = rng.integers(0, n, size=m, dtype=np.int64)
    second = (first + rng.integers(1, max(2, n // 2), size=m)) % n
    nodes = np.stack([first, second], axis=1).ravel()
    uniforms = rng.random(m)
    indptr = 2 * np.arange(m + 1, dtype=np.int64)
    if family == "of_sample":
        return (nodes, np.full(m, 2, dtype=np.int64), indptr, uniforms)
    dists = rng.integers(0, 9, size=nodes.size, dtype=np.int64)
    return (nodes, dists, indptr, 1.0, uniforms)


def _serve(module, family, n, windows, loads) -> float:
    fn = getattr(module, {
        "of_sample": "commit_least_loaded_of_sample",
        "hybrid": "commit_threshold_hybrid",
    }[family])
    start = time.perf_counter()
    for args in windows:
        fn(n, *args, loads)
    return time.perf_counter() - start


def measure(family: str, n: int, m: int) -> dict:
    rng = np.random.default_rng([SEED, n, m])
    count = max(1, REQUESTS_PER_POINT // m)
    windows = [_window_args(family, n, m, rng) for _ in range(count + 1)]
    base = rng.poisson(2.0, size=n).astype(np.int64)
    scalar_loads = LoadVector(array=base)
    spec_loads = LoadVector(array=base)
    # Warm-up window: settles each vector in its own view (list / array).
    _serve(commit, family, n, windows[:1], scalar_loads)
    _serve(batch_commit, family, n, windows[:1], spec_loads)
    scalar = spec = np.inf
    for _ in range(3):
        scalar = min(scalar, _serve(commit, family, n, windows[1:], scalar_loads))
        spec = min(spec, _serve(batch_commit, family, n, windows[1:], spec_loads))
    per = 1e6 / (count * m)
    return {
        "family": family,
        "n": n,
        "m": m,
        "scalar_us": scalar * per,
        "speculative_us": spec * per,
        "ratio": spec / scalar,
    }


def derive(grid: list[dict]) -> tuple[int | None, int | None]:
    """``(SPECULATE_MIN_NODES, SPECULATE_MIN_WINDOW)`` from the grid."""
    wins = {(p["family"], p["n"], p["m"]): p["ratio"] < 1.0 for p in grid}
    crossover = {}
    for n in NODES:
        crossover[n] = None
        for index, m in enumerate(WINDOWS):
            if all(wins[f, n, later] for f in FAMILIES for later in WINDOWS[index:]):
                crossover[n] = m
                break
    min_nodes = None
    for n in reversed(NODES):
        if crossover[n] is None:
            break
        min_nodes = n
    if min_nodes is None:
        return None, None
    return min_nodes, max(crossover[n] for n in NODES if n >= min_nodes)


def main() -> None:
    grid = [measure(f, n, m) for n in NODES for m in WINDOWS for f in FAMILIES]
    min_nodes, min_window = derive(grid)
    lines = [host_header(), "speculative / scalar commit time (< 1: speculation wins)"]
    lines.append("n \\ m".rjust(14) + "".join(f"{m:>8}" for m in WINDOWS))
    for family in FAMILIES:
        for n in NODES:
            row = [p for p in grid if p["family"] == family and p["n"] == n]
            lines.append(
                f"{family:>9} {n:>5}" + "".join(f"{p['ratio']:8.2f}" for p in row)
            )
    lines.append(f"SPECULATE_MIN_NODES = {min_nodes}")
    lines.append(f"SPECULATE_MIN_WINDOW = {min_window}")
    print("\n".join(lines))
    record = {
        "host": host_header(),
        "SPECULATE_MIN_NODES": min_nodes,
        "SPECULATE_MIN_WINDOW": min_window,
        "grid": grid,
    }
    path = results_dir() / "commit_crossover.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
