"""Where the speculative commit and the numpy precompute start to pay.

The sweep behind the window routing of the ``kernel`` engine.  Each routed
choice is between bit-identical paths, so it is a cost one, made from
constants in :mod:`repro.kernels.engine`.  Two families of measurements:

**commit** — the commit alone, the scalar loop (:mod:`repro.kernels.commit`)
against the speculate-and-repair rounds (:mod:`repro.kernels.batch_commit`),
over a grid of network sizes ``n`` and window sizes ``m``, for each routed
commit:

* ``of_sample`` — Strategy II, d = 2 distinct candidates per request;
* ``hybrid`` — the threshold hybrid, d = 2 sampled candidates, slack 1.

Each path serves a run of equal windows into its own persistent
:class:`~repro.kernels.loads.LoadVector` (as a session would), after one
untimed warm-up window; the best of three alternating repeats is kept.  From
the grid it derives two constants:

* per ``n``, the crossover window is the smallest grid ``m`` from which the
  speculative rounds win at every larger grid ``m`` in both families;
* ``SPECULATE_MIN_NODES`` is the smallest grid ``n`` from which every larger
  grid ``n`` has a crossover;
* ``SPECULATE_MIN_WINDOW`` is the largest crossover at those ``n``, so every
  routed grid point is one where speculation won.

**window** — a whole window through a d-choice entry point, both ways: the
per-request small-window helper against the numpy group-index helper of
:mod:`repro.kernels.engine` (Strategy II d = 2, the threshold hybrid d = 2
slack 1, the omniscient scan), at ``n`` in {100, 4096, 65536} and ``m`` from
1 to 128.  The store is either warm (every key of every window stored) or
half cold (a fresh store holding every other key of the window), and each
path serves its windows into its own load vector and stream pair; the best of
five alternating repeats is kept.  ``VECTORISE_MIN_WINDOW`` is the smallest
grid ``m`` from which the numpy path wins at every larger grid ``m`` in the
geometric mean of its time ratio over ``n`` and entry point on the warm
store — the state a session's store is in after its first windows.  The
half-cold rows show what the choice costs while a store fills: there a miss
costs one distance pass per file on both paths, so the per-request path
keeps up to larger windows (at n = 65536 still at m = 128).

Usage (about five minutes for ``commit`` and two for ``window`` on a 2-core
host)::

    PYTHONPATH=src python benchmarks/sweep_commit_crossover.py [commit] [window]

Without arguments both families run.  The families measured are printed and
(re)written into ``benchmarks/results/commit_crossover.json``; the other
family's keys in that file are kept as they are.
``tests/test_kernels_batch_commit.py`` checks that the constants in
:mod:`repro.kernels.engine` match the values recorded there.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from _bench_utils import host_header, results_dir

from repro.catalog.library import FileLibrary
from repro.kernels import batch_commit, commit, engine
from repro.kernels.group_index import GroupStore, build_group_index
from repro.kernels.loads import LoadVector
from repro.placement.proportional import ProportionalPlacement
from repro.rng import spawn_generators
from repro.strategies.base import FallbackPolicy
from repro.topology.torus import Torus2D
from repro.workload.request import RequestBatch

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


def sweep_commit() -> dict:
    """The commit family: its grid and the two ``SPECULATE_MIN_*`` values."""
    grid = [measure(f, n, m) for n in NODES for m in WINDOWS for f in FAMILIES]
    min_nodes, min_window = derive(grid)
    lines = ["speculative / scalar commit time (< 1: speculation wins)"]
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
    return {
        "host": host_header(),
        "SPECULATE_MIN_NODES": min_nodes,
        "SPECULATE_MIN_WINDOW": min_window,
        "grid": grid,
    }


# ------------------------------------------------------------ window family
WINDOW_NODES = (100, 4096, 65536)
WINDOW_SIZES = (1, 2, 4, 8, 16, 32, 64, 128)
STORES = ("warm", "half_cold")
#: ``(files, cache slots, radius)`` per ``n``: the dispatch service's shape
#: at n = 100, the benchmark's static shape above it.
SHAPES = {100: (40, 4, 3.0), 4096: (128, 8, 8.0), 65536: (128, 8, 8.0)}
#: Entry point -> (small-window helper, numpy helper, their parameters).
ENTRIES = {
    "two_choice": (
        engine._two_choice_scalar,
        engine._two_choice_vectorised,
        {"num_choices": 2},
    ),
    "hybrid": (
        engine._threshold_hybrid_scalar,
        engine._threshold_hybrid_vectorised,
        {"num_choices": 2, "threshold": 1.0},
    ),
    "least_loaded": (
        engine._least_loaded_scalar,
        engine._least_loaded_vectorised,
        {},
    ),
}
#: Requests timed per grid point and repeat (at least four windows), and
#: alternating repeats per grid point (the best is kept).
WINDOW_REQUESTS = 1024
WINDOW_REPEATS = 5


def _network(n: int):
    files, slots, radius = SHAPES[n]
    topology = Torus2D(n)
    cache = ProportionalPlacement(slots).place(topology, FileLibrary(files), seed=SEED)
    return topology, cache, radius


def _windows(topology, cache, m: int, count: int, rng) -> list[RequestBatch]:
    cached = np.setdiff1d(np.arange(cache.num_files), cache.uncached_files())
    return [
        RequestBatch(
            origins=rng.integers(0, topology.n, size=m),
            files=rng.choice(cached, size=m),
            num_nodes=topology.n,
            num_files=cache.num_files,
        )
        for _ in range(count)
    ]


def _stores(topology, cache, radius, windows, state: str, shared: GroupStore):
    """One store per window: the shared warm one, or a fresh half-cold one."""
    if state == "warm":
        return [shared] * len(windows)
    stores = []
    for window in windows:
        store = GroupStore()
        build_group_index(
            topology,
            cache,
            window.subset(np.arange(0, window.num_requests, 2)),
            radius=radius,
            fallback=FallbackPolicy.NEAREST,
            store=store,
        )
        stores.append(store)
    return stores


def _serve_windows(helper, topology, cache, radius, params, windows, stores, state):
    loads, streams = state
    start = time.perf_counter()
    for window, store in zip(windows, stores):
        helper(
            topology,
            cache,
            window,
            None,
            radius=radius,
            fallback=FallbackPolicy.NEAREST,
            strategy_name="sweep",
            streams=streams,
            loads=loads,
            store=store,
            **params,
        )
    return time.perf_counter() - start


def measure_window(entry: str, network, n: int, m: int, state: str) -> dict:
    topology, cache, radius = network
    scalar_helper, numpy_helper, params = ENTRIES[entry]
    rng = np.random.default_rng([SEED, n, m])
    count = max(4, WINDOW_REQUESTS // m)
    windows = _windows(topology, cache, m, count, rng)
    shared = GroupStore()
    for window in windows:
        build_group_index(
            topology, cache, window, radius=radius,
            fallback=FallbackPolicy.NEAREST, store=shared,
        )
    paths = {
        name: (LoadVector(n), tuple(spawn_generators([SEED, n, m], 2)))
        for name in ("scalar", "vectorised")
    }
    best = {"scalar": np.inf, "vectorised": np.inf}
    for _ in range(WINDOW_REPEATS):
        for name, helper in (("scalar", scalar_helper), ("vectorised", numpy_helper)):
            stores = _stores(topology, cache, radius, windows, state, shared)
            elapsed = _serve_windows(
                helper, topology, cache, radius, params, windows, stores, paths[name]
            )
            best[name] = min(best[name], elapsed)
    per = 1e6 / (count * m)
    return {
        "entry": entry,
        "n": n,
        "m": m,
        "store": state,
        "scalar_us": best["scalar"] * per,
        "vectorised_us": best["vectorised"] * per,
        "ratio": best["vectorised"] / best["scalar"],
    }


def _mean_ratio(grid: list[dict], m: int, state: str) -> float:
    """Geometric mean of the numpy / per-request time ratio at window ``m``."""
    logs = [np.log(p["ratio"]) for p in grid if p["m"] == m and p["store"] == state]
    return float(np.exp(np.mean(logs)))


def derive_window(grid: list[dict]) -> int | None:
    """``VECTORISE_MIN_WINDOW`` from the window grid (``None``: never wins)."""
    for index, m in enumerate(WINDOW_SIZES):
        if all(
            _mean_ratio(grid, later, "warm") < 1.0 for later in WINDOW_SIZES[index:]
        ):
            return m
    return None


def sweep_window() -> dict:
    """The window family: its grid and ``VECTORISE_MIN_WINDOW``."""
    grid = []
    for n in WINDOW_NODES:
        network = _network(n)
        for m in WINDOW_SIZES:
            for entry in ENTRIES:
                for state in STORES:
                    grid.append(measure_window(entry, network, n, m, state))
    min_window = derive_window(grid)
    lines = ["numpy / per-request window time (< 1: the numpy path wins)"]
    lines.append("n \\ m".rjust(29) + "".join(f"{m:>7}" for m in WINDOW_SIZES))
    for entry in ENTRIES:
        for state in STORES:
            for n in WINDOW_NODES:
                row = [
                    p for p in grid
                    if p["entry"] == entry and p["store"] == state and p["n"] == n
                ]
                lines.append(
                    f"{entry:>12} {state:>9} {n:>5}"
                    + "".join(f"{p['ratio']:7.2f}" for p in row)
                )
    for state in STORES:
        lines.append(
            f"{'geometric mean':>18} {state:>9}"
            + "".join(f"{_mean_ratio(grid, m, state):7.2f}" for m in WINDOW_SIZES)
        )
    lines.append(f"VECTORISE_MIN_WINDOW = {min_window}")
    print("\n".join(lines))
    return {
        "window_host": host_header(),
        "VECTORISE_MIN_WINDOW": min_window,
        "window_grid": grid,
    }


def main(argv: list[str]) -> None:
    families = argv or ["commit", "window"]
    unknown = set(families) - {"commit", "window"}
    if unknown:
        raise SystemExit(f"unknown families {sorted(unknown)}; use commit and/or window")
    path = results_dir() / "commit_crossover.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    if "commit" in families:
        record.update(sweep_commit())
    if "window" in families:
        record.update(sweep_window())
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
