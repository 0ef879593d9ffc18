"""Micro-benchmarks of the session layer's artifact reuse.

The session redesign promises that running many trials of one configuration
through :func:`~repro.simulation.multirun.run_trials` — one component build,
one shared :class:`~repro.session.artifacts.ArtifactCache` — beats rebuilding
everything per trial with :func:`~repro.simulation.engine.run_single_trial`.
The gate below enforces that on a multi-trial same-config point whose
placement is deterministic, so trials share the placed cache state *and* the
memoised group-index candidate rows.

All tests carry the ``bench_smoke`` marker so ``make bench-smoke`` exercises
the session code paths (and the reuse gate) without pytest-benchmark
calibration overhead.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.kernels import engine
from repro.kernels.loads import LoadVector
from repro.rng import spawn_generators, spawn_seeds
from repro.session import open_session
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import run_single_trial
from repro.simulation.multirun import run_trials
from repro.workload.request import RequestBatch

pytestmark = pytest.mark.bench_smoke

#: A same-config multi-trial point with a deterministic (partition) placement
#: and a proximity constraint, so both memoised artifact kinds matter: the
#: placement is placed once, and the Zipf-skewed request mix (``m`` large
#: relative to the hot ``(origin, file)`` universe) revisits most groups
#: across trials — measured ≈ 57% group-row hit rate from trial 2 on.
REUSE_CONFIG = SimulationConfig(
    num_nodes=1024,
    num_files=32,
    cache_size=8,
    topology="torus",
    popularity="zipf",
    popularity_params={"gamma": 1.3},
    placement="partition",
    strategy="proximity_two_choice",
    strategy_params={"radius": 8},
    num_requests=8192,
)
REUSE_TRIALS = 8
REUSE_SEED = 42


def test_bench_session_artifact_reuse_beats_rebuild(artifact_dir):
    """``run_trials`` with artifact reuse must beat the per-trial-rebuild path.

    Both paths run the exact same child seeds, so their per-trial results are
    asserted identical — the speedup cannot come from computing something
    different.  The gate is deliberately lenient (1.15×; measured ≈ 1.4×) to
    stay robust against scheduler noise on CI runners.
    """
    children = spawn_seeds(REUSE_SEED, REUSE_TRIALS)

    start = time.perf_counter()
    rebuilt = [run_single_trial(REUSE_CONFIG.as_dict(), child) for child in children]
    rebuild_time = time.perf_counter() - start

    start = time.perf_counter()
    shared = run_trials(REUSE_CONFIG, REUSE_TRIALS, REUSE_SEED)
    session_time = time.perf_counter() - start

    np.testing.assert_array_equal(
        shared.max_loads, np.asarray([r.max_load for r in rebuilt], dtype=np.float64)
    )
    np.testing.assert_allclose(
        shared.communication_costs,
        np.asarray([r.communication_cost for r in rebuilt], dtype=np.float64),
    )

    speedup = rebuild_time / session_time
    report = (
        f"run_trials artifact reuse @ {REUSE_CONFIG.describe()}, "
        f"trials={REUSE_TRIALS}\n"
        f"per-trial rebuild {rebuild_time:.3f}s\n"
        f"shared session    {session_time:.3f}s\n"
        f"speedup           {speedup:.2f}x\n"
    )
    print("\n" + report)
    (artifact_dir / "session_reuse.txt").write_text(report)
    assert speedup >= 1.15, (
        f"artifact reuse only {speedup:.2f}x faster than per-trial rebuild"
    )


def test_bench_session_group_store_warms_across_trials():
    """The shared group store must actually absorb work across trials."""
    from repro.simulation.engine import CacheNetworkSimulation

    simulation = CacheNetworkSimulation.from_config(REUSE_CONFIG)
    for child in spawn_seeds(REUSE_SEED, 3):
        simulation.run(child)
    stats = simulation.artifacts.stats()
    assert stats["placement_hits"] >= 2  # deterministic placement placed once
    assert stats["group_hits"] > 0


def test_bench_session_windowed_serving(benchmark):
    """Track the cost of streaming a workload through one warm session."""
    session = open_session(REUSE_CONFIG, seed=REUSE_SEED)
    batch = session.generate_workload()
    windows = [
        batch.subset(np.arange(start, min(start + 512, batch.num_requests)))
        for start in range(0, batch.num_requests, 512)
    ]

    def serve_all():
        session.reset()
        for window in windows:
            session.serve(window, resolve_uncached=False)

    serve_all()  # warm the group store before timing
    benchmark(serve_all)


#: The dispatch service's shape (``repro serve`` in the benchmark's
#: ``service`` workload): 2-request windows at n = 100.
SERVICE_CONFIG = SimulationConfig(
    num_nodes=100,
    num_files=40,
    cache_size=4,
    topology="torus",
    popularity="zipf",
    popularity_params={"gamma": 0.8},
    placement="proportional",
    strategy="proximity_two_choice",
    strategy_params={"radius": 3, "num_choices": 2},
)
TINY_WINDOWS = 2000


def test_bench_small_window_path_beats_group_index():
    """Warm 2-request windows: the routed path must be >= 2x the numpy one.

    Both paths serve the same windows against the same warm group store,
    each into its own load vector and stream pair, and must decide the
    same; the best of three alternating repeats is compared (measured
    about 3x on a 2-core host).  Nothing is written: the gate is the
    record.
    """
    session = open_session(SERVICE_CONFIG, seed=REUSE_SEED)
    topology, cache = session.topology, session.cache
    strategy = session.strategy
    rng = np.random.default_rng(REUSE_SEED)
    cached = np.setdiff1d(np.arange(cache.num_files), cache.uncached_files())
    windows = [
        RequestBatch(
            origins=rng.integers(0, topology.n, size=2),
            files=rng.choice(cached, size=2),
            num_nodes=topology.n,
            num_files=cache.num_files,
        )
        for _ in range(TINY_WINDOWS)
    ]
    store = session.artifacts.group_store(
        topology, cache, strategy.store_signature(topology)
    )
    params = dict(
        radius=strategy.radius,
        num_choices=strategy.num_choices,
        fallback=strategy.fallback,
        strategy_name=strategy.name,
        store=store,
    )
    paths = {
        "routed": engine.two_choice_kernel,
        "vectorised": engine._two_choice_vectorised,
    }

    def serve(fn):
        loads = LoadVector(topology.n)
        streams = tuple(spawn_generators(REUSE_SEED, 2))
        start = time.perf_counter()
        servers = [
            fn(topology, cache, w, None, streams=streams, loads=loads, **params).servers
            for w in windows
        ]
        return time.perf_counter() - start, np.concatenate(servers)

    serve(paths["vectorised"])  # warm the store before timing
    best = {name: np.inf for name in paths}
    decided = {}
    for _ in range(3):
        for name, fn in paths.items():
            elapsed, decided[name] = serve(fn)
            best[name] = min(best[name], elapsed)
    np.testing.assert_array_equal(decided["routed"], decided["vectorised"])
    speedup = best["vectorised"] / best["routed"]
    per = 1e6 / TINY_WINDOWS
    print(
        f"\nwarm 2-request windows @ n=100: routed {best['routed'] * per:.1f} us, "
        f"vectorised {best['vectorised'] * per:.1f} us, speedup {speedup:.2f}x"
    )
    assert speedup >= 2.0, f"small-window path only {speedup:.2f}x the numpy path"
