"""A window that fails commits nothing.

With ``uncached_policy="error"`` a window asking for a file no server caches
makes :meth:`CacheNetworkSession.serve` raise
:class:`~repro.exceptions.NoReplicaError`.  The error fires in the precompute,
before any RNG draw or load bump, so the failed window must leave the
session's state — fingerprint, window count, loads — exactly as it was, and
the next good window must decide exactly what a session that never saw the
bad window decides.

The same holds for the micro-batch entry points the dispatch service drives:
``dispatch_batch`` skips the uncached policy, so the uncached file reaches
the engine itself, on static sessions and on queueing sessions of every
engine.

Each streaming engine runs on a small shape (25 servers, 12-request
windows).  On static sessions the ``kernel`` engine also runs on a large one
(``-large`` ids): a network and windows at the routing thresholds of
:mod:`repro.kernels.engine`, where its sampled d-choice commits take the
speculative rounds instead of the scalar loop, so both commit paths stay
pinned.  The queueing event loop has one commit path, so it runs small only.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import pytest

from repro.backends.registry import available_engines
from repro.catalog.library import FileLibrary
from repro.exceptions import NoReplicaError
from repro.kernels.engine import SPECULATE_MIN_NODES, SPECULATE_MIN_WINDOW
from repro.placement.proportional import ProportionalPlacement
from repro.session import CacheNetworkSession
from repro.session.queueing import open_queueing_session
from repro.strategies.hybrid import ThresholdHybridStrategy
from repro.strategies.least_loaded_in_ball import LeastLoadedInBallStrategy
from repro.strategies.nearest_replica import NearestReplicaStrategy
from repro.strategies.proximity_two_choice import ProximityTwoChoiceStrategy
from repro.strategies.random_replica import RandomReplicaStrategy
from repro.topology.torus import Torus2D
from repro.workload.arrivals import PoissonArrivalProcess
from repro.workload.request import RequestBatch

SEED = 611


class Shape(NamedTuple):
    """Network and window size of one case; ``n * M < K`` leaves files uncached."""

    nodes: int
    files: int
    size: int


SMALL = Shape(25, 60, 12)
#: The smallest square torus at the node threshold, windows at the window one.
_SIDE = math.isqrt(SPECULATE_MIN_NODES - 1) + 1
LARGE = Shape(_SIDE * _SIDE, 3 * _SIDE * _SIDE, SPECULATE_MIN_WINDOW)


def _small(engines):
    return [pytest.param(name, SMALL, id=name) for name in engines]


STRATEGIES = {
    "two_choice_constrained": lambda: ProximityTwoChoiceStrategy(radius=2),
    "two_choice_unconstrained": lambda: ProximityTwoChoiceStrategy(radius=np.inf),
    "least_loaded": lambda: LeastLoadedInBallStrategy(radius=2),
    "hybrid": lambda: ThresholdHybridStrategy(radius=2, imbalance_threshold=1.0),
    "random_replica": lambda: RandomReplicaStrategy(radius=2),
    "nearest_replica": lambda: NearestReplicaStrategy(),
}

#: Every engine that can serve windows (the reference engine is one-shot),
#: plus ``kernel`` on the large shape.
ENGINES = _small(
    [name for name in available_engines("assignment") if name != "reference"]
) + [pytest.param("kernel", LARGE, id="kernel-large")]

#: Every queueing engine: each checks the window's files before it drains a
#: departure, moves the clock or draws from a stream.
QUEUEING_ENGINES = _small(available_engines("queueing"))


def _session(make_strategy, engine, shape):
    return CacheNetworkSession(
        topology=Torus2D(shape.nodes),
        library=FileLibrary(shape.files),
        placement=ProportionalPlacement(2),
        strategy=make_strategy().with_engine(engine),
        seed=SEED,
        uncached_policy="error",
    )


def _window(session, origins, files):
    return RequestBatch(
        origins=np.asarray(origins, dtype=np.int64),
        files=np.asarray(files, dtype=np.int64),
        num_nodes=session.topology.n,
        num_files=session.library.num_files,
    )


def _good_windows(session, count, size, seed):
    """``count`` windows of cached files only, drawn from a private stream."""
    n = session.topology.n
    cached = np.setdiff1d(
        np.arange(session.library.num_files), session.cache.uncached_files()
    )
    rng = np.random.default_rng(seed)
    return [
        _window(session, rng.integers(0, n, size), rng.choice(cached, size))
        for _ in range(count)
    ]


def _bad_window(session, good):
    """``good`` with one request redirected to an uncached file mid-window."""
    uncached = session.cache.uncached_files()
    assert uncached.size > 0
    files = good.files.copy()
    files[files.size // 2] = uncached[0]
    return _window(session, good.origins, files)


def _assert_same_decisions(a, b):
    np.testing.assert_array_equal(a.servers, b.servers)
    np.testing.assert_array_equal(a.distances, b.distances)
    np.testing.assert_array_equal(a.fallback_mask, b.fallback_mask)


@pytest.mark.parametrize("engine, shape", ENGINES)
@pytest.mark.parametrize("strategy", STRATEGIES.keys())
@pytest.mark.parametrize("served_before", [0, 2], ids=["first-window", "mid-stream"])
def test_failed_window_commits_nothing(strategy, engine, shape, served_before):
    session = _session(STRATEGIES[strategy], engine, shape)
    clean = _session(STRATEGIES[strategy], engine, shape)
    windows = _good_windows(session, served_before + 2, shape.size, seed=served_before)
    for window in windows[:served_before]:
        _assert_same_decisions(session.serve(window).assignment, clean.serve(window).assignment)

    digest = session.state_digest()
    loads = session.loads()
    num_windows = session.num_windows
    with pytest.raises(NoReplicaError):
        session.serve(_bad_window(session, windows[served_before]))
    assert session.state_digest() == digest
    assert session.num_windows == num_windows
    np.testing.assert_array_equal(session.loads(), loads)

    for window in windows[served_before:]:
        _assert_same_decisions(session.serve(window).assignment, clean.serve(window).assignment)
    assert session.state_digest() == clean.state_digest()


@pytest.mark.parametrize("engine, shape", ENGINES)
@pytest.mark.parametrize("strategy", STRATEGIES.keys())
@pytest.mark.parametrize("served_before", [0, 2], ids=["first-window", "mid-stream"])
def test_failed_dispatch_batch_commits_nothing(strategy, engine, shape, served_before):
    session = _session(STRATEGIES[strategy], engine, shape)
    clean = _session(STRATEGIES[strategy], engine, shape)
    windows = _good_windows(session, served_before + 2, shape.size, seed=served_before)
    for window in windows[:served_before]:
        got = session.dispatch_batch(window.origins, window.files)
        _assert_same_decisions(got, clean.dispatch_batch(window.origins, window.files))

    digest = session.state_digest()
    num_windows = session.num_windows
    bad = _bad_window(session, windows[served_before])
    with pytest.raises(NoReplicaError):
        session.dispatch_batch(bad.origins, bad.files)
    assert session.state_digest() == digest
    assert session.num_windows == num_windows

    for window in windows[served_before:]:
        got = session.dispatch_batch(window.origins, window.files)
        _assert_same_decisions(got, clean.dispatch_batch(window.origins, window.files))
    assert session.state_digest() == clean.state_digest()


def _queueing_session(engine, shape):
    return open_queueing_session(
        Torus2D(shape.nodes),
        FileLibrary(shape.files),
        ProportionalPlacement(2),
        PoissonArrivalProcess(rate_per_node=0.8),
        seed=SEED,
        service_rate=1.0,
        radius=2.0,
        engine=engine,
    )


@pytest.mark.parametrize("engine, shape", QUEUEING_ENGINES)
@pytest.mark.parametrize("position", ["head", "middle", "tail"])
@pytest.mark.parametrize("served_before", [0, 2], ids=["first-window", "mid-stream"])
def test_failed_queueing_dispatch_commits_nothing(engine, shape, position, served_before):
    session = _queueing_session(engine, shape)
    clean = _queueing_session(engine, shape)
    uncached = session.cache.uncached_files()
    assert uncached.size > 0
    cached = np.setdiff1d(np.arange(shape.files), uncached)
    rng = np.random.default_rng(served_before)
    size = shape.size
    batches = []
    for index in range(served_before + 2):
        times = index + 0.05 * np.arange(1, size + 1)
        batches.append(
            (rng.integers(0, shape.nodes, size), rng.choice(cached, size), times)
        )

    def dispatch(target, batch):
        origins, files, times = batch
        return target.dispatch_batch(origins, files, times.copy())

    for batch in batches[:served_before]:
        for got, expected in zip(dispatch(session, batch), dispatch(clean, batch)):
            np.testing.assert_array_equal(got, expected)

    digest = session.state_digest()
    served_until = session.served_until
    num_windows = session.num_windows
    origins, files, times = batches[served_before]
    files = files.copy()
    files[{"head": 0, "middle": size // 2, "tail": size - 1}[position]] = uncached[0]
    with pytest.raises(NoReplicaError):
        session.dispatch_batch(origins, files, times.copy())
    assert session.state_digest() == digest
    assert session.served_until == served_until
    assert session.num_windows == num_windows

    for batch in batches[served_before:]:
        for got, expected in zip(dispatch(session, batch), dispatch(clean, batch)):
            np.testing.assert_array_equal(got, expected)
    assert session.state_digest() == clean.state_digest()
