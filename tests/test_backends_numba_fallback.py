"""Differential tests of the numba backend's operation tables, numba or not.

Without numba installed the backend's ``@njit`` decorator degrades to a
no-op, so the *logic* of the compiled code — the static commit loops (the
loop bodies of :mod:`repro.kernels.commit`, fed arrays instead of lists),
the array-based departure heap and the precompute kernels — runs as plain
Python.  These tests register that operation table as a low-priority
scratch engine and hold it to the same bit-identity obligation as any other
backend, so the array paths are verified on every environment; where numba *is* importable the same table is
additionally exercised compiled through the regular differential suites
(the registry lists ``numba`` there and they parametrise from it).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import registry
from repro.backends.builtin import _assignment_numba_fns, _queueing_numba_fns
from repro.backends.registry import register_engine
from repro.catalog.library import FileLibrary
from repro.placement.partition import PartitionPlacement
from repro.placement.proportional import ProportionalPlacement
from repro.session.queueing import QueueingSession
from repro.simulation.queueing import QueueingSimulation
from repro.strategies.hybrid import ThresholdHybridStrategy
from repro.strategies.least_loaded_in_ball import LeastLoadedInBallStrategy
from repro.strategies.nearest_replica import NearestReplicaStrategy
from repro.strategies.proximity_two_choice import ProximityTwoChoiceStrategy
from repro.strategies.random_replica import RandomReplicaStrategy
from repro.topology.torus import Torus2D
from repro.workload.arrivals import PoissonArrivalProcess
from repro.workload.generators import UniformOriginWorkload

ENGINE = "numba-loops"  # the numba operation tables, jitted or not


@pytest.fixture(autouse=True)
def numba_loops_engine():
    """Register the numba tables as a scratch engine; restore the registry."""
    saved = {family: dict(table) for family, table in registry._REGISTRY.items()}
    register_engine(
        ENGINE,
        family="assignment",
        commit_fns=_assignment_numba_fns,
        priority=-10,
        description="numba transcriptions, pure-Python when numba is absent",
    )
    register_engine(
        ENGINE,
        family="queueing",
        commit_fns=_queueing_numba_fns,
        priority=-10,
        description="numba transcriptions, pure-Python when numba is absent",
    )
    try:
        yield
    finally:
        for family, table in registry._REGISTRY.items():
            table.clear()
            table.update(saved[family])


def _system(num_nodes=49, num_files=20, cache_size=3, num_requests=300):
    topology = Torus2D(num_nodes)
    library = FileLibrary(num_files)
    cache = ProportionalPlacement(cache_size).place(topology, library, seed=0)
    requests = UniformOriginWorkload(num_requests).generate(topology, library, seed=1)
    return topology, cache, requests


def _assert_identical(strategy_cls, seed, **kwargs):
    topology, cache, requests = _system()
    candidate = strategy_cls(engine=ENGINE, **kwargs).assign(
        topology, cache, requests, seed=seed
    )
    reference = strategy_cls(engine="reference", **kwargs).assign(
        topology, cache, requests, seed=seed
    )
    np.testing.assert_array_equal(candidate.servers, reference.servers)
    np.testing.assert_array_equal(candidate.distances, reference.distances)
    np.testing.assert_array_equal(candidate.fallback_mask, reference.fallback_mask)


class TestAssignmentTranscriptions:
    @pytest.mark.parametrize("num_choices", [1, 2, 4])
    @pytest.mark.parametrize("radius", [2, np.inf])
    def test_two_choice(self, radius, num_choices):
        _assert_identical(
            ProximityTwoChoiceStrategy, seed=42, radius=radius, num_choices=num_choices
        )

    @pytest.mark.parametrize("radius", [2, np.inf])
    def test_least_loaded(self, radius):
        _assert_identical(LeastLoadedInBallStrategy, seed=43, radius=radius)

    @pytest.mark.parametrize("threshold", [0.0, 1.0, 3.0])
    def test_threshold_hybrid(self, threshold):
        _assert_identical(
            ThresholdHybridStrategy, seed=44, radius=3, imbalance_threshold=threshold
        )

    def test_load_independent_strategies_reuse_kernel_pass(self):
        _assert_identical(RandomReplicaStrategy, seed=45, radius=3)
        _assert_identical(NearestReplicaStrategy, seed=46)


class TestPrecomputeTranscriptions:
    """The compiled CSR/row kernels against their numpy originals."""

    def test_segmented_arange_matches_kernels(self):
        from repro.backends import numba_backend as nb
        from repro.kernels import group_index as gi

        for counts in ([], [0], [3], [2, 0, 3], [1, 1, 1, 5, 0, 2]):
            counts = np.asarray(counts, dtype=np.int64)
            np.testing.assert_array_equal(
                nb.segmented_arange(counts), gi.segmented_arange(counts)
            )

    def test_csr_scatter_matches_kernels(self):
        from repro.backends import numba_backend as nb
        from repro.kernels import group_index as gi

        rng = np.random.default_rng(5)
        counts_by_gid = rng.integers(0, 4, size=12).astype(np.int64)
        indptr = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts_by_gid)]
        )
        gids = rng.permutation(12).astype(np.int64)[:7]
        counts = counts_by_gid[gids]
        np.testing.assert_array_equal(
            nb.csr_scatter_destinations(indptr, gids, counts),
            gi.csr_scatter_destinations(indptr, gids, counts),
        )

    @pytest.mark.parametrize("radius,unconstrained", [(2.0, False), (6.0, False), (0.0, True)])
    def test_torus_rows_match_numpy_pass(self, radius, unconstrained):
        from repro.backends.numba_backend import torus_row_kernel

        topology = Torus2D(49)
        rows = torus_row_kernel(topology, radius, unconstrained)
        assert rows is not None
        rng = np.random.default_rng(9)
        origins = rng.integers(0, 49, size=20).astype(np.int64)
        replicas = np.sort(rng.choice(49, size=11, replace=False)).astype(np.int64)
        counts, nodes, dists = rows(origins, replicas)

        matrix = topology.pairwise_distances(origins, replicas)
        mask = (
            np.ones(matrix.shape, dtype=bool) if unconstrained else matrix <= radius
        )
        row_idx, cols = np.nonzero(mask)
        np.testing.assert_array_equal(counts, mask.sum(axis=1))
        np.testing.assert_array_equal(nodes, replicas[cols])
        np.testing.assert_array_equal(dists, matrix[row_idx, cols])

    def test_non_torus_topology_gets_no_row_kernel(self):
        from repro.backends.numba_backend import torus_row_kernel
        from repro.topology.ring import Ring

        assert torus_row_kernel(Ring(12), 2.0, False) is None


def _supermarket(**kwargs):
    return QueueingSimulation(
        topology=Torus2D(64),
        library=FileLibrary(20),
        placement=PartitionPlacement(3),
        arrivals=PoissonArrivalProcess(rate_per_node=0.7),
        radius=kwargs.pop("radius", 3.0),
        **kwargs,
    )


class TestQueueingTranscription:
    @pytest.mark.parametrize("num_choices", [1, 2, 4])
    def test_event_loop_bit_identical(self, num_choices):
        simulation = _supermarket(num_choices=num_choices)
        reference = simulation.run(12.0, seed=7, engine="reference")
        candidate = simulation.run(12.0, seed=7, engine=ENGINE)
        assert candidate == reference
        assert reference.num_arrivals > 0

    def test_unconstrained_bit_identical(self):
        simulation = _supermarket(radius=np.inf)
        assert simulation.run(10.0, seed=8, engine=ENGINE) == simulation.run(
            10.0, seed=8, engine="reference"
        )

    def test_windowed_serving_preserves_heap_state(self):
        # The array-heap write-back must leave a valid heapq heap in the
        # state between windows: serve the horizon in 5 windows and compare
        # with the one-shot reference run.
        def session(engine):
            return QueueingSession(
                Torus2D(64),
                FileLibrary(20),
                PartitionPlacement(3),
                PoissonArrivalProcess(rate_per_node=0.7),
                radius=3.0,
                engine=engine,
                seed=11,
            )

        windowed = session(ENGINE)
        for _ in windowed.serve_windows(window=3.0, num_windows=5):
            pass
        one_shot = session("reference")
        one_shot.serve(15.0)
        assert windowed.result() == one_shot.result()
        np.testing.assert_array_equal(
            windowed.queue_lengths(), one_shot.queue_lengths()
        )
        np.testing.assert_array_equal(windowed.busy_until(), one_shot.busy_until())
