"""The speculate-and-repair batch commit engine and the dual-view load vector.

Three layers of guarantees:

* **bit-identity** — :mod:`repro.kernels.batch_commit` must match the scalar
  loops of :mod:`repro.kernels.commit` element-for-element on any input, including the adversarial windows where
  speculation is maximally wrong (every request fighting over one candidate
  pair, all-shared candidate sets, heavy ties at tie-uniform boundaries);
* **the repair-round structure** — with the progress fallback disabled, the
  number of repair rounds on disjoint contention groups is exactly (and in
  general at most) the longest per-node collision chain, and the compiled
  repair-round transcription in :mod:`repro.backends.numba_backend` agrees
  with the numpy round it replaces (runs as plain Python without numba);
* **window routing** — the ``kernel`` engine speculates on large windows of
  large networks and runs the scalar loop otherwise, with thresholds that
  match the committed crossover sweep; ``batch`` is no engine of its own, so
  ``repro engines`` lists ``reference``, ``kernel`` and ``numba`` only.

The cross-engine differential suites (``tests/test_kernels_differential.py``,
``tests/test_kernels_queueing_differential.py``) hold the ``kernel`` engine,
on both commit paths, to reference equality on every strategy and topology;
this file adds the adversarial and structural cases those suites cannot
express.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import numba_backend as nb
from repro.cli import main
from repro.kernels import batch_commit as bc
from repro.kernels import commit as scalar
from repro.kernels import engine
from repro.kernels.loads import LoadVector, as_load_array
from repro.session import open_session

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


# ---------------------------------------------------------------- CSR helpers
def _uniform_csr(pairs):
    """CSR arrays for a fixed-width candidate layout."""
    cand = np.asarray(pairs, dtype=np.int64)
    m, width = cand.shape
    counts = np.full(m, width, dtype=np.int64)
    indptr = width * np.arange(m + 1, dtype=np.int64)
    return cand.ravel(), counts, indptr


def _random_csr(rng, m, n, dmin, dmax):
    counts = rng.integers(dmin, dmax + 1, size=m).astype(np.int64)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    nodes = np.empty(int(indptr[-1]), dtype=np.int64)
    for i in range(m):
        nodes[indptr[i] : indptr[i + 1]] = rng.choice(n, size=counts[i], replace=False)
    return nodes, counts, indptr


def _assert_of_sample_identical(n, nodes, counts, indptr, uniforms, init=None, **kw):
    la = None if init is None else np.asarray(init, dtype=np.int64).copy()
    lb = None if init is None else np.asarray(init, dtype=np.int64).copy()
    expected = scalar.commit_least_loaded_of_sample(n, nodes, counts, indptr, uniforms, la)
    actual = bc.commit_least_loaded_of_sample(n, nodes, counts, indptr, uniforms, lb, **kw)
    np.testing.assert_array_equal(actual, expected)
    if init is not None:
        np.testing.assert_array_equal(lb, la)
    return actual


# ------------------------------------------------------- adversarial windows
class TestAdversarialCollisions:
    def test_all_requests_one_pair(self):
        # Every request speculates on the same two nodes: exactly one commit
        # per round until the progress fallback takes the remainder — either
        # way the result must match the scalar loop bit for bit.
        m = 200
        rng = np.random.default_rng(0)
        nodes, counts, indptr = _uniform_csr([[3, 7]] * m)
        _assert_of_sample_identical(16, nodes, counts, indptr, rng.random(m))
        assert bc.get_last_stats().fallbacks >= 1

    def test_all_shared_candidate_set(self):
        # radius = inf style: every request sees the same full candidate set.
        m, n = 150, 6
        rng = np.random.default_rng(1)
        nodes, counts, indptr = _uniform_csr([list(range(n))] * m)
        _assert_of_sample_identical(n, nodes, counts, indptr, rng.random(m))

    def test_heavy_ties_boundary_uniforms(self):
        # All-zero loads make every candidate tie; uniforms sit on the
        # floor(u * t) decision boundaries.
        m, n = 64, 32
        rng = np.random.default_rng(2)
        nodes, counts, indptr = _random_csr(rng, m, n, 2, 4)
        eps = np.finfo(np.float64).eps
        uniforms = np.tile(
            np.array([0.0, 0.5 - eps, 0.5, 1.0 - eps]), m // 4
        )
        _assert_of_sample_identical(n, nodes, counts, indptr, uniforms)

    @pytest.mark.parametrize("threshold", [-1.0, 0.0, 0.5, 2.0])
    def test_hybrid_thresholds(self, threshold):
        # Negative thresholds can empty the eligible set (the scalar loop
        # keeps its initial pick) — the corner the vectorised round must
        # reproduce exactly.
        rng = np.random.default_rng(4)
        m, n = 120, 24
        nodes, counts, indptr = _random_csr(rng, m, n, 1, 4)
        dists = rng.integers(0, 4, size=nodes.size).astype(np.int64)
        uniforms = rng.random(m)
        init = rng.integers(0, 3, size=n).astype(np.int64)
        la, lb = init.copy(), init.copy()
        expected = scalar.commit_threshold_hybrid(
            n, nodes, dists, indptr, threshold, uniforms, la
        )
        actual = bc.commit_threshold_hybrid(
            n, nodes, dists, indptr, threshold, uniforms, lb
        )
        np.testing.assert_array_equal(actual, expected)
        np.testing.assert_array_equal(lb, la)

    @pytest.mark.parametrize("max_rounds", [1, 2, 32])
    def test_round_cap_forces_fallback_identically(self, max_rounds):
        rng = np.random.default_rng(5)
        m, n = 300, 8  # tiny n => massive contention
        nodes, counts, indptr = _random_csr(rng, m, n, 2, 3)
        _assert_of_sample_identical(
            n, nodes, counts, indptr, rng.random(m), max_rounds=max_rounds
        )

    def test_forced_single_candidate_fast_path(self):
        rng = np.random.default_rng(6)
        m, n = 100, 12
        nodes, counts, indptr = _random_csr(rng, m, n, 1, 1)
        _assert_of_sample_identical(
            n, nodes, counts, indptr, rng.random(m), init=np.zeros(n, dtype=np.int64)
        )
        stats = bc.get_last_stats()
        assert stats.committed_vectorised == m and stats.rounds == 0


# -------------------------------------------------- windowed load persistence
class TestLoadPersistence:
    def test_windowed_equals_one_shot(self):
        rng = np.random.default_rng(7)
        m, n = 400, 64
        nodes, counts, indptr = _random_csr(rng, m, n, 2, 3)
        uniforms = rng.random(m)
        one_shot = bc.commit_least_loaded_of_sample(n, nodes, counts, indptr, uniforms)
        loads = LoadVector(n)
        cut = 173
        first_half = bc.commit_least_loaded_of_sample(
            n,
            nodes[: indptr[cut]],
            counts[:cut],
            indptr[: cut + 1],
            uniforms[:cut],
            loads,
        )
        second_half = bc.commit_least_loaded_of_sample(
            n,
            nodes[indptr[cut] :],
            counts[cut:],
            indptr[cut:] - indptr[cut],
            uniforms[cut:],
            loads,
        )
        np.testing.assert_array_equal(first_half, one_shot[:cut])
        np.testing.assert_array_equal(second_half + indptr[cut], one_shot[cut:])
        np.testing.assert_array_equal(
            loads.readonly_array(),
            np.bincount(nodes[one_shot], minlength=n),
        )

    def test_load_vector_shared_between_scalar_and_batch(self):
        # A session switching engines mid-stream must see one load history.
        rng = np.random.default_rng(8)
        n = 32
        loads = LoadVector(n)
        reference = np.zeros(n, dtype=np.int64)
        for step, fn in enumerate(
            [
                scalar.commit_least_loaded_of_sample,
                bc.commit_least_loaded_of_sample,
                scalar.commit_least_loaded_of_sample,
                bc.commit_least_loaded_of_sample,
            ]
        ):
            nodes, counts, indptr = _random_csr(rng, 50, n, 2, 2)
            uniforms = rng.random(50)
            expected = scalar.commit_least_loaded_of_sample(
                n, nodes, counts, indptr, uniforms, reference
            )
            actual = fn(n, nodes, counts, indptr, uniforms, loads)
            np.testing.assert_array_equal(actual, expected, err_msg=f"step {step}")
        np.testing.assert_array_equal(loads.readonly_array(), reference)


# ------------------------------------------------------ repair-round structure
class TestRepairRounds:
    @staticmethod
    def _disable_fallback(monkeypatch):
        # active >> 63 == 0 for any realistic window: every round that
        # commits at least one request counts as progress.
        monkeypatch.setattr(bc, "_PROGRESS_SHIFT", 63)

    def test_all_one_node_rounds_equal_chain(self, monkeypatch):
        self._disable_fallback(monkeypatch)
        m = 60
        nodes, counts, indptr = _uniform_csr([[0, 1]] * m)
        uniforms = np.random.default_rng(9).random(m)
        _assert_of_sample_identical(4, nodes, counts, indptr, uniforms, max_rounds=10**6)
        stats = bc.get_last_stats()
        assert stats.rounds == m  # the chain *is* the window
        assert stats.fallbacks == 0 and stats.committed_vectorised == m

    @settings(max_examples=25, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_rounds_bounded_by_longest_chain(self, sizes, seed):
        # Disjoint contention groups (group g owns nodes {2g, 2g+1}): each
        # round commits exactly the head of every live group, so the repair
        # rounds equal the largest group — the longest per-node collision
        # chain.  hypothesis drives the group-size profile.
        old_shift = bc._PROGRESS_SHIFT
        bc._PROGRESS_SHIFT = 63
        try:
            rng = np.random.default_rng(seed)
            pairs = []
            for g, c in enumerate(sizes):
                pairs.extend([[2 * g, 2 * g + 1]] * c)
            order = rng.permutation(len(pairs))
            pairs = [pairs[i] for i in order]
            nodes, counts, indptr = _uniform_csr(pairs)
            uniforms = rng.random(len(pairs))
            n = 2 * len(sizes)
            _assert_of_sample_identical(
                n, nodes, counts, indptr, uniforms, max_rounds=10**6
            )
            stats = bc.get_last_stats()
            longest_chain = max(sizes)
            assert stats.rounds == longest_chain
            assert stats.fallbacks == 0
        finally:
            bc._PROGRESS_SHIFT = old_shift

    def test_low_contention_needs_few_rounds(self, monkeypatch):
        self._disable_fallback(monkeypatch)
        rng = np.random.default_rng(10)
        m, n = 2000, 4096
        nodes, counts, indptr = _random_csr(rng, m, n, 2, 2)
        _assert_of_sample_identical(n, nodes, counts, indptr, rng.random(m))
        stats = bc.get_last_stats()
        assert stats.rounds <= 8  # sparse collisions resolve almost at once
        assert stats.committed_scalar == 0

    def test_repair_round_transcription_matches_numpy(self):
        # The @njit repair round (plain Python here when numba is absent)
        # must agree with the numpy round on safety, safe picks and loads.
        rng = np.random.default_rng(11)
        n, m = 12, 80
        nodes, counts, indptr = _random_csr(rng, m, n, 2, 3)
        uniforms = rng.random(m)
        loads_fused = rng.integers(0, 2, size=n).astype(np.int64)
        loads_numpy = loads_fused.copy()
        sentinel = int(bc._SENTINEL)
        first = np.full(n, sentinel, dtype=np.int64)
        picks, safe = nb.repair_round_of_sample(
            loads_fused, nodes, indptr, uniforms, first, sentinel
        )
        assert np.all(first == sentinel), "scratch must be restored"
        pick_np = bc._speculate_of_sample(loads_numpy, nodes, None, counts, indptr, uniforms)
        safe_np = bc._safe_csr(first, nodes, counts, indptr[:-1])
        loads_numpy[nodes[pick_np[np.flatnonzero(safe_np)]]] += 1
        np.testing.assert_array_equal(safe, safe_np)
        np.testing.assert_array_equal(picks[safe], pick_np[safe_np])
        np.testing.assert_array_equal(loads_fused, loads_numpy)
        assert bool(safe[0]), "the head of the active set is always safe"


# ------------------------------------------------------------- load vector
class TestLoadVector:
    def test_authority_flips_lazily(self):
        lv = LoadVector(4)
        lst = lv.as_list()
        lst[2] = 7  # mutating the borrowed list IS mutating the vector
        assert lv.as_list() is lst
        arr = lv.as_array()
        assert arr[2] == 7
        arr[1] = 3
        assert lv.as_list()[1] == 3

    def test_readonly_array_keeps_list_authoritative(self):
        lv = LoadVector(3)
        lst = lv.as_list()
        lst[0] = 5
        view = lv.readonly_array()
        assert view[0] == 5
        lst[0] = 9  # list stays authoritative after the monitoring read
        assert lv.readonly_array()[0] == 9

    def test_max_at_both_views(self):
        lv = LoadVector(6)
        lv.as_list()[3] = 4
        servers = np.array([3, 1], dtype=np.int64)
        assert lv.max_at(servers) == 4
        assert lv.max_at(servers, floor=9) == 9
        lv.as_array()
        assert lv.max_at(servers) == 4
        assert lv.max_at(np.empty(0, dtype=np.int64), floor=2) == 2

    def test_iadd_and_fill(self):
        lv = LoadVector(5)
        lv.as_list()[2] = 3  # list view authoritative
        lv += np.ones(5, dtype=np.int64)
        np.testing.assert_array_equal(lv.as_array(), [1, 1, 4, 1, 1])
        lv.fill(0)
        assert int(lv.readonly_array().sum()) == 0

    def test_as_load_array(self):
        lv = LoadVector(3)
        assert as_load_array(lv) is lv.as_array()
        arr = np.arange(3, dtype=np.int64)
        assert as_load_array(arr) is arr
        np.testing.assert_array_equal(as_load_array([1, 2]), [1, 2])

    def test_init_requires_size_or_array(self):
        with pytest.raises(ValueError):
            LoadVector()
        lv = LoadVector(array=np.array([2, 1], dtype=np.int32))
        assert lv.as_array().dtype == np.int64


# ------------------------------------------------------------ window routing
STATIC_BENCH = {
    # perfbench's static shape (n = 65536, K = 128, M = 8), unconstrained so
    # the group-index build stays cheap: the routing looks at n and m only.
    "num_nodes": 65536,
    "num_files": 128,
    "cache_size": 8,
    "topology": "torus",
    "popularity": "zipf",
    "popularity_params": {"gamma": 0.8},
    "placement": "proportional",
    "strategy": "proximity_two_choice",
    "strategy_params": {"num_choices": 2},
}
SERVICE = {
    # The dispatch service's shape: n = 100, radius 3, 1-2 request windows.
    "num_nodes": 100,
    "num_files": 40,
    "cache_size": 4,
    "topology": "torus",
    "placement": "proportional",
    "strategy": "proximity_two_choice",
    "strategy_params": {"num_choices": 2, "radius": 3.0},
}


def _requests(session, size, seed):
    rng = np.random.default_rng(seed)
    n = session.topology.n
    cached = np.setdiff1d(
        np.arange(session.library.num_files), session.cache.uncached_files()
    )
    return rng.integers(0, n, size=size), rng.choice(cached, size=size)


class TestWindowRouting:
    """The ``kernel`` engine picks its commit from the window it serves."""

    def test_thresholds_match_committed_sweep(self):
        path = Path(__file__).parents[1] / "benchmarks/results/commit_crossover.json"
        record = json.loads(path.read_text())
        assert engine.SPECULATE_MIN_NODES == record["SPECULATE_MIN_NODES"]
        assert engine.SPECULATE_MIN_WINDOW == record["SPECULATE_MIN_WINDOW"]
        assert engine.VECTORISE_MIN_WINDOW == record["VECTORISE_MIN_WINDOW"]

    @pytest.mark.parametrize(
        "size", [1, 2, engine.VECTORISE_MIN_WINDOW - 1, engine.VECTORISE_MIN_WINDOW]
    )
    def test_small_windows_skip_the_group_index(self, monkeypatch, size):
        session = open_session(SERVICE, seed=1, assignment_engine="kernel")
        origins, files = _requests(session, size, seed=size)
        builds = []
        build = engine.build_group_index

        def counting_build(*args, **kwargs):
            builds.append(size)
            return build(*args, **kwargs)

        monkeypatch.setattr(engine, "build_group_index", counting_build)
        session.dispatch_batch(origins, files)
        assert bool(builds) == (size >= engine.VECTORISE_MIN_WINDOW)

    @pytest.mark.parametrize("size", [16384, 65536])
    def test_static_bench_windows_speculate(self, size):
        session = open_session(STATIC_BENCH, seed=1, assignment_engine="kernel")
        origins, files = _requests(session, size, seed=size)
        before = bc.get_last_stats()
        session.dispatch_batch(origins, files)
        stats = bc.get_last_stats()
        assert stats is not before
        assert stats.committed_vectorised + stats.committed_scalar == size
        assert stats.rounds > 0 and stats.fallbacks == 0

    def test_service_windows_stay_scalar(self):
        session = open_session(SERVICE, seed=1, assignment_engine="kernel")
        before = bc.get_last_stats()
        for step in range(20):
            origins, files = _requests(session, 1 + step % 2, seed=step)
            session.dispatch_batch(origins, files)
        assert bc.get_last_stats() is before


# -------------------------------------------------------------- registry/CLI
class TestEngineRegistration:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_cli_engines_lists_the_three_engines(self, capsys, fmt):
        assert main(["engines"] + (["--json"] if fmt == "json" else [])) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            listed = {(e["family"], e["name"]) for e in json.loads(out)}
        else:
            listed = set()
            for block in out.split("== ")[1:]:
                family = block.split(" engines ==", 1)[0]
                for line in block.splitlines()[3:]:
                    if "|" in line:
                        listed.add((family, line.split("|", 1)[0].strip()))
        expected = {
            (family, name)
            for family in ("assignment", "queueing")
            for name in ("reference", "kernel", "numba")
        }
        assert listed == expected
