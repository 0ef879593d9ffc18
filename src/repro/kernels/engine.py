"""Kernel-engine orchestration: precompute batch-wise, commit sequentially.

Every entry point here follows the same shape:

1. build the :class:`~repro.kernels.group_index.GroupIndex` (batched distance
   matrices, in-ball filtering, fallback resolution — all load-independent);
2. derive the two RNG streams of the contract
   (``rng_sample, rng_tie = spawn_generators(seed, 2)``) and draw *all* of
   their output up front;
3. run the commit (load-dependent strategies) or a single vectorised gather
   (load-independent strategies).  The commit is the minimal sequential loop
   of :mod:`repro.kernels.commit` for small windows and the bit-identical
   speculate-and-repair rounds of :mod:`repro.kernels.batch_commit` for
   large windows on large networks;
4. gather node ids / hop distances vectorised; unconstrained Strategy II
   resolves chosen-replica distances in one batched
   :meth:`~repro.topology.base.Topology.distances_between` call *after* the
   commit loop instead of one topology query per request.

The three d-choice entry points (Strategy II, the threshold hybrid and the
omniscient scan) run a window of fewer than ``VECTORISE_MIN_WINDOW`` requests
per request instead, since for one or two requests the fixed cost of steps 1,
2 and 4 is many times the commit itself:

1. each request's candidate row comes as Python lists from the
   :class:`~repro.kernels.group_index.GroupStore` (its scalar ``get`` /
   ``put`` protocol, in the key order of the batch calls) or, on a miss, from
   the file's replicas and one
   :meth:`~repro.topology.base.Topology.distances_from` row — the same row
   the batched build makes.  Every row is built (and every replica checked)
   before anything is drawn, committed or stored;
2. the streams are drawn in the same two calls (``rng_sample.random(d · k)``
   for the ``k`` requests with more than ``d`` candidates, ``rng_tie.random
   (m)``) and mapped with the same shifted-uniform rule;
3. the commit is the scalar loop of :mod:`repro.kernels.commit` over the
   lists, the load vector's list view included.

The scalar implementations of the same contract live in
:mod:`repro.kernels.reference`; for any seed the two produce bit-identical
:class:`~repro.strategies.base.AssignmentResult` arrays.

Incremental (session) serving
-----------------------------

Every entry point also accepts three optional keyword arguments used by the
session layer (:mod:`repro.session`) to serve a request *stream* window by
window:

* ``streams`` — a pre-spawned ``(rng_sample, rng_tie)`` pair used instead of
  deriving fresh streams from ``seed``.  Because the contract consumes
  randomness strictly per request, carrying the same generator pair across
  windows makes the windowed run consume exactly the one-shot stream.
* ``loads`` — a persistent int64 load vector (length ``n``) seeding the commit
  loop and updated in place, so window ``w + 1`` observes the loads created by
  windows ``0 .. w``.  Load-independent strategies also add their assignments
  to it, keeping the session's cumulative metrics uniform.
* ``store`` — a :class:`~repro.kernels.group_index.GroupStore` memoising
  materialised candidate rows across windows (the group index depends only on
  ``(topology, cache, radius, fallback)``, never on the loads).

Serving any partition of a request batch through these hooks is bit-identical
to the one-shot call — the property enforced by ``tests/test_session_stream.py``.
"""

from __future__ import annotations

import math
from operator import itemgetter

import numpy as np

from repro.exceptions import NoReplicaError
from repro.kernels import batch_commit, commit as scalar_commit
from repro.kernels.group_index import (
    GroupStore,
    _resolve_fallback_row,
    build_group_index,
    csr_scatter_destinations,
    group_requests,
    iter_file_segments,
)
from repro.kernels.sampling import draw_sample_positions, shifted_uniform_positions
from repro.placement.cache import CacheState
from repro.rng import SeedLike, spawn_generators
from repro.strategies.base import AssignmentResult, FallbackPolicy
from repro.topology.base import Topology
from repro.types import IntArray
from repro.workload.request import RequestBatch

__all__ = [
    "two_choice_kernel",
    "least_loaded_kernel",
    "threshold_hybrid_kernel",
    "random_replica_kernel",
    "nearest_replica_kernel",
]


#: Window routing of the sampled d-choice commits (Strategy II and the
#: threshold hybrid).  A window of at least ``SPECULATE_MIN_WINDOW`` requests
#: on a network of at least ``SPECULATE_MIN_NODES`` servers commits through
#: the speculate-and-repair rounds of :mod:`repro.kernels.batch_commit`;
#: every other window runs the scalar loop of :mod:`repro.kernels.commit`.
#: Both are bit-identical, so the choice is purely a cost one; the values
#: come from the crossover sweep in ``benchmarks/sweep_commit_crossover.py``
#: (its last run is recorded in ``benchmarks/results/commit_crossover.json``).
#: The omniscient scan has no speculative form (its wide candidate sets
#: collide too often for the rounds to pay), so :func:`least_loaded_kernel`
#: always runs the scalar loop.
SPECULATE_MIN_NODES = 4096
SPECULATE_MIN_WINDOW = 512

#: Window routing of the d-choice precompute.  A window of fewer requests is
#: served per request over Python lists (the small-window path in the module
#: docstring); larger ones build the numpy group index.  Bit-identical either
#: way; the value is the crossover the ``window`` family of the same sweep
#: measures (recorded in the same file).
VECTORISE_MIN_WINDOW = 32


def _commit_module(num_nodes: int, window: int):
    """The module whose commit serves this window: speculative or scalar."""
    if num_nodes >= SPECULATE_MIN_NODES and window >= SPECULATE_MIN_WINDOW:
        return batch_commit
    return scalar_commit


def _empty_result(n: int, strategy_name: str) -> AssignmentResult:
    return AssignmentResult(
        servers=np.empty(0, dtype=np.int64),
        distances=np.empty(0, dtype=np.int64),
        num_nodes=n,
        strategy_name=strategy_name,
        fallback_mask=np.zeros(0, dtype=bool),
    )


def _is_unconstrained(topology: Topology, radius: float) -> bool:
    """Whether ``radius`` reaches every server (no proximity constraint)."""
    return math.isinf(radius) or radius >= topology.diameter


def _gather_sample(
    index, positions: IntArray, sample_counts: IntArray
) -> tuple[IntArray, IntArray | None]:
    """Flat sampled node ids (and distances when materialised)."""
    base = np.repeat(index.request_starts(), sample_counts)
    flat = base + positions
    nodes = index.nodes[flat]
    dists = index.dists[flat] if index.dists is not None else None
    return nodes, dists


# ------------------------------------------------------- small-window path
def _build_row(
    topology: Topology,
    cache: CacheState,
    origin: int,
    file_id: int,
    *,
    radius: float,
    fallback: FallbackPolicy,
    unconstrained: bool,
) -> tuple[IntArray, IntArray, bool]:
    """One group's ``(nodes, dists, fallback)`` row, as the batched build makes it."""
    replicas = cache.file_nodes(file_id)
    if replicas.size == 0:
        raise NoReplicaError(file_id)
    dist_row = np.asarray(topology.distances_from(origin, replicas), dtype=np.int64)
    if unconstrained:
        return replicas, dist_row, False
    in_ball = dist_row <= radius
    if in_ball.any():
        return replicas[in_ball], dist_row[in_ball], False
    nodes, dists = _resolve_fallback_row(
        fallback, radius, origin, file_id, replicas, dist_row
    )
    return nodes, dists, True


def _scalar_rows(
    topology: Topology,
    cache: CacheState,
    requests: RequestBatch,
    *,
    radius: float,
    fallback: FallbackPolicy,
    need_dists: bool,
    store: GroupStore | None,
) -> list[tuple[list[int], list[int] | None, bool]]:
    """Every request's candidate row as lists: ``(nodes, dists, fallback)``.

    The small-window counterpart of :func:`build_group_index`, with the same
    rows and the same store traffic: distinct keys are probed in ascending
    key order (as ``get_many`` does; a cold store is not probed), misses are
    built file by file (as ``_build_rows_csr`` does, so the same error
    surfaces first) and only then stored, in ascending key order (as
    ``put_many`` does).  A window that raises stores nothing.  Unconstrained
    rows without distances alias the file's replica list and bypass the
    store, as the batched shared mode does.
    """
    num_files = int(requests.num_files)
    keys = [
        origin * num_files + file_id
        for origin, file_id in zip(requests.origins.tolist(), requests.files.tolist())
    ]
    unique = sorted(set(keys))
    unconstrained = _is_unconstrained(topology, radius)
    rows: dict[int, tuple[list[int], list[int] | None, bool]] = {}
    if unconstrained and not need_dists:
        for key in unique:
            replicas = cache.file_nodes(key % num_files)
            if replicas.size == 0:
                raise NoReplicaError(key % num_files)
            rows[key] = (replicas.tolist(), None, False)
        return [rows[key] for key in keys]
    probe = store is not None and len(store) > 0
    missing = []
    for key in unique:
        hit = store.get(key) if probe else None
        if hit is None:
            missing.append(key)
        else:
            rows[key] = (hit[0].tolist(), hit[1].tolist(), hit[2])
    built = []
    for key in sorted(missing, key=lambda k: (k % num_files, k)):
        origin, file_id = divmod(key, num_files)
        row = _build_row(
            topology,
            cache,
            origin,
            file_id,
            radius=radius,
            fallback=fallback,
            unconstrained=unconstrained,
        )
        built.append((key, row))
    built.sort(key=itemgetter(0))
    for key, (nodes, dists, flag) in built:
        if store is not None:
            store.put(key, nodes, dists, flag)
        rows[key] = (nodes.tolist(), dists.tolist(), flag)
    return [rows[key] for key in keys]


def _scalar_sample(rows, num_choices: int, rng_sample: np.random.Generator):
    """Flat sampled ``(nodes, dists, counts, indptr)`` lists of every request.

    One ``rng_sample.random`` call of ``d`` doubles per request with more than
    ``d`` candidates, in request order — exactly what
    :func:`~repro.kernels.sampling.draw_sample_positions` consumes; ``dists``
    is ``None`` when the rows carry none.
    """
    d = int(num_choices)
    drawing = sum(len(row[0]) > d for row in rows)
    uniforms = rng_sample.random(drawing * d).tolist() if drawing else []
    with_dists = rows[0][1] is not None
    nodes: list[int] = []
    dists: list[int] = []
    counts: list[int] = []
    indptr = [0]
    used = 0
    for row_nodes, row_dists, _ in rows:
        count = len(row_nodes)
        if count > d:
            positions = shifted_uniform_positions(count, uniforms[used : used + d])
            used += d
        else:
            positions = range(count)
        for position in positions:
            nodes.append(row_nodes[position])
            if with_dists:
                dists.append(row_dists[position])
        counts.append(len(positions))
        indptr.append(len(nodes))
    return nodes, dists if with_dists else None, counts, indptr


def _scalar_result(
    topology: Topology,
    requests: RequestBatch,
    rows,
    nodes: list[int],
    dists: list[int] | None,
    winners: IntArray,
    strategy_name: str,
) -> AssignmentResult:
    """The window's result from the commit's flat winner indices."""
    picks = winners.tolist()
    servers = np.array([nodes[pick] for pick in picks], dtype=np.int64)
    if dists is not None:
        distances = np.array([dists[pick] for pick in picks], dtype=np.int64)
    else:
        distances = topology.distances_between(requests.origins, servers)
    return AssignmentResult(
        servers=servers,
        distances=distances,
        num_nodes=topology.n,
        strategy_name=strategy_name,
        fallback_mask=np.array([row[2] for row in rows], dtype=bool),
    )


def _two_choice_scalar(
    topology,
    cache,
    requests,
    seed,
    *,
    radius,
    num_choices,
    fallback,
    strategy_name,
    streams=None,
    loads=None,
    store=None,
) -> AssignmentResult:
    """:func:`two_choice_kernel` per request (a non-empty small window)."""
    rows = _scalar_rows(
        topology,
        cache,
        requests,
        radius=radius,
        fallback=fallback,
        need_dists=not _is_unconstrained(topology, radius),
        store=store,
    )
    rng_sample, rng_tie = streams if streams is not None else spawn_generators(seed, 2)
    nodes, dists, counts, indptr = _scalar_sample(rows, num_choices, rng_sample)
    tie_uniforms = rng_tie.random(len(rows))
    winners = scalar_commit.commit_least_loaded_of_sample(
        topology.n, nodes, counts, indptr, tie_uniforms, loads
    )
    return _scalar_result(topology, requests, rows, nodes, dists, winners, strategy_name)


def _threshold_hybrid_scalar(
    topology,
    cache,
    requests,
    seed,
    *,
    radius,
    num_choices,
    threshold,
    fallback,
    strategy_name,
    streams=None,
    loads=None,
    store=None,
) -> AssignmentResult:
    """:func:`threshold_hybrid_kernel` per request (a non-empty small window)."""
    rows = _scalar_rows(
        topology,
        cache,
        requests,
        radius=radius,
        fallback=fallback,
        need_dists=True,
        store=store,
    )
    rng_sample, rng_tie = streams if streams is not None else spawn_generators(seed, 2)
    nodes, dists, _, indptr = _scalar_sample(rows, num_choices, rng_sample)
    tie_uniforms = rng_tie.random(len(rows))
    winners = scalar_commit.commit_threshold_hybrid(
        topology.n, nodes, dists, indptr, threshold, tie_uniforms, loads
    )
    return _scalar_result(topology, requests, rows, nodes, dists, winners, strategy_name)


def _least_loaded_scalar(
    topology,
    cache,
    requests,
    seed,
    *,
    radius,
    fallback,
    strategy_name,
    streams=None,
    loads=None,
    store=None,
) -> AssignmentResult:
    """:func:`least_loaded_kernel` per request (a non-empty small window)."""
    rows = _scalar_rows(
        topology,
        cache,
        requests,
        radius=radius,
        fallback=fallback,
        need_dists=True,
        store=store,
    )
    _, rng_tie = streams if streams is not None else spawn_generators(seed, 2)
    tie_uniforms = rng_tie.random(len(rows))
    nodes: list[int] = []
    dists: list[int] = []
    starts: list[int] = []
    counts: list[int] = []
    for row_nodes, row_dists, _ in rows:
        starts.append(len(nodes))
        counts.append(len(row_nodes))
        nodes.extend(row_nodes)
        dists.extend(row_dists)
    winners = scalar_commit.commit_least_loaded_scan(
        topology.n, nodes, dists, starts, counts, tie_uniforms, loads
    )
    return _scalar_result(topology, requests, rows, nodes, dists, winners, strategy_name)


# --------------------------------------------------------- vectorised path
def _two_choice_vectorised(
    topology,
    cache,
    requests,
    seed,
    *,
    radius,
    num_choices,
    fallback,
    strategy_name,
    streams=None,
    loads=None,
    store=None,
    commit=None,
    row_kernel=None,
) -> AssignmentResult:
    """:func:`two_choice_kernel` over the numpy group index."""
    m = requests.num_requests
    n = topology.n
    unconstrained = _is_unconstrained(topology, radius)
    index = build_group_index(
        topology,
        cache,
        requests,
        radius=radius,
        fallback=fallback,
        need_dists=not unconstrained,
        store=store,
        row_kernel=row_kernel,
    )
    rng_sample, rng_tie = streams if streams is not None else spawn_generators(seed, 2)
    positions, sample_counts, sample_indptr = draw_sample_positions(
        index.request_counts(), num_choices, rng_sample
    )
    tie_uniforms = rng_tie.random(m)
    sample_nodes, sample_dists = _gather_sample(index, positions, sample_counts)
    if commit is None:
        commit = _commit_module(n, m).commit_least_loaded_of_sample
    winners = commit(
        n, sample_nodes, sample_counts, sample_indptr, tie_uniforms, loads
    )
    servers = sample_nodes[winners]
    if sample_dists is not None:
        distances = sample_dists[winners]
    else:
        distances = topology.distances_between(requests.origins, servers)
    return AssignmentResult(
        servers=servers,
        distances=distances,
        num_nodes=n,
        strategy_name=strategy_name,
        fallback_mask=index.fallback[index.request_group],
    )


def _least_loaded_vectorised(
    topology,
    cache,
    requests,
    seed,
    *,
    radius,
    fallback,
    strategy_name,
    streams=None,
    loads=None,
    store=None,
    commit=None,
    row_kernel=None,
) -> AssignmentResult:
    """:func:`least_loaded_kernel` over the numpy group index."""
    index = build_group_index(
        topology,
        cache,
        requests,
        radius=radius,
        fallback=fallback,
        need_dists=True,
        store=store,
        row_kernel=row_kernel,
    )
    _, rng_tie = streams if streams is not None else spawn_generators(seed, 2)
    tie_uniforms = rng_tie.random(requests.num_requests)
    if commit is None:
        commit = scalar_commit.commit_least_loaded_scan
    winners = commit(
        topology.n,
        index.nodes,
        index.dists,
        index.request_starts(),
        index.request_counts(),
        tie_uniforms,
        loads,
    )
    return AssignmentResult(
        servers=index.nodes[winners],
        distances=index.dists[winners],
        num_nodes=topology.n,
        strategy_name=strategy_name,
        fallback_mask=index.fallback[index.request_group],
    )


def _threshold_hybrid_vectorised(
    topology,
    cache,
    requests,
    seed,
    *,
    radius,
    num_choices,
    threshold,
    fallback,
    strategy_name,
    streams=None,
    loads=None,
    store=None,
    commit=None,
    row_kernel=None,
) -> AssignmentResult:
    """:func:`threshold_hybrid_kernel` over the numpy group index."""
    m = requests.num_requests
    n = topology.n
    # The hybrid rule compares candidate distances, so they are materialised
    # even without a radius constraint.
    index = build_group_index(
        topology,
        cache,
        requests,
        radius=radius,
        fallback=fallback,
        need_dists=True,
        store=store,
        row_kernel=row_kernel,
    )
    rng_sample, rng_tie = streams if streams is not None else spawn_generators(seed, 2)
    positions, sample_counts, sample_indptr = draw_sample_positions(
        index.request_counts(), num_choices, rng_sample
    )
    tie_uniforms = rng_tie.random(m)
    sample_nodes, sample_dists = _gather_sample(index, positions, sample_counts)
    if commit is None:
        commit = _commit_module(n, m).commit_threshold_hybrid
    winners = commit(
        n, sample_nodes, sample_dists, sample_indptr, threshold, tie_uniforms, loads
    )
    return AssignmentResult(
        servers=sample_nodes[winners],
        distances=sample_dists[winners],
        num_nodes=n,
        strategy_name=strategy_name,
        fallback_mask=index.fallback[index.request_group],
    )


# ------------------------------------------------------------ entry points
def _small_window(requests: RequestBatch, commit) -> bool:
    """Whether a window takes the small-window path (never with a ``commit``)."""
    return commit is None and requests.num_requests < VECTORISE_MIN_WINDOW


def two_choice_kernel(
    topology: Topology,
    cache: CacheState,
    requests: RequestBatch,
    seed: SeedLike,
    *,
    radius: float,
    num_choices: int,
    fallback: FallbackPolicy,
    strategy_name: str,
    streams: tuple[np.random.Generator, np.random.Generator] | None = None,
    loads: IntArray | None = None,
    store: GroupStore | None = None,
    commit=None,
    row_kernel=None,
) -> AssignmentResult:
    """Batched Strategy II (proximity-aware ``d``-choice assignment).

    A window below ``VECTORISE_MIN_WINDOW`` requests runs the small-window
    path; a larger one commits through the scalar loop or the speculative
    rounds, whichever its size calls for (see ``SPECULATE_MIN_WINDOW``).
    ``commit`` overrides that choice with one implementation (same signature
    and bit-identical semantics as
    :func:`~repro.kernels.commit.commit_least_loaded_of_sample`) — the hook
    compiled backends (:mod:`repro.backends.numba_backend`) plug into while
    sharing all of this precompute; it always takes the vectorised path.
    ``row_kernel`` swaps the precompute's per-chunk candidate-row pass the
    same way (see :func:`~repro.kernels.group_index.build_group_index`).
    """
    if requests.num_requests == 0:
        return _empty_result(topology.n, strategy_name)
    params = dict(
        radius=radius,
        num_choices=num_choices,
        fallback=fallback,
        strategy_name=strategy_name,
        streams=streams,
        loads=loads,
        store=store,
    )
    if _small_window(requests, commit):
        return _two_choice_scalar(topology, cache, requests, seed, **params)
    return _two_choice_vectorised(
        topology, cache, requests, seed, commit=commit, row_kernel=row_kernel, **params
    )


def least_loaded_kernel(
    topology: Topology,
    cache: CacheState,
    requests: RequestBatch,
    seed: SeedLike,
    *,
    radius: float,
    fallback: FallbackPolicy,
    strategy_name: str,
    streams: tuple[np.random.Generator, np.random.Generator] | None = None,
    loads: IntArray | None = None,
    store: GroupStore | None = None,
    commit=None,
    row_kernel=None,
) -> AssignmentResult:
    """Batched omniscient baseline: least loaded replica in the ball.

    Always commits through the scalar loop (its wide candidate sets collide
    too often for the speculative rounds to pay), per request below
    ``VECTORISE_MIN_WINDOW``; ``commit`` swaps the commit-loop implementation
    (see :func:`two_choice_kernel`).
    """
    if requests.num_requests == 0:
        return _empty_result(topology.n, strategy_name)
    params = dict(
        radius=radius,
        fallback=fallback,
        strategy_name=strategy_name,
        streams=streams,
        loads=loads,
        store=store,
    )
    if _small_window(requests, commit):
        return _least_loaded_scalar(topology, cache, requests, seed, **params)
    return _least_loaded_vectorised(
        topology, cache, requests, seed, commit=commit, row_kernel=row_kernel, **params
    )


def threshold_hybrid_kernel(
    topology: Topology,
    cache: CacheState,
    requests: RequestBatch,
    seed: SeedLike,
    *,
    radius: float,
    num_choices: int,
    threshold: float,
    fallback: FallbackPolicy,
    strategy_name: str,
    streams: tuple[np.random.Generator, np.random.Generator] | None = None,
    loads: IntArray | None = None,
    store: GroupStore | None = None,
    commit=None,
    row_kernel=None,
) -> AssignmentResult:
    """Batched threshold hybrid: closest sampled candidate within the slack.

    Routed like :func:`two_choice_kernel`; ``commit`` swaps the commit-loop
    implementation.
    """
    if requests.num_requests == 0:
        return _empty_result(topology.n, strategy_name)
    params = dict(
        radius=radius,
        num_choices=num_choices,
        threshold=threshold,
        fallback=fallback,
        strategy_name=strategy_name,
        streams=streams,
        loads=loads,
        store=store,
    )
    if _small_window(requests, commit):
        return _threshold_hybrid_scalar(topology, cache, requests, seed, **params)
    return _threshold_hybrid_vectorised(
        topology, cache, requests, seed, commit=commit, row_kernel=row_kernel, **params
    )


def random_replica_kernel(
    topology: Topology,
    cache: CacheState,
    requests: RequestBatch,
    seed: SeedLike,
    *,
    radius: float,
    fallback: FallbackPolicy,
    strategy_name: str,
    streams: tuple[np.random.Generator, np.random.Generator] | None = None,
    loads: IntArray | None = None,
    store: GroupStore | None = None,
    row_kernel=None,
) -> AssignmentResult:
    """One-choice baseline as a single vectorised pass (no Python loop)."""
    m = requests.num_requests
    n = topology.n
    if m == 0:
        return _empty_result(n, strategy_name)
    unconstrained = _is_unconstrained(topology, radius)
    index = build_group_index(
        topology,
        cache,
        requests,
        radius=radius,
        fallback=fallback,
        need_dists=not unconstrained,
        store=store,
        row_kernel=row_kernel,
    )
    _, rng_tie = streams if streams is not None else spawn_generators(seed, 2)
    uniforms = rng_tie.random(m)
    counts = index.request_counts()
    picks = (uniforms * counts).astype(np.int64)
    flat = index.request_starts() + picks
    servers = index.nodes[flat]
    if loads is not None:
        loads += np.bincount(servers, minlength=n)
    if index.dists is not None:
        distances = index.dists[flat]
    else:
        distances = topology.distances_between(requests.origins, servers)
    return AssignmentResult(
        servers=servers,
        distances=distances,
        num_nodes=n,
        strategy_name=strategy_name,
        fallback_mask=index.fallback[index.request_group],
    )


def nearest_replica_kernel(
    topology: Topology,
    cache: CacheState,
    requests: RequestBatch,
    seed: SeedLike,
    *,
    allow_origin_fallback: bool,
    chunk_size: int,
    strategy_name: str,
    streams: tuple[np.random.Generator, np.random.Generator] | None = None,
    loads: IntArray | None = None,
    store: GroupStore | None = None,
) -> AssignmentResult:
    """Strategy I as a single vectorised pass over grouped requests.

    Unlike the load-aware kernels this never materialises full candidate
    sets: per file (chunked to ``chunk_size`` group rows) only each group's
    minimum distance and its tied nearest replicas survive the distance
    matrix, so peak memory stays bounded by one chunk — matching the
    pre-kernel behaviour of the strategy.
    """
    m = requests.num_requests
    n = topology.n
    if m == 0:
        return _empty_result(n, strategy_name)

    g_origins, g_files, group_of = group_requests(requests)
    num_groups = int(g_origins.size)

    group_min = np.zeros(num_groups, dtype=np.int64)
    tie_counts = np.zeros(num_groups, dtype=np.int64)
    missing = np.zeros(num_groups, dtype=bool)
    pieces: list[tuple[IntArray, IntArray, IntArray]] = []

    for segment in iter_file_segments(g_files):
        file_id = int(g_files[segment[0]])
        replicas = cache.file_nodes(file_id)
        if replicas.size == 0:
            if not allow_origin_fallback:
                raise NoReplicaError(file_id)
            missing[segment] = True
            continue
        for start in range(0, segment.size, chunk_size):
            gids = segment[start : start + chunk_size]
            matrix = topology.pairwise_distances(g_origins[gids], replicas)
            row_min = matrix.min(axis=1)
            is_min = matrix == row_min[:, None]
            group_min[gids] = row_min
            row_ties = is_min.sum(axis=1).astype(np.int64)
            tie_counts[gids] = row_ties
            _, cols = np.nonzero(is_min)  # row-major: replicas ascending
            pieces.append((gids.astype(np.int64), row_ties, replicas[cols]))

    tie_indptr = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(tie_counts)])
    tie_nodes = np.empty(int(tie_indptr[-1]), dtype=np.int64)
    for gids, row_ties, flat_nodes in pieces:
        tie_nodes[csr_scatter_destinations(tie_indptr, gids, row_ties)] = flat_nodes

    _, rng_tie = streams if streams is not None else spawn_generators(seed, 2)
    uniforms = rng_tie.random(m)
    servers = np.empty(m, dtype=np.int64)
    distances = np.empty(m, dtype=np.int64)
    fallback_mask = missing[group_of]
    served = ~fallback_mask
    if np.any(served):
        groups = group_of[served]
        picks = (uniforms[served] * tie_counts[groups]).astype(np.int64)
        servers[served] = tie_nodes[tie_indptr[groups] + picks]
        distances[served] = group_min[groups]
    if np.any(fallback_mask):
        servers[fallback_mask] = requests.origins[fallback_mask]
        distances[fallback_mask] = topology.diameter
    if loads is not None:
        loads += np.bincount(servers, minlength=n)
    return AssignmentResult(
        servers=servers,
        distances=distances,
        num_nodes=n,
        strategy_name=strategy_name,
        fallback_mask=fallback_mask,
    )
