"""The sequential commit phase: tight loops over pre-materialised arrays.

Everything that does not depend on the evolving load vector happens in the
precompute phase; what remains — for every request, inspect the loads of its
(pre-sampled) candidates, pick a winner, bump its load — is inherently
sequential and lives here.

Each loop body is written once, as a ``_*_core`` function that uses nothing
but indexing, ``len`` and scalar arithmetic.  The ``kernel`` engine runs the
cores as plain Python over lists of ints (no numpy scalar boxing); the
``numba`` engine compiles the very same functions over int64/float64 arrays
(:mod:`repro.backends.numba_backend`).  There is no second copy to drift.

Tie-breaking consumes one pre-drawn uniform ``u`` per request (drawn whether
or not a tie occurs, so the stream position never depends on the loads): if
``t`` options tie, the winner is option ``floor(u * t)`` in candidate order.
The scalar reference engine implements the exact same rule, which is what
makes the engines bit-identical.

All functions return, per request, the *flat index* of the winning candidate
into the arrays they were given, so callers gather node ids and hop distances
vectorised afterwards.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.loads import LoadVector
from repro.types import IntArray

__all__ = [
    "commit_least_loaded_of_sample",
    "commit_least_loaded_scan",
    "commit_threshold_hybrid",
]


# ------------------------------------------------------------- loop bodies
def _least_loaded_of_sample_core(nodes, indptr, uniforms, loads, out):
    for i in range(len(indptr) - 1):
        start = indptr[i]
        end = indptr[i + 1]
        best = loads[nodes[start]]
        ties = 1
        pick = start
        for j in range(start + 1, end):
            load = loads[nodes[j]]
            if load < best:
                best = load
                ties = 1
                pick = j
            elif load == best:
                ties += 1
        if ties > 1:
            k = int(uniforms[i] * ties)
            for j in range(start, end):
                if loads[nodes[j]] == best:
                    if k == 0:
                        pick = j
                        break
                    k -= 1
        loads[nodes[pick]] += 1
        out[i] = pick


def _least_loaded_scan_core(nodes, dists, starts, counts, uniforms, loads, out):
    for i in range(len(starts)):
        start = starts[i]
        end = start + counts[i]
        best_load = loads[nodes[start]]
        best_dist = dists[start]
        ties = 1
        pick = start
        for j in range(start + 1, end):
            load = loads[nodes[j]]
            if load < best_load:
                best_load = load
                best_dist = dists[j]
                ties = 1
                pick = j
            elif load == best_load:
                dist = dists[j]
                if dist < best_dist:
                    best_dist = dist
                    ties = 1
                    pick = j
                elif dist == best_dist:
                    ties += 1
        if ties > 1:
            k = int(uniforms[i] * ties)
            for j in range(start, end):
                if loads[nodes[j]] == best_load and dists[j] == best_dist:
                    if k == 0:
                        pick = j
                        break
                    k -= 1
        loads[nodes[pick]] += 1
        out[i] = pick


def _threshold_hybrid_core(nodes, dists, indptr, threshold, uniforms, loads, out):
    for i in range(len(indptr) - 1):
        start = indptr[i]
        end = indptr[i + 1]
        min_load = loads[nodes[start]]
        for j in range(start + 1, end):
            load = loads[nodes[j]]
            if load < min_load:
                min_load = load
        limit = min_load + threshold
        found = False
        best_dist = dists[start]
        ties = 0
        pick = start
        for j in range(start, end):
            if loads[nodes[j]] <= limit:
                dist = dists[j]
                if not found or dist < best_dist:
                    found = True
                    best_dist = dist
                    ties = 1
                    pick = j
                elif dist == best_dist:
                    ties += 1
        if ties > 1:
            k = int(uniforms[i] * ties)
            for j in range(start, end):
                if loads[nodes[j]] <= limit and dists[j] == best_dist:
                    if k == 0:
                        pick = j
                        break
                    k -= 1
        loads[nodes[pick]] += 1
        out[i] = pick


# -------------------------------------------------------------- list entry
def _borrow_loads(num_nodes, initial_loads):
    """The working load list plus whether it must be copied back on exit.

    A :class:`~repro.kernels.loads.LoadVector` hands out its live list view —
    mutating it *is* updating the vector, so neither the O(n) ``tolist()`` on
    entry nor the O(n) write-back on exit happens; that is what makes tiny
    windows against large networks cheap.  Bare arrays keep the original
    round-trip contract.
    """
    if initial_loads is None:
        return [0] * int(num_nodes), False
    if isinstance(initial_loads, LoadVector):
        return initial_loads.as_list(), False
    return initial_loads.tolist(), True


def _run(core, m, num_nodes, initial_loads, *args) -> IntArray:
    """Run ``core`` over lists; ``args`` are the arrays, lists or scalars
    before the loads (arrays are converted, lists passed through)."""
    if m == 0:
        return np.empty(0, dtype=np.int64)
    loads, writeback = _borrow_loads(num_nodes, initial_loads)
    out = [0] * m
    core(
        *(a.tolist() if isinstance(a, np.ndarray) else a for a in args), loads, out
    )
    if writeback:
        initial_loads[:] = loads
    return np.asarray(out, dtype=np.int64)


def commit_least_loaded_of_sample(
    num_nodes: int,
    sample_nodes: IntArray,
    sample_counts: IntArray,
    sample_indptr: IntArray,
    tie_uniforms: np.ndarray,
    initial_loads: IntArray | None = None,
) -> IntArray:
    """Strategy II commit: least loaded of each request's sampled candidates.

    Returns the flat index into ``sample_nodes`` of every request's winner.
    ``initial_loads``, when given, seeds the load vector and receives the
    updated values in place — the mechanism behind incremental (session)
    serving, where the loads persist across request windows.
    """
    return _run(
        _least_loaded_of_sample_core,
        len(sample_counts),
        num_nodes,
        initial_loads,
        sample_nodes,
        sample_indptr,
        tie_uniforms,
    )


def commit_least_loaded_scan(
    num_nodes: int,
    cand_nodes: IntArray,
    cand_dists: IntArray,
    request_starts: IntArray,
    request_counts: IntArray,
    tie_uniforms: np.ndarray,
    initial_loads: IntArray | None = None,
) -> IntArray:
    """Omniscient commit: scan every candidate, pick the least loaded.

    Ties on load prefer the smaller hop distance; residual ties resolve via
    the pre-drawn uniforms.  Returns flat indices into ``cand_nodes``.
    ``initial_loads`` seeds (and receives back) the persistent load vector,
    as in :func:`commit_least_loaded_of_sample`.
    """
    return _run(
        _least_loaded_scan_core,
        len(request_starts),
        num_nodes,
        initial_loads,
        cand_nodes,
        cand_dists,
        request_starts,
        request_counts,
        tie_uniforms,
    )


def commit_threshold_hybrid(
    num_nodes: int,
    sample_nodes: IntArray,
    sample_dists: IntArray,
    sample_indptr: IntArray,
    threshold: float,
    tie_uniforms: np.ndarray,
    initial_loads: IntArray | None = None,
) -> IntArray:
    """Hybrid commit: closest sampled candidate within the load threshold.

    A candidate is eligible when its load is at most ``min sampled load +
    threshold``; the closest eligible candidate wins, residual distance ties
    resolve via the pre-drawn uniforms.  Returns flat indices into
    ``sample_nodes``.  ``initial_loads`` seeds (and receives back) the
    persistent load vector, as in :func:`commit_least_loaded_of_sample`.
    """
    return _run(
        _threshold_hybrid_core,
        len(sample_indptr) - 1,
        num_nodes,
        initial_loads,
        sample_nodes,
        sample_dists,
        sample_indptr,
        threshold,
        tie_uniforms,
    )
