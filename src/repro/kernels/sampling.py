"""Batched without-replacement candidate sampling (the d-choice draw).

The paper's Strategy II samples ``d`` replicas uniformly without replacement
from every request's candidate set.  That draw is independent of the evolving
load vector, so all of it can happen before the commit loop.

The draw uses sequential shifted-uniform sampling (the textbook equivalent of
a Gumbel-top-k pass that needs only ``d`` uniforms instead of one key per
candidate): the ``j``-th pick is ``floor(u_j * (c - j))`` mapped over the
positions not yet taken, which selects a uniform random ``d``-subset in
uniform random order while consuming exactly ``d`` doubles per request.

RNG-stream contract (shared with the scalar reference engine, see
``repro/kernels/__init__.py``):

* requests are visited in batch order; a request whose candidate set has
  ``c <= d`` members consumes **no** sampling randomness (all candidates are
  taken, in candidate order);
* a request with ``c > d`` candidates consumes exactly ``d`` consecutive
  doubles ``u_0 .. u_{d-1}`` from the sampling stream; its ``j``-th sampled
  position is ``floor(u_j * (c - j))`` shifted past the ``j`` positions
  already taken (in ascending order of taken position).

Because ``Generator.random(k)`` consumes exactly ``k`` doubles, one batched
``rng.random(d * num_sampling_requests)`` call here splits into the same
per-request draws the reference engine makes one by one, making the two
engines bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.group_index import segmented_arange
from repro.types import IntArray

__all__ = [
    "draw_sample_positions",
    "shifted_uniform_positions",
    "shifted_uniform_sample",
    "weighted_pick_positions",
    "weighted_sample_positions",
]


def shifted_uniform_sample(
    counts: IntArray, uniforms: np.ndarray, num_choices: int
) -> np.ndarray:
    """Map per-request uniforms to without-replacement sample positions.

    ``counts`` has shape ``(k,)`` (all entries ``> num_choices``) and
    ``uniforms`` shape ``(k, num_choices)``; the result has shape
    ``(k, num_choices)`` with row ``i`` a uniform random ``d``-subset of
    ``range(counts[i])`` in uniform random order.
    """
    k = counts.size
    d = int(num_choices)
    picks = np.empty((k, d), dtype=np.int64)
    for j in range(d):
        pick = (uniforms[:, j] * (counts - j)).astype(np.int64)
        if j:
            taken = np.sort(picks[:, :j], axis=1)
            for t in range(j):
                pick += pick >= taken[:, t]
        picks[:, j] = pick
    return picks


def shifted_uniform_positions(count: int, uniforms: list[float]) -> list[int]:
    """One request's row of :func:`shifted_uniform_sample`, over plain floats.

    ``count`` candidates (more than ``len(uniforms)``), one uniform per pick;
    the same products and truncations as the batched pass, so the picks are
    identical.  The small-window path of :mod:`repro.kernels.engine` maps its
    draws with it.
    """
    picks: list[int] = []
    for j, u in enumerate(uniforms):
        pick = int(u * (count - j))
        for taken in sorted(picks):
            if pick >= taken:
                pick += 1
        picks.append(pick)
    return picks


def draw_sample_positions(
    counts: IntArray, num_choices: int, rng: np.random.Generator
) -> tuple[IntArray, IntArray, IntArray]:
    """Draw every request's ``d``-choice sample positions in one batched pass.

    Parameters
    ----------
    counts:
        Candidate-set size of every request, shape ``(m,)`` (all positive).
    num_choices:
        Number of candidates to sample per request (``d``).
    rng:
        The sampling stream (consumed according to the contract above).

    Returns
    -------
    (positions, sample_counts, sample_indptr):
        CSR layout of per-request sampled positions *within the request's
        candidate set*: request ``i`` sampled
        ``positions[sample_indptr[i]:sample_indptr[i + 1]]`` (of size
        ``min(counts[i], d)``).
    """
    counts = np.asarray(counts, dtype=np.int64)
    m = counts.size
    d = int(num_choices)
    need = counts > d

    sample_counts = np.minimum(counts, d)
    sample_indptr = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(sample_counts)]
    )
    positions = np.empty(int(sample_indptr[-1]), dtype=np.int64)
    if m == 0:
        return positions, sample_counts, sample_indptr

    take_all = ~need
    if np.any(take_all):
        reps = sample_counts[take_all]
        dest = np.repeat(sample_indptr[:-1][take_all], reps) + segmented_arange(reps)
        positions[dest] = segmented_arange(reps)

    rows = np.flatnonzero(need)
    if rows.size:
        # One batched draw; reshaped row-major so row i holds the d
        # consecutive doubles request rows[i] would draw scalar-wise.
        uniforms = rng.random(rows.size * d).reshape(rows.size, d)
        picks = shifted_uniform_sample(counts[rows], uniforms, d)
        dest = sample_indptr[rows][:, None] + np.arange(d, dtype=np.int64)
        positions[dest] = picks
    return positions, sample_counts, sample_indptr


def weighted_pick_positions(weights: list[float], uniforms: list[float]) -> list[int]:
    """Successive weighted sampling without replacement (one request).

    The ``j``-th pick inverts the CDF of the not-yet-taken candidates in
    candidate order at ``u_j * (remaining total weight)``; the picked weight
    is then removed from the total.  The remaining total is maintained by
    sequential subtraction (and the initial total by sequential addition in
    candidate order), so the routine is a deterministic function of the float
    operation order — the property the kernel/reference bit-identity of the
    queueing engines relies on.

    A candidate set whose total weight is not positive degenerates to the
    uniform rule (all weights treated as 1).
    """
    total = 0.0
    for w in weights:
        total += w
    if not total > 0.0:
        weights = [1.0] * len(weights)
        total = float(len(weights))
    taken: list[int] = []
    picks: list[int] = []
    for u in uniforms:
        target = u * total
        acc = 0.0
        pick = -1
        for pos, w in enumerate(weights):
            if pos in taken:
                continue
            acc += w
            pick = pos
            if target < acc:
                break
        taken.append(pick)
        picks.append(pick)
        total -= weights[pick]
    return picks


def weighted_sample_positions(
    counts: IntArray,
    starts: IntArray,
    flat_weights: np.ndarray,
    num_choices: int,
    rng: np.random.Generator,
) -> tuple[IntArray, IntArray, IntArray]:
    """Weighted ``d``-choice sampling with the uniform sampler's RNG shape.

    ``counts[i]`` candidates of request ``i`` carry the positive weights
    ``flat_weights[starts[i] : starts[i] + counts[i]]``; request ``i`` samples
    ``min(counts[i], d)`` of them without replacement, biased by weight via
    :func:`weighted_pick_positions`.  The randomness consumption is identical
    to :func:`draw_sample_positions` — a request consumes exactly ``d``
    doubles iff it has more than ``d`` candidates — so the two samplers are
    interchangeable under the queueing RNG-stream contract, and equal weights
    reproduce the uniform sampler's picks bit for bit.

    Returns the same ``(positions, sample_counts, sample_indptr)`` CSR layout
    as :func:`draw_sample_positions`.
    """
    counts = np.asarray(counts, dtype=np.int64)
    m = counts.size
    d = int(num_choices)
    need = counts > d

    sample_counts = np.minimum(counts, d)
    sample_indptr = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(sample_counts)]
    )
    positions = np.empty(int(sample_indptr[-1]), dtype=np.int64)
    if m == 0:
        return positions, sample_counts, sample_indptr

    take_all = ~need
    if np.any(take_all):
        reps = sample_counts[take_all]
        dest = np.repeat(sample_indptr[:-1][take_all], reps) + segmented_arange(reps)
        positions[dest] = segmented_arange(reps)

    rows = np.flatnonzero(need)
    if rows.size:
        uniforms = rng.random(rows.size * d).reshape(rows.size, d)
        starts = np.asarray(starts, dtype=np.int64)
        weights = flat_weights.tolist()
        starts_list = starts[rows].tolist()
        counts_list = counts[rows].tolist()
        dest_base = sample_indptr[rows].tolist()
        uniform_rows = uniforms.tolist()
        for row in range(len(starts_list)):
            lo = starts_list[row]
            picks = weighted_pick_positions(
                weights[lo : lo + counts_list[row]], uniform_rows[row]
            )
            base = dest_base[row]
            for j, pick in enumerate(picks):
                positions[base + j] = pick
    return positions, sample_counts, sample_indptr
