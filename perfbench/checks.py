"""Correctness checks the benchmark runs outside its timed region.

Each check returns the number of failed items (0 when it passes) and a short
detail string, so a mismatch both fails the run and counts toward ``failed``.
"""

from __future__ import annotations

import numpy as np


def decision_mismatches(servers, distances, ref_servers, ref_distances) -> int:
    """Decisions that differ from the reference, position by position."""
    servers = np.asarray(servers)
    ref_servers = np.asarray(ref_servers)
    if servers.shape != ref_servers.shape:
        return max(servers.size, ref_servers.size)
    return int(
        np.count_nonzero(
            (servers != ref_servers) | (np.asarray(distances) != np.asarray(ref_distances))
        )
    )


def static_prefix(assignment, reference, prefix: int) -> tuple[int, str]:
    """The first ``prefix`` decisions of a window against the reference engine's."""
    bad = decision_mismatches(
        assignment.servers[:prefix],
        assignment.distances[:prefix],
        reference.servers,
        reference.distances,
    )
    return bad, f"{bad} of {prefix} prefix decisions differ from the reference engine"


def loads_sum(loads, served: int) -> tuple[int, str]:
    """Every served request adds exactly one unit of load."""
    total = int(np.asarray(loads).sum())
    bad = 0 if total == served else 1
    return bad, f"loads sum to {total}, {served} requests served"


def queueing_prefix(summaries, reference_summaries) -> tuple[int, str]:
    """Per-window results of a prefix against the ``kernel`` engine's, exactly."""
    count = len(reference_summaries)
    bad = sum(
        1 for got, want in zip(summaries[:count], reference_summaries) if got != want
    )
    bad += max(0, count - len(summaries))
    return bad, f"{bad} of {count} prefix windows differ from the kernel engine"


def service_replay(seqs, origins, files, servers, distances, session) -> tuple[int, str]:
    """Acknowledged decisions, in ``seq`` order, against an offline replay.

    The server's ``seq`` is its commit order, so the acknowledged requests
    must cover ``0 .. N-1`` without gaps, and serving them through a fresh
    session with the server's spec must reproduce every decision.
    """
    seqs, origins, files, servers, distances = (
        np.asarray(a) for a in (seqs, origins, files, servers, distances)
    )
    order = np.argsort(seqs, kind="stable")
    if not np.array_equal(seqs[order], np.arange(seqs.size)):
        return max(1, seqs.size), "acknowledged seqs are not gapless 0..N-1"
    offline = session.dispatch_batch(origins[order], files[order])
    bad = decision_mismatches(
        servers[order], distances[order], offline.servers, offline.distances
    )
    return bad, f"{bad} of {seqs.size} served decisions differ from offline replay"


def journal_recovery(recovered, checkpoints: int, acked: int) -> tuple[int, str]:
    """``recover_session`` verified every checkpoint and resumes after every ack."""
    bad = 0
    if recovered.checkpoints_verified != checkpoints or checkpoints == 0:
        bad += 1
    if recovered.next_seq != acked:
        bad += 1
    return bad, (
        f"replay verified {recovered.checkpoints_verified} of {checkpoints} checkpoints, "
        f"next_seq {recovered.next_seq} for {acked} acknowledged requests"
    )
