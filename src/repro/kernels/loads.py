"""A dual-view persistent load vector for windowed serving.

The commit loops in :mod:`repro.kernels.commit` deliberately run over plain
Python lists (no numpy scalar boxing), while every vectorised consumer — the
batch commit engine, ``np.bincount`` bumps, snapshots, digests — wants an
``int64`` ndarray.  A session serving tiny windows against a large network
used to pay an O(n) ``tolist()`` / ``initial_loads[:] = loads`` round-trip
*per window* to bridge the two; at n = 65536 with 16-request windows that
conversion dominates the serving cost entirely.

:class:`LoadVector` keeps both representations but marks exactly one of them
authoritative at a time.  :meth:`as_list` and :meth:`as_array` hand out the
requested view, converting only when the *other* view holds the truth — so a
session pinned to one engine converts once on the first window and then
serves every following window with zero O(n) work.  Both views are live
references: mutating the returned list (or array) in place *is* mutating the
vector, which is exactly how the commit loops use it.

``loads += np.bincount(...)`` (``__iadd__``) bumps the array view, so the
replica-strategy kernels update a :class:`LoadVector` exactly as they update a
bare array.
"""

from __future__ import annotations

import numpy as np

from repro.types import IntArray

__all__ = ["LoadVector", "as_load_array"]


class LoadVector:
    """Per-server load counts with one authoritative view (array or list)."""

    __slots__ = ("_array", "_list")

    def __init__(self, num_nodes: int | None = None, *, array: IntArray | None = None):
        if array is not None:
            self._array = np.ascontiguousarray(array, dtype=np.int64)
        elif num_nodes is not None:
            self._array = np.zeros(int(num_nodes), dtype=np.int64)
        else:
            raise ValueError("LoadVector needs num_nodes or an initial array")
        self._list: list[int] | None = None  # non-None => the list is authoritative

    # ------------------------------------------------------------------ views
    def as_array(self) -> IntArray:
        """The int64 array view, made authoritative (syncing if stale)."""
        if self._list is not None:
            self._array[:] = self._list
            self._list = None
        return self._array

    def as_list(self) -> list[int]:
        """The plain-list view, made authoritative (syncing if stale)."""
        if self._list is None:
            self._list = self._array.tolist()
        return self._list

    def readonly_array(self) -> IntArray:
        """A synced array view *without* flipping authority.

        For monitoring reads (snapshots, digests) interleaved with list-based
        commits: the list stays authoritative, so the next commit pays no
        re-conversion.  Callers must not mutate the result while the list
        view is authoritative.
        """
        if self._list is not None:
            self._array[:] = self._list
        return self._array

    # ------------------------------------------------------------- operations
    def fill(self, value: int) -> None:
        """Reset every entry to ``value`` (array view becomes authoritative)."""
        self._list = None
        self._array.fill(value)

    def max_at(self, servers: IntArray, floor: int = 0) -> int:
        """``max(floor, max(loads[servers]))`` from the authoritative view.

        O(len(servers)) — the incremental-maximum helper for sessions whose
        loads only ever grow at that window's winners.
        """
        if len(servers) == 0:
            return int(floor)
        if self._list is not None:
            lst = self._list
            best = int(floor)
            for s in servers.tolist() if isinstance(servers, np.ndarray) else servers:
                v = lst[s]
                if v > best:
                    best = v
            return best
        return max(int(floor), int(self._array[servers].max()))

    def __iadd__(self, other):
        arr = self.as_array()
        arr += other
        return self

    def __repr__(self) -> str:
        view = "list" if self._list is not None else "array"
        return f"LoadVector(n={self._array.size}, authoritative={view!r})"


def as_load_array(loads) -> IntArray:
    """Coerce a load argument (``LoadVector`` | ndarray | list) to int64 array.

    ``LoadVector`` hands back its live array view (mutations propagate);
    int64 ndarrays pass through unchanged; anything else is converted.
    """
    if isinstance(loads, LoadVector):
        return loads.as_array()
    if isinstance(loads, np.ndarray) and loads.dtype == np.int64:
        return loads
    return np.asarray(loads, dtype=np.int64)
