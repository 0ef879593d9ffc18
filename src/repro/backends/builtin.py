"""Registration of the built-in engines (imported lazily by the registry).

Three backends per family:

========== ======== ========================================================
engine     priority implementation
========== ======== ========================================================
reference  0        scalar per-request / per-arrival loops — the direct
                    transcription of the paper's process definitions and the
                    authority when engines disagree
kernel     10       batched numpy precompute + a commit picked by the window:
                    the pure-Python loop, or the speculate-and-repair rounds
                    of :mod:`repro.kernels.batch_commit` for large static
                    windows on large networks (the queueing event loop is
                    always the pure-Python one)
numba      20       the kernel precompute with ``@njit``-compiled commit
                    loops; listed always, selectable only where ``numba``
                    imports
========== ======== ========================================================

``"auto"`` resolves to the highest-priority *available* engine: ``kernel`` on
a plain numpy install, ``numba`` once numba imports.

The operation tables are registered as zero-argument loaders, so merely
importing this module never pulls in an implementation; the numba table in
particular is only built (triggering compilation on first call) when that
engine is actually selected.
"""

from __future__ import annotations

from functools import partial

from repro.backends.registry import register_engine


def _assignment_reference_fns():
    from repro.kernels import reference as ref

    return {
        "two_choice": ref.two_choice_reference,
        "least_loaded": ref.least_loaded_reference,
        "threshold_hybrid": ref.threshold_hybrid_reference,
        "random_replica": ref.random_replica_reference,
        "nearest_replica": ref.nearest_replica_reference,
    }


def _assignment_kernel_fns():
    from repro.kernels import engine as kernel

    return {
        "two_choice": kernel.two_choice_kernel,
        "least_loaded": kernel.least_loaded_kernel,
        "threshold_hybrid": kernel.threshold_hybrid_kernel,
        "random_replica": kernel.random_replica_kernel,
        "nearest_replica": kernel.nearest_replica_kernel,
    }


def _assignment_numba_fns():
    from repro.backends import numba_backend as nb
    from repro.kernels import engine as kernel

    # Every store-building strategy gets the compiled precompute row (a no-op
    # off the torus); the commit loops compile where they exist.
    # ``nearest_replica`` never materialises candidate sets, so it runs the
    # kernel engine's single vectorised pass unchanged.
    return {
        "two_choice": partial(
            kernel.two_choice_kernel,
            commit=nb.commit_least_loaded_of_sample,
            row_kernel=nb.torus_row_kernel,
        ),
        "least_loaded": partial(
            kernel.least_loaded_kernel,
            commit=nb.commit_least_loaded_scan,
            row_kernel=nb.torus_row_kernel,
        ),
        "threshold_hybrid": partial(
            kernel.threshold_hybrid_kernel,
            commit=nb.commit_threshold_hybrid,
            row_kernel=nb.torus_row_kernel,
        ),
        "random_replica": partial(
            kernel.random_replica_kernel, row_kernel=nb.torus_row_kernel
        ),
        "nearest_replica": kernel.nearest_replica_kernel,
    }


def _queueing_reference_fns():
    from repro.kernels.queueing import queueing_reference_window

    return {"window": queueing_reference_window}


def _queueing_kernel_fns():
    from repro.kernels.queueing import queueing_kernel_window

    return {"window": queueing_kernel_window}


def _queueing_numba_fns():
    from repro.backends import numba_backend as nb
    from repro.kernels.queueing import queueing_kernel_window

    return {
        "window": partial(
            queueing_kernel_window,
            commit=nb.commit_window,
            row_kernel=nb.torus_row_kernel,
        )
    }


register_engine(
    "reference",
    family="assignment",
    commit_fns=_assignment_reference_fns,
    priority=0,
    supports_streaming=False,
    description="scalar per-request loop (differential-testing authority)",
)
register_engine(
    "kernel",
    family="assignment",
    commit_fns=_assignment_kernel_fns,
    priority=10,
    supports_streaming=True,
    description="batched precompute + scalar or speculative commit by window size",
)
register_engine(
    "numba",
    family="assignment",
    commit_fns=_assignment_numba_fns,
    requires=("numba",),
    priority=20,
    supports_streaming=True,
    description="@njit-compiled precompute row + commit loop",
)

register_engine(
    "reference",
    family="queueing",
    commit_fns=_queueing_reference_fns,
    priority=0,
    supports_streaming=True,
    description="scalar per-arrival event loop (differential-testing authority)",
)
register_engine(
    "kernel",
    family="queueing",
    commit_fns=_queueing_kernel_fns,
    priority=10,
    supports_streaming=True,
    description="event-batched precompute + pure-Python event loop",
)
register_engine(
    "numba",
    family="queueing",
    commit_fns=_queueing_numba_fns,
    requires=("numba",),
    priority=20,
    supports_streaming=True,
    description="@njit-compiled precompute row + event loop",
)
