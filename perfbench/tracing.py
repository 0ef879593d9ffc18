"""Span recording from outside the program: timing shims around public calls.

The benchmark does not trace inside ``src/``.  Instead :func:`install`
replaces public functions and methods of the layers named below with thin
wrappers that record one span per call.  Install before any session resolves
its engine: the engine tables of :mod:`repro.backends.builtin` bind their
functions the first time they load, and keyword defaults such as
``commit=commit_least_loaded_of_sample`` bind at import, so :func:`install`
rewrites module globals, class attributes and keyword defaults alike.

A span is ``(name, start_ns, end_ns, parent, window, extra)``.  ``parent`` is
the index of the enclosing span in the same task (a ``contextvars`` variable,
so asyncio tasks keep separate stacks) and ``window`` is the serve window or
server flush the span belongs to.  Spans stay in memory until
:meth:`Tracer.dump`.  A span's self time is its duration minus the time its
direct children cover.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import importlib
import inspect
import json
import statistics
import sys
import time

#: ``(module, attribute)`` -> span name.  Attributes may be ``Class.method``.
TARGETS = {
    ("repro.session.core", "CacheNetworkSession.serve"): "session.serve",
    ("repro.session.queueing", "QueueingSession.serve"): "session.serve",
    ("repro.session.core", "apply_uncached_policy"): "session.uncached",
    ("repro.kernels.loads", "LoadVector.max_at"): "loads.max_at",
    ("repro.kernels.group_index", "build_group_index"): "group_index.build",
    ("repro.kernels.group_index", "GroupStore.get_many"): "group_index.store.get_many",
    ("repro.kernels.group_index", "GroupStore.put_many"): "group_index.store.put_many",
    ("repro.topology.torus", "Torus2D.pairwise_distances"): "topology.pairwise_distances",
    ("repro.topology.torus", "Torus2D.distances_between"): "topology.distances_between",
    ("repro.kernels.sampling", "draw_sample_positions"): "sampling.draw",
    ("repro.kernels.sampling", "weighted_sample_positions"): "sampling.draw",
    ("repro.kernels.commit", "commit_least_loaded_of_sample"): "commit",
    ("repro.kernels.commit", "commit_least_loaded_scan"): "commit",
    ("repro.kernels.commit", "commit_threshold_hybrid"): "commit",
    ("repro.kernels.batch_commit", "commit_least_loaded_of_sample"): "commit",
    ("repro.kernels.batch_commit", "commit_least_loaded_scan"): "commit",
    ("repro.kernels.batch_commit", "commit_threshold_hybrid"): "commit",
    ("repro.kernels.queueing", "queueing_kernel_window"): "queueing.window",
    ("repro.kernels.queueing", "commit_window"): "queueing.commit_window",
    ("repro.kernels.batch_commit", "commit_window"): "queueing.commit_window",
    ("repro.kernels.queueing", "drain_departures"): "queueing.drain_departures",
    ("repro.workload.arrivals", "PoissonArrivalStream.take_until"): "workload.take_until",
    ("repro.service.protocol", "decode"): "service.parse",
    ("repro.service.protocol", "DispatchRequest.from_payload"): "service.parse",
    ("repro.service.state", "MicroBatchQueue.put"): "service.enqueue",
    ("repro.service.state", "MicroBatchQueue.collect"): "service.collect",
    ("repro.session.core", "CacheNetworkSession.dispatch_batch"): "service.flush",
    ("repro.service.journal", "DispatchJournal.append_batch"): "service.journal.append",
    ("repro.service.journal", "DispatchJournal.append_checkpoint"): "service.journal.checkpoint",
    ("repro.service.journal", "read_journal"): "journal.read",
    ("repro.service.journal", "recover_session"): "journal.replay",
}

_SERVE = "session.serve"


class Tracer:
    """In-memory span store; records only while :attr:`active`."""

    def __init__(self) -> None:
        self.active = False
        self.window = -1
        self.spans: list[list] = []
        self._parent: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_parent", default=-1
        )

    def begin(self, name: str) -> tuple[int, contextvars.Token]:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._parent.get(), self.window, None])
        return index, self._parent.set(index)

    def end(self, index: int, token: contextvars.Token) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._parent.reset(token)

    def dump(self, path, header: dict) -> None:
        """Write every span (and the run's environment header) as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"header": header, "spans": self.spans}, handle)


# ------------------------------------------------------------------ extras
def _commit_extra(fn_module: str, args, result):
    if fn_module == "repro.kernels.batch_commit":
        from repro.kernels import batch_commit

        stats = batch_commit.get_last_stats()
        return {
            "requests": stats.committed_vectorised + stats.committed_scalar,
            "rounds": stats.rounds,
            "fallbacks": stats.fallbacks,
            "vectorised": stats.committed_vectorised,
        }
    return {"requests": int(len(result)), "rounds": 0, "fallbacks": 0, "vectorised": 0}


def _extra(name: str, fn_module: str, args, result):
    """Counts recorded at the boundary, so ratios come from where work happens."""
    if name == "commit":
        return _commit_extra(fn_module, args, result)
    if name == "group_index.store.get_many":
        hits = int(result[0].sum())
        return {"hits": hits, "misses": int(result[0].size) - hits}
    if name == "group_index.store.put_many":
        return {"rows": len(args[0])}
    if name == "session.serve" and hasattr(result, "remapped_requests"):
        return {"remapped": int(result.remapped_requests)}
    if name == "service.flush":
        return {"requests": int(len(args[1]))}
    if name == "journal.replay":
        return {"checkpoints_verified": int(result.checkpoints_verified)}
    return None


def _wrap(tracer: Tracer, name: str, fn_module: str, fn):
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            if not tracer.active:
                return await fn(*args, **kwargs)
            index, token = tracer.begin(name)
            try:
                result = await fn(*args, **kwargs)
            finally:
                tracer.end(index, token)
            if name == "service.collect" and result is not None:
                now = asyncio.get_running_loop().time()
                tracer.spans[index][5] = {
                    "waits": [now - item.enqueued_at for item in result]
                }
            return result

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        if name == "service.flush":
            tracer.window += 1
        if name == "service.enqueue":
            _watch_future(tracer, args[1])
        index, token = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index, token)
        extra = _extra(name, fn_module, args, result)
        if extra is not None:
            tracer.spans[index][5] = extra
        return result

    return wrapper


def _watch_future(tracer: Tracer, item) -> None:
    """Record enqueue-to-resolve time per acknowledged ``seq`` (server side)."""
    loop = asyncio.get_running_loop()
    enqueued = item.enqueued_at

    def done(future) -> None:
        if future.cancelled() or future.exception() is not None:
            return
        seq = int(future.result()[0])
        tracer.spans.append(
            ["service.resolve", 0, 0, -1, tracer.window, {"seq": seq, "s": loop.time() - enqueued}]
        )

    item.future.add_done_callback(done)


def _resolve(module_name: str, attr: str):
    module = importlib.import_module(module_name)
    owner = module
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer) -> None:
    """Replace every target with a recording wrapper, everywhere it is bound.

    Modules imported later bind the wrappers themselves; the copies made by
    modules already imported are rebound by :func:`_rebind`.
    """
    replaced = {}
    for (module_name, attr), name in TARGETS.items():
        owner, leaf = _resolve(module_name, attr)
        raw = inspect.getattr_static(owner, leaf)
        if isinstance(raw, classmethod):
            wrapped = _wrap(tracer, name, module_name, raw.__func__)
            setattr(owner, leaf, classmethod(wrapped))
            continue
        wrapped = _wrap(tracer, name, module_name, raw)
        setattr(owner, leaf, wrapped)
        if inspect.isclass(owner):
            continue
        replaced[id(raw)] = (raw, wrapped)
    _rebind(replaced)


def _rebind(replaced: dict) -> None:
    """Point module-level aliases and keyword defaults at the wrappers."""
    for module in list(sys.modules.values()):
        if module is None or not getattr(module, "__name__", "").startswith("repro"):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                namespace[key] = hit[1]
        for value in list(namespace.values()):
            for fn in _functions_of(value, module.__name__):
                defaults = fn.__kwdefaults__
                if not defaults:
                    continue
                for key, default in defaults.items():
                    hit = replaced.get(id(default))
                    if hit is not None and hit[0] is default:
                        defaults[key] = hit[1]


def _functions_of(value, module_name: str):
    if inspect.isfunction(value) and value.__module__ == module_name:
        yield inspect.unwrap(value)
    elif inspect.isclass(value) and value.__module__ == module_name:
        for member in vars(value).values():
            if inspect.isfunction(member):
                yield inspect.unwrap(member)


# ------------------------------------------------------------- reduction
def _self_times(spans) -> list[float]:
    """Per-span self time in ns: duration minus direct children's durations."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        parent = span[3]
        if parent >= 0 and span[0] != "service.resolve":
            own[parent] -= span[2] - span[1]
    return own


def _ms(ns: float) -> float:
    return ns / 1e6


def reduce_spans(spans) -> dict[str, float]:
    """Per-layer metrics from one process's spans (names as in BENCHMARK.json)."""
    own = _self_times(spans)
    total: dict[str, float] = {}
    self_ns: dict[str, float] = {}
    calls: dict[str, int] = {}
    sums: dict[str, float] = {}
    waits: list[float] = []
    sizes: list[int] = []
    rows = 0
    for index, span in enumerate(spans):
        name, start, end, _parent, _window, extra = span
        if name == "service.resolve":
            continue
        total[name] = total.get(name, 0) + (end - start)
        self_ns[name] = self_ns.get(name, 0) + own[index]
        calls[name] = calls.get(name, 0) + 1
        if not extra:
            continue
        if name == "service.collect":
            waits.extend(extra["waits"])
        elif name == "service.flush":
            sizes.append(extra["requests"])
        elif name == "group_index.store.put_many":
            rows = max(rows, extra["rows"])
        else:
            for key, value in extra.items():
                sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0) + value
    hits = sums.get("group_index.store.get_many.hits", 0)
    misses = sums.get("group_index.store.get_many.misses", 0)
    commit_requests = sums.get("commit.requests", 0)
    serve_total = total.get(_SERVE, 0)
    return {
        "group_index.build.calls": calls.get("group_index.build", 0),
        "group_index.build.self_ms": _ms(self_ns.get("group_index.build", 0)),
        "group_index.store.hits": hits,
        "group_index.store.misses": misses,
        "group_index.store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "group_index.store.rows": rows,
        "topology.pairwise_distances.calls": calls.get("topology.pairwise_distances", 0),
        "topology.pairwise_distances.ms": _ms(total.get("topology.pairwise_distances", 0)),
        "topology.distances_between.ms": _ms(total.get("topology.distances_between", 0)),
        "sampling.draw.calls": calls.get("sampling.draw", 0),
        "sampling.draw.ms": _ms(total.get("sampling.draw", 0)),
        "commit.calls": calls.get("commit", 0),
        "commit.ms": _ms(total.get("commit", 0)),
        "commit.requests": commit_requests,
        "commit.rounds": sums.get("commit.rounds", 0),
        "commit.scalar_fallbacks": sums.get("commit.fallbacks", 0),
        "commit.vectorised_ratio": (
            sums.get("commit.vectorised", 0) / commit_requests if commit_requests else 0.0
        ),
        "queueing.window.self_ms": _ms(self_ns.get("queueing.window", 0)),
        "queueing.commit_window.ms": _ms(total.get("queueing.commit_window", 0)),
        "queueing.drain_departures.ms": _ms(total.get("queueing.drain_departures", 0)),
        "workload.take_until.ms": _ms(total.get("workload.take_until", 0)),
        "session.serve.calls": calls.get(_SERVE, 0),
        "session.serve.self_ms": _ms(self_ns.get(_SERVE, 0)),
        "session.uncached.ms": _ms(total.get("session.uncached", 0)),
        "session.remapped": sums.get("session.serve.remapped", 0),
        "loads.max_at.ms": _ms(total.get("loads.max_at", 0)),
        "service.parse.ms": _ms(total.get("service.parse", 0)),
        "service.queue_wait_ms.p50": statistics.median(waits) * 1e3 if waits else 0.0,
        "service.flush.calls": calls.get("service.flush", 0),
        "service.flush.ms": _ms(total.get("service.flush", 0)),
        "service.batch_size.mean": statistics.fmean(sizes) if sizes else 0.0,
        "service.journal.append.ms": _ms(total.get("service.journal.append", 0)),
        "service.journal.checkpoint.ms": _ms(total.get("service.journal.checkpoint", 0)),
        "journal.read.ms": _ms(total.get("journal.read", 0)),
        "journal.replay.ms": _ms(
            total.get("journal.replay", 0) - total.get("journal.read", 0)
        ),
        "journal.checkpoints_verified": sums.get("journal.replay.checkpoints_verified", 0),
        # Filled in by the service workload, which alone has a client side
        # and a journal file.
        "service.transport_ms.p50": 0.0,
        "service.journal.bytes": 0,
        "trace.serve_coverage": (
            1.0 - self_ns.get(_SERVE, 0) / serve_total if serve_total else 0.0
        ),
    }


def server_resolve_times(spans) -> dict[int, float]:
    """``seq`` -> seconds from enqueue to resolve, as the server saw it."""
    return {
        span[5]["seq"]: span[5]["s"] for span in spans if span[0] == "service.resolve"
    }
