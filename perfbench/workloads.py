"""The four benchmark workloads, each loading a different layer of the stack.

Every workload builds its inputs from the seed before its timed region,
times only calls into the program, then checks the program's outputs.  A
workload returns an :class:`Outcome`; ``run.py`` turns it into the record.
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import loaddriver
from calibration import Calibration, Timeline

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

#: Sessions opened per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Requests of the first window compared with the ``reference`` engine.
REFERENCE_PREFIX = 4096

WHY = {
    "static-proximity": (
        "Strategy II at paper scale: the cold group-index build (torus distance "
        "matrices) is ~99% of serve time and the GroupStore hit rate stays ~2%"
    ),
    "static-unconstrained": (
        "the r=inf baseline aliases the replica index and computes no distances, "
        "so sampling and the d-choice commit carry the work"
    ),
    "queueing": (
        "the supermarket event loop (commit_window, drain_departures) carries real "
        "work and the GroupStore hit rate climbs as the run goes"
    ),
    "service": (
        "repro serve with 1-2 request windows: fixed per-call cost, the service "
        "path and the journal (written live, read back by recovery) dominate"
    ),
}


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)
    info: list = field(default_factory=list)

    def check(self, name: str, result: tuple[int, str]) -> None:
        bad, detail = result
        self.failed += bad
        self.checks.append((name, bad == 0, detail))


def percentile_ms(seconds, q: float) -> float:
    return float(np.percentile(np.asarray(seconds), q)) * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def offline_figures(served: int, windows, setups) -> dict:
    return {
        "req_per_s": served / sum(windows),
        "setup_s": statistics.median(setups),
    }


def timing_metrics(out: Outcome, served: int, windows: Timeline, setups: Timeline) -> None:
    """Scaled end-to-end times of an offline run; the unscaled ones go to ``info``."""
    scaled = windows.scaled()
    out.metrics.update(offline_figures(served, scaled, setups.scaled()))
    out.info.append(
        f"window latency ({len(scaled)} samples, scaled, printed, not gated): "
        f"p50 {percentile_ms(scaled, 50):.4g} ms, p90 {percentile_ms(scaled, 90):.4g} ms, "
        f"p99 {percentile_ms(scaled, 99):.4g} ms"
    )
    unscaled = offline_figures(served, windows.times, setups.times)
    out.info.append(calibration_line(windows.cal, unscaled))


def calibration_line(cal: Calibration, unscaled: dict) -> str:
    figures = ", ".join(f"{name} {value:.6g}" for name, value in unscaled.items())
    return (
        f"calibration ({cal.kind} loop): {len(cal.samples)} probes, median "
        f"{1e3 * statistics.median(cal.samples):.4f} ms against "
        f"{1e3 * cal.reference_s:g} ms; unscaled {figures}"
    )


def theory_line(measured_l, measured_c, config) -> str:
    from repro.simulation.config import SimulationConfig
    from repro.theory import predict

    prediction = predict(SimulationConfig.from_dict(config))
    return (
        f"L={measured_l} (theory order {prediction.max_load_order:.3f}), "
        f"C={measured_c:.4f} (theory order {prediction.comm_cost_order:.3f}) "
        "- information only"
    )


# ------------------------------------------------------------------ static
def static_config(radius) -> dict:
    params = {"num_choices": 2}
    if radius is not None:
        params["radius"] = radius
    return {
        "num_nodes": 65536,
        "num_files": 128,
        "cache_size": 8,
        "topology": "torus",
        "popularity": "zipf",
        "popularity_params": {"gamma": 0.8},
        "placement": "proportional",
        "strategy": "proximity_two_choice",
        "strategy_params": params,
    }


STATIC = {
    # radius, window size, distinct windows generated, windows per traced
    # phase, calibration loop (the proximity build streams large distance
    # matrices through memory; the unconstrained commit stays in cache)
    "static-proximity": (8, 16384, 64, 2, "memory"),
    "static-unconstrained": (None, 65536, 32, 160, "cpu"),
}


def static_windows(session, seed: int, size: int, count: int):
    from repro.workload.request import RequestBatch

    rng = np.random.default_rng([seed, 1])
    n = session.topology.n
    pmf = session.library.popularity_vector()
    return [
        RequestBatch(
            origins=rng.integers(0, n, size=size),
            files=rng.choice(pmf.size, size=size, p=pmf),
            num_nodes=n,
            num_files=pmf.size,
        )
        for _ in range(count)
    ]


def run_static(name: str, seed: int, seconds: float, tracer) -> Outcome:
    from repro.session import open_session

    radius, size, distinct, traced_windows, kind = STATIC[name]
    config = static_config(radius)
    out = Outcome()
    cal = Calibration(kind)
    setups = Timeline(cal)
    for _ in range(SETUP_REPEATS):
        session, elapsed = timed(open_session, config, seed)
        setups.add(elapsed)
    out.info.append(f"engine: {session.snapshot().engine}")
    windows = static_windows(session, seed, size, distinct)
    first = []

    def serve(count=None, until=None, timeline=None):
        latencies = []
        while True:
            index = session.num_windows
            window = windows[index % len(windows)]
            if tracer is not None:
                tracer.window = index
            result, elapsed = timed(session.serve, window)
            if index == 0:
                first.append(result.assignment)
            latencies.append(elapsed)
            if timeline is not None:
                timeline.add(elapsed)
            if count is not None and len(latencies) >= count:
                return latencies
            if until is not None and len(latencies) >= 2 and (
                time.perf_counter() + statistics.fmean(latencies) > until
            ):
                return latencies

    if tracer is None:
        # The first window pays one-off allocations; it is served untimed.
        serve(count=1)
        timeline = Timeline(cal)
        serve(until=time.perf_counter() + seconds, timeline=timeline)
        timing_metrics(out, size * len(timeline.times), timeline, setups)
        out.metrics["peak_rss_mb"] = peak_rss_mb()
    else:
        plain = serve(count=traced_windows)
        tracer.active = True
        traced = serve(count=traced_windows)
        tracer.active = False
        out.per_layer["trace.overhead_ratio"] = sum(traced) / sum(plain) - 1.0
    served = session.num_requests_served
    out.attempted = served

    reference = open_session(config, seed, assignment_engine="reference")
    prefix = windows[0].subset(np.arange(REFERENCE_PREFIX))
    ref_assignment = reference.serve(prefix).assignment
    out.check("reference prefix", checks.static_prefix(first[0], ref_assignment, REFERENCE_PREFIX))
    out.check("loads sum", checks.loads_sum(session.loads(), served))
    snap = session.snapshot()
    out.info.append(theory_line(snap.max_load, snap.communication_cost, config))
    return out


# ---------------------------------------------------------------- queueing
#: Simulated seconds per episode; every episode opens a fresh session.
QUEUEING_HORIZON = 120
#: Windows of the first episode compared with the ``kernel`` engine.
QUEUEING_PREFIX = 10
#: Session opens per run; ``setup_s`` is their median.
QUEUEING_OPENS = 30


def open_queueing(seed: int, engine: str = "auto"):
    from repro.catalog.library import FileLibrary
    from repro.catalog.popularity import create_popularity
    from repro.placement.factory import create_placement
    from repro.session import open_queueing_session
    from repro.topology.factory import create_topology
    from repro.workload import PoissonArrivalProcess

    return open_queueing_session(
        create_topology("torus", 4096),
        FileLibrary(128, create_popularity("uniform", 128)),
        create_placement("partition", 8),
        PoissonArrivalProcess(rate_per_node=0.9),
        seed=seed,
        service_rate=1.0,
        radius=8,
        num_choices=2,
        engine=engine,
    )


def queueing_episode(seed: int, tracer, timeline: Timeline | None = None):
    """One episode on a fresh session; each window's time goes to ``timeline``."""
    session = open_queueing(seed)
    latencies = []
    summaries = []
    for step in range(1, QUEUEING_HORIZON + 1):
        if tracer is not None:
            tracer.window = step
        result, elapsed = timed(session.serve, float(step))
        latencies.append(elapsed)
        summaries.append(result.summary())
        if timeline is not None:
            timeline.add(elapsed)
    return session, latencies, summaries


def run_queueing(seed: int, seconds: float, tracer) -> Outcome:
    out = Outcome()
    cal = Calibration("cpu")
    start = time.perf_counter()
    # Opening takes milliseconds, so take many samples for ``setup_s``.
    setups = Timeline(cal)
    for _ in range(QUEUEING_OPENS):
        setups.add(timed(open_queueing, seed)[1])
    # Only the first episode's session is kept (for the checks), so peak
    # memory does not grow with the number of episodes a run fits in.
    first, latencies, summaries_first = queueing_episode(seed, None)
    arrivals = first.num_arrivals_served
    finals = [summaries_first[-1]]
    if tracer is None:
        # The first episode is the warm-up; the episodes after it are timed.
        timeline = Timeline(cal)
        while len(finals) < 3 or time.perf_counter() - start < seconds:
            # Indexing drops the session at once, so at most two are alive.
            summaries = queueing_episode(seed, None, timeline)[2]
            finals.append(summaries[-1])
        timing_metrics(out, arrivals * (len(finals) - 1), timeline, setups)
        out.metrics["peak_rss_mb"] = peak_rss_mb()
    else:
        tracer.active = True
        _, traced, summaries = queueing_episode(seed, tracer)
        tracer.active = False
        finals.append(summaries[-1])
        out.per_layer["trace.overhead_ratio"] = sum(traced) / sum(latencies) - 1.0
    out.info.append(f"engine: {first.engine}; episodes: {len(finals)}")
    out.attempted = arrivals * len(finals)

    kernel = open_queueing(seed, engine="kernel")
    reference = [kernel.serve(float(step)).summary() for step in range(1, QUEUEING_PREFIX + 1)]
    out.check("kernel prefix", checks.queueing_prefix(summaries_first, reference))
    out.check(
        "episodes agree",
        (sum(1 for f in finals if f != finals[0]), "every episode ends in the same state"),
    )
    result = first.result()
    from repro.theory import strategy2_comm_cost, strategy2_max_load_prediction

    out.info.append(
        f"max queue={result.max_queue_length} (Strategy II load order "
        f"{strategy2_max_load_prediction(4096, 128, 8, 8):.3f}), "
        f"C={result.communication_cost:.4f} (theory order {strategy2_comm_cost(4096, 8):.3f})"
        " - information only"
    )
    return out


# ----------------------------------------------------------------- service
SERVICE_SPEC = {
    "kind": "assignment",
    "engine": "auto",
    "topology": "torus",
    "nodes": 100,
    "files": 40,
    "cache": 4,
    "popularity": "zipf",
    "gamma": 0.8,
    "placement": "proportional",
    "mu": 1.0,
    "radius": 3.0,
    "choices": 2,
    "strategy": "proximity_two_choice",
}
LIGHT, HEAVY = 150.0, 350.0
LADDER = (450.0, 550.0, 650.0, 750.0)
#: The latency limit the knee is judged against.
P99_LIMIT_S = 0.050
CONNECTIONS = min(2, os.cpu_count() or 1)
CHECKPOINT_EVERY = 16
#: Server launches per run (``setup_s`` is their median; interpreter start
#: and imports make single launches noisy).
SERVER_LAUNCHES = 4
#: ``recover_session`` passes over the run's journal; ``req_per_s`` is the
#: median rate.
REPLAYS = 7


def serve_argv(seed: int, journal: Path | None) -> list[str]:
    spec = SERVICE_SPEC
    argv = [
        "serve", "--nodes", str(spec["nodes"]), "--files", str(spec["files"]),
        "--cache", str(spec["cache"]), "--radius", str(spec["radius"]),
        "--popularity", spec["popularity"], "--gamma", str(spec["gamma"]),
        "--seed", str(seed), "--port", "0",
    ]
    if journal is not None:
        argv += [
            "--journal", str(journal), "--journal-fsync", "interval",
            "--journal-checkpoint", str(CHECKPOINT_EVERY),
        ]
    return argv


class Server:
    """One ``repro serve`` process started through ``perfbench/serve.py``."""

    def __init__(self, argv, spans: Path | None = None) -> None:
        self.argv = argv
        self.spans = spans
        self.proc = None
        self.port = None

    async def start(self) -> float:
        """Launch; return seconds until the first successful ``/healthz``."""
        launcher = [sys.executable, str(ROOT / "perfbench" / "serve.py")]
        if self.spans is not None:
            launcher += ["--spans", str(self.spans)]
        start = time.perf_counter()
        self.proc = await asyncio.create_subprocess_exec(
            *launcher, *self.argv,
            stdout=asyncio.subprocess.PIPE, stderr=asyncio.subprocess.DEVNULL,
        )
        line = await asyncio.wait_for(self.proc.stdout.readline(), 60)
        if b"http://" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split(b"http://")[1].split(b" ")[0].rsplit(b":", 1)[1])
        conn = loaddriver.HttpConnection("127.0.0.1", self.port)
        try:
            while True:
                try:
                    status, _ = await conn.request(loaddriver.GET_HEALTHZ)
                    if status == 200:
                        return time.perf_counter() - start
                except OSError:
                    await conn.close()
                await asyncio.sleep(0.005)
        finally:
            await conn.close()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    async def stop(self) -> None:
        if self.proc is None or self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            await asyncio.wait_for(self.proc.communicate(), 30)
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()


async def drive(port: int, steps):
    connections = [loaddriver.HttpConnection("127.0.0.1", port) for _ in range(CONNECTIONS)]
    try:
        for conn in connections:
            await conn.open()
        return [await loaddriver.run_step(connections, step) for step in steps]
    finally:
        for conn in connections:
            await conn.close()


def service_steps(seed: int, seconds: float, file_pmf):
    """The journaled run's steps (light, heavy), the ladder and the traced baseline."""
    rng = np.random.default_rng([seed, 2])
    n = SERVICE_SPEC["nodes"]
    light = loaddriver.Step.poisson(LIGHT, 0.45 * seconds, rng, n, file_pmf)
    heavy = loaddriver.Step.poisson(HEAVY, 0.25 * seconds, rng, n, file_pmf)
    ladder = [
        loaddriver.Step.poisson(rate, 0.12 * seconds / len(LADDER), rng, n, file_pmf)
        for rate in LADDER
    ]
    baseline = loaddriver.Step.poisson(LIGHT, 0.15 * seconds, rng, n, file_pmf)
    return [light, heavy], ladder, baseline


def write_replay_journal(path: Path, spec: dict, origins, files) -> None:
    """Journal ``origins`` and ``files`` as the server does, in batches of 1 or 2.

    The live run's batches form by timing (arrivals within one flush interval
    share a batch) and a replay costs per batch, so replaying the live
    journal would make the rate swing with the host's speed.  This journal
    holds the same requests in batches whose sizes the seed fixes.
    """
    from repro.service.journal import DispatchJournal, build_session_from_spec

    session = build_session_from_spec(spec)
    sizes = np.random.default_rng([spec["seed"], 3]).integers(1, 3, size=len(origins))
    with DispatchJournal.create(
        path, kind="assignment", spec=spec, seed=spec["seed"], fsync="never",
        checkpoint_every=CHECKPOINT_EVERY,
    ) as journal:
        seq = 0
        for size in sizes.tolist():
            if seq >= len(origins):
                break
            batch_origins, batch_files = origins[seq:seq + size], files[seq:seq + size]
            session.dispatch_batch(batch_origins, batch_files)
            journal.append_batch(seq, batch_origins, batch_files, None, [(1, None)] * len(batch_files))
            seq += len(batch_files)
            if journal.checkpoint_due:
                journal.append_checkpoint(seq, session.state_digest(), 0.0)


def step_line(r) -> str:
    return (
        f"step {r.rate:g} req/s: {r.attempted} sent, {r.failed} failed, "
        f"p50 {percentile_ms(r.latency_s, 50):.2f} ms, "
        f"p90 {percentile_ms(r.latency_s, 90):.2f} ms, "
        f"p99 {percentile_ms(r.latency_s, 99):.2f} ms "
        f"(n={r.latency_s.size}), generator {1e3 * r.lag_end_s:.2f} ms late at end"
    )


async def service_async(seed: int, seconds: float, tracer, out: Outcome, paths) -> None:
    from repro.service.journal import build_session_from_spec, read_journal, recover_session

    spec = dict(SERVICE_SPEC, seed=seed)
    offline = build_session_from_spec(spec)
    pmf = offline.library.popularity_vector()
    pmf[offline.cache.uncached_files()] = 0.0
    steps, ladder, baseline = service_steps(seed, seconds, pmf / pmf.sum())
    journal, replay_journal, spans = paths
    cal = Calibration("cpu")

    # Launches without a journal: the first drives the rate ladder (or, when
    # tracing, the untraced baseline); the journaled launch comes last.
    setups = Timeline(cal)
    ladder_results = []
    plain_baseline = None
    for index in range(SERVER_LAUNCHES - 1):
        server = Server(serve_argv(seed, None))
        try:
            setups.add(await server.start())
            if index == 0 and tracer is None:
                ladder_results = await drive(server.port, ladder)
            elif index == 0:
                plain_baseline = (await drive(server.port, [baseline]))[0]
        finally:
            await server.stop()
    server = Server(serve_argv(seed, journal), spans if tracer is not None else None)
    try:
        setups.add(await server.start())
        results = await drive(server.port, steps)
        server_rss = server.peak_rss_mb()
    finally:
        await server.stop()

    acked = sum(int(r.seqs.size) for r in results)
    out.attempted = sum(r.attempted for r in results)
    out.failed += sum(r.failed for r in results)
    for r in results + ladder_results:
        out.info.append(step_line(r))
    light, heavy = results
    knee = max(
        (r.rate for r in [heavy, *ladder_results]
         if r.failed == 0 and np.percentile(r.latency_s, 99) <= P99_LIMIT_S
         and r.lag_end_s <= P99_LIMIT_S),
        default=0.0,
    )
    out.info.append(
        f"heavy: p50 {percentile_ms(heavy.latency_s, 50):.3f} ms, "
        f"p99 {percentile_ms(heavy.latency_s, 99):.3f} ms; knee_rps {knee:g} "
        f"(highest rate from heavy up the ladder with no failure, p99 <= "
        f"{1e3 * P99_LIMIT_S:g} ms and no backlog; the ladder runs on its own server "
        "and is neither journaled nor counted in attempted/failed)"
    )

    live = recover_session(journal)
    contents = read_journal(journal)
    out.check("journal recovery", checks.journal_recovery(live, len(contents.checkpoints), acked))
    out.check("journal spec", (0 if contents.header.get("spec") == spec else 1, "journal spec matches"))
    out.info.append(f"live journal: {live.requests} requests in {live.batches} batches")

    write_replay_journal(
        replay_journal, spec,
        np.concatenate([s.origins for s in steps]), np.concatenate([s.files for s in steps]),
    )
    replays = Timeline(cal)
    for _ in range(REPLAYS if tracer is None else 1):
        if tracer is not None:
            tracer.active = True
        recovered, elapsed = timed(recover_session, replay_journal)
        replays.add(elapsed)
        if tracer is not None:
            tracer.active = False
    out.check(
        "replay journal recovery",
        checks.journal_recovery(
            recovered, len(read_journal(replay_journal).checkpoints), sum(s.offsets.size for s in steps)
        ),
    )
    out.info.append(
        f"replay: {recovered.requests} requests in {recovered.batches} batches, "
        f"{len(replays.times)} passes, median {statistics.median(replays.times):.3f} s"
    )
    if tracer is None:
        unscaled = {
            "req_per_s": recovered.requests / statistics.median(replays.times),
            "setup_s": statistics.median(setups.times),
        }
        out.metrics["req_per_s"] = recovered.requests / statistics.median(replays.scaled())
        out.metrics["setup_s"] = statistics.median(setups.scaled())
        out.metrics["peak_rss_mb"] = server_rss
        out.info.append(calibration_line(cal, unscaled))
    else:
        import tracing

        with open(spans, encoding="utf-8") as handle:
            server_spans = json.load(handle)["spans"]
        layers = tracing.reduce_spans(server_spans)
        replay = tracing.reduce_spans(tracer.spans)
        for key in ("journal.read.ms", "journal.replay.ms", "journal.checkpoints_verified"):
            layers[key] = replay[key]
        resolve = tracing.server_resolve_times(server_spans)
        transport = [
            lat - resolve[seq]
            for r in results
            for lat, seq in zip(r.send_latency_s.tolist(), r.seqs.tolist())
            if seq in resolve
        ]
        layers["service.transport_ms.p50"] = statistics.median(transport) * 1e3
        layers["service.journal.bytes"] = journal.stat().st_size
        layers["trace.overhead_ratio"] = (
            np.median(light.latency_s) / np.median(plain_baseline.latency_s) - 1.0
        )
        out.per_layer.update(layers)

    seqs = np.concatenate([r.seqs for r in results])
    origins = np.concatenate([s.origins[r.sent_index] for s, r in zip(steps, results)])
    files = np.concatenate([s.files[r.sent_index] for s, r in zip(steps, results)])
    servers = np.concatenate([r.servers for r in results])
    distances = np.concatenate([r.distances for r in results])
    out.check("offline replay", checks.service_replay(seqs, origins, files, servers, distances, offline))
    snap = offline.snapshot()
    config = {
        "num_nodes": 100, "num_files": 40, "cache_size": 4, "popularity": "zipf",
        "popularity_params": {"gamma": 0.8}, "strategy_params": {"radius": 3.0},
    }
    out.info.append(f"engine: {live.session.snapshot().engine}")
    out.info.append(theory_line(snap.max_load, snap.communication_cost, config))


def run_service(seed: int, seconds: float, tracer) -> Outcome:
    out = Outcome()
    OUT.mkdir(exist_ok=True)
    journal = OUT / f"journal-{os.getpid()}.wal"
    replay_journal = OUT / f"replay-{os.getpid()}.wal"
    spans = OUT / f"spans-service-server-{seed}.json"
    try:
        asyncio.run(service_async(seed, seconds, tracer, out, (journal, replay_journal, spans)))
    finally:
        journal.unlink(missing_ok=True)
        replay_journal.unlink(missing_ok=True)
    return out


def run(name: str, seed: int, seconds: float, tracer) -> Outcome:
    if name in STATIC:
        return run_static(name, seed, seconds, tracer)
    if name == "queueing":
        return run_queueing(seed, seconds, tracer)
    return run_service(seed, seconds, tracer)
