"""Open-loop HTTP load driver for ``repro serve``.

Requests follow a precomputed schedule (Poisson arrivals) and every latency is
measured from the request's *scheduled* send time, so a stall that delays
later requests shows up in their latency.  At most ``connections`` keep-alive
connections are used and nothing runs outside the one asyncio loop: no extra
threads.  A request that times out, loses its connection or gets a 4xx/5xx
answer counts as failed.  ``repro.service.loadgen.run_loadgen`` is not used:
it times from the actual send and opens 64 connections by default.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass

import numpy as np


class HttpConnection:
    """One keep-alive HTTP/1.1 connection speaking just enough of the protocol."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._reader = self._writer = None

    async def request(self, data: bytes) -> tuple[int, dict]:
        """Send one encoded request; return ``(status, decoded JSON body)``."""
        if self._writer is None:
            await self.open()
        assert self._reader is not None and self._writer is not None
        self._writer.write(data)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionResetError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        payload = await self._reader.readexactly(length) if length else b"{}"
        return status, json.loads(payload)


GET_HEALTHZ = b"GET /healthz HTTP/1.1\r\nhost: bench\r\n\r\n"


@dataclass
class Step:
    """One rate step: arrival offsets (s) and the requests to send."""

    rate: float
    offsets: np.ndarray
    origins: np.ndarray
    files: np.ndarray
    bodies: list  # encoded HTTP requests, one per arrival

    @classmethod
    def poisson(cls, rate, duration, rng, num_nodes, file_pmf) -> "Step":
        gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.5) + 64)
        offsets = np.cumsum(gaps)
        offsets = offsets[offsets < duration]
        count = int(offsets.size)
        origins = rng.integers(0, num_nodes, size=count)
        files = rng.choice(file_pmf.size, size=count, p=file_pmf)
        bodies = []
        for origin, file_id in zip(origins.tolist(), files.tolist()):
            body = json.dumps({"origin": origin, "file": file_id}).encode()
            head = (
                "POST /dispatch HTTP/1.1\r\nhost: bench\r\n"
                f"content-type: application/json\r\ncontent-length: {len(body)}\r\n\r\n"
            )
            bodies.append(head.encode("latin-1") + body)
        return cls(rate, offsets, origins, files, bodies)


@dataclass
class StepResult:
    rate: float
    latency_s: np.ndarray  # from scheduled send, successful requests only
    send_latency_s: np.ndarray  # from actual send, successful requests only
    seqs: np.ndarray
    servers: np.ndarray
    distances: np.ndarray
    sent_index: np.ndarray  # position in the step of each successful request
    failed: int
    lag_end_s: float  # how late the last request went out

    @property
    def attempted(self) -> int:
        return int(self.latency_s.size) + self.failed


async def run_step(connections, step: Step, timeout: float = 2.0) -> StepResult:
    """Drive one step open-loop over ``connections``; wait for every answer."""
    loop = asyncio.get_running_loop()
    count = int(step.offsets.size)
    due = np.empty(count)
    sent = np.full(count, np.nan)
    done = np.full(count, np.nan)
    seqs = np.full(count, -1, dtype=np.int64)
    servers = np.full(count, -1, dtype=np.int64)
    distances = np.full(count, -1, dtype=np.int64)
    cursor = iter(range(count))
    start = loop.time() + 0.005
    due[:] = start + step.offsets

    async def worker(conn: HttpConnection) -> None:
        for i in cursor:
            delay = due[i] - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            sent[i] = loop.time()
            try:
                status, payload = await asyncio.wait_for(
                    conn.request(step.bodies[i]), timeout
                )
            except (asyncio.TimeoutError, OSError, asyncio.IncompleteReadError, ValueError):
                await conn.close()
                continue
            if status != 200:
                continue
            done[i] = loop.time()
            seqs[i] = payload["seq"]
            servers[i] = payload["server"]
            distances[i] = payload["distance"]

    await asyncio.gather(*(worker(conn) for conn in connections))
    ok = ~np.isnan(done)
    last = count - 1
    return StepResult(
        rate=step.rate,
        latency_s=(done - due)[ok],
        send_latency_s=(done - sent)[ok],
        seqs=seqs[ok],
        servers=servers[ok],
        distances=distances[ok],
        sent_index=np.flatnonzero(ok),
        failed=int(count - ok.sum()),
        lag_end_s=float(sent[last] - due[last]) if count else 0.0,
    )
