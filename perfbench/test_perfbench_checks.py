"""Tests of the benchmark's own checks, calibration, shims and failure exit.

These run in seconds.  The benchmark's long runs (``perfbench/run.py``) are
never started from here.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
from calibration import Calibration, Timeline
from repro.service.journal import DispatchJournal, build_session_from_spec, recover_session
from repro.session import open_session
from repro.workload.request import RequestBatch

HERE = Path(__file__).resolve().parent

CONFIG = {
    "num_nodes": 100,
    "num_files": 20,
    "cache_size": 4,
    "topology": "torus",
    "placement": "proportional",
    "strategy": "proximity_two_choice",
    "strategy_params": {"radius": 3, "num_choices": 2},
}

SPEC = {
    "kind": "assignment",
    "seed": 5,
    "engine": "auto",
    "topology": "torus",
    "nodes": 100,
    "files": 20,
    "cache": 4,
    "popularity": "uniform",
    "gamma": None,
    "placement": "proportional",
    "mu": 1.0,
    "radius": 3.0,
    "choices": 2,
    "strategy": "proximity_two_choice",
}


def window(size=300, seed=1):
    rng = np.random.default_rng(seed)
    return RequestBatch(
        origins=rng.integers(0, 100, size=size),
        files=rng.integers(0, 20, size=size),
        num_nodes=100,
        num_files=20,
    )


def corrupted(assignment, position):
    servers = assignment.servers.copy()
    servers[position] = (servers[position] + 1) % 100
    return SimpleNamespace(servers=servers, distances=assignment.distances)


def test_static_prefix_catches_one_corrupted_decision():
    batch = window()
    served = open_session(CONFIG, 5).serve(batch).assignment
    prefix = 128
    reference = (
        open_session(CONFIG, 5, assignment_engine="reference")
        .serve(batch.subset(np.arange(prefix)))
        .assignment
    )
    assert checks.static_prefix(served, reference, prefix)[0] == 0
    assert checks.static_prefix(corrupted(served, 17), reference, prefix)[0] == 1


def test_service_replay_catches_one_corrupted_decision():
    batch = window(seed=2)
    served = open_session(CONFIG, 5).dispatch_batch(batch.origins, batch.files)
    seqs = np.arange(batch.num_requests)[::-1].copy()  # answers arrive out of order
    args = (batch.origins[::-1], batch.files[::-1])
    good = (served.servers[::-1], served.distances[::-1])
    assert checks.service_replay(seqs, *args, *good, open_session(CONFIG, 5))[0] == 0
    bad = corrupted(served, 40)
    result = checks.service_replay(
        seqs, *args, bad.servers[::-1], bad.distances[::-1], open_session(CONFIG, 5)
    )
    assert result[0] == 1
    gap = checks.service_replay(seqs[:-1], *(a[:-1] for a in args + good), open_session(CONFIG, 5))
    assert gap[0] > 0


def test_loads_and_queueing_checks_catch_mismatches():
    assert checks.loads_sum(np.array([2, 1]), 3)[0] == 0
    assert checks.loads_sum(np.array([2, 1]), 4)[0] == 1
    windows = [{"num_arrivals": 3}, {"num_arrivals": 5}]
    assert checks.queueing_prefix(windows, list(windows))[0] == 0
    assert checks.queueing_prefix(windows, [windows[0], {"num_arrivals": 6}])[0] == 1
    assert checks.queueing_prefix(windows[:1], windows)[0] == 1


def write_journal(path, requests=512, batch=8):
    session = build_session_from_spec(SPEC)
    rng = np.random.default_rng(3)
    with DispatchJournal.create(
        path, kind="assignment", spec=SPEC, seed=5, fsync="never", checkpoint_every=16
    ) as journal:
        for seq in range(0, requests, batch):
            origins = rng.integers(0, 100, size=batch)
            files = rng.integers(0, 20, size=batch)
            session.dispatch_batch(origins, files)
            journal.append_batch(seq, origins, files, None, [(batch, None)])
            if journal.checkpoint_due:
                journal.append_checkpoint(seq + batch, session.state_digest(), 0.0)


def checkpoints_in(path):
    lines = Path(path).read_bytes().splitlines()
    return sum(1 for line in lines if json.loads(line).get("type") == "checkpoint")


def test_journal_check_catches_truncated_journal(tmp_path):
    path = tmp_path / "wal"
    write_journal(path)
    recovered = recover_session(path)
    assert checks.journal_recovery(recovered, checkpoints_in(path), 512)[0] == 0
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:-3]))  # lose the tail, as a crash would
    recovered = recover_session(path)
    assert checks.journal_recovery(recovered, checkpoints_in(path), 512)[0] > 0


class ScriptedCalibration(Calibration):
    """Probe groups read from a list instead of timed."""

    def __init__(self, groups):
        super().__init__("cpu")
        self._groups = iter(groups)

    def run(self, seconds):
        return next(self._groups)


def test_timeline_scales_each_time_by_the_probes_around_it():
    # A group before the calls, one once 0.2 s of calls add up, one at the end.
    line = Timeline(ScriptedCalibration([1e-3, 2e-3, 4e-3]))
    for elapsed in (0.1, 0.1, 0.05):
        line.add(elapsed)
    # On the reference host a probe takes 1 ms: the first two calls ran where
    # probes took 1.5 ms on average, the last where they took 3 ms.
    assert line.scaled() == pytest.approx([0.1 / 1.5, 0.1 / 1.5, 0.05 / 3])


def test_shims_record_layer_spans():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import json, tracing\n"
        "tracer = tracing.Tracer(); tracing.install(tracer); tracer.active = True\n"
        "from repro.session import open_session\n"
        f"config = {CONFIG!r}\n"
        "import numpy as np\n"
        "from repro.workload.request import RequestBatch\n"
        "s = open_session(config, 5)\n"
        "b = RequestBatch(origins=np.arange(50) % 100, files=np.arange(50) % 20, "
        "num_nodes=100, num_files=20)\n"
        "for _ in range(3):\n    s.serve(b)\n"
        "print(json.dumps(tracing.reduce_spans(tracer.spans)))\n"
    )
    src = HERE.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(src), str(HERE)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    layers = json.loads(proc.stdout.splitlines()[-1])
    # The second window fills the GroupStore; the third hits every group.
    assert layers["session.serve.calls"] == 3
    assert layers["group_index.build.calls"] == 3
    assert layers["sampling.draw.calls"] == 3
    assert layers["commit.calls"] == 3
    assert layers["commit.requests"] == 150
    assert layers["group_index.store.hits"] == 50
    assert 0.0 < layers["trace.serve_coverage"] <= 1.0


@pytest.mark.parametrize("workload", ["static-proximity", "service"])
def test_run_fails_without_program_source(tmp_path, workload):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
