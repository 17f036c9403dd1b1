"""``repro serve`` as a real process: SIGTERM shuts the daemon down cleanly.

A subnet manager stops the daemon with SIGTERM.  It must take the same
path as Ctrl-C — stop the service, shut the fabric down — so the
process exits 0, unlinks every shared-memory segment it created and
leaves no pool worker behind.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.engine.fabric import SEGMENT_PREFIX
from repro.network.topologies import torus
from repro.service import RouteRequest, ServiceClient

pytestmark = pytest.mark.skipif(
    not (os.path.isdir("/proc") and os.path.isdir("/dev/shm")),
    reason="needs /proc for the daemon's children and /dev/shm",
)


def _segments():
    """Fabric segments currently present in /dev/shm."""
    return {name for name in os.listdir("/dev/shm")
            if name.startswith(SEGMENT_PREFIX)}


def _children(pid):
    """Pids whose parent is ``pid`` (read from /proc)."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            kids.append(int(entry))
    return kids


def _alive(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def _start_daemon(address, log):
    """Start ``repro serve`` on ``address``; stderr goes to ``log``
    (a file, so orphaned workers cannot hold a pipe open)."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    with open(log, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--bind",
             address, "--workers", "2"],
            stdout=subprocess.PIPE, stderr=err, text=True, env=env,
        )
    ready, _, _ = select.select([proc.stdout], [], [], 60)
    line = proc.stdout.readline() if ready else ""
    if not line.startswith("listening on"):
        proc.kill()
        proc.wait()
        pytest.fail(f"daemon did not come up: {line!r} "
                    f"{log.read_text()!r}")
    return proc


def test_sigterm_exits_zero_without_leaks(tmp_path):
    before = _segments()
    address = f"unix://{tmp_path}/serve.sock"
    log = tmp_path / "serve.err"
    proc = _start_daemon(address, log)
    workers = []
    try:
        with ServiceClient(address) as client:
            # two layers, so the route fans out over the worker pool
            response = client.route(RouteRequest(
                topology=torus([3, 3], 1), algorithm="nue", max_vls=2,
                workers=2))
        assert response.n_vls == 2
        workers = _children(proc.pid)
        assert workers, "the route should have spawned pool workers"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0, log.read_text()
        deadline = time.monotonic() + 10
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in workers if _alive(pid)] == []
        assert _segments() - before == set()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        for name in _segments() - before:  # after a failure: no cascade
            os.unlink(os.path.join("/dev/shm", name))
        proc.stdout.close()
