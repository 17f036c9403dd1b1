"""Shared plumbing of the benchmark: paths, fabrics, timing, census.

Everything here observes the system from outside: it builds the
workload inputs from the seed, times calls into public entry points,
and inspects ``/proc`` and ``/dev/shm`` for leaks after a run.
"""

from __future__ import annotations

import hashlib
import os
import signal
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: scratch space for sockets, daemon logs and the determinism ledger
RUN_DIR = ROOT / ".bench_run"
SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "repro_fab_"
#: engine/daemon parallelism: the reference box has two cores
WORKERS = 2
POOL_WARNING = "process pool unavailable"


#: a typical :func:`host_probe` time on the reference box; operation
#: times are scaled to it
PROBE_REF_S = 0.9
#: the CPUs this process may run on; in-process operations of a timed
#: run are pinned to the first (see :func:`pinned`)
CPUS = sorted(os.sched_getaffinity(0))


def host_probe(cpus: Sequence[int] = CPUS) -> Dict[int, float]:
    """Run ``probe.py`` on each of ``cpus`` at once, in a fresh
    interpreter pinned to each, and return each CPU's probe wall time."""
    procs = {cpu: subprocess.Popen(
        [sys.executable, str(BENCH / "probe.py"), str(cpu)],
        stdout=subprocess.PIPE, text=True) for cpu in cpus}
    times = {}
    for cpu, proc in procs.items():
        out, _ = proc.communicate()
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, proc.args)
        times[cpu] = float(out)
    return times


@contextmanager
def pinned() -> Iterator[None]:
    """Run the calling thread on the first CPU only.

    The CPUs of a shared host slow down independently of each other, so
    an in-process operation is pinned to the CPU whose probe scales it.
    """
    os.sched_setaffinity(0, {CPUS[0]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, CPUS)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values))


def fresh_import() -> None:
    """Import ``repro.api`` (and numpy) in a fresh interpreter: the
    import share of a set-up, repeatable within one run."""
    subprocess.run([sys.executable, "-c", "import numpy, repro.api"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)


def now() -> float:
    return time.perf_counter()


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# -- workload inputs ----------------------------------------------------------

def torus_fig11(seed: int):
    """6x6x6 torus, 4 terminals/switch, 1% seeded switch-link faults."""
    from repro import api

    net = api.topologies.torus([6, 6, 6], 4)
    return api.inject_random_link_faults(net, 0.01, seed=seed).net


def kautz_k1(seed: int):
    """Kautz K(5,3), redundancy 2, 2 terminals/switch (seed-free)."""
    from repro import api

    return api.topologies.kautz(5, 3, 2, redundancy=2)


def torus_healthy(seed: int):
    """The healthy 6x5x5 torus (4 T/sw) the daemon keeps resident."""
    from repro import api

    return api.topologies.torus([6, 5, 5], 4)


@dataclass
class Layer:
    """One Nue layer, built up to its escape paths (see :func:`nue_layers`)."""

    index: int
    subset: List[int]
    single: bool
    root: int
    cdg: object
    escape: object
    #: ``now()`` when the layer's ``select_root`` began
    start: float


def nue_layers(net, max_vls: int, seed: int,
               spent: Optional[Dict[str, float]] = None) -> Iterator[Layer]:
    """Nue's layer pipeline in ``_route_layer``'s order, through public
    calls: ``plan_layers``, then per layer ``select_root``,
    ``CompleteCDG`` and ``EscapePaths``.  The caller routes each yielded
    layer.  ``spent``, when given, accumulates the wall time of each
    stage under ``partition``, ``root``, ``cdg`` and ``escape``.
    """
    from repro.cdg.complete_cdg import CompleteCDG
    from repro.core import NueConfig
    from repro.core.escape import EscapePaths
    from repro.core.nue import plan_layers
    from repro.core.root import select_root

    spent = {} if spent is None else spent

    def lap(stage: str, since: float) -> float:
        t = now()
        spent[stage] = spent.get(stage, 0.0) + t - since
        return t

    t0 = now()
    parts, _seeds = plan_layers(net, list(net.terminals), max_vls,
                                NueConfig(), seed)
    lap("partition", t0)
    single = len(parts) == 1
    for idx, subset in enumerate(parts):
        start = now()
        root = select_root(net, subset, all_dests=single)
        t0 = lap("root", start)
        cdg = CompleteCDG(net)
        t0 = lap("cdg", t0)
        escape = EscapePaths(net, cdg, root, subset)
        lap("escape", t0)
        yield Layer(idx, subset, single, root, cdg, escape, start)


def off_tree_links(net, max_vls: int, seed: int) -> List[int]:
    """Switch-to-switch links on no layer's escape spanning tree.

    Incremental repair keeps every retained column only while the
    rebuilt escape tree is unchanged, which holds exactly when the
    failed link is off every layer's tree; on a tree link it raises
    ``IncrementalNotApplicable`` by design (see README.md).
    """
    tree: Set[frozenset] = set()
    for layer in nue_layers(net, max_vls, seed):
        for v, p in enumerate(layer.escape.tree.parent):
            if p >= 0:
                tree.add(frozenset((v, p)))
    return [
        li for li, (u, v) in enumerate(net.links())
        if net.is_switch(u) and net.is_switch(v)
        and frozenset((u, v)) not in tree
    ]


def table_digest(next_channel, vl) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(next_channel.tobytes())
    h.update(vl.tobytes())
    return h.hexdigest()


def check_vl_budget(response, max_vls: int) -> None:
    """Raise when a table needs more VLs than the workload's budget."""
    vl = response.vl_array()
    if response.n_vls > max_vls or (vl.size and int(vl.max()) >= max_vls):
        raise AssertionError(
            f"table uses {response.n_vls} VLs over a budget of {max_vls}")


# -- warnings -----------------------------------------------------------------

@contextmanager
def pool_warnings(tally: Dict[str, int]) -> Iterator[None]:
    """Count the engine's "process pool unavailable" fallbacks."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        try:
            yield
        finally:
            for w in caught:
                if POOL_WARNING in str(w.message):
                    tally["serial_fallbacks"] = \
                        tally.get("serial_fallbacks", 0) + 1
                else:
                    log(f"warning: {w.category.__name__}: {w.message}")


# -- processes ----------------------------------------------------------------

def _proc_children(pid: int) -> List[int]:
    out: List[int] = []
    task_dir = Path(f"/proc/{pid}/task")
    try:
        tasks = list(task_dir.iterdir())
    except OSError:
        return out
    for task in tasks:
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        out.extend(int(x) for x in text.split())
    return out


def _is_resource_tracker(pid: int) -> bool:
    try:
        return b"resource_tracker" in Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return False


def descendants(pid: int) -> List[int]:
    """Live descendant pids, without multiprocessing's resource tracker
    (it exits on its own when its parent does)."""
    seen: List[int] = []
    stack = [pid]
    while stack:
        for child in _proc_children(stack.pop()):
            if child not in seen:
                seen.append(child)
                stack.append(child)
    return [p for p in seen if not _is_resource_tracker(p)]


def _status_field(pid: int, field: str) -> Optional[str]:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def alive(pid: int) -> bool:
    state = _status_field(pid, "State")
    return state is not None and not state.startswith("Z")


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Sum of the per-process peak RSS (VmHWM) of ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        hwm = _status_field(pid, "VmHWM")
        if hwm is not None:
            total_kb += int(hwm.split()[0])
    return total_kb / 1024.0


def become_subreaper() -> None:
    """Adopt orphaned descendants (PR_SET_CHILD_SUBREAPER).

    A process whose parent ended -- the daemon's resource tracker, say
    -- is then re-parented to this process instead of to init, so
    :func:`reap_all` can wait for it.
    """
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(36, 1, 0, 0, 0) != 0:
        log(f"warning: prctl(PR_SET_CHILD_SUBREAPER) failed: "
            f"{os.strerror(ctypes.get_errno())}")


def reap_all(grace_s: float = 10.0) -> List[int]:
    """Stop this process's resource tracker, then wait until every child
    (adopted orphans too) has ended.  Children still alive after
    ``grace_s`` are killed; returns their pids."""
    from multiprocessing import resource_tracker

    # closing the tracker's pipe ends it; _stop() also waits for it
    resource_tracker._resource_tracker._stop()
    deadline = now() + grace_s
    killed: List[int] = []
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid:
            continue
        if now() > deadline:
            for child in _proc_children(os.getpid()):
                if child not in killed:
                    killed.append(child)
                    try:
                        os.kill(child, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
        time.sleep(0.05)


class Census:
    """Leak accounting: shm segments and processes that outlive a run."""

    def __init__(self) -> None:
        self.shm_before = self._segments()
        self.watched: Set[int] = set()
        self.leaks: List[str] = []

    @staticmethod
    def _segments() -> Set[str]:
        try:
            return {n for n in os.listdir(SHM_DIR)
                    if n.startswith(SHM_PREFIX)}
        except OSError:
            return set()

    def watch(self, pids: Sequence[int]) -> None:
        self.watched.update(pids)

    def check(self, grace_s: float = 5.0) -> List[str]:
        """Leaks left after everything was stopped (waits ``grace_s``)."""
        deadline = now() + grace_s
        while True:
            orphans = sorted(p for p in self.watched if alive(p))
            segments = sorted(self._segments() - self.shm_before)
            if (not orphans and not segments) or now() > deadline:
                break
            time.sleep(0.1)
        self.leaks = [f"orphaned process {p}" for p in orphans] + \
            [f"leaked /dev/shm/{s}" for s in segments]
        return self.leaks


class Daemon:
    """A ``repro serve`` daemon on a unix socket in the run directory."""

    def __init__(self, tag: str, workers: int = WORKERS) -> None:
        RUN_DIR.mkdir(exist_ok=True)
        self.socket = RUN_DIR / f"{os.getpid()}-{tag}.sock"
        self.address = f"unix://{self.socket.relative_to(ROOT)}"
        self.log_path = RUN_DIR / f"{os.getpid()}-{tag}.log"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--bind", self.address, "--workers", str(workers)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self._log,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("listening on"):
            self.stop()
            raise RuntimeError(f"daemon failed to start: {line!r}")

    def pids(self) -> List[int]:
        return [self.proc.pid] + descendants(self.proc.pid)

    def stop(self, timeout: float = 30.0) -> int:
        """SIGINT (the clean path; SIGTERM leaks, see README.md)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        try:
            self.socket.unlink()
        except FileNotFoundError:
            pass
        return self.proc.returncode

    def serial_fallbacks(self) -> int:
        """Pool fallbacks the stopped daemon logged; removes the log."""
        count = self.log_path.read_text().count(POOL_WARNING)
        self.log_path.unlink()
        return count


def code_digest(root: Path = SRC) -> str:
    """Content hash of the ``*.py`` files under ``root`` (``src/`` by
    default; the checkout need not be a git repo)."""
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_revision() -> Optional[str]:
    """HEAD read from ``.git`` directly, when the checkout has one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None
