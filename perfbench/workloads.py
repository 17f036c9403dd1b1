"""The timed (untraced) runs: end-to-end metrics from public entry points.

Each workload is one closed loop driven from this process: the next
operation starts only after the previous one returned and its tables
were validated.  Operations repeat until ``seconds`` have elapsed; every
timing is the mean over the run's operations.  Operation times are
reported in host-normalised seconds (unit ``host_s``): their wall-clock
mean scaled by ``PROBE_REF_S / mean(probes)``, where the host probes
(:func:`common.host_probe`) run in their own interpreters, one per CPU,
before the first operation and after each one.  An operation that runs
in this process is pinned to the first CPU and scaled by that CPU's
probes; one that runs on the engine's or the daemon's workers is scaled
by the mean probe over all CPUs.  When every operation is pinned, only
the first CPU is probed: a concurrent probe on another CPU would slow it
through the shared caches.  Set-up stays in wall-clock seconds.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List

import numpy as np

from common import (
    CPUS,
    WORKERS,
    PROBE_REF_S,
    Census,
    Daemon,
    check_vl_budget,
    descendants,
    host_probe,
    log,
    fresh_import,
    mean,
    median,
    now,
    off_tree_links,
    peak_rss_mb,
    pinned,
    pool_warnings,
    table_digest,
    torus_fig11,
    torus_healthy,
    kautz_k1,
)

#: the operation timings of a timed run
TIMED = frozenset({"route_s", "verify_s", "event_s"})

#: set-up is repeated at least this many times per run, and until the
#: repeats add up to ``SETUP_MIN_S``; the median is reported
SETUP_REPS = 3
SETUP_MIN_S = 5.0


def more_setups(setups: List[float]) -> bool:
    return len(setups) < SETUP_REPS or sum(setups) < SETUP_MIN_S


@dataclass
class Spec:
    """One workload: its fabric generator and routing request knobs."""

    name: str
    make_net: Callable[[int], object]
    max_vls: int
    uses_pool: bool
    #: the timed metrics measured in this process, pinned to one CPU
    #: (``validate_routing`` always; the route too when it is serial)
    pinned: FrozenSet[str] = frozenset({"verify_s"})
    #: a validation sample spans at least this long: a shorter
    #: ``validate_routing`` call is repeated on the same table and the
    #: sample is the mean call
    verify_min_s: float = 2.0

    def probe_cpus(self) -> List[int]:
        """The CPUs whose probes scale this workload's timings."""
        return [CPUS[0]] if self.pinned >= TIMED else CPUS


SPECS: Dict[str, Spec] = {
    "torus-fig11": Spec("torus-fig11", torus_fig11, 8, True),
    # one layer: api.route starts no workers, so it runs pinned too;
    # validate_routing takes about 1 s, short against the host's slow
    # and fast stretches, so each sample averages about 5 calls
    "kautz-k1": Spec("kautz-k1", kautz_k1, 1, False, TIMED,
                     verify_min_s=4.5),
    "fail-in-place": Spec("fail-in-place", torus_healthy, 4, True),
}


@dataclass
class Run:
    """What one run measured, counted and found."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    fingerprints: Dict[str, str] = field(default_factory=dict)
    #: :func:`host_probe` wall times per CPU: before the first
    #: operation and after each one
    probes: List[Dict[int, float]] = field(default_factory=list)
    #: wall-clock means of the operation times, before scaling
    wall: Dict[str, float] = field(default_factory=dict)

    def add_op(self, times: Dict[str, float]) -> None:
        for name, value in times.items():
            self.samples.setdefault(name, []).append(value)

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
        log(f"FAILED {what}: {type(exc).__name__}: {exc}")


def warm_pool() -> None:
    """Start the engine's persistent worker pool (lazy by default)."""
    from repro.engine import fabric

    pool = fabric.get_pool(WORKERS)
    for fut in [pool.submit(os.getpid) for _ in range(WORKERS)]:
        fut.result()


def run_route(spec: Spec, seed: int, seconds: float, run: Run,
              census: Census) -> None:
    """torus-fig11 / kautz-k1: api.route then validate_routing."""
    from repro import api
    from repro.engine.fingerprint import network_fingerprint

    try:
        setups: List[float] = []
        while more_setups(setups):
            if setups:
                api.shutdown_fabric()
            t0 = now()
            fresh_import()
            net = spec.make_net(seed)
            if spec.uses_pool:
                warm_pool()
            setups.append(now() - t0)
        run.metrics["setup_s"] = median(setups)
        fp = network_fingerprint(net)
        run.fingerprints[spec.name] = fp
        route_loop(net, fp, spec, seed, seconds, run)
        run.metrics["peak_rss_mb"] = peak_rss_mb(
            [os.getpid()] + descendants(os.getpid()))
    finally:
        census.watch(descendants(os.getpid()))
        api.shutdown_fabric()


def route_loop(net, fp: str, spec: Spec, seed: int, seconds: float,
               run: Run) -> None:
    from repro import api

    request = api.RouteRequest(topology=net, algorithm="nue",
                               max_vls=spec.max_vls, seed=seed,
                               workers=WORKERS)
    digest = None
    run.probes.append(host_probe(spec.probe_cpus()))
    start = now()
    while now() - start < seconds:
        run.attempted += 1
        try:
            with pool_warnings(run.counts):
                with pinned() if "route_s" in spec.pinned else nullcontext():
                    t0 = now()
                    response = api.route(request)
                    route_s = now() - t0
                verify_s = timed_validate(response.result(net),
                                          spec.verify_min_s)
            check_vl_budget(response, spec.max_vls)
            if response.network_fingerprint != fp:
                raise AssertionError("routed fabric differs from the input")
            d = table_digest(response.next_channel_array(),
                             response.vl_array())
            if digest is not None and d != digest:
                raise AssertionError("tables differ between operations")
            digest = d
        except Exception as exc:  # a failed operation ends the loop
            run.fail(f"route #{run.attempted}", exc)
            return
        run.probes.append(host_probe(spec.probe_cpus()))
        run.add_op({"route_s": route_s, "verify_s": verify_s,
                    "event_s": route_s + verify_s})


def timed_validate(result, min_s: float) -> float:
    """``validate_routing`` wall time, pinned (raises on an invalid
    table)."""
    from repro import api

    times: List[float] = []
    with pinned():
        while sum(times) < min_s:
            t0 = now()
            api.validate_routing(result)
            times.append(now() - t0)
    return mean(times)


def start_daemon(net, spec: Spec, seed: int, tag: str, run: Run):
    """Start a daemon, connect one client and route the healthy fabric
    (cold: the daemon computes and caches it).  Returns
    ``(daemon, client, healthy RouteResponse)``."""
    from repro import api

    daemon = Daemon(tag)
    client = api.ServiceClient(daemon.address)
    try:
        client.connect()
        healthy = client.route(api.RouteRequest(
            topology=net, algorithm="nue", max_vls=spec.max_vls, seed=seed,
            workers=WORKERS))
    except BaseException:
        client.close()
        daemon.stop()
        raise
    return daemon, client, healthy


def stop_daemon(daemon: Daemon, client, run: Run, census: Census) -> None:
    client.close()
    census.watch(daemon.pids())
    code = daemon.stop()
    run.counts["serial_fallbacks"] = \
        run.counts.get("serial_fallbacks", 0) + daemon.serial_fallbacks()
    if code != 0:
        run.fail("daemon exit", RuntimeError(f"exit code {code}"))


def fault_event(net, spec: Spec, seed: int, client, link: int,
                healthy_digest: str):
    """One independent event from the healthy state; returns its wall
    times: the reroute RPC, validation, and the whole event."""
    from repro import api

    u, v = net.links()[link]
    failed = {2 * link, 2 * link + 1}
    t0 = now()
    repaired = client.reroute(api.RerouteRequest(
        topology=net, failed_links=[(net.node_names[u], net.node_names[v])],
        max_vls=spec.max_vls, seed=seed, workers=WORKERS))
    t1 = now()
    result = repaired.route.result(net)
    verify_s = timed_validate(result, spec.verify_min_s)
    check_vl_budget(repaired.route, spec.max_vls)
    if np.isin(result.next_channel, sorted(failed)).any():
        raise AssertionError("repaired tables use the failed link")
    transition = client.transition(api.TransitionRequest(
        topology=net, algorithm="nue", max_vls=spec.max_vls, seed=seed,
        from_tables=repaired.route, workers=WORKERS))
    t2 = now()
    check_vl_budget(transition.route, spec.max_vls)
    if table_digest(transition.route.next_channel_array(),
                    transition.route.vl_array()) != healthy_digest:
        raise AssertionError("transition did not restore the healthy "
                             "tables bit for bit")
    if transition.n_steps < 1:
        raise AssertionError("empty migration plan")
    return {"route_s": t1 - t0, "verify_s": verify_s, "event_s": t2 - t0}


def event_links(net, spec: Spec, seed: int) -> List[int]:
    """The run's seeded sequence of failing links (without repeats)."""
    links = off_tree_links(net, spec.max_vls, seed)
    rng = np.random.default_rng(seed)
    return [links[int(i)] for i in rng.permutation(len(links))]


def run_fail_in_place(spec: Spec, seed: int, seconds: float, run: Run,
                      census: Census) -> None:
    """Fault -> reroute RPC -> validate -> transition RPC, per event."""
    from repro import api
    from repro.engine.fingerprint import network_fingerprint

    net = spec.make_net(seed)
    run.fingerprints[spec.name] = network_fingerprint(net)
    links = event_links(net, spec, seed)

    setups: List[float] = []
    daemon = client = healthy = None
    while more_setups(setups):
        if daemon is not None:
            stop_daemon(daemon, client, run, census)
        t0 = now()
        fresh_import()
        net = spec.make_net(seed)
        daemon, client, healthy = start_daemon(net, spec, seed,
                                               str(len(setups)), run)
        setups.append(now() - t0)
    run.metrics["setup_s"] = median(setups)
    healthy_digest = table_digest(healthy.next_channel_array(),
                                  healthy.vl_array())
    try:
        # every transition must restore these tables bit for bit, so
        # they are validated once, outside the timed loop
        run.attempted += 1
        try:
            api.validate_routing(healthy.result(net))
            check_vl_budget(healthy, spec.max_vls)
        except Exception as exc:
            run.fail("healthy route", exc)
            return
        run.probes.append(host_probe(spec.probe_cpus()))
        start = now()
        for link in links:
            if now() - start >= seconds:
                break
            run.attempted += 1
            try:
                with pool_warnings(run.counts):
                    times = fault_event(net, spec, seed, client, link,
                                        healthy_digest)
            except Exception as exc:  # one failed event, keep measuring
                run.fail(f"event on link {link}", exc)
                continue
            finally:
                run.probes.append(host_probe(spec.probe_cpus()))
            run.add_op(times)
        run.metrics["peak_rss_mb"] = peak_rss_mb(
            [os.getpid()] + descendants(os.getpid()))
    finally:
        stop_daemon(daemon, client, run, census)


def run_timed(name: str, seed: int, seconds: float,
              census: Census) -> Run:
    spec = SPECS[name]
    run = Run()
    if name == "fail-in-place":
        run_fail_in_place(spec, seed, seconds, run, census)
    else:
        run_route(spec, seed, seconds, run, census)
    if run.probes:
        pinned_probe = mean([p[CPUS[0]] for p in run.probes])
        host_probe_s = mean([mean(p.values()) for p in run.probes])
    for key, values in run.samples.items():
        run.wall[key] = mean(values)
        probe = pinned_probe if key in spec.pinned else host_probe_s
        run.metrics[key] = run.wall[key] * PROBE_REF_S / probe
    return run
