"""The traced run: per-layer metrics by replaying Nue's layer pipeline.

The replay calls each module's public functions in ``_route_layer``'s
order — ``plan_layers``, ``select_root``, ``CompleteCDG``,
``EscapePaths``, ``NueLayerRouter.route_batch``, ``assert_acyclic`` —
serially, timing each call from here.  ``convex_subgraph`` and
``betweenness_centrality`` are timed as extra probe calls; they are not
in the coverage sum because ``select_root`` already contains them.  The
assembled table must be bit-identical to ``api.route``'s for the same
seed, otherwise the run fails.

For ``fail-in-place`` the replay runs on the healthy fabric, then one
seeded fault event is decomposed in-process: ``dirty_destinations``,
``incremental_reroute``, ``check_compatibility``, ``plan_transition``
and the frame codec, next to the same event through the daemon.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

import numpy as np

from common import (
    WORKERS,
    Census,
    descendants,
    median,
    now,
    nue_layers,
    pool_warnings,
    table_digest,
)
from workloads import (
    SPECS,
    Run,
    Spec,
    event_links,
    start_daemon,
    stop_daemon,
)

#: sampled shift phases of the all-to-all flow model (seeded)
A2A_PHASES = 32

#: reroute RPC / in-process repair pairs behind the repair timings
REPAIR_PAIRS = 3

#: per-layer metrics of layers a workload does not exercise stay 0
ZERO_LAYERS = (
    "resilience.repair_s", "resilience.dirty_s", "resilience.dirty_frac",
    "resilience.layers_repaired", "resilience.not_applicable",
    "reconfig.compat_s", "reconfig.plan_s", "reconfig.proofs",
    "reconfig.blocked_candidates", "reconfig.drains",
    "service.rpc_overhead_s", "engine.cache_hits", "engine.cache_misses",
)


def replay(net, max_vls: int, seed: int) -> Tuple[Dict[str, float],
                                                   np.ndarray, np.ndarray]:
    """Nue's layer pipeline, serially, one public call at a time.

    Returns ``(metrics, next_channel, vl)`` for the assembled table.
    """
    from repro.core import NueConfig
    from repro.core.dijkstra import NueLayerRouter
    from repro.core.kernels import resolve_kernel
    from repro.core.root import betweenness_centrality, convex_subgraph

    kernel = resolve_kernel(NueConfig().kernel)
    dests = list(net.terminals)
    t = dict.fromkeys(("partition", "root", "convex", "brandes", "cdg",
                       "escape", "kernel", "acyclic"), 0.0)
    c = dict.fromkeys(("cycle_searches", "blocked_deps", "pk_reorders",
                       "initial_deps", "heap_pops", "stale_pops",
                       "relaxations", "rounds", "islands", "shortcuts",
                       "fallbacks"), 0)
    nxt = np.full((net.n_nodes, len(dests)), -1, dtype=np.int32)
    vl = np.zeros((net.n_nodes, len(dests)), dtype=np.int8)
    col_of = {d: j for j, d in enumerate(dests)}
    layer_s: List[float] = []
    part_sizes: List[int] = []

    for layer in nue_layers(net, max_vls, seed, spent=t):
        idx, subset, cdg = layer.index, layer.subset, layer.cdg
        t0 = now()
        router = NueLayerRouter(net, cdg, layer.escape, layer_index=idx,
                                kernel=kernel)
        block = np.full((net.n_nodes, len(subset)), -1, dtype=np.int32)
        t1 = now()
        steps = router.route_batch(subset, block)
        t2 = now()
        cdg.assert_acyclic()
        t3 = now()
        layer_s.append(t3 - layer.start)
        part_sizes.append(len(subset))
        t["escape"] += t1 - t0
        t["kernel"] += t2 - t1
        t["acyclic"] += t3 - t2

        # probes: what select_root spent on the convex subgraph and on
        # Brandes (k=1 skips the convex subgraph and ranks all nodes)
        p0 = now()
        if layer.single:
            nodes = list(range(net.n_nodes))
            adjacency = {v: net.neighbors(v) for v in nodes}
        else:
            nodes, adjacency = convex_subgraph(net, subset)
        p1 = now()
        betweenness_centrality(nodes, adjacency)
        p2 = now()
        if not layer.single:
            t["convex"] += p1 - p0
        t["brandes"] += p2 - p1

        cols = [col_of[d] for d in subset]
        nxt[:, cols] = block
        vl[:, cols] = idx
        c["cycle_searches"] += cdg.cycle_searches
        c["blocked_deps"] += cdg.n_blocked_edges
        c["pk_reorders"] += cdg.pk_reorders
        c["initial_deps"] += layer.escape.initial_dependencies
        for step in steps:
            c["heap_pops"] += step.heap_pops
            c["stale_pops"] += step.stale_pops
            c["relaxations"] += step.relaxations
            c["rounds"] += step.backtrack_rounds
            c["islands"] += step.islands_resolved
            c["shortcuts"] += step.shortcuts_taken
            c["fallbacks"] += int(step.fell_back)

    stages = sum(t[k] for k in ("partition", "root", "cdg", "escape",
                                "kernel", "acyclic"))
    m = {
        "partition.s": t["partition"],
        "partition.max_part_frac": max(part_sizes) / len(dests),
        "root.select_s": t["root"],
        "root.convex_subgraph_s": t["convex"],
        "root.betweenness_s": t["brandes"],
        "cdg.build_s": t["cdg"],
        "cdg.acyclic_check_s": t["acyclic"],
        "cdg.cycle_searches": c["cycle_searches"],
        "cdg.blocked_deps": c["blocked_deps"],
        "cdg.pk_reorders": c["pk_reorders"],
        "escape.mark_s": t["escape"],
        "escape.initial_deps": c["initial_deps"],
        "kernel.route_batch_s": t["kernel"],
        "kernel.heap_pops": c["heap_pops"],
        "kernel.relaxations": c["relaxations"],
        "kernel.stale_pop_frac": c["stale_pops"] / max(1, c["heap_pops"]),
        "kernel.pops_per_s": c["heap_pops"] / t["kernel"],
        "backtrack.rounds": c["rounds"],
        "backtrack.islands_resolved": c["islands"],
        "backtrack.success_frac": c["islands"] / max(1, c["rounds"]),
        "backtrack.shortcuts": c["shortcuts"],
        "backtrack.escape_fallbacks": c["fallbacks"],
        "engine.layer_max_s": max(layer_s),
        "quality.fallback_rate": c["fallbacks"] / len(dests),
        # stage sum (no probes) and the layer sum, for the engine and
        # coverage metrics the caller derives
        "_stages_s": stages,
        "_layer_sum_s": sum(layer_s),
    }
    return m, nxt, vl


def route_and_compare(net, spec: Spec, seed: int, run: Run,
                      ) -> Tuple[object, Dict[str, float]]:
    """Untraced serial route, traced replay, pooled route; the three
    tables must agree bit for bit.  Returns ``(result, metrics)``."""
    from repro import api

    def request(workers: int):
        return api.RouteRequest(topology=net, algorithm="nue",
                                max_vls=spec.max_vls, seed=seed,
                                workers=workers)

    serial_req, pooled_req = request(1), request(WORKERS)
    t0 = now()
    serial = api.route(serial_req)
    serial_s = now() - t0
    reference = table_digest(serial.next_channel_array(), serial.vl_array())

    t0 = now()
    m, nxt, vl = replay(net, spec.max_vls, seed)
    replay_s = now() - t0
    if table_digest(nxt, vl) != reference:
        run.fail("traced replay", AssertionError(
            "replayed tables differ from api.route's"))

    t0 = now()
    pooled = api.route(pooled_req)
    route_s = now() - t0
    if table_digest(pooled.next_channel_array(),
                    pooled.vl_array()) != reference:
        run.fail("pooled route", AssertionError(
            "workers=2 tables differ from the serial route's"))

    probes = m["root.convex_subgraph_s"] + m["root.betweenness_s"]
    stages = m.pop("_stages_s")
    layer_sum = m.pop("_layer_sum_s")
    m.update({
        "nue.serial_route_s": serial_s,
        "nue.coverage": stages / serial_s,
        "nue.unattributed_s": serial_s - stages,
        "nue.trace_overhead_frac": (replay_s - probes) / serial_s - 1.0,
        "engine.route_s": route_s,
        "engine.speedup": serial_s / route_s,
        "engine.fanout_overhead_s":
            route_s - max(m["engine.layer_max_s"], layer_sum / WORKERS),
    })
    return pooled.result(net), m


def verify_and_quality(result, seed: int) -> Dict[str, float]:
    from repro import api
    from repro.fabric.flow import simulate_all_to_all

    t0 = now()
    api.validate_routing(result)
    validate_s = now() - t0
    t0 = now()
    if not api.is_deadlock_free(result):
        raise AssertionError("tables are not deadlock-free")
    deadlock_s = now() - t0
    gamma = api.gamma_summary(result, workers=WORKERS)
    a2a = simulate_all_to_all(result, sample_phases=A2A_PHASES, seed=seed)
    return {
        "metrics.deadlock_s": deadlock_s,
        "metrics.connectivity_s": validate_s - deadlock_s,
        "quality.gamma_max": gamma.maximum,
        "quality.a2a_gbps": a2a.throughput_bytes_per_s * 8 / 1e9,
    }


def codec_metrics(message: Dict) -> Dict[str, float]:
    """Encode/decode one binary table frame (median of 5 round trips)."""
    from repro.service.protocol import decode_frame, encode_frame, get_codec

    codec = get_codec("json")
    enc: List[float] = []
    dec: List[float] = []
    for _ in range(5):
        t0 = now()
        frame = encode_frame(message, codec)
        t1 = now()
        decode_frame(frame)
        t2 = now()
        enc.append(t1 - t0)
        dec.append(t2 - t1)
    return {"service.encode_s": median(enc), "service.decode_s": median(dec),
            "service.frame_bytes": len(frame)}


def event_metrics(net, spec: Spec, seed: int, prior, client, link: int,
                  run: Run) -> Dict[str, float]:
    """One fault event decomposed in-process, next to its reroute RPC."""
    from repro import api
    from repro.engine.fingerprint import network_fingerprint
    from repro.service.requests import RerouteResponse, RouteResponse

    u, v = net.links()[link]
    failed = [2 * link, 2 * link + 1]
    t0 = now()
    dirty = api.dirty_destinations(prior, failed)
    dirty_s = now() - t0

    # the RPC and the in-process repair alternate, so each difference is
    # taken from two calls made close together on a drifting host
    request = api.RerouteRequest(
        topology=net, failed_links=[(net.node_names[u], net.node_names[v])],
        max_vls=spec.max_vls, seed=seed, workers=WORKERS)
    repair: List[float] = []
    overhead: List[float] = []
    repaired = None
    for _ in range(REPAIR_PAIRS):
        if repaired is not None:
            repaired.release()
        t0 = now()
        remote = client.reroute(request)
        t1 = now()
        try:
            repaired, stats = api.incremental_reroute(
                net, prior, failed, max_vls=spec.max_vls, seed=seed,
                workers=WORKERS)
        except api.IncrementalNotApplicable as exc:
            run.fail("in-process repair", exc)
            return {"resilience.not_applicable": 1}
        t2 = now()
        repair.append(t2 - t1)
        overhead.append((t1 - t0) - (t2 - t1))
    if table_digest(repaired.next_channel, repaired.vl) != table_digest(
            remote.route.next_channel_array(), remote.route.vl_array()):
        run.fail("in-process repair", AssertionError(
            "incremental_reroute differs from the reroute RPC"))

    t0 = now()
    api.check_compatibility(repaired, prior)
    compat_s = now() - t0
    t0 = now()
    plan = api.plan_transition(repaired, prior)
    plan_s = now() - t0

    fp = network_fingerprint(net)
    message = RerouteResponse(route=RouteResponse.from_result(repaired, fp),
                              stats=dict(stats), network_fingerprint=fp)
    repaired.release()
    m = {
        "resilience.repair_s": median(repair),
        "resilience.dirty_s": dirty_s,
        "resilience.dirty_frac": len(dirty) / len(prior.dests),
        "resilience.layers_repaired": stats["layers_repaired"],
        "reconfig.compat_s": compat_s,
        "reconfig.plan_s": plan_s,
        "reconfig.proofs": plan.proofs,
        "reconfig.blocked_candidates": plan.blocked_candidates,
        "reconfig.drains": plan.n_drains,
        # the reroute RPC beyond the repair it wraps: codec, transport,
        # topology parse, fingerprint and the daemon's cached prior route
        "service.rpc_overhead_s": median(overhead),
    }
    m.update(codec_metrics(message.to_dict(tables="binary")))
    return m


def cache_counters(status: Dict) -> Dict[str, float]:
    counters = status.get("counters", {})

    def total(name: str) -> float:
        return sum(v for k, v in counters.items()
                   if k == name or k.startswith(name + "{"))

    return {"engine.cache_hits": total("engine.cache_hits"),
            "engine.cache_misses": total("engine.cache_misses")}


def run_traced(name: str, seed: int, census: Census) -> Run:
    from repro import api
    from repro.engine.fingerprint import network_fingerprint
    from repro.service.requests import RouteResponse

    spec = SPECS[name]
    run = Run()
    run.attempted = 1
    m: Dict[str, float] = dict.fromkeys(ZERO_LAYERS, 0)
    net = spec.make_net(seed)
    fp = network_fingerprint(net)
    run.fingerprints[name] = fp
    daemon = client = None
    try:
        with pool_warnings(run.counts):
            if name == "fail-in-place":
                links = event_links(net, spec, seed)
                daemon, client, _healthy = start_daemon(net, spec, seed,
                                                        "traced", run)
            result, layer_m = route_and_compare(net, spec, seed, run)
            m.update(layer_m)
            m.update(verify_and_quality(result, seed))
            if daemon is None:
                m.update(codec_metrics(RouteResponse.from_result(
                    result, fp).to_dict(tables="binary")))
            else:
                m.update(event_metrics(net, spec, seed, result, client,
                                       links[0], run))
                m.update(cache_counters(client.status()))
    except Exception as exc:
        run.fail(f"traced {name}", exc)
    finally:
        census.watch(descendants(os.getpid()))
        if daemon is not None:
            stop_daemon(daemon, client, run, census)
        api.shutdown_fabric()
    m["engine.serial_fallbacks"] = run.counts.get("serial_fallbacks", 0)
    run.metrics = m
    return run
