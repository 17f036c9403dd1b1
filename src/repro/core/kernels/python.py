"""Pure-Python batched layer kernel (the always-available backend).

One :func:`route_batch_python` call routes every destination of a
virtual layer, committing steps in ``dests`` order on the layer's
shared CDG byte plane and scratch buffers.  Its reference is the
frozen pre-CSR oracle, :class:`repro.legacy.LegacyNueLayerRouter`,
routing the same destinations one step at a time:
forwarding tables, CDG end state and every work counter are
**bit-identical** to that loop (pinned by the kernel equality suite
and the legacy/golden equality tests).  The speed comes from
amortising per-step setup across the batch and from tightening the
machinery the oracle leaves general:

* the channel-weight mirror is maintained *incrementally* — the
  oracle adds a dense per-destination copy-rotation bias vector to the
  weight array and reads weights from it directly, while the balancing
  update only ever touches the step's forwarding forest — and the
  bias is applied from small per-residue add/undo lists built once
  per batch;
* Pearce-Kelly cycle searches run on epoch-stamped scratch arrays
  instead of per-call ``set`` objects, with in-place region sorts
  instead of three ``sorted(key=lambda...)`` passes;
* the relaxation loop iterates prebuilt ``(edge id, successor, head
  node)`` rows, the re-wire branch prechecks the candidate edge's
  state byte (skipping atomic commits their first edge already dooms
  — a pure fast path: that failure mutates nothing), and the
  child-rebase scan runs on flat CSR mirrors instead of per-edge
  method calls;
* the balancing update replaces a full ``sorted(range(n))`` with a
  counting sort over depths (same descending-depth, ascending-node
  order, so the accumulated weights are the same doubles) and copies
  a batch-level traffic-source template instead of re-marking sources
  every step;
* per-step ``ndarray``/``list`` round-trips are gone — forwarding
  columns are scattered into the caller's ``int32`` block in one
  vectorised pass at the end of the batch.

Float discipline: Python floats and numpy float64 are the same IEEE
doubles, and the incremental mirror applies the exact add/subtract
sequence the oracle applies (the bias entries the oracle adds as a
dense vector are zero everywhere the mirror is not touched, and
``x + 0.0 == x`` for the strictly positive weights Lemma 1
guarantees), so every distance and weight agrees bit-for-bit.

The cold paths — island backtracking, escape fallback, seeding — are
:class:`repro.core.dijkstra.NueLayerRouter`'s own methods: they run
once per impasse, not per relaxation, and sharing them keeps one
implementation of the subtle Section-4.6.2/3 logic.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import gcd
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from repro.core.backtrack import resolve_islands
from repro.obs import core as obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cdg.complete_cdg import CompleteCDG
    from repro.core.dijkstra import NueLayerRouter, RoutingStep

__all__ = ["route_batch_python"]


class _BiasCache:
    """Per-residue copy-rotation bias entries, shared by the backends.

    The legacy oracle builds a dense per-destination bias vector; but a
    bundle's bias depends on the destination only through ``dest mod
    m`` (``m`` = bundle size), so the handful of non-zero ``(channel,
    bias)`` entries can be precomputed once per residue class modulo
    ``M`` = lcm of the bundle sizes and applied/undone as sparse adds
    (exact: the skipped entries are ``+0.0``, and ``x + 0.0 == x`` for
    the strictly positive weights Lemma 1 guarantees).
    """

    __slots__ = ("mod", "_pairs")

    def __init__(self, csr) -> None:
        mod = 1
        for bundle in csr.bundles:
            mod = mod * len(bundle) // gcd(mod, len(bundle))
        self.mod = mod
        self._pairs: Dict[int, List[Tuple[int, float]]] = {}

    def pairs(self, csr, dest: int) -> List[Tuple[int, float]]:
        """Non-zero ``(channel, bias)`` entries for this destination."""
        r = dest % self.mod
        pairs = self._pairs.get(r)
        if pairs is None:
            eps = 1.0 / 1024.0
            pairs = [
                (ch, eps * ((i - r) % len(bundle)))
                for bundle in csr.bundles
                for i, ch in enumerate(bundle)
                if (i - r) % len(bundle)
            ]
            self._pairs[r] = pairs
        return pairs


class _BatchScratch:
    """Per-batch kernel scratch, allocated once per layer.

    * ``stamp``/``epoch``: epoch-stamped visited marks for the
      Pearce-Kelly searches — bumping ``epoch`` invalidates every mark
      in O(1), replacing the per-search ``set`` objects of the legacy
      oracle without changing which vertices a search visits.
    * ``rows``: per-channel relaxation rows of ``(edge id, successor
      channel, head node)`` triples, so the inner loop unpacks one
      prebuilt tuple instead of indexing three flat mirrors.
    * ``bias``: the shared :class:`_BiasCache`.
    """

    __slots__ = ("stamp", "epoch", "rows", "bias")

    def __init__(self, csr) -> None:
        self.stamp = [0] * csr.n_channels
        self.epoch = 0
        dep_dst = csr.dep_dst_l
        dep_ptr = csr.dep_ptr_l
        head = csr.dep_head_l
        self.rows: List[List[Tuple[int, int, int]]] = [
            list(zip(range(dep_ptr[c], dep_ptr[c + 1]),
                     dep_dst[dep_ptr[c]:dep_ptr[c + 1]],
                     head[dep_ptr[c]:dep_ptr[c + 1]]))
            for c in range(csr.n_channels)
        ]
        self.bias = _BiasCache(csr)

    def bias_pairs(self, csr, dest: int) -> List[Tuple[int, float]]:
        """Non-zero ``(channel, bias)`` entries for this destination."""
        return self.bias.pairs(csr, dest)


def _pk_check(cdg: "CompleteCDG", pk: _BatchScratch, cp: int, cq: int) -> bool:
    """Pearce-Kelly insert check + local reorder (fast twin).

    Exactly :meth:`CompleteCDG._pk_insert_check` — same visited sets,
    same counter increments (``cycle_searches`` per forward search,
    ``pk_reorders``/``pk_reorder_moved`` per repair), same final
    ``_ord`` — on the batch's stamped scratch.  Caller has already
    handled the ``ord[cp] < ord[cq]`` fast path.
    """
    ordv = cdg._ord
    lb = ordv[cq]
    ub = ordv[cp]
    used_out = cdg._used_out
    cdg.cycle_searches += 1
    stamp = pk.stamp
    epoch = pk.epoch = pk.epoch + 1
    stamp[cq] = epoch
    # scan instead of an explicit stack: CPython list iterators pick up
    # in-loop appends, and the bounded region is traversal-order
    # independent (it is exactly the reachable set inside the order
    # window), so this visits the same vertices as the oracle's DFS
    fwd = [cq]
    for c in fwd:
        for nxt in used_out[c]:
            if stamp[nxt] != epoch:
                # cp is never stamped here (ord[cp] == ub fails the
                # window test), so testing it only on unstamped
                # vertices loses no cycle
                if nxt == cp:
                    return False  # cq reaches cp: edge closes a cycle
                if ordv[nxt] < ub:
                    stamp[nxt] = epoch
                    fwd.append(nxt)
    used_in = cdg._used_in
    epoch = pk.epoch = pk.epoch + 1
    stamp[cp] = epoch
    bwd = [cp]
    for c in bwd:
        for prv in used_in[c]:
            if stamp[prv] != epoch and ordv[prv] > lb:
                stamp[prv] = epoch
                bwd.append(prv)
    cdg.pk_reorders += 1
    cdg.pk_reorder_moved += len(fwd) + len(bwd)
    # reorder: backward region before forward region, each keeping its
    # internal relative order, together reusing their old slots
    # (ascending) — in-place sorts on a bound C key method, no lambdas
    key = ordv.__getitem__
    bwd.sort(key=key)
    fwd.sort(key=key)
    slots = sorted([ordv[c] for c in bwd] + [ordv[c] for c in fwd])
    i = 0
    for c in bwd:
        ordv[c] = slots[i]
        i += 1
    for c in fwd:
        ordv[c] = slots[i]
        i += 1
    return True


def _commit_edge(cdg: "CompleteCDG", eid: int, cp: int, cq: int) -> None:
    """Mark a cycle-checked edge used (shared commit bookkeeping)."""
    cdg._state[eid] = 1
    cdg._used_out[cp].append(cq)
    cdg._used_in[cq].append(cp)
    cdg._vertex_used[cp] = 1
    cdg._vertex_used[cq] = 1
    cdg._uf.union(cp, cq)
    cdg.n_used_edges += 1


def _try_fresh(cdg: "CompleteCDG", pk: _BatchScratch, eid: int,
               cp: int, cq: int, marked: set) -> bool:
    """Cycle-check-and-use an *unused* edge: commit it used, or block
    it, exactly as ``CompleteCDG.try_use_edge_id`` does."""
    ordv = cdg._ord
    if ordv[cp] < ordv[cq] or _pk_check(cdg, pk, cp, cq):
        _commit_edge(cdg, eid, cp, cq)
        marked.add(eid)
        return True
    cdg._state[eid] = 2  # blocked
    cdg.n_blocked_edges += 1
    return False


def _try_edges_atomic(router: "NueLayerRouter", cdg: "CompleteCDG",
                      pk: _BatchScratch, edges: list) -> bool:
    """All-or-nothing multi-edge commit (fast twin of
    ``NueLayerRouter.try_use_dependencies_atomic``).

    Same sequential checks (each sees the edges already added), same
    rollback, same net counter effects: a fresh edge that fails its
    cycle check is never observably blocked (the router method blocks
    and immediately reverts it), and reverted edges keep their ω merge.
    """
    state = cdg._state
    edge_id = router.csr.edge_id
    marked = router._step_marked
    ordv = cdg._ord
    added: List[int] = []
    for cp, cq in edges:
        eid = edge_id(cp, cq)
        st = state[eid]
        if st == 1:
            continue  # already used: nothing added, nothing to revert
        if st != 0 or not (
            ordv[cp] < ordv[cq] or _pk_check(cdg, pk, cp, cq)
        ):
            for e2 in reversed(added):
                cdg._revert_used_id(e2)
                marked.discard(e2)
            return False
        _commit_edge(cdg, eid, cp, cq)
        marked.add(eid)
        added.append(eid)
    return True


def _source_template(net) -> List[int]:
    """Balancing-source template: every terminal (or, on switch-only
    fabrics, every node) carries one unit of traffic; per step only the
    destination's own entry changes."""
    tmpl_total = [0] * net.n_nodes
    for s in (net.terminals or range(net.n_nodes)):
        tmpl_total[s] = 1
    return tmpl_total


def _update_weights_batch(router: "NueLayerRouter", wl: List[float],
                          dest: int, tmpl_total: List[int]) -> None:
    """DFSSSP-style balancing update on the incremental weight mirror.

    Twin of ``LegacyNueLayerRouter._update_weights`` with the
    full-range ``sorted`` replaced by a counting sort over depths —
    descending depth with ascending node order inside each depth,
    which is exactly the stable order the oracle produces — the per-step
    source marking replaced by a copy of the batch-level template
    (sources never change within a layer; only the destination's own
    entry is zeroed), and the adds applied to the batch mirror ``wl``
    (synced back to the ndarray once per batch; same doubles, same
    order — each node's in-channel is unique, so every channel
    receives at most one add per step).  ``NueLayerRouter.adopt_column``
    reuses it to replay a retained column's update.
    """
    n = len(tmpl_total)
    used = router._used
    src_of = router.csr.src_l
    total = tmpl_total.copy()
    total[dest] = 0  # a destination is never its own traffic source
    depth = [-1] * n
    depth[dest] = 0
    maxd = 0
    stack: List[int] = []  # one reused chain scratch, no per-chain lists
    for v in range(n):
        if depth[v] >= 0 or used[v] < 0:
            continue
        u = v
        while depth[u] < 0 and used[u] >= 0:
            stack.append(u)
            u = src_of[used[u]]
        base = depth[u]
        if base < 0:
            stack.clear()
            continue
        while stack:
            base += 1
            depth[stack.pop()] = base  # pops nearest-to-root first
        if base > maxd:
            maxd = base  # the last label is v's own depth
    buckets: List[List[int]] = [[] for _ in range(maxd + 1)]
    for v in range(n):
        d = depth[v]
        if d > 0:
            buckets[d].append(v)
    for d in range(maxd, 0, -1):
        for v in buckets[d]:
            c = used[v]
            t = total[v]
            wl[c] += t
            total[src_of[c]] += t


def _main_loop(router: "NueLayerRouter", pk: _BatchScratch,
               wl: List[float]) -> None:
    """Algorithm 1 lines 10–23 — the batch twin of
    ``LegacyNueLayerRouter._run_main_loop``.

    Identical pop order (same lazy-deletion heap, same keys), identical
    branch conditions and commit effects; the differences are pure
    speed: prebuilt relaxation rows, stamped cycle searches, a state
    precheck before re-wire commits, and a flat-mirror child-rebase
    scan (twin of ``NueLayerRouter.child_rebase_dependencies`` +
    ``CompleteCDG.dependency_exists``, which are pure queries).
    """
    cdg = router.cdg
    heap = router._heap
    dist_node = router._dist_node
    dist_chan = router._dist_chan
    used = router._used
    csr = router.csr
    dst_of = csr.dst_l
    src_of = csr.src_l
    rows = pk.rows
    out_channels = router.net.out_channels
    state = cdg._state
    ordv = cdg._ord
    used_out = cdg._used_out
    used_in = cdg._used_in
    vertex_used = cdg._vertex_used
    uf_union = cdg._uf.union
    marked = router._step_marked
    mark = marked.add
    enable_shortcuts = router.enable_shortcuts
    unuse_step = router.unuse_step_dependency
    pops = stale = relax = pushes = fresh = 0
    while heap:
        d_cp, cp = heappop(heap)
        pops += 1
        if d_cp > dist_chan[cp]:
            stale += 1
            continue  # stale key: the channel was re-queued cheaper
        if used[dst_of[cp]] != cp:
            stale += 1
            continue  # stale: the head was re-wired to a better channel
        row = rows[cp]
        relax += len(row)
        for e, cq, y in row:
            alt = d_cp + wl[cq]
            if alt < dist_node[y]:
                uy = used[y]
                if uy < 0:
                    st = state[e]
                    if st == 0:
                        # fresh dependency: cycle-check, then commit
                        # used or block (inlined _try_fresh)
                        if ordv[cp] < ordv[cq] or _pk_check(
                            cdg, pk, cp, cq
                        ):
                            state[e] = 1
                            used_out[cp].append(cq)
                            used_in[cq].append(cp)
                            vertex_used[cp] = 1
                            vertex_used[cq] = 1
                            uf_union(cp, cq)
                            cdg.n_used_edges += 1
                            mark(e)
                            st = 1
                        else:
                            state[e] = 2
                            cdg.n_blocked_edges += 1
                    if st == 1:
                        used[y] = cq
                        dist_node[y] = alt
                        dist_chan[cq] = alt
                        heappush(heap, (alt, cq))
                        pushes += 1
                        fresh += 1  # the loop's only -1 -> c transition
                    # else: edge became a blocked routing restriction
                elif uy != cq:
                    # re-wire: the lazy §4.6.3 shortcut.  Backtracking
                    # can open shorter routes to a reached node; any
                    # dependency already recorded toward y's current
                    # tree children is re-validated on the new
                    # in-channel, exactly as a backtracking re-base
                    if not enable_shortcuts:
                        continue
                    st = state[e]
                    if st == 2 or st == 3:
                        continue  # atomic commit would fail on edge one
                    # child-rebase scan: every current tree child of y
                    # must be reachable from cq without a 180° turn
                    dq = dst_of[cq]
                    sq = src_of[cq]
                    needed = []
                    ok = True
                    for child in out_channels[y]:
                        if used[dst_of[child]] == child:
                            if src_of[child] != dq or dst_of[child] == sq:
                                ok = False
                                break
                            needed.append((cq, child))
                    if not ok:
                        continue
                    if needed:
                        ok = _try_edges_atomic(
                            router, cdg, pk, [(cp, cq)] + needed
                        )
                    else:
                        # single-edge commit: on failure the router's
                        # atomic commit leaves no trace (the fresh block
                        # marker is reverted), so nothing to roll back
                        ok = st == 1 or (
                            st == 0
                            and (ordv[cp] < ordv[cq]
                                 or _pk_check(cdg, pk, cp, cq))
                        )
                        if ok and st == 0:
                            _commit_edge(cdg, e, cp, cq)
                            marked.add(e)
                    if ok:
                        for _, child in needed:
                            unuse_step(uy, child)
                        used[y] = cq
                        dist_node[y] = alt
                        dist_chan[cq] = alt
                        heappush(heap, (alt, cq))
                        pushes += 1
                else:
                    # same channel, better distance: just update keys
                    st = state[e]
                    if st == 0:
                        if ordv[cp] < ordv[cq] or _pk_check(
                            cdg, pk, cp, cq
                        ):
                            state[e] = 1
                            used_out[cp].append(cq)
                            used_in[cq].append(cp)
                            vertex_used[cp] = 1
                            vertex_used[cq] = 1
                            uf_union(cp, cq)
                            cdg.n_used_edges += 1
                            mark(e)
                            st = 1
                        else:
                            state[e] = 2
                            cdg.n_blocked_edges += 1
                    if st == 1:
                        dist_node[y] = alt
                        dist_chan[cq] = alt
                        heappush(heap, (alt, cq))
                        pushes += 1
    router._pops += pops
    router._stale += stale
    router._relax += relax
    router._pushes += pushes
    return fresh


def _resolve_impasses(router: "NueLayerRouter", pk: _BatchScratch,
                      wl: List[float], dest: int, step: "RoutingStep",
                      miss: int) -> None:
    """Cold path shared by the backends: §4.6.2 backtrack rounds, then
    the full escape fallback when islands remain.  Mutates ``step``'s
    tallies exactly as the oracle's per-step backtracking loop does."""
    while miss and router.enable_backtracking:
        progressed, shortcuts = resolve_islands(router, dest)
        step.shortcuts_taken += shortcuts
        step.backtrack_rounds += 1
        if not progressed:
            break
        step.islands_resolved += 1
        _main_loop(router, pk, wl)
        miss = router._used.count(-1) - 1
    if miss:
        router._fall_back(dest)
        step.fell_back = True


def _flush_step_obs(router: "NueLayerRouter", step: "RoutingStep") -> None:
    """Per-step counter/histogram flush: one event per counter family
    per step, tagged with the layer, from every backend."""
    obs.count_many({
        "nue.route_steps": 1,
        "nue.heap_pops": step.heap_pops,
        "nue.stale_pops": step.stale_pops,
        "nue.relaxations": step.relaxations,
        "nue.heap_pushes": step.heap_pushes,
        "nue.backtracks": step.islands_resolved,
        "nue.backtrack_rounds": step.backtrack_rounds,
        "nue.shortcuts": step.shortcuts_taken,
        "nue.escape_fallbacks": int(step.fell_back),
    }, layer=router.layer_index)
    obs.observe("nue.step.heap_pops", step.heap_pops,
                layer=router.layer_index)
    obs.observe("nue.step.relaxations", step.relaxations,
                layer=router.layer_index)


def route_batch_python(router: "NueLayerRouter", dests: List[int],
                       block: np.ndarray, cols: List[int]
                       ) -> List["RoutingStep"]:
    """Route ``dests`` sequentially on shared batch state.

    Writes each destination's traffic-direction forwarding column into
    ``block[:, cols[i]]`` and returns the per-step work records (see
    :meth:`NueLayerRouter.route_batch`).
    """
    from repro.core.dijkstra import RoutingStep

    net = router.net
    csr = router.csr
    pk = _BatchScratch(csr)
    # incremental weight mirror: same doubles as the oracle's weight
    # array because the exact same add/subtract sequence is applied;
    # synced back to the ndarray once at the end
    wl: List[float] = router.weights.tolist()
    router._w = wl  # the §4.6.2 resolver reads the step snapshot here
    tmpl_total = _source_template(net)
    has_bundles = bool(csr.bundles)
    used = router._used
    dist_node = router._dist_node
    dist_chan = router._dist_chan
    tmpl_node = router._tmpl_node
    tmpl_chan = router._tmpl_chan
    tmpl_used = router._tmpl_used
    steps: List[RoutingStep] = []
    used_snapshots: List[List[int]] = []

    for dest in dests:
        dist_node[:] = tmpl_node
        dist_chan[:] = tmpl_chan
        used[:] = tmpl_used
        router._heap.clear()
        router._step_marked.clear()
        router._pops = router._stale = router._relax = router._pushes = 0
        step = RoutingStep(dest=dest)

        if has_bundles:
            # destination-hash port-group rotation: apply only the
            # non-zero entries of the bias vector the oracle adds
            bias_pairs = pk.bias_pairs(csr, dest)
            for ch, b in bias_pairs:
                wl[ch] += b

        router._seed(dest)
        # unreached-node accounting without per-round O(n) list scans:
        # ``used`` only transitions -1 -> c (the dest entry stays -1),
        # so count once after seeding (C-fast) and subtract the main
        # loop's fresh reaches; island resolution rewrites ``used``
        # arbitrarily, so recount after each (rare) backtrack round
        miss = used.count(-1) - 1
        miss -= _main_loop(router, pk, wl)
        if miss:
            _resolve_impasses(router, pk, wl, dest, step, miss)

        if has_bundles:
            for ch, b in bias_pairs:
                wl[ch] -= b
        _update_weights_batch(router, wl, dest, tmpl_total)

        used_snapshots.append(used.copy())
        step.heap_pops = router._pops
        step.stale_pops = router._stale
        step.relaxations = router._relax
        step.heap_pushes = router._pushes
        if obs.enabled():
            _flush_step_obs(router, step)
        steps.append(step)

    router.weights[:] = wl

    # scatter the traffic-direction columns in one vectorised pass:
    # node v forwards toward dest on the reverse of its used channel
    u = np.array(used_snapshots, dtype=np.int32).T  # (n_nodes, n_dests)
    out = np.where(u >= 0, csr.channel_reverse[u], np.int32(-1))
    out[dests, np.arange(len(dests))] = -1
    block[:, cols] = out
    return steps
