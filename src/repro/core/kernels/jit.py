"""Optional numba JIT batch kernel (``kernel="numba"``).

The same batched layer routing as :mod:`repro.core.kernels.python`,
restated over flat numpy arrays in the numba *nopython* subset: every
structure the hot loop touches is a typed array, so ``@njit`` compiles
the whole per-destination Dijkstra — heap, relaxations, Pearce-Kelly
cycle searches, atomic re-wire commits — to native code with zero
Python-object traffic.

numba is **never** a hard dependency: when it cannot be imported the
``@njit`` decorators degrade to identity and every kernel function
runs interpreted over the same arrays — slow, but bit-identical,
which is how the equality suite pins this backend on machines (and CI
jobs) without numba.  Backend selection lives in
:mod:`repro.core.kernels`; ``"auto"`` only picks this module when the
import probe succeeds.

Array mapping (exact-state discipline):

* ``CompleteCDG._state`` / ``_vertex_used`` are *shared* writable
  ``np.frombuffer`` views over the byte planes — the kernel and the
  Python objects literally see the same bytes, so no sync step exists
  for them.
* ``_used_out`` / ``_used_in`` become slot-pool linked lists
  (``head``/``tail``/``next``/``val`` + a free list): O(1) ordered
  append, first-occurrence unlink on the rare revert — the same
  insertion order ``list.append``/``list.remove`` maintain, which the
  Pearce-Kelly searches traverse (their visited *regions* are
  order-independent, but the counters are pinned, so order is
  preserved anyway).  A live used edge owns exactly one slot per
  direction and freed slots are recycled, so ``n_dep_edges`` slots
  suffice.
* ``_ord``, the union-find ``parent``/``size`` (path halving + union
  by size, transcribed operation-for-operation) and the CDG/step
  counters live in int64 arrays, written back to the Python objects
  at batch end (and synced both ways around the rare cold path).
* the binary heap is an array pair ordered by ``(dist, channel)`` —
  the lazy-deletion key multiset never holds duplicates (every
  re-push strictly lowers ``dist_chan``), so the pop-value sequence
  of *any* min-heap implementation equals ``heapq``'s.

The cold paths — §4.6.2 island backtracking and the escape fallback —
run once per impasse, not per relaxation: the driver syncs the arrays
into the router's list state, reuses the shared
:func:`repro.core.kernels.python._resolve_impasses`, and syncs back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

import numpy as np

from repro.obs import core as obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.dijkstra import NueLayerRouter, RoutingStep

__all__ = ["route_batch_numba", "NUMBA_AVAILABLE"]

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit as _njit

    NUMBA_AVAILABLE = True
except Exception:  # pragma: no cover - the interpreted default
    NUMBA_AVAILABLE = False

    def _njit(*args, **kwargs):  # type: ignore[misc]
        """Identity decorator: the interpreted (no-numba) fallback."""
        if args and callable(args[0]):
            return args[0]

        def deco(fn):
            return fn

        return deco


# counters-array slots (CDG tallies + per-step work tallies + epochs)
_C_USED = 0        # CompleteCDG.n_used_edges
_C_BLOCKED = 1     # CompleteCDG.n_blocked_edges
_C_CYCLE = 2       # CompleteCDG.cycle_searches
_C_REORDERS = 3    # CompleteCDG.pk_reorders
_C_MOVED = 4       # CompleteCDG.pk_reorder_moved
_C_EPOCH = 5       # Pearce-Kelly stamp epoch
_C_STEPEP = 6      # step epoch for the marked-edges plane
_C_POPS = 7
_C_STALE = 8
_C_RELAX = 9
_C_PUSHES = 10
_C_UFCOUNT = 11    # UnionFind._count


# -- nopython-subset kernel functions -----------------------------------------


@_njit(cache=True)
def _edge_id(dep_ptr, dep_dst, cp, cq):
    """Flat CDG edge id of ``(cp, cq)`` by binary search; -1 if absent."""
    lo = dep_ptr[cp]
    hi = dep_ptr[cp + 1]
    while lo < hi:
        mid = (lo + hi) >> 1
        if dep_dst[mid] < cq:
            lo = mid + 1
        else:
            hi = mid
    if lo < dep_ptr[cp + 1] and dep_dst[lo] == cq:
        return lo
    return -1


@_njit(cache=True)
def _hpush(hd, hc, hsize, d, c):
    """Binary min-heap push by ``(d, c)``; returns the new size."""
    i = hsize
    hd[i] = d
    hc[i] = c
    while i > 0:
        p = (i - 1) >> 1
        if hd[p] < hd[i] or (hd[p] == hd[i] and hc[p] <= hc[i]):
            break
        td = hd[i]
        hd[i] = hd[p]
        hd[p] = td
        tc = hc[i]
        hc[i] = hc[p]
        hc[p] = tc
        i = p
    return hsize + 1


@_njit(cache=True)
def _hpop(hd, hc, hsize):
    """Pop the ``(d, c)`` minimum; caller decrements its size."""
    d = hd[0]
    c = hc[0]
    n = hsize - 1
    if n > 0:
        hd[0] = hd[n]
        hc[0] = hc[n]
        i = 0
        while True:
            left = 2 * i + 1
            if left >= n:
                break
            m = left
            r = left + 1
            if r < n and (hd[r] < hd[left]
                          or (hd[r] == hd[left] and hc[r] < hc[left])):
                m = r
            if hd[m] < hd[i] or (hd[m] == hd[i] and hc[m] < hc[i]):
                td = hd[i]
                hd[i] = hd[m]
                hd[m] = td
                tc = hc[i]
                hc[i] = hc[m]
                hc[m] = tc
                i = m
            else:
                break
    return d, c


@_njit(cache=True)
def _uf_find(parent, x):
    """UnionFind.find with path halving (exact transcription)."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


@_njit(cache=True)
def _uf_union(parent, size, counters, a, b):
    """UnionFind.union by size (exact transcription, incl. the swap)."""
    ra = _uf_find(parent, a)
    rb = _uf_find(parent, b)
    if ra == rb:
        return
    if size[ra] < size[rb]:
        t = ra
        ra = rb
        rb = t
    parent[rb] = ra
    size[ra] += size[rb]
    counters[_C_UFCOUNT] -= 1


@_njit(cache=True)
def _adj_append(head, tail, nxt, val, alloc, c, x):
    """Ordered append to channel ``c``'s linked adjacency row."""
    if alloc[1] != -1:
        s = alloc[1]
        alloc[1] = nxt[s]
    else:
        s = alloc[0]
        alloc[0] = s + 1
    val[s] = x
    nxt[s] = -1
    t = tail[c]
    if t == -1:
        head[c] = s
    else:
        nxt[t] = s
    tail[c] = s


@_njit(cache=True)
def _adj_remove(head, tail, nxt, val, alloc, c, x):
    """Unlink the first occurrence of ``x`` (``list.remove`` twin)."""
    prev = -1
    s = head[c]
    while s != -1:
        if val[s] == x:
            follow = nxt[s]
            if prev == -1:
                head[c] = follow
            else:
                nxt[prev] = follow
            if tail[c] == s:
                tail[c] = prev
            nxt[s] = alloc[1]
            alloc[1] = s
            return
        prev = s
        s = nxt[s]


@_njit(cache=True)
def _commit(state, vu, ohead, otail, onext, oval, oalloc,
            ihead, itail, inext, ival, ialloc,
            parent, size, counters, eid, cp, cq):
    """Mark a cycle-checked edge used (``_commit_edge`` twin)."""
    state[eid] = 1
    _adj_append(ohead, otail, onext, oval, oalloc, cp, cq)
    _adj_append(ihead, itail, inext, ival, ialloc, cq, cp)
    vu[cp] = 1
    vu[cq] = 1
    _uf_union(parent, size, counters, cp, cq)
    counters[_C_USED] += 1


@_njit(cache=True)
def _revert_used(state, ohead, otail, onext, oval, oalloc,
                 ihead, itail, inext, ival, ialloc,
                 dep_src, dep_dst, counters, eid):
    """Exact rollback used -> unused (ω merge stays, as in the CDG)."""
    cp = dep_src[eid]
    cq = dep_dst[eid]
    state[eid] = 0
    _adj_remove(ohead, otail, onext, oval, oalloc, cp, cq)
    _adj_remove(ihead, itail, inext, ival, ialloc, cq, cp)
    counters[_C_USED] -= 1


@_njit(cache=True)
def _pk(ohead, onext, oval, ihead, inext, ival,
        ordv, stamp, counters, fwd, bwd, sa, sb, merged, cp, cq):
    """Pearce-Kelly insert check + bounded local reorder.

    Array twin of ``kernels.python._pk_check`` — same visit windows,
    same counter increments, same final ``ord`` (regions re-sorted by
    old order, backward block before forward block, reusing the union
    of their old slots ascending).
    """
    lb = ordv[cq]
    ub = ordv[cp]
    counters[_C_CYCLE] += 1
    epoch = counters[_C_EPOCH] + 1
    counters[_C_EPOCH] = epoch
    stamp[cq] = epoch
    fwd[0] = cq
    fn = 1
    i = 0
    while i < fn:
        s = ohead[fwd[i]]
        i += 1
        while s != -1:
            nxt = oval[s]
            if stamp[nxt] != epoch:
                if nxt == cp:
                    return False  # cq reaches cp: edge closes a cycle
                if ordv[nxt] < ub:
                    stamp[nxt] = epoch
                    fwd[fn] = nxt
                    fn += 1
            s = onext[s]
    epoch = counters[_C_EPOCH] + 1
    counters[_C_EPOCH] = epoch
    stamp[cp] = epoch
    bwd[0] = cp
    bn = 1
    i = 0
    while i < bn:
        s = ihead[bwd[i]]
        i += 1
        while s != -1:
            prv = ival[s]
            if stamp[prv] != epoch and ordv[prv] > lb:
                stamp[prv] = epoch
                bwd[bn] = prv
                bn += 1
            s = inext[s]
    counters[_C_REORDERS] += 1
    counters[_C_MOVED] += fn + bn
    # insertion sorts (orders are distinct, so fully deterministic)
    for i in range(1, bn):
        x = bwd[i]
        k = ordv[x]
        j = i - 1
        while j >= 0 and ordv[bwd[j]] > k:
            bwd[j + 1] = bwd[j]
            j -= 1
        bwd[j + 1] = x
    for i in range(1, fn):
        x = fwd[i]
        k = ordv[x]
        j = i - 1
        while j >= 0 and ordv[fwd[j]] > k:
            fwd[j + 1] = fwd[j]
            j -= 1
        fwd[j + 1] = x
    for i in range(bn):
        sa[i] = ordv[bwd[i]]
    for i in range(fn):
        sb[i] = ordv[fwd[i]]
    i = 0
    j = 0
    k = 0
    while i < bn and j < fn:  # merge the two sorted slot sequences
        if sa[i] <= sb[j]:
            merged[k] = sa[i]
            i += 1
        else:
            merged[k] = sb[j]
            j += 1
        k += 1
    while i < bn:
        merged[k] = sa[i]
        i += 1
        k += 1
    while j < fn:
        merged[k] = sb[j]
        j += 1
        k += 1
    k = 0
    for i in range(bn):
        ordv[bwd[i]] = merged[k]
        k += 1
    for i in range(fn):
        ordv[fwd[i]] = merged[k]
        k += 1
    return True


@_njit(cache=True)
def _dest_loop(dep_ptr, dep_dst, dep_head, dep_src,
               out_ptr, out_idx, src_of, dst_of,
               state, vu, ordv, parent, size,
               ohead, otail, onext, oval, oalloc,
               ihead, itail, inext, ival, ialloc,
               marked_ep, counters,
               dist_node, dist_chan, used, wa,
               hd, hc, hsize,
               stamp, fwd, bwd, sa, sb, merged, cbuf, added,
               enable_shortcuts):
    """Algorithm 1 lines 10–23 on flat arrays — the compiled twin of
    ``kernels.python._main_loop`` (same pops, same branches, same
    commits, same counters)."""
    step_ep = counters[_C_STEPEP]
    pops = 0
    stale = 0
    relax = 0
    pushes = 0
    while hsize > 0:
        d_cp, cp = _hpop(hd, hc, hsize)
        hsize -= 1
        pops += 1
        if d_cp > dist_chan[cp]:
            stale += 1
            continue  # stale key: the channel was re-queued cheaper
        if used[dst_of[cp]] != cp:
            stale += 1
            continue  # stale: the head was re-wired to a better channel
        lo = dep_ptr[cp]
        hi = dep_ptr[cp + 1]
        relax += hi - lo
        if hsize + (hi - lo) >= hd.shape[0]:  # ≤ 1 push per row entry
            ncap = hd.shape[0]
            while ncap <= hsize + (hi - lo):
                ncap *= 2
            nhd = np.empty(ncap, dtype=np.float64)
            nhc = np.empty(ncap, dtype=np.int64)
            nhd[:hsize] = hd[:hsize]
            nhc[:hsize] = hc[:hsize]
            hd = nhd
            hc = nhc
        for e in range(lo, hi):
            cq = dep_dst[e]
            y = dep_head[e]
            alt = d_cp + wa[cq]
            if alt < dist_node[y]:
                uy = used[y]
                if uy < 0:
                    st = state[e]
                    if st == 0:
                        # fresh dependency: cycle-check, commit or block
                        if ordv[cp] < ordv[cq] or _pk(
                            ohead, onext, oval, ihead, inext, ival,
                            ordv, stamp, counters,
                            fwd, bwd, sa, sb, merged, cp, cq,
                        ):
                            _commit(state, vu,
                                    ohead, otail, onext, oval, oalloc,
                                    ihead, itail, inext, ival, ialloc,
                                    parent, size, counters, e, cp, cq)
                            marked_ep[e] = step_ep
                            st = 1
                        else:
                            state[e] = 2
                            counters[_C_BLOCKED] += 1
                    if st == 1:
                        used[y] = cq
                        dist_node[y] = alt
                        dist_chan[cq] = alt
                        hsize = _hpush(hd, hc, hsize, alt, cq)
                        pushes += 1
                elif uy != cq:
                    # re-wire (lazy §4.6.3 shortcut)
                    if enable_shortcuts == 0:
                        continue
                    st = state[e]
                    if st >= 2:
                        continue  # atomic commit would fail on edge one
                    # child-rebase scan: every current tree child of y
                    # must be reachable from cq without a 180° turn
                    dq = dst_of[cq]
                    sq = src_of[cq]
                    nchild = 0
                    ok = True
                    for oi in range(out_ptr[y], out_ptr[y + 1]):
                        child = out_idx[oi]
                        if used[dst_of[child]] == child:
                            if src_of[child] != dq or dst_of[child] == sq:
                                ok = False
                                break
                            cbuf[nchild] = child
                            nchild += 1
                    if not ok:
                        continue
                    if nchild > 0:
                        # all-or-nothing commit of (cp,cq) + rebases
                        nadd = 0
                        for t in range(nchild + 1):
                            if t == 0:
                                a = cp
                                b = cq
                                eid2 = e
                            else:
                                a = cq
                                b = cbuf[t - 1]
                                eid2 = _edge_id(dep_ptr, dep_dst, a, b)
                            st2 = state[eid2]
                            if st2 == 1:
                                continue  # already used: nothing added
                            if st2 != 0 or not (
                                ordv[a] < ordv[b] or _pk(
                                    ohead, onext, oval,
                                    ihead, inext, ival,
                                    ordv, stamp, counters,
                                    fwd, bwd, sa, sb, merged, a, b,
                                )
                            ):
                                for r in range(nadd - 1, -1, -1):
                                    e2 = added[r]
                                    _revert_used(
                                        state,
                                        ohead, otail, onext, oval, oalloc,
                                        ihead, itail, inext, ival, ialloc,
                                        dep_src, dep_dst, counters, e2)
                                    marked_ep[e2] = 0
                                ok = False
                                break
                            _commit(state, vu,
                                    ohead, otail, onext, oval, oalloc,
                                    ihead, itail, inext, ival, ialloc,
                                    parent, size, counters, eid2, a, b)
                            marked_ep[eid2] = step_ep
                            added[nadd] = eid2
                            nadd += 1
                    else:
                        # single-edge commit: a failed check leaves no
                        # trace, so nothing to roll back
                        ok = st == 1
                        if st == 0:
                            ok = ordv[cp] < ordv[cq] or _pk(
                                ohead, onext, oval, ihead, inext, ival,
                                ordv, stamp, counters,
                                fwd, bwd, sa, sb, merged, cp, cq,
                            )
                            if ok:
                                _commit(state, vu,
                                        ohead, otail, onext, oval, oalloc,
                                        ihead, itail, inext, ival, ialloc,
                                        parent, size, counters, e, cp, cq)
                                marked_ep[e] = step_ep
                    if ok:
                        for t in range(nchild):
                            # unuse_step_dependency(uy, child) twin
                            e2 = _edge_id(dep_ptr, dep_dst, uy, cbuf[t])
                            if e2 >= 0 and marked_ep[e2] == step_ep:
                                _revert_used(
                                    state,
                                    ohead, otail, onext, oval, oalloc,
                                    ihead, itail, inext, ival, ialloc,
                                    dep_src, dep_dst, counters, e2)
                                marked_ep[e2] = 0
                        used[y] = cq
                        dist_node[y] = alt
                        dist_chan[cq] = alt
                        hsize = _hpush(hd, hc, hsize, alt, cq)
                        pushes += 1
                else:
                    # same channel, better distance: just update keys
                    st = state[e]
                    if st == 0:
                        if ordv[cp] < ordv[cq] or _pk(
                            ohead, onext, oval, ihead, inext, ival,
                            ordv, stamp, counters,
                            fwd, bwd, sa, sb, merged, cp, cq,
                        ):
                            _commit(state, vu,
                                    ohead, otail, onext, oval, oalloc,
                                    ihead, itail, inext, ival, ialloc,
                                    parent, size, counters, e, cp, cq)
                            marked_ep[e] = step_ep
                            st = 1
                        else:
                            state[e] = 2
                            counters[_C_BLOCKED] += 1
                    if st == 1:
                        dist_node[y] = alt
                        dist_chan[cq] = alt
                        hsize = _hpush(hd, hc, hsize, alt, cq)
                        pushes += 1
    counters[_C_POPS] += pops
    counters[_C_STALE] += stale
    counters[_C_RELAX] += relax
    counters[_C_PUSHES] += pushes
    return 0


@_njit(cache=True)
def _update_weights(used, src_of, wa, tmpl, total, depth, stk, order,
                    cnt, dest):
    """Balancing update on arrays (``_update_weights_batch`` twin):
    counting sort over subtree depths, adds applied in descending
    depth with ascending node order — the oracle's exact stable
    order, hence the exact same doubles."""
    n = used.shape[0]
    for v in range(n):
        total[v] = tmpl[v]
        depth[v] = -1
    total[dest] = 0  # a destination is never its own traffic source
    depth[dest] = 0
    maxd = 0
    sp = 0
    for v in range(n):
        if depth[v] >= 0 or used[v] < 0:
            continue
        u = v
        while depth[u] < 0 and used[u] >= 0:
            stk[sp] = u
            sp += 1
            u = src_of[used[u]]
        base = depth[u]
        if base < 0:
            sp = 0
            continue
        while sp > 0:
            sp -= 1
            base += 1
            depth[stk[sp]] = base  # pops nearest-to-root first
        if base > maxd:
            maxd = base
    for d in range(maxd + 2):
        cnt[d] = 0
    for v in range(n):
        if depth[v] > 0:
            cnt[depth[v]] += 1
    s = 0
    for d in range(1, maxd + 1):
        t = cnt[d]
        cnt[d] = s
        s += t
    for v in range(n):  # ascending v => ascending order inside a depth
        d = depth[v]
        if d > 0:
            order[cnt[d]] = v
            cnt[d] += 1
    for d in range(maxd, 0, -1):  # cnt[d] is now the end of bucket d
        lo = cnt[d - 1] if d > 1 else 0
        for i in range(lo, cnt[d]):
            v = order[i]
            c = used[v]
            t = total[v]
            wa[c] += t
            total[src_of[c]] += t
    return 0


# -- driver (plain Python) -----------------------------------------------------


class _LayerArrays:
    """Flat-array image of one layer's routing state (see module doc).

    ``state``/``vu`` are shared byte views; everything else is loaded
    from the Python objects by :meth:`load_cdg` and written back by
    :meth:`store_cdg` (at batch end and around the rare cold path).
    """

    def __init__(self, router: "NueLayerRouter") -> None:
        csr = router.csr
        cdg = router.cdg
        n = csr.n_nodes
        C = csr.n_channels
        E = csr.n_dep_edges
        cap = max(1, E)
        self.n_channels = C
        # static structure (int64 once, for uniform nopython typing)
        self.dep_ptr = np.asarray(csr.dep_ptr, dtype=np.int64)
        self.dep_dst = np.asarray(csr.dep_dst, dtype=np.int64)
        self.dep_head = np.asarray(csr.dep_head, dtype=np.int64)
        self.dep_src = np.asarray(csr.dep_src, dtype=np.int64)
        self.out_ptr = np.asarray(csr.out_ptr, dtype=np.int64)
        self.out_idx = np.asarray(csr.out_idx, dtype=np.int64)
        self.src_of = np.asarray(csr.channel_src, dtype=np.int64)
        self.dst_of = np.asarray(csr.channel_dst, dtype=np.int64)
        # shared CDG byte planes (zero-copy, writable)
        self.state = np.frombuffer(cdg._state, dtype=np.uint8)
        self.vu = np.frombuffer(cdg._vertex_used, dtype=np.uint8)
        # mirrored CDG/router state
        self.ordv = np.empty(C, dtype=np.int64)
        self.parent = np.empty(C, dtype=np.int64)
        self.size = np.empty(C, dtype=np.int64)
        self.ohead = np.empty(C, dtype=np.int64)
        self.otail = np.empty(C, dtype=np.int64)
        self.onext = np.empty(cap, dtype=np.int64)
        self.oval = np.empty(cap, dtype=np.int64)
        self.oalloc = np.zeros(2, dtype=np.int64)
        self.ihead = np.empty(C, dtype=np.int64)
        self.itail = np.empty(C, dtype=np.int64)
        self.inext = np.empty(cap, dtype=np.int64)
        self.ival = np.empty(cap, dtype=np.int64)
        self.ialloc = np.zeros(2, dtype=np.int64)
        self.marked_ep = np.zeros(cap, dtype=np.int64)
        self.counters = np.zeros(16, dtype=np.int64)
        # search state
        self.dist_node = np.empty(n, dtype=np.float64)
        self.dist_chan = np.empty(C, dtype=np.float64)
        self.used = np.empty(n, dtype=np.int64)
        self.wa = np.array(router.weights, dtype=np.float64)
        self.hd = np.empty(64 + 8 * C, dtype=np.float64)
        self.hc = np.empty(64 + 8 * C, dtype=np.int64)
        # Pearce-Kelly / re-wire scratch
        self.stamp = np.zeros(C, dtype=np.int64)
        self.fwd = np.empty(C, dtype=np.int64)
        self.bwd = np.empty(C, dtype=np.int64)
        self.sa = np.empty(C, dtype=np.int64)
        self.sb = np.empty(C, dtype=np.int64)
        self.merged = np.empty(max(1, 2 * C), dtype=np.int64)
        maxdeg = int(np.diff(self.out_ptr).max()) if n else 0
        self.cbuf = np.empty(maxdeg + 1, dtype=np.int64)
        self.added = np.empty(maxdeg + 2, dtype=np.int64)
        # balancing scratch
        self.total = np.empty(n, dtype=np.int64)
        self.depth = np.empty(n, dtype=np.int64)
        self.stk = np.empty(max(1, n), dtype=np.int64)
        self.order = np.empty(max(1, n), dtype=np.int64)
        self.cnt = np.empty(n + 2, dtype=np.int64)

    # -- CDG object <-> array sync ---------------------------------------------

    def load_cdg(self, cdg) -> None:
        """Arrays <- Python CDG objects (ord, union-find, adjacency,
        counters).  The byte planes are shared and need no load."""
        self.ordv[:] = cdg._ord
        uf = cdg._uf
        self.parent[:] = uf._parent
        self.size[:] = uf._size
        c = self.counters
        c[_C_USED] = cdg.n_used_edges
        c[_C_BLOCKED] = cdg.n_blocked_edges
        c[_C_CYCLE] = cdg.cycle_searches
        c[_C_REORDERS] = cdg.pk_reorders
        c[_C_MOVED] = cdg.pk_reorder_moved
        c[_C_UFCOUNT] = uf._count
        for head, tail, nxt, val, alloc, rows in (
            (self.ohead, self.otail, self.onext, self.oval, self.oalloc,
             cdg._used_out),
            (self.ihead, self.itail, self.inext, self.ival, self.ialloc,
             cdg._used_in),
        ):
            head.fill(-1)
            tail.fill(-1)
            slot = 0
            for ci, row in enumerate(rows):
                if row:
                    head[ci] = slot
                    for x in row:
                        val[slot] = x
                        nxt[slot] = slot + 1
                        slot += 1
                    nxt[slot - 1] = -1
                    tail[ci] = slot - 1
            alloc[0] = slot
            alloc[1] = -1

    def store_cdg(self, cdg) -> None:
        """Python CDG objects <- arrays (inverse of :meth:`load_cdg`,
        insertion order preserved by walking the linked rows)."""
        cdg._ord[:] = self.ordv.tolist()
        uf = cdg._uf
        uf._parent[:] = self.parent.tolist()
        uf._size[:] = self.size.tolist()
        uf._count = int(self.counters[_C_UFCOUNT])
        cdg.n_used_edges = int(self.counters[_C_USED])
        cdg.n_blocked_edges = int(self.counters[_C_BLOCKED])
        cdg.cycle_searches = int(self.counters[_C_CYCLE])
        cdg.pk_reorders = int(self.counters[_C_REORDERS])
        cdg.pk_reorder_moved = int(self.counters[_C_MOVED])
        for head, nxt, val, rows in (
            (self.ohead, self.onext, self.oval, cdg._used_out),
            (self.ihead, self.inext, self.ival, cdg._used_in),
        ):
            for ci in range(self.n_channels):
                row = rows[ci]
                row.clear()
                s = int(head[ci])
                while s != -1:
                    row.append(int(val[s]))
                    s = int(nxt[s])


def _sync_to_router(router: "NueLayerRouter", A: _LayerArrays) -> None:
    """Router/CDG list state <- arrays, for the shared Python cold
    path (island backtracking, escape fallback)."""
    A.store_cdg(router.cdg)
    router._dist_node[:] = A.dist_node.tolist()
    router._dist_chan[:] = A.dist_chan.tolist()
    router._used[:] = A.used.tolist()
    router._w = A.wa.tolist()
    router._heap.clear()  # the main loop always exits with an empty heap
    step_ep = int(A.counters[_C_STEPEP])
    marked = router._step_marked
    marked.clear()
    marked.update(int(e) for e in np.nonzero(A.marked_ep == step_ep)[0])
    router._pops = int(A.counters[_C_POPS])
    router._stale = int(A.counters[_C_STALE])
    router._relax = int(A.counters[_C_RELAX])
    router._pushes = int(A.counters[_C_PUSHES])


def _sync_from_router(router: "NueLayerRouter", A: _LayerArrays) -> None:
    """Arrays <- router/CDG list state, after the Python cold path."""
    A.load_cdg(router.cdg)
    A.dist_node[:] = router._dist_node
    A.dist_chan[:] = router._dist_chan
    A.used[:] = router._used
    A.wa[:] = router._w
    step_ep = int(A.counters[_C_STEPEP])
    A.marked_ep[A.marked_ep == step_ep] = 0
    for e in router._step_marked:
        A.marked_ep[e] = step_ep
    A.counters[_C_POPS] = router._pops
    A.counters[_C_STALE] = router._stale
    A.counters[_C_RELAX] = router._relax
    A.counters[_C_PUSHES] = router._pushes


def _seed_arrays(router: "NueLayerRouter", A: _LayerArrays,
                 dest: int, retired) -> int:
    """Algorithm 1 lines 6–9 on arrays (``NueLayerRouter._seed`` twin);
    returns the heap size (seed pushes go into ``counters``)."""
    net = router.net
    A.dist_node[dest] = 0.0
    hsize = 0
    if net.is_terminal(dest):
        c0 = router.csr.injection_channel[dest]
        if retired[c0]:
            raise ValueError(
                f"terminal {net.node_names[dest]} is orphaned: its "
                "injection channel is retired"
            )
        s = net.channel_dst[c0]
        A.dist_chan[c0] = 0.0
        A.dist_node[s] = 0.0
        A.used[s] = c0
        A.vu[c0] = 1
        hsize = _hpush(A.hd, A.hc, hsize, 0.0, c0)
        A.counters[_C_PUSHES] += 1
    else:
        for cq in sorted(net.out_channels[dest]):
            if retired[cq]:
                continue
            y = net.channel_dst[cq]
            alt = float(A.wa[cq])
            if alt < A.dist_node[y]:
                A.vu[cq] = 1
                A.dist_node[y] = alt
                A.dist_chan[cq] = alt
                A.used[y] = cq
                hsize = _hpush(A.hd, A.hc, hsize, alt, cq)
                A.counters[_C_PUSHES] += 1
    return hsize


def route_batch_numba(router: "NueLayerRouter", dests: List[int],
                      block: np.ndarray, cols: List[int]
                      ) -> List["RoutingStep"]:
    """Route ``dests`` on the compiled (or interpreted) array kernel.

    Same contract as :func:`kernels.python.route_batch_python`:
    columns scattered into ``block[:, cols]``, per-step work records
    returned, every observable bit of layer state identical.
    """
    from repro.core.dijkstra import RoutingStep
    from repro.core.kernels.python import (
        _BatchScratch,
        _BiasCache,
        _flush_step_obs,
        _resolve_impasses,
    )

    net = router.net
    cdg = router.cdg
    csr = router.csr
    n = net.n_nodes
    A = _LayerArrays(router)
    A.load_cdg(cdg)
    bias = _BiasCache(csr)
    has_bundles = bool(csr.bundles)
    retired = cdg.channel_retired_mask
    # balancing-source template (terminals, or every node when none)
    tmpl_total = np.zeros(n, dtype=np.int64)
    if len(csr.terminal_ids):
        tmpl_total[csr.terminal_ids] = 1
    else:
        tmpl_total[:] = 1
    enable_shortcuts = np.int64(1 if router.enable_shortcuts else 0)
    pk_py = None  # lazy python-kernel scratch, built on the first impasse
    steps: List[RoutingStep] = []
    snaps: List[np.ndarray] = []

    for dest in dests:
        A.dist_node.fill(np.inf)
        A.dist_chan.fill(np.inf)
        A.used.fill(-1)
        A.counters[_C_STEPEP] += 1
        A.counters[_C_POPS] = 0
        A.counters[_C_STALE] = 0
        A.counters[_C_RELAX] = 0
        A.counters[_C_PUSHES] = 0
        step = RoutingStep(dest=dest)
        if has_bundles:
            pairs = bias.pairs(csr, dest)
            for ch, b in pairs:
                A.wa[ch] += b
        hsize = _seed_arrays(router, A, dest, retired)
        _dest_loop(
            A.dep_ptr, A.dep_dst, A.dep_head, A.dep_src,
            A.out_ptr, A.out_idx, A.src_of, A.dst_of,
            A.state, A.vu, A.ordv, A.parent, A.size,
            A.ohead, A.otail, A.onext, A.oval, A.oalloc,
            A.ihead, A.itail, A.inext, A.ival, A.ialloc,
            A.marked_ep, A.counters,
            A.dist_node, A.dist_chan, A.used, A.wa,
            A.hd, A.hc, hsize,
            A.stamp, A.fwd, A.bwd, A.sa, A.sb, A.merged, A.cbuf, A.added,
            enable_shortcuts,
        )
        miss = int(np.count_nonzero(A.used < 0)) - 1
        if miss:
            # rare cold path: run the shared Python resolver on synced
            # list state, then resume on arrays
            _sync_to_router(router, A)
            if pk_py is None:
                pk_py = _BatchScratch(csr)
            _resolve_impasses(router, pk_py, router._w, dest, step, miss)
            _sync_from_router(router, A)
        if has_bundles:
            for ch, b in pairs:
                A.wa[ch] -= b
        _update_weights(A.used, A.src_of, A.wa, tmpl_total, A.total,
                        A.depth, A.stk, A.order, A.cnt, dest)
        snaps.append(A.used.copy())
        step.heap_pops = int(A.counters[_C_POPS])
        step.stale_pops = int(A.counters[_C_STALE])
        step.relaxations = int(A.counters[_C_RELAX])
        step.heap_pushes = int(A.counters[_C_PUSHES])
        if obs.enabled():
            _flush_step_obs(router, step)
        steps.append(step)

    # batch writeback: the Python objects end in exactly the state the
    # python kernel leaves them in (last destination's search state)
    _sync_to_router(router, A)
    router.weights[:] = A.wa

    u = np.array(snaps, dtype=np.int64).T  # (n_nodes, n_dests)
    out = np.where(u >= 0, csr.channel_reverse[u], -1).astype(np.int32)
    out[np.asarray(dests), np.arange(len(dests))] = -1
    block[:, cols] = out
    return steps
