"""Modified Dijkstra inside the complete CDG (paper Algorithm 1).

One *routing step* computes deadlock-free routes from every node toward
one destination within one virtual layer, walking the layer's complete
CDG and blocking cycle-closing dependencies on the fly.

Orientation
-----------
The search starts at the route **destination** and discovers the
network outward, exactly as Algorithm 1 does (its ``Result`` is
``P_{n_y, n_0}`` — paths *toward* the search source).  A node's
forwarding channel toward the destination is the reverse of its
``usedChannel``.  The dependencies recorded in the CDG are therefore
the *mirror* (channel-reversal image) of the traffic-direction
dependencies.  This is sound because the complete CDG is closed under
reversal — ``(c_p, c_q) ∈ Ē  ⇔  (rev(c_q), rev(c_p)) ∈ Ē`` by Def. 6 —
and reversal maps cycles to cycles, so the recorded dependency set is
acyclic iff the real traffic CDG is.

Expansion discipline
--------------------
A popped channel expands only when it *is* the head node's current
``usedChannel``.  Expanding a stale (superseded) channel would record
dependencies from a predecessor the destination-based forwarding never
uses, silently leaving the *actual* dependency
``(usedChannel[x], c_q)`` unchecked.  Alternative in-channels are
instead explored by the Section-4.6.2 local backtracking, which
re-bases a node onto an alternative only after re-validating its
upstream dependency and every already-recorded downstream dependency
(see :mod:`repro.core.backtrack`).

Where the step runs
-------------------
This module holds one layer's routing state — the CDG, escape paths,
channel weights and the per-step scratch lists, preallocated per
router and refilled per step — plus the cold paths every backend
shares: seeding (Algorithm 1 lines 6–9), the atomic dependency commits
and child re-base checks the §4.6.2/§4.6.3 impasse handling needs, and
the escape fallback.  The main loop itself (lines 10–23) and the
balancing update live in the batch kernels of :mod:`repro.core.kernels`,
reached through :meth:`NueLayerRouter.route_batch`; it runs on the
network's CSR array core (``net.csr``), where a channel's CDG
successors are one contiguous slice whose positions are flat edge ids.
The reference every kernel twins is the frozen pre-CSR implementation
in :mod:`repro.legacy.nue_ref`: the equality tests pin the kernels to
it route-for-route, CDG-state-for-CDG-state and counter-for-counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import heapq

import numpy as np

from repro.cdg.complete_cdg import CompleteCDG
from repro.core.escape import EscapePaths
from repro.network.graph import Network

__all__ = ["RoutingStep", "NueLayerRouter"]


@dataclass
class RoutingStep:
    """Outcome of one Algorithm-1 routing step (one destination).

    The work tallies (heap traffic, edge relaxations) are kept as plain
    local integers during the search and flushed to :mod:`repro.obs`
    in one batch when observation is enabled.  The step's forwarding
    column is written into the caller's block, not kept here.
    """

    dest: int
    fell_back: bool = False
    islands_resolved: int = 0
    shortcuts_taken: int = 0
    backtrack_rounds: int = 0
    heap_pops: int = 0
    stale_pops: int = 0
    relaxations: int = 0
    heap_pushes: int = 0


class NueLayerRouter:
    """Routing state of one virtual layer: CDG, escape paths, weights.

    Destinations of the layer are routed by :meth:`route_batch`;
    blocked dependencies and channel weights accumulate across steps,
    which is what makes later steps respect the restrictions and
    balance of earlier ones.
    """

    def __init__(
        self,
        net: Network,
        cdg: CompleteCDG,
        escape: EscapePaths,
        enable_backtracking: bool = True,
        enable_shortcuts: bool = True,
        layer_index: int = 0,
        kernel: str = "python",
    ) -> None:
        self.net = net
        self.csr = net.csr
        self.cdg = cdg
        self.escape = escape
        self.enable_backtracking = enable_backtracking
        self.enable_shortcuts = enable_shortcuts
        #: resolved batch-kernel backend for :meth:`route_batch`
        #: ("python" or "numba"; see :mod:`repro.core.kernels`)
        self.kernel = kernel
        #: search-orientation channel weights (DFSSSP-style balancing);
        #: consistently search-side: entry c reflects the accumulated
        #: load of traffic channel rev(c).  The initial weight exceeds
        #: any load the updates can accumulate, so balancing only
        #: breaks ties among minimal paths — like DFSSSP, Nue prefers
        #: shortest routes and detours only around CDG restrictions.
        n_dests = len(net.terminals) or net.n_nodes
        base = float((len(net.terminals) or net.n_nodes) * n_dests + 1)
        self.weights = np.full(net.n_channels, base)
        self.layer_index = layer_index
        # per-step scratch, preallocated once and refilled per step
        # (templates make the refill one slice copy); the heap is a
        # lazy-deletion binary heap of (distance, channel) — stale
        # entries are skipped on pop, which profiling showed beats an
        # addressable heap in CPython by a wide margin on these
        # workloads (see repro.utils on the heap idiom)
        inf = float("inf")
        self._tmpl_node: List[float] = [inf] * net.n_nodes
        self._tmpl_chan: List[float] = [inf] * net.n_channels
        self._tmpl_used: List[int] = [-1] * net.n_nodes
        self._dist_node: List[float] = list(self._tmpl_node)
        self._dist_chan: List[float] = list(self._tmpl_chan)
        self._used: List[int] = list(self._tmpl_used)
        self._w: List[float] = self.weights.tolist()
        self._heap: List[Tuple[float, int]] = []
        self._step_marked: Set[int] = set()  # edge ids this step used
        # per-step work tallies (flushed to repro.obs once per step)
        self._pops = 0
        self._stale = 0
        self._relax = 0
        self._pushes = 0

    def route_batch(
        self,
        dests: Sequence[int],
        block: np.ndarray,
        cols: Optional[Sequence[int]] = None,
    ) -> List[RoutingStep]:
        """Route a batch of destinations through the layer kernel.

        One Algorithm-1 routing step per destination, committed in
        ``dests`` order on the shared layer state (weights, CDG
        restrictions), so later steps respect the restrictions and
        balance of earlier ones.  Every backend is pinned
        **bit-identical** to the frozen oracle
        (:class:`repro.legacy.LegacyNueLayerRouter` routing the same
        destinations one step at a time) — forwarding tables,
        CDG state and work counters alike.  The *traffic-direction*
        forwarding column of ``dests[i]`` is written into
        ``block[:, cols[i]]`` (``cols`` defaults to
        ``0..len(dests)-1``); the returned steps carry the work
        tallies, per-node state lives in the block.

        The backend was chosen at construction (``kernel=``, resolved
        by :func:`repro.core.kernels.resolve_kernel`); dispatch is one
        registry lookup, so per-batch overhead is nil.
        """
        from repro.core.kernels import get_kernel

        if cols is None:
            cols = list(range(len(dests)))
        return get_kernel(self.kernel)(self, list(dests), block, list(cols))

    def adopt_column(self, dest: int, next_channel_col) -> None:
        """Re-mark a retained forwarding column as this layer's state.

        Replays, without searching, what routing ``dest`` originally
        did to the layer: marks every tree channel and every
        search-orientation dependency of the column's forwarding
        forest *used* in the CDG, then applies the balancing weight
        update.  Used by the resilience engine to warm-start a layer
        from the surviving columns before repairing the dirty ones,
        so repair steps respect the retained trees' restrictions and
        load exactly as later destinations respected earlier ones.

        Raises ``ValueError`` when a column dependency cannot be
        marked.  The retained columns of one prior layer are mutually
        acyclic (their dependency union was verified when first
        routed, and channel retirement only removes dependencies), but
        this layer's escape tree is rebuilt on the *surviving* fabric:
        when retirement moved the BFS spanning tree, a retained
        dependency can hit an edge the new escape state blocked, or
        close a cycle against the new escape dependencies.  Callers
        treat that as "incremental repair not applicable" and fall
        back to a full reroute.
        """
        net = self.net
        cdg = self.cdg
        rev = net.channel_reverse
        src_of = self.csr.src_l
        used = self._used
        used[:] = self._tmpl_used
        for v in range(net.n_nodes):
            c = int(next_channel_col[v])
            if v != dest and c >= 0:
                used[v] = rev[c]
        for v in range(net.n_nodes):
            cq = used[v]
            if cq < 0:
                continue
            cdg.mark_vertex_used(cq)
            p = src_of[cq]
            if p == dest:
                continue
            cp = used[p]
            if cp >= 0 and not self.try_use_dependency(cp, cq):
                raise ValueError(
                    f"retained column for {net.node_names[dest]} "
                    "conflicts with the rebuilt escape state (blocked "
                    "edge or dependency cycle)"
                )
        self._step_marked.clear()
        # the balancing update is the python kernel's, applied to a
        # list mirror of the weights and written back (same doubles)
        from repro.core.kernels.python import (
            _source_template,
            _update_weights_batch,
        )

        wl = self.weights.tolist()
        _update_weights_batch(self, wl, dest, _source_template(net))
        self.weights[:] = wl

    # -- initialisation ------------------------------------------------------------

    def _seed(self, dest: int) -> None:
        """Algorithm 1 lines 6–9: source channel(s) of the search.

        A terminal destination seeds its unique channel at distance 0;
        a switch destination acts through the paper's fake channel
        ``(∅, n_0)``, realised by seeding every outgoing channel with
        its own weight (fake dependencies are never recorded — traffic
        *arriving* at the destination has no successor dependency).
        """
        net = self.net
        retired = self.cdg.channel_retired_mask
        self._dist_node[dest] = 0.0
        if net.is_terminal(dest):
            c0 = self.csr.injection_channel[dest]
            if retired[c0]:
                raise ValueError(
                    f"terminal {net.node_names[dest]} is orphaned: its "
                    "injection channel is retired"
                )
            s = net.channel_dst[c0]
            self._dist_chan[c0] = 0.0
            self._dist_node[s] = 0.0
            self._used[s] = c0
            self.cdg.mark_vertex_used(c0)
            self.heap_push(c0, 0.0)
        else:
            for cq in sorted(net.out_channels[dest]):
                if retired[cq]:
                    continue
                y = net.channel_dst[cq]
                alt = self._w[cq]
                if alt < self._dist_node[y]:
                    self.cdg.mark_vertex_used(cq)
                    self._dist_node[y] = alt
                    self._dist_chan[cq] = alt
                    self._used[y] = cq
                    self.heap_push(cq, alt)

    # -- step helpers (shared by the kernels and the §4.6 resolver) ------------------

    def heap_push(self, chan: int, dist: float) -> None:
        """Enqueue (or re-enqueue with a better key) a channel."""
        heapq.heappush(self._heap, (dist, chan))
        self._pushes += 1

    def child_rebase_dependencies(
        self, node: int, alt: int
    ) -> Optional[List[Tuple[int, int]]]:
        """Dependencies ``(alt, out)`` needed to re-base ``node`` onto
        in-channel ``alt`` — one per current tree child.

        Returns None when a child sits behind a 180-degree turn from
        ``alt``, in which case the re-base is impossible.
        """
        net = self.net
        cdg = self.cdg
        needed: List[Tuple[int, int]] = []
        for cq in net.out_channels[node]:
            if self._used[net.channel_dst[cq]] == cq:
                if not cdg.dependency_exists(alt, cq):
                    return None
                needed.append((alt, cq))
        return needed

    def try_use_dependency(self, cp: int, cq: int) -> bool:
        """Cycle-checked edge use with per-step bookkeeping.

        Wraps :meth:`CompleteCDG.try_use_edge_id`, remembering which
        edges *this* step marked so the shortcut optimisation can
        revert exactly those (Section 4.6.3) without touching
        dependencies owned by earlier destinations.
        """
        eid = self.csr.edge_id(cp, cq)
        was_used = self.cdg._state[eid] == 1
        ok = self.cdg.try_use_edge_id(eid, cp, cq)
        if ok and not was_used:
            self._step_marked.add(eid)
        return ok

    def try_use_dependencies_atomic(
        self, edges: Sequence[Tuple[int, int]]
    ) -> bool:
        """Mark a set of edges used, all or nothing.

        Edges are checked sequentially (each cycle check sees the ones
        already added — they can interact); on failure everything this
        call added is reverted, including the fresh blocked marker, so
        the CDG returns to its exact prior state.
        """
        cdg = self.cdg
        state = cdg._state
        edge_id = self.csr.edge_id
        marked = self._step_marked
        added: List[int] = []
        for cp, cq in edges:
            eid = edge_id(cp, cq)
            before = state[eid]
            if cdg.try_use_edge_id(eid, cp, cq):
                if before != 1:
                    marked.add(eid)
                    added.append(eid)
            else:
                for e2 in reversed(added):
                    cdg._revert_used_id(e2)
                    marked.discard(e2)
                if before == 0:
                    # try_use_edge_id just blocked it against a state
                    # we are rolling back — restore exactly
                    cdg._revert_blocked_id(eid)
                return False
        return True

    def unuse_step_dependency(self, cp: int, cq: int) -> bool:
        """Revert an edge if (and only if) this step marked it."""
        eid = self.csr.edge_id(cp, cq)
        if eid in self._step_marked:
            self.cdg._revert_used_id(eid)
            self._step_marked.discard(eid)
            return True
        return False

    # -- impasse handling ----------------------------------------------------------

    def _unreached(self, dest: int) -> List[int]:
        return [
            v for v in range(self.net.n_nodes)
            if v != dest and self._used[v] < 0
        ]

    def _fall_back(self, dest: int) -> None:
        """Escape-path fallback for the entire routing step.

        Partial fallbacks would break the destination-based property
        (paper Section 4.6.2), so *every* node's used channel becomes
        its escape-path channel.  The corresponding dependencies were
        marked used when the layer was initialised.
        """
        chans = self.escape.fallback_channels(dest)
        for v in range(self.net.n_nodes):
            self._used[v] = chans[v] if v != dest else -1
