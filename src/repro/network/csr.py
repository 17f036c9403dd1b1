"""Shared CSR array core of the network / CDG hot path (PR 3 tentpole).

A :class:`CSRView` is an immutable, array-oriented snapshot of a
:class:`~repro.network.graph.Network`, built once per network and
cached on it (``net.csr``).  It packs

* the per-channel endpoint arrays (``channel_src`` / ``channel_dst`` /
  ``channel_reverse``) as contiguous ``int32`` buffers,
* node adjacency (``out_ptr``/``out_idx``, ``in_ptr``/``in_idx``) in
  compressed-sparse-row form, and
* a **dense dependency-edge index**: the complete channel dependency
  graph of Def. 6 (successor channels per channel, 180-degree turns
  excluded) flattened into one CSR, giving every CDG edge
  ``(c_p, c_q)`` a flat integer *edge id*.  A mirrored incoming index
  (``dep_in_ptr``/``dep_in_eid``) lists, per channel, the edge ids
  that point at it.

Per-layer CDG state (:class:`repro.cdg.complete_cdg.CompleteCDG`) is a
dense byte array indexed by edge id over this static structure — no
dict hashing or list-of-list indirection in the Algorithm-1 inner
loop.  The numpy buffers are the canonical encoding (they are what
:func:`repro.engine.fingerprint.network_fingerprint` hashes); the
``*_l`` attributes are plain-``list`` mirrors of the same data, kept
because CPython indexes lists substantially faster than 0-d numpy
scalars, which is what the routing step's inner loop lives on.

Edge ids are assigned in ``(c_p, then c_q)`` ascending order, so the
successor slice of every channel is sorted and :meth:`CSRView.edge_id`
resolves a pair by binary search in ``O(log Δ)``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.graph import Network

__all__ = ["CSRView", "build_csr", "EXPORTED_BUFFERS"]

#: the numpy buffers a shared-memory export ships (in layout order);
#: everything else on a :class:`CSRView` is derived from them — plus
#: the owning :class:`Network` — by ``_init_derived``.
EXPORTED_BUFFERS = (
    "channel_src", "channel_dst", "channel_reverse",
    "out_ptr", "out_idx", "in_ptr", "in_idx",
    "dep_ptr", "dep_dst", "dep_src", "dep_in_ptr", "dep_in_eid",
    "switch_flags",
)


def _csr_from_lists(lists: List[List[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Pack a list-of-lists adjacency into (ptr, idx) int32 arrays."""
    ptr = np.zeros(len(lists) + 1, dtype=np.int32)
    for i, row in enumerate(lists):
        ptr[i + 1] = ptr[i] + len(row)
    idx = np.fromiter(
        (c for row in lists for c in row), dtype=np.int32, count=int(ptr[-1])
    )
    return ptr, idx


class CSRView:
    """Immutable CSR snapshot of one network (see module docstring).

    Attributes
    ----------
    channel_src / channel_dst / channel_reverse:
        ``int32[n_channels]`` endpoint / reverse-channel buffers.
    out_ptr, out_idx / in_ptr, in_idx:
        CSR node adjacency: channels leaving / entering node ``v`` are
        ``out_idx[out_ptr[v]:out_ptr[v+1]]`` (ascending channel ids).
    dep_ptr, dep_dst, dep_src:
        The dependency-edge index: CDG successors of channel ``c_p``
        are ``dep_dst[dep_ptr[c_p]:dep_ptr[c_p+1]]`` and the slice
        positions *are* the edge ids; ``dep_src[e]`` recovers ``c_p``
        from an edge id.
    dep_in_ptr, dep_in_eid:
        Incoming mirror: edge ids entering channel ``c_q``.
    switch_flags:
        ``int8[n_nodes]`` — 1 for switches, 0 for terminals.
    injection_channel:
        Per node: a terminal's unique outgoing channel, -1 at switches.
    """

    def __init__(self, net: "Network") -> None:
        self.net = net
        self.n_nodes = net.n_nodes
        self.n_channels = net.n_channels

        self.channel_src = np.asarray(net.channel_src, dtype=np.int32)
        self.channel_dst = np.asarray(net.channel_dst, dtype=np.int32)
        self.channel_reverse = np.asarray(net.channel_reverse, dtype=np.int32)
        self.out_ptr, self.out_idx = _csr_from_lists(net.out_channels)
        self.in_ptr, self.in_idx = _csr_from_lists(net.in_channels)
        self.switch_flags = np.fromiter(
            (1 if net.is_switch(n) else 0 for n in range(net.n_nodes)),
            dtype=np.int8, count=net.n_nodes,
        )

        # dependency-edge index (complete CDG, Def. 6: head-to-tail
        # adjacency minus node-based 180-degree turns)
        src = net.channel_src
        dst = net.channel_dst
        out = net.out_channels
        dep_lists: List[List[int]] = [
            [cq for cq in out[dst[cp]] if dst[cq] != src[cp]]
            for cp in range(net.n_channels)
        ]
        self.dep_ptr, self.dep_dst = _csr_from_lists(dep_lists)
        self.n_dep_edges = int(self.dep_ptr[-1])
        self.dep_src = np.repeat(
            np.arange(net.n_channels, dtype=np.int32),
            np.diff(self.dep_ptr),
        )
        in_lists: List[List[int]] = [[] for _ in range(net.n_channels)]
        for eid in range(self.n_dep_edges):
            in_lists[int(self.dep_dst[eid])].append(eid)
        self.dep_in_ptr, self.dep_in_eid = _csr_from_lists(in_lists)

        self._init_derived()

    @property
    def dep_head(self) -> np.ndarray:
        """Per dependency edge: the head *node* ``dst(dep_dst[e])``.

        Static, so the kernel hot loop resolves a relaxation's target
        node with one index instead of two (``dst_of[dep_dst[e]]``).
        """
        head = getattr(self, "_dep_head", None)
        if head is None:
            head = self.channel_dst[self.dep_dst]
            self._dep_head = head
        return head

    @property
    def dep_head_l(self) -> List[int]:
        """Plain-list mirror of :attr:`dep_head` for the scalar loops."""
        head_l = getattr(self, "_dep_head_l", None)
        if head_l is None:
            head_l = self.dep_head.tolist()
            self._dep_head_l = head_l
        return head_l

    @classmethod
    def from_buffers(cls, net: "Network", buffers: Dict[str, np.ndarray]
                     ) -> "CSRView":
        """Rebuild a view from its :data:`EXPORTED_BUFFERS` arrays.

        The zero-copy rehydration path of the shared-memory fabric
        (:mod:`repro.engine.fabric`): ``buffers`` maps each exported
        buffer name to a (typically shm-backed, read-only) array, and
        the cheap derived state — list mirrors, injection channels,
        pair/bundle indices — is recomputed from them instead of being
        pickled across the process boundary.
        """
        view = cls.__new__(cls)
        view.net = net
        view.n_nodes = net.n_nodes
        view.n_channels = net.n_channels
        for key in EXPORTED_BUFFERS:
            setattr(view, key, buffers[key])
        view.n_dep_edges = int(view.dep_ptr[-1])
        view._init_derived()
        return view

    def _init_derived(self) -> None:
        """Derive mirrors/indices from the canonical numpy buffers."""
        net = self.net

        # plain-list mirrors for the scalar hot loops
        self.src_l: List[int] = self.channel_src.tolist()
        self.dst_l: List[int] = self.channel_dst.tolist()
        self.rev_l: List[int] = self.channel_reverse.tolist()
        self.dep_ptr_l: List[int] = self.dep_ptr.tolist()
        self.dep_dst_l: List[int] = self.dep_dst.tolist()
        self.dep_src_l: List[int] = self.dep_src.tolist()
        self.dep_in_ptr_l: List[int] = self.dep_in_ptr.tolist()
        self.dep_in_eid_l: List[int] = self.dep_in_eid.tolist()

        src = self.src_l
        dst = self.dst_l
        self.injection_channel: List[int] = [
            net.out_channels[n][0] if not net.is_switch(n) else -1
            for n in range(self.n_nodes)
        ]
        # per node: source nodes of incoming switch-to-this-node
        # channels, in in_channel order (the switch-graph reverse
        # adjacency UpDn and friends used to re-derive per call)
        self.switch_in_sources: List[List[int]] = [
            [src[c] for c in net.in_channels[u] if net.is_switch(src[c])]
            for u in range(self.n_nodes)
        ]

        # node-pair -> parallel channel ids (ascending), replacing
        # repeated Network.find_channels scans in the table builders
        pair_channels: Dict[Tuple[int, int], List[int]] = {}
        for c in range(self.n_channels):
            pair_channels.setdefault((src[c], dst[c]), []).append(c)
        self._pair_channels = pair_channels

        # parallel-channel bundles (multi-link redundancy), shared by
        # every layer router (OpenSM port-group rotation: a channel's
        # position in its bundle is its copy index)
        self.bundles: List[List[int]] = [
            bundle for bundle in sorted(pair_channels.values(),
                                        key=lambda b: b[0])
            if len(bundle) > 1
        ]
        # bundle CSR (kernel-ready form of ``bundles``): channels of
        # bundle b are bundle_idx[bundle_ptr[b]:bundle_ptr[b+1]]
        self.bundle_ptr, self.bundle_idx = _csr_from_lists(self.bundles)
        # terminal node ids in ascending order — the balancing-update
        # source set (empty on switch-only fabrics, where every node
        # acts as a source)
        self.terminal_ids = np.fromiter(
            (v for v in range(self.n_nodes) if not net.is_switch(v)),
            dtype=np.int32,
        )

    # -- queries ---------------------------------------------------------------

    def edge_id(self, cp: int, cq: int) -> int:
        """Flat edge id of CDG edge ``(c_p, c_q)``; -1 when not an edge."""
        lo = self.dep_ptr_l[cp]
        hi = self.dep_ptr_l[cp + 1]
        i = bisect_left(self.dep_dst_l, cq, lo, hi)
        if i < hi and self.dep_dst_l[i] == cq:
            return i
        return -1

    def out_successors(self, cp: int) -> List[int]:
        """CDG successor channels of ``c_p`` (ascending; a fresh slice)."""
        return self.dep_dst_l[self.dep_ptr_l[cp]:self.dep_ptr_l[cp + 1]]

    def channels_between(self, u: int, v: int) -> List[int]:
        """All (parallel) channel ids from ``u`` to ``v`` (ascending)."""
        return self._pair_channels.get((u, v), [])

    def incident_links(self, node: int) -> List[int]:
        """Duplex link indices (into ``Network.links()``) at ``node``."""
        return [c >> 1 for c in self.net.out_channels[node]]

    # -- fingerprint support ----------------------------------------------------

    def structural_buffers(self) -> List[np.ndarray]:
        """The canonical buffers that determine routing behaviour.

        Everything a deterministic routing algorithm reads off the
        structure, in fixed order: hashing these (plus names, roles
        and ``meta["topology"]``) yields a digest that is equal iff
        forwarding tables will be bit-identical.
        """
        return [
            self.channel_src,
            self.channel_dst,
            self.channel_reverse,
            self.out_ptr, self.out_idx,
            self.in_ptr, self.in_idx,
            self.dep_ptr, self.dep_dst,
            self.switch_flags,
        ]


def build_csr(net: "Network") -> CSRView:
    """Build (or return the cached) :class:`CSRView` of ``net``."""
    view = getattr(net, "_csr_view", None)
    if view is None:
        view = CSRView(net)
        net._csr_view = view
    return view
