"""Unit tests for the CSR array core (:mod:`repro.network.csr`).

The CSRView is the single source of structural truth for the hot path:
channel endpoints, node adjacency, and the dense dependency-edge index
that gives every complete-CDG edge a flat integer id.  These tests pin
its invariants against the Network's own lists and against each other.

The Def.-6 oracle test (CDG structure vs a networkx reconstruction,
over *every* topology generator) lives in
``tests/property/test_property_csr_oracle.py``.
"""

import numpy as np
import pytest

from repro.network.csr import CSRView, build_csr
from repro.network.graph import Network
from repro.network.topologies import (
    k_ary_n_tree,
    paper_ring_with_shortcut,
    random_topology,
    torus,
)

NETS = [
    ("ring", paper_ring_with_shortcut),
    ("torus33", lambda: torus([3, 3], 1)),
    ("tree23", lambda: k_ary_n_tree(2, 3)),
    ("multigraph", lambda: Network(
        2, [(0, 1), (0, 1), (0, 1)], [True, True], name="tri-link")),
    ("random", lambda: random_topology(12, 24, 2, seed=5)),
]


@pytest.fixture(params=[b for _, b in NETS], ids=[n for n, _ in NETS])
def net(request):
    return request.param()


class TestChannelBuffers:
    def test_endpoint_buffers_match_network(self, net):
        csr = net.csr
        assert csr.channel_src.dtype == np.int32
        assert csr.channel_dst.dtype == np.int32
        assert csr.channel_reverse.dtype == np.int32
        assert csr.channel_src.tolist() == list(net.channel_src)
        assert csr.channel_dst.tolist() == list(net.channel_dst)
        assert csr.channel_reverse.tolist() == list(net.channel_reverse)

    def test_list_mirrors_equal_numpy_buffers(self, net):
        csr = net.csr
        assert csr.src_l == csr.channel_src.tolist()
        assert csr.dst_l == csr.channel_dst.tolist()
        assert csr.rev_l == csr.channel_reverse.tolist()
        assert csr.dep_ptr_l == csr.dep_ptr.tolist()
        assert csr.dep_dst_l == csr.dep_dst.tolist()
        assert csr.dep_src_l == csr.dep_src.tolist()

    def test_node_adjacency_slices(self, net):
        csr = net.csr
        for v in range(net.n_nodes):
            out = csr.out_idx[csr.out_ptr[v]:csr.out_ptr[v + 1]].tolist()
            inn = csr.in_idx[csr.in_ptr[v]:csr.in_ptr[v + 1]].tolist()
            assert out == list(net.out_channels[v])
            assert inn == list(net.in_channels[v])

    def test_switch_flags(self, net):
        flags = net.csr.switch_flags
        assert flags.dtype == np.int8
        assert flags.tolist() == [
            1 if net.is_switch(v) else 0 for v in range(net.n_nodes)
        ]


class TestDependencyEdgeIndex:
    def test_edge_ids_are_slice_positions(self, net):
        """Edge ids enumerate (c_p asc, c_q asc); dep_src inverts them."""
        csr = net.csr
        eid = 0
        for cp in range(net.n_channels):
            succ = csr.out_successors(cp)
            assert succ == sorted(succ)
            for cq in succ:
                assert csr.dep_src_l[eid] == cp
                assert csr.dep_dst_l[eid] == cq
                assert csr.edge_id(cp, cq) == eid
                eid += 1
        assert eid == csr.n_dep_edges

    def test_edge_id_negative_for_non_edges(self, net):
        csr = net.csr
        for cp in range(net.n_channels):
            succ = set(csr.out_successors(cp))
            for cq in range(net.n_channels):
                if cq not in succ:
                    assert csr.edge_id(cp, cq) == -1

    def test_incoming_mirror_is_consistent(self, net):
        csr = net.csr
        seen = []
        for cq in range(net.n_channels):
            lo, hi = csr.dep_in_ptr[cq], csr.dep_in_ptr[cq + 1]
            for e in csr.dep_in_eid[lo:hi].tolist():
                assert csr.dep_dst_l[e] == cq
                seen.append(e)
        assert sorted(seen) == list(range(csr.n_dep_edges))


class TestHelpers:
    def test_channels_between_matches_find_channels(self, net):
        csr = net.csr
        for u in range(net.n_nodes):
            for v in range(net.n_nodes):
                assert csr.channels_between(u, v) == net.find_channels(u, v)

    def test_injection_channel(self, net):
        csr = net.csr
        for v in range(net.n_nodes):
            if net.is_switch(v):
                assert csr.injection_channel[v] == -1
            else:
                assert csr.injection_channel[v] == net.out_channels[v][0]

    def test_incident_links(self, net):
        csr = net.csr
        links = net.links()
        for v in range(net.n_nodes):
            for li in csr.incident_links(v):
                assert v in links[li]

    def test_switch_in_sources(self, net):
        csr = net.csr
        for u in range(net.n_nodes):
            expect = [
                net.channel_src[c] for c in net.in_channels[u]
                if net.is_switch(net.channel_src[c])
            ]
            assert csr.switch_in_sources[u] == expect


class TestLifecycle:
    def test_view_is_cached_per_network(self, net):
        assert net.csr is net.csr
        assert build_csr(net) is net.csr

    def test_separate_builds_are_equal(self, net):
        """Two independently constructed views agree buffer-for-buffer."""
        fresh = CSRView(net)
        for a, b in zip(fresh.structural_buffers(),
                        net.csr.structural_buffers()):
            assert np.array_equal(a, b)

    def test_structural_buffers_are_int_buffers(self, net):
        for buf in net.csr.structural_buffers():
            assert isinstance(buf, np.ndarray)
            assert buf.dtype in (np.int8, np.int32)


class TestMultigraph:
    """Parallel channels: bundles and pair lookup."""

    def test_bundles_cover_all_parallel_pairs(self):
        net = Network(2, [(0, 1), (0, 1), (0, 1)], [True, True])
        csr = net.csr
        assert len(csr.bundles) == 2  # one per direction
        for bundle in csr.bundles:
            assert bundle == sorted(bundle)
            u = net.channel_src[bundle[0]]
            v = net.channel_dst[bundle[0]]
            assert bundle == csr.channels_between(u, v)

    def test_parallel_turns_excluded_from_cdg(self):
        """Turning around over a *parallel* channel is still a
        180-degree turn (Def. 6 excludes by node, not channel id)."""
        net = Network(2, [(0, 1), (0, 1)], [True, True])
        csr = net.csr
        for cp in range(net.n_channels):
            for cq in csr.out_successors(cp):
                assert net.channel_dst[cq] != net.channel_src[cp]
