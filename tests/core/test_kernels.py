"""The kernel layer: registry contract and backend bit-identity.

The batched kernels (``kernel="python"`` / ``kernel="numba"``) must be
*undetectable* from routing output — same forwarding tables, same CDG
end state, same work counters as the frozen legacy oracle
(:mod:`repro.legacy.nue_ref`).  The
registry must fail eagerly and name its alternatives, like every other
config key.

The numba backend is exercised *interpreted* here: its ``@njit``
functions are plain Python when numba is absent, so the identical code
paths run (slowly) on boxes without the compiler.  ``_force_numba``
flips the availability probe so ``kernel="numba"`` is selectable.
"""

import numpy as np
import pytest

from repro.core import kernels
from repro.core.kernels import (
    KERNEL_ENV_VAR,
    available_kernels,
    get_kernel,
    numba_available,
    resolve_kernel,
    validate_kernel,
)
from repro.core.nue import NueConfig, _LayerConfig, build_layer_state
from repro.legacy import (
    LegacyCompleteCDG,
    LegacyEscapePaths,
    LegacyNueLayerRouter,
)
from repro.network.topologies import random_topology, torus
from repro.routing.registry import (
    algorithm_descriptions,
    make_algorithm,
)


@pytest.fixture
def no_numba(monkeypatch):
    monkeypatch.setattr(kernels, "_numba_available", False)


@pytest.fixture
def force_numba(monkeypatch):
    """Make ``kernel="numba"`` selectable regardless of the compiler:
    the jit module imports fine without numba (identity decorator) and
    then runs the same kernel code interpreted."""
    monkeypatch.setattr(kernels, "_numba_available", True)


class TestKernelRegistry:
    def test_unknown_kernel_one_line_error_names_alternatives(self):
        with pytest.raises(ValueError) as exc:
            validate_kernel("fortran")
        msg = str(exc.value)
        assert "\n" not in msg
        assert "'fortran'" in msg
        for name in available_kernels():
            assert name in msg

    def test_numba_unavailable_is_an_eager_error(self, no_numba):
        with pytest.raises(ValueError, match="numba"):
            validate_kernel("numba")
        assert "numba" not in available_kernels()

    def test_numba_available_lists_and_validates(self, force_numba):
        assert "numba" in available_kernels()
        assert validate_kernel("numba") == "numba"

    def test_auto_resolves_python_without_numba(self, no_numba,
                                                monkeypatch):
        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        assert resolve_kernel(None) == "python"
        assert resolve_kernel("auto") == "python"

    def test_auto_resolves_numba_when_available(self, force_numba,
                                                monkeypatch):
        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        assert resolve_kernel("auto") == "numba"

    def test_explicit_name_wins_over_detection(self, force_numba):
        assert resolve_kernel("python") == "python"

    def test_env_override_consulted_by_auto_only(self, force_numba,
                                                 monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "python")
        assert resolve_kernel("auto") == "python"
        assert resolve_kernel("numba") == "numba"  # explicit beats env

    def test_env_garbage_raises_the_same_one_line_error(self,
                                                        monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "cuda")
        with pytest.raises(ValueError, match="'cuda'"):
            resolve_kernel("auto")

    def test_blank_env_falls_through(self, no_numba, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "  ")
        assert resolve_kernel("auto") == "python"

    def test_get_kernel_returns_callables(self, force_numba):
        from repro.core.kernels.jit import route_batch_numba
        from repro.core.kernels.python import route_batch_python

        assert get_kernel("python") is route_batch_python
        assert get_kernel("numba") is route_batch_numba

    def test_get_kernel_unknown_raises(self):
        with pytest.raises(ValueError, match="choose from"):
            get_kernel("rust")


class TestRegistryPlumbing:
    """Satellite: the nue factory validates ``kernel=`` eagerly and the
    discovery surfaces name the available backends."""

    def test_make_algorithm_rejects_unknown_kernel_eagerly(self):
        with pytest.raises(ValueError) as exc:
            make_algorithm("nue", kernel="bogus")
        assert "'bogus'" in str(exc.value)
        assert "python" in str(exc.value)

    @pytest.mark.skipif(numba_available(),
                        reason="numba installed: selection is legal")
    def test_make_algorithm_rejects_unavailable_numba_eagerly(self):
        with pytest.raises(ValueError, match="numba"):
            make_algorithm("nue", kernel="numba")

    def test_make_algorithm_rejects_bad_env_override_eagerly(
            self, monkeypatch):
        """A garbage REPRO_KERNEL consulted by the default ``auto``
        fails at construction with the one-line error (the CLI turns
        it into exit 2), not deep inside a layer worker."""
        monkeypatch.setenv(KERNEL_ENV_VAR, "cuda")
        with pytest.raises(ValueError, match="'cuda'"):
            make_algorithm("nue")

    def test_nue_description_names_the_kernels(self):
        desc = algorithm_descriptions()["nue"]
        for name in available_kernels():
            assert name in desc

    def test_cli_route_exposes_kernel_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["route", "net.topo", "--kernel", "python"])
        assert args.kernel == "python"

    def test_route_request_coalesce_key_includes_kernel(self):
        from repro.service.requests import RouteRequest

        net = torus([3, 3], 1)
        a = RouteRequest(topology=net, config={"kernel": "python"})
        b = RouteRequest(topology=net, config={"kernel": "numba"})
        c = RouteRequest(topology=net, config={"kernel": "python"})
        assert a.coalesce_key("fp") != b.coalesce_key("fp")
        assert a.coalesce_key("fp") == c.coalesce_key("fp")


def _build_layer(net, dests, retire=None):
    cfg = _LayerConfig.from_config(NueConfig(), single_layer=True)
    return build_layer_state(net, cfg, 0, dests,
                             retire_channels=retire or [])


def _run_legacy(net, dests):
    """The frozen oracle: one legacy ``route_step`` per destination,
    on the escape root the production layer build selects."""
    root = _build_layer(net, dests).escape.tree.root
    cdg = LegacyCompleteCDG(net)
    router = LegacyNueLayerRouter(
        net, cdg, LegacyEscapePaths(net, cdg, root, dests))
    rev = net.channel_reverse
    block = np.full((net.n_nodes, len(dests)), -1, dtype=np.int32)
    steps = []
    for col, d in enumerate(dests):
        step = router.route_step(d)
        for v in range(net.n_nodes):
            c = step.used_channel[v]
            block[v, col] = rev[c] if c >= 0 else -1
        block[d, col] = -1
        steps.append(step)
    return router, block, steps


def _run_batch(net, dests, kernel, retire=None):
    router = _build_layer(net, dests, retire)
    block = np.full((net.n_nodes, len(dests)), -1, dtype=np.int32)
    steps = get_kernel(kernel)(router, dests, block,
                               list(range(len(dests))))
    return router, block, steps


def _assert_layer_states_identical(a, b, label):
    """Full end-state equality: tables alone could mask divergence.

    Compares through the state both CDG representations share (edge
    sets and adjacency lists, not the CSR byte plane), so ``a`` or
    ``b`` may be the legacy oracle's run."""
    ra, ba, sa = a
    rb, bb, sb = b
    np.testing.assert_array_equal(ba, bb, err_msg=label)
    ca, cb = ra.cdg, rb.cdg
    assert list(ca.used_edges()) == list(cb.used_edges()), \
        f"{label}: used edges"
    assert sorted(ca.blocked_edges()) == sorted(cb.blocked_edges()), \
        f"{label}: blocked edges"
    assert ca._used_out == cb._used_out, f"{label}: used-out adjacency"
    assert ca._used_in == cb._used_in, f"{label}: used-in adjacency"
    assert ca._ord == cb._ord, f"{label}: PK topological order"
    assert bytes(ca._vertex_used) == bytes(cb._vertex_used), label
    for attr in ("n_used_edges", "n_blocked_edges", "cycle_searches",
                 "pk_reorders", "pk_reorder_moved"):
        assert getattr(ca, attr) == getattr(cb, attr), \
            f"{label}: cdg.{attr}"
    assert ca._uf._parent == cb._uf._parent, f"{label}: union-find"
    assert ca._uf._size == cb._uf._size, f"{label}: union-find sizes"
    assert ca._uf._count == cb._uf._count, f"{label}: union-find count"
    np.testing.assert_array_equal(ra.weights, rb.weights,
                                  err_msg=f"{label}: weights")
    assert len(sa) == len(sb), f"{label}: step count"
    for x, y in zip(sa, sb):
        for f in ("dest", "fell_back", "islands_resolved",
                  "shortcuts_taken", "backtrack_rounds", "heap_pops",
                  "stale_pops", "relaxations", "heap_pushes"):
            assert getattr(x, f) == getattr(y, f), \
                f"{label} dest {x.dest}: step.{f}"


KERNELS = ["python", "numba"]


@pytest.mark.parametrize("kernel", KERNELS)
class TestBatchVsLegacyState:
    """Batch kernels leave the *exact* end state of the frozen legacy
    oracle — used/blocked edge sets, adjacency, PK order, union-find,
    weights and work counters, not just tables."""

    def test_torus(self, kernel, force_numba):
        net = torus([3, 3], 1)
        dests = list(net.terminals)
        _assert_layer_states_identical(
            _run_legacy(net, dests),
            _run_batch(net, dests, kernel), f"torus33/{kernel}")

    def test_random_multigraph(self, kernel, force_numba):
        net = random_topology(10, 24, 2, seed=5)
        dests = list(net.terminals)
        _assert_layer_states_identical(
            _run_legacy(net, dests),
            _run_batch(net, dests, kernel), f"random/{kernel}")


@pytest.mark.parametrize("kernel", KERNELS)
class TestBatchVsScalarState:
    """Retired channels (the resilience repair path) take the same
    seeding/relaxation skips in both backends.  The legacy oracle
    predates channel retirement, so each kernel is checked against the
    other one and against the retirement invariants directly.  The
    class keeps its original name so the test IDs stay stable."""

    def test_retired_channels(self, kernel, force_numba):
        net = torus([3, 3], 1)
        dests = list(net.terminals)
        s2s = [c for c in range(net.n_channels)
               if net.is_switch(net.channel_src[c])
               and net.is_switch(net.channel_dst[c])]
        retired = [s2s[0], s2s[7]]
        other = "numba" if kernel == "python" else "python"
        run = _run_batch(net, dests, kernel, retire=retired)
        ref = _run_batch(net, dests, other, retire=retired)
        _assert_layer_states_identical(ref, run, f"retired/{kernel}")
        router, block, _ = run
        assert bytes(ref[0].cdg._state) == bytes(router.cdg._state)
        assert router.cdg.n_retired_edges > 0
        rev = net.channel_reverse
        used = {int(rev[c]) for c in block.ravel() if c >= 0}
        assert used.isdisjoint(retired), f"{kernel} routes a retired channel"
        for cp, cq in router.cdg.used_edges():
            assert cp not in retired and cq not in retired, \
                f"{kernel} uses a dependency of a retired channel"
