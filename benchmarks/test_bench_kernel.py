"""Kernel-layer guards: batched routing-step speedup.

The batched array-native kernels must actually pay for their
complexity on the CSR reference workload (every destination of a
4x4x3 torus layer), measured against the frozen legacy oracle
(:mod:`repro.legacy.nue_ref`, one ``route_step`` + table scatter per
destination):

* ``kernel="python"`` — the batched pure-Python loop >= 2.25x over
  legacy (template-refill state reset, shared scratch, vectorised
  table scatter on top of the CSR core), and
* ``kernel="numba"`` — the compiled batch loop >= 7.5x over legacy;
  skipped where numba is not installed (the interpreted fallback is a
  correctness artifact, not a fast path).

Both thresholds are products of two guards: the CSR core's >= 1.5x
over legacy (``test_bench_csr``) times the batch kernels' former
>= 1.5x (python) and >= 5x (numba) over a per-destination CSR step
loop.

The batch-size sweep records how per-destination cost falls as more
destinations share one kernel invocation — the shape
``scripts/bench_report.py`` distils into ``BENCH_PR8.json``.

Timing guards are skipped (not failed) on small runners — CI runs
them only where >= 4 cores guarantee the box is not a noisy shared
core.
"""

import time

import numpy as np
import pytest

from conftest import needs_cores
from repro.core.kernels import get_kernel, numba_available
from repro.core.nue import NueConfig, _LayerConfig, build_layer_state
from repro.legacy import (
    LegacyCompleteCDG,
    LegacyEscapePaths,
    LegacyNueLayerRouter,
)
from repro.network.topologies import torus

needs_numba = pytest.mark.skipif(
    not numba_available(),
    reason="compiled-kernel guard needs the optional numba package",
)


@pytest.fixture(scope="module")
def net():
    return torus([4, 4, 3], 2)


def _layer(net, dests):
    cfg = _LayerConfig.from_config(NueConfig(), single_layer=True)
    return build_layer_state(net, cfg, 0, dests)


def _legacy_time(net, dests):
    """The frozen oracle: one ``route_step`` + table scatter each, on
    the escape root the production layer build selects."""
    root = _layer(net, dests).escape.tree.root
    cdg = LegacyCompleteCDG(net)
    router = LegacyNueLayerRouter(
        net, cdg, LegacyEscapePaths(net, cdg, root, dests))
    rev = net.channel_reverse
    block = np.full((net.n_nodes, len(dests)), -1, dtype=np.int32)
    t0 = time.perf_counter()
    for col, d in enumerate(dests):
        step = router.route_step(d)
        for v in range(net.n_nodes):
            c = step.used_channel[v]
            block[v, col] = rev[c] if c >= 0 else -1
        block[d, col] = -1
    return time.perf_counter() - t0


def _batch_time(net, dests, kernel):
    router = _layer(net, dests)
    block = np.full((net.n_nodes, len(dests)), -1, dtype=np.int32)
    fn = get_kernel(kernel)
    t0 = time.perf_counter()
    fn(router, dests, block, list(range(len(dests))))
    return time.perf_counter() - t0


def _best_of(fn, *args, rounds=5):
    return min(fn(*args) for _ in range(rounds))


@needs_cores
def test_bench_kernel_python_batch_speedup(benchmark, net):
    """Batched pure-Python kernel >= 2.25x over the legacy step loop,
    best-of-5 per side to smooth scheduler noise."""
    dests = list(net.terminals)
    _batch_time(net, dests, "python")  # warm imports and caches
    legacy = _best_of(_legacy_time, net, dests)
    batch = _best_of(_batch_time, net, dests, "python")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info.update({
        "topology": "torus443",
        "kernel": "python",
        "legacy_ms": round(legacy * 1e3, 2),
        "batch_ms": round(batch * 1e3, 2),
        "speedup": round(legacy / batch, 2),
    })
    assert legacy / batch >= 2.25, (
        f"python batch kernel too slow: {legacy*1e3:.1f}ms legacy vs "
        f"{batch*1e3:.1f}ms batched ({legacy/batch:.2f}x < 2.25x)"
    )


@needs_cores
@needs_numba
def test_bench_kernel_numba_speedup(benchmark, net):
    """Compiled batch kernel >= 7.5x over the legacy step loop.  The
    first call pays JIT compilation; it is excluded via warmup."""
    dests = list(net.terminals)
    _batch_time(net, dests, "numba")  # compile outside the clock
    legacy = _best_of(_legacy_time, net, dests)
    compiled = _best_of(_batch_time, net, dests, "numba")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info.update({
        "topology": "torus443",
        "kernel": "numba",
        "legacy_ms": round(legacy * 1e3, 2),
        "batch_ms": round(compiled * 1e3, 2),
        "speedup": round(legacy / compiled, 2),
    })
    assert legacy / compiled >= 7.5, (
        f"numba kernel too slow: {legacy*1e3:.1f}ms legacy vs "
        f"{compiled*1e3:.1f}ms compiled ({legacy/compiled:.2f}x < 7.5x)"
    )


def test_bench_kernel_batch_size_sweep(benchmark, net):
    """Per-destination cost vs batch size (always recorded, never a
    guard): the batch amortisation shape for BENCH_PR8.json."""
    dests = list(net.terminals)
    kernel = "numba" if numba_available() else "python"
    _batch_time(net, dests[:1], kernel)  # warm imports / compile
    sweep = {}
    for size in (1, 4, 12, 24, len(dests)):
        subset = dests[:size]
        elapsed = _best_of(_batch_time, net, subset, kernel, rounds=3)
        sweep[f"batch_{size}_us_per_dest"] = round(
            elapsed / size * 1e6, 1)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info.update({
        "topology": "torus443",
        "kernel": kernel,
        **sweep,
    })
    assert all(v > 0 for v in sweep.values())
