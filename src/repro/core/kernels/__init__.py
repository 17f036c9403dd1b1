"""Kernel layer: pluggable batched backends for the Nue routing step.

The per-destination modified Dijkstra (paper Algorithm 1) dominates
every profile.  This package restructures it into *batched layer
kernels*: one call routes every destination of a virtual layer over
flat preallocated ``int32``/``float64`` state arrays and the layer's
contiguous CDG byte plane, instead of one interpreted routing step
per destination.  Two backends implement the identical algorithm:

``python``
    Hand-optimised pure-Python batch loop (:mod:`.python`).  Always
    available; the reference fallback.  Amortises per-step setup
    across the batch (incremental weight mirror, shared scratch,
    epoch-stamped cycle searches) while committing destinations in
    exactly the order of the frozen oracle
    (:class:`repro.legacy.LegacyNueLayerRouter`), so forwarding
    tables, CDG state and work counters stay bit-identical to it.

``numba``
    The same batch loop compiled with :mod:`numba` ``@njit``
    (:mod:`.jit`), selected only when numba imports — never a hard
    dependency.  The kernel functions are written in nopython-subset
    Python, so the identical code paths are testable (interpreted)
    on boxes without numba.

Backend selection
-----------------
``NueConfig.kernel`` (and the ``kernel=`` registry/config key, the
``--kernel`` CLI flag and the ``RouteRequest.config["kernel"]`` service
key) accepts ``"auto"`` (default), ``"python"`` or ``"numba"``;
``"auto"`` defers to the :data:`KERNEL_ENV_VAR` environment variable
when set and otherwise picks ``numba`` when importable, else
``python``.  Validation is eager: unknown names raise a one-line
``ValueError`` naming the available kernels, and ``"numba"`` raises
when numba is not importable.  Kernel choice can never change routing
output — every backend is pinned bit-identical to the other and to
:mod:`repro.legacy.nue_ref`.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    import numpy as np

    from repro.core.dijkstra import NueLayerRouter, RoutingStep

__all__ = [
    "KERNEL_ENV_VAR",
    "KERNEL_NAMES",
    "available_kernels",
    "numba_available",
    "resolve_kernel",
    "validate_kernel",
    "get_kernel",
]

#: environment override consulted by ``kernel="auto"`` (precedence:
#: explicit config > ``REPRO_KERNEL`` > auto-detection), mirroring the
#: ``REPRO_WORKERS`` idiom of :mod:`repro.engine`.
KERNEL_ENV_VAR = "REPRO_KERNEL"

#: every name ``kernel=`` accepts (``auto`` resolves to a backend)
KERNEL_NAMES = ("auto", "python", "numba")

_numba_available: Optional[bool] = None


def numba_available() -> bool:
    """True when the optional :mod:`numba` JIT compiler imports."""
    global _numba_available
    if _numba_available is None:
        try:
            import numba  # noqa: F401

            _numba_available = True
        except ImportError:
            _numba_available = False
    return _numba_available


def available_kernels() -> List[str]:
    """Kernel backends selectable on this machine (sorted).

    ``python`` is always available; ``numba`` appears only when the
    compiler imports.  ``auto`` (always listed first) resolves to the
    best available backend.
    """
    names = ["auto", "python"]
    if numba_available():
        names.append("numba")
    return names


def validate_kernel(name: object) -> str:
    """Eagerly validate a ``kernel=`` config value; return it.

    Raises a one-line ``ValueError`` naming the available kernels for
    unknown names, and for ``"numba"`` when numba is not importable —
    the same fail-fast contract every other registry config key has.
    """
    if name not in KERNEL_NAMES:
        raise ValueError(
            f"unknown kernel {name!r}; choose from {available_kernels()}"
        )
    if name == "numba" and not numba_available():
        raise ValueError(
            "kernel 'numba' requires the optional numba package "
            f"(not importable here); available: {available_kernels()}"
        )
    return str(name)


def resolve_kernel(name: Optional[str] = None) -> str:
    """Resolve a configured kernel name to a concrete backend.

    ``None``/``"auto"`` consults :data:`KERNEL_ENV_VAR` (validated with
    the same one-line error) and falls back to ``numba`` when
    available, else ``python``.  Explicit names are validated and
    returned unchanged.
    """
    if name is None:
        name = "auto"
    validate_kernel(name)
    if name == "auto":
        env = os.environ.get(KERNEL_ENV_VAR)
        if env is not None and env.strip():
            name = validate_kernel(env.strip())
            if name == "auto":
                name = "numba" if numba_available() else "python"
            return name
        return "numba" if numba_available() else "python"
    return name


#: resolved backend name -> batched layer-routing callable with the
#: signature ``fn(router, dests, block, cols) -> List[RoutingStep]``
_BACKENDS: Dict[str, Callable[..., object]] = {}


def get_kernel(name: str) -> Callable[
    ["NueLayerRouter", List[int], "np.ndarray", List[int]],
    List["RoutingStep"],
]:
    """The batch-routing entry point of a *resolved* backend name."""
    fn = _BACKENDS.get(name)
    if fn is not None:
        return fn
    if name == "python":
        from repro.core.kernels.python import route_batch_python

        _BACKENDS[name] = route_batch_python
    elif name == "numba":
        validate_kernel("numba")
        from repro.core.kernels.jit import route_batch_numba

        _BACKENDS[name] = route_batch_numba
    else:
        raise ValueError(
            f"unknown kernel {name!r}; choose from {available_kernels()}"
        )
    return _BACKENDS[name]
