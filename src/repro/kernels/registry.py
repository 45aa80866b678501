"""Kernel-backend registry: named implementations of the hot loops.

The library's per-element inner kernels — the functional simulator's ofmap
block product (:mod:`repro.sim.functional_vectorized`), the mapping-
candidate scorer (:class:`repro.analysis.batch.MappingBatchEvaluator`) and
their Winograd counterparts — dispatch through this registry so the *same*
call sites can run either the NumPy reference implementation or a compiled
(Numba JIT) equivalent.  The contract every backend must honour is
**bit-identity** with the reference: identical float64 results, not merely
allclose (see :mod:`repro.kernels.numba_backend`).  The ofmap block product
is one BLAS GEMM that every backend shares: it is exact on the simulator's
Q-format operands, so a compiled version would buy nothing.

Selection precedence (first match wins):

1. an explicit ``name`` argument at the call site,
2. the process-wide override set by :func:`set_default_backend`
   (the CLI's ``--kernel-backend`` flag),
3. the ``REPRO_KERNEL_BACKEND`` environment variable,
4. autodetection: ``numba`` when importable, else ``numpy``.

Requesting ``numba`` on a machine without it degrades to the ``numpy``
backend with a one-per-process warning; the returned backend records the
degradation in :attr:`KernelBackend.fallback_from` so callers (and tests)
can distinguish "numpy by choice" from "numpy because numba is missing".
Unknown names raise :class:`~repro.errors.ConfigurationError`.

Backend identity participates in engine fingerprints through
:func:`backend_fingerprint`, so the on-disk ``RunCache`` never serves a
record produced by one backend to a run configured for another — even
though the backends are bit-identical, the cache stays conservative.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.obs import metrics as obs_metrics

#: environment variable naming the default kernel backend
KERNEL_BACKEND_ENV = "REPRO_KERNEL_BACKEND"

#: backend names the registry accepts (a future C extension slots in here)
KNOWN_BACKENDS = ("numpy", "numba")


@dataclass(frozen=True)
class MappingCostParams:
    """Layer/hardware constants of one mapping-candidate scoring problem.

    Everything :meth:`repro.analysis.batch.MappingBatchEvaluator.evaluate`
    needs besides the candidate columns themselves, flattened to plain
    scalars so any backend — NumPy expressions or a compiled scalar loop —
    can consume them.  ``per_stripe_cycles`` is integral for every layer the
    paper's closed forms produce; the compiled backend relies on that and
    delegates to the reference implementation otherwise.
    """

    kernel_area: int
    channel_pairs: int
    per_stripe_cycles: int
    out_height: int
    weight_count: int
    batch: int
    ofmap_words: int
    stride: int
    kernel_size: int
    padded_width: int
    in_channels_per_group: int
    frequency_hz: float
    word_bytes: int
    pe_cycle_j: float
    static_fraction: float
    kmemory_access_j: float
    imemory_access_j: float
    omemory_access_j: float
    dram_byte_j: float
    # ---- Winograd F(2x2,3x3) extension (see repro.analysis.winograd) --- #
    # zero/identity defaults mean "layer not eligible"; the batch evaluator
    # fills them via winograd_cost_fields() and only dispatches
    # score_mappings_winograd when they are set
    wino_tiles_h: int = 0
    wino_tiles_w: int = 0
    wino_weight_count: int = 0
    wino_ext_width: int = 0
    wino_pe_energy_factor: float = 1.0


@dataclass(frozen=True)
class KernelBackend:
    """One named implementation of the hot kernels.

    ``ofmap_block_product(kernel_matrix, cols, out_block)`` adds one
    stripe's GEMM ``kernel_matrix @ cols`` into a block of ofmap rows;
    ``score_mappings(params, primitives, stripe_height, chunk, image_major)``
    scores mapping-candidate columns.  The Winograd pair mirrors them for
    the transform-domain execution mode:
    ``winograd_group_conv(ext, u, out_block)`` computes one group's
    F(2x2,3x3) ofmap block from tile-aligned inputs and transformed
    filters, and ``score_mappings_winograd(params, primitives, chunk,
    image_major)`` scores Winograd-algorithm candidates (the stripe-height
    axis is pinned by the tile grid).  ``fallback_from`` names the backend
    that was *requested* when the registry had to degrade (requested numba,
    numba missing); ``None`` means the backend runs as asked.
    """

    name: str
    version: Optional[str]
    ofmap_block_product: Callable[..., None]
    score_mappings: Callable[..., Dict[str, np.ndarray]]
    winograd_group_conv: Callable[..., None]
    score_mappings_winograd: Callable[..., Dict[str, np.ndarray]]
    fallback_from: Optional[str] = None


#: memoised numba probe: (available, version, import error) — tests force
#: the ImportError path by assigning a (False, None, "...") triple here
_numba_probe: Optional[Tuple[bool, Optional[str], Optional[str]]] = None

#: process-wide override installed by the CLI (``--kernel-backend``)
_default_override: Optional[str] = None

#: one warning per process when a requested backend degrades
_warned_fallback = False

#: memoised backend objects by name
_backends: Dict[str, KernelBackend] = {}


def _probe_numba() -> Tuple[bool, Optional[str], Optional[str]]:
    """(available, version, error) for the numba toolchain, memoised."""
    global _numba_probe
    if _numba_probe is None:
        try:
            from repro.kernels import numba_backend
        except Exception as exc:  # pragma: no cover - defensive
            _numba_probe = (False, None, f"{type(exc).__name__}: {exc}")
        else:
            if numba_backend.NUMBA_AVAILABLE:
                _numba_probe = (True, numba_backend.numba_version(), None)
            else:
                _numba_probe = (False, None, numba_backend.IMPORT_ERROR)
    return _numba_probe


def numba_version() -> Optional[str]:
    """The importable numba's version string, or ``None`` when absent."""
    return _probe_numba()[1]


def available_backends() -> Tuple[str, ...]:
    """The backend names that can actually run on this machine."""
    if _probe_numba()[0]:
        return ("numpy", "numba")
    return ("numpy",)


def set_default_backend(name: Optional[str]) -> None:
    """Install (or clear, with ``None``) the process-wide backend override.

    The CLI routes ``--kernel-backend`` here; the override outranks the
    ``REPRO_KERNEL_BACKEND`` environment variable.  Validation is deferred
    to :func:`get_backend` so an override naming an unavailable backend
    degrades (with the warning) exactly like the other selection paths.
    """
    global _default_override
    if name is not None:
        name = name.strip().lower()
        if name not in KNOWN_BACKENDS:
            raise ConfigurationError(
                f"unknown kernel backend {name!r}; expected one of "
                f"{', '.join(KNOWN_BACKENDS)}"
            )
    _default_override = name


def _requested_name(name: Optional[str]) -> Optional[str]:
    """The requested backend under the selection precedence (None = auto)."""
    for candidate in (name, _default_override,
                      os.environ.get(KERNEL_BACKEND_ENV)):
        if candidate:
            return candidate.strip().lower()
    return None


def _numpy_backend() -> KernelBackend:
    if "numpy" not in _backends:
        from repro.kernels import numpy_backend
        _backends["numpy"] = KernelBackend(
            name="numpy",
            version=np.__version__,
            ofmap_block_product=numpy_backend.ofmap_block_product,
            score_mappings=numpy_backend.score_mappings,
            winograd_group_conv=numpy_backend.winograd_group_conv,
            score_mappings_winograd=numpy_backend.score_mappings_winograd,
        )
    return _backends["numpy"]


def _numba_backend() -> KernelBackend:
    if "numba" not in _backends:
        from repro.kernels import numba_backend, numpy_backend
        _backends["numba"] = KernelBackend(
            name="numba",
            version=numba_backend.numba_version(),
            # the GEMM is exact on Q-format data: nothing to compile
            ofmap_block_product=numpy_backend.ofmap_block_product,
            score_mappings=numba_backend.score_mappings,
            winograd_group_conv=numba_backend.winograd_group_conv,
            score_mappings_winograd=numba_backend.score_mappings_winograd,
        )
    return _backends["numba"]


def _warn_fallback(requested: str, error: Optional[str]) -> None:
    global _warned_fallback
    if _warned_fallback:
        return
    _warned_fallback = True
    detail = f" ({error})" if error else ""
    warnings.warn(
        f"kernel backend {requested!r} is unavailable{detail}; "
        f"falling back to the numpy reference backend "
        f"(install the extra: pip install -e .[numba])",
        RuntimeWarning,
        stacklevel=3,
    )


def _counted(backend: KernelBackend) -> KernelBackend:
    """Count one dispatch to ``backend`` in the observability registry."""
    obs_metrics.REGISTRY.counter("kernels.dispatch." + backend.name).inc()
    return backend


def get_backend(name: Optional[str] = None) -> KernelBackend:
    """The kernel backend the selection precedence resolves to.

    ``name=None`` applies the override/env/autodetect chain; an explicit
    name short-circuits it.  Requesting ``numba`` without numba installed
    returns the numpy backend flagged with ``fallback_from="numba"``.
    Every resolution counts as one ``kernels.dispatch.<name>`` metric, so
    traces show which implementation actually served the hot loops.
    """
    requested = _requested_name(name)
    if requested is None:
        return _counted(_numba_backend() if _probe_numba()[0]
                        else _numpy_backend())
    if requested not in KNOWN_BACKENDS:
        raise ConfigurationError(
            f"unknown kernel backend {requested!r}; expected one of "
            f"{', '.join(KNOWN_BACKENDS)}"
        )
    if requested == "numba":
        available, _version, error = _probe_numba()
        if not available:
            _warn_fallback(requested, error)
            return _counted(replace(_numpy_backend(), fallback_from="numba"))
        return _counted(_numba_backend())
    return _counted(_numpy_backend())


def resolve_backend_name(name: Optional[str] = None) -> str:
    """The *effective* backend name (after any fallback) for ``name``."""
    return get_backend(name).name


def backend_fingerprint(name: Optional[str] = None) -> Dict[str, Optional[str]]:
    """Cache-key fragment identifying the effective kernel backend.

    Folding this into engine/search fingerprints keeps ``RunCache`` records
    segregated per backend (and, for numba, per numba version).
    """
    backend = get_backend(name)
    fingerprint: Dict[str, Optional[str]] = {"backend": backend.name}
    if backend.name == "numba":
        fingerprint["numba"] = backend.version
    return fingerprint


def warmup(name: Optional[str] = None) -> str:
    """Run tiny inputs through the compiled kernels of the resolved backend.

    For the numba backend this triggers (or loads the on-disk cache of) the
    JIT compilation once, so worker processes pay the compile cost at pool
    start-up instead of inside the first real task.  The shared GEMM ofmap
    kernel has nothing to compile and is skipped.  Returns the effective
    backend name.
    """
    backend = get_backend(name)
    params = MappingCostParams(
        kernel_area=9, channel_pairs=4, per_stripe_cycles=21, out_height=4,
        weight_count=72, batch=2, ofmap_words=32, stride=1, kernel_size=3,
        padded_width=6, in_channels_per_group=2, frequency_hz=700e6,
        word_bytes=2, pe_cycle_j=1e-12, static_fraction=0.1,
        kmemory_access_j=1e-12, imemory_access_j=1e-12,
        omemory_access_j=1e-12, dram_byte_j=1e-11,
    )
    backend.score_mappings(
        params,
        np.array([1, 2], dtype=np.int64),
        np.array([1, 3], dtype=np.int64),
        np.array([1, 2], dtype=np.int64),
        np.array([True, False]),
    )
    # Winograd kernels: a 2x2 tile grid (6x6 extended plane) and the same
    # scoring problem with the transform-domain fields filled in
    ext = np.zeros((2, 6, 6), dtype=np.float64)
    ext[:, :5, :5] = np.arange(2 * 5 * 5, dtype=np.float64).reshape(2, 5, 5)
    u = np.linspace(-1.0, 1.0, 2 * 2 * 16).reshape(2, 2, 4, 4)
    wino_out = np.zeros((2, 3, 3), dtype=np.float64)
    backend.winograd_group_conv(ext, u, wino_out)
    wino_params = replace(params, wino_tiles_h=2, wino_tiles_w=2,
                          wino_weight_count=128, wino_ext_width=6,
                          wino_pe_energy_factor=1.25)
    backend.score_mappings_winograd(
        wino_params,
        np.array([1, 2], dtype=np.int64),
        np.array([1, 2], dtype=np.int64),
        np.array([True, False]),
    )
    return backend.name
