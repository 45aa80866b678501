"""Pluggable compiled-kernel backends for the hottest inner loops.

``repro.kernels`` hosts named implementations of the functional
simulator's ofmap block product, the mapping-candidate scorer, and their
Winograd F(2x2,3x3) counterparts (``winograd_group_conv``,
``score_mappings_winograd``): the ``numpy`` reference (the specification)
and a ``numba`` JIT backend with graceful fallback when numba is not
installed.  The ofmap block product is one BLAS GEMM shared by both
backends (exact on Q-format operands); the scorers and the Winograd
kernels are bit-identical across backends and block partitions.  See
:mod:`repro.kernels.registry` for the selection precedence
(explicit argument > ``--kernel-backend`` CLI override >
``REPRO_KERNEL_BACKEND`` environment variable > autodetection).
"""

from repro.kernels.registry import (
    KERNEL_BACKEND_ENV,
    KNOWN_BACKENDS,
    KernelBackend,
    MappingCostParams,
    available_backends,
    backend_fingerprint,
    get_backend,
    numba_version,
    resolve_backend_name,
    set_default_backend,
    warmup,
)

__all__ = [
    "KERNEL_BACKEND_ENV",
    "KNOWN_BACKENDS",
    "KernelBackend",
    "MappingCostParams",
    "available_backends",
    "backend_fingerprint",
    "get_backend",
    "numba_version",
    "resolve_backend_name",
    "set_default_backend",
    "warmup",
]
