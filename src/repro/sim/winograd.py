"""Functional Winograd F(2x2,3x3) convolution for the dataflow simulator.

The transform-domain counterpart of :mod:`repro.cnn.reference`: each 4x4
input tile ``d`` becomes ``V = B^T d B``, each 3x3 filter plane ``g``
becomes the 4x4 plane ``U = G g G^T``, the per-tile product is the
element-wise ``U (*) V`` accumulated over input channels, and the 2x2
output tile is recovered as ``Y = A^T M A``.  The hot per-group kernel
is :func:`winograd_group_conv`.

**Exact on Q-format data.**  F(2x2,3x3) uses only the coefficients
{0, ±1, ±1/2}: ``B`` and ``A`` are pure adds and ``G``'s halves are
power-of-two scalings.  On fixed-point operands every transformed value is
therefore still an integer times a power of two, a few bits wider
(:data:`WINOGRAD_GROWTH_BITS`), and while the widest partial sum fits
float64's 53-bit significand (checked per layer by
:func:`repro.sim.network.accumulator_bits`) every operation is exact: the
result is bit-equal to the im2col golden, and quantised runs verify at
tolerance 0.  F(4x4,3x3) would *not* stay exact — its transforms carry
non-dyadic coefficients such as 1/3 and 1/6 that no binary fixed-point grid
represents — so extending the tile size needs a tolerance again.

**Tolerance contract (unquantised floats only).**  On arbitrary float64
operands the transforms reassociate the 3x3 reduction and results agree
with the golden only to round-off of the accumulator scale;
:func:`winograd_tolerance` — ``1e-6 * max(1, max|reference|)`` — is the
documented bound for that mode.  Within the Winograd path itself
determinism is strict on any input: any partition of the ofmap channels
(serial, ``--workers N``) produces the same bits.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analysis.winograd import (
    WINOGRAD_RELATIVE_TOLERANCE,
    WINOGRAD_TILE_OUT,
    winograd_eligible,
    winograd_tile_grid,
)
from repro.cnn.layer import ConvLayer
from repro.cnn.reference import _check_shapes, pad_input
from repro.errors import ConfigurationError

__all__ = [
    "WINOGRAD_GROWTH_BITS",
    "conv2d_winograd",
    "transform_filters",
    "winograd_group_conv",
    "winograd_ofmap_block",
    "winograd_tolerance",
    "winograd_eligible",
]


#: extra accumulator bits the F(2x2,3x3) transforms cost on Q-format data,
#: in LSBs of the transformed operands: ``B^T d B`` sums 4 inputs (+2 bits),
#: ``G g G^T`` reaches 9/4 of the largest weight on a grid 2 bits finer
#: (+4 bits), and ``A^T m A`` sums 9 transform-domain values (+4 bits)
WINOGRAD_GROWTH_BITS = 10


def winograd_tolerance(reference: np.ndarray) -> float:
    """The documented absolute tolerance vs the im2col golden (unquantised).

    Relative to the accumulator scale: ``1e-6 * max(1, max|reference|)``.
    Float64 round-off of the reassociated reduction sits orders of
    magnitude below this for every layer in the zoo; a real defect (wrong
    transform, mis-scattered tile) lands orders of magnitude above it.
    """
    scale = float(np.max(np.abs(reference))) if reference.size else 0.0
    return WINOGRAD_RELATIVE_TOLERANCE * max(1.0, scale)


def transform_filters(weights: np.ndarray) -> np.ndarray:
    """``G g G^T`` for every 3x3 plane of ``weights`` (..., 3, 3) -> (..., 4, 4).

    Computed once per layer in float64 — multiplications by G's 0.5
    entries are exact (power-of-two scaling), so the transformed planes
    are identical however they are consumed.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.shape[-2:] != (3, 3):
        raise ConfigurationError(
            f"winograd filter transform needs 3x3 planes, got {w.shape[-2:]}")
    g0 = w[..., 0, :]
    g1 = w[..., 1, :]
    g2 = w[..., 2, :]
    a = np.empty(w.shape[:-2] + (4, 3), dtype=np.float64)
    a[..., 0, :] = g0
    a[..., 1, :] = ((g0 + g1) + g2) * 0.5
    a[..., 2, :] = ((g0 - g1) + g2) * 0.5
    a[..., 3, :] = g2
    u = np.empty(w.shape[:-2] + (4, 4), dtype=np.float64)
    u[..., 0] = a[..., 0]
    u[..., 1] = ((a[..., 0] + a[..., 1]) + a[..., 2]) * 0.5
    u[..., 2] = ((a[..., 0] - a[..., 1]) + a[..., 2]) * 0.5
    u[..., 3] = a[..., 2]
    return u


def _require_eligible(layer: ConvLayer) -> None:
    if not winograd_eligible(layer):
        raise ConfigurationError(
            f"{layer.name}: Winograd F(2x2,3x3) needs kernel_size=3 and "
            f"stride=1, got K={layer.kernel_size} S={layer.stride}")


def _extend_group(padded_group: np.ndarray, rows_ext: int,
                  cols_ext: int) -> np.ndarray:
    """Zero-extend one group's padded planes to the 4x4 tile grid extent."""
    cg, rows, cols = padded_group.shape
    ext = np.zeros((cg, rows_ext, cols_ext), dtype=np.float64)
    ext[:, :rows, :cols] = padded_group
    return ext


def winograd_group_conv(ext: np.ndarray, u: np.ndarray,
                        out_block: np.ndarray) -> None:
    """One group's Winograd F(2x2,3x3) convolution, vectorized.

    ``ext`` is the group's ``(Cg, 2*th+2, 2*tw+2)`` float64 input plane,
    zero-extended to the 4x4 tile grid; ``u`` the ``(Mb, Cg, 4, 4)`` float64
    *transformed* filters (``G g G^T``, see :func:`transform_filters`);
    ``out_block`` the ``(Mb, out_h, out_w)`` float64 ofmap block,
    **assigned** (not accumulated).

    On Q-format operands the result is bit-equal to the im2col golden (see
    the module docstring); on unquantised floats the transforms
    reassociate the 3x3 reduction and it is only tolerance-close.  It is
    deterministic on any input: the input transform is explicit adds, the
    transform-domain accumulation runs over input channels in ascending
    order element by element, and the inverse transform uses a fixed
    association, so any partition of the ofmap block (serial or parallel
    workers) produces the same bits.
    """
    cg = ext.shape[0]
    mb, out_h, out_w = out_block.shape
    th = (ext.shape[1] - 2) // 2
    tw = (ext.shape[2] - 2) // 2
    tiles = th * tw
    # 4x4 input tiles at stride 2: (Cg, th, tw, 4, 4)
    d = np.lib.stride_tricks.sliding_window_view(
        ext, (4, 4), axis=(1, 2))[:, ::2, ::2]
    # input transform B^T d B — B has entries in {0, +-1}, so the transform
    # is pure adds; rows first, then columns, association fixed so every
    # block partition produces the same bits
    n = np.empty((cg, th, tw, 4, 4), dtype=np.float64)
    n[..., 0, :] = d[..., 0, :] - d[..., 2, :]
    n[..., 1, :] = d[..., 1, :] + d[..., 2, :]
    n[..., 2, :] = d[..., 2, :] - d[..., 1, :]
    n[..., 3, :] = d[..., 1, :] - d[..., 3, :]
    v = np.empty_like(n)
    v[..., 0] = n[..., 0] - n[..., 2]
    v[..., 1] = n[..., 1] + n[..., 2]
    v[..., 2] = n[..., 2] - n[..., 1]
    v[..., 3] = n[..., 1] - n[..., 3]
    v2 = v.reshape(cg, tiles, 16)
    u2 = np.ascontiguousarray(u, dtype=np.float64).reshape(mb, cg, 16)
    # transform-domain Hadamard product, accumulated over input channels in
    # ascending order (one rounded multiply + one rounded add per element
    # per channel — the order every block partition reproduces)
    m = np.zeros((mb, tiles, 16), dtype=np.float64)
    for ci in range(cg):
        m += u2[:, ci, :][:, None, :] * v2[ci]
    # inverse transform A^T m A — again pure adds with fixed association
    m4 = m.reshape(mb, tiles, 4, 4)
    q = np.empty((mb, tiles, 2, 4), dtype=np.float64)
    q[..., 0, :] = (m4[..., 0, :] + m4[..., 1, :]) + m4[..., 2, :]
    q[..., 1, :] = (m4[..., 1, :] - m4[..., 2, :]) - m4[..., 3, :]
    y = np.empty((mb, tiles, 2, 2), dtype=np.float64)
    y[..., 0] = (q[..., 0] + q[..., 1]) + q[..., 2]
    y[..., 1] = (q[..., 1] - q[..., 2]) - q[..., 3]
    # scatter the 2x2 tiles back onto the ofmap grid and crop ragged edges
    full = y.reshape(mb, th, tw, 2, 2).transpose(0, 1, 3, 2, 4)
    out_block[:] = full.reshape(mb, 2 * th, 2 * tw)[:, :out_h, :out_w]


def winograd_ofmap_block(layer: ConvLayer, padded: np.ndarray,
                         weights: np.ndarray, m_start: int, m_stop: int,
                         out: np.ndarray) -> None:
    """Compute ofmap channels ``[m_start, m_stop)`` via Winograd tiles.

    The Winograd counterpart of
    :func:`repro.sim.functional_vectorized.vectorized_ofmap_block`:
    ``padded`` is the zero-padded ``(C, H+2P, W+2P)`` float64 input, ``out``
    the full ``(M, out_h, out_w)`` ofmap tensor (only the requested block
    is written).  Because every output channel's transform-domain
    accumulation is independent and walks input channels in ascending
    order, any block partition is bit-identical to the serial whole.
    """
    _require_eligible(layer)
    tiles_h, tiles_w = winograd_tile_grid(layer)
    rows_ext = WINOGRAD_TILE_OUT * tiles_h + 2
    cols_ext = WINOGRAD_TILE_OUT * tiles_w + 2
    in_per_group = layer.in_channels_per_group
    out_per_group = layer.out_channels_per_group
    for group in range(layer.groups):
        lo = max(m_start, group * out_per_group)
        hi = min(m_stop, (group + 1) * out_per_group)
        if lo >= hi:
            continue
        in_lo = group * in_per_group
        ext = _extend_group(padded[in_lo:in_lo + in_per_group],
                            rows_ext, cols_ext)
        u = transform_filters(weights[lo:hi])
        winograd_group_conv(ext, u, out[lo:hi])


def conv2d_winograd(layer: ConvLayer, ifmaps: np.ndarray,
                    weights: np.ndarray,
                    bias: Optional[np.ndarray] = None) -> np.ndarray:
    """Winograd F(2x2,3x3) formulation of the layer's convolution.

    Same signature and shapes as :func:`repro.cnn.reference.conv2d_im2col`
    (single-image CHW in, ``(M, out_h, out_w)`` float64 out); grouped
    convolutions are transformed per group.  Bit-equal to the im2col golden
    on Q-format operands, within :func:`winograd_tolerance` otherwise.
    """
    _require_eligible(layer)
    _check_shapes(layer, ifmaps, weights)
    padded = pad_input(np.asarray(ifmaps, dtype=np.float64), layer.padding)
    out = np.zeros((layer.out_channels, layer.out_height, layer.out_width),
                   dtype=np.float64)
    winograd_ofmap_block(layer, padded, weights, 0, layer.out_channels, out)
    if bias is not None:
        out += np.asarray(bias, dtype=np.float64)[:, None, None]
    return out
