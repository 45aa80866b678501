"""Functional Winograd F(2x2,3x3) convolution for the dataflow simulator.

The transform-domain counterpart of :mod:`repro.cnn.reference`: each 4x4
input tile ``d`` becomes ``V = B^T d B``, each 3x3 filter plane ``g``
becomes the 4x4 plane ``U = G g G^T``, the per-tile product ``U (*) V`` is
summed over input channels, and the 2x2 output tile is recovered as
``Y = A^T M A``.  The hot per-group kernel is :func:`winograd_group_conv`;
it casts the transform-domain step as 16 independent GEMMs, one per tile
position (Lavin & Gray, CVPR 2016, §4).

**Contract: exact on Q-format data.**  F(2x2,3x3) uses only the
coefficients {0, ±1, ±1/2}: ``B`` and ``A`` are pure adds and ``G``'s
halves are power-of-two scalings.  On fixed-point operands every
transformed value is therefore still an integer times a power of two, a few
bits wider (:data:`WINOGRAD_GROWTH_BITS`), and while the widest partial sum
fits float64's 53-bit significand (checked per layer by
:func:`repro.sim.network.check_accumulator_bits`) every operation is exact
in any order: the result is bit-equal to the im2col golden.  Functional
verification runs only on such operands and passes iff max|err| == 0.
F(4x4,3x3) would *not* stay exact — its transforms carry non-dyadic
coefficients such as 1/3 and 1/6 that no binary fixed-point grid
represents.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analysis.winograd import (
    WINOGRAD_TILE_OUT,
    winograd_eligible,
    winograd_tile_grid,
)
from repro.cnn.layer import ConvLayer
from repro.cnn.reference import _check_shapes
from repro.errors import ConfigurationError

__all__ = [
    "WINOGRAD_GROWTH_BITS",
    "conv2d_winograd",
    "transform_filters",
    "winograd_group_conv",
    "winograd_eligible",
]


#: extra accumulator bits the F(2x2,3x3) transforms cost on Q-format data,
#: in LSBs of the transformed operands: ``B^T d B`` sums 4 inputs (+2 bits),
#: ``G g G^T`` reaches 9/4 of the largest weight on a grid 2 bits finer
#: (+4 bits), and ``A^T m A`` sums 9 transform-domain values (+4 bits)
WINOGRAD_GROWTH_BITS = 10


def transform_filters(weights: np.ndarray) -> np.ndarray:
    """``G g G^T`` for every 3x3 plane of ``weights`` (..., 3, 3) -> (..., 4, 4).

    Computed once per layer in float64 — multiplications by G's 0.5
    entries are exact (power-of-two scaling), so the transformed planes
    are identical however they are consumed.  The result is a view whose
    memory is laid out tile position first, the order
    :func:`winograd_group_conv` multiplies in.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.shape[-2:] != (3, 3):
        raise ConfigurationError(
            f"winograd filter transform needs 3x3 planes, got {w.shape[-2:]}")
    g = np.moveaxis(w, (-2, -1), (0, 1))
    a = np.empty((4, 3) + w.shape[:-2], dtype=np.float64)
    a[0] = g[0]
    a[1] = ((g[0] + g[1]) + g[2]) * 0.5
    a[2] = ((g[0] - g[1]) + g[2]) * 0.5
    a[3] = g[2]
    u = np.empty((4, 4) + w.shape[:-2], dtype=np.float64)
    u[:, 0] = a[:, 0]
    u[:, 1] = ((a[:, 0] + a[:, 1]) + a[:, 2]) * 0.5
    u[:, 2] = ((a[:, 0] - a[:, 1]) + a[:, 2]) * 0.5
    u[:, 3] = a[:, 2]
    return np.moveaxis(u, (0, 1), (-2, -1))


def _require_eligible(layer: ConvLayer) -> None:
    if not winograd_eligible(layer):
        raise ConfigurationError(
            f"{layer.name}: Winograd F(2x2,3x3) needs kernel_size=3 and "
            f"stride=1, got K={layer.kernel_size} S={layer.stride}")


def winograd_group_conv(ext: np.ndarray, u: np.ndarray,
                        out_block: np.ndarray) -> None:
    """One group's Winograd F(2x2,3x3) convolution, vectorized.

    ``ext`` is the group's ``(Cg, 2*th+2, 2*tw+2)`` float64 input plane,
    zero-padded and zero-extended to the 4x4 tile grid; ``u`` the
    ``(Mb, Cg, 4, 4)`` float64 *transformed* filters (``G g G^T``, see
    :func:`transform_filters`); ``out_block`` the ``(Mb, out_h, out_w)``
    float64 ofmap block, **assigned** (not accumulated).

    The input and inverse transforms are explicit adds; the sum over input
    channels is one batched ``(16, Mb, Cg) @ (16, Cg, tiles)`` matmul.  On
    Q-format operands every step is exact, so the result is bit-equal to
    the im2col golden (see the module docstring).
    """
    cg = ext.shape[0]
    mb, out_h, out_w = out_block.shape
    th = (ext.shape[1] - 2) // 2
    tw = (ext.shape[2] - 2) // 2
    # 4x4 input tiles at stride 2, tile position first: d[r, c] is the
    # (Cg, th, tw) plane of every tile's element (r, c)
    d = np.lib.stride_tricks.sliding_window_view(
        ext, (4, 4), axis=(1, 2))[:, ::2, ::2].transpose(3, 4, 0, 1, 2)
    # input transform B^T d B — B has entries in {0, +-1}: rows, then columns
    n = np.empty((4, 4, cg, th, tw), dtype=np.float64)
    np.subtract(d[0], d[2], out=n[0])
    np.add(d[1], d[2], out=n[1])
    np.subtract(d[2], d[1], out=n[2])
    np.subtract(d[1], d[3], out=n[3])
    v = np.empty_like(n)
    np.subtract(n[:, 0], n[:, 2], out=v[:, 0])
    np.add(n[:, 1], n[:, 2], out=v[:, 1])
    np.subtract(n[:, 2], n[:, 1], out=v[:, 2])
    np.subtract(n[:, 1], n[:, 3], out=v[:, 3])
    del n
    # transform-domain product summed over input channels: one GEMM per
    # tile position, (16, Mb, Cg) @ (16, Cg, tiles) -> (16, Mb, tiles)
    u16 = np.asarray(u, dtype=np.float64).transpose(2, 3, 0, 1).reshape(
        16, mb, cg)
    m = np.matmul(u16, v.reshape(16, cg, th * tw)).reshape(4, 4, mb, th, tw)
    del v
    # inverse transform A^T m A — again pure adds — scattered straight onto
    # the ofmap grid: output (i, j) of every tile lands at rows i::2,
    # columns j::2, cropped at ragged edges
    q = np.empty((2, 4, mb, th, tw), dtype=np.float64)
    q[0] = (m[0] + m[1]) + m[2]
    q[1] = (m[1] - m[2]) - m[3]
    for i in range(2):
        rows = (out_h - i + 1) // 2
        for j, y in enumerate(((q[i, 0] + q[i, 1]) + q[i, 2],
                               (q[i, 1] - q[i, 2]) - q[i, 3])):
            cols = (out_w - j + 1) // 2
            out_block[:, i::2, j::2] = y[:, :rows, :cols]


def conv2d_winograd(layer: ConvLayer, ifmaps: np.ndarray,
                    weights: np.ndarray,
                    bias: Optional[np.ndarray] = None) -> np.ndarray:
    """Winograd F(2x2,3x3) formulation of the layer's convolution.

    Same signature and shapes as :func:`repro.cnn.reference.conv2d_im2col`
    (single-image CHW in, ``(M, out_h, out_w)`` float64 out); grouped
    convolutions are transformed per group.  Bit-equal to the im2col golden
    on Q-format operands.
    """
    _require_eligible(layer)
    _check_shapes(layer, ifmaps, weights)
    tiles_h, tiles_w = winograd_tile_grid(layer)
    # the zero padding and the tile-grid extension in one buffer: the grid
    # always covers the padded plane (2 * ceil(out/2) + 2 >= out + 2)
    pad = layer.padding
    ext = np.zeros((layer.in_channels, WINOGRAD_TILE_OUT * tiles_h + 2,
                    WINOGRAD_TILE_OUT * tiles_w + 2), dtype=np.float64)
    ext[:, pad:pad + layer.in_height, pad:pad + layer.in_width] = ifmaps
    u = transform_filters(weights)
    out = np.empty(layer.out_shape, dtype=np.float64)
    cg = layer.in_channels_per_group
    mg = layer.out_channels_per_group
    for group in range(layer.groups):
        winograd_group_conv(ext[group * cg:(group + 1) * cg],
                            u[group * mg:(group + 1) * mg],
                            out[group * mg:(group + 1) * mg])
    if bias is not None:
        out += np.asarray(bias, dtype=np.float64)[:, None, None]
    return out
