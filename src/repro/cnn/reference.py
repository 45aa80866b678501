"""Golden-model convolution in NumPy.

The paper checks RTL outputs on-the-fly against a software simulator; this
module plays that role.  Two implementations are provided — a straightforward
direct convolution and an im2col/GEMM formulation — so the reference itself
can be cross-checked.  Both operate on single images in CHW layout and
support stride, zero padding and channel groups.

**Exact on Q-format data.**  On fixed-point operands (every value an integer
times one per-tensor power of two, see :mod:`repro.cnn.quantize`) whose
partial sums fit float64's 53-bit significand, every float64 addition here
is exact, so both references — and every simulator path that sums the same
products in another order — return bit-equal ofmaps.  On arbitrary floats
they agree to round-off only.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.cnn.layer import ConvLayer
from repro.errors import WorkloadError


def pad_input(ifmaps: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad a CHW tensor on both spatial borders."""
    if padding == 0:
        return ifmaps
    return np.pad(ifmaps, ((0, 0), (padding, padding), (padding, padding)), mode="constant")


def strided_windows(array: np.ndarray, kernel_size: int, stride: int,
                    out_height: int, out_width: int) -> np.ndarray:
    """Zero-copy ``(..., out_h, out_w, K, K)`` view of the stride-grid windows.

    ``array``'s last two axes are the (padded) spatial dimensions; grid
    position ``(r, c)`` holds the window whose top-left pixel is
    ``(r * stride, c * stride)``.  This is the window selection every
    consumer shares — im2col, the single-channel reference, the vectorized
    functional backend and pooling.
    """
    windows = sliding_window_view(array, (kernel_size, kernel_size), axis=(-2, -1))
    windows = windows[..., ::stride, ::stride, :, :]
    return windows[..., :out_height, :out_width, :, :]


def _check_shapes(layer: ConvLayer, ifmaps: np.ndarray, weights: np.ndarray) -> None:
    expected_in = (layer.in_channels, layer.in_height, layer.in_width)
    if ifmaps.shape != expected_in:
        raise WorkloadError(
            f"{layer.name}: ifmaps shape {ifmaps.shape} does not match layer {expected_in}"
        )
    expected_w = (
        layer.out_channels,
        layer.in_channels_per_group,
        layer.kernel_size,
        layer.kernel_size,
    )
    if weights.shape != expected_w:
        raise WorkloadError(
            f"{layer.name}: weight shape {weights.shape} does not match layer {expected_w}"
        )


def conv2d_direct(layer: ConvLayer, ifmaps: np.ndarray, weights: np.ndarray,
                  bias: np.ndarray | None = None) -> np.ndarray:
    """Direct (loop-based, vectorised over channels) 2D convolution.

    Parameters
    ----------
    layer:
        Geometry description.
    ifmaps:
        ``(C, H, W)`` input tensor.
    weights:
        ``(M, C/groups, K, K)`` kernel tensor.
    bias:
        Optional ``(M,)`` bias vector.

    Returns
    -------
    ``(M, E, E_w)`` output tensor (float64).
    """
    _check_shapes(layer, ifmaps, weights)
    padded = pad_input(np.asarray(ifmaps, dtype=np.float64), layer.padding)
    kernel = layer.kernel_size
    stride = layer.stride
    out = np.zeros((layer.out_channels, layer.out_height, layer.out_width), dtype=np.float64)

    in_per_group = layer.in_channels_per_group
    out_per_group = layer.out_channels_per_group
    for group in range(layer.groups):
        in_lo = group * in_per_group
        out_lo = group * out_per_group
        group_input = padded[in_lo:in_lo + in_per_group]
        group_weights = weights[out_lo:out_lo + out_per_group]
        for row in range(layer.out_height):
            for col in range(layer.out_width):
                window = group_input[
                    :,
                    row * stride:row * stride + kernel,
                    col * stride:col * stride + kernel,
                ]
                # (out_per_group,) = sum over (C/g, K, K)
                out[out_lo:out_lo + out_per_group, row, col] = np.tensordot(
                    group_weights, window, axes=([1, 2, 3], [0, 1, 2])
                )
    if bias is not None:
        out += np.asarray(bias, dtype=np.float64)[:, None, None]
    return out


def im2col(layer: ConvLayer, padded: np.ndarray, group: int) -> np.ndarray:
    """Lower one group's padded input to an im2col matrix.

    Returns a matrix of shape ``(C/g * K * K, E * E_w)`` whose columns are the
    flattened convolution windows in row-major output order.
    """
    kernel = layer.kernel_size
    stride = layer.stride
    in_per_group = layer.in_channels_per_group
    in_lo = group * in_per_group
    padded = np.asarray(padded, dtype=np.float64)
    # (C/g, E, E_w, K, K) zero-copy window view on the output stride grid
    windows = strided_windows(padded[in_lo:in_lo + in_per_group], kernel, stride,
                              layer.out_height, layer.out_width)
    # rows in (channel, i, j) order, columns in row-major output order
    return windows.transpose(0, 3, 4, 1, 2).reshape(
        in_per_group * kernel * kernel, layer.out_height * layer.out_width
    )


def conv2d_im2col(layer: ConvLayer, ifmaps: np.ndarray, weights: np.ndarray,
                  bias: np.ndarray | None = None) -> np.ndarray:
    """im2col + matrix-multiply formulation of the same convolution."""
    _check_shapes(layer, ifmaps, weights)
    padded = pad_input(np.asarray(ifmaps, dtype=np.float64), layer.padding)
    out = np.zeros((layer.out_channels, layer.out_height, layer.out_width), dtype=np.float64)
    out_per_group = layer.out_channels_per_group
    for group in range(layer.groups):
        out_lo = group * out_per_group
        patches = im2col(layer, padded, group)
        kernel_matrix = weights[out_lo:out_lo + out_per_group].reshape(out_per_group, -1)
        result = kernel_matrix @ patches
        out[out_lo:out_lo + out_per_group] = result.reshape(
            out_per_group, layer.out_height, layer.out_width
        )
    if bias is not None:
        out += np.asarray(bias, dtype=np.float64)[:, None, None]
    return out


def conv2d_single_channel(ifmap: np.ndarray, kernel: np.ndarray, stride: int = 1,
                          padding: int = 0) -> np.ndarray:
    """Single-channel 2D convolution used to validate one systolic primitive.

    ``ifmap`` is ``(H, W)``; ``kernel`` is ``(K, K)``.  This is the exact
    operation one 1D systolic primitive computes per (ofmap channel, ifmap
    channel) pair before cross-channel accumulation.
    """
    ifmap = np.asarray(ifmap, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
        raise WorkloadError(f"kernel must be square 2D, got shape {kernel.shape}")
    if padding:
        ifmap = np.pad(ifmap, ((padding, padding), (padding, padding)), mode="constant")
    size = kernel.shape[0]
    out_h = (ifmap.shape[0] - size) // stride + 1
    out_w = (ifmap.shape[1] - size) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise WorkloadError("kernel larger than (padded) input")
    product = strided_windows(ifmap, size, stride, out_h, out_w) * kernel
    # one contiguous K*K reduction per window: the same sum, element for
    # element, as the per-window np.sum(window * kernel)
    return np.sum(product.reshape(out_h, out_w, size * size), axis=-1)
