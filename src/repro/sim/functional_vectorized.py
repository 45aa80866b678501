"""Vectorized backend of the functional (dataflow-level) simulator.

The scalar path of :class:`~repro.sim.functional.FunctionalChainSimulator`
walks every scan window of every (ofmap, ifmap) channel pair in Python —
faithful, but tens of millions of iterations on AlexNet-scale layers.  This
module evaluates the same stripe/column-scan decomposition with one BLAS
GEMM per stripe:

* **Stripe plan.**  :func:`stripe_plan` lists, for every stripe base of
  :func:`stripe_bases`, the ofmap rows whose windows that stripe keeps
  (stride filter applied).  The GEMM path and the coverage proof read this
  one plan; the closed-form counters and the scalar walk step the same
  stripe bases.
* **Dot products.**  Per group and stripe, the kept rows are lowered to an
  im2col slice with :func:`~repro.cnn.reference.strided_windows` and
  ``W_group @ cols`` is *added* into those rows.  A row the plan skips stays
  0 and a row it repeats doubles, so the golden compare sees a broken plan.
* **Exact on Q-format data.**  On the quantised operands the network runner
  feeds it, every product is an integer multiple of one power of two and
  every partial sum stays below 2**53 (the bound
  :func:`repro.sim.network.accumulator_bits` checks per layer), so float64
  addition is exact in *any* order: the GEMM, the scalar per-window walk and
  the im2col golden are bit-equal, and so is every partition of the ofmap
  channels (``--workers``).  On unquantised floats they agree to round-off.
* **Coverage.**  :func:`stripe_coverage` proves on index sets, not values,
  that the plan visits every ofmap pixel exactly once at input origin
  ``(y*s, x*s)`` with all ``K^2`` taps, and every (m, c) pair once.
* **Counters.**  Whether a window exists and whether it survives the stride
  filter depends only on the layer geometry, so every
  :class:`~repro.sim.functional.FunctionalRunStats` counter is a per-pair
  constant (closed form over the stripe plan) times the number of pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from repro.cnn.layer import ConvLayer
from repro.cnn.reference import strided_windows

#: byte budget for one stripe's im2col slice; a stripe wider than this is
#: lowered in row blocks (rows are independent, so values do not change)
_COLS_BLOCK_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class PairWindowStats:
    """Per-channel-pair dataflow counters implied by the stripe geometry.

    Every (ofmap, ifmap) channel pair of a layer shares the same stripe plan,
    so the layer totals of :class:`~repro.sim.functional.FunctionalRunStats`
    are these values multiplied by ``layer.channel_pairs()``.
    """

    stripes: int
    pixels_streamed: int
    primitive_cycles: int
    windows_evaluated: int
    windows_kept: int


def stripe_bases(padded_height: int, kernel_size: int,
                 stripe_height: int) -> List[int]:
    """Starting input rows of the stride-1 stripes covering the feature map.

    ``stripe_height`` is the number of stride-1 output rows each stripe
    produces (the paper's full stripe uses ``K``; the mapping-search
    subsystem explores ``1..K``).  The one stripe plan every execution path
    (scalar walk, GEMM, counters, coverage proof) follows.
    """
    return list(range(0, padded_height - kernel_size + 1, stripe_height))


def _stripe_rows(padded_height: int, kernel_size: int, stripe_height: int,
                 base: int) -> int:
    """Input rows a stripe starting at ``base`` streams."""
    return min(stripe_height + kernel_size - 1, padded_height - base)


def stripe_plan(layer: ConvLayer,
                stripe_height: Optional[int] = None) -> List[Tuple[int, int, int]]:
    """``(base, y_start, y_stop)`` per stripe: the ofmap rows it keeps.

    A stripe at ``base`` completes stride-1 windows at input rows
    ``base .. base + rows - K``; the stride filter keeps those on the
    stride grid that land inside the ofmap, i.e. ofmap rows
    ``ceil(base / s) .. ceil(window_stop / s) - 1``.
    """
    k = layer.kernel_size
    s = layer.stride
    height = k if stripe_height is None else stripe_height
    padded_h = layer.padded_height
    plan = []
    for base in stripe_bases(padded_h, k, height):
        window_stop = base + _stripe_rows(padded_h, k, height, base) - k + 1
        y_start = -(-base // s)
        y_stop = min(-(-window_stop // s), layer.out_height)
        plan.append((base, y_start, max(y_start, y_stop)))
    return plan


def pair_window_stats(layer: ConvLayer,
                      stripe_height: int | None = None) -> PairWindowStats:
    """Closed-form counters for one channel pair of ``layer``.

    Mirrors the scalar pair loop: stripe bases step ``stripe_height``
    (default ``K``, the paper's full stripe) over the stride-1 output rows; a
    stripe of ``rows`` input rows streams ``rows * width`` pixels over
    ``K * (width - 1) + rows`` timestamps and completes
    ``(rows - K + 1) * (width - K + 1)`` valid windows; the stride filter
    keeps the windows on the stride grid that map inside the ofmap.
    """
    k = layer.kernel_size
    height = k if stripe_height is None else stripe_height
    padded_h = layer.padded_height
    padded_w = layer.padded_width

    stripes = 0
    pixels = 0
    cycles = 0
    evaluated = 0
    for base in stripe_bases(padded_h, k, height):
        rows = _stripe_rows(padded_h, k, height, base)
        stripes += 1
        pixels += rows * padded_w
        cycles += k * (padded_w - 1) + rows
        evaluated += (rows - k + 1) * (padded_w - k + 1)

    kept_rows = min(layer.out_height, (padded_h - k) // layer.stride + 1)
    kept_cols = min(layer.out_width, (padded_w - k) // layer.stride + 1)
    return PairWindowStats(
        stripes=stripes,
        pixels_streamed=pixels,
        primitive_cycles=cycles,
        windows_evaluated=evaluated,
        windows_kept=kept_rows * kept_cols,
    )


def stride_keep_mask(layer: ConvLayer) -> np.ndarray:
    """Boolean mask over the stride-1 window grid selecting the kept windows.

    Entry ``[r, c]`` is True iff the window whose top-left input pixel is
    ``(r, c)`` passes the scalar discard test: both coordinates on the stride
    grid and the resulting output position inside the ofmap.
    """
    rows = np.arange(layer.padded_height - layer.kernel_size + 1)
    cols = np.arange(layer.padded_width - layer.kernel_size + 1)
    row_ok = (rows % layer.stride == 0) & (rows // layer.stride < layer.out_height)
    col_ok = (cols % layer.stride == 0) & (cols // layer.stride < layer.out_width)
    return row_ok[:, None] & col_ok[None, :]


@dataclass(frozen=True)
class StripeCoverage:
    """Index-set proof that a stripe plan performs every MAC exactly once.

    Counts are over one ofmap channel's pixels (``gaps``, ``duplicates``,
    ``misplaced``, ``short_windows``) and over the layer's (m, c) channel
    pairs (``pair_gaps``, ``pair_duplicates``); ``macs`` is the number of
    multiply-accumulates the plan performs.  All problem counts are zero
    and ``macs == layer.macs`` for a correct plan.
    """

    gaps: int
    duplicates: int
    misplaced: int
    short_windows: int
    pair_gaps: int
    pair_duplicates: int
    pairs: int
    macs: int

    def problems(self, layer: ConvLayer) -> List[str]:
        """Human-readable defects (empty when the plan is exact)."""
        found = [f"{count} {what}" for count, what in (
            (self.gaps, "ofmap pixels no stripe computes"),
            (self.duplicates, "ofmap pixels computed more than once"),
            (self.misplaced, "windows off their (y*s, x*s) origin"),
            (self.short_windows, "windows with fewer than K^2 taps"),
            (self.pair_gaps, "channel pairs never visited"),
            (self.pair_duplicates, "channel pairs visited more than once"),
        ) if count]
        if not found and self.macs != layer.macs:
            found.append(f"{self.macs} MACs performed, layer has {layer.macs}")
        return found


def stripe_coverage(layer: ConvLayer,
                    stripe_height: Optional[int] = None) -> StripeCoverage:
    """MAC coverage of ``layer``'s stripe plan, cached per geometry and plan.

    Every kept window is an ofmap pixel ``(y, x)``: its row comes from the
    stripe plan, its column from the column scan (``x = c / s`` for stride-1
    window columns ``c`` on the stride grid).  The proof counts, on index
    sets, how often each pixel is hit, whether each window's input origin is
    ``(y*s, x*s)`` inside the rows its stripe streams, and whether all
    ``K^2`` taps fall inside those rows; then how often the per-group GEMM
    visits each (m, c) channel pair.
    """
    plan = tuple(stripe_plan(layer, stripe_height))
    height = layer.kernel_size if stripe_height is None else stripe_height
    return _coverage(
        (layer.kernel_size, layer.stride, layer.padded_height,
         layer.padded_width, layer.out_height, layer.out_width,
         layer.out_channels, layer.in_channels, layer.groups),
        height, plan)


@lru_cache(maxsize=256)
def _coverage(geometry: tuple, height: int,
              plan: Tuple[Tuple[int, int, int], ...]) -> StripeCoverage:
    k, s, padded_h, padded_w, out_h, out_w, m_total, c_total, groups = geometry

    row_hits = np.zeros(out_h, dtype=np.int64)
    row_misplaced = 0
    row_short = 0
    for base, y_start, y_stop in plan:
        row_hits[y_start:y_stop] += 1
        origins = np.arange(y_start, y_stop) * s
        rows = _stripe_rows(padded_h, k, height, base)
        row_misplaced += int(np.count_nonzero(
            (origins < base) | (origins > base + rows - k)))
        row_short += int(np.count_nonzero(
            np.minimum(origins + k, base + rows) - origins < k))

    # the column scan: every stride-1 window column, stride filter applied
    cols = np.arange(padded_w - k + 1)
    cols = cols[(cols % s == 0) & (cols // s < out_w)]
    xs = cols // s
    col_hits = np.bincount(xs, minlength=out_w)
    col_misplaced = int(np.count_nonzero(xs * s != cols))
    col_short = int(np.count_nonzero(np.minimum(cols + k, padded_w) - cols < k))

    hits = np.outer(row_hits, col_hits)
    kept_windows = int(row_hits.sum()) * int(col_hits.sum())

    # channel pairs the per-group GEMM visits: group g multiplies ofmaps
    # [g*Mg, (g+1)*Mg) by ifmaps [g*Cg, (g+1)*Cg)
    m_group = m_total // groups
    c_group = c_total // groups
    pair_hits = np.zeros((m_total, c_total), dtype=np.int64)
    for group in range(groups):
        pair_hits[group * m_group:(group + 1) * m_group,
                  group * c_group:(group + 1) * c_group] += 1
    connected = (np.arange(m_total)[:, None] // m_group
                 == np.arange(c_total)[None, :] // c_group)
    pairs = int(pair_hits.sum())

    return StripeCoverage(
        gaps=int(np.count_nonzero(hits == 0)),
        duplicates=int(np.count_nonzero(hits > 1)),
        misplaced=(row_misplaced * int(col_hits.sum())
                   + col_misplaced * int(row_hits.sum())),
        short_windows=(row_short * int(col_hits.sum())
                       + col_short * int(row_hits.sum())),
        pair_gaps=int(np.count_nonzero(connected & (pair_hits == 0))),
        pair_duplicates=int(np.count_nonzero(pair_hits > 1)
                            + np.count_nonzero(~connected & (pair_hits > 0))),
        pairs=pairs,
        macs=kept_windows * k * k * pairs,
    )


def vectorized_layer_ofmaps(layer: ConvLayer, padded: np.ndarray,
                            weights: np.ndarray,
                            stripe_height: Optional[int] = None) -> np.ndarray:
    """Float64 ofmaps of the whole layer, one GEMM per group and stripe.

    ``padded`` is the zero-padded ``(C, Hp, Wp)`` float64 input, ``weights``
    the ``(M, C/groups, K, K)`` float64 kernels.
    """
    ofmaps = np.zeros(layer.out_shape, dtype=np.float64)
    vectorized_ofmap_block(layer, padded, weights, 0, layer.out_channels,
                           out=ofmaps, stripe_height=stripe_height)
    return ofmaps


def vectorized_ofmap_block(layer: ConvLayer, padded: np.ndarray,
                           weights: np.ndarray, m_start: int, m_stop: int,
                           out: np.ndarray,
                           stripe_height: Optional[int] = None) -> None:
    """Compute ofmap channels ``[m_start, m_stop)`` into ``out``.

    For each group and each stripe of :func:`stripe_plan`, the stripe's
    kept ofmap rows are lowered to an im2col slice and
    ``W_group[m_start:m_stop] @ cols`` is added into them.  ``out`` must be
    the full ``layer.out_shape`` float64 tensor (a shared-memory assembly
    buffer in the parallel path), zero on entry; only ``[m_start, m_stop)``
    planes are written.  On Q-format operands every partition of the
    channel range is bit-equal to the whole-layer result (see the module
    docstring).
    """
    k = layer.kernel_size
    out_w = layer.out_width
    in_per_group = layer.in_channels_per_group
    out_per_group = layer.out_channels_per_group
    if not (0 <= m_start <= m_stop <= layer.out_channels):
        raise ValueError(
            f"{layer.name}: ofmap block [{m_start}, {m_stop}) outside "
            f"[0, {layer.out_channels})"
        )

    plan = stripe_plan(layer, stripe_height)
    taps = in_per_group * k * k
    rows_per_block = max(1, _COLS_BLOCK_BYTES // max(1, taps * out_w * 8))
    for group in range(layer.groups):
        lo = max(m_start, group * out_per_group)
        hi = min(m_stop, (group + 1) * out_per_group)
        if lo >= hi:
            continue
        c0 = group * in_per_group
        kernel_matrix = weights[lo:hi].reshape(hi - lo, taps)
        # (C/g, out_h, out_w, K, K) zero-copy view of the kept windows
        windows = strided_windows(padded[c0:c0 + in_per_group], k,
                                  layer.stride, layer.out_height, out_w)
        for _base, y_start, y_stop in plan:
            for y0 in range(y_start, y_stop, rows_per_block):
                y1 = min(y_stop, y0 + rows_per_block)
                # im2col slice: rows in (channel, i, j) order like the
                # kernel matrix, columns the kept windows in row-major order
                cols = windows[:, y0:y1].transpose(0, 3, 4, 1, 2).reshape(
                    taps, (y1 - y0) * out_w)
                out_block = out[lo:hi, y0:y1]
                out_block += (kernel_matrix @ cols).reshape(out_block.shape)


def ofmap_block_ranges(layer: ConvLayer, blocks: int) -> list:
    """Split the ofmap channel axis into at most ``blocks`` contiguous ranges.

    Used by the parallel verification path to fan one layer's simulation out
    over workers; on Q-format operands any partition yields bit-equal
    values (see :func:`vectorized_ofmap_block`), so the block count is free
    to track the worker count.
    """
    channels = layer.out_channels
    blocks = max(1, min(blocks, channels))
    size = -(-channels // blocks)
    return [(start, min(channels, start + size))
            for start in range(0, channels, size)]
