"""Numba JIT implementations of the hot kernels — bit-identical by design.

The compiled kernels reproduce the NumPy reference results *bit-for-bit*:

* :func:`winograd_group_conv` walks the F(2x2,3x3) tiles with the same
  per-element adds, the same ascending input-channel accumulation and the
  same inverse-transform association as the reference.
* :func:`score_mappings` evaluates the integral-pass cost model as a scalar
  loop whose per-candidate arithmetic performs the same float64 operations
  in the same order as the reference's whole-array expressions (int64
  arithmetic is exact in both, and every int→float conversion point
  matches), so scores *and* argmins are identical.

The ofmap block product has no compiled version: it is one BLAS GEMM,
exact on the simulator's Q-format operands, and both backends share the
NumPy implementation.  ``fastmath`` stays off everywhere: it licenses
reassociation, which is exactly what bit-identity forbids.  The module
imports cleanly without numba (``NUMBA_AVAILABLE`` False, kernels left as
uncompiled Python); the registry only routes here when the probe succeeds,
and tests force the ImportError path via the registry's memoised probe.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.kernels.registry import MappingCostParams

try:
    import numba
    from numba import njit

    NUMBA_AVAILABLE = True
    IMPORT_ERROR: Optional[str] = None
except Exception as _exc:  # ImportError, or a broken install failing later
    NUMBA_AVAILABLE = False
    IMPORT_ERROR = f"{type(_exc).__name__}: {_exc}"
    numba = None

    def njit(*_args, **_kwargs):
        """Decorator stand-in so the kernels below still define (uncompiled)."""
        def wrap(function):
            return function
        return wrap


def numba_version() -> Optional[str]:
    """The imported numba's version string (None when unavailable)."""
    return getattr(numba, "__version__", None) if NUMBA_AVAILABLE else None


@njit(parallel=False, cache=True)
def _winograd_group_conv(ext, u, out_block):  # pragma: no cover - compiled
    """One group's Winograd F(2x2,3x3) convolution, tile loop.

    Bit-identical to :func:`repro.kernels.numpy_backend.winograd_group_conv`
    by construction: per element the input transform performs the same
    adds in the same association, the transform-domain accumulation walks
    input channels in the same ascending order (one rounded multiply, one
    rounded add per channel), and the inverse transform repeats the
    reference's association exactly.  ``fastmath`` stays off so none of it
    is reassociated or contracted.
    """
    cg, rows, cols = ext.shape
    mb, out_h, out_w = out_block.shape
    th = (rows - 2) // 2
    tw = (cols - 2) // 2
    vbuf = np.empty((cg, 4, 4), dtype=np.float64)
    nbuf = np.empty((4, 4), dtype=np.float64)
    acc = np.empty((4, 4), dtype=np.float64)
    q0 = np.empty(4, dtype=np.float64)
    q1 = np.empty(4, dtype=np.float64)
    for ty in range(th):
        r0 = 2 * ty
        for tx in range(tw):
            c0 = 2 * tx
            # input transform B^T d B for every channel of this tile
            for ci in range(cg):
                for b in range(4):
                    d0 = ext[ci, r0, c0 + b]
                    d1 = ext[ci, r0 + 1, c0 + b]
                    d2 = ext[ci, r0 + 2, c0 + b]
                    d3 = ext[ci, r0 + 3, c0 + b]
                    nbuf[0, b] = d0 - d2
                    nbuf[1, b] = d1 + d2
                    nbuf[2, b] = d2 - d1
                    nbuf[3, b] = d1 - d3
                for a in range(4):
                    n0 = nbuf[a, 0]
                    n1 = nbuf[a, 1]
                    n2 = nbuf[a, 2]
                    n3 = nbuf[a, 3]
                    vbuf[ci, a, 0] = n0 - n2
                    vbuf[ci, a, 1] = n1 + n2
                    vbuf[ci, a, 2] = n2 - n1
                    vbuf[ci, a, 3] = n1 - n3
            for mi in range(mb):
                for a in range(4):
                    for b in range(4):
                        acc[a, b] = 0.0
                for ci in range(cg):
                    for a in range(4):
                        for b in range(4):
                            acc[a, b] += u[mi, ci, a, b] * vbuf[ci, a, b]
                # inverse transform A^T m A
                for b in range(4):
                    q0[b] = (acc[0, b] + acc[1, b]) + acc[2, b]
                    q1[b] = (acc[1, b] - acc[2, b]) - acc[3, b]
                oy = 2 * ty
                ox = 2 * tx
                if oy < out_h:
                    if ox < out_w:
                        out_block[mi, oy, ox] = (q0[0] + q0[1]) + q0[2]
                    if ox + 1 < out_w:
                        out_block[mi, oy, ox + 1] = (q0[1] - q0[2]) - q0[3]
                if oy + 1 < out_h:
                    if ox < out_w:
                        out_block[mi, oy + 1, ox] = (q1[0] + q1[1]) + q1[2]
                    if ox + 1 < out_w:
                        out_block[mi, oy + 1, ox + 1] = (q1[1] - q1[2]) - q1[3]


def winograd_group_conv(ext: np.ndarray, u: np.ndarray,
                        out_block: np.ndarray) -> None:
    """Compiled Winograd group convolution; same contract as the reference."""
    ext_c = np.ascontiguousarray(ext, dtype=np.float64)
    u_c = np.ascontiguousarray(u, dtype=np.float64)
    if out_block.flags.c_contiguous:
        _winograd_group_conv(ext_c, u_c, out_block)
        return
    scratch = np.empty(out_block.shape, dtype=np.float64)
    _winograd_group_conv(ext_c, u_c, scratch)
    out_block[:] = scratch


#: index layout of the packed scalar-parameter arrays fed to the compiled
#: scorer (numba functions take arrays, not dataclasses)
_INT_PARAMS = ("kernel_area", "channel_pairs", "per_stripe_cycles",
               "out_height", "weight_count", "batch", "ofmap_words",
               "stride", "kernel_size", "padded_width",
               "in_channels_per_group", "word_bytes",
               "wino_tiles_h", "wino_tiles_w", "wino_weight_count",
               "wino_ext_width")
_FLOAT_PARAMS = ("frequency_hz", "pe_cycle_j", "static_fraction",
                 "kmemory_access_j", "imemory_access_j", "omemory_access_j",
                 "dram_byte_j", "wino_pe_energy_factor")


@njit(parallel=False, cache=True)
def _score_mappings(p, h, c, image_major, ints, floats, out_i, out_f):  # pragma: no cover
    """Scalar-loop scorer matching the reference's float64 operation order.

    Every float operation mirrors one elementwise NumPy operation of the
    reference — same operands, same left-to-right association, same
    int64→float64 conversion points — so the results are bit-identical.
    """
    kernel_area = ints[0]
    channel_pairs = ints[1]
    per_stripe_cycles = ints[2]
    out_height = ints[3]
    weight_count = ints[4]
    batch = ints[5]
    ofmap_words = ints[6]
    stride = ints[7]
    kernel_size = ints[8]
    padded_width = ints[9]
    in_channels_per_group = ints[10]
    word_bytes = ints[11]
    frequency = floats[0]
    pe_cycle_j = floats[1]
    static_fraction = floats[2]
    kmemory_access_j = floats[3]
    imemory_access_j = floats[4]
    omemory_access_j = floats[5]
    dram_byte_j = floats[6]

    chain_scale = pe_cycle_j * (1.0 + static_fraction)
    omem_words = 2 * ofmap_words * in_channels_per_group * batch
    omem_j = omemory_access_j * np.float64(omem_words)
    weight_count_f = np.float64(weight_count)
    batch_f = np.float64(batch)

    for i in range(p.shape[0]):
        passes = -((-channel_pairs) // p[i])
        active_pes = p[i] * kernel_area
        stripes = -((-out_height) // h[i])
        conv_img = stripes * per_stripe_cycles * passes
        chunk_eff = min(c[i], passes)
        refills = -((-passes) // chunk_eff)

        if image_major[i] and refills > 1:
            load_cycles = weight_count * batch
        else:
            load_cycles = weight_count
        batch_cycles = conv_img * batch + load_cycles

        conv_img_f = np.float64(conv_img)
        batch_major_first = (conv_img * ((refills - 1) * batch + 1)) / refills
        if image_major[i]:
            first_cycles = weight_count_f + conv_img_f
        else:
            first_cycles = weight_count_f + batch_major_first

        if (not image_major[i]) and refills > 1:
            spill_words = 2 * ofmap_words * (refills - 1) * batch
        else:
            spill_words = 0

        time_batch_s = batch_cycles / frequency
        first_s = first_cycles / frequency
        fps = batch_f / time_batch_s

        chain_j = ((chain_scale * np.float64(active_pes)) * conv_img_f) * batch_f
        if stride == 1:
            kmem_repeats = stripes
        else:
            kmem_repeats = out_height
        kmem_words = (kernel_area * channel_pairs * kmem_repeats * batch
                      + load_cycles)
        kmem_j = kmemory_access_j * np.float64(kmem_words)
        stripe_rows = (h[i] - 1) * stride + kernel_size
        imem_words = (stripes * stripe_rows * padded_width
                      * channel_pairs * batch)
        imem_j = imemory_access_j * np.float64(imem_words)
        dram_words = load_cycles + spill_words
        dram_j = (dram_byte_j * np.float64(dram_words)) * np.float64(word_bytes)

        energy_j = (((chain_j + kmem_j) + imem_j) + omem_j) + dram_j

        out_i[0, i] = passes
        out_i[1, i] = active_pes
        out_i[2, i] = refills
        out_i[3, i] = stripes
        out_f[0, i] = conv_img_f
        out_f[1, i] = np.float64(load_cycles)
        out_f[2, i] = np.float64(batch_cycles)
        out_f[3, i] = first_cycles
        out_f[4, i] = time_batch_s
        out_f[5, i] = first_s
        out_f[6, i] = fps
        out_f[7, i] = np.float64(spill_words)
        out_f[8, i] = energy_j
        out_f[9, i] = energy_j * time_batch_s


def score_mappings(params: MappingCostParams, primitives: np.ndarray,
                   stripe_height: np.ndarray, chunk: np.ndarray,
                   image_major: np.ndarray) -> Dict[str, np.ndarray]:
    """Compiled candidate scorer; same contract as the reference.

    The compiled loop assumes ``per_stripe_cycles`` is integral (true for
    every layer the paper's closed forms produce — the annotation on
    :func:`repro.core.performance.per_stripe_cycles_paper` is wider than
    its values); a non-integral value delegates to the reference.
    """
    from repro.kernels import numpy_backend

    if float(params.per_stripe_cycles) != float(int(params.per_stripe_cycles)):
        return numpy_backend.score_mappings(params, primitives, stripe_height,
                                            chunk, image_major)
    p = np.ascontiguousarray(primitives, dtype=np.int64)
    h = np.ascontiguousarray(stripe_height, dtype=np.int64)
    c = np.ascontiguousarray(chunk, dtype=np.int64)
    im = np.ascontiguousarray(image_major, dtype=np.bool_)
    ints = np.array([int(getattr(params, name)) for name in _INT_PARAMS],
                    dtype=np.int64)
    floats = np.array([float(getattr(params, name)) for name in _FLOAT_PARAMS],
                      dtype=np.float64)
    n = p.shape[0]
    out_i = np.empty((4, n), dtype=np.int64)
    out_f = np.empty((10, n), dtype=np.float64)
    _score_mappings(p, h, c, im, ints, floats, out_i, out_f)
    return _unpack_score_columns(out_i, out_f)


def _unpack_score_columns(out_i: np.ndarray,
                          out_f: np.ndarray) -> Dict[str, np.ndarray]:
    return {
        "passes": out_i[0],
        "active_pes": out_i[1],
        "kmemory_refills": out_i[2],
        "stripes": out_i[3],
        "conv_cycles_per_image": out_f[0],
        "kernel_load_cycles": out_f[1],
        "batch_cycles": out_f[2],
        "first_image_cycles": out_f[3],
        "time_per_batch_s": out_f[4],
        "first_image_latency_s": out_f[5],
        "fps": out_f[6],
        "spill_dram_words": out_f[7],
        "energy_per_batch_j": out_f[8],
        "edp_js": out_f[9],
    }


@njit(parallel=False, cache=True)
def _score_mappings_winograd(p, c, image_major, ints, floats,
                             out_i, out_f):  # pragma: no cover - compiled
    """Scalar-loop Winograd scorer matching the reference's float64 order.

    Same bit-identity discipline as :func:`_score_mappings`, applied to the
    transform-domain closed forms of
    :func:`repro.kernels.numpy_backend.score_mappings_winograd`.
    """
    kernel_area = ints[0]
    channel_pairs = ints[1]
    batch = ints[5]
    ofmap_words = ints[6]
    in_channels_per_group = ints[10]
    word_bytes = ints[11]
    tiles_h = ints[12]
    tiles_w = ints[13]
    weight_count = ints[14]
    ext_width = ints[15]
    frequency = floats[0]
    pe_cycle_j = floats[1]
    static_fraction = floats[2]
    kmemory_access_j = floats[3]
    imemory_access_j = floats[4]
    omemory_access_j = floats[5]
    dram_byte_j = floats[6]
    pe_energy_factor = floats[7]

    chain_scale = (pe_cycle_j * pe_energy_factor) * (1.0 + static_fraction)
    omem_words = 2 * ofmap_words * in_channels_per_group * batch
    omem_j = omemory_access_j * np.float64(omem_words)
    weight_count_f = np.float64(weight_count)
    batch_f = np.float64(batch)
    # 2 multiply cycles + 1 transform-overhead cycle per tile, plus the
    # direct model's K^2-1 stripe fill
    per_stripe = 3 * tiles_w + (kernel_area - 1)

    for i in range(p.shape[0]):
        passes = -((-channel_pairs) // p[i])
        active_pes = p[i] * kernel_area
        stripes = tiles_h
        conv_img = stripes * per_stripe * passes
        chunk_eff = min(c[i], passes)
        refills = -((-passes) // chunk_eff)

        if image_major[i] and refills > 1:
            load_cycles = weight_count * batch
        else:
            load_cycles = weight_count
        batch_cycles = conv_img * batch + load_cycles

        conv_img_f = np.float64(conv_img)
        batch_major_first = (conv_img * ((refills - 1) * batch + 1)) / refills
        if image_major[i]:
            first_cycles = weight_count_f + conv_img_f
        else:
            first_cycles = weight_count_f + batch_major_first

        if (not image_major[i]) and refills > 1:
            spill_words = 2 * ofmap_words * (refills - 1) * batch
        else:
            spill_words = 0

        time_batch_s = batch_cycles / frequency
        first_s = first_cycles / frequency
        fps = batch_f / time_batch_s

        chain_j = ((chain_scale * np.float64(active_pes)) * conv_img_f) * batch_f
        kmem_words = (16 * channel_pairs * stripes * batch + load_cycles)
        kmem_j = kmemory_access_j * np.float64(kmem_words)
        imem_words = stripes * 4 * ext_width * channel_pairs * batch
        imem_j = imemory_access_j * np.float64(imem_words)
        dram_words = load_cycles + spill_words
        dram_j = (dram_byte_j * np.float64(dram_words)) * np.float64(word_bytes)

        energy_j = (((chain_j + kmem_j) + imem_j) + omem_j) + dram_j

        out_i[0, i] = passes
        out_i[1, i] = active_pes
        out_i[2, i] = refills
        out_i[3, i] = stripes
        out_f[0, i] = conv_img_f
        out_f[1, i] = np.float64(load_cycles)
        out_f[2, i] = np.float64(batch_cycles)
        out_f[3, i] = first_cycles
        out_f[4, i] = time_batch_s
        out_f[5, i] = first_s
        out_f[6, i] = fps
        out_f[7, i] = np.float64(spill_words)
        out_f[8, i] = energy_j
        out_f[9, i] = energy_j * time_batch_s


def score_mappings_winograd(params: MappingCostParams, primitives: np.ndarray,
                            chunk: np.ndarray,
                            image_major: np.ndarray) -> Dict[str, np.ndarray]:
    """Compiled Winograd candidate scorer; same contract as the reference."""
    p = np.ascontiguousarray(primitives, dtype=np.int64)
    c = np.ascontiguousarray(chunk, dtype=np.int64)
    im = np.ascontiguousarray(image_major, dtype=np.bool_)
    ints = np.array([int(getattr(params, name)) for name in _INT_PARAMS],
                    dtype=np.int64)
    floats = np.array([float(getattr(params, name)) for name in _FLOAT_PARAMS],
                      dtype=np.float64)
    n = p.shape[0]
    out_i = np.empty((4, n), dtype=np.int64)
    out_f = np.empty((10, n), dtype=np.float64)
    _score_mappings_winograd(p, c, im, ints, floats, out_i, out_f)
    return _unpack_score_columns(out_i, out_f)
