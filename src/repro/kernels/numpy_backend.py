"""NumPy reference implementations of the hot kernels.

This backend is the specification the compiled backend is checked against.
The ofmap block product is one BLAS GEMM, shared by every backend: on the
Q-format operands the functional simulator feeds it, every summation order
is exact (see :mod:`repro.sim.functional_vectorized`), so there is no
reduction order to reproduce.  The mapping-candidate scorers and the
Winograd group convolution are the arithmetic that previously lived inline
in :class:`repro.analysis.batch.MappingBatchEvaluator` and
:mod:`repro.sim.winograd`, moved behind the :mod:`repro.kernels` registry.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.kernels.registry import MappingCostParams


def ofmap_block_product(kernel_matrix: np.ndarray, cols: np.ndarray,
                        out_block: np.ndarray) -> None:
    """Add one stripe's GEMM into an ofmap block: ``out += W @ cols``.

    ``kernel_matrix`` is the ``(Mb, C/g * K * K)`` float64 kernel block,
    ``cols`` the stripe's ``(C/g * K * K, rows * out_w)`` im2col slice and
    ``out_block`` the ``(Mb, rows, out_w)`` ofmap slice to accumulate into.
    """
    out_block += (kernel_matrix @ cols).reshape(out_block.shape)


def winograd_group_conv(ext: np.ndarray, u: np.ndarray,
                        out_block: np.ndarray) -> None:
    """One group's Winograd F(2x2,3x3) convolution, vectorized.

    ``ext`` is the group's ``(Cg, 2*th+2, 2*tw+2)`` float64 input plane,
    zero-extended to the 4x4 tile grid; ``u`` the ``(Mb, Cg, 4, 4)`` float64
    *transformed* filters (``G g G^T``, see
    :func:`repro.sim.winograd.transform_filters`); ``out_block`` the
    ``(Mb, out_h, out_w)`` float64 ofmap block, **assigned** (not
    accumulated).

    On Q-format operands the result is bit-equal to the im2col golden (see
    :mod:`repro.sim.winograd`); on unquantised floats the transforms
    reassociate the 3x3 reduction and it is only tolerance-close.  The
    numpy and numba implementations are bit-identical to each other on any
    input: the input transform is explicit adds, the transform-domain
    accumulation runs over input channels in ascending order element by
    element, and the inverse transform uses the same association, so any
    partition of the ofmap block (serial, parallel workers, either backend)
    produces the same bits.
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
    # is pure adds; rows first, then columns, association fixed for the
    # cross-backend bit-identity contract
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
    # per channel — the order every backend and block partition reproduces)
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


#: Winograd tile cost on a K^2=9-PE primitive — keep in lock-step with the
#: documented model in :mod:`repro.analysis.winograd` (which cannot be
#: imported here without a cycle: analysis.batch imports repro.kernels)
_WINO_MULT_CYCLES_PER_TILE = 2    # ceil(16 transform-domain multiplies / 9 PEs)
_WINO_XFORM_CYCLES_PER_TILE = 1   # overlapped input+output transform slot
_WINO_PLANE_WORDS = 16            # 4x4 transformed filter plane


def score_mappings_winograd(params: MappingCostParams, primitives: np.ndarray,
                            chunk: np.ndarray,
                            image_major: np.ndarray) -> Dict[str, np.ndarray]:
    """Score Winograd-algorithm mapping candidates; same metric vector.

    Mirrors :func:`score_mappings` term by term with the transform-domain
    substitutions documented in :mod:`repro.analysis.winograd`: one stripe
    is one 2-output-row tile row (``stripes = wino_tiles_h``, the
    stripe-height axis is pinned), each tile costs 2 multiply cycles plus 1
    transform-overhead cycle, kernel memory holds 16-word transformed
    planes (``wino_weight_count``), 4 input rows stream per stripe, and the
    PE energy term carries the wider-accumulator factor.
    """
    p = np.asarray(primitives, dtype=np.int64)
    c = np.asarray(chunk, dtype=np.int64)
    image_major = np.asarray(image_major, dtype=bool)
    batch = params.batch

    passes = -(-params.channel_pairs // p)
    active_pes = p * params.kernel_area
    stripes = np.full_like(p, params.wino_tiles_h)
    per_stripe = ((_WINO_MULT_CYCLES_PER_TILE + _WINO_XFORM_CYCLES_PER_TILE)
                  * params.wino_tiles_w + (params.kernel_area - 1))
    conv_img = stripes * per_stripe * passes
    chunk_eff = np.minimum(c, passes)
    refills = -(-passes // chunk_eff)

    weight_count = params.wino_weight_count
    reloads = image_major & (refills > 1)
    load_cycles = np.where(reloads, weight_count * batch, weight_count)
    batch_cycles = conv_img * batch + load_cycles

    batch_major_first = conv_img * ((refills - 1) * batch + 1) / refills
    first_cycles = weight_count + np.where(image_major, conv_img,
                                           batch_major_first)

    spills = (~image_major) & (refills > 1)
    spill_words = np.where(spills,
                           2 * params.ofmap_words * (refills - 1) * batch, 0)

    frequency = params.frequency_hz
    time_batch_s = batch_cycles / frequency
    first_s = first_cycles / frequency
    fps = batch / time_batch_s

    # ---- energy (joules per batch) ------------------------------------ #
    # wider transform-domain accumulators scale the PE term
    chain_j = (params.pe_cycle_j * params.wino_pe_energy_factor
               * (1.0 + params.static_fraction)
               * active_pes * conv_img * batch)
    # kMemory: one transformed-plane word per multiply slot per tile-row
    # revisit, plus the (re)load write traffic
    kmem_words = (_WINO_PLANE_WORDS * params.channel_pairs * stripes
                  * batch + load_cycles)
    kmem_j = params.kmemory_access_j * kmem_words
    # iMemory: each tile row streams its 4 input rows of the tile-aligned
    # extended plane
    imem_words = (stripes * 4 * params.wino_ext_width
                  * params.channel_pairs * batch)
    imem_j = params.imemory_access_j * imem_words
    # oMemory: read-modify-write of the partial sum, unchanged
    omem_words = 2 * params.ofmap_words * params.in_channels_per_group * batch
    omem_j = params.omemory_access_j * np.full(p.shape, float(omem_words))
    # DRAM: transformed-plane (re)loads plus partial-sum spills
    dram_words = load_cycles + spill_words
    dram_j = params.dram_byte_j * dram_words * params.word_bytes

    energy_j = chain_j + kmem_j + imem_j + omem_j + dram_j
    return {
        "passes": passes,
        "active_pes": active_pes,
        "kmemory_refills": refills,
        "stripes": stripes,
        "conv_cycles_per_image": conv_img.astype(np.float64),
        "kernel_load_cycles": load_cycles.astype(np.float64),
        "batch_cycles": batch_cycles.astype(np.float64),
        "first_image_cycles": np.asarray(first_cycles, dtype=np.float64),
        "time_per_batch_s": time_batch_s,
        "first_image_latency_s": first_s,
        "fps": fps,
        "spill_dram_words": spill_words.astype(np.float64),
        "energy_per_batch_j": energy_j,
        "edp_js": energy_j * time_batch_s,
    }


def score_mappings(params: MappingCostParams, primitives: np.ndarray,
                   stripe_height: np.ndarray, chunk: np.ndarray,
                   image_major: np.ndarray) -> Dict[str, np.ndarray]:
    """Score mapping-candidate columns; the integral-pass cost model.

    Inputs are equally-long 1D arrays (``image_major`` boolean); the cost
    model is documented on :class:`repro.analysis.batch.MappingBatchEvaluator`.
    Returns the :data:`repro.analysis.batch.MAPPING_RESULT_COLUMNS` dict —
    ``passes``/``active_pes``/``kmemory_refills``/``stripes`` int64,
    everything else float64.
    """
    p = np.asarray(primitives, dtype=np.int64)
    h = np.asarray(stripe_height, dtype=np.int64)
    c = np.asarray(chunk, dtype=np.int64)
    image_major = np.asarray(image_major, dtype=bool)
    batch = params.batch

    passes = -(-params.channel_pairs // p)
    active_pes = p * params.kernel_area
    stripes = -(-params.out_height // h)
    conv_img = stripes * params.per_stripe_cycles * passes
    chunk_eff = np.minimum(c, passes)
    refills = -(-passes // chunk_eff)

    weight_count = params.weight_count
    reloads = image_major & (refills > 1)
    load_cycles = np.where(reloads, weight_count * batch, weight_count)
    batch_cycles = conv_img * batch + load_cycles

    # first-image completion: image-major finishes after one image's
    # convolutions; chunk-major-over-batch finishes (refills-1)/refills
    # of the way into the batch (kernels always fully loaded by then)
    batch_major_first = conv_img * ((refills - 1) * batch + 1) / refills
    first_cycles = weight_count + np.where(image_major, conv_img,
                                           batch_major_first)

    spills = (~image_major) & (refills > 1)
    spill_words = np.where(spills,
                           2 * params.ofmap_words * (refills - 1) * batch, 0)

    frequency = params.frequency_hz
    time_batch_s = batch_cycles / frequency
    first_s = first_cycles / frequency
    fps = batch / time_batch_s

    # ---- energy (joules per batch) ------------------------------------ #
    chain_j = (params.pe_cycle_j * (1.0 + params.static_fraction)
               * active_pes * conv_img * batch)
    # kMemory: one weight read per MAC slot per stripe revisit, plus the
    # write traffic of the (re)loads
    if params.stride == 1:
        kmem_repeats = stripes
    else:
        kmem_repeats = np.full_like(stripes, params.out_height)
    kmem_words = (params.kernel_area * params.channel_pairs * kmem_repeats
                  * batch + load_cycles)
    kmem_j = params.kmemory_access_j * kmem_words
    # iMemory: every pass streams its stripe bands (overlap rows re-read)
    stripe_rows = (h - 1) * params.stride + params.kernel_size
    imem_words = (stripes * stripe_rows * params.padded_width
                  * params.channel_pairs * batch)
    imem_j = params.imemory_access_j * imem_words
    # oMemory: read-modify-write of the partial sum per kept window
    omem_words = 2 * params.ofmap_words * params.in_channels_per_group * batch
    omem_j = params.omemory_access_j * np.full(p.shape, float(omem_words))
    # DRAM: weight (re)loads plus partial-sum spills
    dram_words = load_cycles + spill_words
    dram_j = params.dram_byte_j * dram_words * params.word_bytes

    energy_j = chain_j + kmem_j + imem_j + omem_j + dram_j
    return {
        "passes": passes,
        "active_pes": active_pes,
        "kmemory_refills": refills,
        "stripes": stripes,
        "conv_cycles_per_image": conv_img.astype(np.float64),
        "kernel_load_cycles": load_cycles.astype(np.float64),
        "batch_cycles": batch_cycles.astype(np.float64),
        "first_image_cycles": np.asarray(first_cycles, dtype=np.float64),
        "time_per_batch_s": time_batch_s,
        "first_image_latency_s": first_s,
        "fps": fps,
        "spill_dram_words": spill_words.astype(np.float64),
        "energy_per_batch_j": energy_j,
        "edp_js": energy_j * time_batch_s,
    }
