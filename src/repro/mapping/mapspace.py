"""Mapspace enumeration: the legal mappings of one layer onto the chain.

A mapping candidate fixes the four scheduling choices the chain architecture
leaves open for a convolutional layer:

* ``primitives`` — how many of the chain's ``floor(P / K^2)`` primitive
  slots execute the layer (fewer primitives mean more passes but fewer
  active PEs);
* ``stripe_height`` — ofmap rows computed per stripe (the paper uses the
  full ``K``; any ``1..K`` is legal, trading stripe count against the
  iMemory band height);
* ``chunk`` — kMemory-resident passes per kernel refill (``1..capacity``
  words per PE; ``ceil(passes / chunk)`` refills);
* ``interleave`` — ``"batch"`` (the paper's chunk-major-over-batch order:
  kernels load once per batch, partial ofmaps spill across chunk
  boundaries) or ``"image"`` (image-major: no partial-sum spills, kernels
  reload per image whenever they do not fit);
* ``algorithm`` — ``"direct"`` (the paper's sliding-window dataflow) or
  ``"winograd"`` (the F(2x2,3x3) transform-domain mode of
  :mod:`repro.analysis.winograd`, legal only for 3x3 stride-1 layers).
  Winograd candidates pin ``stripe_height`` to the kernel size — the 4x4
  tile grid fixes the stripe plan, so the height axis is degenerate — and
  draw their chunk axis from the *reduced* kMemory capacity left by the
  16/9-wider transformed filter planes.  The axis is **opt-in** per space
  (``algorithm="direct"`` keeps the space exactly as before; ``"auto"``
  enumerates both algorithms on eligible layers; ``"winograd"`` forces the
  transform domain on eligible layers), so direct-only searches and their
  caches are untouched.

Legality checks reuse :class:`~repro.errors.MappingError` via
:meth:`repro.core.mapper.LayerMapper.map_layer_with`.  Enumeration applies
*analytic pruning bounds* so zoo-scale spaces stay tractable:

* the cost model depends on ``primitives`` only through ``passes =
  ceil(Q / p)`` and the active-PE count ``p * K^2``, and every cost column
  is weakly *increasing* in ``p`` at fixed ``passes`` (more active PEs burn
  more chain energy for the same latency) — so only the **minimal** ``p``
  per distinct ``passes`` value (plus the Table II baseline ``p``) needs
  evaluating;
* the cost model depends on ``chunk`` only through ``refills =
  ceil(passes / chunk)`` — so only the **maximal** chunk per distinct
  refill count needs evaluating;
* the two interleave policies coincide when ``refills == 1``, so the
  image-major variant is only emitted when the weights do not fit.

Both bounds follow the ``ceil``-plateau structure (there are at most
``O(sqrt(Q))`` distinct values of ``ceil(Q / p)``), which keeps the pruned
space small next to the full cross-product: VGG-16 under
``--algorithm auto`` prunes to 649,826 candidates in total, at most 78,326
per layer (conv4_2 ... conv5_3).

:meth:`LayerMapSpace.enumerate` returns the pruned space as a
:class:`CandidateTable` — five aligned NumPy columns built by masking the
(pruned primitives x chunk) grid with the plateau rule and expanding the
kept cells over stripe heights and interleaves, without building a
:class:`MappingCandidate` per row.  The table's row order is the search's
tie-break contract (stable argsorts keep the first of equal scores): rows
are primitive-major; within one primitive count direct rows come before
Winograd rows; then chunk descending; then stripe height ascending; then
batch before image.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.winograd import (
    winograd_eligible,
    winograd_kmemory_capacity,
)
from repro.cnn.layer import ConvLayer
from repro.cnn.network import Network
from repro.core.config import ChainConfig
from repro.core.mapper import LayerMapper
from repro.errors import MappingError
from repro.obs import metrics as obs_metrics
from repro.options import ALGORITHM_MODES

# enumeration counters: "pruned" counts the candidates the analytic bounds
# removed relative to the unpruned cross-product (full_size - pruned_size)
_M_ENUMERATED = obs_metrics.counter("mapping.candidates_enumerated")
_M_PRUNED = obs_metrics.counter("mapping.candidates_pruned")

#: batch-interleave policies a candidate can select
INTERLEAVES = ("batch", "image")

#: execution algorithms a candidate can select
ALGORITHMS = ("direct", "winograd")


@dataclass(frozen=True)
class MappingCandidate:
    """One point of a layer's mapspace."""

    primitives: int
    stripe_height: int
    chunk: int
    interleave: str = "batch"
    algorithm: str = "direct"

    def __post_init__(self) -> None:
        if self.interleave not in INTERLEAVES:
            raise MappingError(
                f"interleave must be one of {INTERLEAVES}, got {self.interleave!r}"
            )
        if self.algorithm not in ALGORITHMS:
            raise MappingError(
                f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )

    @property
    def image_major(self) -> bool:
        """True for the image-major (latency-oriented) schedule."""
        return self.interleave == "image"

    @property
    def is_winograd(self) -> bool:
        """True when the candidate runs in the transform domain."""
        return self.algorithm == "winograd"

    def describe(self) -> str:
        """Compact human-readable form (the ``repro map`` table cells)."""
        suffix = " wino" if self.is_winograd else ""
        return (f"p={self.primitives} h={self.stripe_height} "
                f"c={self.chunk} {self.interleave}{suffix}")

    def to_json_dict(self) -> Dict[str, Any]:
        """Plain-dict form suitable for ``json.dump`` and cache payloads."""
        return {
            "primitives": self.primitives,
            "stripe_height": self.stripe_height,
            "chunk": self.chunk,
            "interleave": self.interleave,
            "algorithm": self.algorithm,
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "MappingCandidate":
        """Rebuild a candidate from :meth:`to_json_dict` output."""
        return cls(
            primitives=int(data["primitives"]),
            stripe_height=int(data["stripe_height"]),
            chunk=int(data["chunk"]),
            interleave=str(data.get("interleave", "batch")),
            algorithm=str(data.get("algorithm", "direct")),
        )


@dataclass(frozen=True, eq=False)
class CandidateTable:
    """Mapping candidates as five aligned columns (one row per candidate).

    The columns are ``(primitives, stripe_height, chunk, image, winograd)``
    — :attr:`columns` is exactly the argument tuple
    :meth:`repro.analysis.batch.MappingBatchEvaluator.evaluate` takes — so
    a whole space is scored without a :class:`MappingCandidate` per row;
    :meth:`candidate` / :meth:`candidates` build objects only for the rows
    a search keeps.
    """

    primitives: np.ndarray
    stripe_height: np.ndarray
    chunk: np.ndarray
    image: np.ndarray
    winograd: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("primitives", np.int64), ("stripe_height", np.int64),
                            ("chunk", np.int64), ("image", bool),
                            ("winograd", bool)):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=dtype))

    @classmethod
    def from_candidates(cls, candidates: Sequence[MappingCandidate]
                        ) -> "CandidateTable":
        """Columns of a candidate list, in list order."""
        return cls(
            np.array([c.primitives for c in candidates], dtype=np.int64),
            np.array([c.stripe_height for c in candidates], dtype=np.int64),
            np.array([c.chunk for c in candidates], dtype=np.int64),
            np.array([c.image_major for c in candidates], dtype=bool),
            np.array([c.is_winograd for c in candidates], dtype=bool),
        )

    @property
    def columns(self) -> Tuple[np.ndarray, ...]:
        """``(primitives, stripe_height, chunk, image, winograd)``."""
        return (self.primitives, self.stripe_height, self.chunk, self.image,
                self.winograd)

    def __len__(self) -> int:
        return int(self.primitives.shape[0])

    def take(self, indices) -> "CandidateTable":
        """The rows at ``indices`` (an index array or boolean mask), in order."""
        return CandidateTable(*(column[indices] for column in self.columns))

    def candidate(self, index: int) -> MappingCandidate:
        """Row ``index`` as a :class:`MappingCandidate`."""
        return MappingCandidate(
            primitives=int(self.primitives[index]),
            stripe_height=int(self.stripe_height[index]),
            chunk=int(self.chunk[index]),
            interleave=INTERLEAVES[int(self.image[index])],
            algorithm=ALGORITHMS[int(self.winograd[index])],
        )

    def candidates(self) -> List[MappingCandidate]:
        """Every row as a :class:`MappingCandidate` (for small tables)."""
        return [self.candidate(index) for index in range(len(self))]


def plateau_chunks(passes: np.ndarray, capacity: int
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """The ceil-plateau rule for kMemory chunks, for many pass counts at once.

    Cost depends on ``chunk`` only through ``refills = ceil(passes /
    chunk)``, so a chunk is kept when it is the largest chunk ``<=
    min(capacity, passes)`` with its refill count.  Returns ``(chunks,
    keep)``: the chunk values in descending order and the
    ``(len(passes), len(chunks))`` boolean keep-mask, so a row-major
    ``np.nonzero(keep)`` walks every pass count's kept chunks largest first.
    """
    passes = np.asarray(passes, dtype=np.int64)[:, None]
    width = min(capacity, int(passes.max(initial=0)))
    chunks = np.arange(width, 0, -1, dtype=np.int64)
    limit = np.minimum(capacity, passes)
    refills = -(-passes // chunks)
    # refills drop at chunk + 1 exactly when chunk ends its plateau
    ends_plateau = -(-passes // (chunks + 1)) < refills
    keep = (chunks <= limit) & ((chunks == limit) | ends_plateau)
    return chunks, keep


class LayerMapSpace:
    """The legal mapping candidates of one layer on one chain configuration."""

    def __init__(self, layer: ConvLayer, config: Optional[ChainConfig] = None,
                 algorithm: str = "direct") -> None:
        self.layer = layer
        self.config = config or ChainConfig()
        self._mapper = LayerMapper(self.config)
        kernel_area = layer.kernel_size * layer.kernel_size
        if kernel_area > self.config.num_pes:
            raise MappingError(
                f"{layer.name}: kernel {layer.kernel_size}x{layer.kernel_size} needs "
                f"{kernel_area} PEs but the chain has only {self.config.num_pes}"
            )
        if algorithm not in ALGORITHM_MODES:
            raise MappingError(
                f"algorithm must be one of {ALGORITHM_MODES}, got {algorithm!r}"
            )
        self.max_primitives = self.config.num_pes // kernel_area
        self.kmemory_capacity = self.config.kmemory_words_per_pe
        #: chunk capacity (in passes) for Winograd candidates — transformed
        #: 4x4 planes take 16/9 of the direct footprint per PE
        self.winograd_capacity = winograd_kmemory_capacity(self.kmemory_capacity)
        self.channel_pairs = layer.channel_pairs()
        #: the algorithm values this space enumerates; ineligible layers
        #: degrade every mode to direct-only
        if winograd_eligible(layer):
            self.algorithms: Tuple[str, ...] = {
                "direct": ("direct",),
                "winograd": ("winograd",),
                "auto": ("direct", "winograd"),
            }[algorithm]
        else:
            self.algorithms = ("direct",)
        # plateau walks are pure functions of the (immutable) layer geometry;
        # memoising them turns the annealer's and beam search's candidate
        # generation from repeated Python loops into dict lookups
        self._pruned_primitives: Optional[List[int]] = None
        self._pruned_chunks: Dict[Tuple[int, bool], List[int]] = {}

    @property
    def winograd_axis(self) -> bool:
        """True when this space enumerates Winograd candidates at all."""
        return "winograd" in self.algorithms

    # ------------------------------------------------------------------ #
    # individual candidates
    # ------------------------------------------------------------------ #
    def baseline(self) -> MappingCandidate:
        """The paper's Table II mapping as a candidate of this space.

        In the winograd-forced mode (no direct axis) the baseline is the
        Table II mapping normalised onto the Winograd sub-space, so search
        strategies seeded from the baseline never leave the space.
        """
        passes = -(-self.channel_pairs // self.max_primitives)
        candidate = MappingCandidate(
            primitives=self.max_primitives,
            stripe_height=self.layer.kernel_size,
            chunk=min(self.kmemory_capacity, passes),
            interleave="batch",
        )
        if "direct" not in self.algorithms:
            candidate = self._as_winograd(candidate)
        return candidate

    def validate(self, candidate: MappingCandidate) -> None:
        """Raise :class:`MappingError` unless ``candidate`` is legal here.

        Delegates to :meth:`LayerMapper.map_layer_with`, the single source of
        legality for primitive counts, stripe heights and kernel chunks;
        Winograd candidates additionally require an eligible layer, the
        pinned stripe height and the reduced transformed-plane chunk bound.
        """
        self._mapper.map_layer_with(
            self.layer,
            primitives=candidate.primitives,
            stripe_height=candidate.stripe_height,
            kernel_chunk=candidate.chunk,
        )
        if candidate.is_winograd:
            if not winograd_eligible(self.layer):
                raise MappingError(
                    f"{self.layer.name}: winograd needs a 3x3 stride-1 layer "
                    f"(K={self.layer.kernel_size}, S={self.layer.stride})"
                )
            if candidate.stripe_height != self.layer.kernel_size:
                raise MappingError(
                    f"{self.layer.name}: winograd candidates pin "
                    f"stripe_height to K={self.layer.kernel_size}, got "
                    f"{candidate.stripe_height}"
                )
            if candidate.chunk > self.winograd_capacity:
                raise MappingError(
                    f"{self.layer.name}: winograd chunk {candidate.chunk} "
                    f"exceeds the transformed-plane capacity "
                    f"{self.winograd_capacity}"
                )

    def passes_for(self, primitives: int) -> int:
        """Round-robin passes needed at a given primitive count."""
        if not (1 <= primitives <= self.max_primitives):
            raise MappingError(
                f"{self.layer.name}: primitives must be in [1, {self.max_primitives}], "
                f"got {primitives}"
            )
        return -(-self.channel_pairs // primitives)

    # ------------------------------------------------------------------ #
    # pruning bounds
    # ------------------------------------------------------------------ #
    def pruned_primitives(self) -> List[int]:
        """Minimal primitive count per distinct ``passes`` value (+ baseline).

        Cost is weakly *increasing* in ``p`` at fixed ``passes`` (latency
        depends on ``passes`` alone; energy additionally scales with the
        active-PE count ``p * K^2``), so the smallest ``p`` on each
        ``ceil(Q/p)`` plateau dominates the rest of it — the plateau walk
        visits O(sqrt(Q)) values instead of all ``max_primitives``.
        """
        if self._pruned_primitives is not None:
            return self._pruned_primitives
        q = self.channel_pairs
        values: List[int] = []
        p = 1
        while p <= self.max_primitives:
            passes = -(-q // p)
            values.append(p)
            if passes == 1:
                break
            # largest p with the same ceil(Q/p) plateau
            p = (q - 1) // (passes - 1) + 1
        if self.max_primitives not in values:
            values.append(self.max_primitives)
        self._pruned_primitives = sorted(values)
        return self._pruned_primitives

    def pruned_chunks(self, passes: int, winograd: bool = False) -> List[int]:
        """Maximal chunk per distinct refill count (descending).

        One chunk per plateau of ``ceil(passes / chunk)`` covers every
        distinct cost (:func:`plateau_chunks`).  Winograd candidates cap
        the chunk at the reduced transformed-plane capacity.
        """
        cached = self._pruned_chunks.get((passes, winograd))
        if cached is not None:
            return cached
        capacity = self.winograd_capacity if winograd else self.kmemory_capacity
        chunks, keep = plateau_chunks(np.array([passes]), capacity)
        values = chunks[keep[0]].tolist()
        self._pruned_chunks[(passes, winograd)] = values
        return values

    # ------------------------------------------------------------------ #
    # enumeration
    # ------------------------------------------------------------------ #
    def full_size(self) -> int:
        """Size of the unpruned space (the analytic upper bound)."""
        total = 0
        if "direct" in self.algorithms:
            total += (self.max_primitives * self.layer.kernel_size
                      * self.kmemory_capacity * len(INTERLEAVES))
        if self.winograd_axis:
            # stripe height is pinned: one height value, reduced chunk range
            total += (self.max_primitives * self.winograd_capacity
                      * len(INTERLEAVES))
        return total

    def _chunk_cells(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                    np.ndarray]:
        """The kept (primitives, algorithm, chunk) cells of the pruned space.

        Returns ``(primitives, chunk, winograd, image_too)`` per cell in
        table order — primitive-major, direct before Winograd, chunk
        descending; ``image_too`` marks cells whose refills exceed 1, the
        only ones that also get an image-major row.
        """
        primitives = np.asarray(self.pruned_primitives(), dtype=np.int64)
        passes = -(-self.channel_pairs // primitives)
        chunk_columns, wino_columns, keep_columns = [], [], []
        for algorithm in self.algorithms:
            winograd = algorithm == "winograd"
            capacity = self.winograd_capacity if winograd else self.kmemory_capacity
            chunks, keep = plateau_chunks(passes, capacity)
            chunk_columns.append(chunks)
            wino_columns.append(np.full(chunks.shape, winograd))
            keep_columns.append(keep)
        rows, cols = np.nonzero(np.concatenate(keep_columns, axis=1))
        chunk = np.concatenate(chunk_columns)[cols]
        image_too = passes[rows] > chunk
        return primitives[rows], chunk, np.concatenate(wino_columns)[cols], image_too

    def _rows_per_cell(self, winograd: np.ndarray,
                       image_too: np.ndarray) -> np.ndarray:
        """Table rows each cell expands to: heights x interleaves."""
        heights = np.where(winograd, 1, self.layer.kernel_size)
        return heights * (1 + image_too.astype(np.int64))

    def enumerate(self) -> CandidateTable:
        """Every cost-distinct legal candidate (the pruned space) as a table.

        Each kept cell expands to its stripe heights (``1..K`` for direct,
        the pinned ``K`` for Winograd) times its interleaves (batch, then
        image when refills > 1), in the row order the module docstring
        documents.
        """
        primitives, chunk, winograd, image_too = self._chunk_cells()
        counts = self._rows_per_cell(winograd, image_too)
        cell = np.repeat(np.arange(counts.shape[0]), counts)
        offset = np.arange(cell.shape[0]) - np.repeat(np.cumsum(counts) - counts,
                                                      counts)
        interleaves = 1 + image_too[cell].astype(np.int64)
        table = CandidateTable(
            primitives=primitives[cell],
            stripe_height=np.where(winograd[cell], self.layer.kernel_size,
                                   offset // interleaves + 1),
            chunk=chunk[cell],
            image=offset % interleaves == 1,
            winograd=winograd[cell],
        )
        _M_ENUMERATED.inc(len(table))
        _M_PRUNED.inc(max(0, self.full_size() - len(table)))
        return table

    def pruned_size(self) -> int:
        """Number of candidates :meth:`enumerate` yields."""
        _, _, winograd, image_too = self._chunk_cells()
        return int(self._rows_per_cell(winograd, image_too).sum())

    # ------------------------------------------------------------------ #
    # stochastic access (random sampling / annealing moves)
    # ------------------------------------------------------------------ #
    def _as_winograd(self, candidate: MappingCandidate) -> MappingCandidate:
        """Normalise a candidate onto the Winograd sub-space (pin h, cap chunk)."""
        passes = self.passes_for(candidate.primitives)
        return replace(
            candidate,
            algorithm="winograd",
            stripe_height=self.layer.kernel_size,
            chunk=min(candidate.chunk, min(self.winograd_capacity, passes)),
        )

    def sample(self, rng: np.random.Generator, count: int) -> List[MappingCandidate]:
        """``count`` candidates drawn uniformly from the *full* space.

        Direct-only spaces consume exactly the RNG stream they always did;
        the algorithm draw only exists when the Winograd axis is enabled,
        so seeded searches without the axis are unchanged.
        """
        candidates = []
        for _ in range(count):
            primitives = int(rng.integers(1, self.max_primitives + 1))
            passes = self.passes_for(primitives)
            candidate = MappingCandidate(
                primitives=primitives,
                stripe_height=int(rng.integers(1, self.layer.kernel_size + 1)),
                chunk=int(rng.integers(1, min(self.kmemory_capacity, passes) + 1)),
                interleave=INTERLEAVES[int(rng.integers(len(INTERLEAVES)))],
            )
            if self.winograd_axis:
                pick = self.algorithms[int(rng.integers(len(self.algorithms)))]
                if pick == "winograd":
                    candidate = self._as_winograd(candidate)
            candidates.append(candidate)
        return candidates

    def neighbor(self, candidate: MappingCandidate,
                 rng: np.random.Generator) -> MappingCandidate:
        """A legal single-dimension mutation of ``candidate`` (annealing move).

        With the Winograd axis enabled a fifth dimension flips the
        algorithm (normalising stripe height and chunk on the way in);
        the other dimensions respect the pinned height/reduced chunk of a
        Winograd candidate.
        """
        wino = candidate.is_winograd
        dimension = int(rng.integers(5 if self.winograd_axis else 4))
        if dimension == 0:
            values = self.pruned_primitives()
            mutated = replace(candidate,
                              primitives=values[int(rng.integers(len(values)))])
            return self._as_winograd(mutated) if wino else mutated
        if dimension == 1:
            if wino:  # stripe height is pinned; mutate the chunk instead
                dimension = 2
            else:
                return replace(
                    candidate,
                    stripe_height=int(rng.integers(1, self.layer.kernel_size + 1)))
        if dimension == 2:
            passes = self.passes_for(candidate.primitives)
            chunks = self.pruned_chunks(passes, winograd=wino)
            return replace(candidate, chunk=chunks[int(rng.integers(len(chunks)))])
        if dimension == 3:
            flipped = "image" if candidate.interleave == "batch" else "batch"
            return replace(candidate, interleave=flipped)
        # dimension 4: the algorithm axis
        if wino:
            if "direct" in self.algorithms:
                return replace(candidate, algorithm="direct")
            return candidate
        return self._as_winograd(candidate)

    def describe(self) -> str:
        """One-line space summary (sizes before/after pruning)."""
        axis = "+winograd" if self.winograd_axis else ""
        return (f"{self.layer.name}: {self.pruned_size()} pruned / "
                f"{self.full_size()} full candidates "
                f"(p<=%d, K=%d, chunk<=%d%s)" % (
                    self.max_primitives, self.layer.kernel_size,
                    self.kmemory_capacity, axis))


class MapSpace:
    """Per-layer mapspaces of a whole network."""

    def __init__(self, network: Network, config: Optional[ChainConfig] = None,
                 algorithm: str = "direct") -> None:
        self.network = network
        self.config = config or ChainConfig()
        self.algorithm = algorithm
        self.layer_spaces = [LayerMapSpace(layer, self.config,
                                           algorithm=algorithm)
                             for layer in network.conv_layers]
        if not self.layer_spaces:
            raise MappingError(f"{network.name}: no convolutional layers to map")

    def __iter__(self) -> Iterator[LayerMapSpace]:
        return iter(self.layer_spaces)

    def __len__(self) -> int:
        return len(self.layer_spaces)

    def total_pruned_size(self) -> int:
        """Candidates across all layers after pruning."""
        return sum(space.pruned_size() for space in self.layer_spaces)

    def total_full_size(self) -> int:
        """Candidates across all layers before pruning."""
        return sum(space.full_size() for space in self.layer_spaces)

    def baseline_candidates(self) -> List[MappingCandidate]:
        """The Table II mapping of every layer."""
        return [space.baseline() for space in self.layer_spaces]

    def describe(self) -> str:
        """Multi-line summary of every layer's space."""
        lines = [f"{self.network.name}: {self.total_pruned_size()} pruned / "
                 f"{self.total_full_size()} full candidates"]
        lines += ["  " + space.describe() for space in self.layer_spaces]
        return "\n".join(lines)
