"""Search strategies over a layer's mapspace.

Every strategy implements one protocol —

    ``strategy.search(space, scorer, shortlist) -> SearchResult``

— where ``scorer`` maps a :class:`~repro.mapping.mapspace.CandidateTable`
to a NumPy array of objective values (lower is better; the optimiser builds
it on top of the columnar :class:`repro.analysis.batch.MappingBatchEvaluator`,
so one scorer call on a 10^5-row table costs milliseconds).  The returned
shortlist is best-first; the optimiser assembles the network schedule from
the shortlists with a never-worse-than-baseline guarantee.

Stochastic strategies (random sampling, simulated annealing) derive their
per-layer RNG streams with :func:`repro.cnn.generator.stable_seed`, so a
(seed, layer, strategy) triple reproduces the same search on any platform —
the determinism CI relies on.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.cnn.generator import stable_seed
from repro.errors import ConfigurationError
from repro.mapping.mapspace import (
    INTERLEAVES,
    CandidateTable,
    LayerMapSpace,
    MappingCandidate,
)

#: strategy registry names accepted by :func:`make_strategy` and the CLI
STRATEGIES = ("exhaustive", "random", "greedy", "anneal")

Scorer = Callable[[CandidateTable], np.ndarray]


def _pack_keys(space: LayerMapSpace, table: CandidateTable) -> np.ndarray:
    """Bijective int64 key per candidate (the vectorized dedup currency).

    The radices come from the space's bounds (``primitives <=
    max_primitives``, ``stripe_height <= K``, ``chunk <= kmemory
    capacity``), so distinct candidates always pack to distinct keys and
    array-level ``np.unique`` / ``np.isin`` replace per-candidate set
    membership tests.  The algorithm axis packs as one more bit.
    """
    radix_h = space.layer.kernel_size + 1
    radix_c = space.kmemory_capacity + 1
    keys = table.primitives * radix_h + table.stripe_height
    keys = keys * radix_c + table.chunk
    keys = keys * 2 + table.image
    return keys * 2 + table.winograd


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one per-layer search."""

    candidates: List[MappingCandidate]  # best first
    scores: List[float]                 # objective values, aligned
    evaluations: int                    # candidates scored by the strategy

    @property
    def best(self) -> MappingCandidate:
        """The strategy's best candidate."""
        return self.candidates[0]

    @property
    def best_score(self) -> float:
        """Objective value of :attr:`best`."""
        return self.scores[0]


def _shortlist(space: LayerMapSpace, table: CandidateTable,
               scores: np.ndarray, k: int, unique: bool = False) -> SearchResult:
    """Deduplicated best-first shortlist of a scored table.

    The stable argsort keeps the first of equally-scored rows, so the
    table's row order breaks ties.  ``unique=True`` asserts the rows are
    already distinct (the pruned enumeration holds each mapping exactly
    once), so the shortlist is the plain argsort head.  Otherwise rows pack
    to int64 keys and one ``np.unique`` finds each key's best-scored (first,
    under the stable score order) occurrence.  Candidate objects are built
    for the shortlisted rows only.
    """
    order = np.argsort(scores, kind="stable")
    if unique:
        picked = order[:k]
    else:
        keys = _pack_keys(space, table)[order]
        _, first = np.unique(keys, return_index=True)
        picked = order[np.sort(first)[:k]]
    return SearchResult(
        candidates=table.take(picked).candidates(),
        scores=[float(score) for score in scores[picked]],
        evaluations=len(table),
    )


class Strategy(abc.ABC):
    """A search over one layer's mapspace."""

    #: registry name (used in records, cache fingerprints and CLI output)
    name: str = "strategy"

    @abc.abstractmethod
    def search(self, space: LayerMapSpace, scorer: Scorer,
               shortlist: int = 4) -> SearchResult:
        """Best-first shortlist of at most ``shortlist`` candidates."""

    def fingerprint(self) -> Dict[str, Any]:
        """Identity entering the search cache key (include every knob)."""
        return {"name": self.name}


class ExhaustiveStrategy(Strategy):
    """Score the whole pruned space in one columnar call.

    The analytic pruning bounds of :class:`LayerMapSpace` keep the pruned
    space small enough (up to 78,326 rows per layer, 649,826 in all, on
    VGG-16 with ``--algorithm auto``) that scoring the whole
    :class:`CandidateTable` at once is both exact and fast; candidate
    objects are built only for the shortlisted rows, and the table's row
    order breaks score ties.  ``max_candidates`` guards against
    pathological configurations blowing the columnar batch up.
    """

    name = "exhaustive"

    def __init__(self, max_candidates: int = 2_000_000) -> None:
        self.max_candidates = max_candidates

    def search(self, space: LayerMapSpace, scorer: Scorer,
               shortlist: int = 4) -> SearchResult:
        size = space.pruned_size()
        if size > self.max_candidates:
            raise ConfigurationError(
                f"{space.layer.name}: pruned mapspace has {size} candidates, "
                f"above the exhaustive limit {self.max_candidates}; use a "
                "sampling strategy"
            )
        table = space.enumerate()
        # the pruned enumeration holds each mapping exactly once, so the
        # shortlist is a pure argsort head — no dedup pass at all
        return _shortlist(space, table, scorer(table), shortlist, unique=True)

    def fingerprint(self) -> Dict[str, Any]:
        return {"name": self.name, "max_candidates": self.max_candidates}


class RandomStrategy(Strategy):
    """Uniform sampling of the full space (baseline always included)."""

    name = "random"

    def __init__(self, samples: int = 1024, seed: int = 2017) -> None:
        if samples < 1:
            raise ConfigurationError(f"samples must be >= 1, got {samples}")
        self.samples = samples
        self.seed = seed

    def search(self, space: LayerMapSpace, scorer: Scorer,
               shortlist: int = 4) -> SearchResult:
        rng = np.random.default_rng(
            stable_seed(self.seed, self.name, space.layer.name))
        table = CandidateTable.from_candidates(
            [space.baseline()] + space.sample(rng, self.samples))
        return _shortlist(space, table, scorer(table), shortlist)

    def fingerprint(self) -> Dict[str, Any]:
        return {"name": self.name, "samples": self.samples, "seed": self.seed}


class GreedyStrategy(Strategy):
    """Beam-kept coordinate descent from the Table II baseline.

    Each sweep relaxes one mapping dimension at a time (primitives, stripe
    height, chunk, interleave — plus the algorithm when the space enables
    the Winograd axis), scoring every pruned value of that dimension for
    every beam state in one columnar call, and keeps the ``beam`` best
    states.  Converges in a handful of sweeps because the per-dimension cost
    structure is unimodal under the pruning bounds.
    """

    name = "greedy"

    def __init__(self, beam: int = 4, max_sweeps: int = 4) -> None:
        if beam < 1 or max_sweeps < 1:
            raise ConfigurationError("beam and max_sweeps must be >= 1")
        self.beam = beam
        self.max_sweeps = max_sweeps

    def _dimension_columns(self, space: LayerMapSpace, state: MappingCandidate,
                           dimension: str) -> Tuple[np.ndarray, ...]:
        """One state's relaxation of ``dimension`` as candidate columns.

        Returns ``(primitives, stripe_height, chunk, image, winograd)``
        arrays in the order the old per-candidate ``dataclasses.replace``
        loop produced — candidate *objects* are only materialised later, for
        the deduped fresh pool that actually reaches the scorer.  A Winograd
        state keeps its pinned stripe height and draws its chunk values from
        the reduced transformed-plane capacity; the ``algorithm`` dimension
        re-normalises the state onto each enabled algorithm.
        """
        wino = state.is_winograd
        if dimension == "algorithm":
            variants = [
                space._as_winograd(state) if algorithm == "winograd"
                else replace(state, algorithm="direct")
                for algorithm in space.algorithms
            ]
            return CandidateTable.from_candidates(variants).columns
        if dimension == "primitives":
            values = np.asarray(space.pruned_primitives(), dtype=np.int64)
        elif dimension == "stripe_height":
            if wino:  # pinned by the tile grid — nothing to relax
                values = np.array([space.layer.kernel_size], dtype=np.int64)
            else:
                values = np.arange(1, space.layer.kernel_size + 1,
                                   dtype=np.int64)
        elif dimension == "chunk":
            passes = space.passes_for(state.primitives)
            values = np.asarray(space.pruned_chunks(passes, winograd=wino),
                                dtype=np.int64)
        else:
            values = np.arange(len(INTERLEAVES), dtype=np.int64)
        count = len(values)
        columns = [
            np.full(count, state.primitives, dtype=np.int64),
            np.full(count, state.stripe_height, dtype=np.int64),
            np.full(count, state.chunk, dtype=np.int64),
            np.full(count, int(state.image_major), dtype=np.int64),
            np.full(count, int(wino), dtype=np.int64),
        ]
        index = {"primitives": 0, "stripe_height": 1, "chunk": 2,
                 "interleave": 3}[dimension]
        columns[index] = values
        return tuple(columns)

    def search(self, space: LayerMapSpace, scorer: Scorer,
               shortlist: int = 4) -> SearchResult:
        states = [space.baseline()]
        best_seen: Dict[MappingCandidate, float] = {}
        seen_keys = np.empty(0, dtype=np.int64)
        evaluations = 0
        dimensions = ("primitives", "stripe_height", "chunk", "interleave")
        if space.winograd_axis:
            dimensions = dimensions + ("algorithm",)
        for _ in range(self.max_sweeps):
            improved = False
            for dimension in dimensions:
                # columnar pool: cross product of beam states x dimension
                # values as arrays, deduped (within the pool and against
                # everything already scored) through packed keys instead of
                # per-candidate set membership
                per_state = [self._dimension_columns(space, state, dimension)
                             for state in states]
                table = CandidateTable(*(
                    np.concatenate([cols[i] for cols in per_state])
                    for i in range(5)))
                keys = _pack_keys(space, table)
                _, first = np.unique(keys, return_index=True)
                first = first[~np.isin(keys[first], seen_keys)]
                first.sort()  # keep the old states-outer, values-inner order
                if first.size == 0:
                    continue
                pool = table.take(first)
                scores = scorer(pool)
                evaluations += len(pool)
                for candidate, score in zip(pool.candidates(), scores):
                    best_seen[candidate] = float(score)
                seen_keys = np.concatenate([seen_keys, keys[first]])
                ranked = sorted(best_seen.items(), key=lambda item: item[1])
                new_states = [candidate for candidate, _ in ranked[:self.beam]]
                if new_states != states:
                    improved = True
                states = new_states
            if not improved:
                break
        ranked = sorted(best_seen.items(), key=lambda item: item[1])
        top = ranked[:shortlist]
        return SearchResult(
            candidates=[candidate for candidate, _ in top],
            scores=[score for _, score in top],
            evaluations=evaluations,
        )

    def fingerprint(self) -> Dict[str, Any]:
        return {"name": self.name, "beam": self.beam, "max_sweeps": self.max_sweeps}


class AnnealStrategy(Strategy):
    """Simulated annealing with single-dimension moves and relative acceptance.

    Moves come from :meth:`LayerMapSpace.neighbor`; a worse candidate is
    accepted with probability ``exp(-delta / (T * |current|))``, with the
    temperature decaying geometrically from ``initial_temperature`` — the
    relative form keeps one schedule meaningful across objectives whose
    scales differ by orders of magnitude (seconds vs. joules).
    """

    name = "anneal"

    def __init__(self, iterations: int = 256, seed: int = 2017,
                 initial_temperature: float = 0.25,
                 cooling: float = 0.98) -> None:
        if iterations < 1:
            raise ConfigurationError(f"iterations must be >= 1, got {iterations}")
        if not (0.0 < cooling < 1.0):
            raise ConfigurationError(f"cooling must be in (0, 1), got {cooling}")
        if initial_temperature <= 0.0:
            raise ConfigurationError("initial_temperature must be > 0")
        self.iterations = iterations
        self.seed = seed
        self.initial_temperature = initial_temperature
        self.cooling = cooling

    def search(self, space: LayerMapSpace, scorer: Scorer,
               shortlist: int = 4) -> SearchResult:
        rng = np.random.default_rng(
            stable_seed(self.seed, self.name, space.layer.name))
        current = space.baseline()
        scored: Dict[MappingCandidate, float] = {}

        def score_of(candidate: MappingCandidate) -> float:
            if candidate not in scored:
                scored[candidate] = float(
                    scorer(CandidateTable.from_candidates([candidate]))[0])
            return scored[candidate]

        current_score = score_of(current)
        temperature = self.initial_temperature
        for _ in range(self.iterations):
            proposal = space.neighbor(current, rng)
            proposal_score = score_of(proposal)
            delta = proposal_score - current_score
            scale = max(abs(current_score), np.finfo(float).tiny)
            if delta <= 0 or rng.random() < np.exp(-delta / (temperature * scale)):
                current, current_score = proposal, proposal_score
            temperature *= self.cooling
        ranked = sorted(scored.items(), key=lambda item: item[1])
        top = ranked[:shortlist]
        return SearchResult(
            candidates=[candidate for candidate, _ in top],
            scores=[score for _, score in top],
            evaluations=len(scored),
        )

    def fingerprint(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "iterations": self.iterations,
            "seed": self.seed,
            "initial_temperature": self.initial_temperature,
            "cooling": self.cooling,
        }


def make_strategy(name: str, **kwargs) -> Strategy:
    """Instantiate a strategy by registry name (CLI / engine entry point).

    Keyword arguments not accepted by the named strategy are rejected, so a
    typo'd knob fails loudly instead of silently running the default.
    """
    factories = {
        "exhaustive": ExhaustiveStrategy,
        "random": RandomStrategy,
        "greedy": GreedyStrategy,
        "anneal": AnnealStrategy,
    }
    if name not in factories:
        raise ConfigurationError(
            f"unknown strategy {name!r}; available: {', '.join(STRATEGIES)}"
        )
    try:
        return factories[name](**kwargs)
    except TypeError as error:
        raise ConfigurationError(f"strategy {name!r}: {error}") from None
