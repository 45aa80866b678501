"""Mapping-search subsystem: mapspace enumeration + schedule optimisation.

The paper maps every layer with one fixed decomposition (Table II:
``floor(P/K^2)`` primitives, channel pairs round-robined into passes, full
``K``-row stripes, kernels streamed in kMemory-sized chunks).  This package
explores the *space* of legal mappings around that point:

* :mod:`repro.mapping.mapspace` — :class:`MappingCandidate`,
  :class:`CandidateTable`, :class:`LayerMapSpace` and :class:`MapSpace`:
  legal per-layer candidates (primitive partition, stripe height,
  kernel-streaming chunk, batch interleave, algorithm) with analytic
  pruning bounds, enumerated as NumPy columns;
* :mod:`repro.mapping.strategies` — the :class:`Strategy` protocol and the
  exhaustive / random / greedy / annealing searches;
* :mod:`repro.mapping.optimizer` — :class:`ScheduleOptimizer` producing an
  :class:`OptimizedSchedule` (consumed by
  :meth:`repro.core.scheduler.BatchScheduler.schedule_optimized`, the
  ``analytical-mapped`` engine and ``repro map``), plus functional
  verification of searched mappings against the im2col golden reference.

Candidates are scored columnar through
:class:`repro.analysis.batch.MappingBatchEvaluator` (10^4+ candidates per
layer per millisecond-scale call) and whole searches are memoised in
:class:`repro.engine.cache.RunCache`.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "INTERLEAVES": "repro.mapping.mapspace",
    "CandidateTable": "repro.mapping.mapspace",
    "LayerMapSpace": "repro.mapping.mapspace",
    "MapSpace": "repro.mapping.mapspace",
    "MappingCandidate": "repro.mapping.mapspace",
    "OBJECTIVES": "repro.options",
    "LayerSchedule": "repro.mapping.optimizer",
    "MappingVerification": "repro.mapping.optimizer",
    "OptimizedSchedule": "repro.mapping.optimizer",
    "ScheduleOptimizer": "repro.mapping.optimizer",
    "STRATEGIES": "repro.options",
    "AnnealStrategy": "repro.mapping.strategies",
    "ExhaustiveStrategy": "repro.mapping.strategies",
    "GreedyStrategy": "repro.mapping.strategies",
    "RandomStrategy": "repro.mapping.strategies",
    "SearchResult": "repro.mapping.strategies",
    "Strategy": "repro.mapping.strategies",
    "make_strategy": "repro.mapping.strategies",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
