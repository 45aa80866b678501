"""Result generation: reports, the Table V comparison, sweeps and rooflines."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "BatchDesignEvaluator": "repro.analysis.batch",
    "BatchSweepResult": "repro.analysis.batch",
    "ComparisonResult": "repro.analysis.comparison",
    "DesignGrid": "repro.analysis.batch",
    "StateOfTheArtComparison": "repro.analysis.comparison",
    "DesignSpaceExplorer": "repro.analysis.sweep",
    "SweepPoint": "repro.analysis.sweep",
    "RooflineModel": "repro.analysis.roofline",
    "RooflinePoint": "repro.analysis.roofline",
    "format_cell": "repro.analysis.report",
    "pareto_indices": "repro.analysis.pareto",
    "pareto_mask": "repro.analysis.pareto",
    "render_table": "repro.analysis.report",
    "render_dict_table": "repro.analysis.report",
    "render_bar_chart": "repro.analysis.report",
    "render_comparison": "repro.analysis.report",
    "top_k_indices": "repro.analysis.pareto",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
