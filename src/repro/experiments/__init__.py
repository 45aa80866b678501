"""One module per paper artifact (tables and figures of the evaluation)."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "run_network_study": "repro.experiments.networks",
    "NetworkStudyResult": "repro.experiments.networks",
    "run_table2": "repro.experiments.table2",
    "Table2Result": "repro.experiments.table2",
    "run_table4": "repro.experiments.table4",
    "Table4Result": "repro.experiments.table4",
    "run_table5": "repro.experiments.table5",
    "Table5Result": "repro.experiments.table5",
    "run_fig5": "repro.experiments.fig5",
    "Fig5Result": "repro.experiments.fig5",
    "run_fig9": "repro.experiments.fig9",
    "Fig9Result": "repro.experiments.fig9",
    "run_fig10": "repro.experiments.fig10",
    "Fig10Result": "repro.experiments.fig10",
    "run_all": "repro.experiments.runner",
    "ReproductionReport": "repro.experiments.runner",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
