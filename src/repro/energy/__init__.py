"""Power, energy and area models."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AreaModel": "repro.energy.area",
    "AreaReport": "repro.energy.area",
    "EnergyParams": "repro.energy.components",
    "GateCountParams": "repro.energy.components",
    "PAPER_POWER_BREAKDOWN_W": "repro.energy.components",
    "PAPER_TOTAL_POWER_W": "repro.energy.components",
    "PowerModel": "repro.energy.power",
    "PowerReport": "repro.energy.power",
    "TechNode": "repro.energy.technology",
    "TSMC_28NM": "repro.energy.technology",
    "TSMC_65NM": "repro.energy.technology",
    "ST_28NM": "repro.energy.technology",
    "scale_efficiency": "repro.energy.technology",
    "scale_frequency": "repro.energy.technology",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
