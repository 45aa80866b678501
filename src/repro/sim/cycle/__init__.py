"""Cycle-accurate chain simulation."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CYCLE_BACKENDS": "repro.options",
    "CycleAccurateChainSimulator": "repro.sim.cycle.engine",
    "CycleSimResult": "repro.sim.cycle.engine",
    "CycleSimStats": "repro.sim.cycle.engine",
    "PairGeometryStats": "repro.sim.cycle.vectorized",
    "pair_geometry": "repro.sim.cycle.vectorized",
    "stripe_mac_count": "repro.sim.cycle.vectorized",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
