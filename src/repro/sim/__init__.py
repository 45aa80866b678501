"""Simulators: functional (dataflow-level) and cycle-accurate (register-level)."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CycleAccurateChainSimulator": "repro.sim.cycle.engine",
    "CycleSimResult": "repro.sim.cycle.engine",
    "CycleSimStats": "repro.sim.cycle.engine",
    "FUNCTIONAL_BACKENDS": "repro.sim.functional",
    "FunctionalChainSimulator": "repro.sim.functional",
    "FunctionalNetworkRunner": "repro.sim.network",
    "FunctionalRunResult": "repro.sim.functional",
    "FunctionalRunStats": "repro.sim.functional",
    "NetworkRunResult": "repro.sim.network",
    "PairWindowStats": "repro.sim.functional_vectorized",
    "StageReport": "repro.sim.network",
    "StripeCoverage": "repro.sim.functional_vectorized",
    "TraceEvent": "repro.sim.trace",
    "TraceLog": "repro.sim.trace",
    "pair_window_stats": "repro.sim.functional_vectorized",
    "pool2d": "repro.sim.network",
    "stride_keep_mask": "repro.sim.functional_vectorized",
    "stripe_coverage": "repro.sim.functional_vectorized",
    "vectorized_layer_ofmaps": "repro.sim.functional_vectorized",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
