"""Memory-hierarchy substrate: DRAM, on-chip SRAMs, traffic and bandwidth models."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "BandwidthAnalyzer": "repro.memory.bandwidth",
    "LayerBandwidth": "repro.memory.bandwidth",
    "Dram": "repro.memory.dram",
    "DramSpec": "repro.memory.dram",
    "HierarchySizes": "repro.memory.hierarchy",
    "MemoryHierarchy": "repro.memory.hierarchy",
    "LayerTraffic": "repro.memory.traffic",
    "NetworkTraffic": "repro.memory.traffic",
    "TrafficModel": "repro.memory.traffic",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
