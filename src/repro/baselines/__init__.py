"""Baseline architectures and published specs for the Table V comparison."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AcceleratorModel": "repro.baselines.base",
    "AcceleratorSummary": "repro.baselines.base",
    "ChainNNModel": "repro.baselines.chain_nn_model",
    "MemoryCentricAccelerator": "repro.baselines.memory_centric",
    "MemoryCentricParams": "repro.baselines.memory_centric",
    "Spatial2DAccelerator": "repro.baselines.spatial_2d",
    "Spatial2DParams": "repro.baselines.spatial_2d",
    "SingleChannelChain": "repro.baselines.single_channel",
    "PublishedSpec": "repro.baselines.specs",
    "ALL_PUBLISHED_SPECS": "repro.baselines.specs",
    "DADIANNAO_SPEC": "repro.baselines.specs",
    "EYERISS_SPEC": "repro.baselines.specs",
    "CHAIN_NN_SPEC": "repro.baselines.specs",
    "PAPER_EFFICIENCY_RATIOS": "repro.baselines.specs",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
