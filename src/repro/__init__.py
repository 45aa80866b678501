"""Chain-NN reproduction library.

An open-source Python reproduction of *"Chain-NN: An Energy-Efficient 1D
Chain Architecture for Accelerating Deep Convolutional Neural Networks"*
(DATE 2017).  The package models the dual-channel PE chain, its column-wise
scan dataflow, the surrounding memory hierarchy, and the power/area budget,
plus the baselines the paper compares against, and regenerates every table
and figure of the paper's evaluation (see EXPERIMENTS.md).

Quickstart
----------
>>> from repro import ChainNN, alexnet
>>> chip = ChainNN.paper_configuration()
>>> chip.peak_gops
806.4

Public names resolve lazily (see :mod:`repro._lazy`): importing
:mod:`repro` loads none of its subpackages.
"""

from repro._lazy import lazy_exports

__version__ = "1.6.0"

_EXPORTS = {
    "available_engines": "repro.engine.registry",
    "create_engine": "repro.engine.registry",
    "ChainNN": "repro.core.accelerator",
    "Engine": "repro.engine.base",
    "RunCache": "repro.engine.cache",
    "RunRecord": "repro.engine.base",
    "SweepExecutor": "repro.engine.executor",
    "ChainConfig": "repro.core.config",
    "ColumnScanSchedule": "repro.core.scan",
    "SystolicPrimitive": "repro.core.primitive",
    "LayerMapper": "repro.core.mapper",
    "PerformanceModel": "repro.core.performance",
    "NetworkResult": "repro.core.accelerator",
    "TrafficModel": "repro.memory.traffic",
    "PowerModel": "repro.energy.power",
    "EnergyParams": "repro.energy.components",
    "AreaModel": "repro.energy.area",
    "utilization_table": "repro.core.utilization",
    "ConvLayer": "repro.cnn.layer",
    "Network": "repro.cnn.network",
    "WorkloadGenerator": "repro.cnn.generator",
    "alexnet": "repro.cnn.zoo",
    "vgg16": "repro.cnn.zoo",
    "lenet5": "repro.cnn.zoo",
    "cifar10_quick": "repro.cnn.zoo",
    "tiny_test_network": "repro.cnn.zoo",
    "get_network": "repro.cnn.zoo",
}

__all__ = ["__version__", *_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
