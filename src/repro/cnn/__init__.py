"""CNN workload substrate: layer specs, network zoo, references, quantisation."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ConvLayer": "repro.cnn.layer",
    "FullyConnectedLayer": "repro.cnn.layer",
    "PoolingLayer": "repro.cnn.layer",
    "Network": "repro.cnn.network",
    "validate_chaining": "repro.cnn.network",
    "FeatureMap": "repro.cnn.tensor",
    "WorkloadGenerator": "repro.cnn.generator",
    "TensorStats": "repro.cnn.generator",
    "QuantizationResult": "repro.cnn.quantize",
    "bit_width_sweep": "repro.cnn.quantize",
    "choose_format": "repro.cnn.quantize",
    "evaluate_layer_quantization": "repro.cnn.quantize",
    "quantize_layer_tensors": "repro.cnn.quantize",
    "conv2d_direct": "repro.cnn.reference",
    "conv2d_im2col": "repro.cnn.reference",
    "conv2d_single_channel": "repro.cnn.reference",
    "pad_input": "repro.cnn.reference",
    "strided_windows": "repro.cnn.reference",
    "NETWORKS": "repro.cnn.zoo",
    "alexnet": "repro.cnn.zoo",
    "vgg16": "repro.cnn.zoo",
    "lenet5": "repro.cnn.zoo",
    "cifar10_quick": "repro.cnn.zoo",
    "tiny_test_network": "repro.cnn.zoo",
    "get_network": "repro.cnn.zoo",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
