"""Whole-network functional verification of the Chain-NN dataflow.

The paper checks the hardware against a software golden model layer by
layer; this module chains that check across a full network the way the
fixed-point toolchain would run it: synthetic quantised tensors enter the
first convolution, every convolutional layer is executed by the
:class:`~repro.sim.functional.FunctionalChainSimulator` (scalar, vectorized
or cross-checked ``both`` backend) and verified against the im2col/GEMM
golden reference on the *same* inputs, and activations are re-quantised
through :mod:`repro.cnn.quantize` between stages — the "float-point-to-
fix-point simulator" loop of the paper at network scale.  Pooling layers are
applied in NumPy so inter-layer feature-map shapes stay faithful; fully
connected layers end the chain (the paper's accelerator only executes
convolutions).

**Contract: Q-format only, exact, serial.**  Every operand is an integer
times a per-tensor power of two, so a product needs at most
``2 * (total_bits - 1)`` significant bits and a ``K^2 * C/g``-term sum
``ceil(log2(K^2 * C/g))`` more.  While that stays within float64's 53-bit
significand every addition is exact, whatever its order: the simulator and
the im2col golden agree bit for bit.  The runner checks that bound
(:func:`check_accumulator_bits`) before every conv stage and raises
:class:`~repro.errors.QuantizationError` rather than verify a layer it
cannot hold exact; a run passes iff every conv stage's max|err| is 0.
Layers run one after another in one process.

With the vectorized backend whole-network functional verification of
AlexNet/VGG is a seconds-scale step
(``repro verify --sim functional --network alexnet``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.analysis.winograd import winograd_eligible
from repro.cnn.generator import WorkloadGenerator
from repro.cnn.layer import ConvLayer, FullyConnectedLayer, PoolingLayer
from repro.cnn.network import Network
from repro.cnn.quantize import choose_format
from repro.cnn.reference import strided_windows
from repro.core.config import ChainConfig
from repro.errors import QuantizationError, WorkloadError
from repro.obs import trace as obs_trace
from repro.options import ALGORITHM_MODES
from repro.sim.functional import FunctionalChainSimulator, FunctionalRunStats

# repro.sim.winograd is imported inside the Winograd code paths, so a
# direct-only run never loads the transform-domain kernels.

#: float64 significand bits: every integer of magnitude <= 2**53 is exact
FLOAT64_EXACT_BITS = 53

#: Q-format width of the operands functional verification runs on (the
#: chain's 16-bit MACs)
DATAPATH_BITS = 16


def accumulator_bits(layer: ConvLayer, total_bits: int,
                     algorithm: str = "direct") -> int:
    """Significant bits the largest partial sum of ``layer`` can need.

    Operands are ``total_bits``-bit Q-format values (magnitude at most
    ``2**(total_bits - 1)`` LSBs), so a product needs ``2 * (total_bits -
    1)`` bits and a direct ``K^2 * C/g``-term sum ``ceil(log2(K^2 * C/g))``
    more.  Winograd sums only ``C/g`` transform-domain products but its
    transforms grow the operands by
    :data:`repro.sim.winograd.WINOGRAD_GROWTH_BITS`.  The result is exact in
    float64 while this stays <= :data:`FLOAT64_EXACT_BITS`.
    """
    product_bits = 2 * (total_bits - 1)
    # (n - 1).bit_length() == ceil(log2(n)) for n >= 1
    if algorithm == "winograd":
        from repro.sim.winograd import WINOGRAD_GROWTH_BITS

        return (product_bits + WINOGRAD_GROWTH_BITS
                + (layer.in_channels_per_group - 1).bit_length())
    return product_bits + (layer.macs_per_output - 1).bit_length()


def check_accumulator_bits(layer: ConvLayer, total_bits: int,
                           algorithm: str = "direct") -> None:
    """Raise :class:`QuantizationError` unless ``layer`` accumulates exactly."""
    bits = accumulator_bits(layer, total_bits, algorithm)
    if bits > FLOAT64_EXACT_BITS:
        raise QuantizationError(
            f"{layer.name}: {total_bits}-bit {algorithm} accumulation needs "
            f"{bits} bits, float64 holds {FLOAT64_EXACT_BITS} exactly")


def pool2d(activations: np.ndarray, layer: PoolingLayer) -> np.ndarray:
    """Apply one pooling layer to a ``(C, H, W)`` activation tensor."""
    expected = (layer.channels, layer.in_height, layer.in_width)
    if activations.shape != expected:
        raise WorkloadError(
            f"{layer.name}: activations shape {activations.shape} does not "
            f"match {expected}"
        )
    windows = strided_windows(activations, layer.kernel_size, layer.stride,
                              layer.out_height, layer.out_width)
    if layer.mode == "max":
        return windows.max(axis=(3, 4))
    return windows.mean(axis=(3, 4))


@dataclass(frozen=True)
class StageReport:
    """Outcome of one network stage (conv, pooling, or terminating FC)."""

    name: str
    kind: str
    out_shape: tuple
    seconds: float
    #: golden-reference deviation (conv stages only, else 0.0)
    max_abs_error: float = 0.0
    windows_kept: int = 0
    chain_cycles: float = 0.0
    #: execution algorithm of a conv stage
    algorithm: str = "direct"

    def describe(self) -> str:
        """One verification line, mirroring the cycle CLI output."""
        shape = "x".join(str(dim) for dim in self.out_shape)
        if self.kind != "conv":
            return f"{self.name:<10} {self.kind:<5} -> {shape}"
        suffix = " wino" if self.algorithm == "winograd" else ""
        return (f"{self.name:<10} conv  -> {shape:<12} "
                f"max|err|={self.max_abs_error:.2e} "
                f"windows={self.windows_kept:<10} "
                f"cycles={self.chain_cycles:<12.0f}{suffix}")


@dataclass
class NetworkRunResult:
    """Whole-network functional verification outcome."""

    network: str
    backend: str
    seed: int
    total_bits: int
    stages: List[StageReport] = field(default_factory=list)
    stats: FunctionalRunStats = field(default_factory=FunctionalRunStats)
    chain_cycles_estimate: float = 0.0
    seconds: float = 0.0

    @property
    def conv_stages(self) -> List[StageReport]:
        """The verified convolutional stages."""
        return [stage for stage in self.stages if stage.kind == "conv"]

    @property
    def max_abs_error(self) -> float:
        """Worst golden-reference deviation over all conv stages."""
        return max((stage.max_abs_error for stage in self.conv_stages), default=0.0)

    @property
    def passed(self) -> bool:
        """True when every conv stage is bit-equal to the golden."""
        return all(stage.max_abs_error == 0.0 for stage in self.conv_stages)

    def describe(self) -> str:
        """Multi-line human-readable verification report."""
        lines = [stage.describe() for stage in self.stages]
        verdict = "PASSED" if self.passed else "FAILED"
        lines.append(
            f"functional verification {verdict}: {len(self.conv_stages)} conv "
            f"layers, max|err|={self.max_abs_error:.2e} "
            f"(exact on {self.total_bits}-bit Q-format), "
            f"{self.stats.windows_kept} windows kept, "
            f"{self.seconds:.2f}s [{self.backend}]"
        )
        return "\n".join(lines)


class FunctionalNetworkRunner:
    """Chains the functional simulator across every stage of a network."""

    def __init__(self, config: Optional[ChainConfig] = None,
                 backend: str = "vectorized", seed: int = 2017,
                 total_bits: int = DATAPATH_BITS,
                 algorithm: str = "direct") -> None:
        if algorithm not in ALGORITHM_MODES:
            raise WorkloadError(
                f"unknown algorithm {algorithm!r}; available: "
                f"{', '.join(ALGORITHM_MODES)}"
            )
        self.simulator = FunctionalChainSimulator(config, backend=backend)
        self.backend = backend
        self.seed = seed
        self.total_bits = total_bits
        #: execution-algorithm mode: ``winograd``/``auto`` run the
        #: F(2x2,3x3) transform domain on every eligible (3x3 stride-1)
        #: conv layer; ineligible layers always run direct
        self.algorithm = algorithm

    def _quantize(self, activations: np.ndarray) -> np.ndarray:
        """Snap activations onto the fixed-point grid the datapath carries."""
        return choose_format(activations, self.total_bits).quantize(activations)

    def _algorithm_for(self, layer: ConvLayer) -> str:
        """The execution algorithm this run uses for ``layer``."""
        if self.algorithm != "direct" and winograd_eligible(layer):
            return "winograd"
        return "direct"

    def run(self, network: Network,
            stripe_heights: Optional[Dict[str, int]] = None,
            algorithms: Optional[Dict[str, str]] = None,
            progress: Optional[Callable[[StageReport], None]] = None,
            ) -> NetworkRunResult:
        """Propagate quantised activations through ``network`` and verify.

        Every conv layer's simulated ofmaps are compared against the im2col
        golden reference on the same (quantised) inputs; deviations are
        recorded per stage rather than raised, so one report covers the whole
        network.  Layers after the first fully connected layer are not
        simulated (the chain only accelerates convolutions).

        ``stripe_heights`` optionally maps layer names to searched stripe
        heights (:meth:`repro.mapping.OptimizedSchedule.stripe_heights`), so
        whole-network verification exercises the exact stripe plans an
        optimised schedule would execute; unlisted layers use the paper's
        full ``K``-row stripes.  ``algorithms`` likewise maps layer names to
        execution algorithms (:meth:`~repro.mapping.OptimizedSchedule.
        algorithms`); unlisted layers follow the runner's algorithm mode.
        Every conv stage's accumulator bound is checked before it runs.

        ``progress`` is called with each :class:`StageReport` as it lands
        (the evaluation service streams these to clients as chunked
        progress events); it must not mutate the report.
        """
        result = NetworkRunResult(
            network=network.name,
            backend=self.backend,
            seed=self.seed,
            total_bits=self.total_bits,
        )
        generator = WorkloadGenerator(seed=self.seed)
        activations: Optional[np.ndarray] = None
        started = time.perf_counter()
        for layer in network.layers:
            stage_start = time.perf_counter()
            if isinstance(layer, FullyConnectedLayer):
                break
            if isinstance(layer, PoolingLayer):
                if activations is None:
                    raise WorkloadError(
                        f"{network.name}: pooling layer {layer.name} before any "
                        "convolution"
                    )
                activations = pool2d(activations, layer)
                if layer.mode == "avg":
                    # a window mean leaves the fixed-point grid
                    activations = self._quantize(activations)
                result.stages.append(StageReport(
                    name=layer.name,
                    kind="pool",
                    out_shape=activations.shape,
                    seconds=time.perf_counter() - stage_start,
                ))
                if progress is not None:
                    progress(result.stages[-1])
                continue
            if activations is None:
                activations = self._quantize(generator.ifmaps(layer))
            if activations.shape != layer.in_shape:
                raise WorkloadError(
                    f"{network.name}: {layer.name} expects ifmaps {layer.in_shape} "
                    f"but the previous stage produced {activations.shape}"
                )
            weights = self._quantize(generator.weights(layer))
            algorithm = ((algorithms or {}).get(layer.name)
                         or self._algorithm_for(layer))
            check_accumulator_bits(layer, self.total_bits, algorithm)
            with obs_trace.span("verify.layer", layer=layer.name,
                                network=network.name, algorithm=algorithm):
                run = self.simulator.run_layer(
                    layer, activations, weights,
                    stripe_height=(stripe_heights or {}).get(layer.name),
                    algorithm=algorithm,
                )
            error = run.max_abs_error_vs_reference(activations, weights)
            result.stages.append(StageReport(
                name=layer.name,
                kind="conv",
                out_shape=run.ofmaps.shape,
                seconds=time.perf_counter() - stage_start,
                max_abs_error=error,
                windows_kept=run.stats.windows_kept,
                chain_cycles=run.chain_cycles_estimate,
                algorithm=algorithm,
            ))
            if progress is not None:
                progress(result.stages[-1])
            _accumulate(result.stats, run.stats)
            result.chain_cycles_estimate += run.chain_cycles_estimate
            # ReLU then re-quantise: the activation path every fixed-point
            # CNN stage applies between convolutions
            activations = self._quantize(np.maximum(run.ofmaps, 0.0))
        result.seconds = time.perf_counter() - started
        return result


def _accumulate(total: FunctionalRunStats, stage: FunctionalRunStats) -> None:
    """Add one layer's counters into the network totals."""
    total.windows_evaluated += stage.windows_evaluated
    total.windows_kept += stage.windows_kept
    total.stripes_processed += stage.stripes_processed
    total.pairs_processed += stage.pairs_processed
    total.pixels_streamed += stage.pixels_streamed
    total.primitive_cycles += stage.primitive_cycles
