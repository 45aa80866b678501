"""Scalar-vs-vectorized functional-simulator equivalence and network runner.

On Q-format operands (what the network runner feeds the simulator) the
per-stripe GEMM backend, the scalar per-window walk and the im2col golden
must be *bit-equal* — ofmaps compared with ``np.array_equal`` (no tolerance)
and every ``FunctionalRunStats`` counter equal — across strides, paddings,
groups, kernel sizes and stripe heights.  The stripe plan's MAC coverage is
proven on index sets and must catch a skipped or repeated stripe, and the
accumulator bit-width bound must be checked, not assumed.  CI treats skips
in this module as failures (the equivalence guarantee is what makes the
fast path trustworthy), so no test here may be conditionally skipped.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.winograd import winograd_eligible
from repro.cnn.generator import WorkloadGenerator
from repro.cnn.layer import ConvLayer, PoolingLayer
from repro.cnn.network import Network
from repro.cnn.quantize import quantize_layer_tensors
from repro.cnn.reference import (
    conv2d_direct,
    conv2d_im2col,
    pad_input,
    strided_windows,
)
from repro.cnn.zoo import NETWORKS, get_network, lenet5, tiny_test_network
from repro.core.config import ChainConfig
from repro.errors import (
    ConfigurationError,
    QuantizationError,
    SimulationError,
    WorkloadError,
)
from repro.sim import functional_vectorized
from repro.sim.functional import FUNCTIONAL_BACKENDS, FunctionalChainSimulator
from repro.sim.functional_vectorized import (
    pair_window_stats,
    stride_keep_mask,
    stripe_coverage,
    vectorized_layer_ofmaps,
)
from repro.sim.network import (
    FLOAT64_EXACT_BITS,
    FunctionalNetworkRunner,
    accumulator_bits,
    check_accumulator_bits,
    pool2d,
)


def _raw_tensors(layer, seed=0):
    """Unquantised float64 operands (round-off-only agreement)."""
    return WorkloadGenerator(seed=seed).layer_pair(layer)


def _tensors(layer, seed=0):
    """16-bit Q-format operands, on which every summation order is exact."""
    ifmaps, weights, _, _ = quantize_layer_tensors(*_raw_tensors(layer, seed))
    return ifmaps, weights


def _run_both(layer, seed=0):
    ifmaps, weights = _tensors(layer, seed=seed)
    scalar = FunctionalChainSimulator(backend="scalar").run_layer(layer, ifmaps, weights)
    fast = FunctionalChainSimulator(backend="vectorized").run_layer(layer, ifmaps, weights)
    return scalar, fast


class TestScalarVectorizedEquivalence:
    @given(
        kernel=st.sampled_from([1, 3, 5, 7, 11]),
        stride=st.sampled_from([1, 2, 4]),
        pad=st.sampled_from([0, 1, 2]),
        groups=st.sampled_from([1, 2]),
        channels=st.integers(1, 2),
        extra=st.integers(0, 4),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_randomized_bit_identity_and_stats(self, kernel, stride, pad, groups,
                                               channels, extra, seed):
        size = kernel + extra + 1
        layer = ConvLayer(
            "rand", groups * channels, groups * 2, size, size,
            kernel_size=kernel, stride=stride, padding=pad, groups=groups,
        )
        scalar, fast = _run_both(layer, seed=seed)
        # bit-identical, not merely allclose: same float64 values exactly
        assert np.array_equal(scalar.ofmaps, fast.ofmaps)
        ifmaps, weights = _tensors(layer, seed=seed)
        assert np.array_equal(fast.ofmaps, conv2d_im2col(layer, ifmaps, weights))
        # every counter equal, not just the ofmaps
        assert scalar.stats == fast.stats
        assert scalar.chain_cycles_estimate == fast.chain_cycles_estimate

    @pytest.mark.parametrize("stride", [1, 2, 4])
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_stride_kernel_grid(self, stride, kernel):
        layer = ConvLayer("grid", 2, 3, kernel + 7, kernel + 7,
                          kernel_size=kernel, stride=stride, padding=1)
        scalar, fast = _run_both(layer, seed=stride * 10 + kernel)
        assert np.array_equal(scalar.ofmaps, fast.ofmaps)
        assert scalar.stats == fast.stats

    def test_grouped_strided_padded_layer(self):
        layer = ConvLayer("gsp", 6, 4, 13, 13, kernel_size=3,
                          stride=2, padding=2, groups=2)
        scalar, fast = _run_both(layer, seed=7)
        assert np.array_equal(scalar.ofmaps, fast.ofmaps)
        assert scalar.stats == fast.stats

    def test_alexnet_conv1_like_geometry(self):
        layer = ConvLayer("mini_conv1", 2, 3, 47, 47, kernel_size=11, stride=4)
        scalar, fast = _run_both(layer, seed=3)
        assert np.array_equal(scalar.ofmaps, fast.ofmaps)
        assert scalar.stats == fast.stats

    def test_vectorized_matches_direct_reference(self):
        """Unquantised floats: the GEMM agrees with the golden to round-off."""
        layer = ConvLayer("ref", 3, 4, 12, 12, kernel_size=3, padding=1)
        ifmaps, weights = _raw_tensors(layer, seed=5)
        fast = FunctionalChainSimulator(backend="vectorized").run_layer(
            layer, ifmaps, weights)
        np.testing.assert_allclose(
            fast.ofmaps, conv2d_direct(layer, ifmaps, weights),
            rtol=1e-10, atol=1e-10,
        )

    @given(
        kernel=st.integers(1, 11),
        stride=st.integers(1, 4),
        pad=st.integers(0, 2),
        groups=st.sampled_from([1, 2, 3]),
        extra=st.integers(0, 5),
        height_seed=st.integers(0, 10),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_q_format_paths_bit_equal_and_covered(self, kernel, stride, pad,
                                                  groups, extra, height_seed,
                                                  seed):
        """Simulated ofmaps == scalar walk == im2col golden, for any height."""
        size = kernel + extra
        layer = ConvLayer("prop", groups, groups * 2, size, size + 1,
                          kernel_size=kernel, stride=stride, padding=pad,
                          groups=groups)
        stripe_height = 1 + height_seed % kernel
        coverage = stripe_coverage(layer, stripe_height)
        assert coverage.problems(layer) == []
        assert coverage.macs == layer.macs
        ifmaps, weights = _tensors(layer, seed=seed)
        golden = conv2d_im2col(layer, ifmaps, weights)
        scalar = FunctionalChainSimulator(backend="scalar").run_layer(
            layer, ifmaps, weights, stripe_height=stripe_height)
        fast = FunctionalChainSimulator(backend="vectorized").run_layer(
            layer, ifmaps, weights, stripe_height=stripe_height)
        assert np.array_equal(fast.ofmaps, golden)
        assert np.array_equal(scalar.ofmaps, golden)
        assert scalar.stats == fast.stats


class TestBackendSelection:
    def test_backends_tuple(self):
        assert FUNCTIONAL_BACKENDS == ("scalar", "vectorized")

    def test_default_backend_is_scalar(self):
        assert FunctionalChainSimulator().backend == "scalar"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="functional backend"):
            FunctionalChainSimulator(backend="cuda")

    def test_both_mode_cross_checks_and_returns(self):
        layer = ConvLayer("both", 2, 2, 9, 9, kernel_size=3, stride=2, padding=1)
        ifmaps, weights = _tensors(layer, seed=9)
        result = FunctionalChainSimulator(backend="both").run_layer(
            layer, ifmaps, weights)
        fast = FunctionalChainSimulator(backend="vectorized").run_layer(
            layer, ifmaps, weights)
        assert np.array_equal(result.ofmaps, fast.ofmaps)
        assert result.stats == fast.stats

    def test_zero_active_primitives_raises(self):
        layer = ConvLayer("zero", 1, 1, 5, 5, kernel_size=3)
        simulator = FunctionalChainSimulator(backend="vectorized")
        simulator.mapper = SimpleNamespace(map_layer=lambda _: SimpleNamespace(
            channel_pairs=layer.channel_pairs(), active_primitives=0))
        ifmaps, weights = _tensors(layer)
        with pytest.raises(SimulationError, match="active"):
            simulator.run_layer(layer, ifmaps, weights)


class TestClosedFormCounters:
    def test_stride_keep_mask_counts_output_volume(self):
        layer = ConvLayer("mask", 1, 1, 13, 13, kernel_size=3, stride=2, padding=1)
        mask = stride_keep_mask(layer)
        assert mask.shape == (layer.padded_height - layer.kernel_size + 1,
                              layer.padded_width - layer.kernel_size + 1)
        assert int(mask.sum()) == layer.out_height * layer.out_width

    def test_pair_stats_match_mask(self):
        layer = ConvLayer("pairs", 1, 1, 15, 15, kernel_size=5, stride=4, padding=2)
        per_pair = pair_window_stats(layer)
        assert per_pair.windows_kept == int(stride_keep_mask(layer).sum())
        assert per_pair.windows_evaluated >= per_pair.windows_kept

    def test_vectorized_ofmaps_helper_matches_reference(self):
        layer = ConvLayer("helper", 2, 4, 10, 10, kernel_size=3, padding=1, groups=2)
        ifmaps, weights = _tensors(layer, seed=11)
        ofmaps = vectorized_layer_ofmaps(
            layer, pad_input(ifmaps.astype(np.float64), layer.padding), weights)
        assert np.array_equal(ofmaps, conv2d_direct(layer, ifmaps, weights))


class TestMacCoverage:
    """The stripe plan is proven on index sets, and a broken one is caught."""

    LAYER = ConvLayer("cov", 2, 4, 17, 17, kernel_size=5, stride=2,
                      padding=2, groups=2)

    @pytest.mark.parametrize("network", sorted(NETWORKS))
    def test_zoo_layers_are_covered_at_every_stripe_height(self, network):
        for layer in get_network(network).conv_layers:
            for height in range(1, layer.kernel_size + 1):
                coverage = stripe_coverage(layer, height)
                assert coverage.problems(layer) == [], (layer.name, height)
                assert coverage.pairs == layer.channel_pairs()
                assert coverage.macs == layer.macs

    @pytest.mark.parametrize("defect", ["skip", "repeat"])
    def test_broken_stripe_plan_is_caught(self, monkeypatch, defect):
        layer = self.LAYER
        ifmaps, weights = _tensors(layer, seed=4)
        golden = conv2d_im2col(layer, ifmaps, weights)
        planned = functional_vectorized.stripe_bases

        def broken(padded_height, kernel_size, stripe_height):
            bases = planned(padded_height, kernel_size, stripe_height)
            if defect == "skip":
                return bases[:1] + bases[2:]
            return bases + bases[1:2]

        monkeypatch.setattr(functional_vectorized, "stripe_bases", broken)
        coverage = stripe_coverage(layer)
        if defect == "skip":
            assert coverage.gaps > 0 and coverage.duplicates == 0
        else:
            assert coverage.duplicates > 0 and coverage.gaps == 0
        # the index-set proof refuses to run the layer ...
        for backend in ("scalar", "vectorized"):
            with pytest.raises(SimulationError, match="MAC coverage"):
                FunctionalChainSimulator(backend=backend).run_layer(
                    layer, ifmaps, weights)
        # ... and the values would have shown it too: a skipped stripe's
        # rows stay 0, a repeated one's double
        ofmaps = vectorized_layer_ofmaps(
            layer, pad_input(ifmaps, layer.padding), weights)
        wrong = np.any(ofmaps != golden, axis=(0, 2))
        factor = 0.0 if defect == "skip" else 2.0
        assert wrong.any()
        assert np.array_equal(ofmaps[:, wrong], factor * golden[:, wrong])

    def test_pair_coverage_matches_mapping(self, monkeypatch):
        layer = self.LAYER
        ifmaps, weights = _tensors(layer, seed=4)
        simulator = FunctionalChainSimulator(backend="vectorized")
        real = simulator.mapper.map_layer(layer)
        simulator.mapper = SimpleNamespace(map_layer=lambda _: SimpleNamespace(
            channel_pairs=real.channel_pairs + 1,
            active_primitives=real.active_primitives))
        with pytest.raises(SimulationError, match="channel pairs"):
            simulator.run_layer(layer, ifmaps, weights)


class TestAccumulatorBound:
    """The float64-exactness bound is checked per conv stage."""

    CONV3 = ConvLayer("conv3", 256, 384, 13, 13, kernel_size=3, padding=1)

    def test_bound_formula(self):
        # 2 * 15 product bits + ceil(log2(3 * 3 * 256)) accumulation bits
        assert accumulator_bits(self.CONV3, 16) == 30 + 12
        assert accumulator_bits(self.CONV3, 24) == 46 + 12 > FLOAT64_EXACT_BITS

    def test_24_bits_on_conv3_raises_naming_the_layer(self):
        with pytest.raises(QuantizationError, match="conv3"):
            check_accumulator_bits(self.CONV3, 24)
        network = Network(name="conv3-only")
        network.add(self.CONV3)
        runner = FunctionalNetworkRunner(backend="vectorized", total_bits=24)
        with pytest.raises(QuantizationError, match="conv3") as raised:
            runner.run(network)
        assert "\n" not in str(raised.value)

    @pytest.mark.parametrize("network", sorted(NETWORKS))
    def test_16_bits_pass_on_every_zoo_layer(self, network):
        for layer in get_network(network).conv_layers:
            check_accumulator_bits(layer, 16)
            if winograd_eligible(layer):
                check_accumulator_bits(layer, 16, "winograd")

    @pytest.mark.parametrize("algorithm", ("direct", "winograd"))
    def test_24_bit_runs_cannot_skip_the_bound(self, algorithm):
        # a small layer, but 64 input channels already overflow float64 at
        # 24 bits: 46 product bits + 10 accumulation bits (direct) or
        # 46 + 10 growth + 6 (Winograd)
        network = Network(name="conv3-only")
        network.add(self.CONV3.scaled(in_channels=64, out_channels=4,
                                      in_height=6, in_width=6))
        runner = FunctionalNetworkRunner(backend="vectorized", total_bits=24,
                                         algorithm=algorithm)
        with pytest.raises(QuantizationError, match="conv3"):
            runner.run(network)


class TestNetworkRunner:
    def test_lenet5_verification_passes(self):
        result = FunctionalNetworkRunner(backend="vectorized", seed=1).run(lenet5())
        assert result.passed
        assert [stage.kind for stage in result.stages] == \
            ["conv", "pool", "conv", "pool"]
        assert result.max_abs_error == 0.0
        assert all(stage.max_abs_error == 0.0 for stage in result.conv_stages)
        assert result.stats.windows_kept > 0
        assert result.chain_cycles_estimate > 0
        assert "PASSED" in result.describe()

    def test_tiny_network_both_backend(self):
        result = FunctionalNetworkRunner(backend="both", seed=2).run(
            tiny_test_network())
        assert result.passed
        assert len(result.conv_stages) == 2

    def test_activations_are_quantized_between_stages(self):
        coarse = FunctionalNetworkRunner(backend="vectorized", seed=3,
                                         total_bits=8).run(tiny_test_network())
        fine = FunctionalNetworkRunner(backend="vectorized", seed=3,
                                       total_bits=16).run(tiny_test_network())
        # 8-bit grids change the downstream numbers; both still verify
        # exactly because the reference sees the same quantised inputs
        assert coarse.passed and fine.passed
        assert coarse.max_abs_error == fine.max_abs_error == 0.0
        assert coarse.stats == fine.stats
        assert "exact on 8-bit Q-format" in coarse.describe()
        assert "exact on 16-bit Q-format" in fine.describe()

    def test_shape_mismatch_raises(self):
        broken = Network(name="broken")
        broken.add(ConvLayer("c1", 1, 2, 8, 8, kernel_size=3))
        broken.add(ConvLayer("c2", 3, 2, 6, 6, kernel_size=3))  # wants 3 channels
        with pytest.raises(WorkloadError, match="c2"):
            FunctionalNetworkRunner(backend="vectorized").run(broken)

    def test_pooling_before_conv_raises(self):
        broken = Network(name="pool-first")
        broken.add(PoolingLayer("p0", channels=2, in_height=8, in_width=8,
                                kernel_size=2, stride=2))
        with pytest.raises(WorkloadError, match="pooling"):
            FunctionalNetworkRunner(backend="vectorized").run(broken)

    def test_pool2d_max_and_avg(self):
        act = np.arange(2 * 4 * 4, dtype=np.float64).reshape(2, 4, 4)
        spec = PoolingLayer("p", channels=2, in_height=4, in_width=4,
                            kernel_size=2, stride=2)
        pooled = pool2d(act, spec)
        assert pooled.shape == (2, 2, 2)
        assert pooled[0, 0, 0] == 5.0  # max of [[0,1],[4,5]]
        avg = pool2d(act, PoolingLayer("p", channels=2, in_height=4, in_width=4,
                                       kernel_size=2, stride=2, mode="avg"))
        assert avg[0, 0, 0] == pytest.approx(2.5)

    def test_avg_pooling_is_requantized_and_stays_exact(self):
        network = Network(name="avg")
        network.add(ConvLayer("c1", 2, 3, 9, 9, kernel_size=3, padding=1))
        network.add(PoolingLayer("p1", channels=3, in_height=9, in_width=9,
                                 kernel_size=3, stride=3, mode="avg"))
        network.add(ConvLayer("c2", 3, 2, 3, 3, kernel_size=3, padding=1))
        result = FunctionalNetworkRunner(backend="vectorized", seed=6).run(network)
        assert result.passed
        assert result.max_abs_error == 0.0

    def test_pool2d_shape_validation(self):
        spec = PoolingLayer("p", channels=3, in_height=4, in_width=4,
                            kernel_size=2, stride=2)
        with pytest.raises(WorkloadError):
            pool2d(np.zeros((2, 4, 4)), spec)


class TestConfigSensitivity:
    def test_chain_cycles_scale_with_chain_length(self):
        layer = ConvLayer("cfg", 2, 2, 10, 10, kernel_size=3, padding=1)
        ifmaps, weights = _tensors(layer, seed=4)
        wide = FunctionalChainSimulator(ChainConfig(num_pes=576),
                                        backend="vectorized")
        narrow = FunctionalChainSimulator(ChainConfig(num_pes=36),
                                          backend="vectorized")
        cycles_wide = wide.run_layer(layer, ifmaps, weights).chain_cycles_estimate
        cycles_narrow = narrow.run_layer(layer, ifmaps, weights).chain_cycles_estimate
        assert cycles_narrow > cycles_wide


class TestOfmapBlockSizing:
    def test_vgg_scale_layer_peak_memory_stays_bounded(self, monkeypatch):
        """Stripe-at-a-time lowering caps peak allocation.

        The whole-layer im2col matrix of a VGG-scale layer is never built:
        each stripe's slice is lowered, multiplied and released, and a
        stripe wider than the column budget is split into row blocks.  A
        small budget forces the row-block path here; the peak must stay
        close to the ofmap tensor itself, far below the whole-layer im2col
        matrix, and the result bit-equal to the golden.
        """
        import tracemalloc

        budget = 256 * 1024
        monkeypatch.setattr(functional_vectorized, "_COLS_BLOCK_BYTES", budget)
        layer = ConvLayer("vgg-scale", in_channels=64, out_channels=512,
                          in_height=56, in_width=56, kernel_size=3, padding=1)
        taps = layer.in_channels * layer.kernel_size ** 2
        stripe_bytes = taps * layer.kernel_size * layer.out_width * 8
        whole_im2col_bytes = taps * layer.out_height * layer.out_width * 8
        # the scenario must actually engage the row blocking to test anything
        assert stripe_bytes > budget

        ifmaps, weights = _tensors(layer, seed=3)
        padded = pad_input(ifmaps, layer.padding)
        tracemalloc.start()
        try:
            ofmaps = vectorized_layer_ofmaps(layer, padded, weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        bound = ofmaps.nbytes + 4 * budget + 1024 * 1024
        assert peak <= bound, (
            f"peak {peak / 1e6:.1f} MB above the row-blocked bound "
            f"{bound / 1e6:.1f} MB"
        )
        assert peak < ofmaps.nbytes + whole_im2col_bytes / 4
        assert np.array_equal(ofmaps, conv2d_im2col(layer, ifmaps, weights))


class TestExactOnQFormat:
    def test_gemm_matches_per_window_sums(self, rng):
        """The GEMM equals per-window sums in any order on Q-format data.

        Each (m, c, y, x) window sum is accumulated twice — forward and
        reversed over the K*K taps — and both must equal the GEMM result
        exactly: on Q-format operands float64 addition is exact.
        """
        layer = ConvLayer("k3s2p1", in_channels=2, out_channels=3,
                          in_height=11, in_width=11, kernel_size=3, stride=2,
                          padding=1)
        ifmaps, weights, _, _ = quantize_layer_tensors(
            rng.standard_normal(layer.in_shape),
            rng.standard_normal((layer.out_channels,
                                 layer.in_channels_per_group,
                                 layer.kernel_size, layer.kernel_size)))
        padded = pad_input(ifmaps, layer.padding)
        got = vectorized_layer_ofmaps(layer, padded, weights)
        kept = strided_windows(padded, layer.kernel_size, layer.stride,
                               layer.out_height, layer.out_width)
        forward = np.zeros(layer.out_shape)
        backward = np.zeros(layer.out_shape)
        for m in range(layer.out_channels):
            for c in range(layer.in_channels):
                for y in range(layer.out_height):
                    for x in range(layer.out_width):
                        product = (kept[c, y, x] * weights[m, c]).ravel()
                        for value in product:
                            forward[m, y, x] += value
                        for value in product[::-1]:
                            backward[m, y, x] += value
        assert np.array_equal(got, forward)
        assert np.array_equal(got, backward)
