"""Tests for the functional (dataflow-level) chain simulator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cnn.generator import WorkloadGenerator
from repro.cnn.layer import ConvLayer
from repro.cnn.quantize import quantize_layer_tensors
from repro.cnn.reference import conv2d_direct
from repro.core.config import ChainConfig
from repro.errors import WorkloadError
from repro.sim.functional import FunctionalChainSimulator


@pytest.fixture(scope="module", params=["scalar", "vectorized"])
def simulator(request):
    """Both backends share one result contract; every test runs on each."""
    return FunctionalChainSimulator(ChainConfig(), backend=request.param)


def _tensors(layer, seed=0):
    gen = WorkloadGenerator(seed=seed)
    return gen.layer_pair(layer)


def _q_tensors(layer, seed=0):
    """Q-format operands: what run_and_check's exactness contract needs."""
    ifmaps, weights, _, _ = quantize_layer_tensors(*_tensors(layer, seed))
    return ifmaps, weights


class TestFunctionalCorrectness:
    def test_stride1_layer_matches_reference(self, simulator):
        layer = ConvLayer("f1", 3, 4, 10, 10, kernel_size=3, padding=1)
        ifmaps, weights = _tensors(layer)
        result = simulator.run_layer(layer, ifmaps, weights)
        np.testing.assert_allclose(result.ofmaps, conv2d_direct(layer, ifmaps, weights),
                                   rtol=1e-10, atol=1e-10)

    def test_strided_layer_matches_reference(self, simulator):
        layer = ConvLayer("f2", 2, 3, 15, 15, kernel_size=3, stride=2)
        ifmaps, weights = _q_tensors(layer, seed=1)
        assert simulator.run_and_check(layer, ifmaps, weights)["max_abs_error"] == 0.0

    def test_grouped_layer_matches_reference(self, simulator):
        layer = ConvLayer("f3", 4, 6, 9, 9, kernel_size=3, padding=1, groups=2)
        ifmaps, weights = _q_tensors(layer, seed=2)
        assert simulator.run_and_check(layer, ifmaps, weights)["max_abs_error"] == 0.0

    def test_k5_layer_matches_reference(self, simulator):
        layer = ConvLayer("f4", 2, 2, 14, 14, kernel_size=5, padding=2)
        ifmaps, weights = _q_tensors(layer, seed=3)
        assert simulator.run_and_check(layer, ifmaps, weights)["max_abs_error"] == 0.0

    def test_alexnet_conv1_like_geometry(self, simulator):
        # a shrunken conv1: stride 4, kernel 11 on a 47x47 image
        layer = ConvLayer("mini_conv1", 1, 2, 47, 47, kernel_size=11, stride=4)
        ifmaps, weights = _q_tensors(layer, seed=4)
        assert simulator.run_and_check(layer, ifmaps, weights)["max_abs_error"] == 0.0

    def test_golden_check_agrees_with_both_references(self, simulator):
        """The im2col-based golden check never diverges from the direct one.

        ``max_abs_error_vs_reference`` compares against the im2col/GEMM
        reference (fast on large layers); this pins the simulator output to
        the direct reference too, so the two golden paths stay interchangeable.
        """
        layer = ConvLayer("fx", 4, 6, 13, 13, kernel_size=3, stride=2,
                          padding=1, groups=2)
        ifmaps, weights = _tensors(layer, seed=5)
        result = simulator.run_layer(layer, ifmaps, weights)
        assert result.max_abs_error_vs_reference(ifmaps, weights) < 1e-9
        direct = conv2d_direct(layer, ifmaps, weights)
        assert float(np.max(np.abs(direct - result.ofmaps))) < 1e-9

    def test_shape_validation(self, simulator):
        layer = ConvLayer("f5", 2, 2, 8, 8, kernel_size=3)
        ifmaps, weights = _tensors(layer)
        with pytest.raises(WorkloadError):
            simulator.run_layer(layer, ifmaps[:1], weights)
        with pytest.raises(WorkloadError):
            simulator.run_layer(layer, ifmaps, weights[:, :, :2, :])


class TestFunctionalStatistics:
    def test_pair_count_matches_mapping(self, simulator):
        layer = ConvLayer("f6", 4, 6, 9, 9, kernel_size=3, padding=1, groups=2)
        ifmaps, weights = _tensors(layer)
        result = simulator.run_layer(layer, ifmaps, weights)
        assert result.stats.pairs_processed == layer.channel_pairs()

    def test_stride_discard_fraction(self, simulator):
        dense = ConvLayer("d", 1, 1, 13, 13, kernel_size=3)
        strided = ConvLayer("s", 1, 1, 13, 13, kernel_size=3, stride=2)
        dense_result = simulator.run_layer(dense, *_tensors(dense))
        strided_result = simulator.run_layer(strided, *_tensors(strided))
        assert dense_result.stats.stride_discard_fraction == pytest.approx(0.0)
        assert strided_result.stats.stride_discard_fraction > 0.5

    def test_windows_kept_equals_output_volume_times_channels(self, simulator):
        layer = ConvLayer("f7", 3, 2, 10, 10, kernel_size=3, padding=1)
        result = simulator.run_layer(layer, *_tensors(layer))
        expected = layer.out_height * layer.out_width * layer.out_channels \
            * layer.in_channels_per_group
        assert result.stats.windows_kept == expected

    def test_chain_cycle_estimate_positive_and_reasonable(self, simulator):
        layer = ConvLayer("f8", 3, 2, 10, 10, kernel_size=3, padding=1)
        result = simulator.run_layer(layer, *_tensors(layer))
        # at least the MAC-bound lower bound
        assert result.chain_cycles_estimate * 576 >= layer.macs

    def test_pixels_streamed_counts_stripe_overlap(self, simulator):
        layer = ConvLayer("f9", 1, 1, 12, 12, kernel_size=3)
        result = simulator.run_layer(layer, *_tensors(layer))
        # stripes overlap by K-1 rows, so more pixels are streamed than exist
        assert result.stats.pixels_streamed > layer.input_pixels


class TestFunctionalProperties:
    @given(
        kernel=st.sampled_from([2, 3, 5]),
        pad=st.integers(0, 2),
        extra=st.integers(0, 4),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_geometry_matches_reference(self, kernel, pad, extra, seed):
        size = kernel + extra + 2
        layer = ConvLayer("prop", 2, 2, size, size, kernel_size=kernel, padding=pad)
        simulator = FunctionalChainSimulator(ChainConfig())
        ifmaps, weights = _tensors(layer, seed=seed)
        reference = conv2d_direct(layer, ifmaps, weights)
        result = simulator.run_layer(layer, ifmaps, weights)
        np.testing.assert_allclose(result.ofmaps, reference, rtol=1e-9, atol=1e-9)
