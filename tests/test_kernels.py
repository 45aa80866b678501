"""Kernel-backend tests: registry selection, fallback, the bit-identity
contract between the NumPy reference kernels and the compiled (numba)
kernels, and the exactness of the shared GEMM ofmap kernel on Q-format data.

The identity tests parametrize over :func:`repro.kernels.available_backends`
— on a machine without numba they run the numpy leg only (never skip, so
they stay inside the CI fail-if-skipped equivalence gate); on the CI numba
leg they additionally hold numpy-vs-numba bit-identity over randomized
layers and mapping spaces.
"""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest

from repro.analysis.batch import MAPPING_RESULT_COLUMNS, MappingBatchEvaluator
from repro.cnn.layer import ConvLayer
from repro.cnn.reference import pad_input, strided_windows
from repro.core.config import ChainConfig
from repro.errors import ConfigurationError
from repro.kernels import (
    KERNEL_BACKEND_ENV,
    KNOWN_BACKENDS,
    available_backends,
    backend_fingerprint,
    get_backend,
    numba_version,
    resolve_backend_name,
    set_default_backend,
    warmup,
)
from repro.cnn.quantize import quantize_layer_tensors
from repro.kernels import registry
from repro.mapping.mapspace import LayerMapSpace
from repro.sim.functional import FunctionalChainSimulator
from repro.sim.functional_vectorized import vectorized_layer_ofmaps


@pytest.fixture(autouse=True)
def isolated_registry(monkeypatch):
    """Snapshot/restore the registry's process-wide state around every test.

    Tests below force the ImportError probe, install overrides and trigger
    the once-per-process fallback warning; none of that may leak into other
    tests (or depend on their order).
    """
    monkeypatch.setattr(registry, "_default_override", None)
    monkeypatch.setattr(registry, "_warned_fallback", False)
    monkeypatch.setattr(registry, "_numba_probe", registry._numba_probe)
    monkeypatch.setattr(registry, "_backends", dict(registry._backends))
    monkeypatch.delenv(KERNEL_BACKEND_ENV, raising=False)


#: randomized layer geometries spanning the mapspace axes the ofmap kernel
#: must preserve: K 1..13, stride 1/2/4, padding 0..2, grouped channels
OFMAP_LAYERS = (
    ConvLayer("k1", in_channels=3, out_channels=4, in_height=8, in_width=8,
              kernel_size=1),
    ConvLayer("k3s2p1", in_channels=2, out_channels=3, in_height=11,
              in_width=11, kernel_size=3, stride=2, padding=1),
    ConvLayer("k5p2", in_channels=2, out_channels=2, in_height=12, in_width=12,
              kernel_size=5, padding=2),
    ConvLayer("k7s4", in_channels=1, out_channels=2, in_height=19, in_width=19,
              kernel_size=7, stride=4),
    ConvLayer("k11p2", in_channels=1, out_channels=2, in_height=16,
              in_width=16, kernel_size=11, padding=2),
    ConvLayer("k13p1", in_channels=1, out_channels=1, in_height=15,
              in_width=15, kernel_size=13, padding=1),
    ConvLayer("grouped", in_channels=4, out_channels=4, in_height=9,
              in_width=9, kernel_size=3, padding=1, groups=2),
)


def _layer_tensors(layer: ConvLayer, rng: np.random.Generator):
    ifmaps = rng.standard_normal(layer.in_shape)
    weights = rng.standard_normal(
        (layer.out_channels, layer.in_channels_per_group,
         layer.kernel_size, layer.kernel_size))
    return ifmaps, weights


class TestExactOnQFormat:
    def test_numpy_backend_matches_per_window_sums(self, rng):
        """The GEMM kernel equals per-window sums in any order on Q-format data.

        Each (m, c, y, x) window sum is accumulated twice — forward and
        reversed over the K*K taps — and both must equal the GEMM result
        exactly: on Q-format operands float64 addition is exact.
        """
        layer = OFMAP_LAYERS[1]
        ifmaps, weights, _, _ = quantize_layer_tensors(
            *_layer_tensors(layer, rng))
        padded = pad_input(ifmaps, layer.padding)
        got = vectorized_layer_ofmaps(layer, padded, weights,
                                      kernel_backend="numpy")
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


class TestOfmapBitIdentity:
    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("layer", OFMAP_LAYERS, ids=lambda l: l.name)
    def test_backends_are_bit_identical(self, backend, layer, rng):
        ifmaps, weights = _layer_tensors(layer, rng)
        padded = pad_input(ifmaps, layer.padding)
        reference = vectorized_layer_ofmaps(layer, padded, weights,
                                            kernel_backend="numpy")
        got = vectorized_layer_ofmaps(layer, padded, weights,
                                      kernel_backend=backend)
        assert np.array_equal(reference, got)

    @pytest.mark.parametrize("backend", available_backends())
    def test_simulator_results_are_identical(self, backend, generator,
                                             strided_layer, grouped_layer):
        """Ofmaps *and* dataflow stats agree through the full simulator."""
        reference = FunctionalChainSimulator(backend="vectorized",
                                             kernel_backend="numpy")
        other = FunctionalChainSimulator(backend="vectorized",
                                         kernel_backend=backend)
        assert other.kernel_backend == backend
        for layer in (strided_layer, grouped_layer):
            ifmaps, weights = generator.layer_pair(layer)
            want = reference.run_layer(layer, ifmaps, weights)
            got = other.run_layer(layer, ifmaps, weights)
            assert np.array_equal(want.ofmaps, got.ofmaps)
            assert want.stats == got.stats
            assert want.chain_cycles_estimate == got.chain_cycles_estimate


class TestScorerBitIdentity:
    SCORER_LAYERS = (
        ConvLayer("conv", in_channels=8, out_channels=8, in_height=12,
                  in_width=12, kernel_size=3, padding=1),
        ConvLayer("stride", in_channels=4, out_channels=6, in_height=13,
                  in_width=13, kernel_size=5, stride=2, padding=2),
    )

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("layer", SCORER_LAYERS, ids=lambda l: l.name)
    def test_scores_and_argmins_are_identical(self, backend, layer):
        config = ChainConfig(num_pes=72, kmemory_words_per_pe=8)
        candidates = LayerMapSpace(layer, config).enumerate().columns
        reference = MappingBatchEvaluator(layer, config, batch=16,
                                          kernel_backend="numpy")
        other = MappingBatchEvaluator(layer, config, batch=16,
                                      kernel_backend=backend)
        assert other.kernel_backend == backend
        want = reference.evaluate(*candidates)
        got = other.evaluate(*candidates)
        for column in MAPPING_RESULT_COLUMNS:
            assert want[column].dtype == got[column].dtype, column
            assert np.array_equal(want[column], got[column]), column
        for column in ("time_per_batch_s", "first_image_latency_s",
                       "energy_per_batch_j", "edp_js"):
            assert int(np.argmin(want[column])) == int(np.argmin(got[column]))


class TestRegistry:
    def test_available_backends_always_include_numpy(self):
        assert "numpy" in available_backends()
        assert set(available_backends()) <= set(KNOWN_BACKENDS)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            get_backend("fortran")
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            set_default_backend("fortran")

    def test_warmup_returns_effective_backend(self):
        assert warmup() in available_backends()
        assert warmup("numpy") == "numpy"

    def test_numpy_fingerprint_has_no_version_churn(self):
        assert backend_fingerprint("numpy") == {"backend": "numpy"}

    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "numpy")
        assert resolve_backend_name() == "numpy"
        assert get_backend().fallback_from is None

    def test_override_outranks_env_and_argument_outranks_override(
            self, monkeypatch):
        monkeypatch.setattr(registry, "_numba_probe",
                            (False, None, "ImportError: no numba"))
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "numba")
        set_default_backend("numpy")
        # override (numpy) beats the env's numba request: no fallback marker
        assert get_backend().fallback_from is None
        # an explicit argument beats the override: numba requested -> degraded
        with pytest.warns(RuntimeWarning, match="unavailable"):
            assert get_backend("numba").fallback_from == "numba"

    def test_matches_ci_expectation(self):
        """The CI legs pin what autodetection must resolve to."""
        expected = os.environ.get("REPRO_EXPECT_KERNEL_BACKEND")
        if expected:
            assert resolve_backend_name() == expected
        assert resolve_backend_name() in available_backends()


class TestNumbaFallback:
    @pytest.fixture
    def no_numba(self, monkeypatch):
        monkeypatch.setattr(
            registry, "_numba_probe",
            (False, None, "ImportError: No module named 'numba'"))
        monkeypatch.setattr(registry, "_backends", {})

    def test_requested_numba_degrades_to_numpy(self, no_numba):
        assert available_backends() == ("numpy",)
        assert numba_version() is None
        with pytest.warns(RuntimeWarning, match="pip install -e .\\[numba\\]"):
            backend = get_backend("numba")
        assert backend.name == "numpy"
        assert backend.fallback_from == "numba"
        assert resolve_backend_name("numba") == "numpy"
        assert backend_fingerprint("numba") == {"backend": "numpy"}

    def test_fallback_warns_once_per_process(self, no_numba):
        with pytest.warns(RuntimeWarning):
            get_backend("numba")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert get_backend("numba").name == "numpy"

    def test_degraded_backend_still_computes(self, no_numba, rng):
        """End to end: a forced-ImportError environment stays fully usable."""
        with pytest.warns(RuntimeWarning):
            simulator = FunctionalChainSimulator(backend="vectorized",
                                                 kernel_backend="numba")
        assert simulator.kernel_backend == "numpy"
        layer = OFMAP_LAYERS[1]
        ifmaps, weights = _layer_tensors(layer, rng)
        result = simulator.run_layer(layer, ifmaps, weights)
        want = FunctionalChainSimulator(backend="vectorized").run_layer(
            layer, ifmaps, weights)
        assert np.array_equal(result.ofmaps, want.ofmaps)


class TestCLISelection:
    def test_kernel_backend_flag_installs_the_override(self, capsys):
        from repro.cli import main

        assert main(["--kernel-backend", "numpy", "engines"]) == 0
        assert registry._default_override == "numpy"
        capsys.readouterr()

    def test_engine_fingerprints_carry_the_backend(self):
        from repro.engine import create_engine

        functional = create_engine("functional-vectorized")
        assert functional.fingerprint()["kernels"]["backend"] == \
            resolve_backend_name()
        mapped = create_engine("analytical-mapped",
                               kernel_backend="numpy")
        assert mapped.fingerprint()["kernels"] == {"backend": "numpy"}
