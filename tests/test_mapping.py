"""Tests for the mapping-search subsystem (mapspace, strategies, optimizer).

The searched-vs-baseline equivalence tests in this module are part of the CI
equivalence gate (skips are failures): the searched schedule must never be
worse than the paper's Table II mapping, and every searched mapping must be
functionally equivalent — bit-identical ofmaps against the baseline stripe
plan, im2col golden reference matched to float round-off.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.batch import MAPPING_RESULT_COLUMNS, MappingBatchEvaluator
from repro.cnn.generator import WorkloadGenerator, stable_seed
from repro.cnn.layer import ConvLayer
from repro.cnn.quantize import quantize_layer_tensors
from repro.cnn.reference import conv2d_im2col
from repro.cnn.zoo import alexnet, tiny_test_network
from repro.core.config import ChainConfig
from repro.core.scheduler import BatchScheduler
from repro.engine import RunCache, create_engine
from repro.errors import ConfigurationError, MappingError
from repro.mapping import (
    OBJECTIVES,
    LayerMapSpace,
    MappingCandidate,
    MapSpace,
    OptimizedSchedule,
    ScheduleOptimizer,
    make_strategy,
)
from repro.mapping.mapspace import ALGORITHM_MODES, CandidateTable
from repro.mapping.strategies import _pack_keys
from repro.sim.functional import FunctionalChainSimulator


@pytest.fixture(scope="module")
def alexnet_net():
    return alexnet()


@pytest.fixture(scope="module")
def small_layer():
    return ConvLayer("small", in_channels=6, out_channels=10, in_height=14,
                     in_width=14, kernel_size=3, padding=1)


@pytest.fixture(scope="module")
def small_space(small_layer):
    # a small chain so the *full* space is brute-forceable
    return LayerMapSpace(small_layer, ChainConfig(num_pes=45,
                                                  kmemory_words_per_pe=8))


class TestLayerMapSpace:
    def test_baseline_is_the_table2_mapping(self, alexnet_net):
        space = LayerMapSpace(alexnet_net.conv_layer("conv3"))
        baseline = space.baseline()
        assert baseline.primitives == 64
        assert baseline.stripe_height == 3
        assert baseline.chunk == 256
        assert baseline.interleave == "batch"

    def test_baseline_is_enumerated(self, small_space):
        assert small_space.baseline() in small_space.enumerate().candidates()

    def test_every_enumerated_candidate_is_legal(self, small_space):
        for candidate in small_space.enumerate().candidates():
            small_space.validate(candidate)

    def test_pruned_size_matches_enumeration(self, small_space):
        assert small_space.pruned_size() == len(small_space.enumerate())
        assert small_space.pruned_size() < small_space.full_size()

    def test_illegal_candidates_raise_mapping_error(self, small_space):
        layer = small_space.layer
        too_many = small_space.max_primitives + 1
        with pytest.raises(MappingError):
            small_space.validate(MappingCandidate(too_many, layer.kernel_size, 1))
        with pytest.raises(MappingError):
            small_space.validate(MappingCandidate(1, layer.kernel_size + 1, 1))
        with pytest.raises(MappingError):
            small_space.validate(
                MappingCandidate(1, 1, small_space.kmemory_capacity + 1))
        with pytest.raises(MappingError):
            MappingCandidate(1, 1, 1, interleave="diagonal")

    def test_kernel_larger_than_chain_raises(self):
        layer = ConvLayer("big", 1, 1, 20, 20, kernel_size=7)
        with pytest.raises(MappingError):
            LayerMapSpace(layer, ChainConfig(num_pes=36))

    def test_pruning_keeps_the_full_space_optimum(self, small_space):
        """Exhaustive over the pruned space == brute force over the full space."""
        evaluator = MappingBatchEvaluator(small_space.layer, small_space.config,
                                          batch=4)
        full = [
            MappingCandidate(p, h, c, interleave)
            for p in range(1, small_space.max_primitives + 1)
            for h in range(1, small_space.layer.kernel_size + 1)
            for c in range(1, small_space.kmemory_capacity + 1)
            for interleave in ("batch", "image")
        ]
        pruned = small_space.enumerate()
        for column in ("first_image_latency_s", "time_per_batch_s",
                       "energy_per_batch_j", "edp_js"):
            full_best = evaluator.evaluate(
                *CandidateTable.from_candidates(full).columns)[column].min()
            pruned_best = evaluator.evaluate(*pruned.columns)[column].min()
            assert pruned_best == pytest.approx(full_best, rel=1e-12)

    def test_sample_and_neighbor_stay_legal(self, small_space):
        rng = np.random.default_rng(stable_seed(1, "sample"))
        for candidate in small_space.sample(rng, 64):
            small_space.validate(candidate)
            small_space.validate(small_space.neighbor(candidate, rng))

    def test_network_mapspace(self, alexnet_net):
        space = MapSpace(alexnet_net)
        assert len(space) == 5
        assert space.total_pruned_size() < space.total_full_size()
        assert len(space.baseline_candidates()) == 5
        assert "AlexNet" in space.describe()


def _reference_rows(space):
    """The pruned space straight from the plateau definitions, in plain Python.

    Minimal ``p`` per ``ceil(Q/p)`` plateau plus the Table II ``p``; per
    algorithm, the largest chunk ``<= min(capacity, passes)`` per refill
    count; every stripe height (Winograd: the pinned ``K``); the image row
    only when refills > 1.  Rows follow the documented table order.
    """
    kernel = space.layer.kernel_size
    first_p = {}
    for p in range(1, space.max_primitives + 1):
        first_p.setdefault(-(-space.channel_pairs // p), p)
    rows = []
    for p in sorted(set(first_p.values()) | {space.max_primitives}):
        passes = -(-space.channel_pairs // p)
        for algorithm in space.algorithms:
            winograd = algorithm == "winograd"
            capacity = (space.winograd_capacity if winograd
                        else space.kmemory_capacity)
            largest = {}
            for chunk in range(1, min(capacity, passes) + 1):
                largest[-(-passes // chunk)] = chunk
            for chunk in sorted(largest.values(), reverse=True):
                images = (False, True) if passes > chunk else (False,)
                heights = [kernel] if winograd else range(1, kernel + 1)
                for height in heights:
                    for image in images:
                        rows.append((p, height, chunk, image, winograd))
    return rows


class TestCandidateTable:
    @settings(max_examples=120, deadline=None)
    @given(kernel=st.one_of(st.just(3), st.integers(1, 11)),
           stride=st.sampled_from([1, 1, 2, 3]),
           groups=st.sampled_from([1, 1, 2]),
           in_per_group=st.integers(1, 48),
           out_per_group=st.integers(1, 48),
           pe_factor=st.integers(1, 24),
           pe_extra=st.integers(0, 8),
           capacity=st.integers(1, 64),
           mode=st.sampled_from(ALGORITHM_MODES))
    def test_table_matches_the_plateau_definition(
            self, kernel, stride, groups, in_per_group, out_per_group,
            pe_factor, pe_extra, capacity, mode):
        layer = ConvLayer("prop", in_channels=in_per_group * groups,
                          out_channels=out_per_group * groups,
                          in_height=kernel + 6, in_width=kernel + 6,
                          kernel_size=kernel, stride=stride, groups=groups)
        config = ChainConfig(num_pes=kernel * kernel * pe_factor + pe_extra,
                             kmemory_words_per_pe=capacity)
        space = LayerMapSpace(layer, config, algorithm=mode)
        table = space.enumerate()
        rows = list(zip(*(column.tolist() for column in table.columns)))
        assert rows == _reference_rows(space)
        assert len(table) == space.pruned_size()
        assert np.unique(_pack_keys(space, table)).size == len(table)
        for index in np.linspace(0, len(table) - 1, 12).astype(int):
            space.validate(table.candidate(int(index)))

    def test_rows_round_trip_through_candidates(self, small_space):
        table = small_space.enumerate()
        head = table.take(np.arange(5))
        rebuilt = CandidateTable.from_candidates(head.candidates())
        for ours, theirs in zip(head.columns, rebuilt.columns):
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)
        assert head.candidate(2) == table.candidate(2)
        assert len(CandidateTable.from_candidates([])) == 0


class TestMappingBatchEvaluator:
    def test_baseline_matches_mapper_accounting(self, alexnet_net):
        """The columnar baseline row reproduces the LayerMapper quantities."""
        from repro.core.mapper import LayerMapper

        config = ChainConfig()
        mapper = LayerMapper(config)
        for layer in alexnet_net.conv_layers:
            space = LayerMapSpace(layer, config)
            evaluator = MappingBatchEvaluator(layer, config, batch=16)
            columns = evaluator.evaluate(
                *CandidateTable.from_candidates([space.baseline()]).columns)
            mapping = mapper.map_layer(layer)
            assert columns["passes"][0] == mapping.passes
            assert columns["active_pes"][0] == mapping.active_pes
            assert columns["kmemory_refills"][0] == mapping.kmemory_refills
            assert columns["stripes"][0] == len(mapping.stripes_per_pair)

    def test_columnar_equals_per_candidate(self, small_space):
        """Evaluating a batch of candidates == evaluating them one by one."""
        evaluator = MappingBatchEvaluator(small_space.layer, small_space.config,
                                          batch=8)
        table = small_space.enumerate().take(slice(None, None, 7))
        together = evaluator.evaluate(*table.columns)
        for index in range(len(table)):
            alone = evaluator.evaluate(*table.take([index]).columns)
            for column in MAPPING_RESULT_COLUMNS:
                assert alone[column][0] == together[column][index]

    def test_image_major_reloads_and_batch_major_spills(self):
        """The interleave tradeoff: reloads vs partial-sum spills."""
        layer = ConvLayer("t", 8, 8, 12, 12, kernel_size=3, padding=1)
        config = ChainConfig(num_pes=18, kmemory_words_per_pe=4)  # refills > 1
        evaluator = MappingBatchEvaluator(layer, config, batch=4)
        space = LayerMapSpace(layer, config)
        base = space.baseline()
        batch_major, image_major = (
            MappingCandidate(base.primitives, base.stripe_height, base.chunk, kind)
            for kind in ("batch", "image"))
        columns = evaluator.evaluate(
            *CandidateTable.from_candidates([batch_major, image_major]).columns)
        assert columns["kmemory_refills"][0] > 1
        # batch-major: kernels once per batch, partials spill
        assert columns["kernel_load_cycles"][0] == layer.weight_count
        assert columns["spill_dram_words"][0] > 0
        # image-major: kernels per image, no spills, better first-image latency
        assert columns["kernel_load_cycles"][1] == layer.weight_count * 4
        assert columns["spill_dram_words"][1] == 0
        assert (columns["first_image_latency_s"][1]
                < columns["first_image_latency_s"][0])
        assert columns["time_per_batch_s"][1] > columns["time_per_batch_s"][0]

    def test_rejects_bad_configuration(self, small_layer):
        with pytest.raises(ConfigurationError):
            MappingBatchEvaluator(small_layer, batch=0)
        with pytest.raises(ConfigurationError):
            MappingBatchEvaluator(ConvLayer("k7", 1, 1, 20, 20, kernel_size=7),
                                  ChainConfig(num_pes=36))


class TestStrategies:
    def _scorer(self, space, objective="time_per_batch_s", batch=4):
        evaluator = MappingBatchEvaluator(space.layer, space.config, batch=batch)

        def scorer(table):
            return evaluator.evaluate(*table.columns)[objective]

        return scorer

    def test_exhaustive_finds_the_pruned_optimum(self, small_space):
        scorer = self._scorer(small_space)
        result = make_strategy("exhaustive").search(small_space, scorer)
        everything = scorer(small_space.enumerate())
        assert result.best_score == pytest.approx(float(everything.min()))

    @pytest.mark.parametrize("name", ["random", "anneal"])
    def test_stochastic_strategies_are_seed_deterministic(self, small_space, name):
        scorer = self._scorer(small_space)
        first = make_strategy(name, seed=7).search(small_space, scorer)
        second = make_strategy(name, seed=7).search(small_space, scorer)
        assert first.candidates == second.candidates
        assert first.scores == second.scores

    @pytest.mark.parametrize("name", ["random", "greedy", "anneal"])
    def test_strategies_never_lose_to_baseline(self, small_space, name):
        scorer = self._scorer(small_space, objective="first_image_latency_s")
        baseline_score = float(scorer(
            CandidateTable.from_candidates([small_space.baseline()]))[0])
        result = make_strategy(name).search(small_space, scorer)
        assert result.best_score <= baseline_score * (1 + 1e-12)

    def test_make_strategy_rejects_unknown_names_and_knobs(self):
        with pytest.raises(ConfigurationError):
            make_strategy("tabu")
        with pytest.raises(ConfigurationError):
            make_strategy("exhaustive", seed=1)


class TestScheduleOptimizer:
    @pytest.mark.parametrize("objective", sorted(OBJECTIVES))
    def test_searched_never_worse_than_table2_on_alexnet(self, alexnet_net,
                                                         objective):
        """The equivalence-gate claim, per objective (CI fails on skips)."""
        optimizer = ScheduleOptimizer(objective=objective, strategy="exhaustive",
                                      batch=16)
        schedule = optimizer.optimize(alexnet_net)
        assert (schedule.objective_value()
                <= schedule.baseline_objective_value() * (1 + 1e-12))

    def test_latency_strictly_better_on_alexnet(self, alexnet_net):
        """Image-major interleave beats batch-blocked loading on refill-heavy
        layers — the strictly-better half of the acceptance criterion."""
        optimizer = ScheduleOptimizer(objective="latency", strategy="exhaustive",
                                      batch=16)
        schedule = optimizer.optimize(alexnet_net)
        assert schedule.objective_value() < schedule.baseline_objective_value()
        assert schedule.improvement_fraction() > 0.25

    def test_schedule_round_trips_through_json(self, alexnet_net):
        optimizer = ScheduleOptimizer(objective="energy", strategy="exhaustive",
                                      batch=8)
        schedule = optimizer.optimize(alexnet_net)
        clone = OptimizedSchedule.from_json_dict(schedule.to_json_dict())
        assert clone.to_json_dict() == schedule.to_json_dict()
        assert clone.objective_value() == schedule.objective_value()

    def test_search_is_memoised_in_run_cache(self, alexnet_net, tmp_path):
        cache = RunCache(tmp_path)
        optimizer = ScheduleOptimizer(objective="latency", strategy="exhaustive",
                                      batch=16, cache=cache)
        first = optimizer.optimize(alexnet_net)
        assert not first.cached
        second = optimizer.optimize(alexnet_net)
        assert second.cached
        assert second.to_json_dict() == first.to_json_dict()
        # a different search configuration misses (fingerprint in the key)
        other = ScheduleOptimizer(objective="energy", strategy="exhaustive",
                                  batch=16, cache=cache)
        assert other.cache_key(alexnet_net) != optimizer.cache_key(alexnet_net)

    def test_verify_searched_mappings_on_tiny_network(self):
        network = tiny_test_network()
        optimizer = ScheduleOptimizer(objective="latency", strategy="exhaustive",
                                      batch=4, config=ChainConfig(num_pes=36))
        schedule = optimizer.optimize(network)
        verification = optimizer.verify(network, schedule)
        assert verification.passed
        assert verification.max_abs_error <= 1e-9

    def test_batch_scheduler_consumes_optimized_schedules(self, alexnet_net):
        optimizer = ScheduleOptimizer(objective="throughput",
                                      strategy="exhaustive", batch=16)
        schedule = optimizer.optimize(alexnet_net)
        timeline = BatchScheduler().schedule_optimized(alexnet_net, schedule)
        assert timeline.batch == 16
        assert timeline.total_time_s == pytest.approx(
            schedule.total_time_per_batch_s())
        assert timeline.frames_per_second == pytest.approx(
            schedule.frames_per_second())

    def test_batch_scheduler_rejects_foreign_schedules(self, alexnet_net):
        optimizer = ScheduleOptimizer(objective="throughput",
                                      strategy="exhaustive", batch=4,
                                      config=ChainConfig(num_pes=36))
        schedule = optimizer.optimize(tiny_test_network())
        with pytest.raises(ConfigurationError):
            BatchScheduler().schedule_optimized(alexnet_net, schedule)

    def test_rejects_unknown_objective(self):
        with pytest.raises(ConfigurationError):
            ScheduleOptimizer(objective="area")


class TestFunctionalEquivalence:
    """Searched stripe plans are bit-identical to the baseline dataflow."""

    @pytest.mark.parametrize("kernel_size,stride,padding,groups", [
        (3, 1, 1, 1),
        (3, 2, 0, 1),
        (5, 1, 2, 2),
        (7, 4, 3, 1),
    ])
    def test_all_stripe_heights_bit_identical(self, kernel_size, stride,
                                              padding, groups):
        layer = ConvLayer("t", 4, 4, 21, 21, kernel_size=kernel_size,
                          stride=stride, padding=padding, groups=groups)
        generator = WorkloadGenerator(seed=stable_seed(2017, layer.name))
        # Q-format operands: every stripe plan's sums are exact
        ifmaps, weights, _, _ = quantize_layer_tensors(
            *generator.layer_pair(layer))
        reference = conv2d_im2col(layer, ifmaps, weights)
        simulator = FunctionalChainSimulator(backend="both")
        baseline = simulator.run_layer(layer, ifmaps, weights)
        for height in range(1, kernel_size + 1):
            run = simulator.run_layer(layer, ifmaps, weights, stripe_height=height)
            assert np.array_equal(run.ofmaps, baseline.ofmaps)
            assert run.stats.windows_kept == baseline.stats.windows_kept
            assert np.array_equal(run.ofmaps, reference)

    def test_network_runner_accepts_stripe_heights(self):
        from repro.sim.network import FunctionalNetworkRunner

        network = tiny_test_network()
        runner = FunctionalNetworkRunner(ChainConfig(num_pes=36), backend="both")
        heights = {layer.name: 2 for layer in network.conv_layers}
        result = runner.run(network, stripe_heights=heights)
        assert result.passed
        default = runner.run(network)
        assert result.max_abs_error == default.max_abs_error

    def test_rejects_illegal_stripe_height(self, small_layer):
        generator = WorkloadGenerator(seed=1)
        ifmaps, weights = generator.layer_pair(small_layer)
        simulator = FunctionalChainSimulator(backend="vectorized")
        with pytest.raises(ConfigurationError):
            simulator.run_layer(small_layer, ifmaps, weights, stripe_height=0)
        with pytest.raises(ConfigurationError):
            simulator.run_layer(small_layer, ifmaps, weights,
                                stripe_height=small_layer.kernel_size + 1)


class TestMappedEngine:
    def test_registered_and_reports_improvement(self, alexnet_net):
        engine = create_engine("analytical-mapped", objective="latency",
                               strategy="exhaustive")
        record = engine.evaluate(alexnet_net, batch=16)
        assert record.engine == "analytical-mapped"
        assert record.batch == 16
        assert record.metric("improvement_fraction") > 0.0
        assert record.metric("objective_value") <= record.metric(
            "baseline_objective_value")
        assert record.extra["schedule"]["layers"]

    def test_requested_batch_is_honored(self, alexnet_net):
        # batch=1 must evaluate batch 1, not be rewritten to a default
        engine = create_engine("analytical-mapped", strategy="exhaustive")
        record = engine.evaluate(alexnet_net, batch=1)
        assert record.batch == 1
        assert record.extra["schedule"]["batch"] == 1

    def test_fingerprint_carries_the_search_configuration(self):
        engine = create_engine("analytical-mapped", objective="energy",
                               strategy="anneal", seed=11, iterations=16)
        fingerprint = engine.fingerprint()
        assert fingerprint["objective"] == "energy"
        assert fingerprint["strategy"]["name"] == "anneal"
        assert fingerprint["strategy"]["seed"] == 11
        other = create_engine("analytical-mapped", objective="energy",
                              strategy="anneal", seed=12, iterations=16)
        assert other.fingerprint() != fingerprint


class TestStableSeed:
    def test_stable_seed_is_deterministic_and_sensitive(self):
        assert stable_seed(2017, "anneal", "conv3") == stable_seed(
            2017, "anneal", "conv3")
        assert stable_seed(2017, "anneal", "conv3") != stable_seed(
            2017, "anneal", "conv4")
        assert stable_seed(1) != stable_seed(2)

    def test_generator_spawn_is_order_independent(self, small_layer):
        parent = WorkloadGenerator(seed=2017)
        parent.ifmaps(small_layer)  # perturb the parent stream
        child_after = parent.spawn("conv1").weights(small_layer)
        child_fresh = WorkloadGenerator(seed=2017).spawn("conv1").weights(small_layer)
        assert np.array_equal(child_after, child_fresh)
