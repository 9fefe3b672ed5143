"""Property-based tests for the fault samplers and injection semantics.

Pins the contracts the clustered-fault and soft-error physics rely on:

* both exact-count samplers (uniform and clustered) hit the requested
  marginal defect rate exactly and never touch protected columns;
* bit-flip injection is an involution and stuck-at injection is idempotent
  (writing back what was read and reading again), so repeated buffer reads
  through a persistent map are stable;
* the soft-error rate is voltage-insensitive in exactly the paper's sense
  (3x per 500 mV) while the parametric mechanism explodes, and per-read
  transient upsets are seed-deterministic and compose with persistent maps.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.array import MemoryArray
from repro.memory.cells import CELL_6T, SoftErrorModel
from repro.memory.faults import (
    FaultMap,
    FaultModel,
    FaultModelSpec,
    coerce_fault_model,
)

ARRAY_SHAPES = st.tuples(
    st.integers(min_value=2, max_value=120),  # num_words
    st.integers(min_value=2, max_value=14),  # bits_per_word
)
SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


def _random_words(num_words, bits, seed):
    return np.random.default_rng(seed).integers(0, 1 << bits, size=num_words)


def _read_back(fault_map, words):
    """Write *words* into an array over *fault_map* and read them back."""
    array = MemoryArray(fault_map.num_words, fault_map.bits_per_word, fault_map=fault_map)
    array.write_words(words)
    return array.read_words()


class TestExactCountSamplers:
    @given(shape=ARRAY_SHAPES, fill=st.floats(min_value=0.0, max_value=1.0), seed=SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_uniform_marginal_rate_is_exact(self, shape, fill, seed):
        num_words, bits = shape
        num_faults = int(fill * num_words * bits)
        fault_map = FaultMap.with_exact_fault_count(
            num_words, bits, num_faults, rng=np.random.default_rng(seed)
        )
        assert fault_map.num_faults == num_faults
        assert fault_map.defect_rate == pytest.approx(num_faults / (num_words * bits))

    @given(
        shape=ARRAY_SHAPES,
        fill=st.floats(min_value=0.0, max_value=1.0),
        radius=st.integers(min_value=1, max_value=6),
        seed=SEEDS,
    )
    @settings(max_examples=60, deadline=None)
    def test_clustered_marginal_rate_is_exact(self, shape, fill, radius, seed):
        num_words, bits = shape
        num_faults = int(fill * num_words * bits)
        fault_map = FaultMap.with_clustered_fault_count(
            num_words, bits, num_faults, radius, rng=np.random.default_rng(seed)
        )
        assert fault_map.num_faults == num_faults

    @given(
        shape=ARRAY_SHAPES,
        radius=st.integers(min_value=1, max_value=4),
        protected_msbs=st.integers(min_value=1, max_value=6),
        seed=SEEDS,
    )
    @settings(max_examples=60, deadline=None)
    def test_samplers_respect_protected_columns(self, shape, radius, protected_msbs, seed):
        num_words, bits = shape
        protected_msbs = min(protected_msbs, bits - 1)
        protected = np.zeros(bits, dtype=bool)
        protected[:protected_msbs] = True
        num_faults = num_words * (bits - protected_msbs) // 2
        for sampler in ("uniform", "clustered"):
            if sampler == "uniform":
                fault_map = FaultMap.with_exact_fault_count(
                    num_words,
                    bits,
                    num_faults,
                    rng=np.random.default_rng(seed),
                    protected_columns=protected,
                )
            else:
                fault_map = FaultMap.with_clustered_fault_count(
                    num_words,
                    bits,
                    num_faults,
                    radius,
                    rng=np.random.default_rng(seed),
                    protected_columns=protected,
                )
            assert fault_map.num_faults == num_faults, sampler
            assert fault_map.fault_mask[:, protected].sum() == 0, sampler

    @given(shape=ARRAY_SHAPES, radius=st.integers(min_value=1, max_value=4), seed=SEEDS)
    @settings(max_examples=30, deadline=None)
    def test_clustered_sampler_is_seed_deterministic(self, shape, radius, seed):
        num_words, bits = shape
        num_faults = num_words * bits // 3
        a = FaultMap.with_clustered_fault_count(
            num_words, bits, num_faults, radius, rng=np.random.default_rng(seed)
        )
        b = FaultMap.with_clustered_fault_count(
            num_words, bits, num_faults, radius, rng=np.random.default_rng(seed)
        )
        np.testing.assert_array_equal(a.fault_mask, b.fault_mask)

    def test_clustered_faults_are_more_concentrated_than_uniform(self):
        # Spatial-correlation sanity: with the same budget, clustered faults
        # touch far fewer distinct words than uniform placement.
        rng = np.random.default_rng(2012)
        clustered = FaultMap.with_clustered_fault_count(500, 10, 200, 3, rng=rng)
        uniform = FaultMap.with_exact_fault_count(500, 10, 200, rng=rng)
        assert (
            np.count_nonzero(clustered.fault_mask.any(axis=1))
            < np.count_nonzero(uniform.fault_mask.any(axis=1)) / 2
        )

    def test_sampler_rejects_overfull_budget(self):
        with pytest.raises(ValueError, match="cannot place"):
            FaultMap.with_clustered_fault_count(4, 4, 17, 1)


class TestInjectionSemantics:
    @given(shape=ARRAY_SHAPES, seed=SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_bit_flip_is_an_involution(self, shape, seed):
        num_words, bits = shape
        fault_map = FaultMap.with_exact_fault_count(
            num_words, bits, num_words * bits // 3, rng=np.random.default_rng(seed)
        )
        stored = _random_words(num_words, bits, seed)
        np.testing.assert_array_equal(_read_back(fault_map, _read_back(fault_map, stored)), stored)

    @given(
        shape=ARRAY_SHAPES,
        seed=SEEDS,
        model=st.sampled_from(
            [FaultModel.STUCK_AT_0, FaultModel.STUCK_AT_1, FaultModel.STUCK_AT_RANDOM]
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_stuck_at_is_idempotent(self, shape, seed, model):
        num_words, bits = shape
        fault_map = FaultMap.with_exact_fault_count(
            num_words,
            bits,
            num_words * bits // 3,
            rng=np.random.default_rng(seed),
            fault_model=model,
        )
        once = _read_back(fault_map, _random_words(num_words, bits, seed))
        np.testing.assert_array_equal(_read_back(fault_map, once), once)


class TestFaultModelTokens:
    @pytest.mark.parametrize("token", [m.value for m in FaultModel])
    def test_uniform_tokens_round_trip(self, token):
        spec = FaultModelSpec.parse(token)
        assert spec.placement == "uniform"
        assert spec.token == token
        assert coerce_fault_model(token) is spec.model

    def test_clustered_token_round_trips(self):
        spec = FaultModelSpec.parse("clustered:3")
        assert spec == FaultModelSpec(placement="clustered", cluster_radius=3)
        assert spec.token == "clustered:3"
        assert coerce_fault_model("clustered:3") == spec

    @pytest.mark.parametrize(
        "token", ["clustered", "clustered:", "clustered:x", "clustered:0", "melted"]
    )
    def test_bad_tokens_rejected(self, token):
        with pytest.raises(ValueError):
            FaultModelSpec.parse(token)

    def test_spec_instances_pass_through(self):
        spec = FaultModelSpec(placement="clustered", cluster_radius=2)
        assert FaultModelSpec.parse(spec) is spec
        assert FaultModelSpec.parse(FaultModel.STUCK_AT_0).model is FaultModel.STUCK_AT_0


class TestSoftErrors:
    @given(vdd=st.floats(min_value=0.8, max_value=1.3))
    @settings(max_examples=60, deadline=None)
    def test_soft_error_rate_is_voltage_insensitive(self, vdd):
        """Per memory/cells.py: 3x per 500 mV, dwarfed by the parametric curve."""
        model = SoftErrorModel()
        soft_growth = model.rate(vdd - 0.5) / model.rate(vdd)
        assert soft_growth == pytest.approx(model.scaling_factor_per_500mv)
        parametric_growth = CELL_6T.failure_probability(
            vdd - 0.5
        ) / CELL_6T.failure_probability(vdd)
        assert parametric_growth > 1_000 * soft_growth

    def test_rate_one_flips_every_cell_per_read(self):
        array = MemoryArray(8, 6, soft_error_rate=1.0, soft_error_rng=0)
        stored = _random_words(8, 6, 3)
        array.write_words(stored)
        np.testing.assert_array_equal(array.read_words(), stored ^ 0b111111)

    def test_rate_zero_never_flips_and_draws_nothing(self):
        array = MemoryArray(8, 6)
        stored = _random_words(8, 6, 3)
        array.write_words(stored)
        np.testing.assert_array_equal(array.read_words(), stored)
        assert array.soft_error_rng is None

    def test_upsets_are_redrawn_per_read(self):
        array = MemoryArray(64, 10, soft_error_rate=0.2, soft_error_rng=7)
        array.write_words(np.zeros(64, dtype=np.int64))
        first, second = array.read_words(), array.read_words()
        assert first.any() and second.any()
        assert not np.array_equal(first, second)

    def test_upsets_are_seed_deterministic(self):
        reads = []
        for _ in range(2):
            array = MemoryArray(64, 10, soft_error_rate=0.2, soft_error_rng=7)
            array.write_words(np.zeros(64, dtype=np.int64))
            reads.append([array.read_words() for _ in range(3)])
        for a, b in zip(*reads):
            np.testing.assert_array_equal(a, b)

    def test_upsets_compose_with_persistent_faults(self):
        # rate 1.0 on top of a full bit-flip map flips twice: reads restore
        # the stored value — the two mechanisms are literal XORs.
        fault_map = FaultMap(8, 6, np.ones((8, 6), dtype=bool))
        array = MemoryArray(8, 6, fault_map=fault_map, soft_error_rate=1.0, soft_error_rng=0)
        stored = _random_words(8, 6, 3)
        array.write_words(stored)
        np.testing.assert_array_equal(array.read_words(), stored)

    def test_rate_is_validated(self):
        with pytest.raises(ValueError):
            MemoryArray(8, 6, soft_error_rate=1.5)
        with pytest.raises(ValueError):
            MemoryArray(8, 6, soft_error_rate=-0.1)
