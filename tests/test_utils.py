"""Tests for repro.utils (RNG handling and validation helpers)."""

import numpy as np
import pytest

from repro.utils.rng import as_rng, child_rngs
from repro.utils.validation import (
    ensure_bit_array,
    ensure_choice,
    ensure_in_range,
    ensure_non_negative_int,
    ensure_positive_int,
    ensure_probability,
)


class TestAsRng:
    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_seed_is_reproducible(self):
        assert as_rng(7).integers(0, 1000) == as_rng(7).integers(0, 1000)

    def test_different_seeds_differ(self):
        draws_a = as_rng(1).integers(0, 2**31, 8)
        draws_b = as_rng(2).integers(0, 2**31, 8)
        assert not np.array_equal(draws_a, draws_b)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert as_rng(generator) is generator

    def test_seed_sequence_accepted(self):
        assert isinstance(as_rng(np.random.SeedSequence(3)), np.random.Generator)


class TestChildRngs:
    def test_count(self):
        assert len(child_rngs(0, 5)) == 5

    def test_reproducible(self):
        first = [r.integers(0, 1000) for r in child_rngs(42, 3)]
        second = [r.integers(0, 1000) for r in child_rngs(42, 3)]
        assert first == second

    def test_children_are_independent(self):
        children = child_rngs(0, 2)
        a = children[0].integers(0, 2**31, 16)
        b = children[1].integers(0, 2**31, 16)
        assert not np.array_equal(a, b)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            child_rngs(0, -1)

    def test_zero_count(self):
        assert child_rngs(0, 0) == []


class TestValidation:
    def test_positive_int_accepts(self):
        assert ensure_positive_int(3, "x") == 3

    @pytest.mark.parametrize("value", [0, -1, 1.5, "3", True])
    def test_positive_int_rejects(self, value):
        with pytest.raises((ValueError, TypeError)):
            ensure_positive_int(value, "x")

    def test_non_negative_int_accepts_zero(self):
        assert ensure_non_negative_int(0, "x") == 0

    def test_non_negative_int_rejects_negative(self):
        with pytest.raises(ValueError):
            ensure_non_negative_int(-1, "x")

    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_probability_accepts(self, value):
        assert ensure_probability(value, "p") == value

    @pytest.mark.parametrize("value", [-0.01, 1.01, 5])
    def test_probability_rejects(self, value):
        with pytest.raises(ValueError):
            ensure_probability(value, "p")

    def test_in_range_inclusive(self):
        assert ensure_in_range(1.0, "x", 0.0, 1.0) == 1.0

    def test_in_range_exclusive_rejects_boundary(self):
        with pytest.raises(ValueError):
            ensure_in_range(1.0, "x", 0.0, 1.0, inclusive=False)

    def test_bit_array_accepts_valid(self):
        out = ensure_bit_array([0, 1, 1, 0])
        assert out.dtype == np.int8
        assert out.tolist() == [0, 1, 1, 0]

    @pytest.mark.parametrize("bad", [2, -1, 0.5, float("nan")])
    def test_bit_array_rejects_non_binary(self, bad):
        with pytest.raises(ValueError, match="only 0s and 1s"):
            ensure_bit_array([0, bad, 1])

    def test_bit_array_accepts_bool_and_empty(self):
        out = ensure_bit_array(np.array([True, False, True]))
        assert out.dtype == np.int8
        assert out.tolist() == [1, 0, 1]
        assert ensure_bit_array([]).size == 0

    def test_bit_array_rejects_2d(self):
        with pytest.raises(ValueError):
            ensure_bit_array(np.zeros((2, 2)))

    def test_choice_accepts(self):
        assert ensure_choice("a", "x", ["a", "b"]) == "a"

    def test_choice_rejects(self):
        with pytest.raises(ValueError):
            ensure_choice("c", "x", ["a", "b"])


class TestResolveEntropy:
    def test_int_passes_through(self):
        from repro.utils.rng import resolve_entropy

        assert resolve_entropy(2012) == 2012

    def test_none_gives_fresh_entropy(self):
        from repro.utils.rng import resolve_entropy

        assert resolve_entropy(None) >= 0

    def test_seed_sequence_entropy_recovered(self):
        from repro.utils.rng import resolve_entropy

        assert resolve_entropy(np.random.SeedSequence(77)) == 77

    def test_generator_reduces_reproducibly(self):
        from repro.utils.rng import resolve_entropy

        first = resolve_entropy(np.random.default_rng(3))
        second = resolve_entropy(np.random.default_rng(3))
        assert first == second

    def test_negative_and_bool_rejected(self):
        from repro.utils.rng import resolve_entropy

        with pytest.raises(ValueError):
            resolve_entropy(-1)
        with pytest.raises(TypeError):
            resolve_entropy(True)
