"""Property-based tests for the Monte-Carlo statistics helpers."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.montecarlo import proportion_confidence_interval, required_packets_for_bler

CONFIDENCES = st.floats(min_value=0.5, max_value=0.999)


class TestProportionInterval:
    @given(
        trials=st.integers(min_value=1, max_value=10_000),
        ratio=st.floats(min_value=0.0, max_value=1.0),
        confidence=CONFIDENCES,
    )
    @settings(max_examples=200, deadline=None)
    def test_bounds_stay_in_unit_interval(self, trials, ratio, confidence):
        successes = min(trials, int(round(ratio * trials)))
        estimate = proportion_confidence_interval(successes, trials, confidence)
        assert 0.0 <= estimate.lower <= estimate.upper <= 1.0
        assert estimate.half_width >= 0.0
        assert estimate.num_samples == trials

    @given(
        successes=st.integers(min_value=0, max_value=50),
        trials=st.integers(min_value=1, max_value=50),
        factor=st.integers(min_value=2, max_value=40),
        confidence=CONFIDENCES,
    )
    @settings(max_examples=200, deadline=None)
    def test_half_width_shrinks_with_n(self, successes, trials, factor, confidence):
        successes = min(successes, trials)
        small = proportion_confidence_interval(successes, trials, confidence)
        large = proportion_confidence_interval(successes * factor, trials * factor, confidence)
        assert large.half_width <= small.half_width + 1e-12

    def test_extreme_counts_clamped(self):
        # Exactly the cases where centre ± half-width used to leak outside
        # [0, 1] through floating-point rounding.
        for successes, trials in [(0, 1), (1, 1), (0, 10**6), (10**6, 10**6)]:
            estimate = proportion_confidence_interval(successes, trials, 0.999)
            assert 0.0 <= estimate.lower <= estimate.upper <= 1.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            proportion_confidence_interval(5, 0)
        with pytest.raises(ValueError):
            proportion_confidence_interval(-1, 10)
        with pytest.raises(ValueError):
            proportion_confidence_interval(11, 10)


class TestRequiredPackets:
    @given(
        target=st.floats(min_value=1e-6, max_value=1.0, exclude_max=True),
        relative_error=st.floats(min_value=1e-3, max_value=2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_positive_and_sufficient(self, target, relative_error):
        needed = required_packets_for_bler(target, relative_error)
        assert isinstance(needed, int)
        assert needed >= 1
        # The rule of thumb: with `needed` packets, the binomial standard
        # error is at most relative_error * target.
        standard_error = math.sqrt(target * (1.0 - target) / needed)
        assert standard_error <= relative_error * target * (1.0 + 1e-9)

    @given(
        target=st.floats(min_value=1e-5, max_value=0.5),
        factor=st.floats(min_value=1.1, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_target(self, target, factor):
        rarer = required_packets_for_bler(target / factor)
        commoner = required_packets_for_bler(min(target, 1.0 - 1e-9))
        assert rarer >= commoner

    @pytest.mark.parametrize("bad_target", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_degenerate_targets_rejected(self, bad_target):
        with pytest.raises(ValueError):
            required_packets_for_bler(bad_target)

    @pytest.mark.parametrize("bad_rel", [0.0, -0.5, float("nan")])
    def test_degenerate_relative_error_rejected(self, bad_rel):
        with pytest.raises(ValueError):
            required_packets_for_bler(0.1, bad_rel)
