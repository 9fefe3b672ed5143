"""End-to-end integration and property-based tests across subsystems.

These tests exercise the full paper methodology on small configurations:
the link chain (CRC → turbo → rate matching → 64QAM → multipath → MMSE →
HARQ → decode) with fault injection in the LLR storage, and the statistical
relationships between the circuit models and the system metrics that the
paper's conclusions rest on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MsbProtection
from repro.link import HspaLikeLink, LinkConfig
from repro.memory.cells import CELL_6T, CELL_8T
from repro.memory.faults import FaultMap
from repro.memory.yield_model import acceptance_yield, min_defects_for_yield
from repro.scenarios import SweepAxis


@pytest.fixture(scope="module")
def small_config():
    """Shared small 64QAM configuration for the integration tests."""
    return LinkConfig(
        payload_bits=104,
        crc_bits=16,
        modulation="64QAM",
        effective_code_rate=0.7,
        turbo_iterations=3,
        max_transmissions=4,
    )


class TestEndToEndResilience:
    """The paper's central claims, exercised end to end on a small link."""

    def test_small_defect_rate_is_harmless(self, run_fault_grid):
        """Up to ~0.1% defects the throughput matches the defect-free system."""
        (clean,) = run_fault_grid(
            num_packets=10, num_fault_maps=2, seed=1, snr_db=26.0, defect_rate=0.0
        ).points
        (mild,) = run_fault_grid(
            num_packets=10, num_fault_maps=2, seed=1, snr_db=26.0, defect_rate=0.001
        ).points
        assert mild.normalized_throughput >= 0.7 * clean.normalized_throughput

    def test_degradation_is_monotone_in_defect_rate(self, run_fault_grid):
        """Average transmissions grow (statistically) with the defect rate."""
        points = run_fault_grid(
            num_packets=10,
            num_fault_maps=2,
            seed=2,
            snr_db=20.0,
            axes=(SweepAxis("defect_rate", (0.0, 0.10)),),
        ).points
        assert points[1].average_transmissions >= points[0].average_transmissions - 1e-9

    def test_preferential_protection_beats_unprotected_at_high_defects(self, run_fault_grid):
        """Protecting 4 MSBs recovers throughput at a 10% defect rate (Fig. 7)."""
        (dirty,) = run_fault_grid(
            num_packets=12, num_fault_maps=2, seed=3, snr_db=22.0, defect_rate=0.10
        ).points
        (fixed,) = run_fault_grid(
            num_packets=12,
            num_fault_maps=2,
            seed=3,
            snr_db=22.0,
            defect_rate=0.10,
            protection="msb:4",
        ).points
        assert fixed.normalized_throughput >= dirty.normalized_throughput
        assert fixed.average_transmissions <= dirty.average_transmissions + 1e-9

    def test_protected_storage_close_to_defect_free(self, run_fault_grid):
        (clean,) = run_fault_grid(
            num_packets=10,
            num_fault_maps=2,
            seed=4,
            snr_db=26.0,
            defect_rate=0.0,
            protection="msb:4",
        ).points
        (dirty,) = run_fault_grid(
            num_packets=10,
            num_fault_maps=2,
            seed=4,
            snr_db=26.0,
            defect_rate=0.10,
            protection="msb:4",
        ).points
        assert dirty.normalized_throughput >= 0.6 * clean.normalized_throughput

    def test_harq_rescues_low_snr_packets(self, small_config):
        """Fig. 2's behaviour: retransmissions raise the delivery probability."""
        link = HspaLikeLink(small_config)
        result = link.simulate_packets(12, 12.0, rng=5)
        stats = result.statistics
        probabilities = stats.failure_probability_per_transmission()
        assert probabilities[-1] <= probabilities[0] + 1e-9

    def test_yield_story_consistent_with_voltage(self):
        """Accepting the defects the system tolerates buys voltage headroom."""
        cells = 16_800  # the default LLR storage of the quickstart configuration
        # At 0.8 V the 6T Pcell implies an acceptable defect count well below
        # 1% of the array, so a system tolerating 1% defects can run there.
        pcell_08 = CELL_6T.failure_probability(0.8)
        needed = min_defects_for_yield(pcell_08, cells, 0.95)
        assert needed / cells < 0.01
        # The 100%-correct criterion would essentially never yield at 0.7 V...
        pcell_07 = CELL_6T.failure_probability(0.7)
        assert acceptance_yield(pcell_07, cells, 0) < 0.05
        # ...but accepting 10% defects (the protected system's budget) does.
        assert acceptance_yield(pcell_07, cells, int(0.10 * cells)) > 0.95
        # And the 8T cells used for the protected MSBs are still reliable there.
        assert CELL_8T.failure_probability(0.7) < 1e-6


class TestCrossModuleConsistency:
    def test_fault_injection_rate_matches_request(self, small_config, rng):
        """The defect rate seen by the buffer equals the requested acceptance rate."""
        link = HspaLikeLink(small_config)
        num_faults = int(0.05 * small_config.llr_storage_cells)
        fault_map = FaultMap.with_exact_fault_count(
            small_config.llr_storage_words, small_config.llr_bits, num_faults, rng
        )
        buffer = link.make_buffer(fault_map=fault_map)
        assert buffer.defect_rate() == pytest.approx(0.05, abs=0.002)

    def test_simulator_uses_all_packets(self, run_fault_grid):
        (point,) = run_fault_grid(
            num_packets=8, num_fault_maps=2, seed=6, snr_db=26.0, defect_rate=0.0
        ).points
        assert point.statistics.num_packets == 8
        assert len(point.per_map_throughput) == 2

    def test_protection_reduces_fallible_cells(self, run_fault_grid):
        # At a 100% defect rate every fallible cell of the die is faulty.
        for protected_bits in (0, 2, 4, 10):
            outcome = run_fault_grid(
                num_packets=1,
                num_fault_maps=1,
                seed=7,
                snr_db=26.0,
                defect_rate=1.0,
                protection=f"msb:{protected_bits}",
            )
            expected = outcome.base_config.llr_storage_words * (10 - protected_bits)
            assert outcome.points[0].num_faults == expected


class TestStatisticalProperties:
    @given(st.floats(min_value=0.55, max_value=1.1))
    @settings(max_examples=25, deadline=None)
    def test_cell_failure_monotone_in_voltage_property(self, vdd):
        assert CELL_6T.failure_probability(vdd) >= CELL_6T.failure_probability(vdd + 0.05)

    @given(
        st.floats(min_value=1e-5, max_value=0.05),
        st.integers(min_value=100, max_value=20_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_yield_acceptance_dominates_strict_property(self, pcell, cells):
        strict = acceptance_yield(pcell, cells, 0)
        relaxed = acceptance_yield(pcell, cells, max(1, cells // 100))
        assert relaxed >= strict

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=20, deadline=None)
    def test_fault_maps_never_touch_protected_columns_property(self, num_faults):
        scheme = MsbProtection(bits_per_word=10, protected_msbs=4)
        fault_map = scheme.make_fault_map(100, num_faults, rng=num_faults)
        assert fault_map.fault_mask[:, :4].sum() == 0
        assert fault_map.num_faults == num_faults
