"""Tests for the HARQ subsystem: buffers, combining, controller and metrics."""

import numpy as np
import pytest

from repro.harq.buffer import LlrSoftBuffer, TransmissionSoftBuffer, combined_mother_rows
from repro.harq.combining import (
    CombiningScheme,
    chase_combine,
    effective_snr_gain_db,
    incremental_redundancy_combine,
)
from repro.harq.controller import HarqController, HarqPacketResult
from repro.harq.metrics import aggregate_results
from repro.memory.faults import FaultMap
from repro.phy.quantization import LlrQuantizer


class TestCombining:
    def test_chase_adds(self):
        assert np.array_equal(chase_combine(np.ones(4), 2 * np.ones(4)), 3 * np.ones(4))

    def test_ir_adds(self):
        combined = incremental_redundancy_combine(np.array([1.0, 0.0]), np.array([0.0, 2.0]))
        assert combined.tolist() == [1.0, 2.0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            chase_combine(np.ones(3), np.ones(4))

    def test_chase_rv_schedule(self):
        scheme = CombiningScheme.CHASE
        assert [scheme.redundancy_version(i) for i in range(4)] == [0, 0, 0, 0]

    def test_ir_rv_schedule(self):
        scheme = CombiningScheme.INCREMENTAL_REDUNDANCY
        assert [scheme.redundancy_version(i) for i in range(5)] == [0, 1, 2, 3, 0]

    def test_snr_gain(self):
        assert effective_snr_gain_db(2) == pytest.approx(3.0103, abs=1e-3)


class TestLlrSoftBuffer:
    def test_empty_reads_zeros(self):
        buffer = LlrSoftBuffer(num_llrs=20)
        assert buffer.is_empty
        assert np.array_equal(buffer.load(), np.zeros(20))

    def test_store_load_roundtrip(self, rng):
        buffer = LlrSoftBuffer(num_llrs=100, quantizer=LlrQuantizer(num_bits=10))
        llrs = rng.normal(0, 10, 100)
        buffer.store(llrs)
        assert np.allclose(buffer.load(), llrs, atol=buffer.quantizer.step)

    def test_combine_accumulates(self, rng):
        buffer = LlrSoftBuffer(num_llrs=50)
        first = rng.normal(0, 5, 50)
        second = rng.normal(0, 5, 50)
        buffer.combine_and_store(first)
        combined = buffer.combine_and_store(second)
        assert np.allclose(combined, first + second, atol=3 * buffer.quantizer.step)

    def test_faulty_buffer_corrupts(self, rng):
        fault_map = FaultMap.with_exact_fault_count(100, 10, 200, rng)
        buffer = LlrSoftBuffer(num_llrs=100, fault_map=fault_map)
        llrs = rng.normal(0, 10, 100)
        buffer.store(llrs)
        assert not np.allclose(buffer.load(), llrs, atol=buffer.quantizer.step)

    def test_clear_resets(self, rng):
        buffer = LlrSoftBuffer(num_llrs=10)
        buffer.store(rng.normal(size=10))
        buffer.clear()
        assert buffer.is_empty

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            LlrSoftBuffer(num_llrs=10).store(np.zeros(11))

    def test_defect_rate(self, rng):
        fault_map = FaultMap.with_exact_fault_count(100, 10, 100, rng)
        buffer = LlrSoftBuffer(num_llrs=100, fault_map=fault_map)
        assert buffer.defect_rate() == pytest.approx(0.1)


class TestTransmissionSoftBuffer:
    def _derate_identity(self, llrs, _rv):
        return llrs

    def test_store_and_combine(self, rng):
        buffer = TransmissionSoftBuffer(words_per_transmission=60, num_slots=3)
        first = rng.normal(0, 5, 60)
        second = rng.normal(0, 5, 60)
        buffer.store_transmission(0, first, 0)
        buffer.store_transmission(1, second, 1)
        combined = buffer.combined_mother_llrs(self._derate_identity)
        assert np.allclose(combined, first + second, atol=2 * buffer.quantizer.step)
        assert buffer.num_stored_transmissions == 2

    def test_combined_rows_match_each_buffer_alone(self):
        """One read-combine over many buffers equals reading each alone.

        The buffers differ in occupied slots (including a gap at slot 0),
        redundancy versions, fault maps and transient-upset streams; each
        output row must be byte-identical to that buffer's own read-combine,
        which sums its slots in ascending order.
        """

        def derate(rows, redundancy_version):
            return np.roll(rows, redundancy_version, axis=1) * (redundancy_version + 1.0)

        occupied_slots = ([0], [0, 1], [0, 1, 2], [1, 2])

        def build():
            rng = np.random.default_rng(5)
            buffers = []
            for index, slots in enumerate(occupied_slots):
                buffer = TransmissionSoftBuffer(
                    words_per_transmission=20,
                    num_slots=3,
                    fault_map=FaultMap.with_exact_fault_count(60, 10, 30, rng),
                    soft_error_rate=0.01 if index % 2 else 0.0,
                    soft_error_rng=index,
                )
                for slot in slots:
                    buffer.store_transmission(slot, rng.normal(0, 5, 20), slot + index)
                buffers.append(buffer)
            return buffers

        together = combined_mother_rows(build(), derate)
        for index, buffer in enumerate(build()):
            alone = buffer.combined_mother_llrs(derate)
            assert alone.tobytes() == together[index].tobytes(), index
        quiet = build()[2]
        mothers = [
            derate(quiet.load_transmission(slot)[0][None], slot + 2)[0] for slot in range(3)
        ]
        expected = (mothers[0] + mothers[1]) + mothers[2]
        assert quiet.combined_mother_llrs(derate).tobytes() == expected.tobytes()

    def test_empty_combine_rejected(self):
        buffer = TransmissionSoftBuffer(words_per_transmission=10, num_slots=2)
        with pytest.raises(ValueError):
            buffer.combined_mother_llrs(self._derate_identity)

    def test_faults_partitioned_across_slots(self, rng):
        fault_map = FaultMap.with_exact_fault_count(40, 10, 100, rng)
        buffer = TransmissionSoftBuffer(
            words_per_transmission=20, num_slots=2, fault_map=fault_map
        )
        assert buffer.num_cells == 400
        assert buffer.defect_rate() == pytest.approx(0.25)

    def test_fault_only_corrupts_its_slot(self, rng):
        # All faults in the first slot's rows.
        mask = np.zeros((40, 10), dtype=bool)
        mask[:20, :] = rng.random((20, 10)) < 0.5
        fault_map = FaultMap(40, 10, mask)
        buffer = TransmissionSoftBuffer(
            words_per_transmission=20, num_slots=2, fault_map=fault_map
        )
        llrs = rng.normal(0, 5, 20)
        buffer.store_transmission(0, llrs, 0)
        buffer.store_transmission(1, llrs, 0)
        corrupted, _ = buffer.load_transmission(0)
        clean, _ = buffer.load_transmission(1)
        assert not np.allclose(corrupted, clean)
        assert np.allclose(clean, llrs, atol=buffer.quantizer.step)

    def test_fault_map_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TransmissionSoftBuffer(
                words_per_transmission=10, num_slots=2, fault_map=FaultMap.empty(10, 10)
            )

    def test_clear(self, rng):
        buffer = TransmissionSoftBuffer(words_per_transmission=10, num_slots=2)
        buffer.store_transmission(0, rng.normal(size=10), 0)
        buffer.clear()
        assert buffer.num_stored_transmissions == 0


class TestHarqController:
    def _make_controller(self, max_transmissions=4):
        buffer = LlrSoftBuffer(num_llrs=30)
        return HarqController(buffer, max_transmissions=max_transmissions)

    def test_success_on_first_transmission(self):
        controller = self._make_controller()
        result = controller.run_packet(
            lambda t, rv: np.ones(30),
            lambda combined: (np.ones(10, dtype=np.int8), True),
        )
        assert result.success
        assert result.num_transmissions == 1

    def test_retries_until_success(self):
        controller = self._make_controller()
        attempts = {"count": 0}

        def decode(_combined):
            attempts["count"] += 1
            return np.zeros(10, dtype=np.int8), attempts["count"] >= 3

        result = controller.run_packet(lambda t, rv: np.ones(30), decode)
        assert result.success
        assert result.num_transmissions == 3
        assert result.failure_history == [True, True, False]

    def test_gives_up_after_budget(self):
        controller = self._make_controller(max_transmissions=2)
        result = controller.run_packet(
            lambda t, rv: np.ones(30),
            lambda combined: (np.zeros(10, dtype=np.int8), False),
        )
        assert not result.success
        assert result.num_transmissions == 2

    def test_combining_visible_to_decoder(self):
        controller = self._make_controller(max_transmissions=3)
        seen = []

        def decode(combined):
            seen.append(combined.copy())
            return np.zeros(4, dtype=np.int8), False

        controller.run_packet(lambda t, rv: np.ones(30), decode)
        # Soft values grow with each combined transmission.
        assert seen[1].sum() > seen[0].sum()
        assert seen[2].sum() > seen[1].sum()

    def test_redundancy_versions_follow_schedule(self):
        controller = self._make_controller(max_transmissions=4)
        seen_rvs = []

        def transmit(_t, rv):
            seen_rvs.append(rv)
            return np.zeros(30)

        controller.run_packet(transmit, lambda c: (np.zeros(4, dtype=np.int8), False))
        assert seen_rvs == [0, 1, 2, 3]


class TestMetrics:
    def _results(self):
        return [
            HarqPacketResult(success=True, num_transmissions=1, failure_history=[False]),
            HarqPacketResult(success=True, num_transmissions=3, failure_history=[True, True, False]),
            HarqPacketResult(success=False, num_transmissions=4, failure_history=[True] * 4),
        ]

    def test_aggregate_counts(self):
        stats = aggregate_results(self._results(), info_bits_per_packet=100)
        assert stats.num_packets == 3
        assert stats.num_successful == 2
        assert stats.total_transmissions == 8

    def test_throughput_and_bler(self):
        stats = aggregate_results(self._results(), 100)
        assert stats.normalized_throughput == pytest.approx(2 / 8)
        assert stats.block_error_rate == pytest.approx(1 / 3)
        assert stats.average_transmissions == pytest.approx(8 / 3)
        assert stats.throughput_bits_per_transmission == pytest.approx(25.0)

    def test_failure_probability_per_transmission(self):
        stats = aggregate_results(self._results(), 100)
        probabilities = stats.failure_probability_per_transmission()
        # After Tx1: 2 of 3 packets still failed; after Tx4: 1 of 1 failed.
        assert probabilities[0] == pytest.approx(2 / 3)
        assert probabilities[-1] == pytest.approx(1.0)

    def test_empty_aggregate(self):
        stats = aggregate_results([], 100)
        assert stats.num_packets == 0
        assert stats.normalized_throughput == 0.0

    def test_as_dict_keys(self):
        stats = aggregate_results(self._results(), 100)
        assert {"block_error_rate", "normalized_throughput"} <= set(stats.as_dict())

    def test_type_check(self):
        with pytest.raises(TypeError):
            aggregate_results([object()], 10)
