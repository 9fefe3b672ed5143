"""Tests for the HARQ subsystem: buffers, combining and metrics."""

import numpy as np
import pytest

from repro.harq.buffer import (
    LlrSoftBuffer,
    TransmissionSoftBuffer,
    combined_mother_rows,
    store_transmission_rows,
)
from repro.harq.combining import CombiningScheme
from repro.harq.metrics import HarqPacketResult, aggregate_results
from repro.memory.ecc import HammingCode
from repro.memory.faults import FaultMap, FaultModel
from repro.phy.quantization import LlrQuantizer
from repro.phy.rate_matching import RateMatcher


class TestCombining:
    def test_chase_rv_schedule(self):
        scheme = CombiningScheme.CHASE
        assert [scheme.redundancy_version(i) for i in range(4)] == [0, 0, 0, 0]

    def test_ir_rv_schedule(self):
        scheme = CombiningScheme.INCREMENTAL_REDUNDANCY
        assert [scheme.redundancy_version(i) for i in range(5)] == [0, 1, 2, 3, 0]

    @staticmethod
    def _read_combine(scheme, matcher, transmissions):
        """Store each transmission with *scheme*'s RV, then read-combine them.

        The buffer is fault-free, and its 12-bit quantizer represents the
        grid-valued LLRs these tests store exactly.
        """
        buffer = TransmissionSoftBuffer(
            words_per_transmission=matcher.num_output_bits,
            num_slots=len(transmissions),
            quantizer=LlrQuantizer(num_bits=12, max_abs=64.0),
        )
        for index, llrs in enumerate(transmissions):
            version = scheme.redundancy_version(index)
            store_transmission_rows([buffer], index, llrs[None], version)
        return combined_mother_rows([buffer], matcher.derate_match_batch)[0]

    @staticmethod
    def _grid_llrs(rng, size):
        step = LlrQuantizer(num_bits=12, max_abs=64.0).step
        return step * rng.integers(-200, 201, size).astype(np.float64)

    def test_chase_adds(self, rng):
        matcher = RateMatcher(num_coded_bits=30, num_output_bits=20)
        first, second = self._grid_llrs(rng, 20), self._grid_llrs(rng, 20)
        combined = self._read_combine(CombiningScheme.CHASE, matcher, [first, second])
        expected = matcher.derate_match_batch((first + second)[None], 0)[0]
        assert np.allclose(combined, expected, rtol=0, atol=1e-9)
        untouched = np.setdiff1d(np.arange(30), matcher.output_indices(0))
        assert not combined[untouched].any()

    def test_ir_adds(self, rng):
        matcher = RateMatcher(num_coded_bits=30, num_output_bits=20)
        first, second = self._grid_llrs(rng, 20), self._grid_llrs(rng, 20)
        scheme = CombiningScheme.INCREMENTAL_REDUNDANCY
        combined = self._read_combine(scheme, matcher, [first, second])
        expected = (
            matcher.derate_match_batch(first[None], 0)[0]
            + matcher.derate_match_batch(second[None], 1)[0]
        )
        assert np.allclose(combined, expected, rtol=0, atol=1e-9)
        # The second redundancy version fills mother-code bits the first left empty.
        only_second = np.setdiff1d(matcher.output_indices(1), matcher.output_indices(0))
        assert only_second.size > 0
        positions = (matcher.output_indices(1)[:, None] == only_second[None, :]).argmax(axis=0)
        assert np.allclose(combined[only_second], second[positions], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("length", [1, 9, 11])
    def test_shape_mismatch_rejected(self, length):
        buffer = LlrSoftBuffer(num_llrs=10)
        with pytest.raises(ValueError, match="expected 10 LLRs"):
            buffer.combine_and_store(np.ones(length))

    def test_snr_gain(self):
        """Chase-combining two equal-SNR copies doubles the LLR SNR: +3.01 dB."""
        rng = np.random.default_rng(5)
        noise_variance = 1.0
        size = 40_000
        copies = [
            2.0 * (1.0 + rng.normal(0.0, np.sqrt(noise_variance), size)) / noise_variance
            for _ in range(2)
        ]
        matcher = RateMatcher(num_coded_bits=size, num_output_bits=size)
        combined = self._read_combine(CombiningScheme.CHASE, matcher, copies)

        def snr_db(llrs):
            return 10.0 * np.log10(np.mean(llrs) ** 2 / np.var(llrs))

        gain = snr_db(combined) - snr_db(copies[0])
        assert gain == pytest.approx(10.0 * np.log10(2.0), abs=0.1)


class TestLlrSoftBuffer:
    def test_empty_reads_zeros(self):
        buffer = LlrSoftBuffer(num_llrs=20)
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
        assert np.array_equal(buffer.load(), np.zeros(10))

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

    @staticmethod
    def _slot_reads(buffers):
        """``(redundancy_version, rows)`` of every slot read, in read order."""
        reads = []

        def record(rows, redundancy_version):
            reads.append((redundancy_version, rows.copy()))
            return rows

        combined_mother_rows(buffers, record)
        return reads

    def test_store_and_combine(self, rng):
        buffer = TransmissionSoftBuffer(words_per_transmission=60, num_slots=3)
        first = rng.normal(0, 5, (1, 60))
        second = rng.normal(0, 5, (1, 60))
        store_transmission_rows([buffer], 0, first, 0)
        store_transmission_rows([buffer], 1, second, 1)
        combined = combined_mother_rows([buffer], self._derate_identity)[0]
        assert np.allclose(combined, (first + second)[0], atol=2 * buffer.quantizer.step)
        assert [version for version, _ in self._slot_reads([buffer])] == [0, 1]

    def test_combined_rows_match_each_buffer_alone(self):
        """One lock-step read-combine over many buffers equals reading each alone.

        The buffers hold the same slots (with a gap at slot 0) and redundancy
        versions, as the packets of one HARQ round do, but differ in fault
        maps and transient-upset streams; each output row must be
        byte-identical to that buffer's own read-combine, which sums its
        slots in ascending order.
        """

        def derate(rows, redundancy_version):
            return np.roll(rows, redundancy_version, axis=1) * (redundancy_version + 1.0)

        def build():
            rng = np.random.default_rng(5)
            buffers = [
                TransmissionSoftBuffer(
                    words_per_transmission=20,
                    num_slots=4,
                    fault_map=FaultMap.with_exact_fault_count(80, 10, 40, rng),
                    soft_error_rate=0.01 if index % 2 else 0.0,
                    soft_error_rng=index,
                )
                for index in range(4)
            ]
            for slot in (1, 2, 3):
                store_transmission_rows(buffers, slot, rng.normal(0, 5, (4, 20)), slot + 1)
            return buffers

        together = combined_mother_rows(build(), derate)
        for index, buffer in enumerate(build()):
            alone = combined_mother_rows([buffer], derate)[0]
            assert alone.tobytes() == together[index].tobytes(), index
        quiet = build()[2]
        reads = self._slot_reads([quiet])
        assert [version for version, _ in reads] == [2, 3, 4]
        mothers = [derate(rows, version)[0] for version, rows in reads]
        expected = (mothers[0] + mothers[1]) + mothers[2]
        assert combined_mother_rows([quiet], derate)[0].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("mismatch", ["slots", "versions"])
    def test_mixed_occupancy_rejected(self, rng, mismatch):
        """Buffers read together must be in lock step: same slots, same RVs."""
        buffers = [
            TransmissionSoftBuffer(words_per_transmission=10, num_slots=3) for _ in range(2)
        ]
        store_transmission_rows(buffers, 0, rng.normal(size=(2, 10)), 0)
        if mismatch == "slots":
            store_transmission_rows(buffers[1:], 1, rng.normal(size=(1, 10)), 1)
        else:
            store_transmission_rows(buffers[1:], 0, rng.normal(size=(1, 10)), 2)
        with pytest.raises(ValueError, match="lock-step"):
            combined_mother_rows(buffers, self._derate_identity)

    def test_empty_combine_rejected(self):
        buffer = TransmissionSoftBuffer(words_per_transmission=10, num_slots=2)
        with pytest.raises(ValueError):
            combined_mother_rows([buffer], self._derate_identity)

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
        llrs = rng.normal(0, 5, (1, 20))
        store_transmission_rows([buffer], 0, llrs, 0)
        store_transmission_rows([buffer], 1, llrs, 0)
        (_, corrupted), (_, clean) = self._slot_reads([buffer])
        assert not np.allclose(corrupted, clean)
        assert np.allclose(clean, llrs, atol=buffer.quantizer.step)

    def test_fault_map_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TransmissionSoftBuffer(
                words_per_transmission=10, num_slots=2, fault_map=FaultMap.empty(10, 10)
            )

    def test_clear(self, rng):
        buffer = TransmissionSoftBuffer(words_per_transmission=10, num_slots=2)
        store_transmission_rows([buffer], 0, rng.normal(size=(1, 10)), 0)
        buffer.clear()
        with pytest.raises(ValueError, match="no transmissions stored"):
            combined_mother_rows([buffer], self._derate_identity)

    @pytest.mark.parametrize("slot", [-1, 3, 4])
    def test_out_of_range_slot_rejected_on_every_accessor(self, rng, slot):
        # Slot -1 used to write the last slot silently, and slot num_slots
        # raised IndexError.
        buffer = TransmissionSoftBuffer(words_per_transmission=10, num_slots=3)
        with pytest.raises(ValueError, match="slot must be"):
            store_transmission_rows([buffer], slot, rng.normal(size=(1, 10)), 0)

    def test_round_store_equals_storing_each_row(self):
        """Storing a round's rows in one call equals storing them one by one.

        Two dies (one SEC-DED protected) with transient upsets: every slot
        read back must be byte-identical either way.
        """
        ecc = HammingCode(10, extended=True)

        def build():
            rng = np.random.default_rng(11)
            plain = FaultMap.with_exact_fault_count(60, 10, 90, rng)
            protected = FaultMap.with_exact_fault_count(
                60, ecc.codeword_bits, 120, rng, fault_model=FaultModel.STUCK_AT_RANDOM
            )
            return [
                TransmissionSoftBuffer(
                    words_per_transmission=20,
                    num_slots=3,
                    fault_map=fault_map,
                    ecc=code,
                    soft_error_rate=0.01,
                    soft_error_rng=index,
                )
                for index, (fault_map, code) in enumerate(
                    [(plain, None), (plain, None), (protected, ecc), (protected, ecc)]
                )
            ]

        rows = [np.random.default_rng(slot).normal(0, 8, (4, 20)) for slot in range(3)]
        batched, single = build(), build()
        for slot in range(3):
            store_transmission_rows(batched, slot, rows[slot], slot + 1)
            for buffer, row in zip(single, rows[slot]):
                store_transmission_rows([buffer], slot, row[None], slot + 1)
        for one, other in zip(batched, single):
            reads = self._slot_reads([one])
            assert [version for version, _ in reads] == [1, 2, 3]
            for (_, llrs), (_, expected) in zip(reads, self._slot_reads([other])):
                assert llrs.tobytes() == expected.tobytes()

    def test_round_store_validates_rows(self):
        buffers = [TransmissionSoftBuffer(words_per_transmission=10, num_slots=2)] * 2
        with pytest.raises(ValueError):
            store_transmission_rows(buffers, 0, np.zeros((3, 10)), 0)
        with pytest.raises(ValueError):
            store_transmission_rows(buffers, 0, np.zeros((2, 11)), 0)
        with pytest.raises(ValueError):
            store_transmission_rows(buffers, 2, np.zeros((2, 10)), 0)


class TestSmokeFaultRunPins:
    """Exact HARQ statistics of smoke-scale fault runs no golden covers.

    The goldens reach the per-transmission buffer with plain or SEC storage
    only; these pins cover the ``combined`` buffer architecture
    (:class:`LlrSoftBuffer`), SEC-DED storage and stuck-at read-out with
    transient upsets, through the same task path the sweeps use.  Each case
    lists, per die, ``(num_faults, num_successful, total_transmissions,
    failures_per_transmission)``.
    """

    CASES = [
        (
            ("combined", "ecc-ded", "bit-flip", 0.14, 20.0, 0.0),
            [(857, 8, 32, (8, 8, 8, 0)), (857, 7, 27, (8, 8, 3, 1))],
        ),
        (
            ("combined", "ecc-ded", "stuck-at-random", 0.14, 14.0, 1e-3),
            [(857, 5, 32, (8, 8, 8, 3)), (857, 6, 31, (8, 8, 7, 2))],
        ),
        (
            ("combined", "none", "stuck-at-1", 0.1, 14.0, 0.0),
            [(408, 4, 32, (8, 8, 8, 4)), (408, 2, 32, (8, 8, 8, 6))],
        ),
        (
            ("per-transmission", "ecc-ded", "stuck-at-random", 0.1, 14.0, 1e-3),
            [(1116, 7, 26, (8, 8, 2, 1)), (1116, 8, 27, (8, 8, 3, 0))],
        ),
    ]

    @pytest.mark.parametrize("case, expected", CASES, ids=lambda c: "-".join(map(str, c)))
    def test_die_statistics(self, case, expected):
        from repro.experiments.scales import SMOKE
        from repro.runner.tasks import FaultMapTask, simulate_fault_map_batch
        from repro.scenarios.spec import resolve_protection

        architecture, protection, fault_model, defect_rate, snr_db, soft_rate = case
        config = SMOKE.link_config(buffer_architecture=architecture)
        tasks = [
            FaultMapTask(
                config=config,
                protection=resolve_protection(protection, config.llr_bits),
                snr_db=snr_db,
                defect_rate=defect_rate,
                num_packets=8,
                entropy=2012,
                key=(die,),
                fault_model=fault_model,
                soft_error_rate=soft_rate,
            )
            for die in range(2)
        ]
        outcomes = [
            (
                outcome.num_faults,
                outcome.statistics.num_successful,
                outcome.statistics.total_transmissions,
                tuple(int(n) for n in outcome.statistics.failures_per_transmission),
            )
            for outcome in simulate_fault_map_batch(tasks)
        ]
        assert outcomes == expected


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

    def test_type_check(self):
        with pytest.raises(TypeError):
            aggregate_results([object()], 10)
