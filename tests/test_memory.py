"""Tests for the unreliable-silicon substrate (cells, faults, arrays, ECC, yield)."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.array import MemoryArray
from repro.memory.cells import (
    CELL_6T,
    CELL_6T_UPSIZED,
    CELL_8T,
    BitCellType,
    SoftErrorModel,
    get_cell_type,
)
from repro.memory.ecc import HammingCode
from repro.memory.faults import FaultMap, FaultModel
from repro.memory.power import AreaModel, PowerModel
from repro.memory.yield_model import (
    acceptance_yield,
    acceptance_yield_curve,
    defect_free_yield,
    min_defects_for_yield,
)


class TestCells:
    def test_failure_probability_decreases_with_voltage(self):
        assert CELL_6T.failure_probability(1.0) < CELL_6T.failure_probability(0.7)

    def test_robustness_ordering(self):
        for vdd in (0.6, 0.8, 1.0):
            assert (
                CELL_8T.failure_probability(vdd)
                < CELL_6T_UPSIZED.failure_probability(vdd)
                < CELL_6T.failure_probability(vdd)
            )

    def test_6t_nominal_voltage_anchor(self):
        assert CELL_6T.failure_probability(1.0) < 1e-8

    def test_6t_billion_fold_increase_over_500mv(self):
        ratio = CELL_6T.failure_probability(0.5) / CELL_6T.failure_probability(1.0)
        assert ratio > 1e6

    def test_area_ordering(self):
        assert CELL_6T.relative_area < CELL_6T_UPSIZED.relative_area < CELL_8T.relative_area

    def test_registry(self):
        assert get_cell_type("8T") is CELL_8T
        with pytest.raises(ValueError):
            get_cell_type("12T")

    def test_soft_error_scaling(self):
        model = SoftErrorModel()
        assert model.rate(0.5) / model.rate(1.0) == pytest.approx(3.0)
        assert model.rate(0.75) / model.rate(1.0) == pytest.approx(np.sqrt(3.0), rel=1e-6)

    def test_voltage_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CELL_6T.failure_probability(0.1)


class TestFaultMap:
    def test_exact_count(self, rng):
        fault_map = FaultMap.with_exact_fault_count(500, 10, 37, rng)
        assert fault_map.num_faults == 37
        assert fault_map.defect_rate == pytest.approx(37 / 5000)

    def test_exact_count_zero(self):
        fault_map = FaultMap.with_exact_fault_count(100, 10, 0)
        assert fault_map.num_faults == 0

    def test_exact_count_too_many(self):
        with pytest.raises(ValueError):
            FaultMap.with_exact_fault_count(10, 2, 21)

    def test_protected_columns_untouched(self, rng):
        protected = np.zeros(10, dtype=bool)
        protected[:4] = True
        fault_map = FaultMap.with_exact_fault_count(
            200, 10, 150, rng, protected_columns=protected
        )
        assert fault_map.faults_per_column()[:4].sum() == 0
        assert fault_map.num_faults == 150

    def test_bit_flip_semantics(self, rng):
        fault_map = FaultMap.with_exact_fault_count(50, 8, 30, rng)
        stored = np.zeros((50, 8), dtype=np.int8)
        read = fault_map.apply_to_bits(stored)
        assert read.sum() == 30

    def test_stuck_at_zero_semantics(self, rng):
        fault_map = FaultMap.with_exact_fault_count(
            50, 8, 30, rng, fault_model=FaultModel.STUCK_AT_0
        )
        stored = np.ones((50, 8), dtype=np.int8)
        read = fault_map.apply_to_bits(stored)
        assert (read == 0).sum() == 30

    def test_stuck_at_one_semantics(self, rng):
        fault_map = FaultMap.with_exact_fault_count(
            50, 8, 30, rng, fault_model=FaultModel.STUCK_AT_1
        )
        stored = np.zeros((50, 8), dtype=np.int8)
        assert fault_map.apply_to_bits(stored).sum() == 30

    def test_clustered_faults(self, rng):
        fault_map = FaultMap.clustered(1000, 10, num_clusters=5, cluster_size=20, rng=rng)
        assert 0 < fault_map.num_faults <= 100

    def test_row_slice(self, rng):
        fault_map = FaultMap.with_exact_fault_count(100, 4, 40, rng)
        top = fault_map.row_slice(0, 50)
        bottom = fault_map.row_slice(50, 100)
        assert top.num_faults + bottom.num_faults == 40

    def test_row_slice_invalid(self):
        fault_map = FaultMap.empty(10, 4)
        with pytest.raises(ValueError):
            fault_map.row_slice(5, 20)

    def test_restrict_to_columns(self, rng):
        fault_map = FaultMap.with_exact_fault_count(100, 10, 80, rng)
        restricted = fault_map.restrict_to_columns(np.array([0, 1]))
        assert restricted.num_faults == fault_map.faults_per_column()[:2].sum()

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_exact_count_property(self, num_faults):
        fault_map = FaultMap.with_exact_fault_count(50, 8, num_faults, rng=num_faults)
        assert fault_map.num_faults == num_faults


class TestMemoryArray:
    def test_defect_free_roundtrip(self, rng):
        array = MemoryArray(200, 10)
        words = rng.integers(0, 1024, 200)
        array.write_words(words)
        assert np.array_equal(array.read_words(), words)

    def test_faulty_reads_corrupt_words(self, rng):
        fault_map = FaultMap.with_exact_fault_count(200, 10, 100, rng)
        array = MemoryArray(200, 10, fault_map=fault_map)
        words = rng.integers(0, 1024, 200)
        array.write_words(words)
        corrupted = array.read_words()
        assert np.any(corrupted != words)
        assert array.corrupted_word_count() > 0

    def test_faults_are_deterministic(self, rng):
        fault_map = FaultMap.with_exact_fault_count(100, 8, 50, rng)
        array = MemoryArray(100, 8, fault_map=fault_map)
        words = rng.integers(0, 256, 100)
        array.write_words(words)
        assert np.array_equal(array.read_words(), array.read_words())

    def test_ecc_corrects_single_faults(self, rng):
        ecc = HammingCode(10)
        # One fault per word at most: place faults in distinct rows.
        mask = np.zeros((100, ecc.codeword_bits), dtype=bool)
        rows = rng.choice(100, size=60, replace=False)
        mask[rows, rng.integers(0, ecc.codeword_bits, 60)] = True
        fault_map = FaultMap(100, ecc.codeword_bits, mask)
        array = MemoryArray(100, 10, fault_map=fault_map, ecc=ecc)
        words = rng.integers(0, 1024, 100)
        array.write_words(words)
        assert np.array_equal(array.read_words(), words)

    def test_ecc_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MemoryArray(10, 8, ecc=HammingCode(10))

    def test_fault_map_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MemoryArray(10, 8, fault_map=FaultMap.empty(10, 10))

    def test_write_bits_interface(self, rng):
        array = MemoryArray(50, 6)
        bits = rng.integers(0, 2, (50, 6)).astype(np.int8)
        array.write_words(None, word_bits=bits)
        assert np.array_equal(array.read_word_bits(), bits)

    def test_clear(self, rng):
        array = MemoryArray(20, 4)
        array.write_words(rng.integers(0, 16, 20))
        array.clear()
        assert array.read_words().sum() == 0


def _loop_decode(code: HammingCode, codewords: np.ndarray):
    """Frozen copy of the per-word loop decoder that the syndrome table replaced.

    Kept verbatim (``self`` renamed ``code``) as the reference the table
    decoder must reproduce bit for bit, including its two quirks: plain SEC
    flags a shortened code's unused syndromes as uncorrectable, and SEC-DED
    returns the miscorrected data of a detected double error.
    """
    received = np.asarray(codewords, dtype=np.int8)
    if received.ndim != 2 or received.shape[1] != code.codeword_bits:
        raise ValueError(
            f"expected shape (n, {code.codeword_bits}), got {received.shape}"
        )
    ded_bit = None
    body = received
    if code.extended:
        ded_bit = received[:, -1]
        body = received[:, :-1]

    data_part = body[:, : code.data_bits]
    parity_part = body[:, code.data_bits :]
    syndrome = (data_part @ code._parity_matrix.T + parity_part) % 2  # (n, r)

    corrected_data = data_part.copy()
    corrected = np.zeros(received.shape[0], dtype=bool)
    uncorrectable = np.zeros(received.shape[0], dtype=bool)

    nonzero = syndrome.any(axis=1)
    if nonzero.any():
        # Match each nonzero syndrome against the data columns first,
        # then against the parity identity columns.
        columns = code._parity_matrix.T  # (data_bits, r)
        for idx in np.nonzero(nonzero)[0]:
            s = syndrome[idx]
            matches = np.nonzero((columns == s).all(axis=1))[0]
            if matches.size:
                corrected_data[idx, matches[0]] ^= 1
                corrected[idx] = True
            else:
                weight = int(s.sum())
                if weight == 1:
                    # Error in a parity bit: data unaffected.
                    corrected[idx] = True
                else:
                    uncorrectable[idx] = True

    if code.extended and ded_bit is not None:
        overall_parity = (body.sum(axis=1) + ded_bit) % 2
        # Even overall parity with nonzero syndrome indicates a double error.
        double_error = nonzero & (overall_parity == 0)
        uncorrectable |= double_error
        corrected &= ~double_error
    return corrected_data.astype(np.int8), corrected, uncorrectable


def _all_words(num_bits: int) -> np.ndarray:
    """Every ``num_bits``-bit word, as an MSB-first ``(2**num_bits, num_bits)`` matrix."""
    shifts = np.arange(num_bits - 1, -1, -1)
    return ((np.arange(1 << num_bits)[:, None] >> shifts) & 1).astype(np.int8)


EXHAUSTIVE_CODES = pytest.mark.parametrize("extended", [False, True])
EXHAUSTIVE_WIDTHS = pytest.mark.parametrize("data_bits", [4, 8, 10, 11, 12])


class TestHammingCode:
    @pytest.mark.parametrize("data_bits", [4, 8, 10, 11, 12, 16])
    def test_roundtrip(self, data_bits, rng):
        code = HammingCode(data_bits)
        data = rng.integers(0, 2, (64, data_bits)).astype(np.int8)
        decoded, corrected, uncorrectable = code.decode(code.encode(data))
        assert np.array_equal(decoded, data)
        assert not corrected.any()
        assert not uncorrectable.any()

    @pytest.mark.parametrize("data_bits", [8, 10, 12])
    def test_single_error_correction(self, data_bits, rng):
        code = HammingCode(data_bits)
        data = rng.integers(0, 2, (128, data_bits)).astype(np.int8)
        codewords = code.encode(data)
        for i in range(codewords.shape[0]):
            codewords[i, rng.integers(0, code.codeword_bits)] ^= 1
        decoded, corrected, _ = code.decode(codewords)
        assert np.array_equal(decoded, data)
        assert corrected.all()

    def test_ten_bit_code_uses_four_parity_bits(self):
        code = HammingCode(10)
        assert code.num_parity_bits == 4
        assert code.overhead == pytest.approx(0.4)

    def test_extended_detects_double_errors(self, rng):
        code = HammingCode(10, extended=True)
        data = rng.integers(0, 2, (64, 10)).astype(np.int8)
        codewords = code.encode(data)
        for i in range(codewords.shape[0]):
            positions = rng.choice(code.codeword_bits - 1, size=2, replace=False)
            codewords[i, positions] ^= 1
        _, _, uncorrectable = code.decode(codewords)
        assert uncorrectable.mean() > 0.9

    def test_invalid_shapes_rejected(self):
        code = HammingCode(10)
        with pytest.raises(ValueError):
            code.encode(np.zeros((4, 9), dtype=np.int8))
        with pytest.raises(ValueError):
            code.decode(np.zeros((4, 10), dtype=np.int8))

    @EXHAUSTIVE_WIDTHS
    @EXHAUSTIVE_CODES
    def test_every_clean_word_decodes_to_itself(self, data_bits, extended):
        code = HammingCode(data_bits, extended=extended)
        data = _all_words(data_bits)
        decoded, corrected, uncorrectable = code.decode(code.encode(data))
        assert np.array_equal(decoded, data)
        assert not corrected.any()
        assert not uncorrectable.any()

    @EXHAUSTIVE_WIDTHS
    @EXHAUSTIVE_CODES
    def test_every_single_bit_error_is_corrected(self, data_bits, extended):
        code = HammingCode(data_bits, extended=extended)
        data = _all_words(data_bits)
        codewords = code.encode(data)
        for position in range(code.codeword_bits):
            received = codewords.copy()
            received[:, position] ^= 1
            decoded, corrected, uncorrectable = code.decode(received)
            assert np.array_equal(decoded, data), position
            assert not uncorrectable.any(), position
            if extended and position == code.codeword_bits - 1:
                # A flipped overall-parity bit leaves the Hamming syndrome
                # zero: the data is intact and nothing is corrected.
                assert not corrected.any()
            else:
                assert corrected.all(), position

    @EXHAUSTIVE_WIDTHS
    def test_sec_ded_flags_every_double_error(self, data_bits):
        code = HammingCode(data_bits, extended=True)
        codewords = code.encode(_all_words(data_bits))
        for first, second in combinations(range(code.codeword_bits), 2):
            received = codewords.copy()
            received[:, [first, second]] ^= 1
            _, corrected, uncorrectable = code.decode(received)
            assert uncorrectable.all(), (first, second)
            assert not corrected.any(), (first, second)

    @EXHAUSTIVE_WIDTHS
    @EXHAUSTIVE_CODES
    def test_table_decoder_equals_frozen_loop_on_every_received_word(
        self, data_bits, extended
    ):
        code = HammingCode(data_bits, extended=extended)
        received = _all_words(code.codeword_bits)
        for table, loop in zip(code.decode(received), _loop_decode(code, received)):
            assert table.dtype == loop.dtype
            assert np.array_equal(table, loop)

    def test_shortened_sec_flags_its_unused_syndrome(self):
        # 10 data bits use 10 of the 11 weight>=2 syndromes of r = 4; the
        # remaining one, 0b1111, is reported rather than miscorrected.
        code = HammingCode(10)
        received = code.encode(np.zeros((1, 10), dtype=np.int8))
        received[0, 10:] = 1  # all four parity bits flipped: syndrome 0b1111
        decoded, corrected, uncorrectable = code.decode(received)
        assert uncorrectable[0] and not corrected[0]
        assert not decoded.any()


class TestYieldModel:
    def test_eq1_matches_eq2_at_zero_defects(self):
        assert defect_free_yield(1e-4, 10_000) == pytest.approx(
            acceptance_yield(1e-4, 10_000, 0), rel=1e-9
        )

    def test_yield_increases_with_accepted_defects(self):
        values = acceptance_yield_curve(1e-3, 50_000, np.array([0, 10, 50, 100]))
        assert np.all(np.diff(values) >= 0)

    def test_paper_anchor_pcell_1e3(self):
        """Pcell=1e-3 on a 200 Kb array needs ~0.1% accepted defects for 95% yield."""
        array_size = 200 * 1024
        needed = min_defects_for_yield(1e-3, array_size, 0.95)
        assert 0.0008 < needed / array_size < 0.0015

    def test_min_defects_consistent_with_yield(self):
        needed = min_defects_for_yield(1e-3, 10_000, 0.9)
        assert acceptance_yield(1e-3, 10_000, needed) >= 0.9
        if needed > 0:
            assert acceptance_yield(1e-3, 10_000, needed - 1) < 0.9

    def test_acceptance_yield_bounds(self):
        assert acceptance_yield(0.5, 100, 100) == 1.0
        assert 0.0 <= acceptance_yield(0.5, 100, 10) <= 1.0

    @given(
        st.floats(min_value=1e-6, max_value=0.1),
        st.integers(min_value=10, max_value=5000),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=50, deadline=None)
    def test_yield_is_probability_property(self, pcell, size, defects):
        value = acceptance_yield(pcell, size, defects)
        assert 0.0 <= value <= 1.0
        assert value >= defect_free_yield(pcell, size) - 1e-12


class TestHybridAndPower:
    def test_area_model_orderings(self):
        model = AreaModel()
        assert model.robust_array_area(100, 10) > model.plain_array_area(100, 10)
        assert model.hybrid_overhead(10, 0) == pytest.approx(0.0)
        assert model.hybrid_overhead(10, 10) == pytest.approx(0.30, abs=0.01)
        assert model.ecc_overhead(10, 14) > 0.35

    def test_power_scales_with_voltage_squared(self):
        model = PowerModel(dynamic_fraction=1.0)
        assert model.relative_power(0.5) == pytest.approx(0.25)

    def test_power_saving_at_08v(self):
        model = PowerModel()
        saving = model.power_saving(0.8)
        assert 0.25 <= saving <= 0.45

    def test_hybrid_power_between_pure_arrays(self):
        model = PowerModel()
        hybrid = model.hybrid_relative_power(0.8, 10, 4)
        all_6t = model.relative_power(0.8, CELL_6T)
        all_8t = model.relative_power(0.8, CELL_8T)
        assert all_6t <= hybrid <= all_8t

    def test_invalid_power_model(self):
        with pytest.raises(ValueError):
            PowerModel(dynamic_fraction=1.5)
