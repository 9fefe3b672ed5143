"""Tests for the unreliable-silicon substrate (cells, faults, arrays, ECC, yield)."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.array import MemoryArray, read_rows
from repro.memory.cells import (
    CELL_6T,
    CELL_6T_UPSIZED,
    CELL_8T,
    CELL_TYPES,
    BitCellType,
    SoftErrorModel,
)
from repro.memory.ecc import HammingCode
from repro.memory.faults import FaultMap, FaultModel
from repro.memory.power import AreaModel, PowerModel
from repro.memory.yield_model import (
    acceptance_yield,
    acceptance_yield_curve,
    min_defects_for_yield,
)


def _ones(words):
    """Number of 1-bits across integer *words*."""
    return sum(bin(int(word)).count("1") for word in words)


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
        assert CELL_TYPES["8T"] is CELL_8T

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
        assert fault_map.fault_mask[:, :4].sum() == 0
        assert fault_map.num_faults == 150

    def test_bit_flip_semantics(self, rng):
        fault_map = FaultMap.with_exact_fault_count(50, 8, 30, rng)
        array = MemoryArray(50, 8, fault_map=fault_map)
        array.write_words(np.zeros(50, dtype=np.int64))
        assert _ones(array.read_words()) == 30

    def test_stuck_at_zero_semantics(self, rng):
        fault_map = FaultMap.with_exact_fault_count(
            50, 8, 30, rng, fault_model=FaultModel.STUCK_AT_0
        )
        array = MemoryArray(50, 8, fault_map=fault_map)
        array.write_words(np.full(50, 0xFF))
        assert 8 * 50 - _ones(array.read_words()) == 30

    def test_stuck_at_one_semantics(self, rng):
        fault_map = FaultMap.with_exact_fault_count(
            50, 8, 30, rng, fault_model=FaultModel.STUCK_AT_1
        )
        array = MemoryArray(50, 8, fault_map=fault_map)
        array.write_words(np.zeros(50, dtype=np.int64))
        assert _ones(array.read_words()) == 30

    def test_stuck_at_random_requires_stuck_values(self):
        with pytest.raises(ValueError, match="required"):
            FaultMap(4, 3, np.ones((4, 3), dtype=bool), FaultModel.STUCK_AT_RANDOM)

    def test_stuck_values_of_the_wrong_shape_rejected(self):
        # Used to pass construction and fail at the first read.
        with pytest.raises(ValueError, match="shape"):
            FaultMap(
                4,
                3,
                np.ones((4, 3), dtype=bool),
                FaultModel.STUCK_AT_RANDOM,
                np.zeros((3, 4), dtype=np.int8),
            )

    @pytest.mark.parametrize("bad", [7, 2, -1])
    def test_stuck_values_outside_zero_one_rejected(self, bad):
        # Used to be read out as a word bit; as a mask it would OR in extra bits.
        stuck = np.zeros((4, 3), dtype=np.int8)
        stuck[2, 1] = bad
        with pytest.raises(ValueError, match="0 or 1"):
            FaultMap(4, 3, np.ones((4, 3), dtype=bool), FaultModel.STUCK_AT_RANDOM, stuck)

    def test_word_masks_are_computed_once_and_shared_when_fault_free(self, rng):
        fault_map = FaultMap.with_exact_fault_count(20, 6, 9, rng)
        assert fault_map.word_masks() is fault_map.word_masks()
        assert FaultMap.empty(20, 6).word_masks() is FaultMap.empty(20, 6).word_masks()

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

    def test_word_ranges_read_in_place(self, rng):
        array = MemoryArray(50, 6)
        words = rng.integers(0, 64, 50)
        array.write_words(words)
        assert np.array_equal(read_rows([array], 20, 30)[0], words[20:30])
        with pytest.raises(ValueError):
            read_rows([array], 40, 60)
        with pytest.raises(ValueError):
            array.write_words(words[:10])
        with pytest.raises(ValueError):
            array.write_words(np.full(50, 64))

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


def _pack(bits: np.ndarray) -> np.ndarray:
    """Rows of an MSB-first bit matrix as integer words."""
    return bits.astype(np.int64) @ (1 << np.arange(bits.shape[1] - 1, -1, -1))


def _column(code: HammingCode, position: int) -> int:
    """Integer weight of codeword column *position* (column 0 is the MSB)."""
    return 1 << (code.codeword_bits - 1 - position)


EXHAUSTIVE_CODES = pytest.mark.parametrize("extended", [False, True])
EXHAUSTIVE_WIDTHS = pytest.mark.parametrize("data_bits", [4, 8, 10, 11, 12])


class TestHammingCode:
    @pytest.mark.parametrize("data_bits", [4, 8, 10, 11, 12, 16])
    def test_roundtrip(self, data_bits, rng):
        code = HammingCode(data_bits)
        data = rng.integers(0, 1 << data_bits, 64)
        decoded, corrected, uncorrectable = code.decode(code.encode(data))
        assert np.array_equal(decoded, data)
        assert not corrected.any()
        assert not uncorrectable.any()

    @pytest.mark.parametrize("data_bits", [8, 10, 12])
    def test_single_error_correction(self, data_bits, rng):
        code = HammingCode(data_bits)
        data = rng.integers(0, 1 << data_bits, 128)
        codewords = code.encode(data) ^ (1 << rng.integers(0, code.codeword_bits, 128))
        decoded, corrected, _ = code.decode(codewords)
        assert np.array_equal(decoded, data)
        assert corrected.all()

    def test_ten_bit_code_uses_four_parity_bits(self):
        code = HammingCode(10)
        assert code.num_parity_bits == 4
        assert code.overhead == pytest.approx(0.4)

    def test_extended_detects_double_errors(self, rng):
        code = HammingCode(10, extended=True)
        codewords = code.encode(rng.integers(0, 1 << 10, 64))
        for i in range(codewords.shape[0]):
            for position in rng.choice(code.codeword_bits - 1, size=2, replace=False):
                codewords[i] ^= _column(code, position)
        _, _, uncorrectable = code.decode(codewords)
        assert uncorrectable.mean() > 0.9

    @pytest.mark.parametrize("extended", [False, True])
    def test_out_of_range_words_rejected(self, extended):
        code = HammingCode(10, extended=extended)
        with pytest.raises(ValueError):
            code.encode(np.array([0, 1 << 10]))
        with pytest.raises(ValueError):
            code.encode(np.array([-1]))
        with pytest.raises(ValueError):
            code.decode(np.array([0, 1 << code.codeword_bits]))
        with pytest.raises(ValueError):
            code.decode(np.array([-1]))

    @EXHAUSTIVE_CODES
    @pytest.mark.parametrize("data_bits", [4, 10])
    def test_minimum_distance(self, data_bits, extended):
        """Hamming codes have minimum distance 3; the overall parity bit makes it 4.

        The code is linear, so its minimum distance is the least weight of a
        nonzero codeword.
        """
        code = HammingCode(data_bits, extended=extended)
        codewords = code.encode(np.arange(1, 1 << data_bits))
        least_weight = min(bin(int(word)).count("1") for word in codewords)
        assert least_weight == (4 if extended else 3)

    def test_codewords_are_data_then_parity(self, rng):
        code = HammingCode(10, extended=True)
        data = rng.integers(0, 1 << 10, 64)
        assert np.array_equal(code.encode(data) >> (code.codeword_bits - 10), data)

    @EXHAUSTIVE_WIDTHS
    @EXHAUSTIVE_CODES
    def test_every_clean_word_decodes_to_itself(self, data_bits, extended):
        code = HammingCode(data_bits, extended=extended)
        data = np.arange(1 << data_bits)
        decoded, corrected, uncorrectable = code.decode(code.encode(data))
        assert np.array_equal(decoded, data)
        assert not corrected.any()
        assert not uncorrectable.any()

    @EXHAUSTIVE_WIDTHS
    @EXHAUSTIVE_CODES
    def test_every_single_bit_error_is_corrected(self, data_bits, extended):
        code = HammingCode(data_bits, extended=extended)
        data = np.arange(1 << data_bits)
        codewords = code.encode(data)
        for position in range(code.codeword_bits):
            received = codewords ^ _column(code, position)
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
        codewords = code.encode(np.arange(1 << data_bits))
        for first, second in combinations(range(code.codeword_bits), 2):
            received = codewords ^ _column(code, first) ^ _column(code, second)
            _, corrected, uncorrectable = code.decode(received)
            assert uncorrectable.all(), (first, second)
            assert not corrected.any(), (first, second)

    @EXHAUSTIVE_WIDTHS
    @EXHAUSTIVE_CODES
    def test_table_decoder_equals_frozen_loop_on_every_received_word(
        self, data_bits, extended
    ):
        """The integer-codeword decode is the bit-matrix decode, word for word.

        Every ``codeword_bits``-bit received word goes through the integer
        decoder and, unpacked MSB first, through the frozen bit-matrix loop
        decoder; data, ``corrected`` and ``uncorrectable`` must be equal.
        """
        code = HammingCode(data_bits, extended=extended)
        received = _all_words(code.codeword_bits)
        data, corrected, uncorrectable = code.decode(np.arange(1 << code.codeword_bits))
        loop_data, loop_corrected, loop_uncorrectable = _loop_decode(code, received)
        assert np.array_equal(data, _pack(loop_data))
        assert corrected.dtype == loop_corrected.dtype
        assert np.array_equal(corrected, loop_corrected)
        assert uncorrectable.dtype == loop_uncorrectable.dtype
        assert np.array_equal(uncorrectable, loop_uncorrectable)

    @EXHAUSTIVE_WIDTHS
    @EXHAUSTIVE_CODES
    def test_encode_equals_the_generator_matrix_on_every_data_word(
        self, data_bits, extended
    ):
        code = HammingCode(data_bits, extended=extended)
        bits = _all_words(data_bits)
        codewords = np.concatenate([bits, (bits @ code._parity_matrix.T) % 2], axis=1)
        if extended:
            overall = codewords.sum(axis=1, keepdims=True) % 2
            codewords = np.concatenate([codewords, overall], axis=1)
        assert np.array_equal(code.encode(np.arange(1 << data_bits)), _pack(codewords))

    def test_shortened_sec_flags_its_unused_syndrome(self):
        # 10 data bits use 10 of the 11 weight>=2 syndromes of r = 4; the
        # remaining one, 0b1111, is reported rather than miscorrected.
        code = HammingCode(10)
        received = code.encode(np.zeros(1, dtype=np.int64)) ^ 0b1111  # all four parity bits
        decoded, corrected, uncorrectable = code.decode(received)
        assert uncorrectable[0] and not corrected[0]
        assert not decoded.any()


class TestYieldModel:
    def test_eq1_matches_eq2_at_zero_defects(self):
        """Eq. (1), Y = (1 - Pcell)^M, is Eq. (2) with no accepted defect."""
        assert (1.0 - 1e-4) ** 10_000 == pytest.approx(
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
        assert value >= (1.0 - pcell) ** size - 1e-12


class TestHybridAndPower:
    def test_area_model_orderings(self):
        model = AreaModel()
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

    def test_invalid_power_model(self):
        with pytest.raises(ValueError):
            PowerModel(dynamic_fraction=1.5)
