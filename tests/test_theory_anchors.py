"""Correctness anchors that do not depend on the code's own history.

Golden files prove that today's output equals yesterday's; these tests prove
that it is *right*, by holding the link's building blocks to closed-form
theory:

* uncoded Gray QPSK/16-QAM/64-QAM hard-decision BER in AWGN, through
  :class:`~repro.phy.modulation.Modulator` and
  :meth:`~repro.link.receiver.Receiver.demap_batch`, against the exact
  Q-function expression of nearest-point detection;
* uncoded QPSK (two BPSK axes) over flat Rayleigh fading with perfect-CSI
  compensation in :meth:`~repro.link.receiver.Receiver.equalize_batch`,
  against ``0.5 * (1 - sqrt(g / (1 + g)))`` and its diversity slope of one
  decade per 10 dB;
* the CRC's error-detection guarantees and its undetected-error rate;
* the fault-injection read-out of a :class:`~repro.memory.array.MemoryArray`
  (integer word masks) against a cell-by-cell reference for every fault
  model and every 10-bit word value: a bit-flip cell inverts its bit, a
  stuck-at cell forces it, and transient upsets XOR after both;
* a Hamming-SEC protected :class:`~repro.memory.array.MemoryArray` over
  i.i.d. bit-flip cells: every word with at most one faulty cell reads back
  exactly, and words with two or more occur at the binomial rate
  ``1 - (1 - p)^n - n p (1 - p)^(n - 1)``;
* the UMTS constituent code: the RSC parity stream of every input of up
  to 12 bits equals GF(2) power-series division by the octal 13 / 15
  generators, ``p(D) = u(D) g1(D) / g0(D)``, and the feedback tail drives
  every state to 0;
* every SISO kernel (numpy and native, float64 and float32) returns, for
  blocks of up to 10 bits, exactly the max-log APP that brute-force
  enumeration of every input path through the trellis defines;
* the QPP internal interleaver of every block size a scale preset uses is
  a permutation, and its ``(f1, f2)`` meet Takeshita's conditions;
* the ``scipy.special`` ufuncs the package evaluates in place of
  ``scipy.stats.norm`` (``ndtr(-x)`` for ``norm.sf(x)``, ``ndtri(q)`` for
  ``norm.ppf(q)``) return the same bits, so a scipy release that breaks the
  identity fails here instead of moving a golden.

Every Monte-Carlo estimate is seeded and must fall inside a five-sigma
binomial interval around the theoretical value.
"""

import math
from itertools import combinations

import numpy as np
import pytest
from scipy import special, stats

from repro.core.montecarlo import two_sided_z
from repro.experiments.scales import SCALES
from repro.link import LinkConfig
from repro.link.receiver import Receiver
from repro.link.transmitter import Transmitter
from repro.memory.array import MemoryArray
from repro.memory.cells import CELL_6T, CELL_TYPES
from repro.memory.ecc import HammingCode
from repro.memory.faults import FaultMap, FaultModel
from repro.phy.crc import CRC_8, CRC_24A
from repro.phy.modulation import get_modulator
from repro.phy.turbo.backends import create_backend, resolve_backend
from repro.phy.turbo.interleaver import _valid_qpp_parameters
from repro.phy.turbo.trellis import UMTS_TRELLIS

#: Width of the binomial acceptance interval, in standard deviations.
SIGMAS = 5.0


def q_function(x: float) -> float:
    """Gaussian tail probability ``Q(x) = P(N(0, 1) > x)``."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def gray_qam_ber(bits_per_symbol: int, es_over_n0: float) -> float:
    """Exact hard-decision BER of unit-energy Gray square QAM in complex AWGN.

    Each axis is an ``L``-PAM with levels ``(2k - L + 1) * d`` carrying the
    binary-reflected Gray label ``k ^ (k >> 1)``; ``d`` sets ``Es = 1`` and
    the per-axis noise variance is ``N0 / 2``.  A transmitted level ``i`` is
    detected as level ``j`` when the noise lands between ``j``'s decision
    midpoints, with probability ``Q((lo - x_i) / s) - Q((hi - x_i) / s)``;
    the BER is the label Hamming distance averaged over every ``(i, j)``.
    """
    bits_per_axis = bits_per_symbol // 2
    levels = 1 << bits_per_axis
    d = math.sqrt(3.0 / (2.0 * (levels**2 - 1)))
    sigma = math.sqrt(1.0 / (2.0 * es_over_n0))
    amplitudes = [(2 * k - levels + 1) * d for k in range(levels)]
    errors = 0.0
    for i, sent in enumerate(amplitudes):
        for j, decided in enumerate(amplitudes):
            lower = -math.inf if j == 0 else decided - d
            upper = math.inf if j == levels - 1 else decided + d
            p_lower = 1.0 if lower == -math.inf else q_function((lower - sent) / sigma)
            p_upper = 0.0 if upper == math.inf else q_function((upper - sent) / sigma)
            distance = bin((i ^ (i >> 1)) ^ (j ^ (j >> 1))).count("1")
            errors += (p_lower - p_upper) * distance
    return errors / (levels * bits_per_axis)


def rayleigh_bpsk_ber(eb_over_n0: float) -> float:
    """BPSK (per-axis QPSK) BER over flat Rayleigh fading with coherent detection."""
    return 0.5 * (1.0 - math.sqrt(eb_over_n0 / (1.0 + eb_over_n0)))


def assert_binomial(errors: int, trials: int, p: float) -> None:
    """``errors`` is within ``SIGMAS`` standard deviations of ``trials * p``."""
    spread = SIGMAS * math.sqrt(trials * p * (1.0 - p)) + 1.0
    assert abs(errors - trials * p) <= spread, (errors, trials * p, spread)


def _receiver(modulation: str) -> Receiver:
    config = LinkConfig(modulation=modulation)
    return Receiver(config, Transmitter(config))


def _db(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


# --------------------------------------------------------------------------- #
class TestClosedForms:
    """The reference expressions reduce to the textbook special cases."""

    @pytest.mark.parametrize("es_n0_db", [0.0, 6.0, 10.0])
    def test_qpsk_is_q_of_sqrt_es_over_n0(self, es_n0_db):
        es_n0 = _db(es_n0_db)
        assert gray_qam_ber(2, es_n0) == pytest.approx(q_function(math.sqrt(es_n0)), rel=1e-12)

    @pytest.mark.parametrize("es_n0_db", [6.0, 12.0, 16.0])
    def test_16qam_matches_textbook_form(self, es_n0_db):
        x = math.sqrt(_db(es_n0_db) / 5.0)
        textbook = (3 * q_function(x) + 2 * q_function(3 * x) - q_function(5 * x)) / 4
        assert gray_qam_ber(4, _db(es_n0_db)) == pytest.approx(textbook, rel=1e-12)

    def test_rayleigh_slope_is_one_decade_per_10_db(self):
        slope = math.log10(rayleigh_bpsk_ber(_db(20.0)) / rayleigh_bpsk_ber(_db(30.0)))
        assert slope == pytest.approx(1.0, abs=0.01)


# --------------------------------------------------------------------------- #
class TestUncodedAwgnBer:
    @pytest.mark.parametrize(
        "modulation,es_n0_db",
        [
            ("QPSK", 4.0),
            ("QPSK", 8.0),
            ("16QAM", 10.0),
            ("16QAM", 14.0),
            ("64QAM", 16.0),
            ("64QAM", 20.0),
        ],
    )
    def test_hard_decision_ber_matches_q_function(self, modulation, es_n0_db):
        receiver = _receiver(modulation)
        modulator = get_modulator(modulation)
        rows = 600
        num_symbols = receiver.config.symbols_per_transmission
        num_bits = num_symbols * modulator.bits_per_symbol
        rng = np.random.default_rng(2012)
        bits = rng.integers(0, 2, (rows, num_bits), dtype=np.int8)
        symbols = modulator.modulate(bits.reshape(-1)).reshape(rows, num_symbols)
        n0 = 1.0 / _db(es_n0_db)
        noise = rng.normal(0.0, math.sqrt(n0 / 2.0), (2, rows, num_symbols))
        received = symbols + noise[0] + 1j * noise[1]
        llrs = receiver.demap_batch(received, np.full(rows, n0))
        errors = int(np.count_nonzero((llrs[:, :num_bits] < 0) != bits))
        assert_binomial(errors, bits.size, gray_qam_ber(modulator.bits_per_symbol, 1.0 / n0))


# --------------------------------------------------------------------------- #
class TestRayleighBer:
    def test_qpsk_over_flat_rayleigh_and_diversity_slope(self):
        """Perfect-CSI QPSK over independent flat Rayleigh gains per symbol.

        The receiver equalizes a unit channel, divides out each symbol's
        fading gain and demaps with the per-symbol noise variance; the
        measured BER must follow the closed form at every point, and the
        20 -> 30 dB drop must be one decade (diversity order one).
        """
        receiver = _receiver("QPSK")
        num_symbols = receiver.config.symbols_per_transmission
        num_bits = 2 * num_symbols
        rows = 1200
        rng = np.random.default_rng(2012)
        measured = {}
        for eb_n0_db in (10.0, 20.0, 30.0):
            bits = rng.integers(0, 2, (rows, num_bits), dtype=np.int8)
            symbols = receiver.config.modulator.modulate(bits.reshape(-1)).reshape(
                rows, num_symbols
            )
            draws = rng.normal(0.0, math.sqrt(0.5), (4, rows, num_symbols))
            gains = draws[0] + 1j * draws[1]
            n0 = 1.0 / (2.0 * _db(eb_n0_db))  # Es = 2 Eb = 1
            noise = math.sqrt(n0) * (draws[2] + 1j * draws[3])
            recovered, effective_noise = receiver.equalize_batch(
                gains * symbols + noise,
                np.ones((rows, 1)),
                np.full(rows, n0),
                fading_gains=gains,
            )
            llrs = receiver.demap_batch(recovered, effective_noise)
            errors = int(np.count_nonzero((llrs[:, :num_bits] < 0) != bits))
            assert_binomial(errors, bits.size, rayleigh_bpsk_ber(_db(eb_n0_db)))
            measured[eb_n0_db] = errors / bits.size
        slope = math.log10(measured[20.0] / measured[30.0])
        assert slope == pytest.approx(1.0, abs=0.15)


# --------------------------------------------------------------------------- #
class TestCrcGuarantees:
    def _codeword(self, num_payload_bits: int) -> np.ndarray:
        rng = np.random.default_rng(2012)
        payload = rng.integers(0, 2, (1, num_payload_bits), dtype=np.int8)
        return CRC_24A.attach_batch(payload)[0]

    def _undetected(self, codeword: np.ndarray, positions) -> int:
        patterns = np.zeros((len(positions), codeword.size), dtype=np.int8)
        for row, flipped in enumerate(positions):
            patterns[row, list(flipped)] = 1
        return int(np.count_nonzero(CRC_24A.check_batch(codeword ^ patterns)))

    def test_crc24a_detects_every_single_and_double_bit_error(self):
        codeword = self._codeword(100)
        n = codeword.size
        assert self._undetected(codeword, [(i,) for i in range(n)]) == 0
        assert self._undetected(codeword, list(combinations(range(n), 2))) == 0

    def test_crc24a_detects_every_odd_weight_error(self):
        # g(1) = 0 over GF(2) — an even number of terms — means (x + 1)
        # divides g(x), so no odd-weight error polynomial is a multiple of it.
        assert sum(CRC_24A.polynomial) % 2 == 0
        short = self._codeword(16)
        assert self._undetected(short, list(combinations(range(short.size), 3))) == 0
        codeword = self._codeword(100)
        rng = np.random.default_rng(7)
        weights = 2 * rng.integers(0, codeword.size // 2, 4000) + 1
        positions = [rng.choice(codeword.size, w, replace=False) for w in weights]
        assert self._undetected(codeword, positions) == 0

    def test_crc8_random_words_pass_at_two_to_the_minus_eight(self):
        trials = 1 << 16
        words = np.random.default_rng(2012).integers(0, 2, (trials, 48), dtype=np.int8)
        passes = int(np.count_nonzero(CRC_8.check_batch(words)))
        assert_binomial(passes, trials, 2.0**-CRC_8.num_check_bits)


# --------------------------------------------------------------------------- #
WORD_BITS = 10


def cell_by_cell_read(words, fault_mask, stuck, model, upsets):
    """Read-out of each stored word, one cell at a time (column 0 = MSB).

    A faulty cell inverts its stored bit (bit-flip) or reads its stuck value
    (stuck-at); a transient upset then inverts whatever the cell read.
    """
    read = np.zeros_like(words)
    for column in range(WORD_BITS):
        shift = WORD_BITS - 1 - column
        for word in range(words.size):
            bit = (int(words[word]) >> shift) & 1
            if fault_mask[word, column]:
                if model is FaultModel.BIT_FLIP:
                    bit = 1 - bit
                elif model is FaultModel.STUCK_AT_0:
                    bit = 0
                elif model is FaultModel.STUCK_AT_1:
                    bit = 1
                else:
                    bit = int(stuck[word, column])
            if upsets[word, column]:
                bit = 1 - bit
            read[word] |= bit << shift
    return read


class TestWordMaskReadOut:
    """The word-mask read-out equals the cell semantics, for every word value."""

    @pytest.mark.parametrize("model", list(FaultModel), ids=lambda m: m.value)
    @pytest.mark.parametrize("soft_error_rate", [0.0, 0.2])
    def test_every_word_value_reads_as_its_cells_do(self, model, soft_error_rate):
        rng = np.random.default_rng(2012)
        words = np.tile(np.arange(1 << WORD_BITS), 2)  # every value, two fault patterns
        num_words = words.size
        fault_mask = rng.random((num_words, WORD_BITS)) < 0.3
        stuck = rng.integers(0, 2, (num_words, WORD_BITS), dtype=np.int8)
        fault_map = FaultMap(
            num_words,
            WORD_BITS,
            fault_mask,
            model,
            stuck if model is FaultModel.STUCK_AT_RANDOM else None,
        )
        array = MemoryArray(
            num_words,
            WORD_BITS,
            fault_map=fault_map,
            soft_error_rate=soft_error_rate,
            soft_error_rng=7,
        )
        array.write_words(words)
        # The upset draw per read: one uniform per stored cell, row-major.
        upset_rng = np.random.default_rng(7)
        for _read in range(2):
            upsets = np.zeros((num_words, WORD_BITS), dtype=bool)
            if soft_error_rate > 0.0:
                upsets = upset_rng.random((num_words, WORD_BITS)) < soft_error_rate
            expected = cell_by_cell_read(words, fault_mask, stuck, model, upsets)
            np.testing.assert_array_equal(array.read_words(), expected)


# --------------------------------------------------------------------------- #
class TestHammingProtectedArray:
    def test_sec_array_fails_exactly_on_multi_fault_words(self):
        num_words, p = 40_000, 0.02
        code = HammingCode(10)
        n = code.codeword_bits
        # Every cell is faulty independently with probability p.
        mask = np.random.default_rng(2012).random((num_words, n)) < p
        fault_map = FaultMap(num_words, n, mask, FaultModel.BIT_FLIP)
        array = MemoryArray(num_words, code.data_bits, fault_map=fault_map, ecc=code)
        written = np.random.default_rng(7).integers(0, 1 << code.data_bits, num_words)
        array.write_words(written)
        wrong = array.read_words() != written

        multi_fault = fault_map.fault_mask.sum(axis=1) >= 2
        assert not wrong[~multi_fault].any()
        word_failure = 1.0 - (1.0 - p) ** n - n * p * (1.0 - p) ** (n - 1)
        assert_binomial(int(multi_fault.sum()), num_words, word_failure)


# --------------------------------------------------------------------------- #
def _octal_polynomial(octal: int, degree: int = 3) -> np.ndarray:
    """GF(2) coefficients of an octal generator, ``D^0`` first (13 -> 1+D^2+D^3)."""
    return np.array([(octal >> (degree - j)) & 1 for j in range(degree + 1)], dtype=np.int64)


def _all_inputs(length: int) -> np.ndarray:
    """Every ``length``-bit input word, one per row, first bit first."""
    return (np.arange(1 << length)[:, None] >> np.arange(length - 1, -1, -1)) & 1


def _brute_force_app(sys_llrs, par_llrs, apriori, terminated_start):
    """Max-log APP of each bit of one block, by enumerating every input.

    Paths start in state 0, or in any state when *terminated_start* is
    false, and end anywhere.  A path's metric is
    ``sum 1/2 (Lsys + La)(1 - 2u) + 1/2 Lpar (1 - 2p)``; bit t's APP is the
    best metric with ``u_t = 0`` minus the best with ``u_t = 1``.
    """
    inputs = _all_inputs(sys_llrs.size)
    starts = [0] if terminated_start else range(UMTS_TRELLIS.num_states)
    best = np.full((2, sys_llrs.size), -np.inf)
    for start in starts:
        parity, _ = UMTS_TRELLIS.encode_bits_batch(inputs, initial_state=start)
        metric = (
            0.5 * (sys_llrs.astype(np.float64) + apriori) * (1 - 2 * inputs)
            + 0.5 * par_llrs.astype(np.float64) * (1 - 2 * parity)
        ).sum(axis=1)
        for bit in (0, 1):
            candidates = np.where(inputs == bit, metric[:, None], -np.inf)
            best[bit] = np.maximum(best[bit], candidates.max(axis=0))
    return best[0] - best[1]


def _series_divide(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """Rows ``q`` with ``q(D) * denominator(D) == numerator(D)`` mod ``D^n`` over GF(2).

    Long division of power series, lowest order first; ``denominator[0]``
    must be 1.
    """
    remainder = numerator.copy()
    quotient = np.zeros_like(remainder)
    n = remainder.shape[1]
    for k in range(n):
        quotient[:, k] = remainder[:, k]
        for j in np.flatnonzero(denominator):
            if k + j < n:
                remainder[:, k + j] ^= quotient[:, k]
    return quotient


def _multiply(rows: np.ndarray, polynomial: np.ndarray) -> np.ndarray:
    """Rows of ``u(D) * polynomial(D)`` over GF(2), truncated to the row length."""
    product = np.zeros_like(rows)
    for j in np.flatnonzero(polynomial):
        product[:, j:] ^= rows[:, : rows.shape[1] - j]
    return product


def _is_qpp_permutation_pair(f1: int, f2: int, k: int) -> bool:
    """Takeshita's conditions for ``f1 x + f2 x^2`` to permute ``Z_K``."""
    primes = [p for p in range(2, k + 1) if k % p == 0 and all(p % q for q in range(2, p))]
    if k % 2 == 0 and k % 4:
        odd = [p for p in primes if p != 2]
        return (f1 + f2) % 2 == 1 and math.gcd(f1, k // 2) == 1 and all(f2 % p == 0 for p in odd)
    return math.gcd(f1, k) == 1 and all(f2 % p == 0 for p in primes)


class TestTurboCode:
    #: Feedback and feed-forward polynomials of the UMTS RSC code.
    G0 = _octal_polynomial(0o13)
    G1 = _octal_polynomial(0o15)

    def test_generators_are_the_umts_polynomials(self):
        assert self.G0.tolist() == [1, 0, 1, 1]  # 1 + D^2 + D^3
        assert self.G1.tolist() == [1, 1, 0, 1]  # 1 + D + D^3

    @pytest.mark.parametrize("length", range(1, 13))
    def test_rsc_parity_is_polynomial_division(self, length):
        inputs = _all_inputs(length)
        parity, final_states = UMTS_TRELLIS.encode_bits_batch(inputs)
        # The register holds w(D) = u(D) / g0(D); the parity is w(D) g1(D).
        register = _series_divide(inputs, self.G0)
        np.testing.assert_array_equal(parity, _multiply(register, self.G1))
        np.testing.assert_array_equal(parity, _series_divide(_multiply(inputs, self.G1), self.G0))
        # The state is the last three register bits, most recent first.
        padded = np.hstack([np.zeros((inputs.shape[0], 3), dtype=np.int64), register])
        expected_states = 4 * padded[:, -1] + 2 * padded[:, -2] + padded[:, -3]
        np.testing.assert_array_equal(final_states, expected_states)

    def test_feedback_tail_terminates_every_state(self):
        """Three tail bits that cancel the feedback reach state 0 from anywhere."""
        prefixes = _all_inputs(6)
        words = np.hstack([prefixes, np.zeros((prefixes.shape[0], 3), dtype=np.int64)])
        register = _series_divide(prefixes, self.G0)
        for k in range(6, 9):
            # Choose u_k so the register input w_k = u_k + sum_j g0_j w_(k-j) is 0.
            feedback = sum(self.G0[j] * register[:, k - j] for j in (1, 2, 3)) % 2
            words[:, k] = feedback
            register = np.hstack([register, np.zeros((register.shape[0], 1), dtype=np.int64)])
        _, start_states = UMTS_TRELLIS.encode_bits_batch(prefixes)
        assert set(start_states.tolist()) == set(range(UMTS_TRELLIS.num_states))
        _, final_states = UMTS_TRELLIS.encode_bits_batch(words)
        assert not final_states.any()

    @pytest.mark.parametrize(
        "block_size", sorted({s.link_config().block_size for s in SCALES.values()})
    )
    def test_qpp_interleaver_is_a_takeshita_permutation(self, block_size):
        f1, f2 = _valid_qpp_parameters(block_size)
        assert _is_qpp_permutation_pair(f1, f2, block_size)
        config = SCALES["smoke"].link_config().with_updates(
            payload_bits=block_size - 16, crc_bits=16
        )
        permutation = Transmitter(config).turbo.encoder.interleaver.permutation
        i = np.arange(block_size)
        np.testing.assert_array_equal(permutation, (f1 * i + f2 * i * i) % block_size)
        np.testing.assert_array_equal(np.sort(permutation), i)

    @pytest.mark.parametrize("backend", ["numpy", "native", "numpy-f32", "native-f32"])
    @pytest.mark.parametrize("terminated_start", [True, False])
    @pytest.mark.parametrize("block_size", [1, 3, 6, 10])
    def test_siso_is_the_brute_force_max_log_app(
        self, backend, terminated_start, block_size
    ):
        """Every SISO kernel returns the max-log APP of its definition, exactly.

        With even-integer LLRs every path metric is an exact integer in
        float32 and float64 alike, so ``array_equal`` holds, not closeness.
        """
        spec = resolve_backend(backend, warn=False)
        if spec.name != backend:
            pytest.skip(f"{backend} is not available here")
        rng = np.random.default_rng(block_size + 10 * terminated_start)
        drawn = (2.0 * rng.integers(-8, 9, (3, 3, block_size))).astype(spec.dtype)
        # Step-major (block_size, batch) inputs: one packet per column.
        sys_llrs, par_llrs, apriori = np.ascontiguousarray(drawn.transpose(0, 2, 1))
        kernel = create_backend(backend, UMTS_TRELLIS, block_size)
        got = kernel.siso(
            sys_llrs, par_llrs, apriori, np.empty_like(sys_llrs),
            terminated_start=terminated_start,
        )
        want = np.stack(
            [
                _brute_force_app(
                    sys_llrs[:, col], par_llrs[:, col], apriori[:, col], terminated_start
                )
                for col in range(3)
            ],
            axis=1,
        )
        assert np.array_equal(got, want.astype(spec.dtype)), (got, want)

    def test_takeshita_check_rejects_non_permutations(self):
        """The condition check is not vacuous: it agrees with brute force."""
        for k in (8, 10, 12, 15, 18, 20):
            for f1 in range(1, k):
                for f2 in range(k):
                    i = np.arange(k)
                    permutes = np.unique((f1 * i + f2 * i * i) % k).size == k
                    assert _is_qpp_permutation_pair(f1, f2, k) == permutes, (k, f1, f2)


# --------------------------------------------------------------------------- #
def assert_same_bits(actual, expected) -> None:
    """Bitwise equality of float64 arrays: signed zeros and NaNs included."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    different = actual.view(np.uint64) != expected.view(np.uint64)
    assert not different.any(), (actual[different][:5], expected[different][:5])


#: Supply voltages of the ``ecc-low-voltage`` scenario axis.
SCENARIO_VDDS = (0.60, 0.66, 0.70, 0.75, 0.80)


class TestScipySubstitutions:
    """``scipy.special`` ufuncs stand in for ``scipy.stats.norm``, bit for bit."""

    def _margins(self) -> np.ndarray:
        vdds = np.concatenate([np.linspace(0.3, 1.4, 1101), SCENARIO_VDDS, [1.0]])
        margins = [
            cell.margin_slope_per_volt * (vdds - cell.zero_margin_voltage)
            for cell in CELL_TYPES.values()
        ]
        grid = np.linspace(-10.0, 10.0, 200_001)
        return np.concatenate(margins + [grid, [0.0, -0.0, 1e-300, -1e-300]])

    def test_ndtr_of_minus_x_is_norm_sf(self):
        margins = self._margins()
        assert_same_bits(special.ndtr(-margins), stats.norm.sf(margins))

    def test_cell_failure_probability_keeps_norm_sf_bits(self):
        # The 1e-9 tail of the 6T cell at nominal supply is in the grid.
        assert 1e-10 < CELL_6T.failure_probability(1.0) < 1e-8
        for cell in CELL_TYPES.values():
            for vdd in (*SCENARIO_VDDS, 0.3, 0.5, 1.0, 1.4):
                margin = cell.margin_slope_per_volt * (vdd - cell.zero_margin_voltage)
                assert_same_bits(cell.failure_probability(vdd), float(stats.norm.sf(margin)))

    def test_ndtri_is_norm_ppf_over_accepted_confidences(self):
        confidences = np.concatenate(
            [np.linspace(0.0, 1.0, 100_001)[1:-1], [1e-12, 0.5, 0.9, 0.95, 0.99, 0.999]]
        )
        quantiles = 0.5 + confidences / 2.0
        assert_same_bits(special.ndtri(quantiles), stats.norm.ppf(quantiles))
        for confidence in (0.5, 0.9, 0.95, 0.99, 0.999):
            assert_same_bits(
                two_sided_z(confidence), float(stats.norm.ppf(0.5 + confidence / 2.0))
            )
