"""Correctness anchors that do not depend on the code's own history.

Golden files prove that today's output equals yesterday's; these tests prove
that it is *right*, by holding the link's building blocks to closed-form
theory:

* uncoded Gray QPSK/16-QAM/64-QAM hard-decision BER in AWGN, through
  :class:`~repro.phy.modulation.Modulator` and
  :meth:`~repro.link.receiver.Receiver.demap_batch`, against the exact
  Q-function expression of nearest-point detection;
* the max-log soft demapper: for QPSK/16-QAM/64-QAM,
  :meth:`~repro.phy.modulation.Modulator.demodulate_soft` returns exactly
  (``array_equal``) the best bit-0 minus the best bit-1 per-axis metric
  ``-(r - a)^2 / N0`` over the binary-reflected Gray labels of the
  unit-energy PAM levels, for random received values and per-symbol noise
  variances;
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
* the UMTS constituent code: the RSC parity stream and final state of
  every input of up to 13 bits, from every start state, equal GF(2)
  power-series division by the octal 13 / 15 generators,
  ``p(D) = u(D) g1(D) / g0(D)``, and the feedback tail drives every state
  to 0;
* every SISO kernel (numpy and native, float64 and float32) returns, for
  blocks of up to 10 bits, exactly the max-log APP that brute-force
  enumeration of every input path through the trellis defines;
* the QPP internal interleaver of every block size a scale preset uses is
  a permutation, and its ``(f1, f2)`` meet Takeshita's conditions;
* the multipath channel: every row of
  :meth:`~repro.channel.multipath.MultipathChannel.apply_batch` is the
  tapped-delay-line output its definition gives from the packet's own
  ``Generator.normal`` draws (I then Q gains, I then Q noise), with the
  linear SNR taken by Python's scalar power, signed zeros included;
* the package's pure-Python Cephes port of the normal CDF and quantile
  (:mod:`repro.utils.normal`) returns the same bits as ``scipy.special``'s
  ``ndtr``/``ndtri`` (and its ``erf``/``erfc`` as theirs) on dense grids,
  on both sides of every branch threshold, in the underflow tail and on
  signed zeros, infinities, NaN and subnormals; and those ufuncs are still
  ``scipy.stats.norm.sf``/``ppf`` bit for bit, so a scipy release that
  breaks the identity fails here instead of moving a golden.

Every Monte-Carlo estimate is seeded and must fall inside a five-sigma
binomial interval around the theoretical value.
"""

import math
from itertools import combinations

import numpy as np
import pytest
from scipy import special, stats

from repro.channel.fading import JakesFadingProcess, jakes_gains_batch
from repro.channel.multipath import PROFILES, MultipathChannel
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
from repro.utils import normal

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
def _reflected_gray_labels(bits: int) -> list:
    """Binary-reflected Gray labels in ascending amplitude order.

    ``L(n + 1) = L(n)`` followed by ``L(n)`` reversed with the new most
    significant bit set.
    """
    labels = [0]
    for n in range(bits):
        labels = labels + [(1 << n) | label for label in reversed(labels)]
    return labels


class TestSoftDemapper:
    @pytest.mark.parametrize("modulation", ["QPSK", "16QAM", "64QAM"])
    def test_llrs_are_the_max_log_definition(self, modulation):
        modulator = get_modulator(modulation)
        per_axis = modulator.bits_per_symbol // 2
        m = 1 << per_axis
        labels = np.array(_reflected_gray_labels(per_axis))
        positions = np.arange(-(m - 1), m, 2, dtype=np.float64)
        # Unit average symbol energy: E|s|^2 = 2 E[a^2] over both axes.
        amplitudes = positions * (1.0 / np.sqrt(2.0 * np.mean(positions**2)))

        # The transmit map puts even symbol bits on I and odd ones on Q,
        # each axis' bits read most significant first as a Gray label.
        patterns = np.arange(1 << modulator.bits_per_symbol)
        symbol_bits = (patterns[:, None] >> np.arange(modulator.bits_per_symbol)[::-1]) & 1
        weights = 1 << np.arange(per_axis)[::-1]
        at_label = dict(zip(labels.tolist(), amplitudes.tolist()))
        expected_points = [
            complex(at_label[int(row[0::2] @ weights)], at_label[int(row[1::2] @ weights)])
            for row in symbol_bits
        ]
        np.testing.assert_array_equal(
            modulator.modulate(symbol_bits.reshape(-1)), expected_points
        )

        rng = np.random.default_rng(29)
        n = 4000
        received = rng.normal(0.0, 0.8, n) + 1j * rng.normal(0.0, 0.8, n)
        received[:8] = amplitudes[rng.integers(0, m, 8)]  # exactly on a level
        n0 = rng.uniform(0.001, 2.0, n)
        expected = np.empty((n, modulator.bits_per_symbol))
        for axis, values in enumerate((received.real, received.imag)):
            metric = -((values[:, None] - amplitudes[None, :]) ** 2) / (2.0 * (n0 / 2.0))[:, None]
            for t in range(per_axis):
                is_one = ((labels >> (per_axis - 1 - t)) & 1).astype(bool)
                best0 = np.where(is_one, -np.inf, metric).max(axis=1)
                best1 = np.where(is_one, metric, -np.inf).max(axis=1)
                expected[:, 2 * t + axis] = best0 - best1
        np.testing.assert_array_equal(
            modulator.demodulate_soft(received, n0), expected.reshape(-1)
        )


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

    @pytest.mark.parametrize("length", [13, 30])
    @pytest.mark.parametrize("start", range(UMTS_TRELLIS.num_states))
    def test_rsc_from_any_state_is_polynomial_division(self, length, start):
        """Encoding from state s is encoding from 0 after inputs that load s.

        State ``4 w_(k) + 2 w_(k-1) + w_(k-2)`` holds the last three register
        bits, so the register prefix ``(s & 1, s >> 1 & 1, s >> 2 & 1)``
        loads ``s``; its inputs are that prefix times g0(D).
        """
        if length <= 13:
            inputs = _all_inputs(length)
        else:
            inputs = np.random.default_rng(length).integers(0, 2, (512, length))
        prefix = np.array([[start & 1, start >> 1 & 1, start >> 2 & 1]])
        loading = _multiply(prefix, self.G0)
        words = np.hstack([np.repeat(loading, inputs.shape[0], axis=0), inputs])
        register = _series_divide(words, self.G0)
        np.testing.assert_array_equal(register[:, :3], np.repeat(prefix, inputs.shape[0], axis=0))

        parity, final_states = UMTS_TRELLIS.encode_bits_batch(inputs, initial_state=start)
        np.testing.assert_array_equal(parity, _multiply(register, self.G1)[:, 3:])
        expected_states = 4 * register[:, -1] + 2 * register[:, -2] + register[:, -3]
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


def ulp_neighbourhood(points, steps: int = 40) -> np.ndarray:
    """*points* and the *steps* doubles on either side of each."""
    out = [np.asarray(points, dtype=np.float64)]
    for direction in (np.inf, -np.inf):
        current = out[0]
        for _ in range(steps):
            current = np.nextafter(current, direction)
            out.append(current)
    return np.concatenate(out)


def assert_port_is_scipy(port, ufunc, inputs) -> None:
    """The scalar *port* gives *ufunc*'s bits on every one of *inputs*."""
    inputs = np.asarray(inputs, dtype=np.float64)
    assert_same_bits([port(x) for x in inputs.tolist()], ufunc(inputs))


#: Signed zeros, infinities, NaN and the smallest normal and subnormal doubles.
SPECIAL_VALUES = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 2.2250738585072014e-308, 5e-324, 1e-310, 1e-300]
)
#: Supply voltages of the ``ecc-low-voltage`` scenario axis.
SCENARIO_VDDS = (0.60, 0.66, 0.70, 0.75, 0.80)
#: Confidences an interval is asked for.
CONFIDENCES = (0.5, 0.9, 0.95, 0.99, 0.999)
#: ``sqrt(log(DBL_MAX))``: beyond it ``exp(-x^2)`` underflows and erfc is 0.
ERFC_UNDERFLOW = math.sqrt(7.09782712893383996843e2)


class TestScipySubstitutions:
    """The Cephes port equals ``scipy.special``, which equals ``scipy.stats.norm``."""

    @staticmethod
    def _cell_margins() -> np.ndarray:
        """Every cell type's margin, in sigmas, over the Vdd range and scenario axis."""
        vdds = np.concatenate([np.linspace(0.3, 1.4, 1101), SCENARIO_VDDS, [1.0]])
        return np.concatenate(
            [
                cell.margin_slope_per_volt * (vdds - cell.zero_margin_voltage)
                for cell in CELL_TYPES.values()
            ]
        )

    def _margins(self) -> np.ndarray:
        grid = np.linspace(-10.0, 10.0, 200_001)
        return np.concatenate([self._cell_margins(), grid, [0.0, -0.0, 1e-300, -1e-300]])

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
                assert_same_bits(cell.failure_probability(vdd), special.ndtr(-margin))

    def test_ndtri_is_norm_ppf_over_accepted_confidences(self):
        confidences = np.concatenate(
            [np.linspace(0.0, 1.0, 100_001)[1:-1], [1e-12, *CONFIDENCES]]
        )
        quantiles = 0.5 + confidences / 2.0
        assert_same_bits(special.ndtri(quantiles), stats.norm.ppf(quantiles))
        for confidence in CONFIDENCES:
            assert_same_bits(
                two_sided_z(confidence), float(stats.norm.ppf(0.5 + confidence / 2.0))
            )
        assert two_sided_z(0.95) == 1.959963984540054

    @pytest.mark.parametrize(
        "confidence", [0.0, 1.0, -0.5, 1.5, math.nan, 5e-324, float(np.nextafter(1.0, 0.0))]
    )
    def test_two_sided_z_rejects_degenerate_confidences(self, confidence):
        # (0, 1) is checked first; the last two pass it but round 0.5 + c / 2
        # to 0.5 (z = 0) and to 1.0 (z = inf).
        with pytest.raises(ValueError, match="confidence"):
            two_sided_z(confidence)

    def test_ndtr_port_is_scipy(self):
        # Branches in a * sqrt(1/2): erf below sqrt(1/2), then erfc's P/Q up
        # to 8 and R/S beyond, then erfc's exp underflow near |a| = 37.7.
        thresholds = np.array([1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0)])
        thresholds = np.concatenate([thresholds, [ERFC_UNDERFLOW * math.sqrt(2.0)]])
        tail = np.linspace(37.0, 38.5, 3001)
        inputs = np.concatenate(
            [
                np.linspace(-40.0, 40.0, 80_001),
                np.random.default_rng(7).uniform(-40.0, 40.0, 20_000),
                ulp_neighbourhood(np.concatenate([thresholds, -thresholds])),
                tail,
                -tail,
                SPECIAL_VALUES,
                -SPECIAL_VALUES,
                self._cell_margins(),
                -self._cell_margins(),
            ]
        )
        assert_port_is_scipy(normal.ndtr, special.ndtr, inputs)

    def test_erf_and_erfc_ports_are_scipy(self):
        # erf hands off to erfc above 1 and erfc to erf below 1; erfc's
        # approximation changes at 8 and it underflows at sqrt(MAXLOG).
        thresholds = np.array([1.0, 8.0, ERFC_UNDERFLOW])
        inputs = np.concatenate(
            [
                np.linspace(-30.0, 30.0, 30_001),
                ulp_neighbourhood(np.concatenate([thresholds, -thresholds])),
                SPECIAL_VALUES,
                -SPECIAL_VALUES,
            ]
        )
        assert_port_is_scipy(normal._erf, special.erf, inputs)
        assert_port_is_scipy(normal._erfc, special.erfc, inputs)

    def test_ndtri_port_is_scipy(self):
        # Branches in y: the central rational below exp(-2) from either end,
        # the P1/Q1 tail down to exp(-32) (sqrt(-2 log y) = 8), P2/Q2 beyond.
        rng = np.random.default_rng(11)
        tails = 10.0 ** rng.uniform(-300.0, -1.0, 20_000)
        thresholds = np.array([math.exp(-2.0), math.exp(-32.0)])
        near_one = 1.0 - 10.0 ** np.linspace(-16.0, -1.0, 3001)
        inputs = np.concatenate(
            [
                np.linspace(0.0, 1.0, 100_001),
                tails,
                1.0 - tails,
                near_one,
                ulp_neighbourhood(np.concatenate([thresholds, 1.0 - thresholds, [0.5, 1.0]])),
                0.5 + np.array(CONFIDENCES) / 2.0,
                SPECIAL_VALUES,
                -SPECIAL_VALUES,
                [2.0, -1.0],
            ]
        )
        assert_port_is_scipy(normal.ndtri, special.ndtri, inputs)
        for confidence in CONFIDENCES:
            assert_same_bits(two_sided_z(confidence), special.ndtri(0.5 + confidence / 2.0))


# --------------------------------------------------------------------------- #
def defined_channel_row(profile, sample_period_ns, signal, snr_db, generator, mean_power):
    """One packet through the multipath channel, straight from its definition.

    Gains ``(normal(0, 1) + j normal(0, 1)) * sqrt(p / 2)`` on the resampled
    tap grid (``p`` renormalised to sum to one), then noise of variance
    ``mean_power * sum |h|^2 / 10 ** (snr / 10)``, split evenly over I and Q.
    """
    indices, powers = profile.resample(sample_period_ns)
    p = powers / powers.sum()
    gains = generator.normal(0.0, 1.0, p.size) + 1j * generator.normal(0.0, 1.0, p.size)
    response = np.zeros(int(indices.max()) + 1, dtype=np.complex128)
    response[indices] = gains * np.sqrt(p / 2.0)
    convolved = np.convolve(signal, response)
    variance = mean_power * float(np.sum(np.abs(response) ** 2)) / 10.0 ** (snr_db / 10.0)
    sigma = np.sqrt(variance / 2.0)
    noise = generator.normal(0.0, sigma, convolved.size) + 1j * generator.normal(
        0.0, sigma, convolved.size
    )
    return convolved + noise, response, variance


class TestChannelDefinition:
    """``apply_batch`` rows equal the channel's definition, bit for bit."""

    @staticmethod
    def _assert_rows(profile, signals, snrs, seeds, jakes):
        channel = MultipathChannel(profile, 260.417)
        live = [np.random.default_rng(seed) for seed in seeds]
        reference = [np.random.default_rng(seed) for seed in seeds]
        mean_powers = np.array([float(np.mean(np.abs(row) ** 2)) for row in signals])
        faded = signals
        if jakes:
            # The link draws each packet's Jakes waveform first, fades the
            # samples, and accounts the SNR against the unfaded power.
            process = JakesFadingProcess(doppler_hz=120.0, sample_rate_hz=3.84e6)
            waveform = jakes_gains_batch(
                [process.realization(rng) for rng in live], 0, signals.shape[1]
            )
            assert np.array_equal(
                waveform,
                jakes_gains_batch(
                    [process.realization(rng) for rng in reference], 0, signals.shape[1]
                ),
            )
            faded = signals * waveform
            received, responses, variances = channel.apply_batch(
                faded, snrs, live, mean_signal_powers=channel.mean_signal_powers(signals)
            )
        else:
            received, responses, variances = channel.apply_batch(faded, snrs, live)
        for row, rng in enumerate(reference):
            expected = defined_channel_row(
                profile, 260.417, faded[row], float(snrs[row]), rng, mean_powers[row]
            )
            assert_same_bits(received[row].view(np.float64), expected[0].view(np.float64))
            assert_same_bits(responses[row].view(np.float64), expected[1].view(np.float64))
            assert_same_bits(variances[row], expected[2])

    @pytest.mark.parametrize("jakes", [False, True])
    @pytest.mark.parametrize("width", [1, 3, 33])
    @pytest.mark.parametrize("profile", list(PROFILES.values()), ids=list(PROFILES))
    def test_rows_are_the_definition(self, profile, width, jakes):
        rng = np.random.default_rng([width, len(profile.delays_ns), jakes])
        num_samples = int(rng.integers(1, 120))
        signals = rng.normal(size=(width, num_samples)) + 1j * rng.normal(
            size=(width, num_samples)
        )
        signals[:, ::4] = 0.0
        # Distinct, non-round SNRs; the last one repeats the first.
        snrs = rng.uniform(-10.0, 40.0, width)
        snrs[-1] = snrs[0]
        seeds = rng.integers(0, 2**32, width).tolist()
        self._assert_rows(profile, signals, snrs, seeds, jakes)
