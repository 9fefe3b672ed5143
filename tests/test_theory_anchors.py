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
* the CRC's error-detection guarantees and its undetected-error rate.

Every Monte-Carlo estimate is seeded and must fall inside a five-sigma
binomial interval around the theoretical value.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from repro.link import LinkConfig
from repro.link.receiver import Receiver
from repro.link.transmitter import Transmitter
from repro.phy.crc import CRC_8, CRC_24A
from repro.phy.modulation import get_modulator

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
