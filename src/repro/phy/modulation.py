"""Gray-mapped QAM modulation and soft (LLR) demapping.

HSDPA uses QPSK and 16QAM; HSPA+ adds 64QAM, which is the mode the paper
evaluates ("the most noise-sensitive, high throughput 64QAM modulation
mode").  The demapper produces per-bit log-likelihood ratios with the
max-log approximation, matching the soft receiver described in Section 2.1.

LLR sign convention
-------------------
``LLR = log P(bit = 0) - log P(bit = 1)`` (up to the max-log approximation),
so a *positive* LLR favours bit 0.  The turbo decoder and the HARQ combiner
use the same convention throughout the library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.utils.validation import ensure_bit_array, ensure_positive_int


def bits_to_symbols_matrix(bits: np.ndarray, bits_per_symbol: int) -> np.ndarray:
    """Reshape a flat bit stream into a (num_symbols, bits_per_symbol) matrix.

    Pads with zeros if the length is not a multiple of *bits_per_symbol*.
    """
    arr = ensure_bit_array(bits)
    bits_per_symbol = ensure_positive_int(bits_per_symbol, "bits_per_symbol")
    remainder = arr.size % bits_per_symbol
    if remainder:
        pad = bits_per_symbol - remainder
        arr = np.concatenate([arr, np.zeros(pad, dtype=np.int8)])
    return arr.reshape(-1, bits_per_symbol)


def _gray_pam_levels(bits_per_axis: int) -> np.ndarray:
    """Amplitude levels of a Gray-coded PAM constellation, indexed by bit pattern.

    Returns an array ``levels`` such that ``levels[b]`` is the (unnormalised)
    amplitude transmitted for the integer bit pattern ``b`` read MSB-first,
    with adjacent amplitudes differing in exactly one bit (Gray property).
    """
    m = 1 << bits_per_axis
    # Natural-order amplitudes: -(m-1), -(m-3), ..., (m-1)
    amplitudes = np.arange(-(m - 1), m, 2, dtype=np.float64)
    # Position k in amplitude order carries Gray codeword k ^ (k >> 1).
    gray = np.arange(m) ^ (np.arange(m) >> 1)
    levels = np.empty(m, dtype=np.float64)
    levels[gray] = amplitudes
    return levels


@dataclass(frozen=True)
class Modulator:
    """Square-QAM Gray modulator/demodulator.

    Parameters
    ----------
    bits_per_symbol:
        2 (QPSK), 4 (16QAM) or 6 (64QAM).

    The constellation is normalised to unit average symbol energy.  Bits are
    mapped alternately to the I and Q axes: even-indexed bits of a symbol's
    bit group drive the in-phase amplitude and odd-indexed bits the
    quadrature amplitude, each Gray-coded per axis.
    """

    bits_per_symbol: int
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        ensure_positive_int(self.bits_per_symbol, "bits_per_symbol")
        if self.bits_per_symbol % 2 or self.bits_per_symbol < 2:
            raise ValueError(
                f"bits_per_symbol must be a positive even number, got {self.bits_per_symbol}"
            )
        if not self.name:
            object.__setattr__(self, "name", f"{1 << self.bits_per_symbol}QAM")

    # ------------------------------------------------------------------ #
    # constellation geometry
    # ------------------------------------------------------------------ #
    @property
    def bits_per_axis(self) -> int:
        """Number of bits mapped onto each of the I and Q axes."""
        return self.bits_per_symbol // 2

    @property
    def normalization(self) -> float:
        """Scale factor giving unit average symbol energy."""
        m_axis = 1 << self.bits_per_axis
        # Mean square of PAM levels {±1, ±3, ...}: (m^2 - 1) / 3 per axis.
        es = 2.0 * (m_axis**2 - 1) / 3.0
        return 1.0 / np.sqrt(es)

    def _axis_levels(self) -> np.ndarray:
        return _gray_pam_levels(self.bits_per_axis)

    # ------------------------------------------------------------------ #
    # modulation
    # ------------------------------------------------------------------ #
    def modulate(self, bits: np.ndarray) -> np.ndarray:
        """Map a flat bit stream to complex symbols (vectorised).

        The bit stream is zero-padded to a multiple of :attr:`bits_per_symbol`.
        """
        groups = bits_to_symbols_matrix(ensure_bit_array(bits), self.bits_per_symbol)
        levels = self._axis_levels()
        i_bits = groups[:, 0::2].astype(np.int64)
        q_bits = groups[:, 1::2].astype(np.int64)
        weights = 1 << np.arange(self.bits_per_axis - 1, -1, -1, dtype=np.int64)
        i_idx = i_bits @ weights
        q_idx = q_bits @ weights
        return self.normalization * (levels[i_idx] + 1j * levels[q_idx])

    # ------------------------------------------------------------------ #
    # demodulation
    # ------------------------------------------------------------------ #
    def demodulate_soft(
        self,
        symbols: np.ndarray,
        noise_variance: float | np.ndarray = 1.0,
    ) -> np.ndarray:
        """Max-log LLR demapping of received symbols.

        Parameters
        ----------
        symbols:
            Received (equalized) complex symbols.
        noise_variance:
            Effective complex-noise variance per symbol (scalar or per-symbol
            array).  The per-axis variance is half of this value.

        Returns
        -------
        numpy.ndarray
            Flat float64 array of LLRs, ``bits_per_symbol`` per input symbol,
            with ``LLR > 0`` favouring bit 0.
        """
        y = np.asarray(symbols, dtype=np.complex128).reshape(-1)
        n0 = np.broadcast_to(np.asarray(noise_variance, dtype=np.float64), y.shape)
        n0 = np.maximum(n0, 1e-12)
        levels = self._axis_levels() * self.normalization
        llr_i = self._axis_llrs(y.real, levels, n0 / 2.0)
        llr_q = self._axis_llrs(y.imag, levels, n0 / 2.0)
        # Interleave: even bit positions from I axis, odd from Q axis.
        out = np.empty((y.size, self.bits_per_symbol), dtype=np.float64)
        out[:, 0::2] = llr_i
        out[:, 1::2] = llr_q
        return out.reshape(-1)

    def _axis_llrs(
        self, received: np.ndarray, levels: np.ndarray, axis_var: np.ndarray
    ) -> np.ndarray:
        """Per-axis max-log LLRs for all bits mapped to one PAM axis."""
        b = self.bits_per_axis
        m = levels.size
        # Squared distances to each PAM level: shape (num_symbols, m).
        dist = (received[:, None] - levels[None, :]) ** 2
        metrics = -dist / (2.0 * axis_var[:, None])
        llrs = np.empty((received.size, b), dtype=np.float64)
        patterns = np.arange(m)
        for bit in range(b):
            mask0 = ((patterns >> (b - 1 - bit)) & 1) == 0
            max0 = metrics[:, mask0].max(axis=1)
            max1 = metrics[:, ~mask0].max(axis=1)
            llrs[:, bit] = max0 - max1
        return llrs


#: Modulators keyed by their 3GPP-style names.
MODULATIONS: Dict[str, Modulator] = {
    "QPSK": Modulator(2, name="QPSK"),
    "16QAM": Modulator(4, name="16QAM"),
    "64QAM": Modulator(6, name="64QAM"),
}


def get_modulator(name: str) -> Modulator:
    """Look up a modulator by name (``"QPSK"``, ``"16QAM"`` or ``"64QAM"``)."""
    try:
        return MODULATIONS[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown modulation {name!r}; choose from {sorted(MODULATIONS)}"
        ) from exc
