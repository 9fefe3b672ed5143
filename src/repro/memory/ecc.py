"""Hamming error-correcting codes for memory words.

Section 6.2 of the paper argues that protecting all 10 LLR bits with a
single-error-correcting (SEC) Hamming code costs about 35 % area overhead
(4 redundant bits for 10 data bits) and that higher-order ECC exceeds 50 %.
This module implements SEC and SEC-DED Hamming codes over configurable data
widths so those overheads — and the actual error-correction behaviour — can
be reproduced rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import ensure_positive_int


def _num_parity_bits(data_bits: int) -> int:
    """Minimum r with 2**r >= data_bits + r + 1 (Hamming bound for SEC)."""
    r = 1
    while (1 << r) < data_bits + r + 1:
        r += 1
    return r


@dataclass(frozen=True)
class HammingCode:
    """Systematic Hamming single-error-correcting code.

    Parameters
    ----------
    data_bits:
        Number of information bits per word (e.g. 10 for a 10-bit LLR).
    extended:
        If ``True``, add an overall parity bit for double-error detection
        (SEC-DED).

    Notes
    -----
    The code is built in systematic form: the generator matrix is
    ``[I | P]`` and codewords are ``[data | parity]``.  Decoding computes the
    syndrome, corrects at most one flipped bit and reports whether a
    correction was applied / an uncorrectable error was detected, by looking
    the syndrome up in tables built once per code.
    """

    data_bits: int = 10
    extended: bool = False

    _parity_matrix: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _column_syndromes: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _flip_rows: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _corrects: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _uncorrectable: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        ensure_positive_int(self.data_bits, "data_bits")
        r = _num_parity_bits(self.data_bits)
        # Columns of the parity-check matrix for data positions, as r-bit
        # syndromes read MSB first: the lowest patterns with weight >= 2 (so
        # they are distinct from the identity columns of the parity bits).
        data_syndromes = [v for v in range(3, 1 << r) if bin(v).count("1") >= 2]
        if len(data_syndromes) < self.data_bits:
            raise ValueError(f"data_bits={self.data_bits} too large for {r} parity bits")
        data_syndromes = np.array(data_syndromes[: self.data_bits])
        weights = 1 << np.arange(r - 1, -1, -1)
        parity_matrix = ((data_syndromes & weights[:, None]) != 0).astype(np.int8)
        # Stored in the smallest signed dtype that holds every syndrome (int8,
        # the received bits' own width, up to r = 7) to keep decode narrow.
        column_syndromes = np.concatenate([data_syndromes, weights]).astype(
            np.min_scalar_type(-(1 << r))
        )

        # Syndrome -> outcome tables of length 2**r.  A syndrome equal to a
        # data column flips that column; a weight-1 syndrome is a parity-bit
        # error (data unaffected); any other nonzero syndrome -- including
        # those a shortened code leaves unused -- is uncorrectable.
        flip_rows = np.zeros((1 << r, self.data_bits), dtype=np.int8)
        flip_rows[data_syndromes, np.arange(self.data_bits)] = 1
        corrects = flip_rows.any(axis=1)
        corrects[weights] = True
        uncorrectable = ~corrects
        uncorrectable[0] = False
        object.__setattr__(self, "_parity_matrix", parity_matrix)  # (r, data_bits)
        object.__setattr__(self, "_column_syndromes", column_syndromes)
        object.__setattr__(self, "_flip_rows", flip_rows)
        object.__setattr__(self, "_corrects", corrects)
        object.__setattr__(self, "_uncorrectable", uncorrectable)

    # ------------------------------------------------------------------ #
    @property
    def num_parity_bits(self) -> int:
        """Number of parity bits (excluding the DED bit)."""
        return int(self._parity_matrix.shape[0])

    @property
    def codeword_bits(self) -> int:
        """Total stored bits per word."""
        return self.data_bits + self.num_parity_bits + (1 if self.extended else 0)

    @property
    def overhead(self) -> float:
        """Storage overhead relative to the unprotected word."""
        return (self.codeword_bits - self.data_bits) / self.data_bits

    # ------------------------------------------------------------------ #
    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode data words.

        Parameters
        ----------
        data:
            Bit array of shape ``(num_words, data_bits)``.

        Returns
        -------
        numpy.ndarray
            Codeword bits of shape ``(num_words, codeword_bits)``.
        """
        bits = np.asarray(data, dtype=np.int8)
        if bits.ndim != 2 or bits.shape[1] != self.data_bits:
            raise ValueError(f"expected shape (n, {self.data_bits}), got {bits.shape}")
        parity = (bits @ self._parity_matrix.T) % 2
        codewords = np.concatenate([bits, parity], axis=1)
        if self.extended:
            overall = codewords.sum(axis=1, keepdims=True) % 2
            codewords = np.concatenate([codewords, overall], axis=1)
        return codewords.astype(np.int8)

    def decode(self, codewords: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode (possibly corrupted) codewords.

        Returns
        -------
        tuple
            ``(data, corrected, uncorrectable)`` — decoded data bits, a
            boolean flag per word indicating whether a single-bit correction
            was applied, and a boolean flag per word for detected-but-
            uncorrectable errors.

        Notes
        -----
        The plain SEC code sets ``uncorrectable`` exactly for the nonzero
        syndromes that match neither a data column nor a parity bit.  A full
        Hamming code has none (every double error is miscorrected instead),
        but a shortened one leaves some columns unused — for 10 data bits
        the syndrome ``0b1111``.  SEC-DED additionally flags a nonzero
        syndrome with even overall parity as a double error (``corrected``
        cleared); the data it returns still carries the flip that syndrome
        selects.
        """
        received = np.asarray(codewords, dtype=np.int8)
        if received.ndim != 2 or received.shape[1] != self.codeword_bits:
            raise ValueError(
                f"expected shape (n, {self.codeword_bits}), got {received.shape}"
            )
        body = received[:, :-1] if self.extended else received
        # The syndrome is the XOR of the parity-check columns at the received
        # 1-bits; reducing a (bits, words) product keeps the XOR vectorised
        # across words.
        index = np.bitwise_xor.reduce(
            np.multiply(body.T, self._column_syndromes[:, None], order="C"), axis=0
        )
        data = body[:, : self.data_bits] ^ np.take(self._flip_rows, index, axis=0)
        corrected = self._corrects[index]
        uncorrectable = self._uncorrectable[index]

        if self.extended:
            overall_parity = (body.sum(axis=1) + received[:, -1]) % 2
            # Even overall parity with nonzero syndrome indicates a double error.
            double_error = (index != 0) & (overall_parity == 0)
            uncorrectable |= double_error
            corrected &= ~double_error
        return data, corrected, uncorrectable

    # ------------------------------------------------------------------ #
    def word_failure_probability(self, cell_failure_probability: float) -> float:
        """Probability that a word is *not* fully corrected.

        With SEC protection a stored word fails only when two or more of its
        cells are faulty — the standard reliability-improvement computation
        the paper cites for ECC-protected arrays.
        """
        from scipy.stats import binom

        n = self.codeword_bits
        p = float(cell_failure_probability)
        return float(1.0 - binom.cdf(1, n, p))
