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


#: Width of the codeword chunks the syndrome is looked up in; linearity of
#: the syndrome lets one table of ``2**_CHUNK_BITS`` entries per chunk stand
#: in for a table over every codeword.
_CHUNK_BITS = 8


@dataclass(frozen=True)
class HammingCode:
    """Systematic Hamming single-error-correcting code over integer words.

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
    ``[I | P]`` and codewords are ``[data | parity]``, with an overall parity
    bit appended for SEC-DED.  Words are integers read MSB first, so the
    data word is the codeword's top ``data_bits`` bits.  Decoding computes
    the syndrome, corrects at most one flipped bit and reports whether a
    correction was applied / an uncorrectable error was detected, by looking
    the syndrome up in tables built once per code.
    """

    data_bits: int = 10
    extended: bool = False

    _parity_matrix: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _chunk_tables: np.ndarray = field(init=False, repr=False, compare=False, default=None)
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
        # Syndrome of each Hamming column, MSB first: data columns, then the
        # identity columns of the parity bits.
        column_syndromes = np.concatenate([data_syndromes, weights])

        # The syndrome is the XOR of the column syndromes at the word's
        # 1-bits, and the overall parity the XOR of the bits themselves, so
        # both are linear: the XOR of per-chunk entries of 2**_CHUNK_BITS
        # tables, each holding ``(syndrome << 1) | parity`` of its chunk.
        body_bits = column_syndromes.size
        num_chunks = -(-body_bits // _CHUNK_BITS)
        values = np.arange(1 << _CHUNK_BITS)
        chunk_tables = np.zeros((num_chunks, 1 << _CHUNK_BITS), dtype=np.intp)
        for column, syndrome in enumerate(column_syndromes):
            position = body_bits - 1 - column  # bit weight of the column
            chunk, bit = divmod(position, _CHUNK_BITS)
            chunk_tables[chunk] ^= np.where((values >> bit) & 1, (syndrome << 1) | 1, 0)

        # Syndrome -> outcome tables of length 2**r.  A syndrome equal to a
        # data column flips that column (``_flip_rows`` holds the data-word
        # XOR mask); a weight-1 syndrome is a parity-bit error (data
        # unaffected); any other nonzero syndrome -- including those a
        # shortened code leaves unused -- is uncorrectable.
        flip_rows = np.zeros(1 << r, dtype=np.int64)
        flip_rows[data_syndromes] = 1 << np.arange(self.data_bits - 1, -1, -1)
        corrects = flip_rows != 0
        corrects[weights] = True
        uncorrectable = ~corrects
        uncorrectable[0] = False
        object.__setattr__(self, "_parity_matrix", parity_matrix)  # (r, data_bits)
        object.__setattr__(self, "_chunk_tables", chunk_tables)
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
    def _syndromes(self, body: np.ndarray) -> np.ndarray:
        """``(syndrome << 1) | parity`` of every word of *body* (no DED bit)."""
        tables = self._chunk_tables
        packed = np.take(tables[0], body & ((1 << _CHUNK_BITS) - 1))
        for chunk in range(1, tables.shape[0]):
            part = (body >> (chunk * _CHUNK_BITS)) & ((1 << _CHUNK_BITS) - 1)
            packed ^= np.take(tables[chunk], part)
        return packed

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode integer data words into integer codewords.

        Parameters
        ----------
        data:
            Integer array (any shape) of words below ``2**data_bits``.

        Returns
        -------
        numpy.ndarray
            ``int64`` codewords of :attr:`codeword_bits` bits, same shape.
        """
        words = np.asarray(data, dtype=np.int64)
        if words.size and (words.min() < 0 or words.max() >> self.data_bits):
            raise ValueError(f"data words must fit in {self.data_bits} bits")
        body = words << self.num_parity_bits
        # The parity columns are the identity, so the parity bits that zero
        # the syndrome are the syndrome of the data part itself.
        body |= self._syndromes(body) >> 1
        if self.extended:
            # The body's syndrome is now zero: what remains is its parity.
            body = (body << 1) | self._syndromes(body)
        return body

    def decode(self, codewords: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode (possibly corrupted) integer codewords.

        Parameters
        ----------
        codewords:
            Integer array (any shape) of words below ``2**codeword_bits``.

        Returns
        -------
        tuple
            ``(data, corrected, uncorrectable)`` — decoded ``int64`` data
            words, a boolean flag per word indicating whether a single-bit
            correction was applied, and a boolean flag per word for
            detected-but-uncorrectable errors; all shaped like *codewords*.

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
        received = np.asarray(codewords, dtype=np.int64)
        if received.size and (received.min() < 0 or received.max() >> self.codeword_bits):
            raise ValueError(f"codewords must fit in {self.codeword_bits} bits")
        body = received >> 1 if self.extended else received
        packed = self._syndromes(body)
        index = packed >> 1
        data = (body >> self.num_parity_bits) ^ np.take(self._flip_rows, index)
        corrected = np.take(self._corrects, index)
        uncorrectable = np.take(self._uncorrectable, index)

        if self.extended:
            # Even overall parity with nonzero syndrome indicates a double error.
            double_error = (index != 0) & (((packed ^ received) & 1) == 0)
            uncorrectable |= double_error
            corrected &= ~double_error
        return data, corrected, uncorrectable
