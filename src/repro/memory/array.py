"""Behavioural model of an SRAM array with an explicit fault map.

The :class:`MemoryArray` is what the HARQ soft buffer is built on: it stores
fixed-width words (one per LLR) as integers, MSB first, and reads them back
through the die's fault map.  The fault map reduces to three integer masks
per word (:meth:`~repro.memory.faults.FaultMap.word_masks`), so a read-out
is ``((word & and_) | or_) ^ xor`` — the injection mechanism of the paper's
system-level fault simulator (bit-flip cells invert the stored bit, stuck-at
cells force it), as one integer operation per word, like the word-organised
array of an SRAM compiler.

Optionally the array can protect its words with a Hamming code
(:class:`~repro.memory.ecc.HammingCode`), modelling the conventional
full-ECC alternative of Section 6.2: the parity bits are stored in (and read
back through) additional columns of the same unreliable fabric, and the
code encodes and decodes the integer codewords directly.

:func:`write_rows` and :func:`read_rows` serve many arrays at once (one row
per array, the same word range in each): masks are applied once per run of
rows that share a die, and the code once per run that shares an ECC.  The
per-array methods are those functions for one row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from repro.memory.ecc import HammingCode
from repro.memory.faults import FaultMap
from repro.utils.rng import as_rng
from repro.utils.validation import ensure_positive_int, ensure_probability


@dataclass
class MemoryArray:
    """A word-organised SRAM array with fault injection on read.

    Parameters
    ----------
    num_words:
        Number of storage words (one per quantized LLR in the HARQ buffer).
    bits_per_word:
        Data bits per word (the LLR quantizer width).
    fault_map:
        Fault locations and semantics; defaults to a defect-free array.  The
        fault map must cover the *stored* word width, i.e.
        ``bits_per_word`` columns without ECC or ``ecc.codeword_bits``
        columns with ECC.
    ecc:
        Optional Hamming code protecting every word.
    soft_error_rate:
        Probability that any cell suffers a *transient* (non-persistent)
        upset per read — the paper's soft-error mechanism.  Unlike the
        persistent fault map, these flips are redrawn on every read and
        compose with the persistent faults (a flipped faulty cell flips the
        already-corrupted value).  The default 0.0 disables the mechanism
        and consumes no randomness.
    soft_error_rng:
        Seed or generator driving the per-read upsets (required for
        reproducible soft-error runs; fresh OS entropy when omitted).
    """

    num_words: int
    bits_per_word: int
    fault_map: Optional[FaultMap] = None
    ecc: Optional[HammingCode] = None
    soft_error_rate: float = 0.0
    soft_error_rng: object = None

    _words: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        ensure_positive_int(self.num_words, "num_words")
        ensure_positive_int(self.bits_per_word, "bits_per_word")
        ensure_probability(self.soft_error_rate, "soft_error_rate")
        if self.soft_error_rate > 0.0:
            self.soft_error_rng = as_rng(self.soft_error_rng)
        if self.ecc is not None and self.ecc.data_bits != self.bits_per_word:
            raise ValueError(
                f"ECC data width {self.ecc.data_bits} does not match "
                f"bits_per_word {self.bits_per_word}"
            )
        if self.fault_map is None:
            self.fault_map = FaultMap.empty(self.num_words, self.stored_bits_per_word)
        if self.fault_map.num_words != self.num_words:
            raise ValueError(
                f"fault map covers {self.fault_map.num_words} words, array has {self.num_words}"
            )
        if self.fault_map.bits_per_word != self.stored_bits_per_word:
            raise ValueError(
                f"fault map covers {self.fault_map.bits_per_word} bit columns, "
                f"array stores {self.stored_bits_per_word}"
            )
        self._words = np.zeros(self.num_words, dtype=np.int64)

    # ------------------------------------------------------------------ #
    @property
    def stored_bits_per_word(self) -> int:
        """Physical columns per word (data bits, plus parity bits with ECC)."""
        return self.ecc.codeword_bits if self.ecc is not None else self.bits_per_word

    @property
    def num_cells(self) -> int:
        """Total number of bit cells in the array."""
        return self.num_words * self.stored_bits_per_word

    @property
    def defect_rate(self) -> float:
        """Fraction of faulty cells in the array."""
        return self.fault_map.defect_rate

    # ------------------------------------------------------------------ #
    def write_words(self, words: np.ndarray) -> None:
        """Write :attr:`num_words` unsigned word values, each of ``bits_per_word`` bits."""
        values = np.asarray(words)
        if values.shape != (self.num_words,):
            raise ValueError(f"expected {self.num_words} words, got {values.shape}")
        write_rows([self], 0, values[None])

    def read_words(self) -> np.ndarray:
        """Read back every word (fault injection, upsets and ECC applied)."""
        return read_rows([self], 0, self.num_words)[0]

    def clear(self) -> None:
        """Reset the stored contents to all zeros (fault map unchanged)."""
        self._words.fill(0)


# --------------------------------------------------------------------------- #
def _runs(arrays: Sequence[MemoryArray], key):
    """``(lo, hi, arrays[lo])`` for each maximal run of equal ``key(array)``.

    Rows of one die (or one code) are contiguous in a batch, so each die's
    masks and each code are applied once per batch.
    """
    keys = [key(array) for array in arrays]
    lo = 0
    for hi in range(1, len(keys) + 1):
        if hi == len(keys) or keys[hi] != keys[lo]:
            yield lo, hi, arrays[lo]
            lo = hi


def _die(array: MemoryArray) -> int:
    """Identity of the array's die read-out (shared masks, shared die)."""
    return id(array.fault_map.word_masks())


def _check_rows(arrays: Sequence[MemoryArray], start: int, stop: int) -> None:
    if not arrays:
        raise ValueError("no arrays given")
    width = arrays[0].bits_per_word
    if any(array.bits_per_word != width for array in arrays):
        raise ValueError("arrays must share one word width")
    if not 0 <= start <= stop <= min(array.num_words for array in arrays):
        raise ValueError(f"invalid word range [{start}, {stop})")


def write_rows(arrays: Sequence[MemoryArray], start: int, words: np.ndarray) -> None:
    """Write row ``i`` of the *words* matrix into ``arrays[i]`` at *start*.

    *words* has one row per array, of unsigned values that fit in the
    arrays' common ``bits_per_word``; protected arrays store the codewords.
    """
    values = np.array(words, dtype=np.int64)
    if values.ndim != 2 or values.shape[0] != len(arrays):
        raise ValueError(f"expected {len(arrays)} rows of words, got shape {values.shape}")
    stop = start + values.shape[1]
    _check_rows(arrays, start, stop)
    if values.size and (values.min() < 0 or values.max() >> arrays[0].bits_per_word):
        raise ValueError(f"word values must fit in {arrays[0].bits_per_word} bits")
    for lo, hi, array in _runs(arrays, attrgetter("ecc")):
        if array.ecc is not None:
            values[lo:hi] = array.ecc.encode(values[lo:hi])
    for array, row in zip(arrays, values):
        array._words[start:stop] = row


def read_rows(arrays: Sequence[MemoryArray], start: int, stop: int) -> np.ndarray:
    """Read ``[start, stop)`` of every array, one row per array.

    Each run of rows sharing a die reads through that die's word masks in
    one operation.  Arrays with transient upsets then draw theirs, in row
    order, as ``rng.random((words, stored_bits)) < rate`` packed MSB first
    and XORed on; finally each run sharing a code is ECC-decoded at once.
    Returns the data words as an ``int64`` matrix.
    """
    _check_rows(arrays, start, stop)
    words = np.stack([array._words[start:stop] for array in arrays])
    for lo, hi, array in _runs(arrays, _die):
        and_, or_, xor = (mask[start:stop] for mask in array.fault_map.word_masks())
        block = words[lo:hi]
        np.bitwise_and(block, and_, out=block)
        np.bitwise_or(block, or_, out=block)
        np.bitwise_xor(block, xor, out=block)
    for row, array in enumerate(arrays):
        if array.soft_error_rate > 0.0:
            width = array.stored_bits_per_word
            upsets = array.soft_error_rng.random((stop - start, width)) < array.soft_error_rate
            words[row] ^= upsets @ (1 << np.arange(width - 1, -1, -1, dtype=np.int64))
    for lo, hi, array in _runs(arrays, attrgetter("ecc")):
        if array.ecc is not None:
            words[lo:hi] = array.ecc.decode(words[lo:hi])[0]
    return words

