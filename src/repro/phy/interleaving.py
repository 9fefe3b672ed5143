"""Channel interleavers.

The HSPA+ transmitter passes the encoded bit stream through an interleaver
that "generates a pseudo-random permutation of the input bit stream"
(Section 2.1).  Interleaving decorrelates burst errors — both those caused by
frequency-selective fading and, in this study, those caused by clustered
memory faults — before they reach the channel decoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from repro.utils.validation import ensure_positive_int


@dataclass(frozen=True)
class Interleaver:
    """A fixed permutation applied to equal-length sequences.

    Parameters
    ----------
    permutation:
        Array ``pi`` such that output position ``i`` carries input element
        ``pi[i]``.
    """

    permutation: np.ndarray

    def __post_init__(self) -> None:
        perm = np.asarray(self.permutation, dtype=np.int64)
        if perm.ndim != 1:
            raise ValueError("permutation must be one-dimensional")
        if not np.array_equal(np.sort(perm), np.arange(perm.size)):
            raise ValueError("permutation must be a permutation of 0..N-1")
        object.__setattr__(self, "permutation", perm)

    @property
    def size(self) -> int:
        """Block length the interleaver operates on."""
        return int(self.permutation.size)

    def interleave_batch(self, rows: np.ndarray) -> np.ndarray:
        """Permute each row of a ``(batch, size)`` matrix (any dtype)."""
        arr = np.asarray(rows)
        if arr.ndim != 2 or arr.shape[1] != self.size:
            raise ValueError(f"expected shape (batch, {self.size}), got {arr.shape}")
        return arr[:, self.permutation]

    def deinterleave_batch(self, rows: np.ndarray) -> np.ndarray:
        """Invert :meth:`interleave_batch`."""
        arr = np.asarray(rows)
        if arr.ndim != 2 or arr.shape[1] != self.size:
            raise ValueError(f"expected shape (batch, {self.size}), got {arr.shape}")
        out = np.empty_like(arr)
        out[:, self.permutation] = arr
        return out


def block_interleaver(size: int, num_columns: int = 30) -> Interleaver:
    """Row-in / column-out rectangular block interleaver (3GPP 2nd interleaver style).

    Bits are written row-by-row into a matrix with *num_columns* columns
    (padded virtually), the columns are read out in a fixed pseudo-random
    column order, and padding positions are pruned.
    """
    size = ensure_positive_int(size, "size")
    num_columns = ensure_positive_int(num_columns, "num_columns")
    num_rows = int(np.ceil(size / num_columns))
    # Column permutation pattern from TS 25.212 (2nd interleaving, 30 columns),
    # truncated/extended deterministically for other widths.
    base_pattern = [
        0, 20, 10, 5, 15, 25, 3, 13, 23, 8, 18, 28, 1, 11, 21,
        6, 16, 26, 4, 14, 24, 19, 9, 29, 12, 2, 7, 22, 27, 17,
    ]
    if num_columns <= len(base_pattern):
        col_order = [c for c in base_pattern if c < num_columns]
    else:
        rng = np.random.default_rng(num_columns)
        col_order = list(rng.permutation(num_columns))
    indices = np.arange(num_rows * num_columns).reshape(num_rows, num_columns)
    read_out = indices[:, col_order].T.reshape(-1)
    permutation = read_out[read_out < size]
    return Interleaver(permutation)


@dataclass(frozen=True)
class ChannelInterleaver:
    """Length-adaptive wrapper building a block interleaver per packet length.

    The transmit chain deals with rate-matched blocks whose length depends on
    the HARQ redundancy version and modulation; this wrapper constructs (and
    caches per instance) the appropriate fixed permutation for each length.
    """

    num_columns: int = 30
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def for_length(self, length: int) -> Interleaver:
        """Return the interleaver for a given block length."""
        if length not in self._cache:
            self._cache[length] = block_interleaver(length, self.num_columns)
        return self._cache[length]

    def interleave_batch(self, rows: np.ndarray) -> np.ndarray:
        """Interleave each row of a ``(batch, length)`` matrix of any length."""
        arr = np.asarray(rows)
        return self.for_length(arr.shape[-1]).interleave_batch(arr)

    def deinterleave_batch(self, rows: np.ndarray) -> np.ndarray:
        """Invert :meth:`interleave_batch` for rows of the same length."""
        arr = np.asarray(rows)
        return self.for_length(arr.shape[-1]).deinterleave_batch(arr)
