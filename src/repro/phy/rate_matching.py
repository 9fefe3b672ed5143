"""HARQ rate matching with redundancy versions (circular-buffer model).

The HSDPA physical-layer HARQ functionality (TS 25.212) adapts the turbo
coder's mother rate-1/3 output to the number of channel bits available in a
TTI, and selects *which* coded bits are sent in each (re)transmission via a
redundancy version (RV).  Two operating styles matter for the paper:

* **Chase combining** — every transmission sends the same bits; the receiver
  adds the LLRs.
* **Incremental redundancy (IR)** — retransmissions send different parity
  bits, so combining also lowers the effective code rate.

This module implements a circular-buffer rate matcher (the same abstraction
LTE uses, and an accurate functional model of the HSDPA two-stage rate
matcher): systematic bits first, then the two parity streams interlaced, with
the RV selecting the starting offset of the read-out window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import ensure_non_negative_int, ensure_positive_int


@dataclass(frozen=True)
class RateMatcher:
    """Circular-buffer rate matching for a rate-1/3 mother code.

    Parameters
    ----------
    num_coded_bits:
        Length of the mother-code output (3 * K + tail bits).
    num_output_bits:
        Number of channel bits per transmission.
    num_redundancy_versions:
        How many distinct starting offsets are available (4 in HSDPA/LTE).
    """

    num_coded_bits: int
    num_output_bits: int
    num_redundancy_versions: int = 4

    def __post_init__(self) -> None:
        ensure_positive_int(self.num_coded_bits, "num_coded_bits")
        ensure_positive_int(self.num_output_bits, "num_output_bits")
        ensure_positive_int(self.num_redundancy_versions, "num_redundancy_versions")
        object.__setattr__(self, "_indices_cache", {})

    def _start_offset(self, redundancy_version: int) -> int:
        rv = ensure_non_negative_int(redundancy_version, "redundancy_version")
        rv %= self.num_redundancy_versions
        return (rv * self.num_coded_bits) // self.num_redundancy_versions

    def output_indices(self, redundancy_version: int) -> np.ndarray:
        """Mother-code bit indices transmitted for a given redundancy version.

        The index vector per redundancy version is cached (read-only view),
        since the batched transmit/derate paths gather with it every round.
        """
        start = self._start_offset(redundancy_version)
        cached = self._indices_cache.get(start)
        if cached is None:
            cached = (start + np.arange(self.num_output_bits)) % self.num_coded_bits
            cached.setflags(write=False)
            self._indices_cache[start] = cached
        return cached

    # ------------------------------------------------------------------ #
    # transmitter side
    # ------------------------------------------------------------------ #
    def rate_match_batch(
        self, coded_bits: np.ndarray, redundancy_version: int = 0
    ) -> np.ndarray:
        """Select the channel bits of one transmission for each row of a
        ``(batch, num_coded_bits)`` matrix.

        Repetition happens naturally when ``num_output_bits > num_coded_bits``
        (the circular buffer wraps), puncturing when it is smaller.
        """
        bits = np.asarray(coded_bits)
        if bits.ndim != 2 or bits.shape[1] != self.num_coded_bits:
            raise ValueError(
                f"expected shape (batch, {self.num_coded_bits}), got {bits.shape}"
            )
        return bits[:, self.output_indices(redundancy_version)]

    # ------------------------------------------------------------------ #
    # receiver side
    # ------------------------------------------------------------------ #
    def derate_match_batch(
        self, llrs: np.ndarray, redundancy_version: int = 0
    ) -> np.ndarray:
        """Scatter each row's received LLRs back onto mother-code positions.

        Positions that were not transmitted get LLR 0 (erasure); positions
        transmitted more than once (repetition) have their LLRs summed in
        index order.  Without repetition the scatter is a plain assignment,
        and ``+= 0.0`` folds any ``-0.0`` to ``+0.0`` exactly as a
        ``0.0 + x`` accumulation would.

        Returns
        -------
        numpy.ndarray
            ``(batch, num_coded_bits)`` float array of accumulated LLRs.
        """
        llr_arr = np.asarray(llrs, dtype=np.float64)
        if llr_arr.ndim != 2 or llr_arr.shape[1] != self.num_output_bits:
            raise ValueError(
                f"expected shape (batch, {self.num_output_bits}), got {llr_arr.shape}"
            )
        indices = self.output_indices(redundancy_version)
        buffer = np.zeros((llr_arr.shape[0], self.num_coded_bits), dtype=np.float64)
        if self.num_output_bits <= self.num_coded_bits:
            buffer[:, indices] = llr_arr
            buffer += 0.0
        else:
            rows = np.arange(llr_arr.shape[0])
            np.add.at(buffer, (rows[:, None], indices[None, :]), llr_arr)
        return buffer

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def effective_code_rate(self) -> float:
        """Code rate seen on the channel for a single transmission.

        Assumes a rate-1/3 mother code: information bits are roughly one third
        of the coded bits (tail bits neglected).
        """
        info_bits = self.num_coded_bits / 3.0
        return info_bits / self.num_output_bits

    def coverage(self, redundancy_versions: list[int]) -> float:
        """Fraction of mother-code bits observed after the given transmissions."""
        seen = np.zeros(self.num_coded_bits, dtype=bool)
        for rv in redundancy_versions:
            seen[self.output_indices(rv)] = True
        return float(seen.mean())


def make_systematic_priority_buffer_batch(
    systematic: np.ndarray, parity1: np.ndarray, parity2: np.ndarray
) -> np.ndarray:
    """Arrange turbo-coder streams in the circular-buffer order (rows = blocks).

    Systematic bits first, then the two parity streams interlaced — the
    arrangement used by the HSDPA virtual IR buffer so that the first
    transmission at high code rates is mostly systematic (self-decodable).
    """
    sys_arr = np.asarray(systematic)
    p1 = np.asarray(parity1)
    p2 = np.asarray(parity2)
    if sys_arr.ndim != 2 or sys_arr.shape != p1.shape or sys_arr.shape != p2.shape:
        raise ValueError("systematic and parity batches must share a 2-D shape")
    batch, block = sys_arr.shape
    out = np.empty((batch, 3 * block), dtype=sys_arr.dtype)
    out[:, :block] = sys_arr
    out[:, block::2] = p1
    out[:, block + 1 :: 2] = p2
    return out


def split_systematic_priority_buffer_batch(
    buffers: np.ndarray, num_systematic: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Invert :func:`make_systematic_priority_buffer_batch` (rows = blocks).

    All three are views of *buffers*: the turbo decoder copies them into
    its own step-major layout anyway.
    """
    buf = np.asarray(buffers)
    num_systematic = ensure_positive_int(num_systematic, "num_systematic")
    if buf.ndim != 2:
        raise ValueError(f"expected a 2-D batch of buffers, got shape {buf.shape}")
    remaining = buf.shape[1] - num_systematic
    if remaining < 0 or remaining % 2:
        raise ValueError("buffer length inconsistent with num_systematic")
    systematic = buf[:, :num_systematic]
    parity1 = buf[:, num_systematic::2]
    parity2 = buf[:, num_systematic + 1 :: 2]
    return systematic, parity1, parity2

