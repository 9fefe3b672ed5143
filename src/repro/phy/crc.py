"""Cyclic-redundancy-check attachment and verification.

HSDPA transport blocks carry a CRC (gCRC24A in 3GPP TS 25.212) that the
receiver uses to decide ACK/NACK for the HARQ protocol.  The block-error rate
(BLER) the paper reports is exactly the probability that this check fails
after channel decoding, so a faithful CRC model is part of the substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import ensure_bit_array


@dataclass(frozen=True)
class Crc:
    """A binary CRC defined by its generator polynomial.

    Parameters
    ----------
    polynomial:
        Generator polynomial coefficients, MSB first, *including* the leading
        1.  For example CRC-8 ``x^8 + x^7 + x^4 + x^3 + x + 1`` is
        ``[1, 1, 0, 0, 1, 1, 0, 1, 1]``.
    name:
        Human-readable identifier used in reprs and error messages.
    """

    polynomial: tuple
    name: str = "crc"
    _poly_arr: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        poly = np.asarray(self.polynomial, dtype=np.int8)
        if poly.ndim != 1 or poly.size < 2:
            raise ValueError("polynomial must be a 1-D sequence of length >= 2")
        if poly[0] != 1:
            raise ValueError("polynomial must start with its leading 1 coefficient")
        if not np.isin(poly, (0, 1)).all():
            raise ValueError("polynomial coefficients must be 0/1")
        object.__setattr__(self, "polynomial", tuple(int(b) for b in poly))
        object.__setattr__(self, "_poly_arr", poly)
        object.__setattr__(self, "_matrix_cache", {})

    @property
    def num_check_bits(self) -> int:
        """Number of parity bits appended by :meth:`attach_batch`."""
        return len(self.polynomial) - 1

    def _remainder_matrix(self, num_bits: int) -> np.ndarray:
        """GF(2) generator matrix ``G`` with ``remainder(d) == (d @ G) % 2``.

        Row ``i`` is the remainder of ``x^(num_bits - 1 - i + degree)`` modulo
        the generator polynomial, so the matrix product is the polynomial
        long division of ``d(x) * x^degree`` (CRC is linear over GF(2)).
        Cached per message length.
        """
        cached = self._matrix_cache.get(num_bits)
        if cached is not None:
            return cached
        tail = self._poly_arr[1:].astype(np.int64)  # x^degree mod g(x)
        rows = np.empty((num_bits, self.num_check_bits), dtype=np.int64)
        remainder = tail
        for i in range(num_bits - 1, -1, -1):
            rows[i] = remainder
            carry = remainder[0]
            remainder = np.concatenate([remainder[1:], np.zeros(1, dtype=np.int64)])
            if carry:
                remainder ^= tail
        self._matrix_cache[num_bits] = rows
        return rows

    def compute_batch(self, bits: np.ndarray) -> np.ndarray:
        """CRC remainders (parity bits) of each row of a ``(batch, num_bits)`` matrix."""
        data = np.asarray(bits)
        if data.ndim != 2:
            raise ValueError(f"expected a 2-D bit matrix, got shape {data.shape}")
        matrix = self._remainder_matrix(data.shape[1])
        return ((data.astype(np.int64) @ matrix) % 2).astype(np.int8)

    def attach_batch(self, bits: np.ndarray) -> np.ndarray:
        """Append the CRC parity bits to each row of a ``(batch, num_bits)`` matrix."""
        data = np.asarray(bits, dtype=np.int8)
        return np.hstack([data, self.compute_batch(data)])

    def check_batch(self, bits_with_crc: np.ndarray) -> np.ndarray:
        """Per-row ``True`` where the trailing CRC of a ``(batch, n)`` matrix is valid."""
        data = np.asarray(bits_with_crc)
        if data.ndim != 2:
            raise ValueError(f"expected a 2-D bit matrix, got shape {data.shape}")
        if data.shape[1] < self.num_check_bits:
            raise ValueError(
                f"need at least {self.num_check_bits} bits to hold the CRC, "
                f"got {data.shape[1]}"
            )
        expected = self.compute_batch(data[:, : -self.num_check_bits])
        return np.all(expected == data[:, -self.num_check_bits :], axis=1)

    def strip(self, bits_with_crc: np.ndarray) -> np.ndarray:
        """Remove the CRC parity bits (without checking them)."""
        data = ensure_bit_array(bits_with_crc)
        return data[: -self.num_check_bits].copy()


def _poly_from_exponents(degree: int, exponents: tuple) -> tuple:
    """Build an MSB-first coefficient tuple from the exponents present."""
    coeffs = [0] * (degree + 1)
    for e in exponents:
        coeffs[degree - e] = 1
    return tuple(coeffs)


#: 3GPP gCRC24A: x^24 + x^23 + x^6 + x^5 + x + 1 (TS 25.212 / TS 36.212).
CRC_24A = Crc(_poly_from_exponents(24, (24, 23, 6, 5, 1, 0)), name="gCRC24A")

#: CRC-16-CCITT: x^16 + x^12 + x^5 + 1, used for smaller transport blocks.
CRC_16 = Crc(_poly_from_exponents(16, (16, 12, 5, 0)), name="gCRC16")

#: CRC-8: x^8 + x^7 + x^4 + x^3 + x + 1 (3GPP gCRC8).
CRC_8 = Crc(_poly_from_exponents(8, (8, 7, 4, 3, 1, 0)), name="gCRC8")

#: Registry keyed by the number of check bits, for configuration files.
CRC_BY_LENGTH = {24: CRC_24A, 16: CRC_16, 8: CRC_8}
