"""CDMA spreading: OVSF channelisation codes and scrambling.

HSPA+ is a CDMA system — data symbols are spread by orthogonal variable
spreading factor (OVSF) codes (spreading factor 16 for HS-PDSCH) and
scrambled by a pseudo-random sequence before pulse shaping.  The spreading
operation itself is transparent to the error-resilience study (it is undone
at the receiver), but it is part of the paper's system model (Fig. 1a) and it
determines the chip-rate signal the multipath channel acts on, so it is
implemented fully here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import RngLike, as_rng
from repro.utils.validation import ensure_positive_int


def ovsf_code(spreading_factor: int, index: int) -> np.ndarray:
    """Return OVSF code ``C_{SF,index}`` as a ±1 array of length *spreading_factor*.

    The OVSF code tree is built by the standard recursion
    ``C_{2n,2k} = [C_{n,k},  C_{n,k}]`` and ``C_{2n,2k+1} = [C_{n,k}, -C_{n,k}]``.
    """
    sf = ensure_positive_int(spreading_factor, "spreading_factor")
    if sf & (sf - 1):
        raise ValueError(f"spreading_factor must be a power of two, got {sf}")
    if not 0 <= index < sf:
        raise ValueError(f"index must be in [0, {sf}), got {index}")
    depth = sf.bit_length() - 1
    code = np.array([1.0])
    # Walk the OVSF tree from the root; the index bits (MSB first) choose the
    # child at each level: 0 -> [c, c], 1 -> [c, -c].
    for level in range(depth):
        bit = (index >> (depth - 1 - level)) & 1
        code = np.concatenate([code, -code]) if bit else np.concatenate([code, code])
    return code


def scrambling_sequence(length: int, seed: int = 0) -> np.ndarray:
    """Pseudo-random complex scrambling sequence of unit-modulus chips.

    3GPP uses Gold-code based complex scrambling; for the link-level study a
    reproducible pseudo-random QPSK-valued sequence has identical statistical
    behaviour (it is removed exactly at the receiver).
    """
    length = ensure_positive_int(length, "length")
    rng = np.random.default_rng(seed)
    phases = rng.integers(0, 4, size=length)
    return np.exp(1j * (np.pi / 2.0) * phases + 1j * np.pi / 4.0)


@dataclass(frozen=True)
class Spreader:
    """Spreads modulated symbols to chip rate and despreads them back.

    Parameters
    ----------
    spreading_factor:
        Chips per symbol (16 for HS-PDSCH; smaller values are useful for fast
        simulations since the despread SNR behaviour is identical).
    code_index:
        Which OVSF code of that spreading factor to use.
    scrambling_seed:
        Seed of the cell-specific scrambling sequence.
    """

    spreading_factor: int = 16
    code_index: int = 1
    scrambling_seed: int = 0

    def __post_init__(self) -> None:
        ovsf_code(self.spreading_factor, self.code_index)  # validates

    @property
    def code(self) -> np.ndarray:
        """The ±1 channelisation code."""
        return ovsf_code(self.spreading_factor, self.code_index)

    def spread_batch(self, symbols: np.ndarray) -> np.ndarray:
        """Spread each row of a ``(batch, num_symbols)`` matrix to chips and scramble.

        Every packet sees the same cell-specific scrambling sequence (it is a
        pure function of the seed and the chip count), so one sequence is
        tiled across the rows.
        """
        syms = np.asarray(symbols, dtype=np.complex128)
        if syms.ndim != 2:
            raise ValueError(f"expected a 2-D symbol matrix, got shape {syms.shape}")
        batch = syms.shape[0]
        chips = (syms[:, :, None] * self.code[None, None, :]).reshape(batch, -1)
        scramble = scrambling_sequence(chips.shape[1], self.scrambling_seed)
        return chips * scramble[None, :]

    def despread_batch(self, chips: np.ndarray) -> np.ndarray:
        """Descramble and despread each row of a ``(batch, num_chips)`` matrix.

        The despreading correlation averages the chips of each symbol, which
        also averages the chip-level noise — the standard CDMA processing
        gain.  The chip count must be a multiple of the spreading factor.
        """
        chip_arr = np.asarray(chips, dtype=np.complex128)
        if chip_arr.ndim != 2:
            raise ValueError(f"expected a 2-D chip matrix, got shape {chip_arr.shape}")
        batch, num_chips = chip_arr.shape
        sf = self.spreading_factor
        if num_chips % sf:
            raise ValueError(
                f"chip count {num_chips} is not a multiple of the spreading factor {sf}"
            )
        scramble = scrambling_sequence(num_chips, self.scrambling_seed)
        descrambled = chip_arr * np.conj(scramble)[None, :]
        mat = descrambled.reshape(-1, sf)
        return (mat @ self.code / sf).reshape(batch, -1)
