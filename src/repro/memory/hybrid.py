"""Hybrid 6T/8T array configuration — the paper's preferential storage scheme.

Section 6.1 proposes to implement only the most significant LLR bits in
robust (8T) cells while keeping the remaining bits in dense 6T cells.  A
:class:`HybridArrayConfig` captures which bit positions are protected, derives
per-column failure probabilities at a given supply voltage, produces the
fault maps used by the system simulator (faults only in the unprotected
columns), and reports the area/power cost through the models in
:mod:`repro.memory.power`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.memory.cells import BitCellType, CELL_6T, CELL_8T
from repro.memory.power import AreaModel, PowerModel
from repro.utils.validation import ensure_non_negative_int, ensure_positive_int


@dataclass(frozen=True)
class HybridArrayConfig:
    """Per-bit-position cell assignment for the LLR storage array.

    Parameters
    ----------
    bits_per_word:
        LLR word width (bit position 0 is the stored MSB — the sign bit for
        the sign-magnitude quantizer).
    protected_msbs:
        Number of most-significant bit positions implemented in robust cells.
    baseline_cell, robust_cell:
        Cell types for unprotected and protected positions.
    """

    bits_per_word: int = 10
    protected_msbs: int = 0
    baseline_cell: BitCellType = CELL_6T
    robust_cell: BitCellType = CELL_8T

    def __post_init__(self) -> None:
        ensure_positive_int(self.bits_per_word, "bits_per_word")
        ensure_non_negative_int(self.protected_msbs, "protected_msbs")
        if self.protected_msbs > self.bits_per_word:
            raise ValueError("protected_msbs cannot exceed bits_per_word")

    # ------------------------------------------------------------------ #
    @property
    def protected_columns(self) -> np.ndarray:
        """Boolean mask over bit positions; ``True`` marks protected columns."""
        mask = np.zeros(self.bits_per_word, dtype=bool)
        mask[: self.protected_msbs] = True
        return mask

    @property
    def num_unprotected_bits(self) -> int:
        """Number of bit positions left in baseline cells."""
        return self.bits_per_word - self.protected_msbs

    def cell_for_column(self, column: int) -> BitCellType:
        """Cell type implementing a given bit position."""
        if not 0 <= column < self.bits_per_word:
            raise ValueError(f"column must be in [0, {self.bits_per_word})")
        return self.robust_cell if column < self.protected_msbs else self.baseline_cell

    # ------------------------------------------------------------------ #
    def column_failure_probabilities(self, vdd: float) -> np.ndarray:
        """Per-bit-position cell failure probability at supply voltage *vdd*."""
        baseline_p = self.baseline_cell.failure_probability(vdd)
        robust_p = self.robust_cell.failure_probability(vdd)
        probabilities = np.full(self.bits_per_word, baseline_p)
        probabilities[: self.protected_msbs] = robust_p
        return probabilities

    # ------------------------------------------------------------------ #
    def area_overhead(self, area_model: AreaModel | None = None) -> float:
        """Area overhead relative to the all-baseline array (Fig. 8 x-axis)."""
        model = area_model or AreaModel(
            baseline_cell=self.baseline_cell, robust_cell=self.robust_cell
        )
        return model.hybrid_overhead(self.bits_per_word, self.protected_msbs)

    def relative_power(self, vdd: float, power_model: PowerModel | None = None) -> float:
        """Array power at *vdd* relative to the all-baseline array at nominal Vdd."""
        model = power_model or PowerModel()
        return model.hybrid_relative_power(
            vdd,
            self.bits_per_word,
            self.protected_msbs,
            baseline_cell=self.baseline_cell,
            robust_cell=self.robust_cell,
        )

    def describe(self) -> str:
        """Human-readable one-line summary."""
        if self.protected_msbs == 0:
            return f"unprotected {self.bits_per_word}-bit {self.baseline_cell.name} array"
        return (
            f"{self.protected_msbs} MSB(s) in {self.robust_cell.name}, "
            f"{self.num_unprotected_bits} LSB(s) in {self.baseline_cell.name}"
        )
