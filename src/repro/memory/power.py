"""Area and power models for (hybrid) SRAM arrays.

These models encode the published constants the paper's efficiency arguments
rest on:

* an 8T cell is ~30 % larger than the medium-sized 6T cell (so protecting 4
  of 10 LLR bits with 8T cells costs ~13 % array area — Fig. 8's annotation);
* Hamming SEC over a 10-bit word needs 4 parity bits, ~35-40 % overhead
  (Section 6.2), and higher-order ECC exceeds 50 %;
* dynamic power scales with ``Vdd^2`` (the "quadratic dependency" that makes
  voltage scaling attractive) and leakage roughly with ``Vdd^2`` as well over
  the narrow range considered, so operating the HARQ memory at 0.8 V instead
  of 1.0 V saves ~30-35 % of its power (Section 6.3's iso-area claim).

All quantities are normalised (area of one 6T cell = 1, power of the 6T array
at nominal voltage = 1), which is exactly how the paper reports them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.cells import BitCellType, CELL_6T, CELL_8T
from repro.utils.validation import ensure_non_negative_int, ensure_positive_int


@dataclass(frozen=True)
class AreaModel:
    """Area accounting for plain, ECC-protected and hybrid 6T/8T arrays.

    Parameters
    ----------
    baseline_cell, robust_cell:
        Cell types used for unprotected and protected bit positions.
    peripheral_overhead:
        Fixed fraction of cell area spent on decoders/sense-amps, assumed
        proportional to the number of columns (cancels in most ratios but is
        exposed for completeness).
    ecc_logic_overhead:
        Area of the ECC encoder/corrector logic expressed as a fraction of
        the protected array's cell area.
    """

    baseline_cell: BitCellType = CELL_6T
    robust_cell: BitCellType = CELL_8T
    peripheral_overhead: float = 0.0
    ecc_logic_overhead: float = 0.05

    # ------------------------------------------------------------------ #
    def plain_array_area(self, num_words: int, bits_per_word: int) -> float:
        """Area of an all-baseline-cell array (6T reference)."""
        ensure_positive_int(num_words, "num_words")
        ensure_positive_int(bits_per_word, "bits_per_word")
        cells = num_words * bits_per_word
        return cells * self.baseline_cell.relative_area * (1.0 + self.peripheral_overhead)

    def hybrid_array_area(
        self, num_words: int, bits_per_word: int, protected_bits: int
    ) -> float:
        """Area of a hybrid array protecting *protected_bits* MSB columns."""
        ensure_positive_int(num_words, "num_words")
        ensure_positive_int(bits_per_word, "bits_per_word")
        protected_bits = ensure_non_negative_int(protected_bits, "protected_bits")
        if protected_bits > bits_per_word:
            raise ValueError("protected_bits cannot exceed bits_per_word")
        protected_cells = num_words * protected_bits
        plain_cells = num_words * (bits_per_word - protected_bits)
        area = (
            protected_cells * self.robust_cell.relative_area
            + plain_cells * self.baseline_cell.relative_area
        )
        return area * (1.0 + self.peripheral_overhead)

    def ecc_array_area(
        self, num_words: int, bits_per_word: int, codeword_bits: int
    ) -> float:
        """Area of a baseline-cell array storing ECC codewords."""
        ensure_positive_int(codeword_bits, "codeword_bits")
        cell_area = (
            num_words * codeword_bits * self.baseline_cell.relative_area
        ) * (1.0 + self.peripheral_overhead)
        return cell_area * (1.0 + self.ecc_logic_overhead)

    # ------------------------------------------------------------------ #
    def hybrid_overhead(self, bits_per_word: int, protected_bits: int) -> float:
        """Relative area overhead of the hybrid array over the all-6T array.

        This is the x-axis of Fig. 8 — with the default cells, protecting 4
        of 10 bits costs ``4/10 * 0.30 = 12 %`` (the paper quotes ~13 %).
        """
        plain = self.plain_array_area(1, bits_per_word)
        hybrid = self.hybrid_array_area(1, bits_per_word, protected_bits)
        return (hybrid - plain) / plain

    def ecc_overhead(self, bits_per_word: int, codeword_bits: int) -> float:
        """Relative area overhead of full ECC protection over the all-6T array."""
        plain = self.plain_array_area(1, bits_per_word)
        ecc = self.ecc_array_area(1, bits_per_word, codeword_bits)
        return (ecc - plain) / plain


@dataclass(frozen=True)
class PowerModel:
    """Supply-voltage dependent power model for the HARQ LLR memory.

    Parameters
    ----------
    nominal_vdd:
        Reference supply voltage (1.0 V at 65 nm).
    dynamic_fraction:
        Fraction of the array's nominal power that is dynamic (switching);
        the rest is leakage.
    leakage_voltage_exponent:
        Exponent of the leakage dependence on Vdd (DIBL-dominated leakage in
        a narrow voltage range is commonly modelled with an exponent between
        1 and 2).
    """

    nominal_vdd: float = 1.0
    dynamic_fraction: float = 0.6
    leakage_voltage_exponent: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.dynamic_fraction <= 1.0:
            raise ValueError("dynamic_fraction must be in [0, 1]")
        if self.nominal_vdd <= 0:
            raise ValueError("nominal_vdd must be positive")

    # ------------------------------------------------------------------ #
    def relative_power(self, vdd: float, cell: BitCellType = CELL_6T) -> float:
        """Array power at *vdd* relative to the 6T array at the nominal voltage.

        Dynamic power scales as ``Vdd^2`` (same access activity), leakage as
        ``Vdd^leakage_voltage_exponent``; the cell type contributes its
        relative dynamic/leakage factors.
        """
        if vdd <= 0:
            raise ValueError("vdd must be positive")
        ratio = vdd / self.nominal_vdd
        dynamic = self.dynamic_fraction * ratio**2 * cell.relative_dynamic_power
        leakage = (
            (1.0 - self.dynamic_fraction)
            * ratio**self.leakage_voltage_exponent
            * cell.relative_leakage
        )
        return float(dynamic + leakage)

    def power_saving(self, vdd: float, cell: BitCellType = CELL_6T) -> float:
        """Fractional power saving of operating at *vdd* versus nominal voltage."""
        return 1.0 - self.relative_power(vdd, cell) / self.relative_power(
            self.nominal_vdd, CELL_6T
        )
