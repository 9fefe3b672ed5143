"""Protection schemes for the HARQ LLR storage.

Section 6 of the paper compares four ways of implementing the LLR memory:

* **No protection** — dense 6T cells everywhere; cheapest, every cell can fail.
* **Preferential (MSB) protection** — the paper's proposal: only the few most
  significant bits of each stored LLR use robust 8T cells, the rest stay 6T.
* **Full cell protection** — every bit in 8T cells (the conventional circuit
  fix the paper argues is overkill).
* **Full ECC protection** — Hamming SEC over the whole word stored in 6T
  cells (~35-40 % overhead for a 10-bit word, Section 6.2).

Every scheme knows how to build the fault maps the system-level fault
simulator needs (worst-case accepted die with exactly ``Nf`` faults in the
cells that *can* fail), its per-column cell failure probabilities at a supply
voltage, what ECC to attach to the soft buffer, and what it costs in area and
power.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.memory.cells import BitCellType, CELL_6T, CELL_8T
from repro.memory.ecc import HammingCode
from repro.memory.faults import FaultMap, FaultModel, FaultModelSpec
from repro.memory.power import AreaModel, PowerModel
from repro.utils.rng import RngLike
from repro.utils.validation import ensure_non_negative_int, ensure_positive_int


@dataclass(frozen=True)
class ProtectionScheme(ABC):
    """Base class: how the LLR words of the HARQ buffer are physically stored.

    Parameters
    ----------
    bits_per_word:
        Stored LLR width (the quantizer's ``num_bits``).
    baseline_cell, robust_cell:
        Cell types used for unprotected / protected bit positions.
    """

    bits_per_word: int = 10
    baseline_cell: BitCellType = CELL_6T
    robust_cell: BitCellType = CELL_8T

    def __post_init__(self) -> None:
        ensure_positive_int(self.bits_per_word, "bits_per_word")

    # -- interface ------------------------------------------------------ #
    @property
    @abstractmethod
    def name(self) -> str:
        """Short identifier used in experiment tables."""

    @property
    def ecc(self) -> Optional[HammingCode]:
        """ECC attached to every stored word (``None`` for cell-level schemes)."""
        return None

    @property
    def stored_bits_per_word(self) -> int:
        """Physical columns per word (data + parity bits)."""
        return self.ecc.codeword_bits if self.ecc is not None else self.bits_per_word

    @abstractmethod
    def protected_columns(self) -> np.ndarray:
        """Boolean mask (length ``stored_bits_per_word``); ``True`` = robust cell."""

    @abstractmethod
    def area_overhead(self, area_model: Optional[AreaModel] = None) -> float:
        """Relative area overhead versus the unprotected all-6T array."""

    # -- shared behaviour ------------------------------------------------ #
    def unprotected_cells(self, num_words: int) -> int:
        """Number of cells that are allowed to fail in an array of *num_words* words."""
        return int(num_words * (~self.protected_columns()).sum())

    def make_fault_map(
        self,
        num_words: int,
        num_faults: int,
        rng: RngLike = None,
        fault_model: "FaultModel | FaultModelSpec | str" = FaultModel.BIT_FLIP,
    ) -> FaultMap:
        """Worst-case accepted die: exactly *num_faults* faults in fallible cells.

        *fault_model* accepts the read-out semantics (a :class:`FaultModel`
        or its token) optionally combined with a clustered placement via a
        :class:`FaultModelSpec` or the ``"clustered:<r>"`` token; either way
        the die carries exactly *num_faults* faulty cells.
        """
        ensure_non_negative_int(num_faults, "num_faults")
        spec = FaultModelSpec.parse(fault_model)
        protected = self.protected_columns()
        protected_columns = protected if protected.any() else None
        if spec.placement == "clustered":
            return FaultMap.with_clustered_fault_count(
                num_words,
                self.stored_bits_per_word,
                num_faults,
                cluster_radius=spec.cluster_radius,
                rng=rng,
                fault_model=spec.model,
                protected_columns=protected_columns,
            )
        return FaultMap.with_exact_fault_count(
            num_words,
            self.stored_bits_per_word,
            num_faults,
            rng=rng,
            fault_model=spec.model,
            protected_columns=protected_columns,
        )

    def column_failure_probabilities(self, vdd: float) -> np.ndarray:
        """Per-bit-position cell failure probability at supply voltage *vdd*."""
        protected = self.protected_columns()
        baseline_p = self.baseline_cell.failure_probability(vdd)
        robust_p = self.robust_cell.failure_probability(vdd)
        return np.where(protected, robust_p, baseline_p)

    def relative_power(self, vdd: float, power_model: Optional[PowerModel] = None) -> float:
        """Array power at *vdd* relative to the unprotected array at nominal Vdd."""
        model = power_model or PowerModel()
        protected = self.protected_columns()
        robust_fraction = float(protected.mean())
        stored_ratio = self.stored_bits_per_word / self.bits_per_word
        blended = (
            robust_fraction * model.relative_power(vdd, self.robust_cell)
            + (1.0 - robust_fraction) * model.relative_power(vdd, self.baseline_cell)
        )
        return blended * stored_ratio

    def describe(self) -> str:
        """Human-readable one-line summary."""
        return f"{self.name} ({self.bits_per_word}-bit words)"


# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class NoProtection(ProtectionScheme):
    """All bits in dense baseline (6T) cells — Section 5's setting."""

    @property
    def name(self) -> str:
        return "unprotected-6T"

    def protected_columns(self) -> np.ndarray:
        return np.zeros(self.bits_per_word, dtype=bool)

    def area_overhead(self, area_model: Optional[AreaModel] = None) -> float:
        return 0.0


@dataclass(frozen=True)
class MsbProtection(ProtectionScheme):
    """The paper's preferential storage: the *k* MSBs in robust (8T) cells.

    Parameters
    ----------
    protected_msbs:
        Number of most-significant stored bits implemented in robust cells
        (3-4 is the paper's sweet spot for 10-bit LLRs).
    """

    protected_msbs: int = 4

    def __post_init__(self) -> None:
        super().__post_init__()
        ensure_non_negative_int(self.protected_msbs, "protected_msbs")
        if self.protected_msbs > self.bits_per_word:
            raise ValueError("protected_msbs cannot exceed bits_per_word")

    @property
    def name(self) -> str:
        return f"msb-{self.protected_msbs}-of-{self.bits_per_word}"

    def protected_columns(self) -> np.ndarray:
        mask = np.zeros(self.bits_per_word, dtype=bool)
        mask[: self.protected_msbs] = True
        return mask

    def area_overhead(self, area_model: Optional[AreaModel] = None) -> float:
        model = area_model or AreaModel(
            baseline_cell=self.baseline_cell, robust_cell=self.robust_cell
        )
        return model.hybrid_overhead(self.bits_per_word, self.protected_msbs)


def msb_protection_scheme(bits_per_word: int, protected_msbs: int) -> ProtectionScheme:
    """The scheme protecting *protected_msbs* MSBs (``0`` = unprotected array).

    The factory the protection-depth sweeps (Figs. 7 and 8) share: a depth of
    zero is the plain all-6T array rather than a degenerate hybrid.
    """
    if protected_msbs == 0:
        return NoProtection(bits_per_word=bits_per_word)
    return MsbProtection(bits_per_word=bits_per_word, protected_msbs=protected_msbs)


@dataclass(frozen=True)
class FullCellProtection(ProtectionScheme):
    """Every bit in robust (8T) cells — the conventional all-robust design."""

    @property
    def name(self) -> str:
        return "all-8T"

    def protected_columns(self) -> np.ndarray:
        return np.ones(self.bits_per_word, dtype=bool)

    def area_overhead(self, area_model: Optional[AreaModel] = None) -> float:
        model = area_model or AreaModel(
            baseline_cell=self.baseline_cell, robust_cell=self.robust_cell
        )
        return model.hybrid_overhead(self.bits_per_word, self.bits_per_word)


@dataclass(frozen=True)
class EccProtection(ProtectionScheme):
    """Hamming SEC(-DED) over every stored word, kept in baseline cells.

    The parity bits live in additional 6T columns of the same unreliable
    fabric, so double faults within one codeword still corrupt the LLR — the
    behaviour (and the ~35-40 % overhead) Section 6.2 uses to argue that full
    ECC is not the efficient answer.
    """

    extended: bool = False

    @property
    def name(self) -> str:
        return "full-ECC" + ("-DED" if self.extended else "")

    @property
    def ecc(self) -> Optional[HammingCode]:
        return HammingCode(self.bits_per_word, extended=self.extended)

    def protected_columns(self) -> np.ndarray:
        # Every physical cell can fail; protection comes from the code, not
        # from robust cells.
        return np.zeros(self.stored_bits_per_word, dtype=bool)

    def area_overhead(self, area_model: Optional[AreaModel] = None) -> float:
        model = area_model or AreaModel(
            baseline_cell=self.baseline_cell, robust_cell=self.robust_cell
        )
        return model.ecc_overhead(self.bits_per_word, self.stored_bits_per_word)
