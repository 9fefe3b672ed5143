"""Voltage-scaling exploration: defects <-> yield <-> supply voltage <-> power.

Ties the circuit-level models to the system-level resilience results to
answer the paper's Sections 5/6.3 questions:

* given a yield target and a number of defects the *system* can tolerate,
  how far can the supply voltage of the HARQ LLR memory be lowered?
* what does that save in power, for the plain 6T array and for the hybrid
  (preferentially protected) array?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.protection import NoProtection, ProtectionScheme
from repro.memory.cells import CELL_6T, CELL_8T
from repro.memory.power import PowerModel
from repro.memory.yield_model import acceptance_yield, min_defects_for_yield
from repro.utils.validation import ensure_positive_int


@dataclass
class VoltageOperatingPoint:
    """Circuit-level consequences of operating the LLR memory at one voltage.

    Attributes
    ----------
    vdd:
        Supply voltage.
    cell_failure_probability:
        Baseline (6T) cell failure probability at that voltage.
    expected_defects:
        Mean number of faulty cells in the fallible part of the array.
    defects_for_yield:
        Number of defects that must be tolerated to reach the yield target
        (Eq. 2 inverted).
    defect_rate_for_yield:
        The same, as a fraction of the fallible cells.
    yield_zero_defects:
        Conventional Eq. (1) yield at this voltage.
    relative_power:
        Array power relative to the nominal-voltage all-6T array.
    """

    vdd: float
    cell_failure_probability: float
    expected_defects: float
    defects_for_yield: int
    defect_rate_for_yield: float
    yield_zero_defects: float
    relative_power: float


class VoltageScalingAnalysis:
    """Voltage sweep for a given storage size and protection scheme.

    Parameters
    ----------
    num_storage_words:
        LLR words in the HARQ buffer (e.g. ``LinkConfig.llr_storage_words``).
    protection:
        Storage protection scheme (determines which cells can fail and the
        power blend of cell types).
    yield_target:
        Manufacturing yield target (95 % in the paper's example).
    power_model:
        Voltage-to-power model.
    """

    def __init__(
        self,
        num_storage_words: int,
        protection: Optional[ProtectionScheme] = None,
        *,
        yield_target: float = 0.95,
        power_model: Optional[PowerModel] = None,
    ) -> None:
        self.num_storage_words = ensure_positive_int(num_storage_words, "num_storage_words")
        self.protection = protection or NoProtection()
        self.yield_target = float(yield_target)
        self.power_model = power_model or PowerModel()

    # ------------------------------------------------------------------ #
    @property
    def fallible_cells(self) -> int:
        """Cells of the array that can fail under the protection scheme."""
        return self.protection.unprotected_cells(self.num_storage_words)

    def operating_point(self, vdd: float) -> VoltageOperatingPoint:
        """Evaluate all circuit-level quantities at one supply voltage."""
        baseline_cell = self.protection.baseline_cell
        pcell = baseline_cell.failure_probability(vdd)
        cells = max(self.fallible_cells, 1)
        defects_needed = min_defects_for_yield(pcell, cells, self.yield_target)
        return VoltageOperatingPoint(
            vdd=float(vdd),
            cell_failure_probability=pcell,
            expected_defects=pcell * cells,
            defects_for_yield=defects_needed,
            defect_rate_for_yield=defects_needed / cells,
            yield_zero_defects=acceptance_yield(pcell, cells, 0),
            relative_power=self.protection.relative_power(vdd, self.power_model),
        )

    # ------------------------------------------------------------------ #
    def min_voltage_for_defect_budget(
        self,
        tolerable_defect_rate: float,
        voltages: Optional[Sequence[float]] = None,
    ) -> VoltageOperatingPoint:
        """Lowest voltage whose yield-target defect requirement fits the budget.

        Parameters
        ----------
        tolerable_defect_rate:
            Largest defect rate (fraction of fallible cells) the *system* can
            tolerate, as read off a defect-rate sweep (Fig. 6).
        voltages:
            Candidate voltages, highest to lowest (default 1.0 V down to
            0.5 V in 25 mV steps).
        """
        candidates = (
            np.asarray(voltages, dtype=np.float64)
            if voltages is not None
            else np.arange(1.0, 0.499, -0.025)
        )
        best: Optional[VoltageOperatingPoint] = None
        for vdd in candidates:
            point = self.operating_point(float(vdd))
            if point.defect_rate_for_yield <= tolerable_defect_rate:
                best = point
            else:
                break
        if best is None:
            # Even the highest candidate voltage does not fit the budget.
            return self.operating_point(float(candidates[0]))
        return best

    def power_saving_versus_nominal(self, vdd: float) -> float:
        """Fractional power saving of running the protected array at *vdd*.

        The reference is the unprotected all-6T array at the nominal voltage,
        the same iso-area style of comparison the paper's "30 % power
        savings" figure uses.
        """
        reference = NoProtection(
            bits_per_word=self.protection.bits_per_word,
            baseline_cell=CELL_6T,
            robust_cell=CELL_8T,
        ).relative_power(self.power_model.nominal_vdd, self.power_model)
        actual = self.protection.relative_power(vdd, self.power_model)
        return 1.0 - actual / reference

