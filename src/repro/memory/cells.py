"""SRAM bit-cell models: parametric-failure probability versus supply voltage.

The paper's Fig. 3 plots the failure probability of a memory array built from
medium-sized 6T cells, 15 %-upsized 6T cells and 8T cells under voltage
scaling at the 65 nm slow-fast corner.  The authors obtained those curves
from Monte-Carlo circuit (SPICE) simulations; here the same quantity is
produced by a calibrated analytical model:

* A bit-cell fails when its static noise margin — degraded by random dopant
  fluctuation (RDF) induced threshold-voltage mismatch — becomes negative.
  With Gaussian Vth mismatch this yields ``Pcell = Q(margin / sigma)``, i.e. a
  Gaussian tail probability whose argument shrinks as the supply voltage is
  lowered.  ``Q(x)`` is evaluated as ``scipy.special.ndtr(-x)``, the ufunc
  behind ``scipy.stats.norm.sf``, imported on first use so that runs which
  never ask for ``Pcell`` do not load scipy.
* The model is calibrated to the published anchor points: roughly 1e-9
  failure probability for a 6T cell at the nominal 1.0 V, an increase of
  about nine orders of magnitude over a 500 mV down-scaling ("increase by
  billion times for such a voltage decrease"), upsized 6T cells buying a few
  tens of millivolts, and 8T cells remaining reliable down to ~0.6 V.
* Soft errors are voltage-insensitive by comparison: their rate grows only by
  3x per 500 mV of down-scaling (paper Section 3).

Only the scalar ``Pcell(Vdd)`` per cell type enters the system-level study,
so this calibrated model is a faithful substitute for the SPICE data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import ensure_in_range


@dataclass(frozen=True)
class BitCellType:
    """An SRAM bit-cell flavour characterised by its failure-vs-voltage curve.

    Parameters
    ----------
    name:
        Identifier (``"6T"``, ``"6T-upsized"``, ``"8T"``).
    margin_slope_per_volt:
        How many sigma of noise margin one volt of supply buys.  Larger is
        more robust.
    zero_margin_voltage:
        Supply voltage at which the mean noise margin hits zero (50 % cell
        failure probability).
    relative_area:
        Cell area normalised to the medium-sized 6T cell.
    relative_dynamic_power:
        Dynamic (access) power at equal voltage, normalised to the 6T cell.
    relative_leakage:
        Leakage power at equal voltage, normalised to the 6T cell.
    """

    name: str
    margin_slope_per_volt: float
    zero_margin_voltage: float
    relative_area: float = 1.0
    relative_dynamic_power: float = 1.0
    relative_leakage: float = 1.0

    def failure_probability(self, vdd: float) -> float:
        """Parametric (RDF-induced) failure probability of one cell at *vdd*.

        The slow-fast corner worst case of the paper's Fig. 3.
        """
        from scipy.special import ndtr

        vdd = ensure_in_range(vdd, "vdd", 0.3, 1.4)
        margin_sigmas = self.margin_slope_per_volt * (vdd - self.zero_margin_voltage)
        return float(ndtr(-margin_sigmas))


#: Medium-sized 6T cell: ~1e-9 at 1.0 V, ~50 % at 0.5 V (nine orders / 500 mV).
CELL_6T = BitCellType(
    name="6T",
    margin_slope_per_volt=12.0,
    zero_margin_voltage=0.50,
    relative_area=1.0,
    relative_dynamic_power=1.0,
    relative_leakage=1.0,
)

#: 15 %-upsized 6T cell: same slope, curve shifted ~50 mV lower.
CELL_6T_UPSIZED = BitCellType(
    name="6T-upsized",
    margin_slope_per_volt=12.0,
    zero_margin_voltage=0.45,
    relative_area=1.15,
    relative_dynamic_power=1.10,
    relative_leakage=1.12,
)

#: 8T cell: decoupled read port, reliable down to ~0.6 V; ~30 % larger.
CELL_8T = BitCellType(
    name="8T",
    margin_slope_per_volt=14.0,
    zero_margin_voltage=0.30,
    relative_area=1.30,
    relative_dynamic_power=1.15,
    relative_leakage=1.25,
)

#: Registry of the built-in cell types.
CELL_TYPES = {cell.name: cell for cell in (CELL_6T, CELL_6T_UPSIZED, CELL_8T)}


@dataclass(frozen=True)
class SoftErrorModel:
    """Radiation-induced (non-persistent) bit-flip rate model.

    The soft-error rate is "almost constant across technology generations" and
    "only increases by a factor of 3x for every 500 mV decrease in supply
    voltage" (paper Section 3) — negligible next to the billion-fold growth of
    parametric failures, but included for completeness.

    Parameters
    ----------
    rate_at_nominal:
        Upset probability per cell per exposure interval at ``nominal_vdd``.
    nominal_vdd:
        Reference supply voltage.
    scaling_factor_per_500mv:
        Multiplicative rate increase per 500 mV of down-scaling (3.0 in the
        paper).
    """

    rate_at_nominal: float = 1e-9
    nominal_vdd: float = 1.0
    scaling_factor_per_500mv: float = 3.0

    def rate(self, vdd: float) -> float:
        """Soft-error probability per cell per exposure interval at *vdd*."""
        vdd = ensure_in_range(vdd, "vdd", 0.3, 1.4)
        exponent = (self.nominal_vdd - vdd) / 0.5
        return float(self.rate_at_nominal * self.scaling_factor_per_500mv**exponent)

    def rates(self, vdd: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`rate`."""
        voltages = np.asarray(vdd, dtype=np.float64)
        exponent = (self.nominal_vdd - voltages) / 0.5
        return self.rate_at_nominal * self.scaling_factor_per_500mv**exponent
