"""Yield models: Eq. (1) and Eq. (2) of the paper.

Equation (1) is the conventional 100 %-correct criterion: an array of ``M``
cells is good only if *no* cell fails, so ``Y = (1 - Pcell)^M``.

Equation (2) redefines yield for the relaxed selection criterion where chips
with at most ``Nf`` faulty cells pass inspection:

    Y(Nf) = sum_{i=0}^{Nf} C(M, i) * Pcell^i * (1 - Pcell)^(M - i)

i.e. the binomial CDF of the number of faulty cells.  The helper functions
answer the two questions the paper asks of this model: *how many defects must
be accepted to reach a yield target* (Fig. 5) and *what cell failure
probability — hence what supply voltage — is admissible for a given defect
budget and yield target* (the voltage-scaling argument of Sections 5/6.3).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq
from scipy.stats import binom

from repro.utils.validation import (
    ensure_non_negative_int,
    ensure_positive_int,
    ensure_probability,
)


def defect_free_yield(cell_failure_probability: float, array_size: int) -> float:
    """Eq. (1): probability that an array of *array_size* cells has zero defects."""
    p = ensure_probability(cell_failure_probability, "cell_failure_probability")
    m = ensure_positive_int(array_size, "array_size")
    # Computed in log space to stay accurate for large arrays.
    if p >= 1.0:
        return 0.0
    return float(np.exp(m * np.log1p(-p)))


def acceptance_yield(
    cell_failure_probability: float, array_size: int, max_faulty_cells: int
) -> float:
    """Eq. (2): probability that an array has at most *max_faulty_cells* defects."""
    p = ensure_probability(cell_failure_probability, "cell_failure_probability")
    m = ensure_positive_int(array_size, "array_size")
    nf = ensure_non_negative_int(max_faulty_cells, "max_faulty_cells")
    if nf >= m:
        return 1.0
    return float(binom.cdf(nf, m, p))


def acceptance_yield_curve(
    cell_failure_probability: float, array_size: int, max_faulty_cells: np.ndarray
) -> np.ndarray:
    """Vectorised :func:`acceptance_yield` over an array of ``Nf`` values."""
    p = ensure_probability(cell_failure_probability, "cell_failure_probability")
    m = ensure_positive_int(array_size, "array_size")
    nf = np.asarray(max_faulty_cells, dtype=np.int64)
    if (nf < 0).any():
        raise ValueError("max_faulty_cells must be non-negative")
    return binom.cdf(np.minimum(nf, m), m, p)


def min_defects_for_yield(
    cell_failure_probability: float, array_size: int, yield_target: float
) -> int:
    """Smallest ``Nf`` such that ``Y(Nf) >= yield_target``.

    This is the "number of defects that we need to accept for achieving the
    yield target" read off Fig. 5 (e.g. 0.1 % of a 200 Kb array for
    ``Pcell = 1e-3`` and a 95 % target).
    """
    p = ensure_probability(cell_failure_probability, "cell_failure_probability")
    m = ensure_positive_int(array_size, "array_size")
    target = ensure_probability(yield_target, "yield_target")
    return int(binom.ppf(target, m, p))


def max_cell_failure_probability(
    array_size: int, max_faulty_cells: int, yield_target: float
) -> float:
    """Largest ``Pcell`` for which ``Y(Nf) >= yield_target``.

    Inverts Eq. (2) in ``Pcell``: given a defect budget (set by the system's
    resilience limit) and a yield target, this is the worst admissible cell
    failure probability — which, through the cell model's
    ``min_voltage_for_failure_probability``, becomes the lowest admissible
    supply voltage.
    """
    m = ensure_positive_int(array_size, "array_size")
    nf = ensure_non_negative_int(max_faulty_cells, "max_faulty_cells")
    target = ensure_probability(yield_target, "yield_target")
    if target <= 0.0:
        return 1.0
    if nf >= m:
        return 1.0

    def gap(p: float) -> float:
        return binom.cdf(nf, m, p) - target

    # Y(Nf) is monotonically decreasing in p; bracket the root.
    low, high = 1e-15, 1.0 - 1e-15
    if gap(high) >= 0:
        return 1.0
    if gap(low) <= 0:
        return 0.0
    return float(brentq(gap, low, high, xtol=1e-15, rtol=1e-12))


def expected_faulty_cells(cell_failure_probability: float, array_size: int) -> float:
    """Mean number of faulty cells in the array (binomial mean)."""
    p = ensure_probability(cell_failure_probability, "cell_failure_probability")
    m = ensure_positive_int(array_size, "array_size")
    return p * m
