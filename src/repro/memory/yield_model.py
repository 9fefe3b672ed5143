"""Yield models: Eq. (1) and Eq. (2) of the paper.

Equation (1) is the conventional 100 %-correct criterion: an array of ``M``
cells is good only if *no* cell fails, so ``Y = (1 - Pcell)^M``.

Equation (2) redefines yield for the relaxed selection criterion where chips
with at most ``Nf`` faulty cells pass inspection:

    Y(Nf) = sum_{i=0}^{Nf} C(M, i) * Pcell^i * (1 - Pcell)^(M - i)

i.e. the binomial CDF of the number of faulty cells.  The helper functions
answer the question the paper asks of this model: *how many defects must be
accepted to reach a yield target* (Fig. 5, and per supply voltage in the
voltage-scaling argument of Section 6.3).  ``scipy.stats.binom`` is the
package's only runtime use of scipy (it evaluates the CDF through scipy's
incomplete beta function, which has no small pure-Python port); it is
imported on first use, so runs that never evaluate a yield load no scipy.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import (
    ensure_non_negative_int,
    ensure_positive_int,
    ensure_probability,
)


def acceptance_yield(
    cell_failure_probability: float, array_size: int, max_faulty_cells: int
) -> float:
    """Eq. (2): probability that an array has at most *max_faulty_cells* defects."""
    p = ensure_probability(cell_failure_probability, "cell_failure_probability")
    m = ensure_positive_int(array_size, "array_size")
    nf = ensure_non_negative_int(max_faulty_cells, "max_faulty_cells")
    if nf >= m:
        return 1.0
    from scipy.stats import binom

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
    from scipy.stats import binom

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
    from scipy.stats import binom

    return int(binom.ppf(target, m, p))

