"""Monte-Carlo bookkeeping: trial scheduling and confidence intervals.

The paper's Section 4 stresses that "meaningful throughput evaluation
requires a vast amount of Monte-Carlo simulations averaging over various
wireless channel conditions"; this module centralises the statistics side of
that averaging so that experiment drivers can report uncertainty alongside
their point estimates.  The interval's normal quantile comes from the Cephes
port in :mod:`repro.utils.normal`, so no interval loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, sqrt

import numpy as np

from repro.utils.validation import ensure_positive_int


@dataclass(frozen=True)
class EstimateWithConfidence:
    """A Monte-Carlo estimate with a symmetric confidence interval.

    Attributes
    ----------
    value:
        Point estimate (sample mean).
    half_width:
        Half-width of the confidence interval.
    confidence:
        Confidence level of the interval (e.g. 0.95).
    num_samples:
        Number of independent samples behind the estimate.
    """

    value: float
    half_width: float
    confidence: float
    num_samples: int

    @property
    def lower(self) -> float:
        """Lower confidence bound."""
        return self.value - self.half_width

    @property
    def upper(self) -> float:
        """Upper confidence bound."""
        return self.value + self.half_width

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.value:.4f} ± {self.half_width:.4f} ({self.confidence:.0%})"


def two_sided_z(confidence: float) -> float:
    """Standard-normal quantile ``z`` of a two-sided *confidence* interval.

    Evaluated by :func:`repro.utils.normal.ndtri`, the Cephes quantile behind
    ``scipy.stats.norm.ppf``, to the same bits.  Raises :class:`ValueError`
    unless *confidence* lies in ``(0, 1)`` and gives a finite, positive ``z``.
    """
    from repro.utils.normal import ndtri  # only interval runs pay for loading it

    if not 0.0 < confidence < 1.0:  # rejects NaN too
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    z = ndtri(0.5 + confidence / 2.0)
    if not 0.0 < z < inf:
        raise ValueError(f"confidence {confidence!r} gives a degenerate quantile z={z}")
    return z


def proportion_confidence_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> EstimateWithConfidence:
    """Wilson-score confidence interval of a success probability (e.g. BLER)."""
    ensure_positive_int(trials, "trials")
    if not 0 <= successes <= trials:
        raise ValueError("successes must be between 0 and trials")
    z = two_sided_z(confidence)
    p_hat = successes / trials
    denominator = 1.0 + z**2 / trials
    centre = (p_hat + z**2 / (2 * trials)) / denominator
    half_width = (
        z * sqrt(p_hat * (1 - p_hat) / trials + z**2 / (4 * trials**2)) / denominator
    )
    # The Wilson bounds lie inside [0, 1] in exact arithmetic, but the
    # floating-point centre ± half-width can leak slightly outside (e.g. a
    # marginally negative lower bound at successes=0).  Clamp the bounds and
    # re-centre so the reported interval is always a valid probability range.
    lower = min(max(centre - half_width, 0.0), 1.0)
    upper = min(max(centre + half_width, 0.0), 1.0)
    return EstimateWithConfidence(
        (lower + upper) / 2.0, (upper - lower) / 2.0, confidence, trials
    )


def required_packets_for_bler(target_bler: float, relative_error: float = 0.3) -> int:
    """Rule-of-thumb packet count to estimate a BLER with given relative error.

    For a binomial proportion, ``var = p(1-p)/n``; requiring the standard
    error to be ``relative_error * p`` gives ``n ≈ (1-p) / (p * rel^2)``.
    """
    if not 0.0 < target_bler < 1.0:
        raise ValueError("target_bler must be in (0, 1)")
    if not relative_error > 0:  # rejects NaN as well as non-positive values
        raise ValueError("relative_error must be positive")
    return int(np.ceil((1.0 - target_bler) / (target_bler * relative_error**2)))
