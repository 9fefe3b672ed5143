"""Rayleigh fading processes.

Two models are provided:

* :func:`block_rayleigh_gains` — independent complex Gaussian gains per block
  (quasi-static fading), the usual model for per-TTI link simulations where
  the channel is constant over one transmission but varies across HARQ
  retransmissions ("a wide range of rapidly varying mobile channel
  conditions").
* :class:`JakesFadingProcess` — a sum-of-sinusoids (Jakes/Clarke) model
  producing a time-correlated fading waveform with a configurable Doppler
  frequency, for studies that need intra-packet channel variation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.rng import RngLike, as_rng
from repro.utils.validation import ensure_positive_int


def block_rayleigh_gains(
    num_blocks: int,
    num_taps: int = 1,
    tap_powers: np.ndarray | None = None,
    rng: RngLike = None,
) -> np.ndarray:
    """Independent Rayleigh gains per block and tap.

    Parameters
    ----------
    num_blocks:
        Number of independent channel realisations (e.g. HARQ transmissions).
    num_taps:
        Number of multipath taps per realisation.
    tap_powers:
        Average power of each tap (defaults to uniform, normalised to sum 1).
    rng:
        Seed or generator.

    Returns
    -------
    numpy.ndarray
        Complex array of shape ``(num_blocks, num_taps)``.
    """
    num_blocks = ensure_positive_int(num_blocks, "num_blocks")
    num_taps = ensure_positive_int(num_taps, "num_taps")
    if tap_powers is None:
        powers = np.full(num_taps, 1.0 / num_taps)
    else:
        powers = np.asarray(tap_powers, dtype=np.float64)
        if powers.size != num_taps:
            raise ValueError("tap_powers length must equal num_taps")
        if (powers < 0).any():
            raise ValueError("tap_powers must be non-negative")
        powers = powers / powers.sum()
    generator = as_rng(rng)
    gains = generator.normal(0, 1, (num_blocks, num_taps)) + 1j * generator.normal(
        0, 1, (num_blocks, num_taps)
    )
    return gains * np.sqrt(powers / 2.0)


@dataclass(frozen=True)
class JakesFadingRealization:
    """One drawn set of arrival angles and phases, evaluable over any window.

    The realisation is a pure function of its parameters: evaluating sample
    windows ``[0, k)`` and ``[k, n)`` separately concatenates to exactly the
    waveform of ``[0, n)``, so chunked (streaming) generation is
    seed-deterministic across chunk boundaries.

    Attributes
    ----------
    sample_rate_hz:
        Sampling rate of the evaluated waveform.
    doppler_shifts:
        Angular Doppler shift of each sinusoid (rad/s).
    phases_i, phases_q:
        Random phases of the in-phase and quadrature sums.
    """

    sample_rate_hz: float
    doppler_shifts: np.ndarray
    phases_i: np.ndarray
    phases_q: np.ndarray


def jakes_gains_batch(
    realizations, start_sample: int, num_samples: int
) -> np.ndarray:
    """Evaluate many :class:`JakesFadingRealization` waveforms in one pass.

    All realisations must share one sample rate (they come from the same
    process).  The evaluation is elementwise plus a contiguous last-axis
    reduction, so each output row does not depend on the other rows.
    """
    num_samples = ensure_positive_int(num_samples, "num_samples")
    if start_sample < 0:
        raise ValueError("start_sample must be non-negative")
    if not realizations:
        raise ValueError("realizations must not be empty")
    shifts = np.stack([r.doppler_shifts for r in realizations])
    phases_i = np.stack([r.phases_i for r in realizations])
    phases_q = np.stack([r.phases_q for r in realizations])
    t = (start_sample + np.arange(num_samples)) / realizations[0].sample_rate_hz
    argument = t[None, :, None] * shifts[:, None, :]
    in_phase = np.sum(np.cos(argument + phases_i[:, None, :]), axis=2)
    quadrature = np.sum(np.sin(argument + phases_q[:, None, :]), axis=2)
    return (in_phase + 1j * quadrature) / np.sqrt(shifts.shape[1])


@dataclass
class JakesFadingProcess:
    """Sum-of-sinusoids Rayleigh fading waveform generator (Clarke/Jakes model).

    Parameters
    ----------
    doppler_hz:
        Maximum Doppler frequency in Hz.
    sample_rate_hz:
        Sampling rate of the generated waveform.
    num_sinusoids:
        Number of sinusoids in the sum (more gives better Rayleigh statistics).
    """

    doppler_hz: float
    sample_rate_hz: float
    num_sinusoids: int = 32

    def __post_init__(self) -> None:
        if self.doppler_hz < 0:
            raise ValueError("doppler_hz must be non-negative")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        ensure_positive_int(self.num_sinusoids, "num_sinusoids")

    def realization(self, rng: RngLike = None) -> JakesFadingRealization:
        """Draw one waveform realisation (random arrival angles and phases).

        The draw order (angles, then in-phase phases, then quadrature phases)
        is part of the determinism contract: seeded waveforms are unchanged
        across the refactoring that split drawing from evaluation.
        """
        generator = as_rng(rng)
        n = self.num_sinusoids
        # Random arrival angles and phases (Monte-Carlo sum-of-sinusoids).
        theta = generator.uniform(0, 2 * np.pi, n)
        phi_i = generator.uniform(0, 2 * np.pi, n)
        phi_q = generator.uniform(0, 2 * np.pi, n)
        return JakesFadingRealization(
            sample_rate_hz=self.sample_rate_hz,
            doppler_shifts=2 * np.pi * self.doppler_hz * np.cos(theta),
            phases_i=phi_i,
            phases_q=phi_q,
        )
