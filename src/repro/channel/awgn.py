"""Additive white Gaussian noise and SNR bookkeeping."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import RngLike, as_rng


def awgn_noise(shape, noise_variance: float, rng: RngLike = None) -> np.ndarray:
    """Circularly-symmetric complex Gaussian noise with total variance *noise_variance*."""
    generator = as_rng(rng)
    sigma = np.sqrt(noise_variance / 2.0)
    return generator.normal(0.0, sigma, shape) + 1j * generator.normal(0.0, sigma, shape)
