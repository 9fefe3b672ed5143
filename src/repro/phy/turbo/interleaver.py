"""Turbo-code internal interleaver.

Two constructions are provided:

* **QPP (quadratic permutation polynomial)** — ``pi(i) = (f1*i + f2*i^2) mod K``,
  the contention-free construction used by LTE and a faithful functional model
  of the UMTS internal interleaver's spreading behaviour.  Valid ``(f1, f2)``
  pairs are derived automatically for any block size.
* **Pseudo-random** — a deterministic seeded permutation, the classic turbo
  interleaver of the original Berrou construction.  Used as a fallback and in
  tests.

Both give the pseudo-random spreading the iterative decoder needs; the exact
3GPP prunable mother interleaver is bit-level irrelevant to the paper's study.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from repro.phy.interleaving import Interleaver
from repro.utils.rng import as_rng
from repro.utils.validation import ensure_positive_int


class TurboInterleaver(Interleaver):
    """An :class:`~repro.phy.interleaving.Interleaver` used inside the turbo code."""


def _valid_qpp_parameters(block_size: int) -> tuple[int, int]:
    """Derive a valid QPP parameter pair (f1, f2) for *block_size*.

    Requirements (Takeshita): ``gcd(f1, K) == 1`` and every prime factor of K
    must divide f2 (with an extra factor of 2 if 4 divides K).
    """
    k = block_size
    # f2: product of the distinct prime factors of K (doubled if 4 | K).
    remaining = k
    f2 = 1
    factor = 2
    while factor * factor <= remaining:
        if remaining % factor == 0:
            f2 *= factor
            while remaining % factor == 0:
                remaining //= factor
        factor += 1
    if remaining > 1:
        f2 *= remaining
    if k % 4 == 0 and f2 % 4 != 0:
        f2 *= 2
    f2 %= k
    if f2 == 0:
        f2 = k // 2 if k % 2 == 0 else 1
    # f1: smallest odd value >= 3 coprime with K.
    f1 = 3
    while gcd(f1, k) != 1:
        f1 += 2
    return f1, f2


def qpp_interleaver(block_size: int, f1: int | None = None, f2: int | None = None) -> TurboInterleaver:
    """Quadratic-permutation-polynomial interleaver for *block_size* bits."""
    k = ensure_positive_int(block_size, "block_size")
    if f1 is None or f2 is None:
        auto_f1, auto_f2 = _valid_qpp_parameters(k)
        f1 = auto_f1 if f1 is None else f1
        f2 = auto_f2 if f2 is None else f2
    i = np.arange(k, dtype=np.int64)
    permutation = (f1 * i + f2 * i * i) % k
    # The values lie in [0, K) by the modulo: a permutation hits each once.
    if np.bincount(permutation, minlength=k).max() != 1:
        raise ValueError(
            f"(f1={f1}, f2={f2}) is not a valid QPP parameter pair for K={k}"
        )
    return TurboInterleaver(permutation)


def pseudo_random_interleaver(block_size: int, seed: int = 0x5EED) -> TurboInterleaver:
    """Deterministic pseudo-random interleaver (Berrou-style)."""
    k = ensure_positive_int(block_size, "block_size")
    permutation = as_rng(seed + k).permutation(k)
    return TurboInterleaver(permutation)


def make_turbo_interleaver(block_size: int, kind: str = "qpp") -> TurboInterleaver:
    """Factory for the internal interleaver.

    Parameters
    ----------
    block_size:
        Number of information bits per code block.
    kind:
        ``"qpp"`` (default) or ``"random"``.
    """
    if kind == "qpp":
        try:
            return qpp_interleaver(block_size)
        except ValueError:
            # Extremely rare (automatic parameters failed); fall back safely.
            return pseudo_random_interleaver(block_size)
    if kind == "random":
        return pseudo_random_interleaver(block_size)
    raise ValueError(f"unknown turbo interleaver kind {kind!r}")
