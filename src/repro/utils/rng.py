"""Random-number-generator helpers.

Every stochastic component in the library accepts either a seed (``int``), an
existing :class:`numpy.random.Generator`, or ``None`` (fresh entropy).  This
module centralises the conversion so that experiments are reproducible when a
seed is given and independent streams can be derived for sub-components.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_rng(rng: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *rng*.

    Parameters
    ----------
    rng:
        ``None`` (fresh OS entropy), an integer seed, a ``SeedSequence`` or an
        already-constructed ``Generator`` (returned unchanged).
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, np.random.SeedSequence):
        return np.random.default_rng(rng)
    return np.random.default_rng(rng)


def child_rngs(rng: RngLike, count: int) -> list[np.random.Generator]:
    """Derive *count* statistically independent child generators from *rng*.

    Used by Monte-Carlo sweeps so that each trial / worker gets its own
    stream while the whole sweep stays reproducible from a single seed.

    When *rng* is a :class:`numpy.random.SeedSequence` the children are
    derived with :meth:`~numpy.random.SeedSequence.spawn`, whose spawn keys
    are unique by construction — the collision-free contract the parallel
    runner relies on.  Seeds and generators keep the legacy draw-based
    derivation so existing experiment streams are unchanged.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(rng, np.random.SeedSequence):
        return [np.random.default_rng(child) for child in rng.spawn(count)]
    base = as_rng(rng)
    seeds = base.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


def keyed_seed_sequence(
    entropy: int, key: "tuple[int, ...]" = ()
) -> np.random.SeedSequence:
    """A :class:`~numpy.random.SeedSequence` addressed by an explicit spawn key.

    Two calls collide only when both *entropy* and *key* are equal, so a
    sharded workload can address the stream of shard ``s`` of fault map ``m``
    of sweep point ``p`` as ``keyed_seed_sequence(seed, (p, m, s))`` and get
    the same stream no matter which worker process (or how many of them)
    executes the shard.
    """
    if entropy < 0:
        raise ValueError(f"entropy must be non-negative, got {entropy}")
    for part in key:
        if int(part) < 0:
            raise ValueError(f"key parts must be non-negative, got {key}")
    return np.random.SeedSequence(entropy, spawn_key=tuple(int(part) for part in key))


def resolve_entropy(rng: RngLike) -> int:
    """Reduce *rng* to a non-negative integer entropy value.

    Integer seeds pass through unchanged so that a user-visible seed (e.g.
    ``--seed 2012``) addresses the same keyed streams everywhere; anything
    else (``None``, a generator, a seed sequence) is reduced to one draw so
    the derived workload is still reproducible from the returned value.
    """
    if isinstance(rng, bool):
        raise TypeError("bool is not a valid seed")
    if isinstance(rng, (int, np.integer)):
        if int(rng) < 0:
            raise ValueError(f"seed must be non-negative, got {rng}")
        return int(rng)
    if isinstance(rng, np.random.SeedSequence):
        entropy = rng.entropy
        if isinstance(entropy, int) and not rng.spawn_key:
            return entropy
        return int(np.random.default_rng(rng).integers(0, 2**63 - 1))
    return int(as_rng(rng).integers(0, 2**63 - 1))

