"""Argument-validation helpers shared across the library.

These raise early, informative errors instead of letting malformed inputs
propagate into NumPy broadcasting surprises deep inside the link simulator.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np


def ensure_positive_int(value: int, name: str) -> int:
    """Validate that *value* is a positive integer and return it as ``int``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


def ensure_non_negative_int(value: int, name: str) -> int:
    """Validate that *value* is a non-negative integer and return it as ``int``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return int(value)


def ensure_probability(value: float, name: str) -> float:
    """Validate that *value* lies in the closed interval [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def ensure_in_range(
    value: float,
    name: str,
    low: float,
    high: float,
    *,
    inclusive: bool = True,
) -> float:
    """Validate that *value* lies within [low, high] (or (low, high))."""
    value = float(value)
    if inclusive:
        ok = low <= value <= high
    else:
        ok = low < value < high
    if not ok:
        bounds = f"[{low}, {high}]" if inclusive else f"({low}, {high})"
        raise ValueError(f"{name} must be in {bounds}, got {value}")
    return value


def ensure_bit_array(bits: Union[Sequence[int], np.ndarray], name: str = "bits") -> np.ndarray:
    """Coerce *bits* to a 1-D ``int8`` array and check all values are 0/1."""
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError(f"{name} must contain only 0s and 1s")
    return arr.astype(np.int8)


def ensure_choice(value: str, name: str, choices: Sequence[str]) -> str:
    """Validate that *value* is one of *choices* (case-sensitive)."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {sorted(choices)}, got {value!r}")
    return value
