"""Pure arithmetic of the benchmark: span self times, summaries, names.

Nothing here starts a process or touches a file, so the self-tests can pin
every rule the reported numbers depend on.
"""

from __future__ import annotations

import math
import re
import statistics
from collections import defaultdict
from typing import Dict, Optional, Sequence

#: Metric names: a letter or digit, then letters, digits, ``_``, ``.``, ``-``.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Tail percentiles a timing may be reported at, highest last.
TAIL_PERCENTILES = (90.0, 95.0, 99.0, 99.9)

#: A percentile is reported only when this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


def valid_metric_name(name: str) -> bool:
    """Whether *name* fits the metric-name grammar."""
    return bool(METRIC_NAME.match(name))


def layer_self_times(spans: Sequence[Sequence], since: float = -math.inf) -> Dict[str, float]:
    """Busy time per layer, counting only the part of each span after *since*.

    *spans* holds ``(layer, start, end, parent)`` records, ``parent`` being
    the index of the enclosing span or ``-1``.  A span's self time is its
    duration minus the part of it covered by its child spans; clipping every
    span to ``[since, end]`` keeps work done before the set-up mark out of
    the layer totals (it is already inside the set-up time).
    """
    clipped = [max(0.0, end - max(start, since)) for _layer, start, end, _parent in spans]
    own = list(clipped)
    for index, (_layer, _start, _end, parent) in enumerate(spans):
        if parent >= 0:
            own[parent] -= clipped[index]
    totals: Dict[str, float] = defaultdict(float)
    for (layer, _start, _end, _parent), seconds in zip(spans, own):
        totals[layer] += seconds
    return dict(totals)


def median(values: Sequence[float]) -> float:
    """The median of a non-empty sample."""
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, q3)`` as :func:`statistics.quantiles` gives them (``n=4``)."""
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def reportable_percentile(count: int) -> Optional[float]:
    """Highest tail percentile with at least ten of *count* samples beyond it."""
    best = None
    for percentile in TAIL_PERCENTILES:
        # The tolerance absorbs rounding in 100 - 99.9 and the like.
        if count * (100.0 - percentile) >= 100.0 * MIN_SAMPLES_BEYOND - 1e-6:
            best = percentile
    return best


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    """The nearest-rank *percentile* of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def describe_timing(values: Sequence[float]) -> str:
    """Median, quartiles and the tail percentile rule, as one line of text."""
    q1, q3 = quartiles(values)
    text = f"median {median(values):.4f} (q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)}"
    percentile = reportable_percentile(len(values))
    if percentile is None:
        return text + "; too few samples for a tail percentile)"
    return text + f"; p{percentile:g} {nearest_rank(values, percentile):.4f})"
