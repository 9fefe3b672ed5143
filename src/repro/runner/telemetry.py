"""Process-wide metrics for the sweep pipeline (pure observability).

The runner stack is built around one invariant: execution topology never
changes results.  Telemetry extends that invariant — a
:class:`MetricsRegistry` records *how* a sweep executed (dispatches,
redeliveries, cache hits, chaos injections, round timings) without ever
touching *what* it computed.  Nothing in this module enters a run identity,
a cache key, a stored payload or a golden file; a run with a busy registry
is byte-identical to one with a fresh registry, and the conformance tests
pin it.

Three kinds of instruments, all thread-safe behind one lock:

* **counters** — monotonic, labelled totals (``inc``); the workhorse:
  ``backend_dispatch_total{worker=...}``, ``store_hits_total{store=...}``,
  ``chaos_injected_total{directive=...}``, ...
* **gauges** — last-written values (``set_gauge``), e.g. connected workers;
* **histograms** — durations bucketed against a fixed, bounded boundary set
  (``observe`` / ``timed``), e.g. ``runner_round_seconds``.

Plus a bounded **event log** (a deque, oldest entries dropped) of structured
records for the handful of rare, high-signal moments — a worker retired as
hung, a store entry quarantined — where a counter alone loses the story.

Surfaced three ways: ``GET /metrics`` on ``repro serve`` (JSON, or
Prometheus text exposition with ``?format=prometheus``), ``--metrics-out
PATH`` on ``repro run`` / ``repro bler`` (end-of-run JSON snapshot), and
``repro metrics SNAPSHOT`` (human summary of a snapshot file).

The registry is per-process, like the chaos plan: a worker daemon keeps its
own counts, and a coordinator snapshot records the coordinator's view (its
dispatches, its redeliveries, its store traffic) — not the fleet's.
"""

from __future__ import annotations

import bisect
import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

#: Snapshot layout version (bump when the JSON shape changes).
METRICS_FORMAT_VERSION = 1

#: Duration-histogram bucket upper bounds, in seconds.  Fixed and bounded:
#: a histogram's memory never depends on what it observed.  The range spans
#: a sub-millisecond serial round to a multi-minute paper-scale round.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0, 300.0,
)

#: Structured event log capacity (oldest entries are dropped beyond this).
EVENT_LOG_LIMIT = 512

#: A canonicalised label set: sorted ``(key, value)`` string pairs.
LabelsT = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelsT:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _labels_dict(key: LabelsT) -> Dict[str, str]:
    return {k: v for k, v in key}


class _Histogram:
    """One bounded-bucket duration histogram (not thread-safe on its own)."""

    __slots__ = ("bounds", "bucket_counts", "total", "count")

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(bounds)
        # One slot per bound plus the +Inf overflow slot.
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1


class MetricsRegistry:
    """Thread-safe counters, gauges, duration histograms and an event log.

    All instruments are created lazily on first use; label values are
    stringified (Prometheus semantics).  ``snapshot()`` is the one read
    path — it returns plain JSON-able data, so writers never block on
    serialisation.
    """

    def __init__(self, *, event_limit: int = EVENT_LOG_LIMIT) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelsT], float] = {}
        self._gauges: Dict[Tuple[str, LabelsT], float] = {}
        self._histograms: Dict[Tuple[str, LabelsT], _Histogram] = {}
        self._events: "deque[Dict[str, Any]]" = deque(maxlen=event_limit)
        self._started_at = time.time()

    # ------------------------------------------------------------------ #
    # write paths
    # ------------------------------------------------------------------ #
    def inc(self, name: str, amount: float = 1, **labels: Any) -> None:
        """Add *amount* to a monotonic counter (negative amounts are errors)."""
        if amount < 0:
            raise ValueError(f"counter {name} cannot decrease (amount={amount})")
        key = (name, _label_key(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + amount

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Record the current value of a gauge (last write wins)."""
        with self._lock:
            self._gauges[(name, _label_key(labels))] = float(value)

    def observe(self, name: str, seconds: float, **labels: Any) -> None:
        """Record one duration sample into a bounded-bucket histogram."""
        key = (name, _label_key(labels))
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = _Histogram()
            histogram.observe(float(seconds))

    @contextmanager
    def timed(self, name: str, **labels: Any) -> Iterator[None]:
        """Time a ``with`` block into the *name* histogram."""
        start = time.monotonic()
        try:
            yield
        finally:
            self.observe(name, time.monotonic() - start, **labels)

    def event(self, kind: str, **fields: Any) -> None:
        """Append one structured record to the bounded event log."""
        record = {"time": time.time(), "kind": str(kind)}
        record.update({str(k): v for k, v in fields.items()})
        with self._lock:
            self._events.append(record)

    # ------------------------------------------------------------------ #
    # read paths
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """JSON-able view of everything recorded so far."""
        with self._lock:
            counters = [
                {"name": name, "labels": _labels_dict(labels), "value": value}
                for (name, labels), value in sorted(self._counters.items())
            ]
            gauges = [
                {"name": name, "labels": _labels_dict(labels), "value": value}
                for (name, labels), value in sorted(self._gauges.items())
            ]
            histograms = [
                {
                    "name": name,
                    "labels": _labels_dict(labels),
                    "buckets": [
                        {"le": bound, "count": count}
                        for bound, count in zip(
                            list(histogram.bounds) + ["+Inf"],
                            histogram.bucket_counts,
                        )
                    ],
                    "sum": histogram.total,
                    "count": histogram.count,
                }
                for (name, labels), histogram in sorted(self._histograms.items())
            ]
            events = list(self._events)
        return {
            "metrics_format": METRICS_FORMAT_VERSION,
            "started_at": self._started_at,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "events": events,
        }

    def render_prometheus(self) -> str:
        """The snapshot in Prometheus text exposition format (0.0.4)."""
        snapshot = self.snapshot()
        lines: List[str] = []

        def fmt(name: str, labels: Mapping[str, str], value: float) -> str:
            if labels:
                inner = ",".join(
                    f'{k}="{_escape_label(v)}"' for k, v in sorted(labels.items())
                )
                return f"{name}{{{inner}}} {_format_value(value)}"
            return f"{name} {_format_value(value)}"

        for seen_type, entries in (("counter", snapshot["counters"]),
                                   ("gauge", snapshot["gauges"])):
            typed: Dict[str, None] = {}
            for entry in entries:
                if entry["name"] not in typed:
                    typed[entry["name"]] = None
                    lines.append(f"# TYPE {entry['name']} {seen_type}")
                lines.append(fmt(entry["name"], entry["labels"], entry["value"]))
        typed_hist: Dict[str, None] = {}
        for entry in snapshot["histograms"]:
            name = entry["name"]
            if name not in typed_hist:
                typed_hist[name] = None
                lines.append(f"# TYPE {name} histogram")
            cumulative = 0
            for bucket in entry["buckets"]:
                cumulative += bucket["count"]
                le = bucket["le"] if bucket["le"] == "+Inf" else _format_value(bucket["le"])
                labels = dict(entry["labels"])
                labels["le"] = str(le)
                lines.append(fmt(f"{name}_bucket", labels, cumulative))
            lines.append(fmt(f"{name}_sum", entry["labels"], entry["sum"]))
            lines.append(fmt(f"{name}_count", entry["labels"], entry["count"]))
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Forget everything (tests isolate themselves with this)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._events.clear()
            self._started_at = time.time()


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


# --------------------------------------------------------------------------- #
# the process-global registry (module-level convenience front end)
# --------------------------------------------------------------------------- #
_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process's one shared registry (what every hook point writes to)."""
    return _registry


def inc(name: str, amount: float = 1, **labels: Any) -> None:
    """Bump a counter on the process registry."""
    _registry.inc(name, amount, **labels)


def set_gauge(name: str, value: float, **labels: Any) -> None:
    """Set a gauge on the process registry."""
    _registry.set_gauge(name, value, **labels)


def observe(name: str, seconds: float, **labels: Any) -> None:
    """Record a duration sample on the process registry."""
    _registry.observe(name, seconds, **labels)


def timed(name: str, **labels: Any):
    """Time a ``with`` block into the process registry."""
    return _registry.timed(name, **labels)


def event(kind: str, **fields: Any) -> None:
    """Append a structured event to the process registry's log."""
    _registry.event(kind, **fields)


def reset() -> None:
    """Reset the process registry (test isolation)."""
    _registry.reset()


# --------------------------------------------------------------------------- #
# snapshot files (--metrics-out / `repro metrics`)
# --------------------------------------------------------------------------- #
def write_snapshot(path: "Path | str") -> Path:
    """Write the process registry's snapshot as JSON and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(_registry.snapshot(), sort_keys=True, indent=2) + "\n"
    )
    return path


def load_snapshot(path: "Path | str") -> Dict[str, Any]:
    """Read a ``--metrics-out`` snapshot file back (validating the format)."""
    data = json.loads(Path(path).read_text())
    if data.get("metrics_format") != METRICS_FORMAT_VERSION:
        raise ValueError(
            f"{path} is not a metrics snapshot this version understands "
            f"(metrics_format={data.get('metrics_format')!r})"
        )
    return data


def snapshot_counter_total(
    snapshot: Mapping[str, Any], name: str, **labels: Any
) -> float:
    """Sum a snapshot's counter over label sets matching *labels* (subset)."""
    wanted = {str(k): str(v) for k, v in labels.items()}
    total = 0.0
    for entry in snapshot.get("counters", []):
        if entry["name"] != name:
            continue
        entry_labels = entry.get("labels", {})
        if all(entry_labels.get(k) == v for k, v in wanted.items()):
            total += entry["value"]
    return total


def summarize_snapshot(snapshot: Mapping[str, Any]) -> str:
    """A human summary of a snapshot (the body of ``repro metrics``)."""
    lines: List[str] = []
    counters = snapshot.get("counters", [])
    if counters:
        lines.append("counters:")
        for entry in counters:
            labels = entry.get("labels", {})
            suffix = (
                "{" + ", ".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                if labels
                else ""
            )
            lines.append(f"  {entry['name']}{suffix} = {entry['value']:g}")
    gauges = snapshot.get("gauges", [])
    if gauges:
        lines.append("gauges:")
        for entry in gauges:
            labels = entry.get("labels", {})
            suffix = (
                "{" + ", ".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                if labels
                else ""
            )
            lines.append(f"  {entry['name']}{suffix} = {entry['value']:g}")
    histograms = snapshot.get("histograms", [])
    if histograms:
        lines.append("histograms:")
        for entry in histograms:
            count = entry.get("count", 0)
            mean = entry.get("sum", 0.0) / count if count else 0.0
            lines.append(
                f"  {entry['name']}: {count} sample(s), mean {mean:.4f}s"
            )
    events = snapshot.get("events", [])
    if events:
        lines.append(f"events ({len(events)} recorded, newest last):")
        for record in events[-10:]:
            fields = ", ".join(
                f"{k}={v}" for k, v in sorted(record.items())
                if k not in ("time", "kind")
            )
            lines.append(f"  {record.get('kind', '?')}: {fields}")
    if not lines:
        return "no metrics recorded"
    return "\n".join(lines)
