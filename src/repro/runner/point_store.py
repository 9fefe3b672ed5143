"""Content-addressed store of the per-die outcomes behind each sweep point.

Where :class:`~repro.runner.cache.ResultCache` caches whole *runs* (one file
per experiment identity), the point store keeps the work those runs are made
of: one record per fault-map grid point or defect-free BLER cell, holding
its work-item outcomes in die (or chunk) order.  A record is keyed by a
digest of the unit's full physical identity — resolved link configuration
(decoder backend included), protection scheme, operating conditions,
packet/die budgets, seed entropy, spawn-key coordinates and the adaptive
stopping rule.  Because every work item derives its random stream from
exactly those coordinates, a record can stand in for the work it holds:

* two coordinators sharing a cache directory compute each point once
  between them — the second schedules zero work items for a known point;
* a run killed mid-sweep resumes by running the same command again: every
  finished point is loaded, and an adaptive point replays its stored dies
  and computes only the ones its record lacks.

Every stored field is an integer, so a record round-trips exactly, and the
merged point is rebuilt by :func:`~repro.runner.tasks.merge_fault_outcomes`
or :func:`~repro.harq.metrics.merge_statistics` — the code that merges a
fresh run.  A record whose outcome count is not the one its unit needs
(exactly ``num_fault_maps`` dies for a fixed point, one statistics object
per chunk for a BLER cell, at least one die for an adaptive point) reads as
a miss, so stored state fails closed.

The store is **pure topology**, like the execution backend: it never enters
a run identity, a cache key or a golden file.  Layout:
``<cache-dir>/points/<digest>.json``, flat.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.harq.metrics import HarqStatistics
from repro.runner.cache import (
    JsonStore,
    canonical_digest,
    canonical_text,
    canonicalize,
    decoder_backend_identity,
)
from repro.runner.tasks import FaultMapOutcome

#: Bump when the payload or identity layout changes so stale entries miss.
POINT_STORE_FORMAT_VERSION = 2


# --------------------------------------------------------------------------- #
# point identities
# --------------------------------------------------------------------------- #
def link_identity(config: Any) -> Dict[str, Any]:
    """Canonical identity of a link configuration, decoder resolved.

    The raw ``decoder_backend`` string is replaced by the backend that will
    *actually* run (name and compute dtype), mirroring the run cache: an
    ``auto`` request and an explicit ``numpy`` request produce byte-identical
    results, so they must share a point entry instead of recomputing it.
    Grid loops resolve it once per distinct configuration.
    """
    data = canonicalize(config)
    data["decoder_backend"] = decoder_backend_identity(config.decoder_backend)
    return data


def fault_point_identity(
    point: Any,
    link: Dict[str, Any],
    *,
    num_packets: int,
    num_fault_maps: int,
    entropy: int,
    use_rake: bool,
    adaptive: Any = None,
) -> Dict[str, Any]:
    """The canonical identity of one fault-map grid point.

    Everything that can move a bit of the point's die outcomes is here —
    the :class:`~repro.runner.tasks.GridPoint` (spawn-key prefix,
    configuration as *link* = :func:`link_identity` of ``point.config``,
    protection, operating conditions, fault model), the packet and die
    budgets, the seed entropy, the equalizer choice and the resolved
    adaptive-stopping parameters.  Batch aggregation and execution topology
    are deliberately absent: they cannot change results.
    """
    data = {
        field.name: canonicalize(getattr(point, field.name))
        for field in fields(point)
        if field.name != "config"
    }
    return {
        "store_format": POINT_STORE_FORMAT_VERSION,
        "kind": "fault",
        "point": {"__dataclass__": type(point).__name__, **data, "config": link},
        "num_packets": int(num_packets),
        "num_fault_maps": int(num_fault_maps),
        "entropy": int(entropy),
        "use_rake": bool(use_rake),
        "adaptive": canonicalize(adaptive) if adaptive is not None else None,
    }


def bler_cell_identity(
    link: Dict[str, Any],
    *,
    snr_db: float,
    chunk_sizes: Sequence[int],
    entropy: int,
    key: Tuple[int, ...],
    use_rake: bool,
) -> Dict[str, Any]:
    """The canonical identity of one defect-free BLER grid cell.

    *link* is the cell configuration's :func:`link_identity`.  The chunk
    plan is part of the identity — chunk boundaries move the per-packet seed
    streams, so ``[8, 8, 4]`` and ``[10, 10]`` are different physics even at
    the same packet budget.
    """
    return {
        "store_format": POINT_STORE_FORMAT_VERSION,
        "kind": "bler",
        "config": link,
        "snr_db": float(snr_db),
        "chunk_sizes": [int(size) for size in chunk_sizes],
        "entropy": int(entropy),
        "key": [int(part) for part in key],
        "use_rake": bool(use_rake),
    }


# --------------------------------------------------------------------------- #
# exact outcome serialization
# --------------------------------------------------------------------------- #
def statistics_to_json(statistics: HarqStatistics) -> Dict[str, Any]:
    """Lossless JSON form of :class:`HarqStatistics` (all-integer fields)."""
    return {
        "num_packets": int(statistics.num_packets),
        "num_successful": int(statistics.num_successful),
        "total_transmissions": int(statistics.total_transmissions),
        "info_bits_per_packet": int(statistics.info_bits_per_packet),
        "attempts_per_transmission": [
            int(count) for count in statistics.attempts_per_transmission
        ],
        "failures_per_transmission": [
            int(count) for count in statistics.failures_per_transmission
        ],
    }


def statistics_from_json(data: Dict[str, Any]) -> HarqStatistics:
    """Rebuild :class:`HarqStatistics` exactly (arrays back to ``int64``)."""
    return HarqStatistics(
        num_packets=int(data["num_packets"]),
        num_successful=int(data["num_successful"]),
        total_transmissions=int(data["total_transmissions"]),
        info_bits_per_packet=int(data["info_bits_per_packet"]),
        attempts_per_transmission=np.asarray(
            data["attempts_per_transmission"], dtype=np.int64
        ),
        failures_per_transmission=np.asarray(
            data["failures_per_transmission"], dtype=np.int64
        ),
    )


def outcome_to_json(outcome: FaultMapOutcome) -> Dict[str, Any]:
    """Lossless JSON form of one die's :class:`FaultMapOutcome`."""
    return {
        "statistics": statistics_to_json(outcome.statistics),
        "num_faults": int(outcome.num_faults),
        "fallible_cells": int(outcome.fallible_cells),
    }


def outcome_from_json(data: Dict[str, Any]) -> FaultMapOutcome:
    """Rebuild one die's :class:`FaultMapOutcome` exactly."""
    return FaultMapOutcome(
        statistics=statistics_from_json(data["statistics"]),
        num_faults=int(data["num_faults"]),
        fallible_cells=int(data["fallible_cells"]),
    )


#: ``kind -> (to_json, from_json)`` of one work-item outcome.
_CODECS = {
    "fault": (outcome_to_json, outcome_from_json),
    "bler": (statistics_to_json, statistics_from_json),
}


# --------------------------------------------------------------------------- #
class PointStore(JsonStore):
    """A directory of per-die (per-chunk) outcome records, one per point.

    Parameters
    ----------
    root:
        Store directory (created lazily on the first store) — the
        ``points/`` directory of a result cache.  Share it between
        coordinators: writes are atomic renames of canonical JSON, so
        concurrent writers of the same digest are benign.  Two coordinators
        racing on an adaptive point both write a prefix of the same die
        sequence, so whichever rename wins leaves a correct record.
    reuse:
        ``False`` ignores every stored record (each load is skipped) while
        still writing fresh ones — ``repro run --force``.

    The ``hits`` counter and the set of digests written back the CLI's
    ``reused N point(s), computed M point(s)`` summary line.
    """

    def __init__(self, root: "Path | str", *, reuse: bool = True) -> None:
        super().__init__(
            root,
            label="point-store",
            header={"point_store_format": POINT_STORE_FORMAT_VERSION},
        )
        self.reuse = reuse
        self._computed: set = set()

    def digest(self, identity: Dict[str, Any]) -> str:
        """The content address of a canonical point identity."""
        return canonical_digest(identity)

    def load(self, digest: str, kind: str, count: Optional[int]) -> Optional[List[Any]]:
        """The stored outcomes of one unit in die order, or ``None`` on a miss.

        *kind* is the identity's ``"fault"`` or ``"bler"``; *count* is the
        exact number of outcomes a usable record holds, or ``None`` for an
        adaptive point, whose record is any non-empty prefix of its dies.
        """
        if not self.reuse:
            return None
        from_json = _CODECS[kind][1]

        def decode(payload: Dict[str, Any]) -> List[Any]:
            outcomes = payload["outcomes"]
            if not isinstance(outcomes, list) or not outcomes:
                raise ValueError("a point record holds no outcomes")
            if count is not None and len(outcomes) != count:
                raise ValueError(f"a point record holds {len(outcomes)} outcomes, not {count}")
            return [from_json(item) for item in outcomes]

        outcomes, _status = self.get(digest, expect={"kind": kind}, decode=decode)
        return outcomes

    def store(self, digest: str, identity: Dict[str, Any], outcomes: Sequence[Any]) -> Path:
        """Persist one unit's outcomes (die order) under its identity digest."""
        kind = identity["kind"]
        to_json = _CODECS[kind][0]
        payload = {
            **self.header,
            "kind": kind,
            "identity": identity,
            "outcomes": [to_json(outcome) for outcome in outcomes],
        }
        self._computed.add(digest)
        return self.put_text(canonical_text(payload), digest)

    def summary(self) -> str:
        """One human line for the CLI: what the store saved this run."""
        return (
            f"point store: reused {self.hits} point(s), "
            f"computed {len(self._computed)} point(s)"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PointStore(root={str(self.root)!r})"
