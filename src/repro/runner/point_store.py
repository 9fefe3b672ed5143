"""Content-addressed store of individual sweep-point results.

Where :class:`~repro.runner.cache.ResultCache` caches whole *runs* (one file
per experiment identity), the point store caches the atoms those runs are
made of: one file per merged grid-point result, keyed by a digest of the
point's full physical identity — resolved link configuration (decoder
backend included), protection scheme, operating conditions, packet/die
budgets, seed entropy and spawn-key coordinates.  Because every work item
derives its random stream from exactly those coordinates, two coordinators
that share a store directory compute each point once between them: the
second run of an overlapping grid loads every known point and schedules
zero work items for it.

The store is **pure topology**, like the execution backend: it never enters
a run identity, a cache key or a golden file, and the results it returns
round-trip exactly (integers stay integers, floats keep their shortest-repr
bits, statistics arrays come back as ``int64``) — so a warm-store run is
byte-identical to a cold one.

Layout: ``<root>/<digest>.json``, flat.  Keep the directory separate from a
:class:`ResultCache` root — the run cache treats every subdirectory as an
experiment, and mixing the two would pollute ``repro cache ls``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.harq.metrics import HarqStatistics
from repro.runner.cache import (
    JsonStore,
    canonical_text,
    canonicalize,
    config_digest,
    decoder_backend_identity,
)
from repro.runner.tasks import FaultSimulationPoint

#: Bump when the payload or identity layout changes so stale entries miss.
POINT_STORE_FORMAT_VERSION = 1


# --------------------------------------------------------------------------- #
# point identities
# --------------------------------------------------------------------------- #
def _identity_config(config: Any) -> Dict[str, Any]:
    """Canonical identity of a link configuration, decoder resolved.

    The raw ``decoder_backend`` string is replaced by the backend that will
    *actually* run (name and compute dtype), mirroring the run cache: an
    ``auto`` request and an explicit ``numpy`` request produce byte-identical
    results, so they must share a point entry instead of recomputing it.
    """
    data = canonicalize(config)
    data["decoder_backend"] = decoder_backend_identity(config.decoder_backend)
    return data


def fault_point_identity(
    point: Any,
    *,
    num_packets: int,
    num_fault_maps: int,
    entropy: int,
    use_rake: bool,
    adaptive: Any = None,
) -> Dict[str, Any]:
    """The digestable identity of one fault-map grid point.

    Everything that can move a bit of the merged result is here — the
    :class:`~repro.runner.tasks.GridPoint` (spawn-key prefix, configuration,
    protection, operating conditions, fault model), the packet and die
    budgets, the seed entropy, the equalizer choice and the resolved
    adaptive-stopping parameters.  Batch aggregation and execution topology
    are deliberately absent: they cannot change results.
    """
    data = canonicalize(point)
    data["config"] = _identity_config(point.config)
    return {
        "store_format": POINT_STORE_FORMAT_VERSION,
        "kind": "fault",
        "point": data,
        "num_packets": int(num_packets),
        "num_fault_maps": int(num_fault_maps),
        "entropy": int(entropy),
        "use_rake": bool(use_rake),
        "adaptive": canonicalize(adaptive) if adaptive is not None else None,
    }


def bler_cell_identity(
    config: Any,
    *,
    snr_db: float,
    chunk_sizes: Sequence[int],
    entropy: int,
    key: Tuple[int, ...],
    use_rake: bool,
) -> Dict[str, Any]:
    """The digestable identity of one defect-free BLER grid cell.

    The chunk plan is part of the identity — chunk boundaries move the
    per-packet seed streams, so ``[8, 8, 4]`` and ``[10, 10]`` are different
    physics even at the same packet budget.
    """
    return {
        "store_format": POINT_STORE_FORMAT_VERSION,
        "kind": "bler",
        "config": _identity_config(config),
        "snr_db": float(snr_db),
        "chunk_sizes": [int(size) for size in chunk_sizes],
        "entropy": int(entropy),
        "key": [int(part) for part in key],
        "use_rake": bool(use_rake),
    }


# --------------------------------------------------------------------------- #
# exact result serialization
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


def fault_point_to_json(point: FaultSimulationPoint) -> Dict[str, Any]:
    """Lossless JSON form of a merged :class:`FaultSimulationPoint`.

    Floats survive verbatim — ``json`` emits ``repr``-round-trippable
    decimals — so a stored point re-enters a table builder with the exact
    bits a fresh computation would have produced.
    """
    return {
        "snr_db": float(point.snr_db),
        "num_faults": int(point.num_faults),
        "defect_rate": float(point.defect_rate),
        "statistics": statistics_to_json(point.statistics),
        "per_map_throughput": [float(value) for value in point.per_map_throughput],
        "protection_name": str(point.protection_name),
    }


def fault_point_from_json(data: Dict[str, Any]) -> FaultSimulationPoint:
    """Rebuild a merged :class:`FaultSimulationPoint` exactly."""
    return FaultSimulationPoint(
        snr_db=float(data["snr_db"]),
        num_faults=int(data["num_faults"]),
        defect_rate=float(data["defect_rate"]),
        statistics=statistics_from_json(data["statistics"]),
        per_map_throughput=[float(value) for value in data["per_map_throughput"]],
        protection_name=str(data["protection_name"]),
    )


# --------------------------------------------------------------------------- #
class PointStore(JsonStore):
    """A directory of content-addressed grid-point results.

    Parameters
    ----------
    root:
        Store directory (created lazily on the first store).  Share it
        between coordinators — writes are atomic renames of canonical
        JSON, so concurrent writers of the same digest are benign (their
        payloads are byte-identical by construction).

    The ``hits`` / ``writes`` counters cover this instance's lifetime and
    back the CLI's ``reused N point(s), computed M point(s)`` summary line.
    """

    def __init__(self, root: "Path | str") -> None:
        super().__init__(
            root,
            label="point-store",
            header={"point_store_format": POINT_STORE_FORMAT_VERSION},
        )

    def digest(self, identity: Dict[str, Any]) -> str:
        """The content address of a point identity mapping."""
        return config_digest(identity)

    def _load_result(self, digest: str, kind: str) -> Optional[Dict[str, Any]]:
        payload, _status = self.get(digest, expect={"kind": kind})
        return None if payload is None else payload["result"]

    def _store_result(
        self, digest: str, *, kind: str, identity: Dict[str, Any], result: Dict[str, Any]
    ) -> Path:
        payload = {
            **self.header,
            "kind": kind,
            "identity": canonicalize(identity),
            "result": result,
        }
        return self.put_text(canonical_text(payload), digest)

    # ------------------------------------------------------------------ #
    def load_fault_point(self, digest: str) -> Optional[FaultSimulationPoint]:
        """A stored merged fault point, or ``None`` on miss."""
        result = self._load_result(digest, "fault")
        return None if result is None else fault_point_from_json(result)

    def store_fault_point(
        self, digest: str, point: FaultSimulationPoint, identity: Dict[str, Any]
    ) -> Path:
        """Persist one merged fault point under its identity digest."""
        return self._store_result(
            digest, kind="fault", identity=identity, result=fault_point_to_json(point)
        )

    def load_statistics(self, digest: str) -> Optional[HarqStatistics]:
        """A stored merged BLER-cell statistics object, or ``None`` on miss."""
        result = self._load_result(digest, "bler")
        return None if result is None else statistics_from_json(result)

    def store_statistics(
        self, digest: str, statistics: HarqStatistics, identity: Dict[str, Any]
    ) -> Path:
        """Persist one merged BLER cell under its identity digest."""
        return self._store_result(
            digest,
            kind="bler",
            identity=identity,
            result=statistics_to_json(statistics),
        )

    def summary(self) -> str:
        """One human line for the CLI: what the store saved this run."""
        return (
            f"point store: reused {self.hits} point(s), "
            f"computed {self.writes} point(s)"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PointStore(root={str(self.root)!r})"


def resolve_point_store(value: "PointStore | Path | str | None") -> Optional[PointStore]:
    """Normalise a ``point_store`` argument (instance, path or ``None``)."""
    if value is None or isinstance(value, PointStore):
        return value
    return PointStore(value)
