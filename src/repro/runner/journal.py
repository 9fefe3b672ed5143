"""Append-only sweep journal: checkpoint/resume for interrupted coordinators.

A :class:`SweepJournal` is a JSONL file under the cache directory
(``<cache>/journal/<experiment>-<digest>.jsonl``, keyed by the same
run-identity digest as the result cache) that records every *completed* unit
of sweep progress as it happens:

* a merged fault-map grid point (``fault_point``),
* a merged defect-free BLER cell (``bler_cell``),
* one completed adaptive round of die outcomes (``adaptive_round``) —
  including everything the adaptive estimator needs to reconstruct its
  ``(errors, trials, num_items)`` state mid-point.

Appends are flushed and fsynced per entry, so after ``kill -9`` the file
holds every entry that was ever reported written, plus at most one torn
trailing line.  Recovery (:meth:`SweepJournal.open_for_run` with
``resume=True``) replays the intact prefix, drops the torn tail, and the
grid loops skip everything already journaled — scheduling the *remaining*
work with the same deterministic spawn keys a fresh run would use.  Because
results round-trip losslessly (the serializers are shared with
:mod:`repro.runner.point_store`), a resumed run is **byte-identical** to an
uninterrupted one.

The journal is run-scoped scratch state: it is deleted on successful
completion (the result cache takes over), and a run started *without*
``--resume`` discards any leftover journal rather than replaying progress
the user asked to recompute.  Like the point store and the execution
backend, the journal is pure topology — never part of a run identity.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.harq.metrics import HarqStatistics
from repro.runner import telemetry
from repro.runner.cache import header_matches, parse_object
from repro.runner.point_store import (
    fault_point_from_json,
    fault_point_to_json,
    statistics_from_json,
    statistics_to_json,
)
from repro.runner.tasks import FaultMapOutcome, FaultSimulationPoint

#: Bump when the entry layout changes so stale journals are discarded.
JOURNAL_FORMAT_VERSION = 1


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


class SweepJournal:
    """Crash-safe progress log of one sweep run.

    Use :meth:`open_for_run` rather than constructing directly; the journal
    must be :meth:`close`\\ d (or :meth:`finalize`\\ d) when the run ends.
    A journal instance belongs to a single coordinator — there is no
    cross-process locking, matching the one-coordinator-per-run model.
    """

    def __init__(self, path: "Path | str", *, experiment: str, digest: str) -> None:
        self.path = Path(path)
        #: The first line of the file; a journal whose first line differs
        #: (another run, or another format) is discarded on resume.
        self.header = {
            "journal_format": JOURNAL_FORMAT_VERSION,
            "experiment": str(experiment),
            "digest": str(digest),
        }
        self._handle: Optional[Any] = None
        self._fault_points: Dict[int, FaultSimulationPoint] = {}
        self._bler_cells: Dict[int, HarqStatistics] = {}
        self._adaptive: Dict[int, List[List[FaultMapOutcome]]] = {}
        #: Intact entries replayed from disk on resume (header excluded).
        self.replayed_entries = 0
        #: Whether resume found (and dropped) a torn trailing line.
        self.recovered_truncation = False

    # ------------------------------------------------------------------ #
    @classmethod
    def open_for_run(
        cls,
        journal_dir: "Path | str",
        experiment: str,
        digest: str,
        *,
        resume: bool = False,
    ) -> "SweepJournal":
        """Open (and on *resume*, replay) the journal for one run identity."""
        path = Path(journal_dir) / f"{experiment}-{digest}.jsonl"
        journal = cls(path, experiment=experiment, digest=digest)
        journal.open(resume=resume)
        return journal

    def open(self, *, resume: bool = False) -> None:
        """Start journaling: replay on resume, else discard stale progress."""
        if resume:
            self._replay()
        elif self.path.exists():
            # A fresh run must not silently inherit a dead run's progress —
            # the user who wanted that would have passed --resume.
            self.path.unlink()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self._handle = open(self.path, "a", encoding="utf-8")
        if fresh:
            self._append(self.header)

    def _replay(self) -> None:
        """Load the intact prefix of an existing journal, dropping torn tails."""
        if not self.path.exists():
            return
        raw = self.path.read_bytes()
        good_bytes = 0
        entries: List[Dict[str, Any]] = []
        for line in raw.splitlines(keepends=True):
            if not line.endswith(b"\n"):
                # The torn tail of an append interrupted by the crash.
                self.recovered_truncation = True
                break
            try:
                entry = parse_object(line)
            except ValueError:
                # Entries are fsynced in order, so a malformed line means
                # everything after it is unreliable too: truncate, never
                # crash the resume (a bad header leaves no entries, so the
                # journal is discarded).
                self.recovered_truncation = True
                break
            entries.append(entry)
            good_bytes += len(line)
        if not entries or not header_matches(entries[0], self.header):
            # Foreign, stale-format or empty journal: recompute from scratch.
            if entries:
                warnings.warn(
                    f"sweep journal {self.path} does not match this run "
                    f"(experiment/digest/format changed); discarding it",
                    RuntimeWarning,
                    stacklevel=3,
                )
            self.path.unlink()
            self.recovered_truncation = False
            return
        for entry in entries[1:]:
            self._ingest(entry)
            self.replayed_entries += 1
        telemetry.inc("journal_replayed_entries_total", self.replayed_entries)
        if good_bytes < len(raw):
            # Drop the torn tail on disk as well, so the appends that follow
            # start on a clean line boundary.
            with open(self.path, "rb+") as handle:
                handle.truncate(good_bytes)
            telemetry.inc("journal_truncations_total")
            telemetry.event(
                "journal-truncation",
                path=str(self.path),
                kept_entries=self.replayed_entries,
            )

    def _ingest(self, entry: Dict[str, Any]) -> None:
        kind = entry.get("type")
        if kind == "fault_point":
            self._fault_points[int(entry["index"])] = fault_point_from_json(
                entry["result"]
            )
            # Mirror record_fault_point: the completed point supersedes any
            # round-level checkpoints journaled before it.
            self._adaptive.pop(int(entry["index"]), None)
        elif kind == "bler_cell":
            self._bler_cells[int(entry["index"])] = statistics_from_json(
                entry["result"]
            )
        elif kind == "adaptive_round":
            rounds = self._adaptive.setdefault(int(entry["point"]), [])
            rounds.append([outcome_from_json(o) for o in entry["outcomes"]])
        # unknown types are ignored: a newer writer's extra entries must not
        # break an older reader that only needs the ones it understands

    # ------------------------------------------------------------------ #
    def _append(self, entry: Dict[str, Any]) -> None:
        if self._handle is None:
            raise RuntimeError("journal is not open")
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        telemetry.inc("journal_appends_total")

    # fault-map grid points ------------------------------------------- #
    def completed_fault_point(self, index: int) -> Optional[FaultSimulationPoint]:
        """The journaled merged result of grid point *index*, if completed."""
        return self._fault_points.get(index)

    def record_fault_point(self, index: int, point: FaultSimulationPoint) -> None:
        """Checkpoint one completed (merged) fault-map grid point."""
        self._append(
            {
                "type": "fault_point",
                "index": int(index),
                "result": fault_point_to_json(point),
            }
        )
        self._fault_points[int(index)] = point
        # A completed point supersedes its round-level checkpoints.
        self._adaptive.pop(int(index), None)

    # defect-free BLER cells ------------------------------------------ #
    def completed_bler_cell(self, index: int) -> Optional[HarqStatistics]:
        """The journaled merged statistics of BLER cell *index*, if completed."""
        return self._bler_cells.get(index)

    def record_bler_cell(self, index: int, statistics: HarqStatistics) -> None:
        """Checkpoint one completed (merged) defect-free BLER cell."""
        self._append(
            {
                "type": "bler_cell",
                "index": int(index),
                "result": statistics_to_json(statistics),
            }
        )
        self._bler_cells[int(index)] = statistics

    # adaptive estimator state ---------------------------------------- #
    def adaptive_rounds(self, point_index: int) -> List[List[FaultMapOutcome]]:
        """Replayed completed rounds of one adaptive point (oldest first)."""
        return list(self._adaptive.get(point_index, []))

    def record_adaptive_round(
        self, point_index: int, outcomes: List[FaultMapOutcome]
    ) -> None:
        """Checkpoint one completed adaptive round of die outcomes."""
        self._append(
            {
                "type": "adaptive_round",
                "point": int(point_index),
                "outcomes": [outcome_to_json(o) for o in outcomes],
            }
        )
        self._adaptive.setdefault(int(point_index), []).append(list(outcomes))

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Flush and close the journal file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def finalize(self, *, success: bool) -> None:
        """End the run: on success the journal is deleted (cache takes over).

        On failure the file stays for ``--resume``; callers should report
        its path so the user knows resuming is possible.
        """
        self.close()
        if success and self.path.exists():
            self.path.unlink()

    def summary(self) -> str:
        """One human line for the CLI after a resumed run."""
        rounds = sum(len(r) for r in self._adaptive.values())
        parts = [
            f"resumed {len(self._fault_points) + len(self._bler_cells)} "
            f"completed unit(s)"
        ]
        if rounds:
            parts.append(f"{rounds} adaptive round(s)")
        if self.recovered_truncation:
            parts.append("recovered a torn tail")
        return "journal: " + ", ".join(parts)

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SweepJournal(path={str(self.path)!r})"
