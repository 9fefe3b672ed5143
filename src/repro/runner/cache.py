"""On-disk JSON cache for experiment results.

Layout: one file per run, ``<root>/<experiment>/<digest>.json``, where the
digest hashes the full run identity — experiment name, scale parameters,
seed and any driver keyword overrides.  A cache hit therefore means "this
exact sweep was already computed" and short-circuits the Monte-Carlo work;
worker count is deliberately *not* part of the key because it cannot change
the results (see :mod:`repro.runner.parallel`).

The stored payload is canonical JSON (sorted keys, stable float repr), so a
cache file written by a 4-worker run is byte-identical to one written by a
serial run — the property the acceptance tests pin.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.core.results import SweepTable, _jsonable
from repro.runner import chaos, telemetry

#: Bump when the payload layout changes so stale cache entries miss cleanly.
CACHE_FORMAT_VERSION = 1


def atomic_write_text(path: Path, text: str) -> None:
    """Write *text* to *path* so readers never observe a partial file.

    The text lands in a temporary file in the same directory (same
    filesystem, so the final :func:`os.replace` is an atomic rename).  Two
    coordinators racing to store the same digest both succeed: last rename
    wins and, because payloads are canonical JSON of the same identity, both
    candidates are byte-identical anyway.

    An active chaos plan's ``tear-write`` directive replaces one write with
    the thing this function exists to prevent — a truncated file at the
    final path — so the corrupt-entry quarantine paths get exercised for
    real (a crash between a non-atomic open and its final flush).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    plan = chaos.active_plan()
    if plan is not None and plan.take_tear_write():
        path.write_text(text[: max(1, len(text) // 2)])
        return
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def decoder_backend_identity(requested: str) -> Dict[str, str]:
    """The cache-key contribution of a requested decoder backend.

    Resolves the request to the backend that will *actually* run on this
    machine (``auto`` detection, unavailable-family fallback to numpy) and
    records its name **and** compute dtype, so results of different
    precisions are never conflated.  An exact family is recorded as numpy
    at its dtype (:func:`repro.phy.turbo.backends.identity_spec`): its
    results are bit-identical, so they share numpy's entries.
    """
    from repro.phy.turbo.backends import identity_spec

    spec = identity_spec(requested)
    return {"name": spec.name, "dtype": spec.dtype_name}


def config_digest(identity: Dict[str, Any]) -> str:
    """Stable hex digest of a run-identity mapping (the cache key)."""
    canonical = json.dumps(canonicalize(identity), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:20]


def canonicalize(value: Any) -> Any:
    """Reduce arbitrary run-identity / extras values to canonical JSON form.

    Dataclasses become tagged mappings, mapping keys are stringified and
    sorted, numpy scalars collapse to plain numbers (via the same coercion
    :class:`SweepTable` uses) and anything else falls back to ``repr``.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return {"__dataclass__": type(value).__name__, **canonicalize(asdict(value))}
    if isinstance(value, dict):
        return {str(k): canonicalize(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [canonicalize(v) for v in value]
    coerced = _jsonable(value)
    if isinstance(coerced, (str, int, float, bool)) or coerced is None:
        return coerced
    return repr(value)


#: Subdirectory of a cache dir that holds :class:`QuarantineStore` records
#: (``--on-task-error quarantine``); it is not an experiment's run directory.
QUARANTINE_DIRNAME = "quarantine"


class ResultCache:
    """A directory of cached experiment runs.

    Parameters
    ----------
    root:
        Cache directory (created lazily on the first store).
    """

    def __init__(self, root: "Path | str") -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------ #
    def path_for(self, experiment: str, digest: str) -> Path:
        """File that does / would hold the run with this identity digest."""
        return self.root / experiment / f"{digest}.json"

    def load(self, experiment: str, digest: str) -> Optional[Dict[str, Any]]:
        """Return the cached payload for a run identity, or ``None`` on miss."""
        return self.load_with_status(experiment, digest)[0]

    def load_with_status(
        self, experiment: str, digest: str
    ) -> Tuple[Optional[Dict[str, Any]], str]:
        """Like :meth:`load`, but also say *why* a lookup missed.

        Returns ``(payload, status)`` where status is one of ``"ok"``,
        ``"missing"``, ``"corrupt"`` (the entry was torn on disk and has
        just been quarantined — or a ``.corrupt`` sibling from an earlier
        quarantine exists), ``"stale-format"`` or ``"unreadable"``.  The
        query server uses the status to answer 404 vs 410 with a reason
        instead of a bare failure.
        """
        path = self.path_for(experiment, digest)
        if not path.exists():
            status = (
                "corrupt"
                if path.with_name(path.name + ".corrupt").exists()
                else "missing"
            )
            telemetry.inc("store_misses_total", store="cache")
            return None, status
        try:
            payload = json.loads(path.read_text())
            if not isinstance(payload, dict):
                raise ValueError("cache entry is not a JSON object")
        except OSError:
            telemetry.inc("store_misses_total", store="cache")
            return None, "unreadable"
        except ValueError:
            # A file that exists but is not a JSON object was damaged after
            # it was written (stores are atomic, so it cannot be a
            # half-write from a live writer).  ValueError covers
            # JSONDecodeError, the UnicodeDecodeError a torn entry with
            # invalid UTF-8 bytes raises from read_text, and valid JSON of
            # the wrong shape — either way the contract is the same:
            # quarantine, warn, recompute.  Move it aside rather than
            # silently letting the next store destroy the evidence.
            quarantine = path.with_name(path.name + ".corrupt")
            try:
                os.replace(path, quarantine)
            except OSError:
                quarantine = path
            warnings.warn(
                f"cache entry {experiment}/{digest} is corrupt JSON; "
                f"quarantined at {quarantine}",
                RuntimeWarning,
                stacklevel=2,
            )
            telemetry.inc("store_quarantines_total", store="cache")
            telemetry.inc("store_misses_total", store="cache")
            telemetry.event(
                "store-quarantine", store="cache", entry=f"{experiment}/{digest}"
            )
            return None, "corrupt"
        if payload.get("cache_format") != CACHE_FORMAT_VERSION:
            telemetry.inc("store_misses_total", store="cache")
            return None, "stale-format"
        telemetry.inc("store_hits_total", store="cache")
        return payload, "ok"

    def store(
        self,
        experiment: str,
        digest: str,
        *,
        identity: Dict[str, Any],
        tables: Dict[str, SweepTable],
        extras: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Write a run's payload and return the file path."""
        path = self.path_for(experiment, digest)
        atomic_write_text(
            path,
            serialize_payload(experiment, identity=identity, tables=tables, extras=extras),
        )
        telemetry.inc("store_writes_total", store="cache")
        return path

    def entries(self) -> Dict[str, int]:
        """Number of cached runs per experiment (for ``repro cache ls``)."""
        counts: Dict[str, int] = {}
        for experiment, _digest, _path in self.iter_entries():
            counts[experiment] = counts.get(experiment, 0) + 1
        return counts

    def iter_entries(self) -> Iterator[Tuple[str, str, Path]]:
        """Yield ``(experiment, digest, path)`` for every cached run file."""
        for experiment, path in self._files("*.json"):
            yield experiment, path.stem, path

    def _files(self, pattern: str) -> Iterator[Tuple[str, Path]]:
        """Yield ``(experiment, path)`` for files matching *pattern*.

        The quarantine subdirectory holds poisoned-task records, not runs,
        so it is neither listed nor cleared.
        """
        if not self.root.exists():
            return
        for directory in sorted(self.root.iterdir()):
            if directory.is_dir() and directory.name != QUARANTINE_DIRNAME:
                for path in sorted(directory.glob(pattern)):
                    yield directory.name, path

    def clear(self, experiment: Optional[str] = None) -> int:
        """Delete cached runs (all, or one experiment's) and return the count.

        Their quarantined ``.json.corrupt`` siblings and the directories left
        empty go too, so a cleared cache looks exactly like a fresh one.  The
        sweep journal (``.jsonl`` resume state) is left alone.
        """
        removed = 0
        doomed = list(self._files("*.json")) + list(self._files("*.json.corrupt"))
        for entry_experiment, path in doomed:
            if experiment is not None and entry_experiment != experiment:
                continue
            path.unlink()
            removed += path.suffix == ".json"
            parent = path.parent
            if not any(parent.iterdir()):
                parent.rmdir()
        return removed


class QuarantineStore:
    """On-disk records of work items quarantined under ``--on-task-error=quarantine``.

    One JSON file per poisoned work item, ``<root>/<digest>.json``, where the
    digest hashes the task identity (callable name + canonicalized work
    item).  Retrying the same sweep therefore overwrites the same record
    instead of accumulating duplicates, and the file name is stable enough
    to reference from a bug report.
    """

    def __init__(self, root: "Path | str") -> None:
        self.root = Path(root)

    def path_for(self, fn_name: str, task: Any) -> Path:
        digest = config_digest({"fn": fn_name, "task": canonicalize(task)})
        return self.root / f"{digest}.json"

    def record(
        self,
        fn_name: str,
        task: Any,
        *,
        error: str,
        attempts: int,
        workers: Tuple[str, ...] = (),
    ) -> Path:
        """Persist one quarantined item (traceback + task identity)."""
        path = self.path_for(fn_name, task)
        payload = {
            "quarantine_format": 1,
            "fn": fn_name,
            "task": canonicalize(task),
            "error": error,
            "attempts": attempts,
            "workers": sorted(workers),
        }
        atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return path

    def entries(self) -> Tuple[Path, ...]:
        """All quarantine record files, sorted for stable reporting."""
        if not self.root.exists():
            return ()
        return tuple(sorted(self.root.glob("*.json")))


# --------------------------------------------------------------------------- #
def serialize_payload(
    experiment: str,
    *,
    identity: Dict[str, Any],
    tables: Dict[str, SweepTable],
    extras: Optional[Dict[str, Any]] = None,
) -> str:
    """Canonical JSON text for a run (also the golden-file format)."""
    payload = {
        "cache_format": CACHE_FORMAT_VERSION,
        "experiment": experiment,
        "identity": canonicalize(identity),
        "tables": {name: table.to_json_dict() for name, table in sorted(tables.items())},
        "extras": canonicalize(extras or {}),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
