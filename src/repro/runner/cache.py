"""Durable JSON stores, and the on-disk cache of experiment results.

:class:`JsonStore` is the one durable-store primitive: canonical text, key
checks, atomic puts, gets that say why they missed, quarantine of damaged
entries, iteration, clearing and the store counters.  The result cache, the
point store (:mod:`repro.runner.point_store`, under ``<root>/points/``) and
the quarantine records (under ``<root>/quarantine/``) are typed schemas over
it.

Result-cache layout: one file per run, ``<root>/<experiment>/<digest>.json``,
where the digest hashes the full run identity — experiment name, scale
parameters, seed and any driver keyword overrides.  A cache hit therefore
means "this exact sweep was already computed" and short-circuits the
Monte-Carlo work;
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
import re
import tempfile
import warnings
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

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

    The temporary file is fsynced before the rename and the directory after
    it, so an entry that a put reported written survives ``kill -9`` and
    power loss alike: either the whole new file or the old state is on
    disk, never a renamed file whose data blocks were still in the page
    cache.

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
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


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
    return canonical_digest(canonicalize(identity))


def canonical_digest(canonical: Dict[str, Any]) -> str:
    """:func:`config_digest` of a mapping :func:`canonicalize` already returned."""
    text = json.dumps(canonical, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


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


#: Subdirectories of a cache dir that hold non-run state: the records of
#: :class:`QuarantineStore` (``--on-task-error quarantine``) and the point
#: store (:class:`~repro.runner.point_store.PointStore`, every simulated
#: run's per-die outcomes).  No run namespace may take these names.
QUARANTINE_DIRNAME = "quarantine"
POINTS_DIRNAME = "points"
_RESERVED_NAMESPACES = frozenset({QUARANTINE_DIRNAME, POINTS_DIRNAME})

#: Keys: a digest is a short sha256 hex prefix (see :func:`config_digest`), a
#: namespace an experiment name (``fig6``, ``scenario-...``).  Anything else
#: — separators, dots, an empty string — is rejected before it can touch the
#: filesystem (the HTTP front end feeds user input through here).
_DIGEST_RE = re.compile(r"^[0-9a-f]{8,64}$")
_NAMESPACE_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,128}$")
#: Files a store owns in an entry directory: entries, their quarantined
#: siblings and the temporary files of interrupted puts.
_OWNED_FILE_RE = re.compile(
    r"^(?:[0-9a-f]{8,64}\.json(?:\.corrupt)?|\.[0-9a-f]{8,64}\.json\..+\.tmp)$"
)


def canonical_text(payload: Dict[str, Any]) -> str:
    """The canonical text of a stored object (also the golden-file format)."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def parse_object(data: "bytes | str") -> Dict[str, Any]:
    """Parse one stored JSON object; anything else raises :class:`ValueError`.

    Bytes must be UTF-8.  :class:`ValueError` covers every way a stored
    object can be damaged: a torn tail (``JSONDecodeError``), invalid UTF-8
    (``UnicodeDecodeError``) and valid JSON that is not an object.
    """
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    value = json.loads(text)
    if not isinstance(value, dict):
        raise ValueError(f"stored JSON is a {type(value).__name__}, not an object")
    return value


def header_matches(payload: Dict[str, Any], header: Dict[str, Any]) -> bool:
    """Whether *payload* carries every field of *header* (its format version)."""
    return all(payload.get(field) == value for field, value in header.items())


def _is_namespace(name: str) -> bool:
    return bool(_NAMESPACE_RE.match(name)) and name not in _RESERVED_NAMESPACES


class JsonStore:
    """A durable directory of JSON objects, one ``<digest>.json`` file each.

    The one primitive under the result cache, the point store and the
    quarantine records.  Puts are atomic (:func:`atomic_write_text`).  A get
    answers ``(payload, status)``, where status is one of:

    * ``"ok"``: the entry parsed and carries the store's format header;
    * ``"missing"``: nothing was ever stored under the key;
    * ``"corrupt"``: the entry is damaged and has just been quarantined to
      ``<digest>.json.corrupt`` with a :class:`RuntimeWarning`, or an earlier
      get quarantined it;
    * ``"stale-format"``: the entry parsed but its header (format version,
      or the fields a caller expects) does not match, or the caller's
      *decode* rejects its body;
    * ``"unreadable"``: the file exists but cannot be read.

    Every get counts exactly one ``store_hits_total`` or
    ``store_misses_total``, every put one ``store_writes_total`` and every
    quarantine one ``store_quarantines_total``, all labelled
    ``store=<label>``; ``hits``, ``misses`` and ``writes`` count the same for
    this instance.

    Parameters
    ----------
    root:
        Store directory (created lazily by the first put).
    label:
        The ``store`` label of the counters and the name in warnings.
    header:
        Fields every valid entry carries, such as its format version.
    namespaced:
        Keys are ``(namespace, digest)`` and entries live in
        ``<root>/<namespace>/``; otherwise keys are ``(digest,)`` and entries
        live in *root* itself.
    """

    def __init__(
        self,
        root: "Path | str",
        *,
        label: str,
        header: Dict[str, Any],
        namespaced: bool = False,
    ) -> None:
        self.root = Path(root)
        self.label = label
        self.header = dict(header)
        self.namespaced = namespaced
        self.hits = 0
        self.misses = 0
        self.writes = 0

    # ------------------------------------------------------------------ #
    def path_for(self, *key: str) -> Path:
        """File that does / would hold *key* (rejecting malformed keys)."""
        *namespace, digest = key
        if (
            len(namespace) != int(self.namespaced)
            or not _DIGEST_RE.match(digest)
            or not all(_is_namespace(name) for name in namespace)
        ):
            raise ValueError(f"malformed {self.label} key {'/'.join(key)!r}")
        return self.root.joinpath(*namespace, f"{digest}.json")

    def put_text(self, text: str, *key: str) -> Path:
        """Store canonical JSON *text* under *key*, atomically."""
        path = self.path_for(*key)
        atomic_write_text(path, text)
        self.writes += 1
        telemetry.inc("store_writes_total", store=self.label)
        return path

    def get(
        self,
        *key: str,
        expect: Optional[Dict[str, Any]] = None,
        decode: Optional[Callable[[Dict[str, Any]], Any]] = None,
    ) -> Tuple[Any, str]:
        """``(payload, status)`` of the entry under *key*.

        *expect* adds fields the entry must carry besides the store header;
        an entry without them reads as ``stale-format``.  *decode* turns a
        valid payload into the object returned in its place; a payload it
        rejects (``KeyError``, ``TypeError``, ``ValueError`` or
        ``OverflowError``) reads as ``stale-format`` too, so a caller never
        sees a half-checked entry.
        """
        path = self.path_for(*key)
        payload, status = self._read(path, "/".join(key))
        if payload is not None and not header_matches(
            payload, {**self.header, **(expect or {})}
        ):
            payload, status = None, "stale-format"
        if payload is not None and decode is not None:
            try:
                payload = decode(payload)
            except (KeyError, TypeError, ValueError, OverflowError):
                payload, status = None, "stale-format"
        if payload is None:
            self.misses += 1
            telemetry.inc("store_misses_total", store=self.label)
        else:
            self.hits += 1
            telemetry.inc("store_hits_total", store=self.label)
        return payload, status

    def _read(self, path: Path, entry: str) -> Tuple[Optional[Dict[str, Any]], str]:
        quarantine = path.with_name(path.name + ".corrupt")
        try:
            return parse_object(path.read_bytes()), "ok"
        except FileNotFoundError:
            return None, "corrupt" if quarantine.exists() else "missing"
        except OSError:
            return None, "unreadable"
        except ValueError:
            # Puts are atomic, so an entry that is not a JSON object was
            # damaged after it was written.  Move it aside rather than let
            # the next put destroy the evidence, and read it as a miss.
            try:
                os.replace(path, quarantine)
            except OSError:
                quarantine = path
            warnings.warn(
                f"{self.label} entry {entry} is corrupt JSON; "
                f"quarantined at {quarantine}",
                RuntimeWarning,
                stacklevel=3,
            )
            telemetry.inc("store_quarantines_total", store=self.label)
            telemetry.event("store-quarantine", store=self.label, entry=entry)
            return None, "corrupt"

    # ------------------------------------------------------------------ #
    def _directories(self) -> Iterator[Tuple[Tuple[str, ...], Path]]:
        """``(namespace key prefix, directory)`` of every entry directory."""
        if not self.root.is_dir():
            return
        if not self.namespaced:
            yield (), self.root
            return
        for directory in sorted(self.root.iterdir()):
            if directory.is_dir() and _is_namespace(directory.name):
                yield (directory.name,), directory

    def iter_keys(self) -> Iterator[Tuple[Tuple[str, ...], Path]]:
        """``(key, path)`` of every stored entry, sorted."""
        for prefix, directory in self._directories():
            for path in sorted(directory.glob("*.json")):
                if _DIGEST_RE.match(path.stem):
                    yield (*prefix, path.stem), path

    def clear(self, namespace: Optional[str] = None) -> int:
        """Delete every entry (or one namespace's) and return the count.

        Quarantined ``.corrupt`` siblings, the temporary files of puts that
        were interrupted before their rename, and the entry directories
        left empty go too, so a cleared store looks exactly like a fresh
        one.  The reserved directories of a result cache (quarantine
        records, the point store) are other stores and are left alone.
        """
        removed = 0
        for prefix, directory in self._directories():
            if namespace is not None and prefix != (namespace,):
                continue
            for path in sorted(directory.iterdir()):
                if _OWNED_FILE_RE.match(path.name):
                    path.unlink()
                    removed += path.suffix == ".json"
            if not any(directory.iterdir()):
                directory.rmdir()
        return removed


class ResultCache(JsonStore):
    """A directory of cached experiment runs, ``<root>/<experiment>/<digest>.json``.

    Parameters
    ----------
    root:
        Cache directory (created lazily on the first store).
    """

    def __init__(self, root: "Path | str") -> None:
        super().__init__(
            root,
            label="cache",
            header={"cache_format": CACHE_FORMAT_VERSION},
            namespaced=True,
        )

    def store(self, experiment: str, digest: str, payload_text: str) -> Path:
        """Write a run's canonical payload (:func:`serialize_payload`)."""
        return self.put_text(payload_text, experiment, digest)

    def entries(self) -> Dict[str, int]:
        """Number of cached runs per experiment (for ``repro cache ls``)."""
        counts: Dict[str, int] = {}
        for (experiment, _digest), _path in self.iter_keys():
            counts[experiment] = counts.get(experiment, 0) + 1
        return counts


class QuarantineStore(JsonStore):
    """On-disk records of work items quarantined under ``--on-task-error=quarantine``.

    One JSON file per poisoned work item, ``<root>/<digest>.json``, where the
    digest hashes the task identity (callable name + canonicalized work
    item).  Retrying the same sweep therefore overwrites the same record
    instead of accumulating duplicates, and the file name is stable enough
    to reference from a bug report.
    """

    def __init__(self, root: "Path | str") -> None:
        super().__init__(root, label="quarantine", header={"quarantine_format": 1})

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
        identity = {"fn": fn_name, "task": canonicalize(task)}
        payload = {
            **self.header,
            **identity,
            "error": error,
            "attempts": attempts,
            "workers": sorted(workers),
        }
        return self.put_text(canonical_text(payload), config_digest(identity))


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
    return canonical_text(payload)
