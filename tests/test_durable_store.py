"""The durable JSON store under the result cache, point records and quarantine.

One corruption matrix runs against both entry stores
(:class:`~repro.runner.cache.ResultCache` and the point records of
:class:`~repro.runner.point_store.PointStore`): an entry torn by a real
interrupted write, invalid UTF-8, valid JSON that is not an object and a
stale format version, plus the missing vs quarantined-corrupt statuses.
Every damaged entry reads as a miss, is quarantined once to ``*.corrupt``
with a warning, and a re-put heals the slot; every lookup counts exactly one
hit or one miss.  A point record that parses but is not the one its unit
needs — a stale format, another ``kind``, the wrong number of dies or a
malformed outcome — reads as a miss too.

Also pinned: every put fsyncs the file before its rename and the directory
after it; the key check (malformed digests and namespaces never reach the
filesystem, and the cache's non-run directories are outside its key space);
and a ``clear`` that leaves a store exactly as fresh as it started, orphaned
temporary files of interrupted puts included.
"""

import contextlib
import json
import os
import tempfile
import warnings

import numpy as np
import pytest

from repro.harq.metrics import HarqStatistics
from repro.runner import chaos, telemetry
from repro.runner.cache import (
    POINTS_DIRNAME,
    QUARANTINE_DIRNAME,
    QuarantineStore,
    ResultCache,
    atomic_write_text,
    serialize_payload,
)
from repro.runner.point_store import (
    POINT_STORE_FORMAT_VERSION,
    PointStore,
    statistics_to_json,
)
from repro.runner.tasks import FaultMapOutcome

DIGEST = "0123456789abcdef0123"

#: Bytes that are invalid UTF-8 (0xFF/0xFE can never appear in UTF-8): the
#: shape of a torn entry whose tail landed mid-multibyte-sequence.
NOT_UTF8 = b'\xff\xfe{"cache_format": 1, "torn": \x80\x81'
#: Damaged entries that decode as JSON but are not an object.
NOT_AN_OBJECT = (b"[]", b"null", b"7")


@pytest.fixture(autouse=True)
def _isolated():
    """No chaos plan, and counters from this test only."""
    chaos.activate(None)
    telemetry.reset()
    yield
    chaos.activate(None)


def _statistics() -> HarqStatistics:
    return HarqStatistics(
        num_packets=4,
        num_successful=3,
        total_transmissions=7,
        info_bits_per_packet=40,
        attempts_per_transmission=np.array([4, 2, 1], dtype=np.int64),
        failures_per_transmission=np.array([2, 1, 1], dtype=np.int64),
    )


#: A fixed fault point's record: two dies.
DIES = 2


def _put_dies(store, dies=DIES):
    """Store a fault point's record holding *dies* die outcomes."""
    outcome = FaultMapOutcome(statistics=_statistics(), num_faults=3, fallible_cells=90)
    return store.store(DIGEST, {"kind": "fault", "seed": 1}, [outcome] * dies)


class _Subject:
    """One entry store under test: its key, a valid put and its format field."""

    def __init__(self, kind, root):
        self.kind = kind
        if kind == "cache":
            self.store = ResultCache(root)
            self.key = ("fig6", DIGEST)
            self.format_field = "cache_format"
            self.format_version = 1
        else:
            self.store = PointStore(root)
            self.key = (DIGEST,)
            self.format_field = "point_store_format"
            self.format_version = POINT_STORE_FORMAT_VERSION
        self.path = self.store.path_for(*self.key)

    def put(self):
        if self.kind == "cache":
            text = serialize_payload("fig6", identity={"seed": 1}, tables={})
            return self.store.store("fig6", DIGEST, text)
        return _put_dies(self.store)

    def get(self):
        """One lookup, checked to count exactly one hit or one miss."""
        before = self._lookups()
        payload, status = self.store.get(*self.key)
        assert self._lookups() == [count + 1 for count in before]
        return payload, status

    def _lookups(self):
        label = self.store.label
        snapshot = telemetry.registry().snapshot()
        counted = sum(
            telemetry.snapshot_counter_total(snapshot, name, store=label)
            for name in ("store_hits_total", "store_misses_total")
        )
        return [self.store.hits + self.store.misses, counted]

    def quarantines(self):
        return telemetry.snapshot_counter_total(
            telemetry.registry().snapshot(),
            "store_quarantines_total",
            store=self.store.label,
        )


@pytest.fixture(params=["cache", "point-store"])
def subject(request, tmp_path):
    return _Subject(request.param, tmp_path / "store")


@contextlib.contextmanager
def _no_warning():
    """Fail on any warning raised inside the block."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def _tear(subject):
    """Tear a real put: the write lands half-written at the final path."""
    chaos.activate("tear-write=1")
    subject.put()
    chaos.activate(None)


def _overwrite(data):
    def damage(subject):
        subject.put()
        subject.path.write_bytes(data)

    return damage


DAMAGE = {
    "truncation": _tear,
    "invalid-utf8": _overwrite(NOT_UTF8),
    **{f"not-an-object-{data.decode()}": _overwrite(data) for data in NOT_AN_OBJECT},
}


# --------------------------------------------------------------------------- #
class TestCorruptionMatrix:
    def test_put_then_get_round_trips(self, subject):
        path = subject.put()
        assert path == subject.path
        payload, status = subject.get()
        assert status == "ok"
        assert payload[subject.format_field] == subject.format_version
        assert json.loads(path.read_text()) == payload
        assert (subject.store.hits, subject.store.misses, subject.store.writes) == (1, 0, 1)
        leftovers = [p.name for p in path.parent.iterdir() if p != path]
        assert leftovers == []

    def test_missing_entry_is_a_miss(self, subject):
        with _no_warning():
            assert subject.get() == (None, "missing")
        assert not subject.store.root.exists()  # a get never creates anything

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_entry_is_quarantined_once_then_healed(self, subject, damage):
        DAMAGE[damage](subject)
        torn = subject.path.read_bytes()
        with pytest.warns(RuntimeWarning, match="corrupt JSON; quarantined"):
            assert subject.get() == (None, "corrupt")
        quarantine = subject.path.with_name(subject.path.name + ".corrupt")
        assert quarantine.read_bytes() == torn  # the evidence is kept
        assert not subject.path.exists()  # and the slot is free
        assert subject.quarantines() == 1

        # A quarantined entry stays a "corrupt" miss, without a new warning.
        with _no_warning():
            assert subject.get() == (None, "corrupt")
        assert subject.quarantines() == 1

        # The recomputed entry re-occupies the slot.
        subject.put()
        payload, status = subject.get()
        assert status == "ok" and payload[subject.format_field] == subject.format_version

    def test_stale_format_is_a_miss_and_not_quarantined(self, subject):
        subject.put()
        payload = json.loads(subject.path.read_text())
        payload[subject.format_field] = -1
        subject.path.write_text(json.dumps(payload))
        with _no_warning():
            assert subject.get() == (None, "stale-format")
        assert subject.path.exists()
        assert subject.quarantines() == 0

    @pytest.mark.parametrize(
        "digest", ["../../etc/passwd", "DEADBEEF", "short", "", "deadbeef.json", "a b"]
    )
    def test_malformed_digests_never_touch_the_filesystem(self, subject, digest):
        key = (*subject.key[:-1], digest)
        with pytest.raises(ValueError, match="malformed"):
            subject.store.get(*key)
        with pytest.raises(ValueError, match="malformed"):
            subject.store.put_text("{}", *key)
        assert not subject.store.root.exists()


# --------------------------------------------------------------------------- #
class TestPointRecordShape:
    """A parsed point record the unit cannot use is a miss, never a result."""

    def _miss(self, store, kind="fault", count=DIES):
        before = store.misses
        with _no_warning():
            assert store.load(DIGEST, kind, count) is None
        assert store.misses == before + 1
        assert store.path_for(DIGEST).exists()  # not quarantined: it parsed

    def test_exact_record_loads_its_dies_in_order(self, tmp_path):
        store = PointStore(tmp_path)
        _put_dies(store)
        dies = store.load(DIGEST, "fault", DIES)
        assert len(dies) == DIES
        assert [d.num_faults for d in dies] == [3, 3]
        assert statistics_to_json(dies[0].statistics) == statistics_to_json(_statistics())
        assert dies[0].statistics.attempts_per_transmission.dtype == np.int64
        assert (store.hits, store.misses) == (1, 0)

    def test_stale_format_is_a_miss(self, tmp_path):
        store = PointStore(tmp_path)
        path = _put_dies(store)
        payload = json.loads(path.read_text())
        assert payload["point_store_format"] == POINT_STORE_FORMAT_VERSION == 2
        payload["point_store_format"] = 1
        path.write_text(json.dumps(payload))
        self._miss(store)

    def test_wrong_kind_is_a_miss(self, tmp_path):
        store = PointStore(tmp_path)
        _put_dies(store)
        self._miss(store, kind="bler")
        store.store(DIGEST, {"kind": "bler"}, [_statistics()] * DIES)
        self._miss(store, kind="fault")
        assert len(store.load(DIGEST, "bler", DIES)) == DIES

    @pytest.mark.parametrize("dies", [1, DIES + 1])
    def test_wrong_die_count_is_a_miss(self, tmp_path, dies):
        store = PointStore(tmp_path)
        _put_dies(store, dies)
        self._miss(store)
        # An adaptive point takes any non-empty prefix of its dies.
        assert len(store.load(DIGEST, "fault", None)) == dies

    def test_empty_record_is_a_miss_even_for_an_adaptive_point(self, tmp_path):
        store = PointStore(tmp_path)
        _put_dies(store, 0)
        self._miss(store, count=None)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda outcome: outcome.pop("num_faults"),
            lambda outcome: outcome["statistics"].pop("num_packets"),
            lambda outcome: outcome.__setitem__("statistics", None),
            lambda outcome: outcome["statistics"].__setitem__(
                "attempts_per_transmission", "many"
            ),
            lambda outcome: outcome.__setitem__("num_faults", float("inf")),
        ],
        ids=["no-num-faults", "no-num-packets", "null-statistics", "text-array", "infinity"],
    )
    def test_malformed_outcome_is_a_miss(self, tmp_path, damage):
        store = PointStore(tmp_path)
        path = _put_dies(store)
        payload = json.loads(path.read_text())
        damage(payload["outcomes"][1])
        path.write_text(json.dumps(payload))
        self._miss(store)

    def test_outcomes_that_are_not_a_list_are_a_miss(self, tmp_path):
        store = PointStore(tmp_path)
        path = _put_dies(store)
        payload = json.loads(path.read_text())
        payload["outcomes"] = {"0": payload["outcomes"][0]}
        path.write_text(json.dumps(payload))
        self._miss(store)

    def test_a_store_that_does_not_reuse_reads_nothing(self, tmp_path):
        _put_dies(PointStore(tmp_path))
        store = PointStore(tmp_path, reuse=False)
        assert store.load(DIGEST, "fault", DIES) is None
        assert (store.hits, store.misses) == (0, 0)
        _put_dies(store)
        assert "reused 0 point(s), computed 1 point(s)" in store.summary()


# --------------------------------------------------------------------------- #
class TestDurablePut:
    def test_put_fsyncs_the_file_then_renames_then_fsyncs_the_directory(
        self, tmp_path, monkeypatch
    ):
        calls = []
        directories = set()
        real_open, real_fsync, real_replace = os.open, os.fsync, os.replace

        def recording_open(path, flags, *args, **kwargs):
            fd = real_open(path, flags, *args, **kwargs)
            if os.path.isdir(path):
                directories.add(fd)
            return fd

        def recording_fsync(fd):
            # The inode synced, and its size: a file fsynced before its
            # buffer was flushed would sync a short file.
            status = os.fstat(fd)
            name = "fsync-directory" if fd in directories else "fsync-file"
            calls.append((name, (status.st_ino, status.st_size)))
            real_fsync(fd)

        def recording_replace(source, target):
            calls.append(("replace", os.path.basename(target)))
            real_replace(source, target)

        monkeypatch.setattr(os, "open", recording_open)
        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        target = tmp_path / "points" / f"{DIGEST}.json"
        text = '{"x": 1}\n'
        atomic_write_text(target, text)
        assert [name for name, _detail in calls] == [
            "fsync-file",
            "replace",
            "fsync-directory",
        ]
        # The file synced is the one renamed into place, whole.
        assert calls[0][1] == (target.stat().st_ino, len(text))
        assert calls[1][1] == target.name
        assert calls[2][1][0] == target.parent.stat().st_ino
        assert target.read_text() == text


# --------------------------------------------------------------------------- #
class TestCacheNamespaces:
    @pytest.mark.parametrize(
        "namespace", ["", "..", "a/b", ".hidden", QUARANTINE_DIRNAME, POINTS_DIRNAME]
    )
    def test_malformed_and_reserved_namespaces_are_rejected(self, tmp_path, namespace):
        with pytest.raises(ValueError, match="malformed cache key"):
            ResultCache(tmp_path).get(namespace, DIGEST)

    def test_quarantine_records_stay_out_of_the_run_namespace(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("fig3", DIGEST, serialize_payload("fig3", identity={}, tables={}))
        record = QuarantineStore(tmp_path / QUARANTINE_DIRNAME).record(
            "simulate_fault_map_batch", {"key": [0]}, error="boom", attempts=2
        )
        assert json.loads(record.read_text())["quarantine_format"] == 1
        with pytest.raises(ValueError):
            cache.get(QUARANTINE_DIRNAME, record.stem)
        assert [key for key, _path in cache.iter_keys()] == [("fig3", DIGEST)]
        assert cache.entries() == {"fig3": 1}
        assert cache.clear() == 1
        assert record.exists()


class TestClear:
    def _orphan(self, cache, experiment, digest):
        """The temporary file of a put killed between mkstemp and rename."""
        path = cache.path_for(experiment, digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
        )
        os.close(fd)
        return name

    def test_clear_removes_orphaned_temp_files_and_emptied_directories(self, tmp_path):
        cache = ResultCache(tmp_path)
        text = serialize_payload("fig3", identity={}, tables={})
        cache.store("fig3", DIGEST, text)
        self._orphan(cache, "fig3", "ab" * 10)
        self._orphan(cache, "fig6", DIGEST)  # a directory holding only an orphan
        (tmp_path / "fig3" / ("cd" * 10 + ".json")).write_text("{")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.get("fig3", "cd" * 10) == (None, "corrupt")
        record = _put_dies(PointStore(tmp_path / POINTS_DIRNAME))

        assert cache.clear("fig6") == 0
        assert not (tmp_path / "fig6").exists()
        assert cache.clear() == 1
        # A cleared cache looks like a fresh one; the point records are
        # another store (``repro cache clear`` clears both).
        assert [p.name for p in tmp_path.iterdir()] == [POINTS_DIRNAME]
        assert record.exists()
        assert PointStore(tmp_path / POINTS_DIRNAME).clear() == 1
        assert list(tmp_path.iterdir()) == []

    def test_clear_leaves_files_it_does_not_own(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("fig3", DIGEST, serialize_payload("fig3", identity={}, tables={}))
        (tmp_path / "fig3" / "notes.txt").write_text("keep me")
        assert cache.clear() == 1
        assert [p.name for p in (tmp_path / "fig3").iterdir()] == ["notes.txt"]
