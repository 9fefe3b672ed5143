"""The durable JSON store under the result cache, point store and journal.

One corruption matrix runs against both entry stores
(:class:`~repro.runner.cache.ResultCache` and
:class:`~repro.runner.point_store.PointStore`): an entry torn by a real
interrupted write, invalid UTF-8, valid JSON that is not an object and a
stale format version, plus the missing vs quarantined-corrupt statuses.
Every damaged entry reads as a miss, is quarantined once to ``*.corrupt``
with a warning, and a re-put heals the slot; every lookup counts exactly one
hit or one miss.  The sweep journal's torn-tail, invalid-UTF-8 and
stale-header cases run through the same object parser.

Also pinned: the key check (malformed digests and namespaces never reach the
filesystem, and the cache's non-run directories are outside its key space),
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
    JOURNAL_DIRNAME,
    QUARANTINE_DIRNAME,
    QuarantineStore,
    ResultCache,
    serialize_payload,
)
from repro.runner.journal import SweepJournal
from repro.runner.point_store import PointStore, statistics_to_json

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


class _Subject:
    """One entry store under test: its key, a valid put and its format field."""

    def __init__(self, kind, root):
        self.kind = kind
        if kind == "cache":
            self.store = ResultCache(root)
            self.key = ("fig6", DIGEST)
            self.format_field = "cache_format"
        else:
            self.store = PointStore(root)
            self.key = (DIGEST,)
            self.format_field = "point_store_format"
        self.path = self.store.path_for(*self.key)

    def put(self):
        if self.kind == "cache":
            text = serialize_payload("fig6", identity={"seed": 1}, tables={})
            return self.store.store("fig6", DIGEST, text)
        return self.store.store_statistics(DIGEST, _statistics(), identity={"seed": 1})

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
        assert payload[subject.format_field] == 1
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
        assert status == "ok" and payload[subject.format_field] == 1

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

    def test_point_store_kind_is_part_of_the_header(self, tmp_path):
        store = PointStore(tmp_path)
        store.store_statistics(DIGEST, _statistics(), identity={})
        assert store.load_fault_point(DIGEST) is None
        assert store.get(DIGEST, expect={"kind": "fault"}) == (None, "stale-format")
        assert statistics_to_json(store.load_statistics(DIGEST)) == (
            statistics_to_json(_statistics())
        )
        assert (store.hits, store.misses) == (1, 2)


# --------------------------------------------------------------------------- #
class TestCacheNamespaces:
    @pytest.mark.parametrize(
        "namespace", ["", "..", "a/b", ".hidden", QUARANTINE_DIRNAME, JOURNAL_DIRNAME]
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
        journal = tmp_path / JOURNAL_DIRNAME / "fig6-0000.jsonl"
        journal.parent.mkdir()
        journal.write_text("{}\n")

        assert cache.clear("fig6") == 0
        assert not (tmp_path / "fig6").exists()
        assert cache.clear() == 1
        # A cleared cache looks like a fresh one; the journal is resume state.
        assert [p.name for p in tmp_path.iterdir()] == [JOURNAL_DIRNAME]
        assert journal.read_text() == "{}\n"

    def test_clear_leaves_files_it_does_not_own(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("fig3", DIGEST, serialize_payload("fig3", identity={}, tables={}))
        (tmp_path / "fig3" / "notes.txt").write_text("keep me")
        assert cache.clear() == 1
        assert [p.name for p in (tmp_path / "fig3").iterdir()] == ["notes.txt"]


# --------------------------------------------------------------------------- #
class TestJournalThroughTheSharedParser:
    LINE_DAMAGE = {
        "torn-tail": b'{"type": "fault_point", "ind',
        "invalid-utf8": b'{"type": "fault_point", "ind\xff\xfe\x80"}\n',
        **{f"not-an-object-{data.decode()}": data + b"\n" for data in NOT_AN_OBJECT},
    }

    @pytest.mark.parametrize("damage", sorted(LINE_DAMAGE))
    def test_damaged_tail_is_truncated(self, tmp_path, damage):
        journal = SweepJournal.open_for_run(tmp_path, "figx", DIGEST)
        journal.close()
        header = journal.path.read_bytes()
        journal.path.write_bytes(header + self.LINE_DAMAGE[damage])
        resumed = SweepJournal.open_for_run(tmp_path, "figx", DIGEST, resume=True)
        assert resumed.recovered_truncation
        assert resumed.replayed_entries == 0
        resumed.close()
        assert resumed.path.read_bytes() == header  # the tail is gone on disk
        assert telemetry.snapshot_counter_total(
            telemetry.registry().snapshot(), "journal_truncations_total"
        ) == 1

    @pytest.mark.parametrize("damage", sorted(LINE_DAMAGE))
    def test_damaged_header_restarts_the_journal(self, tmp_path, damage):
        fresh = SweepJournal.open_for_run(tmp_path, "figx", DIGEST)
        fresh.close()
        header = fresh.path.read_bytes()
        fresh.path.write_bytes(self.LINE_DAMAGE[damage])
        restarted = SweepJournal.open_for_run(tmp_path, "figx", DIGEST, resume=True)
        assert restarted.replayed_entries == 0
        assert not restarted.recovered_truncation
        restarted.close()
        assert restarted.path.read_bytes() == header

    def test_stale_header_is_discarded_with_a_warning(self, tmp_path):
        fresh = SweepJournal.open_for_run(tmp_path, "figx", DIGEST)
        fresh.close()
        header = fresh.path.read_bytes()
        stale = dict(json.loads(header), journal_format=-1)
        fresh.path.write_text(json.dumps(stale, sort_keys=True) + "\n")
        with pytest.warns(RuntimeWarning, match="does not match this run"):
            restarted = SweepJournal.open_for_run(tmp_path, "figx", DIGEST, resume=True)
        assert restarted.replayed_entries == 0
        restarted.close()
        assert restarted.path.read_bytes() == header
