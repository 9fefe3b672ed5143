"""Sweep-journal checkpoint/resume: crash-safe progress, byte-identical redo.

The journal's contract has three legs, each tested here:

* **Durability** — every completed unit reported written is replayed after a
  crash, and at most one torn trailing line is dropped (and truncated away
  on disk) during recovery.
* **Identity** — a journal belongs to one run identity; foreign or stale
  journals are discarded with a warning, and a fresh (non ``--resume``) run
  never inherits a dead run's progress.
* **Byte-identity of resume** — grid loops skip exactly the journaled
  units, and the merged results of a resumed run equal an uninterrupted
  serial reference bit for bit, including mid-point adaptive-round state.

The final test does it for real: ``kill -9`` on a coordinator subprocess,
then ``--resume`` must reproduce the reference payload exactly.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.protection import NoProtection
from repro.runner.journal import (
    JOURNAL_FORMAT_VERSION,
    SweepJournal,
    outcome_from_json,
    outcome_to_json,
)
from repro.runner.parallel import ParallelRunner
from repro.runner.tasks import (
    AdaptiveStopping,
    GridPoint,
    fault_map_tasks_for_point,
    run_fault_map_grid,
    simulate_fault_map_batch,
)


def _totals(stats):
    """The counts every HARQ summary figure derives from."""
    return stats.num_packets, stats.num_successful, stats.total_transmissions


def _grid(tiny_config, snrs=(14.0, 16.0, 18.0)):
    protection = NoProtection(bits_per_word=tiny_config.llr_bits)
    return [
        GridPoint(
            key_prefix=(i,),
            config=tiny_config,
            protection=protection,
            snr_db=snr,
            defect_rate=0.05,
        )
        for i, snr in enumerate(snrs)
    ]


_GRID_KWARGS = dict(num_packets=4, num_fault_maps=2, entropy=2012)


@pytest.fixture()
def journal(tmp_path):
    j = SweepJournal.open_for_run(tmp_path, "figx", "deadbeef")
    yield j
    j.close()


@pytest.fixture(scope="module")
def sample_results(tiny_config_module):
    """Real merged points + per-die outcomes to feed the journal."""
    points = _grid(tiny_config_module)
    merged = run_fault_map_grid(ParallelRunner.serial(), points, **_GRID_KWARGS)
    tasks = fault_map_tasks_for_point(
        tiny_config_module,
        NoProtection(bits_per_word=tiny_config_module.llr_bits),
        snr_db=14.0,
        defect_rate=0.05,
        key_prefix=(0,),
        **_GRID_KWARGS,
    )
    outcomes = simulate_fault_map_batch(tasks)
    return merged, outcomes


@pytest.fixture(scope="module")
def tiny_config_module():
    from repro.link.config import LinkConfig

    return LinkConfig(
        payload_bits=56,
        crc_bits=16,
        modulation="16QAM",
        effective_code_rate=0.6,
        turbo_iterations=3,
        max_transmissions=3,
    )


def _points_equal(a, b):
    return (
        a.snr_db == b.snr_db
        and a.num_faults == b.num_faults
        and a.defect_rate == b.defect_rate
        and a.per_map_throughput == b.per_map_throughput
        and a.protection_name == b.protection_name
        and _totals(a.statistics) == _totals(b.statistics)
    )


# --------------------------------------------------------------------------- #
class TestJournalBasics:
    def test_outcome_round_trip_is_lossless(self, sample_results):
        _merged, outcomes = sample_results
        for outcome in outcomes:
            rebuilt = outcome_from_json(json.loads(json.dumps(outcome_to_json(outcome))))
            assert rebuilt.num_faults == outcome.num_faults
            assert rebuilt.fallible_cells == outcome.fallible_cells
            assert _totals(rebuilt.statistics) == _totals(outcome.statistics)

    def test_record_then_replay_restores_every_unit(
        self, tmp_path, journal, sample_results
    ):
        merged, outcomes = sample_results
        journal.record_fault_point(0, merged[0])
        journal.record_bler_cell(3, merged[1].statistics)
        journal.record_adaptive_round(7, list(outcomes))
        journal.close()

        resumed = SweepJournal.open_for_run(
            tmp_path, "figx", "deadbeef", resume=True
        )
        assert resumed.replayed_entries == 3
        assert not resumed.recovered_truncation
        assert _points_equal(resumed.completed_fault_point(0), merged[0])
        assert (
            _totals(resumed.completed_bler_cell(3))
            == _totals(merged[1].statistics)
        )
        [replayed_round] = resumed.adaptive_rounds(7)
        assert len(replayed_round) == len(outcomes)
        assert resumed.completed_fault_point(1) is None
        assert "resumed 2 completed unit(s)" in resumed.summary()
        resumed.close()

    def test_completed_point_supersedes_its_rounds(
        self, tmp_path, journal, sample_results
    ):
        merged, outcomes = sample_results
        journal.record_adaptive_round(0, list(outcomes))
        journal.record_fault_point(0, merged[0])
        assert journal.adaptive_rounds(0) == []  # live state
        journal.close()
        resumed = SweepJournal.open_for_run(tmp_path, "figx", "deadbeef", resume=True)
        assert resumed.adaptive_rounds(0) == []  # replayed state agrees
        assert resumed.completed_fault_point(0) is not None
        resumed.close()

    def test_finalize_success_deletes_failure_keeps(self, tmp_path, sample_results):
        merged, _ = sample_results
        j = SweepJournal.open_for_run(tmp_path, "figx", "deadbeef")
        j.record_fault_point(0, merged[0])
        j.finalize(success=False)
        assert j.path.exists()  # kept for --resume
        j = SweepJournal.open_for_run(tmp_path, "figx", "deadbeef", resume=True)
        assert j.replayed_entries == 1
        j.finalize(success=True)
        assert not j.path.exists()  # the result cache takes over


# --------------------------------------------------------------------------- #
class TestCrashRecovery:
    def test_torn_tail_is_dropped_and_truncated_on_disk(
        self, tmp_path, journal, sample_results
    ):
        merged, _ = sample_results
        journal.record_fault_point(0, merged[0])
        journal.record_fault_point(1, merged[1])
        journal.close()
        intact_size = journal.path.stat().st_size
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "fault_point", "index": 2, "resu')  # no \n

        resumed = SweepJournal.open_for_run(tmp_path, "figx", "deadbeef", resume=True)
        assert resumed.recovered_truncation
        assert resumed.replayed_entries == 2
        assert resumed.completed_fault_point(2) is None
        assert journal.path.stat().st_size == intact_size  # tail gone on disk
        # Appends continue on a clean line boundary after recovery.
        resumed.record_fault_point(2, merged[2])
        resumed.close()
        again = SweepJournal.open_for_run(tmp_path, "figx", "deadbeef", resume=True)
        assert again.replayed_entries == 3
        assert not again.recovered_truncation
        again.close()

    def test_malformed_middle_line_invalidates_the_rest(
        self, tmp_path, journal, sample_results
    ):
        merged, _ = sample_results
        journal.record_fault_point(0, merged[0])
        journal.close()
        good_size = journal.path.stat().st_size
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write(
                json.dumps({"type": "bler_cell", "index": 9, "result": {}}) + "\n"
            )
        resumed = SweepJournal.open_for_run(tmp_path, "figx", "deadbeef", resume=True)
        # fsync order means nothing after the bad line is trustworthy.
        assert resumed.recovered_truncation
        assert resumed.replayed_entries == 1
        assert resumed.completed_bler_cell(9) is None
        assert journal.path.stat().st_size == good_size
        resumed.close()

    def test_unknown_entry_types_are_ignored(self, tmp_path, journal, sample_results):
        merged, _ = sample_results
        journal.record_fault_point(0, merged[0])
        journal.close()
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"type": "hologram", "index": 1}) + "\n")
        resumed = SweepJournal.open_for_run(tmp_path, "figx", "deadbeef", resume=True)
        assert resumed.replayed_entries == 2  # counted, harmlessly skipped
        assert resumed.completed_fault_point(0) is not None
        resumed.close()

    def test_foreign_journal_is_discarded_with_warning(
        self, tmp_path, journal, sample_results
    ):
        merged, _ = sample_results
        journal.record_fault_point(0, merged[0])
        journal.close()
        # Same path, different run identity (digest changed).
        path = tmp_path / "figx-deadbeef.jsonl"
        foreign = SweepJournal(path, experiment="figx", digest="0ddba11")
        with pytest.warns(RuntimeWarning, match="does not match this run"):
            foreign.open(resume=True)
        assert foreign.replayed_entries == 0
        assert foreign.completed_fault_point(0) is None
        foreign.close()
        header = json.loads(path.read_text().splitlines()[0])
        assert header["digest"] == "0ddba11"
        assert header["journal_format"] == JOURNAL_FORMAT_VERSION

    def test_fresh_run_discards_stale_progress(self, tmp_path, journal, sample_results):
        merged, _ = sample_results
        journal.record_fault_point(0, merged[0])
        journal.close()
        fresh = SweepJournal.open_for_run(tmp_path, "figx", "deadbeef", resume=False)
        assert fresh.replayed_entries == 0
        assert fresh.completed_fault_point(0) is None
        fresh.close()
        assert len(fresh.path.read_text().splitlines()) == 1  # header only


# --------------------------------------------------------------------------- #
class TestGridResume:
    def _counting(self, monkeypatch):
        import repro.runner.tasks as tasks_module

        calls = SimpleNamespace(batches=0)
        original = tasks_module.simulate_fault_map_batch

        def counted(group):
            calls.batches += 1
            return original(group)

        monkeypatch.setattr(tasks_module, "simulate_fault_map_batch", counted)
        return calls

    def test_resume_skips_journaled_points_byte_identically(
        self, tmp_path, tiny_config_module, monkeypatch
    ):
        points = _grid(tiny_config_module)
        reference = run_fault_map_grid(
            ParallelRunner.serial(), points, **_GRID_KWARGS
        )

        with SweepJournal.open_for_run(tmp_path, "figx", "deadbeef") as first:
            run_fault_map_grid(
                ParallelRunner.serial(), points, journal=first, **_GRID_KWARGS
            )
        # Simulate a crash after the first point: keep header + first entry.
        lines = first.path.read_text().splitlines(keepends=True)
        first.path.write_text("".join(lines[:2]))

        calls = self._counting(monkeypatch)
        with SweepJournal.open_for_run(
            tmp_path, "figx", "deadbeef", resume=True
        ) as resumed:
            assert resumed.replayed_entries == 1
            results = run_fault_map_grid(
                ParallelRunner.serial(), points, journal=resumed, **_GRID_KWARGS
            )
        assert all(_points_equal(a, b) for a, b in zip(results, reference))
        # Only the two unjournaled points were simulated (one batch each at
        # the default aggregation), and they were re-journaled for next time.
        assert 0 < calls.batches
        with SweepJournal.open_for_run(
            tmp_path, "figx", "deadbeef", resume=True
        ) as full:
            assert full.replayed_entries == len(points)
            calls.batches = 0
            results = run_fault_map_grid(
                ParallelRunner.serial(), points, journal=full, **_GRID_KWARGS
            )
        assert calls.batches == 0  # fully journaled -> zero work scheduled
        assert all(_points_equal(a, b) for a, b in zip(results, reference))

    def test_adaptive_resume_from_mid_point_rounds_is_byte_identical(
        self, tmp_path, tiny_config_module, monkeypatch
    ):
        points = _grid(tiny_config_module, snrs=(14.0, 18.0))
        adaptive = AdaptiveStopping(chunks_per_round=1, min_trials=4)
        kwargs = dict(_GRID_KWARGS, num_fault_maps=4, adaptive=adaptive)
        reference = run_fault_map_grid(ParallelRunner.serial(), points, **kwargs)

        with SweepJournal.open_for_run(tmp_path, "figx", "deadbeef") as first:
            run_fault_map_grid(
                ParallelRunner.serial(), points, journal=first, **kwargs
            )
        # Simulate a crash mid-point 0: keep the header plus only point 0's
        # round-level checkpoints (its completing fault_point entry is lost).
        kept = []
        for line in first.path.read_text().splitlines(keepends=True):
            entry = json.loads(line)
            if "journal_format" in entry or (
                entry.get("type") == "adaptive_round" and entry.get("point") == 0
            ):
                kept.append(line)
        assert len(kept) >= 2  # the adaptive path journaled per-round state
        first.path.write_text("".join(kept))

        with SweepJournal.open_for_run(
            tmp_path, "figx", "deadbeef", resume=True
        ) as resumed:
            assert resumed.adaptive_rounds(0)
            results = run_fault_map_grid(
                ParallelRunner.serial(), points, journal=resumed, **kwargs
            )
        assert all(_points_equal(a, b) for a, b in zip(results, reference))


# --------------------------------------------------------------------------- #
class TestCliResume:
    def _run_cli(self, cache_dir, out, *extra, check=True):
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "run",
            "fig6",
            "--scale",
            "smoke",
            "--seed",
            "2012",
            "--no-cache",
            "--cache-dir",
            str(cache_dir),
            "--out",
            str(out),
            *extra,
        ]
        env = dict(os.environ, PYTHONPATH="src")
        return subprocess.run(
            cmd, cwd=Path(__file__).resolve().parent.parent, env=env,
            capture_output=True, text=True, check=check, timeout=300,
        )

    def test_resume_flag_conflicts(self):
        from repro.runner.cli import _journal_dir

        with pytest.raises(ValueError, match="drop --no-journal"):
            _journal_dir(
                SimpleNamespace(resume=True, no_journal=True, cache_dir="c"),
                stochastic=True,
            )
        with pytest.raises(ValueError, match="analytical"):
            _journal_dir(
                SimpleNamespace(resume=True, no_journal=False, cache_dir="c"),
                stochastic=False,
            )
        assert (
            _journal_dir(
                SimpleNamespace(resume=False, no_journal=True, cache_dir="c"),
                stochastic=True,
            )
            is None
        )

    def test_kill_dash_nine_then_resume_is_byte_identical(self, tmp_path):
        reference_out = tmp_path / "reference.json"
        self._run_cli(tmp_path / "ref-cache", reference_out)
        reference = reference_out.read_bytes()

        cache_dir = tmp_path / "cache"
        out = tmp_path / "out.json"
        victim = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "run", "fig6",
                "--scale", "smoke", "--seed", "2012", "--no-cache",
                "--cache-dir", str(cache_dir), "--out", str(out),
            ],
            cwd=Path(__file__).resolve().parent.parent,
            env=dict(os.environ, PYTHONPATH="src"),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        # Kill -9 as soon as the journal holds completed work.  If the run
        # wins the race and finishes, the resume below still must reproduce
        # the reference (from an absent journal); the unit tests above cover
        # torn-tail recovery deterministically.
        journal_glob = cache_dir / "journal"
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline and victim.poll() is None:
            journals = list(journal_glob.glob("fig6-*.jsonl"))
            if journals and "fault_point" in journals[0].read_text():
                break
            time.sleep(0.01)
        if victim.poll() is None:
            victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=60)

        resumed = self._run_cli(cache_dir, out, "--resume")
        assert out.read_bytes() == reference
        if "resumed" in resumed.stderr:
            assert "journal:" in resumed.stderr
        # Success deletes the journal: nothing left to resume.
        assert not list(journal_glob.glob("*.jsonl"))
