"""Resume by rerunning: point records make a killed sweep's finished work stick.

A sweep writes one point-store record per finished unit — a fixed point as
its last die arrives, an adaptive point after every round — so a run cut
short keeps every point it finished.  Running the same sweep again loads
those records, schedules only the missing work with the spawn keys a fresh
run would use, and must reproduce an uninterrupted run byte for byte:

* a fixed grid cut after *k* batches (one die each, two dies per point)
  leaves exactly ``k // 2`` records, and the rerun schedules only the rest;
* an adaptive point whose record holds a prefix of its dies replays them
  and simulates only the dies it lacks;
* a fixed run never reuses an adaptive run's records (``adaptive`` is part
  of the identity);
* a BLER cell is stored as its last chunk arrives, and a cell whose record
  is lost is the only cell recomputed;
* ``--no-cache`` touches no record, ``--force`` ignores and overwrites them,
  analytical runs make no store, and the removed resume flags are gone;
* ``kill -9`` on a real ``repro run`` coordinator, then the same command.
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
from repro.link.config import LinkConfig
from repro.runner import telemetry
from repro.runner.parallel import ParallelRunner
from repro.runner.point_store import PointStore, statistics_to_json
from repro.runner.tasks import AdaptiveStopping, GridPoint, run_fault_map_grid

REPO = Path(__file__).resolve().parent.parent

_GRID_KWARGS = dict(num_packets=4, num_fault_maps=2, entropy=2012)


@pytest.fixture(scope="module")
def config():
    return LinkConfig(
        payload_bits=56,
        crc_bits=16,
        modulation="16QAM",
        effective_code_rate=0.6,
        turbo_iterations=3,
        max_transmissions=3,
    )


def _grid(config, snrs):
    protection = NoProtection(bits_per_word=config.llr_bits)
    return [
        GridPoint(
            key_prefix=(i,),
            config=config,
            protection=protection,
            snr_db=snr,
            defect_rate=0.05,
        )
        for i, snr in enumerate(snrs)
    ]


def _as_bytes(points):
    """Every field of merged points, as canonical JSON text."""
    return [
        json.dumps(
            {
                "snr_db": point.snr_db,
                "num_faults": point.num_faults,
                "defect_rate": point.defect_rate,
                "statistics": statistics_to_json(point.statistics),
                "per_map_throughput": point.per_map_throughput,
                "protection_name": point.protection_name,
            },
            sort_keys=True,
        )
        for point in points
    ]


def _records(root):
    return sorted(root.glob("*.json"))


@pytest.fixture()
def scheduled_dies(monkeypatch):
    """Counts the dies handed to the fault-map batch function."""
    import repro.runner.tasks as tasks_module

    counts = SimpleNamespace(dies=0)
    original = tasks_module.simulate_fault_map_batch

    def counted(group):
        counts.dies += len(group)
        return original(group)

    monkeypatch.setattr(tasks_module, "simulate_fault_map_batch", counted)
    return counts


# --------------------------------------------------------------------------- #
class TestFixedSchedule:
    @pytest.mark.parametrize("groups_done", [0, 1, 3, 4, 7])
    def test_fixed_schedule_stores_each_point_as_it_finishes(
        self, tmp_path, config, groups_done, scheduled_dies
    ):
        """A run cut after *groups_done* batches keeps exactly its finished points."""
        from repro.runner.backends.serial import SerialBackend

        class Killed(Exception):
            pass

        class StopsAfter(SerialBackend):
            def submit(self, fn, tasks):
                for delivered, pair in enumerate(super().submit(fn, tasks)):
                    if delivered == groups_done:
                        raise Killed
                    yield pair

        points = _grid(config, snrs=(14.0, 16.0, 18.0, 20.0))
        kwargs = dict(_GRID_KWARGS, aggregate_packets=1)
        reference = run_fault_map_grid(ParallelRunner.serial(), points, **kwargs)

        with pytest.raises(Killed):
            run_fault_map_grid(
                ParallelRunner(backend=StopsAfter()),
                points,
                point_store=PointStore(tmp_path),
                **kwargs,
            )
        finished = groups_done // 2
        assert len(_records(tmp_path)) == finished

        scheduled_dies.dies = 0
        store = PointStore(tmp_path)
        results = run_fault_map_grid(
            ParallelRunner.serial(), points, point_store=store, **kwargs
        )
        assert _as_bytes(results) == _as_bytes(reference)
        assert store.hits == finished
        assert scheduled_dies.dies == (len(points) - finished) * 2
        assert len(_records(tmp_path)) == len(points)

    def test_a_batch_the_backend_never_delivers_raises(self, tmp_path, config):
        from repro.runner.backends.serial import SerialBackend

        class DropsLast(SerialBackend):
            def submit(self, fn, tasks):
                yield from list(super().submit(fn, tasks))[:-1]

        points = _grid(config, snrs=(14.0, 16.0))
        store = PointStore(tmp_path)
        with pytest.raises(RuntimeError, match=r"never delivered every item of units \[1\]"):
            run_fault_map_grid(
                ParallelRunner(backend=DropsLast()),
                points,
                point_store=store,
                **dict(_GRID_KWARGS, aggregate_packets=1),
            )
        assert len(_records(tmp_path)) == 1  # the delivered point is kept

    def test_fully_stored_grid_schedules_no_work(self, tmp_path, config, scheduled_dies):
        points = _grid(config, snrs=(14.0, 18.0))
        cold = run_fault_map_grid(
            ParallelRunner.serial(), points, point_store=PointStore(tmp_path), **_GRID_KWARGS
        )
        scheduled_dies.dies = 0
        warm = run_fault_map_grid(
            ParallelRunner.serial(), points, point_store=PointStore(tmp_path), **_GRID_KWARGS
        )
        assert scheduled_dies.dies == 0
        assert _as_bytes(warm) == _as_bytes(cold)

    def test_fixed_run_does_not_reuse_adaptive_records(
        self, tmp_path, config, scheduled_dies
    ):
        points = _grid(config, snrs=(14.0, 18.0))
        adaptive = AdaptiveStopping(chunks_per_round=1, min_trials=4)
        run_fault_map_grid(
            ParallelRunner.serial(),
            points,
            point_store=PointStore(tmp_path),
            adaptive=adaptive,
            **dict(_GRID_KWARGS, num_fault_maps=4),
        )
        adaptive_records = _records(tmp_path)
        assert len(adaptive_records) == len(points)

        reference = run_fault_map_grid(
            ParallelRunner.serial(), points, **dict(_GRID_KWARGS, num_fault_maps=4)
        )
        scheduled_dies.dies = 0
        store = PointStore(tmp_path)
        fixed = run_fault_map_grid(
            ParallelRunner.serial(),
            points,
            point_store=store,
            **dict(_GRID_KWARGS, num_fault_maps=4),
        )
        assert store.hits == 0
        assert scheduled_dies.dies == len(points) * 4
        assert _as_bytes(fixed) == _as_bytes(reference)
        assert len(_records(tmp_path)) == 2 * len(points)


# --------------------------------------------------------------------------- #
class TestAdaptiveResume:
    def test_partial_record_replays_its_dies_and_computes_the_rest(
        self, tmp_path, config, scheduled_dies
    ):
        points = _grid(config, snrs=(14.0, 18.0))
        adaptive = AdaptiveStopping(chunks_per_round=1, min_trials=4)
        kwargs = dict(_GRID_KWARGS, num_fault_maps=4, adaptive=adaptive)
        reference = run_fault_map_grid(ParallelRunner.serial(), points, **kwargs)
        total_dies = sum(len(point.per_map_throughput) for point in reference)

        first = PointStore(tmp_path)
        run_fault_map_grid(ParallelRunner.serial(), points, point_store=first, **kwargs)
        # One record per point, rewritten after every round (one die each).
        assert len(_records(tmp_path)) == len(points)
        assert first.writes == total_dies

        # A run killed after point 0's first round: its record holds one die,
        # and point 1 has no record at all.
        digests = [path.stem for path in _records(tmp_path)]
        records = {
            json.loads(path.read_text())["identity"]["point"]["key_prefix"][0]: path
            for path in _records(tmp_path)
        }
        record = json.loads(records[0].read_text())
        assert len(record["outcomes"]) >= 2
        record["outcomes"] = record["outcomes"][:1]
        records[0].write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")
        records[1].unlink()

        scheduled_dies.dies = 0
        store = PointStore(tmp_path)
        results = run_fault_map_grid(
            ParallelRunner.serial(), points, point_store=store, **kwargs
        )
        assert _as_bytes(results) == _as_bytes(reference)
        assert scheduled_dies.dies == total_dies - 1  # only the stored die is skipped
        assert store.hits == 1
        rebuilt = json.loads(records[0].read_text())
        assert len(rebuilt["outcomes"]) == len(reference[0].per_map_throughput)
        assert [path.stem for path in _records(tmp_path)] == digests

    def test_complete_adaptive_records_schedule_no_work(
        self, tmp_path, config, scheduled_dies
    ):
        points = _grid(config, snrs=(14.0, 18.0))
        adaptive = AdaptiveStopping(chunks_per_round=2, min_trials=4)
        kwargs = dict(_GRID_KWARGS, num_fault_maps=4, adaptive=adaptive)
        cold = run_fault_map_grid(
            ParallelRunner.serial(), points, point_store=PointStore(tmp_path), **kwargs
        )
        scheduled_dies.dies = 0
        store = PointStore(tmp_path)
        warm = run_fault_map_grid(
            ParallelRunner.serial(), points, point_store=store, **kwargs
        )
        assert scheduled_dies.dies == 0
        assert store.writes == 0
        assert _as_bytes(warm) == _as_bytes(cold)

    def test_only_points_that_computed_count_a_stop(self, tmp_path, config):
        points = _grid(config, snrs=(14.0, 18.0))
        adaptive = AdaptiveStopping(chunks_per_round=2, min_trials=4)
        kwargs = dict(_GRID_KWARGS, num_fault_maps=4, adaptive=adaptive)
        run_fault_map_grid(
            ParallelRunner.serial(), points, point_store=PointStore(tmp_path), **kwargs
        )
        records = {
            json.loads(path.read_text())["identity"]["point"]["key_prefix"][0]: path
            for path in _records(tmp_path)
        }
        records[1].unlink()

        def stops():
            snapshot = telemetry.registry().snapshot()
            counted = sum(
                counter["value"]
                for counter in snapshot["counters"]
                if counter["name"] == "runner_adaptive_stops_total"
            )
            events = [e for e in snapshot["events"] if e["kind"] == "adaptive-stop"]
            return counted, len(events)

        telemetry.reset()
        try:
            # Point 0 replays wholly from its record; only point 1 computes.
            run_fault_map_grid(
                ParallelRunner.serial(), points, point_store=PointStore(tmp_path), **kwargs
            )
            assert stops() == (1, 1)
            telemetry.reset()
            run_fault_map_grid(
                ParallelRunner.serial(), points, point_store=PointStore(tmp_path), **kwargs
            )
            assert stops() == (0, 0)
        finally:
            telemetry.reset()


# --------------------------------------------------------------------------- #
class TestBlerCells:
    def test_a_lost_cell_record_recomputes_only_that_cell(self, tmp_path, monkeypatch):
        import repro.scenarios.engine as engine_module
        from repro.experiments import fig2_bler_vs_harq

        reference = fig2_bler_vs_harq.run("smoke", seed=2012).to_json()
        fig2_bler_vs_harq.run("smoke", seed=2012, point_store=PointStore(tmp_path))
        records = _records(tmp_path)
        assert len(records) > 1
        lost = json.loads(records[0].read_text())
        records[0].unlink()

        chunks = SimpleNamespace(count=0)
        original = engine_module.simulate_link_chunk_batch

        def counted(group):
            chunks.count += len(group)
            return original(group)

        monkeypatch.setattr(engine_module, "simulate_link_chunk_batch", counted)
        store = PointStore(tmp_path)
        again = fig2_bler_vs_harq.run("smoke", seed=2012, point_store=store)
        assert again.to_json() == reference
        assert chunks.count == len(lost["outcomes"])
        assert store.hits == len(records) - 1
        assert json.loads(records[0].read_text()) == lost


    def test_cells_are_stored_as_each_completes(self, tmp_path):
        """Three 8-packet chunks per cell, four chunks per decode batch."""
        from repro.experiments import fig2_bler_vs_harq
        from repro.experiments.scales import SCALES
        from repro.runner.backends.serial import SerialBackend

        class Killed(Exception):
            pass

        class StopsAfterOneBatch(SerialBackend):
            def submit(self, fn, tasks):
                for delivered, pair in enumerate(super().submit(fn, tasks)):
                    if delivered == 1:
                        raise Killed
                    yield pair

        scale = SCALES["smoke"].with_updates(num_packets=24)
        reference = fig2_bler_vs_harq.run(scale, seed=2012).to_json()
        with pytest.raises(Killed):
            fig2_bler_vs_harq.run(
                scale,
                seed=2012,
                runner=ParallelRunner(backend=StopsAfterOneBatch()),
                point_store=PointStore(tmp_path),
            )
        # The first batch held all of cell 0 and one chunk of cell 1.
        assert len(_records(tmp_path)) == 1
        store = PointStore(tmp_path)
        assert fig2_bler_vs_harq.run(scale, seed=2012, point_store=store).to_json() == (
            reference
        )
        assert store.hits == 1


# --------------------------------------------------------------------------- #
GOLDEN_FIG6 = REPO / "tests" / "golden" / "fig6.json"


class TestCliStore:
    """How ``repro run`` flags treat the point records under ``--cache-dir``."""

    def _run(self, tmp_path, *extra, experiment="fig6"):
        from repro.runner.cli import main

        out = tmp_path / "out.json"
        argv = ["run", experiment, "--scale", "smoke", "--cache-dir", str(tmp_path / "c")]
        assert main([*argv, "--out", str(out), *extra]) == 0
        return out.read_bytes()

    def test_no_cache_reads_and_writes_no_records(self, tmp_path):
        assert self._run(tmp_path, "--no-cache") == GOLDEN_FIG6.read_bytes()
        assert not (tmp_path / "c").exists()

    def test_analytical_runs_make_no_store(self, tmp_path):
        self._run(tmp_path, experiment="fig3")
        assert not (tmp_path / "c" / "points").exists()

    def test_force_ignores_and_overwrites_records(self, tmp_path, capsys):
        from repro.runner.cli import main

        assert self._run(tmp_path) == GOLDEN_FIG6.read_bytes()
        points = _records(tmp_path / "c" / "points")
        record = json.loads(points[0].read_text())
        # A valid record with other physics: a run that reads it must differ.
        tampered = json.loads(json.dumps(record))
        for die in tampered["outcomes"]:
            die["statistics"]["num_successful"] = 0
        points[0].write_text(json.dumps(tampered, sort_keys=True, indent=2) + "\n")
        cache_dir = str(tmp_path / "c")
        assert main(["cache", "clear", "--experiment", "fig6", "--cache-dir", cache_dir]) == 0
        assert self._run(tmp_path) != GOLDEN_FIG6.read_bytes()
        capsys.readouterr()

        assert self._run(tmp_path, "--force") == GOLDEN_FIG6.read_bytes()
        assert "reused 0 point(s), computed 16 point(s)" in capsys.readouterr().err
        assert json.loads(points[0].read_text()) == record

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "fig6", "--resume"],
            ["run", "fig6", "--no-journal"],
            ["run", "fig6", "--point-store", "points"],
            ["serve", "--point-store", "points"],
        ],
        ids=["resume", "no-journal", "point-store", "serve-point-store"],
    )
    def test_removed_flags_are_rejected(self, argv, capsys):
        from repro.runner.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "unrecognized arguments" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
def _repro(*args, **popen):
    return [sys.executable, "-m", "repro", *args], dict(
        cwd=REPO, env=dict(os.environ, PYTHONPATH="src"), **popen
    )


def test_kill_dash_nine_then_rerun_is_byte_identical(tmp_path):
    common = ["run", "fig6", "--scale", "smoke", "--seed", "2012"]
    reference_out = tmp_path / "reference.json"
    command, options = _repro(
        *common, "--cache-dir", str(tmp_path / "fresh-cache"), "--out", str(reference_out)
    )
    subprocess.run(command, check=True, capture_output=True, timeout=300, **options)

    cache_dir = tmp_path / "cache"
    out = tmp_path / "out.json"
    command, options = _repro(*common, "--cache-dir", str(cache_dir), "--out", str(out))
    victim = subprocess.Popen(
        command, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, **options
    )
    # Kill -9 as soon as a point record exists.  If the run wins the race
    # and finishes, the rerun below still must reproduce the reference; the
    # unit tests above cut runs deterministically.
    points = cache_dir / "points"
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline and victim.poll() is None:
        if list(points.glob("*.json")):
            break
        time.sleep(0.01)
    if victim.poll() is None:
        victim.send_signal(signal.SIGKILL)
    victim.wait(timeout=60)
    interrupted = not out.exists()

    rerun = subprocess.run(
        command, check=True, capture_output=True, text=True, timeout=300, **options
    )
    assert out.read_bytes() == reference_out.read_bytes()
    if interrupted:
        reused = int(rerun.stderr.split("point store: reused ")[1].split()[0])
        assert reused >= 1
