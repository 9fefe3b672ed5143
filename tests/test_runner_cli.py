"""Tests for the ``python -m repro`` CLI and the on-disk result cache."""

import json

import pytest

from repro.core.results import SweepTable
from repro.runner.cache import (
    CACHE_FORMAT_VERSION,
    ResultCache,
    config_digest,
    serialize_payload,
)
from repro.phy.turbo.backends import resolve_backend
from repro.runner.cli import experiment_payload, main, run_identity
from repro.runner.registry import (
    EXPERIMENTS,
    get_experiment,
    run_experiment,
)


class TestRegistry:
    def test_all_nine_drivers_registered(self):
        assert list(EXPERIMENTS) == [
            "fig2",
            "fig3",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "power_savings",
        ]

    def test_unknown_experiment_is_helpful(self):
        with pytest.raises(ValueError, match="fig6"):
            get_experiment("fig666")

    def test_run_experiment_normalises_single_table(self):
        outcome = run_experiment("fig3")
        assert set(outcome.tables) == {"table"}

    def test_run_experiment_normalises_multi_table(self):
        outcome = run_experiment("fig5")
        assert set(outcome.tables) == {"curves", "targets"}

    def test_extras_are_jsonable(self):
        outcome = run_experiment(
            "fig8",
            "smoke",
            7,
            protected_bit_counts=(2, 4),
        )
        json.dumps(outcome.extras)  # must not raise
        assert "optimum_bits" in outcome.extras


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        identity = run_identity("fig3", "smoke", 0, {})
        digest = config_digest(identity)
        assert cache.get("fig3", digest) == (None, "missing")

        outcome = run_experiment("fig3")
        text = serialize_payload("fig3", identity=identity, tables=outcome.tables)
        cache.store("fig3", digest, text)
        payload, status = cache.get("fig3", digest)
        assert status == "ok"
        assert cache.path_for("fig3", digest).read_text() == text
        assert payload["cache_format"] == CACHE_FORMAT_VERSION
        table = SweepTable.from_json_dict(payload["tables"]["table"])
        assert table.to_json() == outcome.tables["table"].to_json()

    def test_digest_sensitive_to_identity(self):
        base = run_identity("fig6", "smoke", 2012, {})
        assert config_digest(base) != config_digest(run_identity("fig6", "smoke", 2013, {}))
        assert config_digest(base) != config_digest(run_identity("fig6", "default", 2012, {}))
        assert config_digest(base) != config_digest(run_identity("fig7", "smoke", 2012, {}))

    def test_entries_counts_per_experiment(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.entries() == {}
        text = serialize_payload("fig3", identity={}, tables=run_experiment("fig3").tables)
        cache.store("fig3", "aa" * 10, text)
        cache.store("fig3", "bb" * 10, text)
        assert cache.entries() == {"fig3": 2}


class TestExperimentPayload:
    def test_cached_payload_is_byte_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = experiment_payload("fig3", "smoke", 0, cache=cache)
        second = experiment_payload("fig3", "smoke", 0, cache=cache)
        assert first == second
        assert cache.entries() == {"fig3": 1}

    def test_force_recomputes_consistently(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = experiment_payload("fig3", "smoke", 0, cache=cache)
        forced = experiment_payload("fig3", "smoke", 0, cache=cache, force=True)
        assert first == forced

    def test_payload_round_trips_tables(self):
        payload = json.loads(experiment_payload("fig3", "smoke", 0))
        table = SweepTable.from_json_dict(payload["tables"]["table"])
        assert table.columns[0] == "vdd"
        assert len(table) > 0


class TestCliMain:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig6" in output and "power_savings" in output and "smoke" in output

    def test_backends_ls(self, capsys):
        assert main(["backends", "ls"]) == 0
        output = capsys.readouterr().out
        assert "decoder backends" in output
        assert "numpy" in output and "native" in output
        assert "execution backends" in output and "serial" in output
        assert "scenarios:" in output

    def test_backends_ls_json_reports_all_three_registries(self, capsys):
        assert main(["backends", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        families = {e["family"]: e for e in payload["decoder_backends"]}
        assert set(families) == {"numpy", "native"}
        assert families["numpy"]["available"] is True
        assert families["numpy"]["exact"] is True
        for entry in families.values():
            # perfbench provenance reads these two keys
            assert {"family", "available"} <= set(entry)
            # availability in the listing must agree with backend resolution
            resolved = resolve_backend(entry["family"], warn=False).family
            assert entry["available"] == (resolved == entry["family"])
            assert isinstance(entry["reason"], str) and entry["reason"]
        execution = {e["name"] for e in payload["execution_backends"]}
        assert execution == {"serial", "process", "socket"}
        assert payload["scenarios"]  # non-empty name list

    def test_decoder_backend_flag_rejects_removed_tokens(self):
        # argparse validates --decoder-backend before --help exits: a bad
        # token raises SystemExit(2), a good one exits 0 via --help.
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig6", "--decoder-backend", "native-f32", "--help"])
        assert excinfo.value.code == 0
        for token in ("bogus", "numba", "native-f32@t2"):
            with pytest.raises(SystemExit) as excinfo:
                main(["run", "fig6", "--decoder-backend", token, "--help"])
            assert excinfo.value.code == 2

    def test_run_writes_canonical_json(self, tmp_path, capsys):
        out = tmp_path / "fig3.json"
        code = main(
            [
                "run",
                "fig3",
                "--scale",
                "smoke",
                "--out",
                str(out),
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["experiment"] == "fig3"
        assert payload["identity"]["scale"] == "smoke"

    def test_run_prints_markdown_without_out(self, tmp_path, capsys):
        assert main(["run", "fig3", "--no-cache"]) == 0
        assert "| vdd |" in capsys.readouterr().out

    def test_run_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["run", "does-not-exist"])

    def test_golden_subcommand_writes_snapshots(self, tmp_path, capsys):
        code = main(
            [
                "golden",
                "--out-dir",
                str(tmp_path),
                "--experiments",
                "fig3",
                "power_savings",
            ]
        )
        assert code == 0
        assert (tmp_path / "fig3.json").exists()
        assert (tmp_path / "power_savings.json").exists()

    def test_bler_subcommand(self, capsys):
        code = main(
            [
                "bler",
                "--snr",
                "26",
                "--relative-error",
                "0.9",
                "--bler-floor",
                "0.2",
                "--chunk-packets",
                "2",
                "--max-packets",
                "8",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "BLER at 26.0 dB" in output
        assert "stop=" in output

    @pytest.mark.parametrize(
        "extra, expected",
        [
            (
                ["--snr", "6"],
                "BLER at 6.0 dB (smoke scale): 0.0070 ± 0.0046 (95% Wilson)\n"
                "  errors=6 packets=1120 chunks=140 stop=budget\n",
            ),
            (
                ["--snr", "3", "--relative-error", "0.5"],
                "BLER at 3.0 dB (smoke scale): 0.7511 ± 0.1387 (95% Wilson)\n"
                "  errors=25 packets=32 chunks=4 stop=confident\n",
            ),
            (
                ["--snr", "6", "--max-packets", "40"],
                "BLER at 6.0 dB (smoke scale): 0.0283 ± 0.0283 (95% Wilson)\n"
                "  errors=0 packets=64 chunks=8 stop=max_packets\n",
            ),
        ],
        ids=["budget", "confident", "max-packets"],
    )
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_bler_stdout_is_pinned(self, extra, expected, workers, capsys):
        # Each stop reason's exact stdout: rounds of 4 chunks of 8 packets,
        # never shrunk, so a ceiling is overshot to the next round boundary.
        argv = ["bler", "--scale", "smoke", "--seed", "2012", "--workers", workers]
        assert main(argv + extra) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("confidence", ["0", "1", "1.5", "-0.5", "nan"])
    def test_bler_rejects_confidence_outside_unit_interval(self, confidence, capsys):
        # Rejected before the first round is scheduled: no estimate is printed.
        assert main(["bler", "--snr", "6", "--confidence", confidence]) == 2
        captured = capsys.readouterr()
        assert "confidence must be in (0, 1)" in captured.err
        assert "BLER at" not in captured.out

    def test_cache_subcommand(self, tmp_path, capsys):
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        assert "empty" in capsys.readouterr().out

    def test_run_execution_backend_is_byte_identical_and_not_in_identity(
        self, tmp_path, capsys
    ):
        serial_out = tmp_path / "serial.json"
        process_out = tmp_path / "process.json"
        args = ["run", "fig2", "--scale", "smoke", "--no-cache"]
        assert main(args + ["--out", str(serial_out)]) == 0
        assert (
            main(
                args
                + [
                    "--execution-backend",
                    "process",
                    "--workers",
                    "2",
                    "--out",
                    str(process_out),
                ]
            )
            == 0
        )
        payload = serial_out.read_bytes()
        assert payload == process_out.read_bytes()
        # Execution topology is not physics: nothing in the artefact may
        # record the backend or worker count.
        assert b"execution" not in payload and b"workers" not in payload

    def test_worker_subcommand_parses(self):
        from repro.runner.cli import build_parser

        args = build_parser().parse_args(
            ["worker", "--connect", "127.0.0.1:9", "--once"]
        )
        assert args.command == "worker"
        assert args.connect == "127.0.0.1:9"
        assert args.once

    def test_named_backend_scales_workers_to_cpus(self):
        from repro.runner.backends import default_workers
        from repro.runner.cli import build_parser, make_runner

        args = build_parser().parse_args(
            ["run", "fig2", "--execution-backend", "process"]
        )
        with make_runner(args) as runner:
            # Naming a backend means "use it" — not a degenerate 1-worker
            # pool that silently executes inline.
            assert runner.workers == default_workers()
            assert runner.backend.name == "process"

    def test_default_flags_still_mean_serial(self):
        from repro.runner.cli import build_parser, make_runner

        args = build_parser().parse_args(["run", "fig2"])
        with make_runner(args) as runner:
            assert runner.backend.name == "serial"

    def test_workers_zero_still_means_parallel_auto(self):
        from repro.runner.backends import default_workers
        from repro.runner.cli import build_parser, make_runner

        args = build_parser().parse_args(["run", "fig2", "--workers", "0"])
        with make_runner(args) as runner:
            assert runner.backend.name == "process"
            assert runner.workers == default_workers()

    def test_socket_flags_without_socket_backend_are_rejected(self, capsys):
        assert (
            main(["run", "fig2", "--socket-workers", "4", "--no-cache"]) == 2
        )
        assert "--execution-backend socket" in capsys.readouterr().err

    def test_run_experiment_rejects_runner_plus_topology_kwargs(self):
        from repro.runner.parallel import ParallelRunner

        with pytest.raises(ValueError, match="not both"):
            run_experiment(
                "fig2", runner=ParallelRunner.serial(), execution_backend="socket"
            )


class TestCacheLsClear:
    @staticmethod
    def _populate(tmp_path):
        cache_dir = tmp_path / "cache"
        for experiment in ("fig3", "fig5"):
            assert main(["run", experiment, "--cache-dir", str(cache_dir)]) == 0
        return cache_dir

    def test_ls_lists_digests_and_identity(self, tmp_path, capsys):
        cache_dir = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "ls", "--cache-dir", str(cache_dir)]) == 0
        output = capsys.readouterr().out
        assert "fig3" in output and "fig5" in output
        assert "scale=smoke" in output and "seed=2012" in output

    def test_ls_filters_by_experiment(self, tmp_path, capsys):
        cache_dir = self._populate(tmp_path)
        capsys.readouterr()
        assert main(
            ["cache", "ls", "--experiment", "fig3", "--cache-dir", str(cache_dir)]
        ) == 0
        output = capsys.readouterr().out
        assert "fig3" in output and "fig5" not in output

    def test_clear_one_experiment_keeps_the_rest(self, tmp_path, capsys):
        cache_dir = self._populate(tmp_path)
        capsys.readouterr()
        assert main(
            ["cache", "clear", "--experiment", "fig3", "--cache-dir", str(cache_dir)]
        ) == 0
        assert "removed 1 cached run(s) for fig3" in capsys.readouterr().out
        assert ResultCache(cache_dir).entries() == {"fig5": 1}

    @staticmethod
    def _point_records(cache_dir):
        """A stored point record and a quarantine record under *cache_dir*."""
        from repro.runner.cache import POINTS_DIRNAME, QUARANTINE_DIRNAME, QuarantineStore
        from repro.runner.point_store import PointStore

        identity = {"kind": "bler", "probe": 1}
        store = PointStore(cache_dir / POINTS_DIRNAME)
        store.store(store.digest(identity), identity, [])
        quarantine = QuarantineStore(cache_dir / QUARANTINE_DIRNAME).record(
            "simulate_fault_map_batch", {"key": [0]}, error="boom", attempts=1
        )
        return quarantine

    def test_ls_counts_point_records(self, tmp_path, capsys):
        cache_dir = self._populate(tmp_path)
        self._point_records(cache_dir)
        capsys.readouterr()
        assert main(["cache", "ls", "--cache-dir", str(cache_dir)]) == 0
        assert "1 stored point record(s)" in capsys.readouterr().out
        assert main(
            ["cache", "ls", "--experiment", "fig3", "--cache-dir", str(cache_dir)]
        ) == 0
        assert "point record" not in capsys.readouterr().out

    def test_clear_one_experiment_keeps_point_records(self, tmp_path, capsys):
        cache_dir = self._populate(tmp_path)
        self._point_records(cache_dir)
        assert main(
            ["cache", "clear", "--experiment", "fig3", "--cache-dir", str(cache_dir)]
        ) == 0
        assert len(list((cache_dir / "points").glob("*.json"))) == 1

    def test_clear_everything_prunes_directories(self, tmp_path, capsys):
        cache_dir = self._populate(tmp_path)
        quarantine = self._point_records(cache_dir)
        (cache_dir / "fig3" / ("ee" * 10 + ".json")).write_text("{")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert ResultCache(cache_dir).get("fig3", "ee" * 10)[1] == "corrupt"
        assert ResultCache(cache_dir).entries() == {"fig3": 1, "fig5": 1}
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "removed 2 cached run(s) and 1 point record(s)" in capsys.readouterr().out
        assert ResultCache(cache_dir).entries() == {}
        # Quarantined entries and point records go too; quarantine records
        # (tracebacks of poisoned work items) stay.
        assert list(cache_dir.iterdir()) == [quarantine.parent]
        assert quarantine.exists()


class TestExecutionBackendThreading:
    def test_run_experiment_accepts_backend_name(self):
        serial = run_experiment("fig2", "smoke", 7)
        threaded = run_experiment("fig2", "smoke", 7, workers=2, execution_backend="process")
        assert (
            serial.tables["table"].to_json() == threaded.tables["table"].to_json()
        )

    def test_driver_accepts_backend_name_as_runner(self):
        from repro.experiments import fig2_bler_vs_harq

        serial = fig2_bler_vs_harq.run("smoke", seed=7)
        named = fig2_bler_vs_harq.run("smoke", seed=7, runner="serial")
        assert serial.to_json() == named.to_json()
