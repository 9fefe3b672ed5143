"""Chaos conformance: injected faults must never change a single byte.

The runner stack claims its failure handling — at-least-once redelivery,
(round, index) de-duplication, atomic stores with corrupt-entry quarantine —
makes execution faults invisible in the results.  This suite injects real
faults on every layer (wire frames, the worker serve loop, cache and
point-store writes) through :mod:`repro.runner.chaos` and asserts
byte-identity against fault-free serial references, plus the poison-task
semantics of ``--on-task-error=quarantine`` and graceful worker drain.

Workers run as in-process threads here, so they share the coordinator's
active plan (and its once-per-process directive counters) without any
environment plumbing — exactly the ``chaos.activate(...)`` path ``--chaos``
uses, minus the env export for subprocess daemons.
"""

import json
import threading

import pytest

from repro.core.protection import NoProtection
from repro.experiments import fig6_throughput_vs_defects
from repro.experiments.scales import SCALES
from repro.runner import chaos
from repro.runner.backends import (
    SerialBackend,
    SocketDistributedBackend,
    TaskQuarantined,
    WORKER_EXIT_OK,
    create_execution_backend,
    run_worker,
)
from repro.runner.cache import QuarantineStore, ResultCache
from repro.runner.parallel import ParallelRunner
from repro.runner.point_store import PointStore


@pytest.fixture(scope="module")
def micro_scale():
    """A sub-smoke scale keeping the end-to-end chaos runs fast."""
    return SCALES["smoke"].with_updates(
        payload_bits=56,
        num_packets=4,
        num_fault_maps=2,
        turbo_iterations=3,
        snr_points_db=(16.0, 26.0),
        defect_rates=(0.0, 0.10),
    )


@pytest.fixture(autouse=True)
def _chaos_off():
    """Every test starts and ends with no active plan."""
    chaos.activate(None)
    yield
    chaos.activate(None)


def _start_worker_thread(address, **kwargs):
    """Run a worker daemon in-process (shares the active chaos plan)."""
    kwargs.setdefault("connect_retries", 40)
    kwargs.setdefault("retry_delay", 0.05)
    kwargs.setdefault("once", False)
    kwargs.setdefault("log", lambda _line: None)
    thread = threading.Thread(
        target=run_worker, args=(address,), kwargs=kwargs, daemon=True
    )
    thread.start()
    return thread


def _boom(_value):
    raise ValueError("boom: deliberate task failure")


def _square(value):
    return value * value


# --------------------------------------------------------------------------- #
class TestFaultPlanParsing:
    def test_full_spec_round_trip(self):
        plan = chaos.FaultPlan.parse(
            "seed=7;drop-send=4, truncate-send=6;delay-send=2:0.25;"
            "drop-recv=3;kill-task=1;tear-write=2"
        )
        assert plan.seed == 7
        assert plan.drop_send == 4
        assert plan.truncate_send == 6
        assert plan.delay_send == (2, 0.25)
        assert plan.drop_recv == 3
        assert plan.kill_task == 1
        assert plan.tear_write == 2

    @pytest.mark.parametrize(
        "spec",
        [
            "explode=1",  # unknown directive
            "drop-send",  # missing value
            "drop-send=zero",  # non-integer ordinal
            "drop-send=0",  # ordinal below 1
            "delay-send=3",  # missing the :SECONDS half
            "delay-send=3:-1",  # negative delay
        ],
    )
    def test_malformed_specs_are_rejected(self, spec):
        with pytest.raises(ValueError):
            chaos.FaultPlan.parse(spec)

    def test_directives_fire_exactly_once(self):
        plan = chaos.FaultPlan.parse("tear-write=2")
        assert [plan.take_tear_write() for _ in range(4)] == [
            False,
            True,
            False,
            False,
        ]

    def test_activate_export_reaches_environment(self, monkeypatch):
        import os

        monkeypatch.delenv(chaos.CHAOS_ENV_VAR, raising=False)
        chaos.activate("kill-task=1", export=True)
        assert os.environ[chaos.CHAOS_ENV_VAR] == "kill-task=1"
        chaos.activate(None, export=True)
        assert chaos.CHAOS_ENV_VAR not in os.environ

    def test_env_spec_self_arms_lazily(self, monkeypatch):
        """Worker daemons inherit REPRO_CHAOS with zero explicit plumbing."""
        monkeypatch.setenv(chaos.CHAOS_ENV_VAR, "drop-send=9")
        chaos.reset()
        plan = chaos.active_plan()
        assert plan is not None and plan.drop_send == 9


# --------------------------------------------------------------------------- #
class TestTornWriteQuarantine:
    def test_point_store_write_torn_then_quarantined(self, tmp_path, micro_scale):
        reference = fig6_throughput_vs_defects.run(micro_scale, seed=2012).to_json()
        chaos.activate("tear-write=1")  # tears the first stored grid point
        first = fig6_throughput_vs_defects.run(
            micro_scale, seed=2012, point_store=PointStore(tmp_path)
        )
        assert first.to_json() == reference  # in-memory results unaffected
        chaos.activate(None)
        # The torn entry reads as corrupt, is quarantined with a warning and
        # recomputed; every other point loads from the store.
        with pytest.warns(RuntimeWarning, match="corrupt JSON"):
            second = fig6_throughput_vs_defects.run(
                micro_scale, seed=2012, point_store=PointStore(tmp_path)
            )
        assert second.to_json() == reference
        assert list(tmp_path.glob("*.corrupt"))

    def test_cache_tear_during_run_is_absorbed(self, tmp_path):
        """A torn cache write is quarantined and recomputed, never served."""
        from repro.runner.cli import experiment_payload

        cache = ResultCache(tmp_path)
        chaos.activate("tear-write=1")
        first = experiment_payload("fig6", "smoke", 2012, cache=cache)
        chaos.activate(None)
        with pytest.warns(RuntimeWarning, match="corrupt JSON"):
            second = experiment_payload("fig6", "smoke", 2012, cache=cache)
        assert first == second


# --------------------------------------------------------------------------- #
class TestChaosConformance:
    """Faults on every wire/worker layer; results byte-identical to serial."""

    def test_fig6_byte_identical_under_wire_and_worker_faults(self, micro_scale):
        reference = fig6_throughput_vs_defects.run(micro_scale, seed=2012).to_json()
        plan = chaos.activate(
            "seed=3;drop-send=2;truncate-send=5;delay-send=1:0.02;"
            "drop-recv=4;kill-task=1"
        )
        backend = SocketDistributedBackend(local_workers=0, worker_timeout=120.0)
        for _ in range(2):
            _start_worker_thread(backend.address)
        with ParallelRunner(2, backend=backend) as runner:
            table = fig6_throughput_vs_defects.run(
                micro_scale, seed=2012, runner=runner
            )
        assert table.to_json() == reference
        # The schedule really ran: early-ordinal faults fired somewhere.
        assert plan._fired.get("kill-task") and plan._fired.get("drop-send")

    def test_adaptive_rounds_survive_mid_round_worker_kill(self, micro_scale):
        """A chaos kill abandons a half-executed round; the redo is exact."""
        reference = fig6_throughput_vs_defects.run(
            micro_scale, seed=2012, adaptive=True
        ).to_json()
        plan = chaos.activate("kill-task=1;drop-send=2")
        backend = SocketDistributedBackend(local_workers=0, worker_timeout=120.0)
        for _ in range(2):
            _start_worker_thread(backend.address)
        with ParallelRunner(2, backend=backend) as runner:
            table = fig6_throughput_vs_defects.run(
                micro_scale, seed=2012, adaptive=True, runner=runner
            )
        assert table.to_json() == reference
        assert plan._fired.get("kill-task")


# --------------------------------------------------------------------------- #
class TestPoisonTaskQuarantine:
    @pytest.mark.parametrize("backend_name", ["serial", "process"])
    def test_local_backends_quarantine_instead_of_aborting(self, backend_name):
        backend = create_execution_backend(
            backend_name, workers=2, on_task_error="quarantine"
        )
        with ParallelRunner(2, backend=backend) as runner:
            results = runner.collect_in_order(runner.submit_round(_boom, [1, 2]), 2)
        assert all(isinstance(r, TaskQuarantined) for r in results)
        assert [r.index for r in results] == [0, 1]
        assert "deliberate task failure" in results[0].error
        assert runner.task_failures == list(results)

    def test_map_raises_unless_caller_opts_in(self):
        runner = ParallelRunner(1, backend=SerialBackend(on_task_error="quarantine"))
        with pytest.raises(RuntimeError, match="quarantined"):
            runner.map(_boom, [1])
        assert len(runner.task_failures) == 1  # recorded even when raising

    def test_quarantine_store_records_task_identity(self, tmp_path):
        store = QuarantineStore(tmp_path)
        runner = ParallelRunner(
            1,
            backend=SerialBackend(on_task_error="quarantine"),
            quarantine_store=store,
        )
        runner.collect_in_order(runner.submit_round(_boom, [41, 42]), 2)
        records = [path for _key, path in store.iter_keys()]
        assert len(records) == 2
        payload = json.loads(records[0].read_text())
        assert payload["quarantine_format"] == 1
        assert "deliberate task failure" in payload["error"]
        assert payload["task"] in (41, 42)
        # Re-running the same poison overwrites records, never accumulates.
        runner.collect_in_order(runner.submit_round(_boom, [41, 42]), 2)
        assert len(list(store.iter_keys())) == 2

    def test_socket_retry_budget_prefers_distinct_workers(self):
        backend = SocketDistributedBackend(
            local_workers=0,
            worker_timeout=120.0,
            on_task_error="quarantine",
            task_attempts=2,
        )
        try:
            _start_worker_thread(backend.address)
            _start_worker_thread(backend.address)
            runner = ParallelRunner(2, backend=backend)
            [sentinel] = runner.collect_in_order(runner.submit_round(_boom, [1]), 1)
            assert isinstance(sentinel, TaskQuarantined)
            assert sentinel.attempts == 2
            assert len(set(sentinel.workers)) == 2  # two *distinct* workers
            # The round completed; the backend is still usable.
            assert runner.map(_square, [3]) == [9]
        finally:
            backend.close()

    def test_socket_default_policy_still_fails_fast(self):
        backend = SocketDistributedBackend(local_workers=0, worker_timeout=120.0)
        try:
            _start_worker_thread(backend.address)
            runner = ParallelRunner(1, backend=backend)
            with pytest.raises(RuntimeError, match="deliberate task failure"):
                runner.map(_boom, [1])
        finally:
            backend.close()

    def test_fault_grid_merges_survivors_from_quarantined_dies(
        self, tiny_config, monkeypatch
    ):
        """A quarantined die leaves the point mergeable from its survivors."""
        import repro.runner.tasks as tasks_module
        from repro.runner.tasks import GridPoint, run_fault_map_grid

        original = tasks_module.simulate_fault_map_batch
        calls = {"n": 0}

        def poisoned_batch(group):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ValueError("boom: deliberate task failure")
            return original(group)

        monkeypatch.setattr(tasks_module, "simulate_fault_map_batch", poisoned_batch)
        point = GridPoint(
            key_prefix=(0,),
            config=tiny_config,
            protection=NoProtection(bits_per_word=tiny_config.llr_bits),
            snr_db=16.0,
            defect_rate=0.1,
        )
        runner = ParallelRunner(1, backend=SerialBackend(on_task_error="quarantine"))
        # aggregate_packets=1 keeps one die per batch, so exactly one die is
        # quarantined and the other survives.
        [merged] = run_fault_map_grid(
            runner,
            [point],
            num_packets=4,
            num_fault_maps=2,
            entropy=2012,
            aggregate_packets=1,
        )
        assert merged is not None
        assert len(merged.per_map_throughput) == 1  # merged from the survivor
        assert len(runner.task_failures) == 1

    def test_fault_grid_raises_when_every_die_is_quarantined(
        self, tiny_config, monkeypatch
    ):
        import repro.runner.tasks as tasks_module
        from repro.runner.tasks import GridPoint, run_fault_map_grid

        def always_poisoned(_group):
            raise ValueError("boom: deliberate task failure")

        monkeypatch.setattr(
            tasks_module, "simulate_fault_map_batch", always_poisoned
        )
        point = GridPoint(
            key_prefix=(0,),
            config=tiny_config,
            protection=NoProtection(bits_per_word=tiny_config.llr_bits),
            snr_db=16.0,
            defect_rate=0.1,
        )
        runner = ParallelRunner(1, backend=SerialBackend(on_task_error="quarantine"))
        with pytest.raises(RuntimeError, match="every die"):
            run_fault_map_grid(
                runner,
                [point],
                num_packets=4,
                num_fault_maps=2,
                entropy=2012,
                aggregate_packets=1,
            )


# --------------------------------------------------------------------------- #
class TestGracefulDrain:
    def test_drained_worker_finishes_and_exits_cleanly(self):
        backend = SocketDistributedBackend(local_workers=0, worker_timeout=120.0)
        try:
            drain = threading.Event()
            exit_code = {}

            def draining_worker():
                exit_code["value"] = run_worker(
                    backend.address,
                    connect_retries=40,
                    retry_delay=0.05,
                    once=False,
                    drain=drain,
                    log=lambda _line: None,
                )

            thread = threading.Thread(target=draining_worker, daemon=True)
            thread.start()
            runner = ParallelRunner(1, backend=backend)
            assert runner.map(_square, [2, 3]) == [4, 9]
            drain.set()
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            assert exit_code["value"] == WORKER_EXIT_OK
            # A drained (goodbye) worker retires cleanly: a replacement
            # serves the next round without redelivery noise.
            _start_worker_thread(backend.address)
            assert runner.map(_square, [5]) == [25]
        finally:
            backend.close()

    def test_reconnect_backoff_is_exponential_capped_and_deterministic(
        self, monkeypatch
    ):
        import socket as socket_module
        import time as real_time
        import types

        from repro.runner.backends import socket_backend

        # An address nothing listens on: bind, learn the port, close.
        probe = socket_module.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        sleeps = []
        # Patch the module's `time` binding (not the global module) so the
        # capture never leaks into unrelated worker threads.
        stub = types.SimpleNamespace(
            monotonic=real_time.monotonic, sleep=sleeps.append
        )
        monkeypatch.setattr(socket_backend, "time", stub)

        def capture_schedule():
            sleeps.clear()
            sock = socket_backend._connect_with_retry(
                "127.0.0.1", port, retries=12, delay=0.5, log=lambda _line: None
            )
            assert sock is None
            return list(sleeps)

        first = capture_schedule()
        assert len(first) == 11  # no sleep after the final attempt
        cap = socket_backend.RECONNECT_BACKOFF_CAP
        for attempt, slept in enumerate(first):
            base = min(0.5 * (2.0 ** attempt), cap)
            assert 0.5 * base <= slept <= 1.5 * base
        # Deep attempts saturate at the cap (times jitter), never beyond.
        assert max(first) <= 1.5 * cap
        assert min(first[4:]) >= 0.5 * cap
        # Same address + same process => identical jitter schedule.
        assert capture_schedule() == first
