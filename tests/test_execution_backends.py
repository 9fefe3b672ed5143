"""Conformance suite for the pluggable execution backends.

The contract under test: serial, process-pool and socket-distributed
execution of the same plan are **byte-identical** — including the adaptive
stopping points — because work items are seeded by their sweep coordinates,
never by the executing worker.  Plus the socket backend's failure semantics:
at-least-once redelivery after a dead worker, de-duplication of late or
duplicate deliveries, and remote-error propagation.
"""

import socket
import threading
import time

import pytest

from repro.core.montecarlo import required_packets_for_bler
from repro.experiments import fig2_bler_vs_harq, fig6_throughput_vs_defects
from repro.experiments.scales import SCALES
from repro.runner.backends import (
    SerialBackend,
    create_execution_backend,
    execution_backend_names,
)
from repro.runner.backends.process_pool import ProcessPoolBackend
from repro.runner.backends.socket_backend import SocketDistributedBackend, run_worker
from repro.runner.backends.wire import parse_address, recv_message, send_message
from repro.runner.parallel import ParallelRunner, resolve_runner, runner_scope


@pytest.fixture(scope="module")
def micro_scale():
    """A sub-smoke scale so end-to-end conformance runs stay fast."""
    return SCALES["smoke"].with_updates(
        payload_bits=56,
        num_packets=4,
        num_fault_maps=2,
        turbo_iterations=3,
        snr_points_db=(16.0, 26.0),
        defect_rates=(0.0, 0.10),
    )


def _runner_for(backend_name: str) -> ParallelRunner:
    """A two-worker runner on the named backend (socket: 2 local daemons)."""
    if backend_name == "serial":
        return ParallelRunner.serial()
    backend = create_execution_backend(backend_name, workers=2)
    return ParallelRunner(2, backend=backend)


# Module-level task functions so every backend can pickle them by reference.
def _square(value):
    return value * value


def _boom(_value):
    raise ValueError("boom: deliberate task failure")


def _one_error_in_ten(_chunk_index):
    return (1, 10)


def _identity_task(chunk_index):
    return chunk_index


def _slow_square(value):
    time.sleep(0.5)
    return value * value


class TestRegistry:
    def test_builtin_families_registered(self):
        assert set(execution_backend_names()) >= {"serial", "process", "socket"}

    def test_unknown_backend_is_helpful(self):
        with pytest.raises(ValueError, match="serial"):
            create_execution_backend("teleport")

    def test_serial_rejects_socket_options(self):
        with pytest.raises(TypeError, match="bind"):
            create_execution_backend("serial", bind="127.0.0.1:0")

    def test_instances_pass_through(self):
        backend = SerialBackend()
        assert create_execution_backend(backend) is backend

    def test_resolve_runner_accepts_names_and_instances(self):
        assert resolve_runner(None).backend.name == "serial"
        assert resolve_runner("serial").backend.name == "serial"
        runner = ParallelRunner(2)
        assert resolve_runner(runner) is runner
        with pytest.raises(TypeError):
            resolve_runner(3.14)

    def test_resolve_runner_scales_named_backends_to_cpus(self):
        from repro.runner.backends.base import default_workers

        # Naming a parallel backend means "use it": one worker per CPU, not
        # the inline-serial shortcut a workers=1 pool would take.
        assert resolve_runner("process").workers == default_workers()

    def test_runner_scope_closes_only_what_it_built(self):
        closed = []

        class Probe(SerialBackend):
            def close(self):
                closed.append(True)

        owned = ParallelRunner(backend=Probe())
        with runner_scope(owned) as resolved:
            assert resolved is owned
        assert not closed  # caller-provided runner stays open

        with runner_scope(None) as resolved:
            # Built here; closed (a no-op) on exit.
            assert resolved.backend.name == "serial"

    def test_drivers_close_runners_built_from_backend_names(self, monkeypatch):
        """runner=\"socket\" in a driver must not leak coordinator daemons."""
        from repro.runner import parallel

        closes = []
        original_close = ParallelRunner.close

        def counting_close(self):
            closes.append(self)
            original_close(self)

        monkeypatch.setattr(parallel.ParallelRunner, "close", counting_close)
        fig2_bler_vs_harq.run("smoke", seed=7, runner="serial")
        assert len(closes) == 1


class TestStreamScheduler:
    def test_collect_in_order_reorders_stream(self):
        stream = [(2, "c"), (0, "a"), (1, "b")]
        assert ParallelRunner.collect_in_order(stream, 3) == ["a", "b", "c"]

    def test_collect_in_order_detects_missing_results(self):
        with pytest.raises(RuntimeError, match=r"\[1\]"):
            ParallelRunner.collect_in_order([(0, "a")], 2)

    @pytest.mark.parametrize("backend_name", ["serial", "process"])
    def test_map_order_and_values(self, backend_name):
        runner = _runner_for(backend_name)
        with runner:
            assert runner.map(_square, list(range(10))) == [i * i for i in range(10)]

    def test_process_backend_streams_out_of_order_safely(self):
        backend = ProcessPoolBackend(workers=2)
        pairs = list(backend.submit(_square, [3, 1, 4, 1, 5]))
        assert sorted(index for index, _ in pairs) == [0, 1, 2, 3, 4]
        assert dict(pairs) == {0: 9, 1: 1, 2: 16, 3: 1, 4: 25}


class TestBackendConformance:
    """serial == process(2) == socket(2 local workers), byte for byte."""

    @pytest.fixture(scope="class")
    def reference_fig6(self, micro_scale):
        return fig6_throughput_vs_defects.run(micro_scale, seed=2012).to_json()

    @pytest.mark.parametrize("backend_name", ["process", "socket"])
    def test_fig6_bit_identical(self, micro_scale, reference_fig6, backend_name):
        with _runner_for(backend_name) as runner:
            table = fig6_throughput_vs_defects.run(micro_scale, seed=2012, runner=runner)
        assert table.to_json() == reference_fig6

    @pytest.mark.parametrize("backend_name", ["process", "socket"])
    def test_fig2_bit_identical(self, micro_scale, backend_name):
        serial = fig2_bler_vs_harq.run(micro_scale, seed=3, snr_regimes_db=(12.0, 24.0))
        with _runner_for(backend_name) as runner:
            parallel = fig2_bler_vs_harq.run(
                micro_scale, seed=3, snr_regimes_db=(12.0, 24.0), runner=runner
            )
        assert serial.to_json() == parallel.to_json()

    @pytest.mark.parametrize("backend_name", ["process", "socket"])
    def test_adaptive_fig6_stopping_points_identical(
        self, micro_scale, backend_name
    ):
        serial = fig6_throughput_vs_defects.run(micro_scale, seed=2012, adaptive=True)
        with _runner_for(backend_name) as runner:
            parallel = fig6_throughput_vs_defects.run(
                micro_scale, seed=2012, adaptive=True, runner=runner
            )
        # Identical stopping points imply identical simulated dies, hence
        # identical tables — the strongest equality there is.
        assert serial.to_json() == parallel.to_json()

    @pytest.mark.parametrize("backend_name", ["process", "socket"])
    def test_adaptive_proportion_stop_identical(self, backend_name):
        def run(runner):
            return runner.run_adaptive_rounds(
                lambda num_items, _trials: [_identity_task(num_items + i) for i in range(4)],
                lambda active, chunks: active.map(_one_error_in_ten, chunks),
                lambda counts: counts,
                confidence=0.95,
                relative_error=0.5,
                min_trials=20,
                budget=required_packets_for_bler(1e-3, 0.5),
            )

        serial = run(ParallelRunner.serial())
        with _runner_for(backend_name) as runner:
            other = run(runner)
        assert serial == other  # counts, num_items and stop reason


# --------------------------------------------------------------------------- #
# socket backend failure semantics
# --------------------------------------------------------------------------- #
def _start_worker_thread(address, **kwargs):
    """Run a worker daemon in-process (it only talks over the socket)."""
    kwargs.setdefault("connect_retries", 40)
    kwargs.setdefault("retry_delay", 0.05)
    kwargs.setdefault("once", True)
    kwargs.setdefault("log", lambda _line: None)
    thread = threading.Thread(
        target=run_worker, args=(address,), kwargs=kwargs, daemon=True
    )
    thread.start()
    return thread


class TestSocketFailureSemantics:
    def test_requeue_after_worker_death(self):
        """A task taken by a dying worker is redelivered (at-least-once)."""
        backend = SocketDistributedBackend(local_workers=0, worker_timeout=60.0)
        try:
            host, port = parse_address(backend.address)
            took_task = threading.Event()

            def flaky_worker():
                sock = socket.create_connection((host, port))
                send_message(sock, ("hello", 0))
                message = recv_message(sock)  # take exactly one task ...
                assert message[0] == "task"
                took_task.set()
                sock.close()  # ... and die without answering it

            flaky = threading.Thread(target=flaky_worker, daemon=True)
            flaky.start()

            def healthy_after_flaky():
                assert took_task.wait(timeout=30.0)
                run_worker(
                    f"{host}:{port}",
                    connect_retries=40,
                    retry_delay=0.05,
                    once=True,
                    log=lambda _line: None,
                )

            healthy = threading.Thread(target=healthy_after_flaky, daemon=True)
            healthy.start()

            runner = ParallelRunner(2, backend=backend)
            assert runner.map(_square, [2, 3, 4]) == [4, 9, 16]
            flaky.join(timeout=10.0)
        finally:
            backend.close()

    def test_duplicate_and_stale_deliveries_are_discarded(self):
        """Results are de-duplicated by (round, index); stale rounds dropped."""
        backend = SocketDistributedBackend(local_workers=0, worker_timeout=60.0)
        try:
            host, port = parse_address(backend.address)

            def duplicating_worker():
                sock = socket.create_connection((host, port))
                send_message(sock, ("hello", 0))
                while True:
                    message = recv_message(sock)
                    if message[0] == "shutdown":
                        sock.close()
                        return
                    _kind, round_id, index, fn, task = message
                    value = fn(task)
                    send_message(sock, ("result", 999_999, index, "stale-round"))
                    send_message(sock, ("result", round_id, index, value))
                    send_message(sock, ("result", round_id, index, "duplicate"))

            thread = threading.Thread(target=duplicating_worker, daemon=True)
            thread.start()

            runner = ParallelRunner(2, backend=backend)
            assert runner.map(_square, [5, 6]) == [25, 36]
            # A second round must not be confused by round-1 leftovers.
            assert runner.map(_square, [7]) == [49]
        finally:
            backend.close()

    def test_remote_error_propagates_and_round_is_invalidated(self):
        backend = SocketDistributedBackend(local_workers=0, worker_timeout=60.0)
        try:
            _start_worker_thread(backend.address)
            runner = ParallelRunner(2, backend=backend)
            with pytest.raises(RuntimeError, match="deliberate task failure"):
                runner.map(_boom, [1, 2, 3])
            # The failed round's leftovers (queued tasks, late replies) must
            # not disturb the next round.
            assert runner.map(_square, [3]) == [9]
        finally:
            backend.close()

    def test_worker_gives_up_without_coordinator(self):
        # Grab a port nothing listens on.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code = run_worker(
            f"127.0.0.1:{port}",
            connect_retries=2,
            retry_delay=0.01,
            log=lambda _line: None,
        )
        assert code == 1

    def test_no_worker_timeout_raises(self):
        backend = SocketDistributedBackend(local_workers=0, worker_timeout=0.5)
        try:
            runner = ParallelRunner(2, backend=backend)
            started = time.monotonic()
            with pytest.raises(RuntimeError, match="no worker connected"):
                runner.map(_square, [1, 2])
            assert time.monotonic() - started < 30.0
        finally:
            backend.close()

    def test_closed_backend_rejects_new_rounds(self):
        backend = SocketDistributedBackend(local_workers=0)
        backend.close()
        with pytest.raises(RuntimeError, match="closed"):
            list(backend.submit(_square, [1]))

    def test_overlapping_rounds_are_refused(self):
        """Consuming a second round while one is live would strand it — raise."""
        backend = SocketDistributedBackend(local_workers=0, worker_timeout=60.0)
        try:
            _start_worker_thread(backend.address)
            first = backend.submit(_square, [1, 2])
            assert next(first) is not None  # round 1 partially collected
            with pytest.raises(RuntimeError, match="one round at a time"):
                next(backend.submit(_square, [3]))
            first.close()
            # A closed (abandoned) stream releases the slot for a new round.
            assert ParallelRunner.collect_in_order(
                backend.submit(_square, [4]), 1
            ) == [16]
        finally:
            backend.close()

    def test_never_started_stream_cannot_wedge_the_backend(self):
        """A round is all-lazy: dropping an unconsumed stream holds no state."""
        backend = SocketDistributedBackend(local_workers=0, worker_timeout=60.0)
        try:
            _start_worker_thread(backend.address)
            abandoned = backend.submit(_square, [1, 2, 3])  # never iterated
            assert ParallelRunner.collect_in_order(
                backend.submit(_square, [5]), 1
            ) == [25]
            del abandoned
        finally:
            backend.close()

    def test_task_timeout_requeues_hung_worker_task(self):
        """A worker that heartbeats but never answers its task is preempted.

        The per-task deadline must requeue the item to a healthy worker long
        before the coordinator-level worker_timeout would give up — that is
        the whole point of the hardening.
        """
        backend = SocketDistributedBackend(
            local_workers=0, worker_timeout=120.0, task_timeout=1.0
        )
        try:
            host, port = parse_address(backend.address)
            took_task = threading.Event()

            def hung_worker():
                sock = socket.create_connection((host, port))
                send_message(sock, ("hello", 0, {"heartbeat_interval": 0.1}))
                message = recv_message(sock)  # take a task ...
                assert message[0] == "task"
                took_task.set()
                # ... and never answer it, but keep heartbeating so only the
                # per-task deadline (not heartbeat staleness) can fire.
                try:
                    while True:
                        send_message(sock, ("heartbeat",))
                        time.sleep(0.1)
                except OSError:
                    pass  # coordinator retired us

            threading.Thread(target=hung_worker, daemon=True).start()

            def healthy_after_hang():
                assert took_task.wait(timeout=30.0)
                run_worker(
                    f"{host}:{port}",
                    connect_retries=40,
                    retry_delay=0.05,
                    once=True,
                    log=lambda _line: None,
                )

            threading.Thread(target=healthy_after_hang, daemon=True).start()
            runner = ParallelRunner(2, backend=backend)
            started = time.monotonic()
            assert runner.map(_square, [2, 3, 4]) == [4, 9, 16]
            # Far below worker_timeout: the requeue was preemptive.
            assert time.monotonic() - started < 60.0
        finally:
            backend.close()

    def test_heartbeat_staleness_requeues_silent_worker_task(self):
        """A worker that advertised heartbeats and went silent is retired."""
        backend = SocketDistributedBackend(
            local_workers=0, worker_timeout=120.0, heartbeat_timeout=0.5
        )
        try:
            host, port = parse_address(backend.address)
            took_task = threading.Event()

            def silent_worker():
                sock = socket.create_connection((host, port))
                send_message(sock, ("hello", 0, {"heartbeat_interval": 0.1}))
                message = recv_message(sock)  # take a task ...
                assert message[0] == "task"
                took_task.set()
                time.sleep(60.0)  # ... then fall silent without closing

            threading.Thread(target=silent_worker, daemon=True).start()

            def healthy_after_silence():
                assert took_task.wait(timeout=30.0)
                run_worker(
                    f"{host}:{port}",
                    connect_retries=40,
                    retry_delay=0.05,
                    once=True,
                    log=lambda _line: None,
                )

            threading.Thread(target=healthy_after_silence, daemon=True).start()
            runner = ParallelRunner(2, backend=backend)
            started = time.monotonic()
            assert runner.map(_square, [5, 6]) == [25, 36]
            assert time.monotonic() - started < 60.0
        finally:
            backend.close()

    def test_legacy_worker_without_heartbeats_is_not_preempted(self):
        """No heartbeat advertisement -> no staleness enforcement.

        A legacy daemon (bare ``("hello", pid)``) that computes a slow task
        must not be killed by the heartbeat detector mid-compute.
        """
        backend = SocketDistributedBackend(
            local_workers=0, worker_timeout=120.0, heartbeat_timeout=0.2
        )
        try:
            host, port = parse_address(backend.address)

            def legacy_worker():
                sock = socket.create_connection((host, port))
                send_message(sock, ("hello", 0))  # legacy hello, no info dict
                while True:
                    message = recv_message(sock)
                    if message[0] == "shutdown":
                        sock.close()
                        return
                    _kind, round_id, index, fn, task = message
                    time.sleep(0.8)  # slower than heartbeat_timeout
                    send_message(sock, ("result", round_id, index, fn(task)))

            threading.Thread(target=legacy_worker, daemon=True).start()
            runner = ParallelRunner(1, backend=backend)
            assert runner.map(_square, [7]) == [49]
        finally:
            backend.close()

    def test_worker_heartbeats_flow_while_computing(self):
        """The daemon's beats come from a background thread, not the task loop."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()[:2]
        heartbeats = []

        def coordinator():
            conn, _peer = listener.accept()
            hello = recv_message(conn)
            assert hello[0] == "hello"
            assert hello[2]["heartbeat_interval"] == pytest.approx(0.05)
            send_message(conn, ("task", 1, 0, _slow_square, 3))
            while True:
                message = recv_message(conn)
                if message[0] == "heartbeat":
                    heartbeats.append(time.monotonic())
                    continue
                assert message == ("result", 1, 0, 9)
                break
            send_message(conn, ("shutdown",))

        thread = threading.Thread(target=coordinator, daemon=True)
        thread.start()
        code = run_worker(
            f"{host}:{port}",
            connect_retries=5,
            retry_delay=0.05,
            heartbeat_interval=0.05,
            log=lambda _line: None,
        )
        thread.join(timeout=10.0)
        listener.close()
        assert code == 0
        # The 0.5 s task must have been bridged by several 0.05 s beats.
        assert len(heartbeats) >= 3

    def test_backend_rejects_bad_hardening_options(self):
        with pytest.raises(ValueError, match="task_timeout"):
            SocketDistributedBackend(local_workers=0, task_timeout=0.0)
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            SocketDistributedBackend(local_workers=0, heartbeat_timeout=-1.0)

    def test_worker_exits_nonzero_on_unpicklable_frame(self):
        """A frame the worker cannot decode is fatal, not an uncaught crash."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()[:2]
        logs = []

        def poison_coordinator():
            conn, _peer = listener.accept()
            recv_message(conn)  # the worker's hello
            # A syntactically valid frame whose pickle cannot resolve here.
            import pickle
            import struct

            payload = pickle.dumps(("task", 1, 0, _square, None))
            # Same length, so the pickle stays structurally valid but the
            # module reference no longer resolves on the worker.
            assert b"test_execution_backends" in payload
            payload = payload.replace(b"test_execution_backends", b"no_such_module_xyzzy123")
            conn.sendall(struct.pack(">Q", len(payload)) + payload)
            conn.recv(1)  # hold the socket open until the worker reacts

        thread = threading.Thread(target=poison_coordinator, daemon=True)
        thread.start()
        code = run_worker(
            f"{host}:{port}",
            connect_retries=5,
            retry_delay=0.05,
            log=logs.append,
        )
        listener.close()
        assert code == 1
        assert any("fatal protocol error" in line for line in logs)
