"""Sweep-service layer: capacity dispatch, point store, serve, and fixes.

Covers the distributed-path hardening introduced together:

* torn cache writes — atomic stores, quarantine of corrupt entries;
* address parsing — IPv6 bracket syntax round-trips;
* worker exit codes — 0 is reserved for a coordinator-acknowledged
  shutdown, a lost coordinator is distinct from never having connected;
* mixed-fleet liveness — local-daemon death no longer aborts a run that
  has (or had) external workers;
* capacity-weighted dispatch — a worker advertising N slots holds up to N
  unanswered items, dies safely holding several, and never changes results;
* the content-addressed point store — exact per-die round-trips, golden
  parity, and zero computed points on a warm store;
* the read-only query front end — cached payloads byte-identical over HTTP.
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import fig6_throughput_vs_defects
from repro.experiments.scales import SCALES
from repro.harq.metrics import HarqStatistics
from repro.runner.backends import (
    SocketDistributedBackend,
    WORKER_EXIT_FAILURE,
    WORKER_EXIT_LOST_COORDINATOR,
    WORKER_EXIT_OK,
    run_worker,
)
from repro.runner.backends.wire import (
    format_address,
    parse_address,
    recv_message,
    send_message,
)
from repro.runner.cache import (
    POINTS_DIRNAME,
    QUARANTINE_DIRNAME,
    QuarantineStore,
    ResultCache,
    atomic_write_text,
)
from repro.runner.cli import experiment_payload
from repro.runner.parallel import ParallelRunner
from repro.runner.point_store import (
    POINT_STORE_FORMAT_VERSION,
    PointStore,
    statistics_from_json,
    statistics_to_json,
)
from repro.runner.serve import build_server
from repro.runner.tasks import FaultMapOutcome

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def micro_scale():
    """A sub-smoke scale so end-to-end dispatch tests stay fast."""
    return SCALES["smoke"].with_updates(
        payload_bits=56,
        num_packets=4,
        num_fault_maps=2,
        turbo_iterations=3,
        snr_points_db=(16.0, 26.0),
        defect_rates=(0.0, 0.10),
    )


# Module-level task function so the socket backend can pickle it by reference.
def _square(value):
    return value * value


# --------------------------------------------------------------------------- #
# address parsing (IPv6 bracket syntax)
# --------------------------------------------------------------------------- #
class TestAddressRoundTrip:
    def test_ipv4_and_hostname_parse(self):
        assert parse_address("127.0.0.1:5555") == ("127.0.0.1", 5555)
        assert parse_address("coordinator-host:0") == ("coordinator-host", 0)

    def test_ipv6_brackets_are_stripped(self):
        # socket.bind/create_connection want the bare literal, not "[::1]".
        assert parse_address("[::1]:8000") == ("::1", 8000)
        assert parse_address("[fe80::1]:5555") == ("fe80::1", 5555)

    def test_format_brackets_ipv6_only(self):
        assert format_address("127.0.0.1", 80) == "127.0.0.1:80"
        assert format_address("::1", 8000) == "[::1]:8000"

    @pytest.mark.parametrize("host", ["127.0.0.1", "::1", "fe80::1%eth0", "a.b.c"])
    def test_round_trip(self, host):
        assert parse_address(format_address(host, 4242)) == (host, 4242)

    @pytest.mark.parametrize(
        "bad",
        [
            "no-port-here",  # no separator at all
            "::1:8000",  # unbracketed IPv6 would mis-split the port
            "[]:8000",  # empty literal
            "host:http",  # non-numeric port
            ":8000",  # empty host
        ],
    )
    def test_malformed_addresses_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)

    def test_coordinator_binds_ipv6_loopback(self):
        try:
            backend = SocketDistributedBackend(local_workers=0, bind="[::1]:0")
            address = backend.address
        except OSError:
            pytest.skip("IPv6 loopback unavailable in this environment")
        try:
            assert address.startswith("[::1]:")
            host, port = parse_address(address)
            assert host == "::1" and port > 0
        finally:
            backend.close()


# --------------------------------------------------------------------------- #
# cache atomicity and quarantine
# --------------------------------------------------------------------------- #
class TestCacheAtomicity:
    def test_failed_replace_keeps_old_content_and_cleans_tmp(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "entry.json"
        target.write_text("old payload")

        def refuse(_src, _dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.runner.cache.os.replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_text(target, "new payload")
        # A reader can never have observed a torn file: the target still
        # holds the previous bytes and the temp file is gone.
        assert target.read_text() == "old payload"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["entry.json"]


# --------------------------------------------------------------------------- #
# worker exit codes
# --------------------------------------------------------------------------- #
def _one_shot_coordinator(script):
    """Accept one worker connection and run *script(conn)* against it."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    host, port = listener.getsockname()[:2]

    def serve():
        conn, _peer = listener.accept()
        try:
            script(conn)
        finally:
            conn.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return f"{host}:{port}", listener, thread


class TestWorkerExitCodes:
    def test_codes_are_distinct_and_zero_means_clean(self):
        codes = {WORKER_EXIT_OK, WORKER_EXIT_FAILURE, WORKER_EXIT_LOST_COORDINATOR}
        assert len(codes) == 3
        assert WORKER_EXIT_OK == 0

    def test_shutdown_frame_exits_zero(self):
        def script(conn):
            assert recv_message(conn)[0] == "hello"
            send_message(conn, ("shutdown",))

        address, listener, thread = _one_shot_coordinator(script)
        code = run_worker(
            address, connect_retries=5, retry_delay=0.05, log=lambda _line: None
        )
        thread.join(timeout=10.0)
        listener.close()
        assert code == WORKER_EXIT_OK

    def test_lost_coordinator_is_not_a_clean_exit(self):
        """once-mode + dropped connection must NOT masquerade as success.

        A supervisor keying restart policy off the exit status needs to tell
        "the run finished" (0) apart from "the coordinator vanished" — the
        latter exits 2 even though the daemon served items first.
        """

        def script(conn):
            assert recv_message(conn)[0] == "hello"
            message = recv_message(conn)  # one heartbeat or nothing of note
            assert message[0] in ("heartbeat",)
            # ... then vanish without a shutdown frame.

        address, listener, thread = _one_shot_coordinator(script)
        code = run_worker(
            address,
            connect_retries=5,
            retry_delay=0.05,
            once=True,
            heartbeat_interval=0.05,
            log=lambda _line: None,
        )
        thread.join(timeout=10.0)
        listener.close()
        assert code == WORKER_EXIT_LOST_COORDINATOR


# --------------------------------------------------------------------------- #
# mixed-fleet liveness
# --------------------------------------------------------------------------- #
class _DeadProc:
    """A local worker subprocess that has already exited."""

    pid = 999_999_999

    @staticmethod
    def poll():
        return 1


class TestMixedFleetLiveness:
    def test_local_fleet_death_aborts_a_purely_local_run(self):
        backend = SocketDistributedBackend(local_workers=0, worker_timeout=60.0)
        try:
            backend._ensure_started()
            backend._local_procs = [_DeadProc()]
            with pytest.raises(RuntimeError, match="local worker daemons exited"):
                backend._check_liveness()
        finally:
            backend._local_procs = []
            backend.close()

    def test_external_worker_suppresses_the_local_death_abort(self):
        """Local helpers dying must not strand a healthy external fleet.

        Once any external worker has connected, its reconnect window is
        worker_timeout — the run may only fail on that timeout, never
        immediately on local-daemon death.
        """
        backend = SocketDistributedBackend(local_workers=0, worker_timeout=60.0)
        try:
            backend._ensure_started()
            backend._local_procs = [_DeadProc()]
            backend._external_seen = True
            backend._check_liveness()  # must not raise
        finally:
            backend._local_procs = []
            backend.close()

    def test_timeout_message_carries_local_diagnostics(self):
        backend = SocketDistributedBackend(local_workers=0, worker_timeout=60.0)
        try:
            backend._ensure_started()
            backend._local_procs = [_DeadProc()]
            backend._external_seen = True
            backend._last_activity = time.monotonic() - 61.0
            with pytest.raises(RuntimeError) as excinfo:
                backend._check_liveness()
            assert "no worker connected" in str(excinfo.value)
            assert "local worker daemons also exited" in str(excinfo.value)
        finally:
            backend._local_procs = []
            backend.close()

    def test_external_fleet_can_finish_after_local_death(self, micro_scale):
        """End to end: dead "local" procs + a live external worker completes."""
        backend = SocketDistributedBackend(local_workers=0, worker_timeout=60.0)
        try:
            address = backend.address
            backend._local_procs = [_DeadProc()]
            thread = threading.Thread(
                target=run_worker,
                args=(address,),
                kwargs=dict(
                    connect_retries=40,
                    retry_delay=0.05,
                    once=True,
                    log=lambda _line: None,
                ),
                daemon=True,
            )
            thread.start()
            runner = ParallelRunner(2, backend=backend)
            assert runner.map(_square, [2, 3, 4]) == [4, 9, 16]
        finally:
            backend._local_procs = []
            backend.close()


# --------------------------------------------------------------------------- #
# capacity-weighted dispatch
# --------------------------------------------------------------------------- #
class TestCapacityWeightedDispatch:
    def test_multislot_worker_holds_multiple_items_in_flight(self):
        """A slots=2 hello earns two unanswered task frames (pipelining)."""
        backend = SocketDistributedBackend(local_workers=0, worker_timeout=60.0)
        try:
            host, port = parse_address(backend.address)

            def worker():
                sock = socket.create_connection((host, port))
                sock.settimeout(30.0)
                send_message(sock, ("hello", 0, {"slots": 2}))
                # Both frames must arrive BEFORE any reply is sent — with a
                # single credit the second recv would block until timeout.
                first = recv_message(sock)
                second = recv_message(sock)
                assert first[0] == second[0] == "task"
                for message in (first, second):
                    _kind, round_id, index, fn, task = message
                    send_message(sock, ("result", round_id, index, fn(task)))
                while True:
                    message = recv_message(sock)
                    if message[0] == "shutdown":
                        sock.close()
                        return
                    _kind, round_id, index, fn, task = message
                    send_message(sock, ("result", round_id, index, fn(task)))

            threading.Thread(target=worker, daemon=True).start()
            runner = ParallelRunner(2, backend=backend)
            assert runner.map(_square, [2, 3, 4]) == [4, 9, 16]
        finally:
            backend.close()

    def test_single_slot_worker_is_capped_at_one_item(self):
        """A legacy (or slots=1) worker never sees a second unanswered task."""
        backend = SocketDistributedBackend(local_workers=0, worker_timeout=60.0)
        try:
            host, port = parse_address(backend.address)
            saw_premature_task = threading.Event()

            def worker():
                sock = socket.create_connection((host, port))
                send_message(sock, ("hello", 0))  # legacy hello: one credit
                sock.settimeout(30.0)
                first = recv_message(sock)
                assert first[0] == "task"
                sock.settimeout(1.0)
                try:
                    recv_message(sock)
                    saw_premature_task.set()  # a second frame leaked through
                except socket.timeout:
                    pass
                sock.settimeout(30.0)
                _kind, round_id, index, fn, task = first
                send_message(sock, ("result", round_id, index, fn(task)))
                while True:
                    message = recv_message(sock)
                    if message[0] == "shutdown":
                        sock.close()
                        return
                    _kind, round_id, index, fn, task = message
                    send_message(sock, ("result", round_id, index, fn(task)))

            threading.Thread(target=worker, daemon=True).start()
            runner = ParallelRunner(2, backend=backend)
            assert runner.map(_square, [5, 6]) == [25, 36]
            assert not saw_premature_task.is_set()
        finally:
            backend.close()

    def test_multislot_worker_death_requeues_every_outstanding_item(self):
        """Dying while holding several items redelivers all of them."""
        backend = SocketDistributedBackend(local_workers=0, worker_timeout=60.0)
        try:
            host, port = parse_address(backend.address)
            took_both = threading.Event()

            def greedy_then_dead():
                sock = socket.create_connection((host, port))
                sock.settimeout(30.0)
                send_message(sock, ("hello", 0, {"slots": 2}))
                assert recv_message(sock)[0] == "task"
                assert recv_message(sock)[0] == "task"
                took_both.set()
                sock.close()  # die holding two unanswered items

            threading.Thread(target=greedy_then_dead, daemon=True).start()

            def healthy_after_death():
                assert took_both.wait(timeout=30.0)
                run_worker(
                    f"{host}:{port}",
                    connect_retries=40,
                    retry_delay=0.05,
                    once=True,
                    log=lambda _line: None,
                )

            threading.Thread(target=healthy_after_death, daemon=True).start()
            runner = ParallelRunner(2, backend=backend)
            assert runner.map(_square, [2, 3, 4]) == [4, 9, 16]
        finally:
            backend.close()

    def test_fig6_bit_identical_under_multislot_execution(self, micro_scale):
        """Capacity weighting is topology: a slots=4 daemon changes nothing."""
        serial = fig6_throughput_vs_defects.run(micro_scale, seed=2012).to_json()
        backend = SocketDistributedBackend(local_workers=0, worker_timeout=60.0)
        try:
            address = backend.address
            thread = threading.Thread(
                target=run_worker,
                args=(address,),
                kwargs=dict(
                    connect_retries=40,
                    retry_delay=0.05,
                    once=True,
                    slots=4,
                    log=lambda _line: None,
                ),
                daemon=True,
            )
            thread.start()
            runner = ParallelRunner(2, backend=backend)
            table = fig6_throughput_vs_defects.run(
                micro_scale, seed=2012, runner=runner
            )
            assert table.to_json() == serial
        finally:
            backend.close()

    def test_slots_zero_autosizes_and_negative_rejected(self):
        with pytest.raises(ValueError, match="slots"):
            run_worker("127.0.0.1:1", slots=-1, log=lambda _line: None)
        with pytest.raises(ValueError, match="worker_slots"):
            SocketDistributedBackend(local_workers=0, worker_slots=-1)


# --------------------------------------------------------------------------- #
# point store
# --------------------------------------------------------------------------- #
def _sample_statistics() -> HarqStatistics:
    return HarqStatistics(
        num_packets=8,
        num_successful=7,
        total_transmissions=13,
        info_bits_per_packet=120,
        attempts_per_transmission=np.array([8, 3, 2], dtype=np.int64),
        failures_per_transmission=np.array([4, 1, 1], dtype=np.int64),
    )


def _assert_statistics_equal(left: HarqStatistics, right: HarqStatistics) -> None:
    assert left.num_packets == right.num_packets
    assert left.num_successful == right.num_successful
    assert left.total_transmissions == right.total_transmissions
    assert left.info_bits_per_packet == right.info_bits_per_packet
    assert np.array_equal(left.attempts_per_transmission, right.attempts_per_transmission)
    assert np.array_equal(left.failures_per_transmission, right.failures_per_transmission)
    assert right.attempts_per_transmission.dtype == np.int64
    assert right.failures_per_transmission.dtype == np.int64


class TestPointStore:
    def test_statistics_round_trip_is_exact(self):
        stats = _sample_statistics()
        # Through real JSON text, not just the dict, to catch coercions.
        rebuilt = statistics_from_json(json.loads(json.dumps(statistics_to_json(stats))))
        _assert_statistics_equal(stats, rebuilt)

    def test_die_outcomes_round_trip_exactly(self, tmp_path):
        dies = [
            FaultMapOutcome(statistics=_sample_statistics(), num_faults=3, fallible_cells=300),
            FaultMapOutcome(statistics=_sample_statistics(), num_faults=3, fallible_cells=300),
        ]
        store = PointStore(tmp_path)
        identity = {"kind": "fault", "probe": 1}
        digest = store.digest(identity)
        store.store(digest, identity, dies)
        loaded = store.load(digest, "fault", len(dies))
        assert loaded is not None
        for die, rebuilt in zip(dies, loaded):
            assert (rebuilt.num_faults, rebuilt.fallible_cells) == (3, 300)
            _assert_statistics_equal(die.statistics, rebuilt.statistics)
        assert store.writes == 1 and store.hits == 1


def _stored(store):
    """Number of entries in a store."""
    return sum(1 for _ in store.iter_keys())


@pytest.fixture(scope="module")
def fig6_smoke_store(tmp_path_factory):
    """One cold fig6 smoke run shared by parity, warm-store and serve tests."""
    root = tmp_path_factory.mktemp("sweep-service")
    cache = ResultCache(root / "cache")
    store = PointStore(root / "cache" / POINTS_DIRNAME)
    payload = experiment_payload("fig6", "smoke", 2012, cache=cache, point_store=store)
    return root, store, payload


class TestPointStoreEndToEnd:
    def test_cold_store_run_matches_golden_bytes(self, fig6_smoke_store):
        _root, store, payload = fig6_smoke_store
        assert payload == (GOLDEN_DIR / "fig6.json").read_text()
        assert store.writes == _stored(store) > 0
        assert store.hits == 0

    def test_warm_store_computes_zero_points(self, fig6_smoke_store):
        """A second coordinator sharing the store schedules zero known work."""
        root, _cold, payload = fig6_smoke_store
        warm = PointStore(root / "cache" / POINTS_DIRNAME)
        again = experiment_payload(
            "fig6", "smoke", 2012, cache=None, point_store=warm
        )
        assert again == payload  # byte-identical to the cold run
        assert warm.writes == 0
        assert warm.hits == _stored(warm) > 0
        assert "computed 0 point(s)" in warm.summary()

    def test_store_never_enters_the_run_identity(self, fig6_smoke_store):
        root, _store, payload = fig6_smoke_store
        bare = experiment_payload("fig6", "smoke", 2012, cache=None)
        assert bare == payload  # same digest, same bytes, store or not
        identity = json.loads(payload)["identity"]
        assert "point_store" not in json.dumps(identity)


# --------------------------------------------------------------------------- #
# the read-only query front end
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def query_server(fig6_smoke_store):
    root, _store, _payload = fig6_smoke_store
    server = build_server(root / "cache", bind="127.0.0.1:0")
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield server
    server.shutdown()
    server.server_close()


def _get(server, path):
    """GET a route; return (status, decoded JSON body) even for errors."""
    try:
        with urllib.request.urlopen(f"http://{server.address}{path}") as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


class TestQueryFrontEnd:
    def test_index_lists_routes_and_counts(self, query_server, fig6_smoke_store):
        _root, store, _payload = fig6_smoke_store
        status, index = _get(query_server, "/")
        assert status == 200
        assert index["service"] == "repro-query"
        assert index["experiments"] == {"fig6": 1}
        assert index["points"] == _stored(store)

    def test_experiment_payload_is_byte_identical_over_http(
        self, query_server, fig6_smoke_store
    ):
        _root, _store, payload = fig6_smoke_store
        status, listing = _get(query_server, "/experiments")
        assert status == 200 and list(listing) == ["fig6"]
        (digest,) = listing["fig6"]
        status, served = _get(query_server, f"/experiments/fig6/{digest}")
        assert status == 200
        assert json.dumps(served, sort_keys=True, indent=2) + "\n" == payload

    def test_point_payloads_served(self, query_server, fig6_smoke_store):
        _root, store, _payload = fig6_smoke_store
        status, body = _get(query_server, "/points")
        assert status == 200
        assert body["points"] == [digest for (digest,), _path in store.iter_keys()]
        status, point = _get(query_server, f"/points/{body['points'][0]}")
        assert status == 200
        assert point["point_store_format"] == POINT_STORE_FORMAT_VERSION
        assert point["kind"] == "fault"
        assert len(point["outcomes"]) == SCALES["smoke"].num_fault_maps

    @pytest.mark.parametrize(
        "path",
        [
            "/nope",
            "/experiments/unknown-experiment",
            "/experiments/fig6/0000000000deadbeef00",
            "/experiments/fig6/extra/deep",
            "/experiments/..%2f..%2fetc",
            "/points/not-a-digest",
            "/points/" + "a" * 70,
        ],
    )
    def test_unknown_and_malformed_paths_are_json_404s(self, query_server, path):
        status, body = _get(query_server, path)
        assert status == 404
        assert "error" in body

    def test_non_get_methods_are_405(self, query_server):
        request = urllib.request.Request(
            f"http://{query_server.address}/experiments", data=b"{}", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 405

    def test_server_over_a_cache_without_points(self, tmp_path):
        server = build_server(tmp_path / "cache", bind="127.0.0.1:0")
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            status, index = _get(server, "/")
            assert status == 200 and index["points"] == 0
            assert _get(server, "/points") == (200, {"points": []})
        finally:
            server.shutdown()
            server.server_close()

    def test_lost_entries_are_410_and_non_run_records_404(self, tmp_path):
        """410 only for entries that were stored; quarantine records are not runs."""
        cache = ResultCache(tmp_path / "cache")
        text = (GOLDEN_DIR / "fig6.json").read_text()
        cache.store("fig6", "aa" * 10, text)
        cache.store("fig6", "bb" * 10, text.replace('"cache_format": 1', '"cache_format": 0'))
        cache.path_for("fig6", "cc" * 10).write_text(text[:100])
        record = QuarantineStore(tmp_path / "cache" / QUARANTINE_DIRNAME).record(
            "simulate_fault_map_batch", {"key": [0]}, error="boom", attempts=2
        )
        server = build_server(tmp_path / "cache", bind="127.0.0.1:0")
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            assert _get(server, f"/experiments/fig6/{'aa' * 10}")[0] == 200
            assert _get(server, f"/experiments/fig6/{'bb' * 10}") == (
                410,
                {"error": f"cached run fig6/{'bb' * 10} is no longer servable",
                 "reason": "stale-format"},
            )
            with pytest.warns(RuntimeWarning, match="quarantined"):
                status, body = _get(server, f"/experiments/fig6/{'cc' * 10}")
            assert (status, body["reason"]) == (410, "quarantined-corrupt")
            status, body = _get(server, f"/experiments/{QUARANTINE_DIRNAME}/{record.stem}")
            assert (status, body["reason"]) == (404, "not-found")
            assert _get(server, "/experiments")[1] == {"fig6": ["aa" * 10, "bb" * 10]}
        finally:
            server.shutdown()
            server.server_close()

    def test_serve_cli_wiring(self):
        from repro.runner.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.cache == Path(".repro-cache")
        assert not hasattr(args, "point_store")
        assert parse_address(args.bind) == ("127.0.0.1", 8000)
