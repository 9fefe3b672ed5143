"""Process telemetry: registry semantics, zero effect on results, surfacing.

The telemetry layer extends the determinism contract: a registry records
*how* a sweep executed without ever touching *what* it computed.  Pinned
here:

* **Registry semantics** — counters are monotonic and exact under
  concurrent writers, histograms stay bounded, the event log drops oldest
  entries, snapshots round-trip through ``--metrics-out`` files.
* **Pure topology** — a golden smoke run with a busy registry is
  byte-identical to the golden snapshot; telemetry never enters a run
  identity.
* **Surfacing** — after a socket-backed sweep over a shared point store,
  ``GET /metrics`` reports non-zero dispatch and store-hit counters (JSON
  and Prometheus text), and chaos injections show up as
  ``chaos_injected_total`` counters.
"""

import json
import threading
from pathlib import Path

import pytest

from repro.runner import chaos, telemetry
from repro.runner.cache import POINTS_DIRNAME, ResultCache, atomic_write_text
from repro.runner.chaos import ChaosInjected, FaultPlan
from repro.runner.cli import experiment_payload, main
from repro.runner.parallel import ParallelRunner
from repro.runner.point_store import PointStore
from repro.runner.serve import build_server
from repro.runner.telemetry import (
    EVENT_LOG_LIMIT,
    METRICS_FORMAT_VERSION,
    MetricsRegistry,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def _total(registry, name, **labels):
    """A counter summed over the label sets matching *labels*, as scraped."""
    return telemetry.snapshot_counter_total(registry.snapshot(), name, **labels)


@pytest.fixture()
def fresh_registry():
    """Opt-in isolation from counters left by earlier tests/modules.

    Deliberately *not* autouse: the sweep-fixture tests below assert on the
    counters the (module-scoped) instrumented smoke run left in the live
    process registry, exactly as ``GET /metrics`` would see them.
    """
    telemetry.reset()
    yield


# --------------------------------------------------------------------------- #
@pytest.mark.usefixtures("fresh_registry")
class TestRegistrySemantics:
    def test_counters_gauges_histograms_round_trip(self):
        registry = MetricsRegistry()
        registry.inc("hits_total", store="cache")
        registry.inc("hits_total", 2, store="cache")
        registry.inc("hits_total", store="point-store")
        registry.set_gauge("workers", 3)
        registry.set_gauge("workers", 2)  # last write wins
        registry.observe("round_seconds", 0.003)
        registry.observe("round_seconds", 1e9)  # lands in the +Inf slot

        assert _total(registry, "hits_total", store="cache") == 3
        assert _total(registry, "hits_total") == 4
        assert _total(registry, "never_fired_total") == 0

        snapshot = registry.snapshot()
        assert snapshot["metrics_format"] == METRICS_FORMAT_VERSION
        assert {"name": "workers", "labels": {}, "value": 2.0} in snapshot["gauges"]
        [histogram] = snapshot["histograms"]
        assert histogram["count"] == 2
        assert histogram["buckets"][-1]["le"] == "+Inf"
        assert histogram["buckets"][-1]["count"] == 1  # the 1e9 sample
        assert sum(b["count"] for b in histogram["buckets"]) == 2

    def test_counters_are_monotonic(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="cannot decrease"):
            registry.inc("hits_total", -1)

    def test_event_log_is_bounded(self):
        registry = MetricsRegistry(event_limit=4)
        for i in range(10):
            registry.event("tick", ordinal=i)
        events = registry.snapshot()["events"]
        assert len(events) == 4
        assert [e["ordinal"] for e in events] == [6, 7, 8, 9]  # oldest dropped

    def test_concurrent_writers_lose_nothing(self):
        """N threads hammering one counter/histogram produce exact totals."""
        registry = MetricsRegistry()
        threads, per_thread = 8, 2000

        def writer(worker: int) -> None:
            for _ in range(per_thread):
                registry.inc("writes_total", worker=worker % 2)
                registry.observe("latency_seconds", 0.01)
            registry.event("writer-done", worker=worker)

        pool = [threading.Thread(target=writer, args=(i,)) for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        assert _total(registry, "writes_total") == threads * per_thread
        assert _total(registry, "writes_total", worker=0) == (
            threads // 2 * per_thread
        )
        [histogram] = registry.snapshot()["histograms"]
        assert histogram["count"] == threads * per_thread
        assert len(registry.snapshot()["events"]) == threads <= EVENT_LOG_LIMIT

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.inc("hits_total", 3, store="cache")
        registry.set_gauge("workers", 2)
        registry.observe("round_seconds", 0.002)
        text = registry.render_prometheus()
        assert "# TYPE hits_total counter" in text
        assert 'hits_total{store="cache"} 3' in text
        assert "# TYPE workers gauge" in text
        assert "# TYPE round_seconds histogram" in text
        # Buckets are cumulative and capped by +Inf == _count.
        assert 'round_seconds_bucket{le="+Inf"} 1' in text
        assert "round_seconds_count 1" in text

    def test_snapshot_file_round_trip(self, tmp_path):
        telemetry.inc("demo_total", 5, kind="x")
        path = telemetry.write_snapshot(tmp_path / "deep" / "metrics.json")
        snapshot = telemetry.load_snapshot(path)
        assert telemetry.snapshot_counter_total(snapshot, "demo_total") == 5
        assert telemetry.snapshot_counter_total(snapshot, "demo_total", kind="x") == 5
        assert telemetry.snapshot_counter_total(snapshot, "demo_total", kind="y") == 0

        (tmp_path / "foreign.json").write_text('{"metrics_format": 99}')
        with pytest.raises(ValueError, match="metrics_format"):
            telemetry.load_snapshot(tmp_path / "foreign.json")

    def test_summarize_snapshot(self):
        assert telemetry.summarize_snapshot({"counters": []}) == "no metrics recorded"
        telemetry.inc("demo_total", 2, kind="x")
        telemetry.observe("round_seconds", 0.5)
        telemetry.event("demo-event", detail="hello")
        text = telemetry.summarize_snapshot(telemetry.registry().snapshot())
        assert "demo_total{kind=x} = 2" in text
        assert "round_seconds: 1 sample(s)" in text
        assert "demo-event: detail=hello" in text


# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def instrumented_smoke(tmp_path_factory):
    """One cold fig6 smoke sweep over the socket backend, then a warm rerun.

    The first coordinator populates a shared point store (dispatch and
    store-write counters fire); the second coordinator has a cold result
    cache but the warm shared store, so every grid point is a store hit and
    no simulation work is scheduled — the two-coordinator smoke the
    acceptance criteria describe.  Returns the store root and both payloads.
    """
    telemetry.reset()
    root = tmp_path_factory.mktemp("telemetry-smoke")
    store = PointStore(root / "cache" / POINTS_DIRNAME)
    with ParallelRunner(2, backend="socket") as runner:
        cold = experiment_payload(
            "fig6", "smoke", 2012,
            runner=runner, cache=ResultCache(root / "cache"), point_store=store,
        )
    warm = experiment_payload(
        "fig6", "smoke", 2012,
        runner=ParallelRunner.serial(),
        cache=ResultCache(root / "cache-second-coordinator"),
        point_store=store,
    )
    return root, cold, warm


class TestTelemetryIsPureTopology:
    def test_golden_smoke_is_byte_identical_with_telemetry_busy(
        self, instrumented_smoke
    ):
        """A busy registry changes no payload byte: both runs == the golden."""
        _root, cold, warm = instrumented_smoke
        golden = (GOLDEN_DIR / "fig6.json").read_text()
        assert _total(telemetry.registry(), "runner_tasks_total") > 0
        assert cold == golden
        assert warm == golden

    def test_sweep_counters_recorded(self, instrumented_smoke):
        registry = telemetry.registry()
        # The cold run dispatched real work over the socket backend ...
        assert _total(registry, "backend_dispatch_total") > 0
        assert _total(registry, "backend_worker_connects_total") >= 2
        assert _total(registry, "backend_tasks_total", backend="socket") > 0
        assert _total(registry, "store_writes_total", store="point-store") > 0
        # ... and the warm rerun answered every point from the shared store.
        assert _total(registry, "store_hits_total", store="point-store") > 0
        [histogram] = [
            h for h in registry.snapshot()["histograms"]
            if h["name"] == "runner_round_seconds"
        ]
        assert histogram["count"] > 0


# --------------------------------------------------------------------------- #
def _get(server, path):
    import http.client

    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


@pytest.fixture()
def metrics_server(instrumented_smoke):
    root, _cold, _warm = instrumented_smoke
    server = build_server(root / "cache", bind="127.0.0.1:0")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


class TestMetricsEndpoint:
    def test_metrics_json_reports_dispatch_and_store_hits(self, metrics_server):
        status, body = _get(metrics_server, "/metrics")
        assert status == 200
        snapshot = json.loads(body)
        assert snapshot["metrics_format"] == METRICS_FORMAT_VERSION
        assert telemetry.snapshot_counter_total(snapshot, "backend_dispatch_total") > 0
        assert (
            telemetry.snapshot_counter_total(
                snapshot, "store_hits_total", store="point-store"
            )
            > 0
        )

    def test_metrics_prometheus_exposition(self, metrics_server):
        status, body = _get(metrics_server, "/metrics?format=prometheus")
        assert status == 200
        text = body.decode("utf-8")
        assert text.startswith("# TYPE")
        assert "backend_dispatch_total{" in text
        assert "runner_round_seconds_bucket{" in text

    def test_metrics_rejects_extra_segments(self, metrics_server):
        status, _body = _get(metrics_server, "/metrics/extra")
        assert status == 404

    def test_percent_encoded_paths_are_decoded_before_routing(self, metrics_server):
        """Standards-compliant clients may URL-encode freely (the unquote fix)."""
        status, body = _get(metrics_server, "/%68ealthz")  # %68 == 'h'
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        status, body = _get(metrics_server, "/experiments/fig%36")  # %36 == '6'
        assert status == 200
        assert "fig6" in json.loads(body)
        # Decoding never widens what reaches the filesystem: a separator
        # smuggled through %2f decodes inside one segment and stays a 404.
        status, _body = _get(metrics_server, "/experiments/..%2f..%2fetc")
        assert status == 404


@pytest.mark.usefixtures("fresh_registry")
class TestClientDisconnect:
    def test_client_disconnect_mid_response_is_quiet(self):
        """BrokenPipeError on the response path never becomes a 500/traceback."""
        from repro.runner.serve import _QueryHandler

        class _DeadSocketFile:
            def write(self, _data):
                raise BrokenPipeError("client went away")

            def flush(self):
                pass

        handler = object.__new__(_QueryHandler)
        handler.requestline = "GET /healthz HTTP/1.1"
        handler.request_version = "HTTP/1.1"
        handler.client_address = ("127.0.0.1", 0)
        handler.close_connection = False
        handler.wfile = _DeadSocketFile()
        handler._respond(200, {"status": "ok"})  # must not raise
        assert handler.close_connection is True
        registry = telemetry.registry()
        assert _total(registry, "serve_client_disconnects_total") == 1
        assert _total(registry, "serve_requests_total") == 0


# --------------------------------------------------------------------------- #
@pytest.mark.usefixtures("fresh_registry")
class TestChaosCounters:
    def test_tear_write_injection_is_counted(self, tmp_path):
        chaos.activate("seed=7;tear-write=1")
        try:
            atomic_write_text(tmp_path / "entry.json", '{"cache_format": 1}')
            atomic_write_text(tmp_path / "other.json", '{"cache_format": 1}')
        finally:
            chaos.activate(None)
        registry = telemetry.registry()
        assert (
            _total(registry, "chaos_injected_total", directive="tear-write") == 1
        )
        # The first write was torn mid-payload; the second is intact.
        with pytest.raises(ValueError):
            json.loads((tmp_path / "entry.json").read_text())
        assert json.loads((tmp_path / "other.json").read_text())

    def test_wire_injections_are_counted(self):
        plan = FaultPlan.parse("seed=1;drop-send=1;drop-recv=1")

        class _Sock:
            def close(self):
                pass

        with pytest.raises(ChaosInjected):
            plan.filter_send(_Sock(), ("task", 0, 0, None, None), b"frame")
        with pytest.raises(ChaosInjected):
            plan.filter_recv(_Sock(), ("result", 0, 0, None))
        registry = telemetry.registry()
        assert (
            _total(registry, "chaos_injected_total", directive="drop-send") == 1
        )
        assert (
            _total(registry, "chaos_injected_total", directive="drop-recv") == 1
        )
        kinds = [e["kind"] for e in registry.snapshot()["events"]]
        assert kinds.count("chaos-injected") == 2


# --------------------------------------------------------------------------- #
@pytest.mark.usefixtures("fresh_registry")
class TestMetricsCli:
    def test_metrics_out_then_metrics_summary(self, tmp_path, capsys):
        snapshot_path = tmp_path / "metrics.json"
        code = main(
            [
                "run",
                "fig2",
                "--scale",
                "smoke",
                "--out",
                str(tmp_path / "fig2.json"),
                "--cache-dir",
                str(tmp_path / "cache"),
                "--metrics-out",
                str(snapshot_path),
            ]
        )
        assert code == 0
        snapshot = telemetry.load_snapshot(snapshot_path)
        assert telemetry.snapshot_counter_total(snapshot, "runner_tasks_total") > 0
        assert (
            telemetry.snapshot_counter_total(
                snapshot, "store_writes_total", store="cache"
            )
            > 0
        )
        capsys.readouterr()

        assert main(["metrics", str(snapshot_path)]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "runner_tasks_total" in out

        assert main(["metrics", str(snapshot_path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["metrics_format"] == (
            METRICS_FORMAT_VERSION
        )

    def test_metrics_command_rejects_non_snapshot(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"metrics_format": 99}')
        assert main(["metrics", str(bogus)]) == 2
        assert "metrics_format" in capsys.readouterr().err
        assert main(["metrics", str(tmp_path / "missing.json")]) == 2
        assert "no metrics snapshot" in capsys.readouterr().err
