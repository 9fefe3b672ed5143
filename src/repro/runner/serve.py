"""Read-only JSON query front end over the result cache and point store.

``repro serve --cache DIR --bind HOST:PORT`` exposes the precomputed sweep
surfaces — whole cached runs and the per-die records of individual grid
points under ``DIR/points`` — as a tiny stdlib :mod:`http.server` API:

==================================  =======================================
``GET /``                           API index (route listing + counts)
``GET /healthz``                    liveness probe (always 200 when serving)
``GET /metrics``                    process telemetry snapshot (JSON; append
                                    ``?format=prometheus`` for text exposition)
``GET /experiments``                experiment -> list of identity digests
``GET /experiments/<name>``         one experiment's digests
``GET /experiments/<name>/<digest>``  the cached run payload, verbatim
``GET /points``                     list of stored point digests
``GET /points/<digest>``            one stored point record, verbatim
==================================  =======================================

Request paths are percent-decoded segment by segment *before* validation
(standards-compliant clients URL-encode freely), and a decoded segment that
then fails validation — ``..``, a separator smuggled through ``%2f``, an
empty string — is still a 404: decoding never widens what reaches the
filesystem.

The server is **read-only** (everything but GET is 405) and never computes:
it serves exactly the canonical bytes the coordinators stored, so a payload
fetched over HTTP is byte-identical to the cache file (and, for default-
scale figure runs, to the golden snapshot).  Unknown names, malformed
digests and traversal attempts all produce JSON 404s — path segments are
validated before they ever reach the filesystem.

Errors are structured: every non-200 body is ``{"error": ..., "reason":
...}`` with a machine-readable reason.  A digest that *was* stored but is no
longer servable — its entry was quarantined as corrupt, or written by an
incompatible format version — answers ``410 Gone`` (reason
``quarantined-corrupt`` / ``stale-format`` / ``unreadable``) so clients can
distinguish "never existed" from "lost, recompute it"; unexpected handler
failures answer a JSON 500 instead of a bare connection drop.

Like the wire protocol, this binds loopback by default; serve a routable
address only where every client is trusted (there is no authentication).
"""

from __future__ import annotations

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Tuple
from urllib.parse import parse_qs, unquote

from repro.runner import telemetry
from repro.runner.backends.wire import format_address
from repro.runner.cache import POINTS_DIRNAME, JsonStore, ResultCache, canonical_text
from repro.runner.point_store import PointStore


def _count(store: JsonStore) -> int:
    return sum(1 for _ in store.iter_keys())


class ReproQueryServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` carrying the cache/store handles."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        *,
        cache: ResultCache,
        point_store: PointStore,
    ) -> None:
        self.cache = cache
        self.point_store = point_store
        super().__init__(address, _QueryHandler)

    @property
    def address(self) -> str:
        """The bound ``HOST:PORT`` (ephemeral port resolved)."""
        host, port = self.server_address[:2]
        return format_address(host, port)


class _QueryHandler(BaseHTTPRequestHandler):
    """Routes one request against the server's cache and point store."""

    server: ReproQueryServer
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - http.server naming convention
        path, _, query = self.path.partition("?")
        # Split on the *encoded* path first, then percent-decode each
        # segment: a separator smuggled in as %2f decodes inside one
        # segment, where the store's key check rejects it — decoding never
        # turns one segment into two, so traversal rejection is intact.
        segments = [
            unquote(segment) for segment in path.rstrip("/").split("/") if segment
        ]
        try:
            if not segments:
                return self._respond(200, self._index())
            if segments[0] == "healthz":
                return self._healthz(segments[1:])
            if segments[0] == "metrics":
                return self._metrics(segments[1:], query)
            if segments[0] == "experiments":
                return self._experiments(segments[1:])
            if segments[0] == "points":
                return self._points(segments[1:])
        except ValueError:
            pass  # malformed segment: fall through to the 404
        except Exception as exc:  # structured 500 instead of a bare drop
            return self._respond(
                500,
                {"error": f"{type(exc).__name__}: {exc}", "reason": "internal-error"},
            )
        self._respond(
            404, {"error": f"no such resource: {self.path}", "reason": "not-found"}
        )

    def _index(self) -> Dict[str, Any]:
        return {
            "service": "repro-query",
            "routes": [
                "/healthz",
                "/metrics",
                "/experiments",
                "/experiments/<name>",
                "/experiments/<name>/<digest>",
                "/points",
                "/points/<digest>",
            ],
            "experiments": self.server.cache.entries(),
            "points": _count(self.server.point_store),
        }

    def _healthz(self, rest) -> None:
        """Liveness/readiness probe: cheap, allocation-free counts only."""
        if rest:
            raise ValueError("/".join(rest))
        self._respond(
            200,
            {
                "status": "ok",
                "experiments": _count(self.server.cache),
                "points": _count(self.server.point_store),
            },
        )

    def _metrics(self, rest, query: str) -> None:
        """The process telemetry snapshot (JSON, or Prometheus text).

        Serves this *process's* registry — when the server runs inside a
        coordinator process (tests, embedded use) the sweep's own dispatch
        and store counters show up here; a standalone ``repro serve`` shows
        the serving-side counters (requests, cache hits from payload reads).
        """
        if rest:
            raise ValueError("/".join(rest))
        wants = parse_qs(query).get("format", ["json"])[-1].lower()
        if wants == "prometheus":
            body = telemetry.registry().render_prometheus().encode("utf-8")
            return self._respond_bytes(
                200, body, "text/plain; version=0.0.4; charset=utf-8"
            )
        self._respond(200, telemetry.registry().snapshot())

    def _experiments(self, rest) -> None:
        cache = self.server.cache
        if not rest:
            listing: Dict[str, list] = {}
            for (experiment, digest), _path in cache.iter_keys():
                listing.setdefault(experiment, []).append(digest)
            return self._respond(200, listing)
        if len(rest) == 1:
            digests = [
                digest
                for (experiment, digest), _path in cache.iter_keys()
                if experiment == rest[0]
            ]
            if not digests:
                return self._respond(
                    404,
                    {"error": f"no cached runs for {rest[0]!r}", "reason": "not-found"},
                )
            return self._respond(200, {rest[0]: digests})
        if len(rest) == 2:
            # The store's key check rejects malformed and reserved names
            # (ValueError, a 404) before they reach the filesystem.
            payload, status = cache.get(rest[0], rest[1])
            if payload is None:
                return self._respond_lost(f"cached run {rest[0]}/{rest[1]}", status)
            return self._respond(200, payload)
        raise ValueError("/".join(rest))

    def _points(self, rest) -> None:
        store = self.server.point_store
        if not rest:
            return self._respond(
                200, {"points": [digest for (digest,), _path in store.iter_keys()]}
            )
        if len(rest) == 1:
            payload, status = store.get(rest[0])
            if payload is None:
                return self._respond_lost(f"stored point {rest[0]}", status)
            return self._respond(200, payload)
        raise ValueError("/".join(rest))

    def _respond_lost(self, what: str, status: str) -> None:
        """404 for never-stored entries, 410 for stored-but-unservable ones.

        410 tells a client "this existed; recompute it" — its entry was
        quarantined as corrupt, written by an incompatible format version,
        or is unreadable on disk.
        """
        if status == "missing":
            return self._respond(
                404, {"error": f"no {what}", "reason": "not-found"}
            )
        reason = "quarantined-corrupt" if status == "corrupt" else status
        self._respond(410, {"error": f"{what} is no longer servable", "reason": reason})

    # ------------------------------------------------------------------ #
    def _respond(self, status: int, payload: Any) -> None:
        self._respond_bytes(
            status, canonical_text(payload).encode("utf-8"), "application/json"
        )

    def _respond_bytes(self, status: int, body: bytes, content_type: str) -> None:
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except (ConnectionError, OSError):
            # The client went away mid-response (BrokenPipeError and kin).
            # Returning quietly here is the fix, not a shrug: letting this
            # propagate would land in do_GET's generic handler, which would
            # then try to write a 500 into the same dead socket and dump a
            # traceback for a condition that is entirely the client's.
            telemetry.inc("serve_client_disconnects_total")
            self.close_connection = True
            return
        telemetry.inc("serve_requests_total", status=status)

    def do_POST(self) -> None:  # noqa: N802
        self._method_not_allowed()

    def do_PUT(self) -> None:  # noqa: N802
        self._method_not_allowed()

    def do_DELETE(self) -> None:  # noqa: N802
        self._method_not_allowed()

    def _method_not_allowed(self) -> None:
        self._respond(405, {"error": "read-only service: GET only"})

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # quiet by default; `repro serve` prints its own status line


def build_server(
    cache_dir: "Path | str", *, bind: str = "127.0.0.1:8000"
) -> ReproQueryServer:
    """Construct (and bind) the query server without starting it.

    Split from :func:`serve_forever_from_cli` so tests can bind an ephemeral
    port, drive requests and shut the server down deterministically.
    """
    from repro.runner.backends.wire import parse_address

    host, port = parse_address(bind)
    return ReproQueryServer(
        (host, port),
        cache=ResultCache(cache_dir),
        point_store=PointStore(Path(cache_dir) / POINTS_DIRNAME),
    )


def serve_forever_from_cli(
    cache_dir: "Path | str",
    *,
    bind: str = "127.0.0.1:8000",
    log=print,
) -> int:
    """The blocking body of ``repro serve`` (returns a process exit code)."""
    server = build_server(cache_dir, bind=bind)
    log(
        f"repro serve: cache={cache_dir} listening on http://{server.address}/ "
        "(read-only; Ctrl-C stops)"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0
