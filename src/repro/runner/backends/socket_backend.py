"""Socket-distributed execution: a TCP coordinator plus worker daemons.

The coordinator binds a TCP port, hands pickled work items to whichever
worker daemons (``python -m repro worker --connect HOST:PORT``) are
connected, and streams results back to the scheduler.  Delivery is
**at-least-once**: a work item whose worker connection dies is requeued for
another worker, and the per-round de-duplication in :meth:`submit` discards
late or duplicate deliveries by ``(round, index)`` — re-execution is safe
because every work item derives its random stream from its sweep
coordinates, so two executions of the same item produce identical bytes.

Topology therefore never leaks into results: a socket run is bit-identical
to a serial run of the same plan, which is exactly why the backend is kept
out of the run identity.

For single-machine use (CI, the conformance suite, quick sanity checks) the
coordinator can spawn ``local_workers`` daemons itself; for real
distribution, bind a routable address and start workers on other machines —
but note the wire format is pickle, so only trusted networks apply (see
:mod:`repro.runner.backends.wire`).
"""

from __future__ import annotations

import os
import queue
import random
import select
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.runner import chaos, telemetry
from repro.runner.backends.base import (
    ExecutionBackend,
    TaskQuarantined,
    default_workers,
    validate_task_error_policy,
)
from repro.runner.backends.wire import (
    format_address,
    parse_address,
    recv_message,
    send_message,
)

#: How long dispatch/collection loops sleep between poll iterations (s).
_POLL_INTERVAL = 0.1

#: How often a draining-capable worker wakes from its socket wait to check
#: whether a SIGTERM drain was requested (s).
_DRAIN_POLL = 0.2

#: Ceiling on one reconnect backoff sleep (s): ``retry_delay`` doubles per
#: attempt up to this cap, then a deterministic 0.5x-1.5x jitter is applied.
RECONNECT_BACKOFF_CAP = 5.0

#: Worker-daemon exit codes (``python -m repro worker``).  Supervisors key
#: restart policy off these: a lost coordinator is worth retrying, a daemon
#: that never connected or hit a fatal protocol error usually is not.
WORKER_EXIT_OK = 0  # received ("shutdown",): the run finished cleanly
WORKER_EXIT_FAILURE = 1  # never connected, or a fatal protocol error
WORKER_EXIT_LOST_COORDINATOR = 2  # connected once, then lost the coordinator


class _WorkerConnection:
    """Coordinator-side state of one connected worker daemon."""

    def __init__(self, sock: socket.socket, peer: str) -> None:
        self.sock = sock
        self.peer = peer
        self.alive = True
        #: Serialises frame writes (dispatcher vs. shutdown broadcast).
        self.send_lock = threading.Lock()
        #: Guards :attr:`outstanding`.
        self.lock = threading.Lock()
        #: Tasks sent but not yet answered: ``(round, index) -> (item, sent_at)``.
        self.outstanding: Dict[Tuple[int, int], Tuple[Tuple, float]] = {}
        #: In-flight capacity: the handshake deposits one credit per slot the
        #: worker advertised, the dispatcher acquires a credit before every
        #: send and the read loop releases one per reply — so an 8-slot
        #: worker holds up to 8 unanswered items while a 1-slot worker holds
        #: 1, and work stays pulled, never pushed.
        self.credits = threading.Semaphore(0)
        #: Slot count the worker advertised in its hello (legacy hellos -> 1).
        self.slots = 1
        #: Whether this connection came from a daemon this coordinator
        #: spawned itself (matched by hello pid) — drives liveness policy.
        self.is_local = False
        #: Monotonic time of the last frame received from this worker
        #: (results, errors and heartbeats all count as liveness).
        self.last_frame = time.monotonic()
        #: Heartbeat cadence the worker advertised in its hello, or ``None``
        #: for workers that do not heartbeat (staleness is then not enforced,
        #: keeping long-running tasks on legacy daemons safe).
        self.heartbeat_interval: Optional[float] = None

    def mark_dead(self) -> None:
        self.alive = False
        self.credits.release()  # wake a dispatcher blocked on the credit


class SocketDistributedBackend(ExecutionBackend):
    """Execute work items on TCP-connected worker daemons.

    Parameters
    ----------
    workers:
        Default number of locally spawned worker daemons when
        *local_workers* is not given (``0`` means one per CPU, matching the
        process backend's convention).
    bind:
        ``HOST:PORT`` the coordinator listens on.  Port ``0`` picks an
        ephemeral port (read it back from :attr:`address`).  The default
        binds loopback; bind a routable host only on trusted networks.
    local_workers:
        Worker daemons to spawn on this machine once the coordinator is up
        (``None`` -> *workers*).  ``0`` spawns nothing and waits for
        external workers to connect.
    worker_timeout:
        Seconds :meth:`submit` tolerates having no connected worker (while
        work is pending) before raising.
    task_timeout:
        Optional per-task deadline in seconds: a dispatched work item whose
        reply has not arrived within this window marks its worker dead and
        is preemptively requeued to another worker (at-least-once
        semantics make the re-execution safe).  ``None`` disables the
        deadline — the right default when task durations are unbounded.
    heartbeat_timeout:
        Seconds without *any* frame (result or heartbeat) from a worker
        that advertised heartbeating before it is declared hung and its
        outstanding tasks requeued.  ``None`` derives the window from the
        worker's advertised cadence (several missed beats); an explicit
        value is floored at two of the worker's advertised beat intervals
        (a window shorter than the cadence would retire healthy workers);
        workers that never advertise heartbeats are exempt.
    worker_slots:
        ``--slots`` value for locally spawned daemons: how many work items
        each daemon executes concurrently (and therefore how many credits
        it holds with the coordinator).  ``1`` keeps the one-at-a-time
        daemon; ``0`` lets each daemon size itself to its own CPU count.
        External workers advertise their own slot count in their hello and
        are unaffected by this option.
    on_task_error:
        Policy for a work item whose *task code* raised on a worker (as
        opposed to the worker dying, which requeues indefinitely):
        ``"fail"`` (default) aborts the round with the remote traceback
        once the retry budget is spent; ``"quarantine"`` yields a
        :class:`TaskQuarantined` sentinel for that index and lets the rest
        of the round complete.
    task_attempts:
        Retry budget for task-raised errors: the item is redispatched —
        preferring workers that have not failed it yet — until this many
        attempts have raised, then the ``on_task_error`` policy applies.
        ``1`` (default) applies the policy on the first raise.
    """

    name = "socket"

    #: Missed-beat multiple used when *heartbeat_timeout* is derived.
    HEARTBEAT_TIMEOUT_BEATS = 4.0
    #: Floor on the derived heartbeat timeout (absorbs scheduling jitter).
    MIN_HEARTBEAT_TIMEOUT = 5.0

    def __init__(
        self,
        workers: int = 1,
        *,
        bind: str = "127.0.0.1:0",
        local_workers: Optional[int] = None,
        worker_timeout: float = 120.0,
        task_timeout: Optional[float] = None,
        heartbeat_timeout: Optional[float] = None,
        worker_slots: int = 1,
        on_task_error: str = "fail",
        task_attempts: int = 1,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be non-negative, got {workers}")
        if local_workers is None:
            # workers=0 means "auto" everywhere else; for local spawning that
            # is one daemon per CPU.
            local_workers = workers if workers > 0 else default_workers()
        if local_workers < 0:
            raise ValueError(f"local_workers must be non-negative, got {local_workers}")
        if worker_timeout <= 0:
            raise ValueError(f"worker_timeout must be positive, got {worker_timeout}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {task_timeout}")
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be positive, got {heartbeat_timeout}"
            )
        if worker_slots < 0:
            raise ValueError(f"worker_slots must be non-negative, got {worker_slots}")
        if task_attempts < 1:
            raise ValueError(f"task_attempts must be positive, got {task_attempts}")
        self.on_task_error = validate_task_error_policy(on_task_error)
        self.task_attempts = int(task_attempts)
        self.bind_host, self.bind_port = parse_address(bind)
        self.local_workers = int(local_workers)
        self.worker_slots = int(worker_slots)
        self.worker_timeout = float(worker_timeout)
        self.task_timeout = None if task_timeout is None else float(task_timeout)
        self.heartbeat_timeout = (
            None if heartbeat_timeout is None else float(heartbeat_timeout)
        )

        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._connections: List[_WorkerConnection] = []
        self._connections_lock = threading.Lock()
        self._task_queue: "queue.Queue[Tuple]" = queue.Queue()
        self._results: "queue.Queue[Tuple[str, int, int, Any]]" = queue.Queue()
        self._round = 0
        self._collecting = False
        self._closing = False
        #: Per-item task-error bookkeeping for the round being collected:
        #: ``(round, index) -> {"attempts": int, "peers": [str, ...]}``.
        #: Owned by the collector thread; cleared when the round ends.
        self._task_error_state: Dict[Tuple[int, int], Dict[str, Any]] = {}
        #: ``(round, index) -> peers that already failed it`` — read by the
        #: dispatcher threads to steer a retried item toward a worker that
        #: has not raised on it yet (the "K *distinct* workers" budget).
        self._failed_peers: Dict[Tuple[int, int], "frozenset[str]"] = {}
        self._last_activity = time.monotonic()
        self._local_procs: List[subprocess.Popen] = []
        self._stderr_dir: Optional[tempfile.TemporaryDirectory] = None
        #: Set once any non-local worker has connected: from then on,
        #: local-daemon death alone must not abort a run — the external
        #: fleet may reconnect within ``worker_timeout``.
        self._external_seen = False

    # ------------------------------------------------------------------ #
    @property
    def address(self) -> str:
        """The coordinator's bound ``HOST:PORT`` (starts it if needed)."""
        self._ensure_started()
        assert self._listener is not None
        host, port = self._listener.getsockname()[:2]
        return format_address(host, port)

    def connected_workers(self) -> int:
        """Number of currently connected worker daemons."""
        with self._connections_lock:
            return sum(1 for conn in self._connections if conn.alive)

    # ------------------------------------------------------------------ #
    def submit(
        self, fn: Callable[[Any], Any], tasks: Sequence[Any]
    ) -> Iterator[Tuple[int, Any]]:
        tasks = list(tasks)
        if not tasks:
            return iter(())
        telemetry.inc("backend_tasks_total", len(tasks), backend=self.name)
        self._ensure_started()
        return self._run_round(fn, tasks)

    def _run_round(
        self, fn: Callable[[Any], Any], tasks: List[Any]
    ) -> Iterator[Tuple[int, Any]]:
        """Enqueue one round and yield its de-duplicated results.

        Everything — the one-round-at-a-time check, the round id bump, the
        enqueue — happens lazily when the stream is first consumed, so a
        stream that is created but never started holds no backend state
        (dropping it cannot wedge later rounds).
        """
        if self._collecting:
            # Starting a new round abandons the previous one (its tasks are
            # dropped at dispatch, its replies at collection), which would
            # leave the old stream waiting forever — refuse instead.
            raise RuntimeError(
                "a previous round is still being collected; exhaust or close "
                "its stream before submitting another (one round at a time)"
            )
        self._collecting = True
        try:
            self._round += 1
            round_id = self._round
            self._last_activity = time.monotonic()
            for index, task in enumerate(tasks):
                self._task_queue.put((round_id, index, fn, task))
            done: set = set()
            while len(done) < len(tasks):
                try:
                    kind, reply_round, index, value = self._results.get(
                        timeout=_POLL_INTERVAL
                    )
                except queue.Empty:
                    self._check_liveness()
                    continue
                self._last_activity = time.monotonic()
                if reply_round != round_id or index in done:
                    # stale round or duplicate delivery (at-least-once)
                    telemetry.inc("backend_duplicate_replies_total")
                    continue
                if kind == "error":
                    # The *task code* raised over there — a different animal
                    # from the worker dying (which requeues silently and
                    # indefinitely).  Spend the retry budget on other
                    # workers first; then apply the on_task_error policy.
                    tb, item, peer = value
                    key = (round_id, index)
                    state = self._task_error_state.setdefault(
                        key, {"attempts": 0, "peers": []}
                    )
                    state["attempts"] += 1
                    if peer and peer not in state["peers"]:
                        state["peers"].append(peer)
                    if item is not None and state["attempts"] < self.task_attempts:
                        self._failed_peers[key] = frozenset(state["peers"])
                        self._task_queue.put(item)
                        continue
                    if self.on_task_error == "quarantine":
                        done.add(index)
                        yield index, TaskQuarantined(
                            index=index,
                            error=tb,
                            attempts=state["attempts"],
                            workers=tuple(state["peers"]),
                        )
                        continue
                    raise RuntimeError(
                        f"work item {index} failed on a remote worker "
                        f"(attempt {state['attempts']} of {self.task_attempts}):\n{tb}"
                    )
                done.add(index)
                yield index, value
        finally:
            # Invalidate whatever is still queued or in flight from this
            # round — dispatchers drop stale tasks, collectors stale replies
            # — so an errored or abandoned round does not keep burning
            # workers on items nobody will read.
            self._round += 1
            self._collecting = False
            self._task_error_state.clear()
            self._failed_peers.clear()

    def _check_liveness(self) -> None:
        """Raise when pending work can no longer make progress."""
        if self.connected_workers() > 0:
            return
        all_local_dead = self._local_procs and all(
            p.poll() is not None for p in self._local_procs
        )
        # Fail fast on local-daemon death only when local daemons supplied
        # the whole fleet.  Once an external worker has connected, its
        # reconnect window is worker_timeout — aborting the run because the
        # *local* helpers died would strand a healthy external fleet.
        if all_local_dead and not self._external_seen:
            raise RuntimeError(
                "all local worker daemons exited while work was pending:\n"
                + self._local_worker_diagnostics()
            )
        if time.monotonic() - self._last_activity > self.worker_timeout:
            message = (
                f"no worker connected to {self.address} for "
                f"{self.worker_timeout:.0f}s with work pending"
            )
            if all_local_dead:
                message += (
                    "\nlocal worker daemons also exited:\n"
                    + self._local_worker_diagnostics()
                )
            raise RuntimeError(message)

    def _local_worker_diagnostics(self) -> str:
        lines = []
        for proc_index, proc in enumerate(self._local_procs):
            tail = ""
            if self._stderr_dir is not None:
                log = Path(self._stderr_dir.name) / f"worker-{proc_index}.log"
                if log.exists():
                    tail = log.read_text()[-2000:]
            lines.append(f"worker {proc_index}: exit={proc.poll()}\n{tail}")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    def _ensure_started(self) -> None:
        if self._closing:
            raise RuntimeError("backend is closed")
        if self._listener is not None:
            return
        family = socket.AF_INET6 if ":" in self.bind_host else socket.AF_INET
        listener = socket.socket(family, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.bind_host, self.bind_port))
        listener.listen(64)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-coordinator-accept", daemon=True
        )
        self._accept_thread.start()
        if self.local_workers:
            self._spawn_local_workers()

    def _spawn_local_workers(self) -> None:
        self._stderr_dir = tempfile.TemporaryDirectory(prefix="repro-workers-")
        env = os.environ.copy()
        # Local daemons must unpickle whatever module-level task functions
        # the parent can reference (fork-based pool workers inherit sys.path
        # wholesale), so replicate the parent's import environment.
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        for worker_index in range(self.local_workers):
            log_path = Path(self._stderr_dir.name) / f"worker-{worker_index}.log"
            with open(log_path, "wb") as log:
                proc = subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "repro",
                        "worker",
                        "--connect",
                        self.address,
                        "--connect-retries",
                        "40",
                        "--retry-delay",
                        "0.25",
                        "--slots",
                        str(self.worker_slots),
                    ],
                    env=env,
                    stdout=log,
                    stderr=subprocess.STDOUT,
                )
            self._local_procs.append(proc)

    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._closing:
            try:
                sock, peer = self._listener.accept()
            except OSError:
                return  # listener closed
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _WorkerConnection(sock, f"{peer[0]}:{peer[1]}")
            threading.Thread(
                target=self._handshake, args=(conn,), daemon=True,
                name=f"repro-worker-{conn.peer}",
            ).start()

    def _handshake(self, conn: _WorkerConnection) -> None:
        try:
            hello = recv_message(conn.sock)
        except (ConnectionError, OSError, ValueError, EOFError):
            conn.sock.close()
            return
        if not hello or hello[0] != "hello":
            conn.sock.close()
            return
        # ("hello", pid) is the legacy form; ("hello", pid, info) advertises
        # capabilities — the heartbeat cadence (opting the worker into
        # staleness enforcement) and its slot count (how many work items it
        # executes concurrently, i.e. how many credits it holds).
        if len(hello) >= 3 and isinstance(hello[2], dict):
            interval = hello[2].get("heartbeat_interval")
            if interval:
                conn.heartbeat_interval = float(interval)
            slots = hello[2].get("slots")
            if slots:
                conn.slots = max(1, int(slots))
        local_pids = {proc.pid for proc in self._local_procs}
        conn.is_local = len(hello) >= 2 and hello[1] in local_pids
        if not conn.is_local:
            self._external_seen = True
        conn.last_frame = time.monotonic()
        with self._connections_lock:
            self._connections.append(conn)
        self._last_activity = time.monotonic()
        telemetry.inc("backend_worker_connects_total", worker=conn.peer)
        telemetry.set_gauge("backend_connected_workers", self.connected_workers())
        # Fund the credit pool: one credit per advertised slot.  The
        # dispatcher debits a credit before each send and the read loop
        # refunds one per reply, capping in-flight items at the slot count.
        for _ in range(conn.slots):
            conn.credits.release()
        threading.Thread(
            target=self._read_loop, args=(conn,), daemon=True,
            name=f"repro-reader-{conn.peer}",
        ).start()
        self._dispatch_loop(conn)

    def _read_loop(self, conn: _WorkerConnection) -> None:
        """Forward every reply frame of one worker to the result queue."""
        try:
            while True:
                message = recv_message(conn.sock)
                conn.last_frame = time.monotonic()
                if message[0] in ("result", "error"):
                    _kind, round_id, index, value = message
                    with conn.lock:
                        entry = conn.outstanding.pop((round_id, index), None)
                    if message[0] == "error":
                        # Ship the original work item and the failing peer
                        # along so the collector can redispatch it within
                        # the retry budget (the entry is None only for a
                        # reply to a task this coordinator never sent).
                        item = entry[0] if entry is not None else None
                        value = (value, item, conn.peer)
                    self._results.put((message[0], round_id, index, value))
                    conn.credits.release()
                elif message[0] == "goodbye":
                    # The worker drained (SIGTERM): it finished and answered
                    # everything it had in flight, so this is a clean
                    # retirement, not a failure — no outstanding items to
                    # requeue, no diagnostics to keep.
                    conn.mark_dead()
                    return
                elif message[0] == "heartbeat":
                    telemetry.inc("backend_heartbeats_total", worker=conn.peer)
                # anything else (stray hello, unknown type) only refreshes
                # the liveness timestamp above
        except Exception:
            # EOF, reset, or a corrupt frame: the dispatcher requeues this
            # worker's unanswered tasks for at-least-once redelivery.
            conn.mark_dead()

    def _connection_hung(self, conn: _WorkerConnection) -> Optional[str]:
        """Why this worker should be declared hung, or ``None`` if healthy.

        Two independent detectors, both of which requeue the worker's
        outstanding tasks *before* the coordinator-level liveness timeout
        would give up on the whole run:

        * per-task deadline — a dispatched item unanswered for longer than
          ``task_timeout``;
        * heartbeat staleness — no frame at all for longer than
          ``heartbeat_timeout`` from a worker that advertised a heartbeat
          cadence (workers that never heartbeat are exempt, so legacy
          daemons with long tasks are not killed mid-compute).
        """
        now = time.monotonic()
        if self.task_timeout is not None:
            with conn.lock:
                oldest = min(
                    (sent_at for _item, sent_at in conn.outstanding.values()),
                    default=None,
                )
            if oldest is not None and now - oldest > self.task_timeout:
                return f"task unanswered for {self.task_timeout:.1f}s"
        if conn.heartbeat_interval is not None:
            window = self.heartbeat_timeout
            if window is None:
                window = max(
                    self.HEARTBEAT_TIMEOUT_BEATS * conn.heartbeat_interval,
                    self.MIN_HEARTBEAT_TIMEOUT,
                )
            # An explicit timeout is floored at two of the worker's own
            # advertised beat intervals — a window shorter than the cadence
            # would retire perfectly healthy workers between beats.
            window = max(window, 2.0 * conn.heartbeat_interval)
            if now - conn.last_frame > window:
                return f"no heartbeat for {window:.1f}s"
        return None

    def _dispatch_loop(self, conn: _WorkerConnection) -> None:
        """Feed one worker up to its advertised slot count of in-flight items.

        Each iteration debits one credit, takes one task and sends it; the
        read loop refunds the credit when the reply lands.  A fully loaded
        worker therefore parks the dispatcher on the credit acquire (with a
        poll timeout so the hung detectors keep running), while an idle
        multi-slot worker is fed back-to-back tasks without waiting for
        replies — that is the capacity weighting.
        """
        try:
            while not self._closing and conn.alive:
                hung_reason = self._connection_hung(conn)
                if hung_reason:
                    # Preemptive requeue: don't wait for the socket to die —
                    # retire the worker now so others pick its items up
                    # (at-least-once redelivery).
                    telemetry.inc("backend_hung_retires_total", worker=conn.peer)
                    telemetry.event(
                        "worker-hung", worker=conn.peer, reason=hung_reason
                    )
                    conn.mark_dead()
                    break
                if not conn.credits.acquire(timeout=_POLL_INTERVAL):
                    # All slots busy: the dispatcher parks on the empty
                    # credit pool (this is the capacity weighting working).
                    telemetry.inc("backend_credit_waits_total", worker=conn.peer)
                    continue  # re-check the hung detectors
                if self._closing or not conn.alive:
                    break
                try:
                    item = self._task_queue.get(timeout=_POLL_INTERVAL)
                except queue.Empty:
                    conn.credits.release()  # nothing to send; refund the slot
                    continue
                round_id, index, fn, task = item
                if round_id != self._round:
                    conn.credits.release()
                    continue  # task from an abandoned round
                failed = self._failed_peers.get((round_id, index))
                if failed and conn.peer in failed:
                    # This worker already raised on this item; hand it to a
                    # worker that has not, as long as one is alive (if the
                    # whole fleet has failed it, retry here anyway rather
                    # than starve the item).
                    with self._connections_lock:
                        alternative = any(
                            c.alive and c.peer not in failed
                            for c in self._connections
                        )
                    if alternative:
                        self._task_queue.put(item)
                        conn.credits.release()
                        time.sleep(_POLL_INTERVAL / 2)  # let the other grab it
                        continue
                with conn.lock:
                    conn.outstanding[(round_id, index)] = (item, time.monotonic())
                try:
                    with conn.send_lock:
                        send_message(conn.sock, ("task", round_id, index, fn, task))
                except OSError:
                    conn.mark_dead()
                    break
                telemetry.inc("backend_dispatch_total", worker=conn.peer)
        finally:
            self._retire(conn)

    def _retire(self, conn: _WorkerConnection) -> None:
        """Requeue a dead worker's whole outstanding set and forget it.

        A multi-slot worker can die holding several unanswered items; every
        one of them goes back on the queue (at-least-once), not just the
        most recent send.
        """
        conn.alive = False
        with conn.lock:
            outstanding = list(conn.outstanding.items())
            conn.outstanding.clear()
        for (round_id, _index), (item, _sent_at) in outstanding:
            if round_id == self._round and not self._closing:
                self._task_queue.put(item)  # at-least-once redelivery
                telemetry.inc("backend_redeliveries_total", worker=conn.peer)
        with self._connections_lock:
            if conn in self._connections:
                self._connections.remove(conn)
        telemetry.set_gauge("backend_connected_workers", self.connected_workers())
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover - best effort
            pass

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        if self._closing:
            return
        self._closing = True
        with self._connections_lock:
            connections = list(self._connections)
        for conn in connections:
            try:
                with conn.send_lock:
                    send_message(conn.sock, ("shutdown",))
            except OSError:
                pass
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - best effort
                pass
        deadline = time.monotonic() + 5.0
        for proc in self._local_procs:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)
        self._local_procs.clear()
        if self._stderr_dir is not None:
            self._stderr_dir.cleanup()
            self._stderr_dir = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SocketDistributedBackend(bind={self.bind_host}:{self.bind_port}, "
            f"local_workers={self.local_workers})"
        )


# --------------------------------------------------------------------------- #
# worker daemon (the ``python -m repro worker`` entry point)
# --------------------------------------------------------------------------- #
#: Default worker heartbeat cadence (seconds between beats).
DEFAULT_HEARTBEAT_INTERVAL = 2.0


class _FrameSender:
    """The one sanctioned way to write frames from a worker daemon.

    Every worker-side send — hello, heartbeat, result, error, goodbye —
    goes through :meth:`send`, which holds the per-socket lock for the
    whole frame write.  The lock exists because the heartbeat thread and
    the slot-pool result threads share one TCP stream: two interleaved
    ``sendall`` calls would splice their frames together, and the
    coordinator's read loop would see a corrupt frame, kill the connection
    and silently requeue everything in flight.  Funnelling all sends
    through this class makes "forgot the lock" unrepresentable.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._lock = threading.Lock()

    def send(self, message: Tuple[Any, ...]) -> None:
        with self._lock:
            send_message(self._sock, message)


class _InFlight:
    """Counter of work items currently executing on this worker.

    A draining worker (SIGTERM) uses :meth:`wait_idle` to finish what it
    already accepted before saying goodbye; with ``slots > 1`` several
    items can be in flight at once, so a bare flag would not do.
    """

    def __init__(self) -> None:
        self._count = 0
        self._cond = threading.Condition()

    def enter(self) -> None:
        with self._cond:
            self._count += 1

    def exit(self) -> None:
        with self._cond:
            self._count -= 1
            self._cond.notify_all()

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        with self._cond:
            return self._cond.wait_for(lambda: self._count == 0, timeout)


def _start_heartbeat(sender: _FrameSender, interval: float) -> threading.Event:
    """Send ``("heartbeat",)`` frames every *interval* seconds until stopped.

    The beats run on a background thread so they keep flowing while the
    main loop is busy computing a work item — that is the whole point: the
    coordinator can tell a *hung* daemon (silence) from a *busy* one
    (heartbeats but no result yet).  Returns the stop event.
    """
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(interval):
            try:
                sender.send(("heartbeat",))
            except OSError:
                return  # connection is gone; the main loop handles it

    threading.Thread(target=beat, name="repro-worker-heartbeat", daemon=True).start()
    return stop


def _serve_item(
    sender: _FrameSender,
    round_id: int,
    index: int,
    fn: Callable[[Any], Any],
    task: Any,
    in_flight: Optional[_InFlight] = None,
) -> None:
    """Execute one work item and stream its reply (slot-pool entry point).

    Send failures are swallowed here: when the connection dies mid-reply the
    daemon's receive loop sees the same broken socket and runs the normal
    reconnect path, and the coordinator requeues the item anyway.  The
    caller :meth:`_InFlight.enter`\\ s *before* handing the item over (so a
    drain request can never slip between accept and execute); this function
    owns the matching exit.
    """
    try:
        try:
            reply = ("result", round_id, index, fn(task))
        except Exception:
            reply = ("error", round_id, index, traceback.format_exc())
        try:
            sender.send(reply)
        except OSError:
            pass
    finally:
        if in_flight is not None:
            in_flight.exit()


def run_worker(
    address: str,
    *,
    connect_retries: int = 40,
    retry_delay: float = 0.5,
    once: bool = False,
    heartbeat_interval: Optional[float] = DEFAULT_HEARTBEAT_INTERVAL,
    slots: int = 1,
    drain: Optional[threading.Event] = None,
    log: Callable[[str], None] = lambda line: print(line, file=sys.stderr, flush=True),
) -> int:
    """Serve work items from a coordinator until it shuts the run down.

    The daemon connects (retrying up to *connect_retries* times, *retry_delay*
    seconds apart — so it can be started before the coordinator), executes
    each received work item with its shipped task function and streams the
    result back, heartbeating every *heartbeat_interval* seconds from a
    background thread (``None`` or ``0`` disables heartbeats and opts out of
    the coordinator's staleness enforcement).  On a dropped connection it
    reconnects and keeps serving (unless *once* is set); on a ``shutdown``
    message it exits cleanly.

    *slots* is the daemon's advertised capacity: the coordinator keeps up to
    that many work items in flight here, and a daemon with ``slots > 1``
    executes them concurrently on a thread pool.  ``0`` means one slot per
    CPU of this machine.

    **Graceful drain**: setting the *drain* event (or sending the daemon
    SIGTERM — a handler is installed when running on the main thread and no
    event was supplied) makes the worker stop accepting new work, finish
    every item already in flight, send a ``("goodbye", pid)`` frame so the
    coordinator retires the connection cleanly, and exit
    :data:`WORKER_EXIT_OK`.  That is the supervisor-friendly way to shrink
    a fleet mid-sweep: no requeue storm, no staleness timeout.

    Returns a process exit code — the codes are distinct so supervisors can
    tell apart outcomes that look identical in the logs:

    * :data:`WORKER_EXIT_OK` (0) — only after a ``("shutdown",)`` frame,
      i.e. the coordinator declared the run finished;
    * :data:`WORKER_EXIT_FAILURE` (1) — never managed to connect, or hit a
      fatal protocol error (a frame this checkout cannot unpickle);
    * :data:`WORKER_EXIT_LOST_COORDINATOR` (2) — connected at least once
      but then lost the coordinator for good (reconnect attempts exhausted,
      or *once* was set).  Items may well have been served first — that
      still is not a clean shutdown.
    """
    host, port = parse_address(address)
    if connect_retries < 1:
        raise ValueError(f"connect_retries must be positive, got {connect_retries}")
    if retry_delay < 0:
        raise ValueError(f"retry_delay must be non-negative, got {retry_delay}")
    if heartbeat_interval is not None and heartbeat_interval < 0:
        raise ValueError(
            f"heartbeat_interval must be non-negative, got {heartbeat_interval}"
        )
    if slots < 0:
        raise ValueError(f"slots must be non-negative, got {slots}")
    slots = int(slots) if slots else default_workers()
    if drain is None:
        drain = threading.Event()
        if threading.current_thread() is threading.main_thread():
            try:
                signal.signal(signal.SIGTERM, lambda *_args: drain.set())
            except (ValueError, OSError):  # pragma: no cover - exotic platforms
                pass
    connected = False
    while True:
        sock = _connect_with_retry(host, port, connect_retries, retry_delay, log)
        if sock is None:
            log(f"repro worker: giving up on {address} after {connect_retries} attempts")
            return WORKER_EXIT_LOST_COORDINATOR if connected else WORKER_EXIT_FAILURE
        connected = True
        log(f"repro worker: connected to {address} (pid {os.getpid()}, slots {slots})")
        sender = _FrameSender(sock)
        # Fresh per connection: futures cancelled on a connection loss would
        # otherwise leak entered-but-never-exited counts into the next
        # connection's drain accounting.
        in_flight = _InFlight()
        heartbeat_stop: Optional[threading.Event] = None
        executor: Optional[ThreadPoolExecutor] = None
        try:
            info: Dict[str, Any] = {"slots": slots}
            if heartbeat_interval:
                info["heartbeat_interval"] = float(heartbeat_interval)
            sender.send(("hello", os.getpid(), info))
            if heartbeat_interval:
                heartbeat_stop = _start_heartbeat(sender, float(heartbeat_interval))
            if slots > 1:
                executor = ThreadPoolExecutor(
                    max_workers=slots, thread_name_prefix="repro-worker-slot"
                )
            while True:
                if drain.is_set():
                    # Finish what we already accepted, say goodbye, leave.
                    in_flight.wait_idle()
                    try:
                        sender.send(("goodbye", os.getpid()))
                    except OSError:
                        pass
                    log("repro worker: drained in-flight work; exiting")
                    return WORKER_EXIT_OK
                # Wait for readability with a timeout instead of blocking in
                # recv: a drain request must be noticed between frames, and
                # interrupting _recv_exact mid-frame would desync the stream.
                try:
                    readable = select.select([sock], [], [], _DRAIN_POLL)[0]
                except (OSError, ValueError):
                    # ValueError: the socket was closed under us (fd == -1),
                    # e.g. by the reset simulation of a chaos fault.
                    raise ConnectionError("worker socket closed while waiting")
                if not readable:
                    continue
                message = recv_message(sock)
                if message[0] == "shutdown":
                    log("repro worker: coordinator finished; exiting")
                    return WORKER_EXIT_OK
                if message[0] != "task":
                    continue
                plan = chaos.active_plan()
                if plan is not None and plan.take_kill_task():
                    # Simulate the daemon being SIGKILLed mid-task: the
                    # connection dies with the item unanswered, and (like a
                    # supervisor restart) the normal reconnect path below
                    # brings the worker back.
                    raise chaos.ChaosInjected("chaos: worker killed mid-task")
                _kind, round_id, index, fn, task = message
                in_flight.enter()
                if executor is not None:
                    executor.submit(
                        _serve_item, sender, round_id, index, fn, task, in_flight
                    )
                else:
                    _serve_item(sender, round_id, index, fn, task, in_flight)
        except (ConnectionError, OSError):
            log("repro worker: connection lost")
            try:
                sock.close()
            except OSError:  # pragma: no cover - best effort
                pass
            if once:
                return WORKER_EXIT_LOST_COORDINATOR
            # fall through: reconnect for the coordinator's next round
        except Exception:
            # A frame we cannot even unpickle (version-skewed checkout, a
            # task function that does not resolve here, corrupt stream) is
            # deterministic: reconnecting would just die again on the
            # redelivered task.  Log the real cause and exit non-zero so the
            # coordinator's local-worker diagnostics surface it.
            log(f"repro worker: fatal protocol error:\n{traceback.format_exc()}")
            try:
                sock.close()
            except OSError:  # pragma: no cover - best effort
                pass
            return WORKER_EXIT_FAILURE
        finally:
            if heartbeat_stop is not None:
                heartbeat_stop.set()
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)


def _connect_with_retry(
    host: str,
    port: int,
    retries: int,
    delay: float,
    log: Callable[[str], None],
) -> Optional[socket.socket]:
    """Connect with exponential backoff and deterministic jitter.

    *delay* is the base: attempt *i* sleeps ``min(delay * 2**i,
    RECONNECT_BACKOFF_CAP)`` scaled by a 0.5x–1.5x jitter factor drawn from
    a PRNG seeded with the target address and this process id — different
    workers desynchronise (no reconnect stampede after a coordinator
    restart), while any single worker's schedule is reproducible.
    """
    jitter = random.Random(f"{host}:{port}:{os.getpid()}")
    for attempt in range(retries):
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError:
            if attempt + 1 < retries:
                backoff = min(delay * (2.0 ** attempt), RECONNECT_BACKOFF_CAP)
                time.sleep(backoff * (0.5 + jitter.random()))
    return None
