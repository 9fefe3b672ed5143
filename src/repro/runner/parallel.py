"""Deterministically-sharded execution of experiment workloads.

The paper stresses that "meaningful throughput evaluation requires a vast
amount of Monte-Carlo simulations averaging over various wireless channel
conditions"; this module provides the scheduling layer for that averaging:

* :class:`ParallelRunner` — the streaming scheduler.  It decomposes nothing
  itself; it takes a list of independent, picklable work items, hands them
  to a pluggable :class:`~repro.runner.backends.ExecutionBackend` (serial,
  local process pool, or socket-distributed workers) via
  :meth:`~ParallelRunner.submit_round`, and reassembles the streamed
  results **in submission order** with
  :meth:`~ParallelRunner.collect_in_order`.
* Deterministic sharding — a workload is decomposed into work items *before*
  execution, and every item derives its random stream from a
  :func:`repro.utils.rng.keyed_seed_sequence` spawn key that encodes the
  item's position in the sweep, never the worker that happens to execute it.
  Consequently serial, process-pool and distributed runs of the same plan
  are bit-identical, and the backend is excluded from the run identity.
* Adaptive stopping — :meth:`ParallelRunner.run_adaptive_rounds` is the one
  round loop behind every adaptive estimate: ``repro bler``'s defect-free
  BLER and the adaptive points of
  :func:`repro.runner.tasks.run_fault_map_grid`, both executing their rounds
  through :func:`repro.runner.tasks.run_pooled_round`.  It keeps scheduling
  rounds until the Wilson confidence interval from
  :func:`repro.core.montecarlo` ``proportion_confidence_interval`` meets the
  requested relative error or a packet budget is exhausted.  Because rounds
  — not workers — are the scheduling unit, the stopping decision is also
  independent of the worker count and of the backend.

The Monte Carlo units built from work items — a grid point's dies, a BLER
cell's chunks — are scheduled, pooled, stored and merged in
:mod:`repro.runner.tasks` alone; this module knows nothing of them.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter
from typing import (
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.core.montecarlo import proportion_confidence_interval, two_sided_z
from repro.runner import telemetry
from repro.runner.backends import (
    DEFAULT_BACKEND,
    DEFAULT_PARALLEL_BACKEND,
    ExecutionBackend,
    TaskQuarantined,
    create_execution_backend,
    default_workers,
)
from repro.utils.validation import ensure_positive_int

TaskT = TypeVar("TaskT")
ResultT = TypeVar("ResultT")

#: Sentinel marking a result slot the backend never filled.
_MISSING = object()


@dataclass(frozen=True)
class AdaptiveRounds:
    """Raw outcome of one :meth:`ParallelRunner.run_adaptive_rounds` loop."""

    errors: int
    trials: int
    num_items: int
    stop_reason: str


class ParallelRunner:
    """Schedule independent work items over an execution backend.

    Parameters
    ----------
    workers:
        Number of worker processes.  ``workers == 0`` means "one per CPU".
        The *results* of a run never depend on this value — only the
        wall-clock time does.
    backend:
        Execution backend: a name from
        :func:`repro.runner.backends.execution_backend_names` (``serial``,
        ``process``, ``socket``), a built
        :class:`~repro.runner.backends.ExecutionBackend` instance, or
        ``None`` for the historical default — serial for ``workers <= 1``,
        the local process pool otherwise.  The backend choice can never
        change results; it is pure execution topology.
    quarantine_store:
        Optional :class:`~repro.runner.cache.QuarantineStore` that receives
        an on-disk record (task identity + traceback) for every
        :class:`TaskQuarantined` sentinel a backend yields under
        ``on_task_error="quarantine"``.  In-memory sentinels additionally
        accumulate on :attr:`task_failures` for the end-of-run report.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        backend: Union[str, ExecutionBackend, None] = None,
        quarantine_store: Optional[object] = None,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be non-negative, got {workers}")
        self.workers = workers if workers > 0 else default_workers()
        if backend is None:
            backend = DEFAULT_BACKEND if workers == 1 else DEFAULT_PARALLEL_BACKEND
        self._backend = create_execution_backend(backend, workers=self.workers)
        self.quarantine_store = quarantine_store
        #: Every quarantined work item seen by this runner (for reporting).
        self.task_failures: List[TaskQuarantined] = []
        #: Non-empty rounds handed to the backend so far.
        self._rounds_submitted = 0

    # ------------------------------------------------------------------ #
    @classmethod
    def serial(cls) -> "ParallelRunner":
        """A runner that executes everything in the calling process."""
        return cls(workers=1)

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend work is scheduled onto."""
        return self._backend

    def close(self) -> None:
        """Release the backend's resources (pools, sockets, worker daemons)."""
        self._backend.close()

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParallelRunner(workers={self.workers}, backend={self._backend!r})"

    # ------------------------------------------------------------------ #
    # the streaming scheduler
    # ------------------------------------------------------------------ #
    def submit_round(
        self, fn: Callable[[TaskT], ResultT], tasks: Sequence[TaskT]
    ) -> Iterator[Tuple[int, ResultT]]:
        """Hand one round of tasks to the backend, streaming ``(index, result)``.

        Pairs arrive in completion order (backend-dependent); every index is
        delivered exactly once, so a caller can act on each result (store
        it, say) before the round ends.  Under a backend with
        ``on_task_error="quarantine"``, a failing item arrives as a
        :class:`TaskQuarantined` sentinel and the caller decides what the
        missing result means.  The round's sentinels are recorded in index
        order (in memory, and on disk when a :attr:`quarantine_store` is
        attached) when the stream ends, also when the caller abandons it
        early.  The round is timed into ``runner_round_seconds`` and its
        items counted into ``runner_tasks_total``.  ``fn`` and every task
        must be picklable (module-level function plus dataclass/tuple
        payloads) for any backend that leaves the calling process.
        """
        tasks = list(tasks)
        if not tasks:
            return
        self._rounds_submitted += 1
        backend_name = getattr(self._backend, "name", "unknown")
        quarantined: List[TaskQuarantined] = []
        try:
            with telemetry.timed("runner_round_seconds", backend=backend_name):
                for index, result in self._backend.submit(fn, tasks):
                    if isinstance(result, TaskQuarantined):
                        quarantined.append(result)
                    yield index, result
        finally:
            if quarantined:
                quarantined.sort(key=attrgetter("index"))
                self._record_quarantined(fn, tasks, quarantined)
        telemetry.inc("runner_tasks_total", len(tasks), backend=backend_name)

    @staticmethod
    def collect_in_order(
        stream: Iterable[Tuple[int, ResultT]], count: int
    ) -> List[ResultT]:
        """Reassemble a :meth:`submit_round` stream into submission order."""
        results: List = [_MISSING] * count
        for index, value in stream:
            results[index] = value
        missing = [index for index, value in enumerate(results) if value is _MISSING]
        if missing:
            raise RuntimeError(f"backend never delivered results for items {missing}")
        return results

    def map(self, fn: Callable[[TaskT], ResultT], tasks: Sequence[TaskT]) -> List[ResultT]:
        """Run ``fn`` over *tasks* and return results in task order.

        Because each task carries its own seed material, the output is
        identical for any worker count and any backend — including the
        serial fallback.

        A quarantined item raises (after :meth:`submit_round` recorded
        it): silently averaging over a partial result set would corrupt the
        science.  A caller that knows what a missing result means for its
        aggregate consumes :meth:`submit_round` itself.
        """
        tasks = list(tasks)
        results = self.collect_in_order(self.submit_round(fn, tasks), len(tasks))
        quarantined = [r for r in results if isinstance(r, TaskQuarantined)]
        if quarantined:
            raise RuntimeError(
                f"{len(quarantined)} work item(s) were quarantined but this "
                f"computation cannot tolerate missing results "
                f"({quarantined[0].summary()}); rerun with "
                f"--on-task-error=fail to abort on the first traceback:\n"
                f"{quarantined[0].error}"
            )
        return results

    def _record_quarantined(
        self,
        fn: Callable[[TaskT], ResultT],
        tasks: Sequence[TaskT],
        quarantined: Sequence[TaskQuarantined],
    ) -> None:
        fn_name = getattr(fn, "__qualname__", None) or repr(fn)
        self.task_failures.extend(quarantined)
        if self.quarantine_store is None:
            return
        for sentinel in quarantined:
            self.quarantine_store.record(
                fn_name,
                tasks[sentinel.index],
                error=sentinel.error,
                attempts=sentinel.attempts,
                workers=sentinel.workers,
            )

    # ------------------------------------------------------------------ #
    # the unified adaptive round loop
    # ------------------------------------------------------------------ #
    def run_adaptive_rounds(
        self,
        schedule_round: Callable[[int, int], Sequence[TaskT]],
        execute_round: Callable[["ParallelRunner", Sequence[TaskT]], Iterable[ResultT]],
        to_counts: Callable[[ResultT], Tuple[int, int]],
        *,
        confidence: float,
        relative_error: float,
        min_trials: int,
        budget: int,
        max_trials: Optional[int] = None,
    ) -> AdaptiveRounds:
        """The one round loop behind every adaptive (early-stopped) estimate.

        Keeps scheduling rounds of work items until the Wilson interval of
        the accumulated ``(errors, trials)`` proportion meets the target, or
        a budget/ceiling is spent.  Rounds — not workers — are the
        scheduling quantum, and round membership is fixed *before*
        execution, so the stopping decision is independent of the worker
        count and of the execution backend.

        Parameters
        ----------
        schedule_round:
            ``schedule_round(num_items, trials)`` builds the next round's
            work items from the number of items already scheduled and the
            trials accumulated so far (lets callers shrink the final round
            to what a budget still covers).
        execute_round:
            Executes one round — typically :meth:`map`, possibly after
            pooling the round's items into cross-work-item decode batches —
            and returns/yields one result per item, in item order.
        to_counts:
            Projects one result to its ``(errors, trials)`` contribution.
        confidence, relative_error:
            Stop (``"confident"``) once the Wilson interval's half-width is
            at most ``relative_error`` times the estimate — with at least
            one error observed and ``min_trials`` trials accumulated.
        budget:
            Trial budget after which an error-free estimate stops
            (``"budget"``).
        max_trials:
            Optional hard trial ceiling (``"max_packets"``).

        The stop conditions are evaluated at the top of the loop, in the
        order confident, max_trials, budget; zero trials satisfy none of
        them (``min_trials`` and ``budget`` are positive), so the first
        round always runs.  A caller resuming from stored results replays
        them through *execute_round* (the fault-map grid yields a point's
        stored dies), so the decisions replay too.  The stop is counted
        (``runner_adaptive_stops_total``, an ``adaptive-stop`` event) only
        when some round submitted work: a unit replayed wholly from its
        record made no decision this run.

        *confidence* and *max_trials* are validated, and the quantile
        resolved, before the first round is scheduled: a bad value fails
        without simulating a packet.
        """
        two_sided_z(confidence)
        if max_trials is not None:
            ensure_positive_int(max_trials, "max_trials")
        rounds_before = self._rounds_submitted
        errors = trials = num_items = 0
        while True:
            if trials >= min_trials and errors > 0:
                interval = proportion_confidence_interval(errors, trials, confidence)
                if interval.half_width <= relative_error * interval.value:
                    stop_reason = "confident"
                    break
            if max_trials is not None and trials >= max_trials:
                stop_reason = "max_packets"
                break
            if trials >= budget:
                stop_reason = "budget"
                break
            round_tasks = list(schedule_round(num_items, trials))
            for result in execute_round(self, round_tasks):
                result_errors, result_trials = to_counts(result)
                errors += int(result_errors)
                trials += int(result_trials)
            num_items += len(round_tasks)
        if self._rounds_submitted > rounds_before:
            telemetry.inc("runner_adaptive_stops_total", reason=stop_reason)
            telemetry.event(
                "adaptive-stop",
                reason=stop_reason,
                errors=errors,
                trials=trials,
                num_items=num_items,
            )
        return AdaptiveRounds(
            errors=errors, trials=trials, num_items=num_items, stop_reason=stop_reason
        )


def resolve_runner(runner: Union["ParallelRunner", str, None]) -> "ParallelRunner":
    """Normalise a driver's ``runner`` argument.

    Accepts ``None`` (in-process serial), a built :class:`ParallelRunner`,
    or an execution-backend name (``"serial"``, ``"process"``, ``"socket"``)
    — the latter is how ``--execution-backend`` threads through the drivers
    without every call site constructing a runner.  Asking for a backend by
    name means "actually use it", so named backends scale to one worker per
    CPU; construct a :class:`ParallelRunner` for any other worker count.
    """
    if runner is None:
        return ParallelRunner.serial()
    if isinstance(runner, ParallelRunner):
        return runner
    if isinstance(runner, str):
        return ParallelRunner(workers=0, backend=runner)
    raise TypeError(
        f"runner must be None, a ParallelRunner or a backend name, "
        f"got {type(runner).__name__}"
    )


@contextmanager
def runner_scope(
    runner: Union["ParallelRunner", str, None]
) -> Iterator["ParallelRunner"]:
    """Resolve *runner* for the duration of one driver run.

    A runner the caller provided is yielded as-is and left open (its
    lifecycle belongs to the caller); one built here — from ``None`` or a
    backend name — is closed on exit, so a driver invoked with
    ``runner="socket"`` tears down its coordinator and worker daemons
    instead of leaking them.
    """
    resolved = resolve_runner(runner)
    try:
        yield resolved
    finally:
        if resolved is not runner:
            resolved.close()
