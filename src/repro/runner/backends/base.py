"""Execution-backend abstraction for the experiment runner.

An *execution backend* owns the question "where does a work item run?" —
in-process, on a local process pool, or on remote worker daemons — while
everything that defines *what* runs stays in
:class:`~repro.runner.parallel.ParallelRunner` and
:mod:`repro.runner.tasks`: sharding, keyed seeding, round scheduling and
adaptive stopping.  Because every work item derives its random stream from
its sweep coordinates (never from the executing worker), two backends that
honour the :meth:`ExecutionBackend.submit` contract produce bit-identical
results; they differ only in wall-clock time and failure modes.

Execution topology is therefore **not physics**: the backend name is
deliberately excluded from the run identity that keys the result cache and
the golden files (see :func:`repro.runner.cli.run_identity`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence, Tuple

#: Valid ``on_task_error`` policies, shared by every backend family.
TASK_ERROR_POLICIES = ("fail", "quarantine")


def validate_task_error_policy(policy: str) -> str:
    """Normalise/validate an ``on_task_error`` policy token."""
    token = str(policy).strip().lower()
    if token not in TASK_ERROR_POLICIES:
        raise ValueError(
            f"on_task_error must be one of {TASK_ERROR_POLICIES}, got {policy!r}"
        )
    return token


@dataclass(frozen=True)
class TaskQuarantined:
    """Sentinel result for a work item whose *task code* raised.

    Under ``on_task_error="quarantine"`` a backend yields this in place of
    the item's result once the retry budget is exhausted, instead of
    aborting the round: the stream completes, and the caller decides what a
    missing item means for the sweep.  Worker *death* is not represented
    here — dead-worker items are requeued indefinitely (at-least-once
    delivery), because losing an executor says nothing about the task.
    """

    index: int
    error: str
    attempts: int = 1
    workers: Tuple[str, ...] = ()

    def summary(self) -> str:
        first_line = self.error.strip().splitlines()[-1] if self.error.strip() else "?"
        where = f" on {len(self.workers)} worker(s)" if self.workers else ""
        return (
            f"work item {self.index} quarantined after "
            f"{self.attempts} attempt(s){where}: {first_line}"
        )


class ExecutionBackend(ABC):
    """One strategy for executing a round of independent work items.

    Lifecycle: backends are cheap to construct and acquire their resources
    (process pools, listening sockets, worker daemons) lazily on the first
    :meth:`submit`, so building a runner for an analytical experiment never
    starts anything.  :meth:`close` releases whatever was acquired; backends
    are also context managers.  A backend instance is owned by a single
    :class:`~repro.runner.parallel.ParallelRunner` and is not thread-safe.
    """

    #: Registry token of the backend family (``"serial"``, ``"process"``, ...).
    name: str = "?"

    #: What a task-raised exception does to the round: ``"fail"`` aborts the
    #: stream with the remote traceback (the historical behaviour),
    #: ``"quarantine"`` yields a :class:`TaskQuarantined` sentinel for that
    #: index and lets the rest of the round complete.
    on_task_error: str = "fail"

    @abstractmethod
    def submit(
        self, fn: Callable[[Any], Any], tasks: Sequence[Any]
    ) -> Iterator[Tuple[int, Any]]:
        """Execute ``fn`` over *tasks*, streaming ``(index, result)`` pairs.

        Pairs may arrive in any completion order but every index in
        ``range(len(tasks))`` is yielded **exactly once** — backends that
        retry lost work (at-least-once delivery) must de-duplicate before
        yielding.  A task that raises propagates the exception to the
        consumer under the default ``on_task_error="fail"`` policy and the
        remaining results of the round may be discarded; under
        ``"quarantine"`` the backend yields a :class:`TaskQuarantined`
        sentinel for that index once the retry budget is exhausted and the
        round completes.
        ``fn`` and every task must be picklable for any backend that leaves
        the calling process.

        Backends serve **one round at a time**: exhaust (or close) the
        returned stream before submitting the next round.  Stateless
        backends may tolerate interleaving, but stateful ones are free to
        refuse it (the socket backend raises).
        """

    def close(self) -> None:
        """Release pools / sockets / worker daemons (idempotent)."""

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
