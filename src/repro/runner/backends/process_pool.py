"""Local process-pool execution (extracted from the PR 1 ``ParallelRunner``).

One :class:`concurrent.futures.ProcessPoolExecutor` is created per submitted
round and torn down with it, matching the original ``ParallelRunner.map``
semantics exactly: no idle worker processes linger between rounds, and a
crashed round cannot poison the next one.  Results stream back in completion
order; the scheduler reorders them.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from typing import Any, Callable, Iterator, Sequence, Tuple

from repro.runner import telemetry
from repro.runner.backends.base import (
    ExecutionBackend,
    TaskQuarantined,
    validate_task_error_policy,
)

#: Pool start method: fork where available (cheap on Linux: workers inherit
#: the imported simulator modules), the platform default elsewhere.
_POOL_CONTEXT = (
    multiprocessing.get_context("fork")
    if "fork" in multiprocessing.get_all_start_methods()
    else None
)


def default_workers() -> int:
    """Worker count used when the caller asks for ``workers=0`` ("auto")."""
    return max(1, os.cpu_count() or 1)


class ProcessPoolBackend(ExecutionBackend):
    """Execute work items across local worker processes.

    Parameters
    ----------
    workers:
        Number of worker processes; ``0`` means "one per CPU".
    on_task_error:
        ``"fail"`` (default) re-raises a task exception; ``"quarantine"``
        yields a :class:`TaskQuarantined` sentinel for the failing index so
        the rest of the round still completes.  Pool processes all run the
        same interpreter image, so a deterministic raise is not retried.
    """

    name = "process"

    def __init__(
        self,
        workers: int = 0,
        *,
        on_task_error: str = "fail",
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be non-negative, got {workers}")
        self.workers = workers if workers > 0 else default_workers()
        self.on_task_error = validate_task_error_policy(on_task_error)

    def _quarantined(self, index: int, exc: BaseException) -> TaskQuarantined:
        formatted = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
        return TaskQuarantined(
            index=index, error=formatted, attempts=1, workers=("process-pool",)
        )

    def submit(
        self, fn: Callable[[Any], Any], tasks: Sequence[Any]
    ) -> Iterator[Tuple[int, Any]]:
        telemetry.inc("backend_tasks_total", len(tasks), backend=self.name)
        if len(tasks) == 1 or self.workers == 1:
            # Not worth a pool round-trip; results are identical either way.
            for index, task in enumerate(tasks):
                if self.on_task_error == "fail":
                    yield index, fn(task)
                    continue
                try:
                    result = fn(task)
                except Exception as exc:
                    result = self._quarantined(index, exc)
                yield index, result
            return
        max_workers = min(self.workers, len(tasks))
        with ProcessPoolExecutor(max_workers, _POOL_CONTEXT) as pool:
            index_of = {pool.submit(fn, task): index for index, task in enumerate(tasks)}
            pending = set(index_of)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    index = index_of[future]
                    if self.on_task_error == "fail":
                        yield index, future.result()
                        continue
                    try:
                        result = future.result()
                    except BrokenExecutor:
                        # A *dead pool process* is executor failure, not task
                        # poison — quarantining here would blame the task
                        # for the substrate.  Let it propagate.
                        raise
                    except Exception as exc:
                        result = self._quarantined(index, exc)
                    yield index, result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessPoolBackend(workers={self.workers})"
