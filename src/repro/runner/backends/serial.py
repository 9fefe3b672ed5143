"""In-process serial execution — the reference backend.

Every other backend is required to reproduce this one's results bit for bit
(the conformance suite in ``tests/test_execution_backends.py`` pins it), so
the serial backend is also the fallback used by tests and by environments
without multiprocessing or network support.
"""

from __future__ import annotations

import traceback
from typing import Any, Callable, Iterator, Sequence, Tuple

from repro.runner import telemetry
from repro.runner.backends.base import (
    ExecutionBackend,
    TaskQuarantined,
    validate_task_error_policy,
)


class SerialBackend(ExecutionBackend):
    """Execute every work item inline, in submission order.

    Parameters
    ----------
    on_task_error:
        ``"fail"`` (default) re-raises a task exception; ``"quarantine"``
        yields a :class:`TaskQuarantined` sentinel for the failing index so
        the round completes.  There is no retry budget in-process: the same
        interpreter would deterministically fail again.
    """

    name = "serial"

    def __init__(self, *, on_task_error: str = "fail") -> None:
        self.on_task_error = validate_task_error_policy(on_task_error)

    def submit(
        self, fn: Callable[[Any], Any], tasks: Sequence[Any]
    ) -> Iterator[Tuple[int, Any]]:
        telemetry.inc("backend_tasks_total", len(tasks), backend=self.name)
        for index, task in enumerate(tasks):
            if self.on_task_error == "fail":
                yield index, fn(task)
                continue
            try:
                result = fn(task)
            except Exception:
                result = TaskQuarantined(
                    index=index,
                    error=traceback.format_exc(),
                    attempts=1,
                    workers=("serial",),
                )
            yield index, result
