"""Pluggable execution-backend registry for the experiment runner.

Backends are selected by name (mirroring the decoder-backend registry in
:mod:`repro.phy.turbo.backends`):

``serial``
    In-process execution, in submission order — the reference backend.
``process``
    A local :class:`concurrent.futures.ProcessPoolExecutor` round pool (the
    PR 1 ``ParallelRunner`` behaviour, extracted).
``socket``
    A stdlib-only TCP coordinator feeding ``python -m repro worker``
    daemons, with reconnect/retry and at-least-once de-duplication.

Because every work item is seeded by its sweep coordinates, all backends
produce **bit-identical results** for the same plan; the choice is pure
execution topology and is therefore excluded from the run identity (caches
and golden files never record it).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple, Union

from repro.runner.backends.base import (
    TASK_ERROR_POLICIES,
    ExecutionBackend,
    TaskQuarantined,
    validate_task_error_policy,
)
from repro.runner.backends.process_pool import ProcessPoolBackend, default_workers
from repro.runner.backends.serial import SerialBackend
from repro.runner.backends.socket_backend import (
    WORKER_EXIT_FAILURE,
    WORKER_EXIT_LOST_COORDINATOR,
    WORKER_EXIT_OK,
    SocketDistributedBackend,
    run_worker,
)

#: The backend used when nothing is requested and ``workers <= 1``.
DEFAULT_BACKEND = "serial"
#: The backend implied by ``workers > 1`` when nothing else is requested.
DEFAULT_PARALLEL_BACKEND = "process"


def _make_serial(workers: int, **options: object) -> ExecutionBackend:
    on_task_error = str(options.pop("on_task_error", "fail"))
    _reject_options("serial", options)
    return SerialBackend(on_task_error=on_task_error)


def _make_process(workers: int, **options: object) -> ExecutionBackend:
    on_task_error = str(options.pop("on_task_error", "fail"))
    _reject_options("process", options)
    return ProcessPoolBackend(workers, on_task_error=on_task_error)


def _make_socket(workers: int, **options: object) -> ExecutionBackend:
    return SocketDistributedBackend(workers, **options)  # type: ignore[arg-type]


def _reject_options(family: str, options: Dict[str, object]) -> None:
    if options:
        raise TypeError(
            f"execution backend {family!r} accepts no options, got {sorted(options)}"
        )


#: family -> factory(workers, **options).
_FAMILIES: Dict[str, Callable[..., ExecutionBackend]] = {
    "serial": _make_serial,
    "process": _make_process,
    "socket": _make_socket,
}


def execution_backend_names() -> Tuple[str, ...]:
    """Every selectable execution-backend token."""
    return tuple(_FAMILIES)


def create_execution_backend(
    name: Union[str, ExecutionBackend],
    *,
    workers: int = 1,
    **options: object,
) -> ExecutionBackend:
    """Instantiate the named backend (pass-through for built instances)."""
    if isinstance(name, ExecutionBackend):
        return name
    token = str(name).strip().lower()
    try:
        factory = _FAMILIES[token]
    except KeyError:
        raise ValueError(
            f"unknown execution backend {name!r}; "
            f"choose from {sorted(execution_backend_names())}"
        ) from None
    return factory(workers, **options)


__all__ = [
    "DEFAULT_BACKEND",
    "DEFAULT_PARALLEL_BACKEND",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "SocketDistributedBackend",
    "TASK_ERROR_POLICIES",
    "TaskQuarantined",
    "WORKER_EXIT_FAILURE",
    "WORKER_EXIT_LOST_COORDINATOR",
    "WORKER_EXIT_OK",
    "create_execution_backend",
    "default_workers",
    "execution_backend_names",
    "run_worker",
    "validate_task_error_policy",
]
