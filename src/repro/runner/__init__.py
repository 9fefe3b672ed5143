"""Parallel experiment execution: sharding, backends, caching, registry, CLI.

Public surface:

* :class:`~repro.runner.parallel.ParallelRunner` — the streaming scheduler
  (deterministic sharding, ordered collection, adaptive stopping).
* :mod:`repro.runner.backends` — the execution backends (``serial``,
  ``process``, ``socket``) the scheduler hands work items to; all of them
  produce bit-identical results for the same plan.
* :mod:`repro.runner.tasks` — the picklable work items drivers decompose
  their sweeps into, plus their keyed-seeding contract.
* :mod:`repro.runner.registry` — the :class:`ExperimentSpec` registry behind
  ``python -m repro run <experiment>``.
* :class:`~repro.runner.cache.ResultCache` — on-disk JSON result cache.
* :mod:`repro.runner.telemetry` — the process-wide metrics registry every
  layer above reports into (counters, gauges, duration histograms, event
  log); pure observability, never part of a run identity.
"""

from repro.runner import telemetry
from repro.runner.backends import (
    ExecutionBackend,
    create_execution_backend,
    execution_backend_names,
)
from repro.runner.cache import ResultCache, config_digest
from repro.runner.parallel import ParallelRunner, resolve_runner, runner_scope

# The registry imports the experiment drivers, and the drivers import
# repro.runner.parallel / .tasks (hence this package __init__) — so the
# registry surface is re-exported lazily to keep the import graph acyclic.
_REGISTRY_EXPORTS = (
    "EXPERIMENTS",
    "ExperimentRun",
    "ExperimentSpec",
    "experiment_names",
    "get_experiment",
    "run_experiment",
)


def __getattr__(name: str):
    if name in _REGISTRY_EXPORTS:
        from repro.runner import registry

        return getattr(registry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "EXPERIMENTS",
    "ExecutionBackend",
    "ExperimentRun",
    "ExperimentSpec",
    "ParallelRunner",
    "ResultCache",
    "config_digest",
    "create_execution_backend",
    "execution_backend_names",
    "experiment_names",
    "get_experiment",
    "resolve_runner",
    "run_experiment",
    "runner_scope",
    "telemetry",
]
