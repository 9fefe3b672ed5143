"""The experiment registry behind ``python -m repro run <experiment>``.

Every figure driver registers an :class:`ExperimentSpec`; the registry gives
the CLI, the golden-seed regression suite and the benchmark harness one
uniform way to run any experiment and receive its results as a plain
``{name: SweepTable}`` mapping (plus JSON-able extras such as Fig. 8's
optimum protection depth).  A spec names its driver module, which
:func:`run_experiment` imports, so listing or running one experiment never
loads the other drivers.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.results import SweepTable
from repro.runner.cache import canonicalize
from repro.experiments.scales import Scale, get_scale
from repro.runner.backends import ExecutionBackend, create_execution_backend
from repro.runner.parallel import ParallelRunner
from repro.utils.rng import RngLike, resolve_entropy


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable experiment.

    Attributes
    ----------
    name:
        CLI identifier (``fig6``, ``power_savings``, ...).
    figure:
        Paper figure / section the driver reproduces.
    summary:
        One-line description shown by ``python -m repro list``.
    module:
        Driver module, imported when the experiment runs; its ``run`` must
        accept ``(scale, seed, runner=..., **kwargs)`` and return a
        :class:`SweepTable` or a dict containing tables.
    stochastic:
        Whether the result depends on the seed (analytical drivers are
        deterministic and ignore it).
    """

    name: str
    figure: str
    summary: str
    module: str
    stochastic: bool = True


@dataclass
class ExperimentRun:
    """Normalised outcome of one experiment run.

    Attributes
    ----------
    spec:
        The experiment that ran.
    scale:
        Resolved scale preset.
    seed:
        Integer entropy the run was keyed by.
    tables:
        Every :class:`SweepTable` the driver produced, by name (drivers that
        return a single table expose it as ``"table"``).
    extras:
        JSON-able non-table outputs (optimum bits, best widths, ...).
    """

    spec: ExperimentSpec
    scale: Scale
    seed: int
    tables: Dict[str, SweepTable]
    extras: Dict[str, Any] = field(default_factory=dict)


#: All registered experiments by CLI name, in paper order.
EXPERIMENTS: Dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add a spec to the registry (rejecting duplicate names)."""
    if spec.name in EXPERIMENTS:
        raise ValueError(f"duplicate experiment name {spec.name!r}")
    EXPERIMENTS[spec.name] = spec
    return spec


def experiment_names() -> List[str]:
    """Registered experiment names, in registration (paper) order."""
    return list(EXPERIMENTS)


def get_experiment(name: str) -> ExperimentSpec:
    """Look up a spec by name, with a helpful error on typos."""
    try:
        return EXPERIMENTS[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown experiment {name!r}; choose from {experiment_names()}"
        ) from exc


# --------------------------------------------------------------------------- #
register(
    ExperimentSpec(
        name="fig2",
        figure="Fig. 2",
        summary="decoding-failure probability over HARQ retransmissions",
        module="repro.experiments.fig2_bler_vs_harq",
    )
)
register(
    ExperimentSpec(
        name="fig3",
        figure="Fig. 3",
        summary="cell failure probability vs supply voltage (analytical)",
        module="repro.experiments.fig3_cell_failure",
        stochastic=False,
    )
)
register(
    ExperimentSpec(
        name="fig5",
        figure="Fig. 5",
        summary="array yield vs accepted defect count (analytical)",
        module="repro.experiments.fig5_yield",
        stochastic=False,
    )
)
register(
    ExperimentSpec(
        name="fig6",
        figure="Fig. 6",
        summary="throughput and transmissions vs SNR under defect rates",
        module="repro.experiments.fig6_throughput_vs_defects",
    )
)
register(
    ExperimentSpec(
        name="fig7",
        figure="Fig. 7",
        summary="throughput vs SNR protecting k MSBs at 10% defects",
        module="repro.experiments.fig7_msb_protection",
    )
)
register(
    ExperimentSpec(
        name="fig8",
        figure="Fig. 8",
        summary="protection efficiency (throughput gain per area overhead)",
        module="repro.experiments.fig8_efficiency",
    )
)
register(
    ExperimentSpec(
        name="fig9",
        figure="Fig. 9",
        summary="throughput vs LLR bit-width at 10% defects",
        module="repro.experiments.fig9_bitwidth",
    )
)
register(
    ExperimentSpec(
        name="power_savings",
        figure="Section 6.3",
        summary="supply voltage and power savings of the HARQ LLR memory",
        module="repro.experiments.power_savings",
        stochastic=False,
    )
)


# --------------------------------------------------------------------------- #
def _normalise(result: Any) -> Tuple[Dict[str, SweepTable], Dict[str, Any]]:
    """Split a driver's return value into tables and JSON-able extras."""
    if isinstance(result, SweepTable):
        return {"table": result}, {}
    if isinstance(result, dict):
        tables = {k: v for k, v in result.items() if isinstance(v, SweepTable)}
        extras = {
            str(k): canonicalize(v)
            for k, v in result.items()
            if not isinstance(v, SweepTable)
        }
        if not tables:
            raise TypeError("experiment returned a dict without any SweepTable")
        return tables, extras
    raise TypeError(f"unsupported experiment result type {type(result).__name__}")


def run_experiment(
    name: str,
    scale: Union[str, Scale] = "smoke",
    seed: RngLike = 2012,
    runner: Optional[ParallelRunner] = None,
    *,
    workers: int = 1,
    execution_backend: Union[str, ExecutionBackend, None] = None,
    **kwargs: Any,
) -> ExperimentRun:
    """Run a registered experiment and normalise its outcome.

    The seed is reduced to an integer entropy first (see
    :func:`repro.utils.rng.resolve_entropy`) so the run identity recorded in
    caches and golden files is a plain number.  Execution is controlled by
    *runner* — or, when it is ``None``, by *workers* and
    *execution_backend* (a name from
    :func:`repro.runner.backends.execution_backend_names`); a runner built
    here is closed before returning.  None of these can change the result:
    execution topology is not part of the run identity.
    """
    spec = get_experiment(name)
    driver = importlib.import_module(spec.module)
    resolved_scale = get_scale(scale)
    entropy = resolve_entropy(seed)
    owns_runner = runner is None
    if runner is not None and (workers != 1 or execution_backend is not None):
        raise ValueError(
            "pass either runner= or workers=/execution_backend=, not both "
            "(the provided runner already fixes the execution topology)"
        )
    if runner is None:
        backend = (
            create_execution_backend(execution_backend, workers=workers)
            if execution_backend is not None
            else None
        )
        runner = ParallelRunner(workers, backend=backend)
    try:
        result = driver.run(resolved_scale, entropy, runner=runner, **kwargs)
    finally:
        if owns_runner:
            runner.close()
    tables, extras = _normalise(result)
    return ExperimentRun(
        spec=spec, scale=resolved_scale, seed=entropy, tables=tables, extras=extras
    )
