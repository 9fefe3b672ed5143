"""The sweep-grid engine every scenario executes through.

:func:`expand_grid` turns a :class:`~repro.scenarios.spec.ScenarioSpec` into
an ordered list of grid cells (cartesian product of its axes, outermost axis
first); :func:`run_scenario_grid` maps each cell to its work items and its
point-store identity, and nothing more — scheduling, pooling, storing and
merging the resulting units is :mod:`repro.runner.tasks`'s alone:

* ``kind="fault"`` cells become :class:`~repro.runner.tasks.GridPoint`
  entries of :func:`~repro.runner.tasks.run_fault_map_grid` — one work item
  per die, spawn key ``cell_key + (die,)`` — exactly the decomposition the
  Fig. 6-9 drivers have always used.
* ``kind="bler"`` cells become units of defect-free
  :class:`~repro.runner.tasks.LinkChunkTask` chunks with spawn keys
  ``cell_key + (chunk,)`` — the Fig. 2 decomposition — run by
  :func:`~repro.runner.tasks.run_fixed_units`.

Because the spawn keys coincide with the historical drivers', a figure
declared as a scenario grid reproduces its golden snapshot byte for byte,
and any new composition inherits the serial == parallel == distributed
bit-identity contract for free.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field, replace
from functools import lru_cache
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.results import SweepTable
from repro.experiments.scales import Scale, get_scale
from repro.harq.metrics import HarqStatistics, merge_statistics
from repro.link.config import LinkConfig
from repro.memory.faults import coerce_fault_model
from repro.runner.parallel import ParallelRunner, runner_scope
from repro.runner.tasks import (
    FaultSimulationPoint,
    GridPoint,
    LinkChunkTask,
    resolve_adaptive,
    run_fault_map_grid,
    run_fixed_units,
    simulate_link_chunk_batch,
    split_packets,
)
from repro.scenarios.spec import (
    ScenarioSpec,
    cell_defect_rate,
    resolve_link_config,
    resolve_protection,
)
from repro.utils.rng import RngLike, resolve_entropy

#: Runner argument accepted everywhere: an instance, a backend name, or None.
RunnerLike = Union[ParallelRunner, str, None]


@dataclass(frozen=True)
class ScenarioCell:
    """One cell of an expanded scenario grid.

    Attributes
    ----------
    key:
        The cell's spawn-key prefix (per-axis indices; the Fig. 8-style
        reference cell is ``(0,)`` with axis cells shifted by one).
    values:
        Axis field -> value mapping of this cell (empty for the reference
        cell, which instead sets :attr:`is_reference`).
    spec:
        The scenario spec with every axis field replaced by this cell's
        value — the single source the link/fault resolution reads from.
    is_reference:
        Whether this is the prepended defect-free reference cell.
    """

    key: Tuple[int, ...]
    values: Dict[str, Any]
    spec: ScenarioSpec
    is_reference: bool = False


@dataclass
class ScenarioOutcome:
    """Everything a presenter needs to build the result tables.

    Attributes
    ----------
    spec:
        The (override-resolved) scenario that ran.
    scale, entropy:
        Resolved scale preset and integer seed.
    base_config:
        The link configuration of the scenario's fixed fields (cells with a
        configuration axis, e.g. ``llr_bits``, differ per cell).
    cells:
        The expanded grid, in execution order.
    points:
        ``kind="fault"``: one merged
        :class:`~repro.runner.tasks.FaultSimulationPoint` per cell.
    statistics:
        ``kind="bler"``: one merged
        :class:`~repro.harq.metrics.HarqStatistics` per cell.
    """

    spec: ScenarioSpec
    scale: Scale
    entropy: int
    base_config: LinkConfig
    cells: List[ScenarioCell]
    points: List[FaultSimulationPoint] = dataclass_field(default_factory=list)
    statistics: List[HarqStatistics] = dataclass_field(default_factory=list)


# --------------------------------------------------------------------------- #
def _apply_cell_value(spec: ScenarioSpec, field: str, value: Any) -> ScenarioSpec:
    """Replace one axis field on a spec (``protected_bits`` is protection sugar)."""
    if field == "protected_bits":
        return replace(spec, protection=f"msb:{int(value)}")
    return replace(spec, **{field: value})


def expand_grid(spec: ScenarioSpec, scale: Scale) -> List[ScenarioCell]:
    """Expand a scenario's axes into its ordered grid cells.

    The cartesian product runs outermost axis first, so a two-axis grid
    ``(A, B)`` enumerates ``(a0,b0), (a0,b1), ..., (a1,b0), ...`` with spawn
    keys ``(i_A, i_B)`` — matching the point-major layout of the stock
    figure drivers.
    """
    if spec.kind == "analytical":
        raise ValueError(f"analytical scenario {spec.name!r} has no grid to expand")
    axis_values = [axis.resolve_values(scale) for axis in spec.axes]
    offset = 1 if spec.reference_point else 0
    cells: List[ScenarioCell] = []
    if spec.reference_point:
        reference = replace(
            spec, protection="none", defect_rate=0.0, vdd=None, soft_error_rate=0.0
        )
        cells.append(
            ScenarioCell(key=(0,), values={}, spec=reference, is_reference=True)
        )
    if not spec.axes:
        if not spec.reference_point:
            cells.append(ScenarioCell(key=(), values={}, spec=spec))
        return cells
    for indices in itertools.product(*(range(len(values)) for values in axis_values)):
        cell_spec = spec
        values: Dict[str, Any] = {}
        for axis, value_list, index in zip(spec.axes, axis_values, indices):
            value = value_list[index]
            cell_spec = _apply_cell_value(cell_spec, axis.field, value)
            values[axis.field] = value
        key = (indices[0] + offset,) + indices[1:] if offset else indices
        cells.append(ScenarioCell(key=key, values=values, spec=cell_spec))
    return cells


def _cell_grid_point(
    cell: ScenarioCell, scale: Scale, decoder_backend: Optional[str]
) -> GridPoint:
    """Resolve one fault-kind cell to a :class:`GridPoint` work description."""
    spec = cell.spec
    config = resolve_link_config(spec, scale, decoder_backend)
    if spec.snr_db is None:
        raise ValueError(
            f"scenario {spec.name!r} needs an SNR: set snr_db or add an snr_db axis"
        )
    return GridPoint(
        key_prefix=cell.key,
        config=config,
        protection=resolve_protection(spec.protection, config.llr_bits),
        snr_db=float(spec.snr_db),
        defect_rate=cell_defect_rate(spec),
        fault_model=coerce_fault_model(spec.fault_model),
        soft_error_rate=float(spec.soft_error_rate),
    )


# --------------------------------------------------------------------------- #
def run_scenario_grid(
    spec: ScenarioSpec,
    scale: Union[str, Scale] = "smoke",
    seed: RngLike = 2012,
    *,
    runner: RunnerLike = None,
    decoder_backend: Optional[str] = None,
    adaptive: Any = None,
    point_store: Any = None,
) -> ScenarioOutcome:
    """Execute a scenario grid and return its per-cell outcomes.

    This is the one sweep path shared by all nine figure drivers and every
    new scenario: axes expand to cells, cells resolve to the existing work
    items, and the items run through whatever :class:`ParallelRunner` /
    execution backend the caller provides — with results that depend only
    on ``(spec, scale, seed)``, never on the topology.

    *point_store* (a :class:`~repro.runner.point_store.PointStore`) holds
    the per-die (per-chunk) outcomes of finished cells: a cell with a
    complete record is merged from it instead of scheduled, and every cell
    is recorded as its last work item arrives — which is also how rerunning
    a killed command resumes it.  It is pure topology: a warm store changes
    how much work is scheduled, never a bit of the outcome.
    """
    resolved = get_scale(scale)
    entropy = resolve_entropy(seed)
    base_config = resolve_link_config(spec, resolved, decoder_backend)
    cells = expand_grid(spec, resolved)
    outcome = ScenarioOutcome(
        spec=spec,
        scale=resolved,
        entropy=entropy,
        base_config=base_config,
        cells=cells,
    )

    if spec.kind == "fault":
        grid = [_cell_grid_point(cell, resolved, decoder_backend) for cell in cells]
        with runner_scope(runner) as active_runner:
            outcome.points = run_fault_map_grid(
                active_runner,
                grid,
                num_packets=resolved.num_packets,
                num_fault_maps=resolved.num_fault_maps,
                entropy=entropy,
                use_rake=spec.equalizer == "rake",
                adaptive=resolve_adaptive(adaptive),
                point_store=point_store,
            )
        return outcome

    if spec.kind == "bler":
        if resolve_adaptive(adaptive) is not None:
            raise ValueError("adaptive stopping applies to fault-map scenarios only")
        chunk_sizes = split_packets(resolved.num_packets)
        use_rake = spec.equalizer == "rake"
        units = []
        for cell in cells:
            config = resolve_link_config(cell.spec, resolved, decoder_backend)
            if cell.spec.snr_db is None:
                raise ValueError(
                    f"scenario {spec.name!r} needs an SNR: set snr_db or add an "
                    "snr_db axis"
                )
            units.append(
                [
                    LinkChunkTask(
                        config=config,
                        snr_db=float(cell.spec.snr_db),
                        num_packets=chunk_packets,
                        entropy=entropy,
                        key=cell.key + (chunk_index,),
                        use_rake=use_rake,
                    )
                    for chunk_index, chunk_packets in enumerate(chunk_sizes)
                ]
            )
        identity = None
        if point_store is not None:
            from repro.runner.point_store import bler_cell_identity, link_identity

            link_of = lru_cache(maxsize=None)(link_identity)

            def identity(index: int) -> Dict[str, Any]:
                first = units[index][0]
                return bler_cell_identity(
                    link_of(first.config),
                    snr_db=first.snr_db,
                    chunk_sizes=chunk_sizes,
                    entropy=entropy,
                    key=cells[index].key,
                    use_rake=use_rake,
                )

        with runner_scope(runner) as active_runner:
            outcome.statistics = run_fixed_units(
                active_runner,
                simulate_link_chunk_batch,
                units,
                merge=lambda _index, chunks: merge_statistics(chunks),
                identity=identity,
                point_store=point_store,
            )
        return outcome

    raise ValueError(f"scenario kind {spec.kind!r} has no grid execution path")


# --------------------------------------------------------------------------- #
def default_tables(outcome: ScenarioOutcome) -> SweepTable:
    """The generic result table for scenarios without a custom presenter.

    Fault grids get one row per cell with the headline system metrics;
    BLER grids get one row per (cell, HARQ transmission) with the
    conditional decoding-failure probability — the Fig. 2 quantity.
    """
    spec = outcome.spec
    if spec.reference_point:
        raise ValueError(
            f"scenario {spec.name!r} uses a reference point and needs a custom presenter"
        )
    axis_fields = [axis.field for axis in spec.axes]
    metadata = {
        "scenario": spec.name,
        "scale": outcome.scale.name,
        "seed": outcome.entropy,
        "config": outcome.base_config.describe(),
        "equalizer": spec.equalizer,
        "protection": spec.protection,
        "fault_model": spec.fault_model,
    }

    if spec.kind == "fault":
        extra = [
            c
            for c in ("snr_db", "defect_rate", "num_faults")
            if c not in axis_fields
        ]
        table = SweepTable(
            title=spec.title,
            columns=axis_fields + extra + ["throughput", "avg_transmissions", "bler"],
            metadata=metadata,
        )
        for cell, point in zip(outcome.cells, outcome.points):
            row = dict(cell.values)
            row.setdefault("snr_db", point.snr_db)
            row.setdefault("defect_rate", point.defect_rate)
            row.setdefault("num_faults", point.num_faults)
            table.add_row(
                throughput=point.normalized_throughput,
                avg_transmissions=point.average_transmissions,
                bler=point.block_error_rate,
                **{k: v for k, v in row.items() if k in table.columns},
            )
        return table

    table = SweepTable(
        title=spec.title,
        columns=axis_fields + ["transmission", "failure_probability", "attempts"],
        metadata=metadata,
    )
    for cell, statistics in zip(outcome.cells, outcome.statistics):
        probabilities = statistics.failure_probability_per_transmission()
        attempts = statistics.attempts_per_transmission
        for transmission_index, probability in enumerate(probabilities):
            table.add_row(
                transmission=transmission_index + 1,
                failure_probability=float(probability),
                attempts=int(attempts[transmission_index]),
                **cell.values,
            )
    return table


def run_scenario(
    spec: ScenarioSpec,
    scale: Union[str, Scale] = "smoke",
    seed: RngLike = 2012,
    *,
    runner: RunnerLike = None,
    decoder_backend: Optional[str] = None,
    adaptive: Any = None,
    point_store: Any = None,
) -> Any:
    """Run one scenario end to end and return its tables.

    Analytical scenarios dispatch to their closed-form driver; grid
    scenarios run through :func:`run_scenario_grid` and present through
    their presenter (the figure drivers' table builders) or the generic
    :func:`default_tables`.
    """
    if spec.kind == "analytical":
        if (
            decoder_backend is not None
            or resolve_adaptive(adaptive) is not None
            or point_store is not None
        ):
            raise ValueError(
                f"scenario {spec.name!r} is analytical; decoder/adaptive/"
                "point-store arguments do not apply"
            )
        return spec.analytic(scale, seed, runner=runner)
    outcome = run_scenario_grid(
        spec,
        scale,
        seed,
        runner=runner,
        decoder_backend=decoder_backend,
        adaptive=adaptive,
        point_store=point_store,
    )
    presenter = spec.presenter or default_tables
    return presenter(outcome)
