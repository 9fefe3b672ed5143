"""Fig. 6 — throughput (a) and average transmissions (b) under defect rates.

Sweeps the unprotected 6T LLR storage across defect rates (0 %, 0.1 %, 1 %,
10 % of the storage cells) and SNR, reproducing the two headline
observations of Section 5:

* up to ~0.1 % defects the throughput is indistinguishable from the
  defect-free system, and
* beyond the critical rate the corrupted LLRs dominate over channel noise,
  the average number of transmissions climbs and throughput collapses.

The sweep is declared as a scenario grid (defect-rate x SNR axes over the
default link) and executed through the shared
:func:`~repro.scenarios.engine.run_scenario_grid` engine; only the table
construction is figure-specific.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.core.results import SweepTable
from repro.experiments.scales import Scale
from repro.runner.parallel import ParallelRunner
from repro.scenarios.engine import ScenarioOutcome, run_scenario_grid
from repro.scenarios.spec import ScenarioSpec, SweepAxis
from repro.utils.rng import RngLike


def _present(outcome: ScenarioOutcome) -> SweepTable:
    """Build the Fig. 6 table from the executed scenario grid."""
    config = outcome.base_config
    protection_name = "unprotected-6T"
    table = SweepTable(
        title="Fig. 6 — throughput and transmissions vs SNR for defect rates (unprotected 6T)",
        columns=["defect_rate", "snr_db", "throughput", "avg_transmissions", "bler"],
        metadata={
            "protection": protection_name,
            "config": config.describe(),
            "num_packets": outcome.scale.num_packets,
            "num_fault_maps": outcome.scale.num_fault_maps,
            "scale": outcome.scale.name,
            "seed": outcome.entropy,
        },
    )
    for cell, point in zip(outcome.cells, outcome.points):
        table.add_row(
            defect_rate=float(cell.values["defect_rate"]),
            snr_db=point.snr_db,
            throughput=point.normalized_throughput,
            avg_transmissions=point.average_transmissions,
            bler=point.block_error_rate,
        )
    return table


#: Fig. 6 as a declarative scenario: the default link, no protection, a
#: defect-rate axis (outer) and an SNR axis (inner), both scale-derived.
SCENARIO = ScenarioSpec(
    name="fig6",
    title="Fig. 6 — throughput and transmissions vs SNR under defect rates",
    summary="unprotected 6T array swept over defect rates and SNR",
    kind="fault",
    experiment="fig6",
    axes=(SweepAxis("defect_rate"), SweepAxis("snr_db")),
    presenter=_present,
)


def run(
    scale: Union[str, Scale] = "smoke",
    seed: RngLike = 2012,
    defect_rates: Sequence[float] | None = None,
    snr_points_db: Sequence[float] | None = None,
    runner: Union[ParallelRunner, str, None] = None,
    decoder_backend: Optional[str] = None,
    adaptive=None,
    point_store=None,
) -> SweepTable:
    """Run the Fig. 6 experiment and return its data table.

    Each row carries both the Fig. 6(a) quantity (normalized throughput) and
    the Fig. 6(b) quantity (average number of transmissions).  The full
    (defect rate x SNR x fault map) grid is decomposed into one work item per
    die, seeded by its ``(rate, snr, map)`` coordinates, so any
    :class:`~repro.runner.parallel.ParallelRunner` worker count — and any
    execution backend (*runner* also accepts a backend name) — reproduces
    the same table bit-for-bit.  *decoder_backend* selects the turbo-decoder
    kernel; *adaptive* (``True`` or an
    :class:`~repro.runner.tasks.AdaptiveStopping`) lets confidently-resolved
    points stop before the full packet budget.
    """
    spec = SCENARIO.with_axis_values(
        defect_rate=None if defect_rates is None else tuple(float(r) for r in defect_rates),
        snr_db=None if snr_points_db is None else tuple(float(s) for s in snr_points_db),
    )
    outcome = run_scenario_grid(
        spec, scale, seed, runner=runner, decoder_backend=decoder_backend, adaptive=adaptive,
        point_store=point_store,
    )
    return _present(outcome)


def throughput_requirement_check(
    table: SweepTable, requirement: float = 0.53
) -> SweepTable:
    """For each defect rate, the lowest SNR meeting a throughput requirement.

    The paper's reading of Fig. 6(a): the 64QAM mode must reach a normalized
    throughput of 0.53; the check reports where each defect-rate curve first
    meets it.
    """
    summary = SweepTable(
        title=f"Fig. 6 — lowest SNR meeting throughput >= {requirement}",
        columns=["defect_rate", "snr_meeting_requirement"],
        metadata={"requirement": requirement},
    )
    by_rate: dict = {}
    for row in table.rows:
        by_rate.setdefault(row["defect_rate"], []).append(row)
    for defect_rate, rows in sorted(by_rate.items()):
        meeting = [r["snr_db"] for r in rows if r["throughput"] >= requirement]
        summary.add_row(
            defect_rate=defect_rate,
            snr_meeting_requirement=min(meeting) if meeting else float("nan"),
        )
    return summary


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    data = run("default")
    data.print()
    throughput_requirement_check(data).print()
