"""Fig. 7 — throughput after protecting various numbers of MSBs.

For a high defect rate in the unprotected 6T cells (1 % for Fig. 7(a), 10 %
for Fig. 7(b)), sweeps the number of most-significant LLR bits implemented in
robust 8T cells and measures throughput versus SNR — reproducing the finding
that protecting only 3-4 MSBs is sufficient to keep the throughput loss small
even at a 10 % defect rate.

The sweep is declared as a scenario grid (protection-depth x SNR axes at a
fixed defect rate) and executed through the shared
:func:`~repro.scenarios.engine.run_scenario_grid` engine.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.core.results import SweepTable
from repro.experiments.scales import Scale
from repro.runner.parallel import ParallelRunner
from repro.scenarios.engine import ScenarioOutcome, run_scenario_grid
from repro.scenarios.spec import ScenarioSpec, SweepAxis
from repro.utils.rng import RngLike

#: Protection depths evaluated (0 = unprotected reference, 10 = all bits).
DEFAULT_PROTECTED_BITS = (0, 2, 3, 4, 10)
#: Defect rates of the two sub-figures.
SUBFIGURE_DEFECT_RATES = {"a": 0.01, "b": 0.10}


def _present(outcome: ScenarioOutcome) -> SweepTable:
    """Build the Fig. 7 table from the executed scenario grid."""
    defect_rate = outcome.spec.defect_rate
    table = SweepTable(
        title=f"Fig. 7 — throughput vs SNR protecting k MSBs (defects {defect_rate:.0%} in 6T cells)",
        columns=["protected_bits", "snr_db", "throughput", "avg_transmissions", "bler"],
        metadata={
            "scale": outcome.scale.name,
            "defect_rate": defect_rate,
            "seed": outcome.entropy,
        },
    )
    for cell, point in zip(outcome.cells, outcome.points):
        table.add_row(
            protected_bits=int(cell.values["protected_bits"]),
            snr_db=point.snr_db,
            throughput=point.normalized_throughput,
            avg_transmissions=point.average_transmissions,
            bler=point.block_error_rate,
        )
    return table


#: Fig. 7(b) as a declarative scenario: 10 % defects in the fallible cells,
#: a protection-depth axis (outer) and a scale-derived SNR axis (inner).
SCENARIO = ScenarioSpec(
    name="fig7",
    title="Fig. 7 — throughput vs SNR protecting k MSBs at 10% defects",
    summary="MSB-protection depth sweep at a 10% defect rate",
    kind="fault",
    experiment="fig7",
    defect_rate=0.10,
    axes=(SweepAxis("protected_bits", DEFAULT_PROTECTED_BITS), SweepAxis("snr_db")),
    presenter=_present,
)


def run(
    scale: Union[str, Scale] = "smoke",
    seed: RngLike = 2012,
    defect_rate: float = 0.10,
    protected_bit_counts: Sequence[int] = DEFAULT_PROTECTED_BITS,
    snr_points_db: Sequence[float] | None = None,
    runner: Union[ParallelRunner, str, None] = None,
    decoder_backend: Optional[str] = None,
    adaptive=None,
    point_store=None,
) -> SweepTable:
    """Run one Fig. 7 sub-figure (defect_rate 0.01 -> (a), 0.10 -> (b)).

    The (protection depth x SNR x fault map) grid is decomposed into one
    work item per die, seeded by its coordinates, so serial and parallel
    runs coincide bit-for-bit.
    """
    spec = SCENARIO.with_updates(defect_rate=float(defect_rate)).with_axis_values(
        protected_bits=tuple(int(c) for c in protected_bit_counts),
        snr_db=None if snr_points_db is None else tuple(float(s) for s in snr_points_db),
    )
    outcome = run_scenario_grid(
        spec, scale, seed, runner=runner, decoder_backend=decoder_backend, adaptive=adaptive,
        point_store=point_store,
    )
    return _present(outcome)


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    run("default").print()
