"""Fig. 9 — throughput under various LLR bit-widths with 10 % defects.

Compares 10-, 11- and 12-bit LLR quantization on the unprotected array at a
10 % defect rate.  Although wider words have less quantization noise, they
enlarge the LLR storage, so at a fixed defect *rate* they accumulate more
faulty cells — reproducing the paper's counter-intuitive result that the
narrower 10-bit quantization delivers the better throughput once circuit
faults are part of the design space.

The sweep is declared as a scenario grid (LLR-width x SNR axes at a fixed
defect rate; each width resolves to its own link configuration, which the
workers memoise per process) and executed through the shared
:func:`~repro.scenarios.engine.run_scenario_grid` engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.core.results import SweepTable
from repro.experiments.scales import Scale
from repro.runner.parallel import ParallelRunner
from repro.scenarios.engine import ScenarioOutcome, run_scenario_grid
from repro.scenarios.spec import ScenarioSpec, SweepAxis, resolve_link_config
from repro.utils.rng import RngLike

#: LLR word widths of the paper's Fig. 9.
DEFAULT_WIDTHS = (10, 11, 12)


@dataclass
class BitWidthPoint:
    """Result for one (LLR width, SNR) combination.

    Attributes
    ----------
    llr_bits:
        Quantizer word width.
    snr_db:
        Evaluated SNR point.
    defect_rate:
        Injected defect rate (fraction of the storage cells).
    storage_cells:
        Physical size of the LLR storage at this width.
    num_faults:
        Number of faulty cells injected (grows with the width at a fixed
        defect rate — the effect driving the paper's conclusion).
    throughput:
        Normalized throughput.
    average_transmissions:
        Average number of transmissions per packet.
    """

    llr_bits: int
    snr_db: float
    defect_rate: float
    storage_cells: int
    num_faults: int
    throughput: float
    average_transmissions: float


def best_width_per_snr(points: Sequence[BitWidthPoint]) -> dict:
    """For each SNR, the width with the highest throughput (Fig. 9 reading)."""
    best: dict = {}
    for point in points:
        current = best.get(point.snr_db)
        if current is None or point.throughput > current.throughput:
            best[point.snr_db] = point
    return {snr: point.llr_bits for snr, point in best.items()}


def _present(outcome: ScenarioOutcome) -> dict:
    """Build the Fig. 9 tables from the executed scenario grid."""
    defect_rate = outcome.spec.defect_rate
    points = []
    for cell, merged in zip(outcome.cells, outcome.points):
        cell_config = resolve_link_config(cell.spec, outcome.scale)
        points.append(
            BitWidthPoint(
                llr_bits=cell_config.llr_bits,
                snr_db=merged.snr_db,
                defect_rate=defect_rate,
                storage_cells=cell_config.llr_storage_cells,
                num_faults=merged.num_faults,
                throughput=merged.normalized_throughput,
                average_transmissions=merged.average_transmissions,
            )
        )

    table = SweepTable(
        title=f"Fig. 9 — throughput vs LLR bit-width at {defect_rate:.0%} defects (no protection)",
        columns=[
            "llr_bits",
            "snr_db",
            "storage_cells",
            "num_faults",
            "throughput",
            "avg_transmissions",
        ],
        metadata={"defect_rate": defect_rate, "seed": outcome.entropy},
    )
    for point in points:
        table.add_row(
            llr_bits=point.llr_bits,
            snr_db=point.snr_db,
            storage_cells=point.storage_cells,
            num_faults=point.num_faults,
            throughput=point.throughput,
            avg_transmissions=point.average_transmissions,
        )
    table.metadata["scale"] = outcome.scale.name
    return {"table": table, "best_width_per_snr": best_width_per_snr(points)}


#: Fig. 9 as a declarative scenario: an LLR-width axis (outer) and a
#: scale-derived SNR axis (inner) at a 10 % defect rate, no protection.
SCENARIO = ScenarioSpec(
    name="fig9",
    title="Fig. 9 — throughput vs LLR bit-width at 10% defects",
    summary="LLR quantization-width sweep on the unprotected array",
    kind="fault",
    experiment="fig9",
    defect_rate=0.10,
    axes=(SweepAxis("llr_bits", DEFAULT_WIDTHS), SweepAxis("snr_db")),
    presenter=_present,
)


def run(
    scale: Union[str, Scale] = "smoke",
    seed: RngLike = 2012,
    defect_rate: float = 0.10,
    llr_widths: Sequence[int] = DEFAULT_WIDTHS,
    snr_points_db: Sequence[float] | None = None,
    runner: Union[ParallelRunner, str, None] = None,
    decoder_backend: Optional[str] = None,
    adaptive=None,
    point_store=None,
) -> dict:
    """Run the Fig. 9 experiment.

    Every (LLR width, SNR, fault map) combination is an independent work
    item; each width gets its own link configuration, which the workers
    memoise per process.

    Returns
    -------
    dict
        ``{"table": SweepTable, "best_width_per_snr": dict}``.
    """
    spec = SCENARIO.with_updates(defect_rate=float(defect_rate)).with_axis_values(
        llr_bits=tuple(int(w) for w in llr_widths),
        snr_db=None if snr_points_db is None else tuple(float(s) for s in snr_points_db),
    )
    outcome = run_scenario_grid(
        spec, scale, seed, runner=runner, decoder_backend=decoder_backend, adaptive=adaptive,
        point_store=point_store,
    )
    return _present(outcome)


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    output = run("default")
    output["table"].print()
    print("best width per SNR:", output["best_width_per_snr"])
