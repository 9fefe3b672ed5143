"""Fig. 8 — protection efficiency (throughput gain per area overhead).

At the SNR where the unprotected system suffers its worst relative throughput
penalty and a 10 % defect rate, sweeps the number of protected MSBs and
reports throughput gain (relative to the defect-free system), hybrid-array
area overhead and their ratio — reproducing the conclusion that protecting
4 bits (~12-13 % overhead with 8T cells) is the optimum and that full ECC is
less efficient.

The sweep is declared as a scenario grid (a protection-depth axis plus the
prepended defect-free reference cell) and executed through the shared
:func:`~repro.scenarios.engine.run_scenario_grid` engine; the efficiency
arithmetic stays in the presenter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.core.protection import EccProtection, MsbProtection
from repro.core.results import SweepTable
from repro.experiments.scales import Scale
from repro.memory.power import AreaModel
from repro.runner.parallel import ParallelRunner
from repro.scenarios.engine import ScenarioOutcome, run_scenario_grid
from repro.scenarios.spec import ScenarioSpec, SweepAxis
from repro.utils.rng import RngLike

#: Protection depths evaluated along the Fig. 8 x-axis.
DEFAULT_PROTECTED_BITS = (1, 2, 3, 4, 6, 8, 10)


@dataclass
class ProtectionEfficiencyPoint:
    """Outcome for one number of protected MSBs.

    Attributes
    ----------
    protected_bits:
        Number of MSBs stored in robust cells.
    throughput:
        Normalized throughput at the evaluated (SNR, defect-rate) point.
    throughput_gain:
        Throughput relative to the defect-free reference (<= 1 in practice).
    area_overhead:
        Hybrid-array area overhead over the all-6T array.
    efficiency:
        ``throughput_gain / area_overhead`` (the paper's Fig. 8 y-axis);
        infinite for zero overhead, reported as ``nan`` there.
    """

    protected_bits: int
    throughput: float
    throughput_gain: float
    area_overhead: float
    efficiency: float


def optimum_protection_depth(
    points: Sequence[ProtectionEfficiencyPoint], gain_tolerance: float = 0.05
) -> int:
    """Smallest protection depth within *gain_tolerance* of the best gain.

    The paper's reading of Fig. 8: once throughput has (essentially)
    recovered, adding more protected bits only adds area.
    """
    if not points:
        raise ValueError("points must not be empty")
    best_gain = max(p.throughput_gain for p in points)
    eligible = [p for p in points if p.throughput_gain >= best_gain - gain_tolerance]
    return min(p.protected_bits for p in eligible)


def ecc_comparison(llr_bits: int, area_model: AreaModel) -> dict:
    """Area overhead of full-word ECC versus MSB protection (Section 6.2)."""
    ecc = EccProtection(bits_per_word=llr_bits)
    msb4 = MsbProtection(bits_per_word=llr_bits, protected_msbs=4)
    return {
        "ecc_overhead": ecc.area_overhead(area_model),
        "msb4_overhead": msb4.area_overhead(area_model),
        "ecc_parity_bits": ecc.ecc.num_parity_bits,
    }


def _present(outcome: ScenarioOutcome) -> dict:
    """Build the Fig. 8 tables (sweep, optimum depth, ECC comparison)."""
    config = outcome.base_config
    spec = outcome.spec
    area_model = AreaModel()
    reference = outcome.points[0].normalized_throughput
    counts = [int(cell.values["protected_bits"]) for cell in outcome.cells[1:]]
    points = []
    for count, merged in zip(counts, outcome.points[1:]):
        overhead = area_model.hybrid_overhead(config.llr_bits, count)
        gain = merged.normalized_throughput / reference if reference > 0 else float("nan")
        points.append(
            ProtectionEfficiencyPoint(
                protected_bits=count,
                throughput=merged.normalized_throughput,
                throughput_gain=gain,
                area_overhead=overhead,
                efficiency=gain / overhead if overhead > 0 else float("nan"),
            )
        )

    table = SweepTable(
        title=f"Fig. 8 — protection efficiency at {spec.snr_db:.0f} dB, {spec.defect_rate:.0%} defects",
        columns=["protected_bits", "throughput", "throughput_gain", "area_overhead", "efficiency"],
        metadata={
            "scale": outcome.scale.name,
            "snr_db": spec.snr_db,
            "defect_rate": spec.defect_rate,
            "seed": outcome.entropy,
        },
    )
    for point in points:
        table.add_row(
            protected_bits=point.protected_bits,
            throughput=point.throughput,
            throughput_gain=point.throughput_gain,
            area_overhead=point.area_overhead,
            efficiency=point.efficiency,
        )
    return {
        "table": table,
        "optimum_bits": optimum_protection_depth(points),
        "ecc": ecc_comparison(config.llr_bits, area_model),
    }


#: Fig. 8 as a declarative scenario: one protection-depth axis at a fixed
#: (SNR, defect-rate) operating point, plus the defect-free reference cell
#: (spawn key 0; axis cells are keyed 1 + i — the historical layout).
SCENARIO = ScenarioSpec(
    name="fig8",
    title="Fig. 8 — protection efficiency (throughput gain per area overhead)",
    summary="protection-depth efficiency sweep against the defect-free reference",
    kind="fault",
    experiment="fig8",
    snr_db=14.0,
    defect_rate=0.10,
    axes=(SweepAxis("protected_bits", DEFAULT_PROTECTED_BITS),),
    reference_point=True,
    presenter=_present,
)


def run(
    scale: Union[str, Scale] = "smoke",
    seed: RngLike = 2012,
    snr_db: float = 14.0,
    defect_rate: float = 0.10,
    protected_bit_counts: Sequence[int] = DEFAULT_PROTECTED_BITS,
    runner: Union[ParallelRunner, str, None] = None,
    decoder_backend: Optional[str] = None,
    adaptive=None,
    point_store=None,
) -> dict:
    """Run the Fig. 8 experiment.

    The defect-free reference and every protection depth become independent
    work items (one per fault map), so the whole figure parallelises; the
    efficiency arithmetic stays in the presenter.

    Returns
    -------
    dict
        ``{"table": SweepTable, "optimum_bits": int, "ecc": dict}`` — the
        efficiency sweep, the optimum protection depth it implies, and the
        Section 6.2 ECC-overhead comparison.
    """
    spec = SCENARIO.with_updates(
        snr_db=float(snr_db), defect_rate=float(defect_rate)
    ).with_axis_values(protected_bits=tuple(int(c) for c in protected_bit_counts))
    outcome = run_scenario_grid(
        spec, scale, seed, runner=runner, decoder_backend=decoder_backend, adaptive=adaptive,
        point_store=point_store,
    )
    return _present(outcome)


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    output = run("default")
    output["table"].print()
    print("optimum protected bits:", output["optimum_bits"])
    print("ECC comparison:", output["ecc"])
