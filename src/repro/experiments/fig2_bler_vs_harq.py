"""Fig. 2 — decoding-failure probability over HARQ retransmissions.

Reproduces the BLER-after-each-transmission curves for a low, a medium and a
high SNR regime on a defect-free system, showing that HARQ combining rescues
packets that the first transmission cannot deliver ("the LLR combination in
the HARQ unit increases the decoding probability after each retransmission").

The paper's SNR anchors are 3, 11 and 29 dB on its testbed; the same three
regimes are reproduced here relative to this simulator's operating range
(deep outage, mid-range, and first-transmission-success SNR).

The sweep is declared as a ``kind="bler"`` scenario (an SNR-regime axis over
the defect-free link) and executed through the shared
:func:`~repro.scenarios.engine.run_scenario_grid` engine: each regime's
packet budget is sharded into fixed chunks seeded by ``(regime, chunk)``
spawn keys, so results depend on neither the worker count nor the backend.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.results import SweepTable
from repro.experiments.scales import Scale
from repro.runner.parallel import ParallelRunner
from repro.scenarios.engine import ScenarioOutcome, run_scenario_grid
from repro.scenarios.spec import ScenarioSpec, SweepAxis
from repro.utils.rng import RngLike

#: SNR regimes (dB): low (outage), medium, high (mostly first-transmission success).
SNR_REGIMES_DB = (8.0, 16.0, 26.0)


def _present(outcome: ScenarioOutcome) -> SweepTable:
    """Build the Fig. 2 table from the executed scenario grid."""
    table = SweepTable(
        title="Fig. 2 — decoding failure probability vs HARQ transmission",
        columns=["snr_db", "transmission", "failure_probability", "attempts"],
        metadata={
            "scale": outcome.scale.name,
            "config": outcome.base_config.describe(),
            "seed": outcome.entropy,
        },
    )
    for cell, statistics in zip(outcome.cells, outcome.statistics):
        probabilities = statistics.failure_probability_per_transmission()
        attempts = statistics.attempts_per_transmission
        for transmission_index, probability in enumerate(probabilities):
            table.add_row(
                snr_db=float(cell.values["snr_db"]),
                transmission=transmission_index + 1,
                failure_probability=float(probability),
                attempts=int(attempts[transmission_index]),
            )
    return table


#: Fig. 2 as a declarative scenario: defect-free link, one SNR-regime axis.
SCENARIO = ScenarioSpec(
    name="fig2",
    title="Fig. 2 — decoding failure probability vs HARQ transmission",
    summary="defect-free HARQ failure probability at three SNR regimes",
    kind="bler",
    experiment="fig2",
    axes=(SweepAxis("snr_db", SNR_REGIMES_DB),),
    presenter=_present,
)


def run(
    scale: Union[str, Scale] = "smoke",
    seed: RngLike = 2012,
    snr_regimes_db=SNR_REGIMES_DB,
    runner: Union[ParallelRunner, str, None] = None,
    decoder_backend: Optional[str] = None,
    point_store=None,
) -> SweepTable:
    """Run the Fig. 2 experiment and return its data table.

    Parameters
    ----------
    scale:
        Scale preset (or name).
    seed:
        Reproducibility seed.
    snr_regimes_db:
        The three SNR regimes to simulate.
    runner:
        Execution strategy: a :class:`ParallelRunner`, an execution-backend
        name (``"serial"``, ``"process"``, ``"socket"``) or ``None``
        (in-process serial).

    Returns
    -------
    SweepTable
        One row per (SNR regime, transmission index) with the conditional
        decoding-failure probability after that transmission.
    """
    spec = SCENARIO.with_axis_values(
        snr_db=tuple(float(snr) for snr in snr_regimes_db)
    )
    outcome = run_scenario_grid(
        spec, scale, seed, runner=runner, decoder_backend=decoder_backend,
        point_store=point_store,
    )
    return _present(outcome)


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    run("default").print()
