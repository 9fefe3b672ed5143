"""Quickstart: simulate the HSPA+-like link with and without memory defects.

Runs a handful of packets through the full chain (CRC, turbo coding, rate
matching, 64QAM, multipath channel, MMSE equalization, HARQ with soft
combining) twice — once with a defect-free HARQ LLR memory and once with a
10 % defect rate — and prints the throughput / retransmission comparison.
The two operating points are one scenario grid with a defect-rate axis, run
through the same engine (and seeding) as ``python -m repro run``.

Run with::

    python examples/quickstart.py

``main("default")`` runs the larger preset (more packets, longer packets).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.scenarios import ScenarioSpec, SweepAxis, run_scenario_grid

SCENARIO = ScenarioSpec(
    name="quickstart",
    title="Defect-free vs 10% defects at 20 dB",
    summary="unprotected LLR memory with and without defects",
    snr_db=20.0,
    axes=(SweepAxis("defect_rate", (0.0, 0.10)),),
)


def main(scale: str = "smoke") -> None:
    """Run the quickstart comparison at *scale* and print a small report."""
    outcome = run_scenario_grid(SCENARIO, scale, seed=1)
    config = outcome.base_config
    print("Link configuration:", config.describe())
    print(f"HARQ LLR storage: {config.llr_storage_cells} SRAM cells")
    print()

    print(f"At {SCENARIO.snr_db:.0f} dB with {outcome.scale.num_packets} packets:")
    for label, point in zip(("defect-free", "10% defects"), outcome.points):
        print(
            f"  {label:>12}: throughput={point.normalized_throughput:.2f}  "
            f"avg transmissions={point.average_transmissions:.2f}  "
            f"residual BLER={point.block_error_rate:.2f}"
        )
    print()
    print(
        "The unprotected memory still delivers packets at a 10% defect rate, "
        "but needs more HARQ retransmissions — the inherent error resilience "
        "the paper exploits."
    )


if __name__ == "__main__":
    main()
