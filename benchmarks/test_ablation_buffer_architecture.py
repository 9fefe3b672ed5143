"""Ablation: HARQ soft-buffer organisation under memory defects.

DESIGN.md calls out a modelling choice the paper leaves implicit: whether the
LLR memory stores each transmission's received LLRs separately (combining on
read) or the running combined sum (virtual IR buffer).  This ablation runs
the same 10 %-defect operating point with both organisations.  In the
per-transmission organisation a faulty cell corrupts only one transmission's
contribution, so HARQ retransmissions dilute the damage — it should therefore
never do worse than the combined organisation once retransmissions happen.
"""

from repro.experiments.scales import get_scale
from repro.scenarios import ScenarioSpec, run_scenario_grid


def _throughput(architecture: str, scale, seed: int, defect_rate: float) -> dict:
    spec = ScenarioSpec(
        name=f"ablation-{architecture}",
        title=f"{architecture} LLR storage at 22 dB",
        summary="HARQ soft-buffer organisation under memory defects",
        buffer_architecture=architecture,
        snr_db=22.0,
        defect_rate=defect_rate,
    )
    # The architectures differ only statistically, so this ablation uses more
    # packets than the figure benchmarks to keep the comparison meaningful.
    outcome = run_scenario_grid(
        spec, scale.with_updates(num_packets=max(24, scale.num_packets)), seed
    )
    (point,) = outcome.points
    return {
        "architecture": architecture,
        "throughput": point.normalized_throughput,
        "avg_transmissions": point.average_transmissions,
        "storage_cells": outcome.base_config.llr_storage_cells,
    }


def test_buffer_architecture_ablation(benchmark, bench_scale, bench_seed):
    """Per-transmission vs combined LLR storage at a 10 % defect rate."""
    scale = get_scale(bench_scale)

    def run_both():
        return [
            _throughput("per-transmission", scale, bench_seed, 0.10),
            _throughput("combined", scale, bench_seed, 0.10),
        ]

    per_transmission, combined = benchmark.pedantic(run_both, iterations=1, rounds=1)
    print()
    for row in (per_transmission, combined):
        print(
            f"  {row['architecture']:>16}: throughput={row['throughput']:.3f} "
            f"avgTx={row['avg_transmissions']:.2f} cells={row['storage_cells']}"
        )

    # Both organisations keep delivering packets at 10 % defects ...
    assert per_transmission["throughput"] > 0.0
    assert combined["throughput"] >= 0.0
    # ... and distributing the faults over per-transmission copies is not
    # substantially worse than corrupting the combined values (dilution
    # through combining) — a statistical statement, hence the wide margin at
    # Monte-Carlo scales of a few dozen packets.
    assert (
        per_transmission["throughput"] >= combined["throughput"] - 0.12
    )
