"""Joint choice of LLR quantization width and defect tolerance (Section 6.4).

Compares 10-, 11- and 12-bit LLR storage with and without a 10 % defect rate,
showing that the conventional "more bits are safer" rule inverts once
hardware faults scale with the memory size.  Both sweeps are the Fig. 9
scenario grid at two defect rates.

Run with::

    python examples/bitwidth_exploration.py

``main("default")`` runs the larger preset (more packets, longer packets).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments import fig9_bitwidth
from repro.scenarios import run_scenario

SNR_POINTS_DB = (20.0, 26.0)


def _sweep(defect_rate: float, scale: str) -> dict:
    spec = fig9_bitwidth.SCENARIO.with_updates(defect_rate=defect_rate).with_axis_values(
        snr_db=SNR_POINTS_DB
    )
    return run_scenario(spec, scale, seed=3)


def main(scale: str = "smoke") -> None:
    """Run the bit-width exploration at *scale* and print the comparison."""
    print("=== Defect-free reference ===")
    clean = _sweep(0.0, scale)["table"]
    for row in clean.rows:
        print(
            f"  {row['llr_bits']:2d} bits @ {row['snr_db']:4.1f} dB: "
            f"throughput={row['throughput']:.2f} (storage {row['storage_cells']} cells)"
        )
    print()

    print("=== With 10% defects, no protection ===")
    faulty = _sweep(0.10, scale)
    for row in faulty["table"].rows:
        print(
            f"  {row['llr_bits']:2d} bits @ {row['snr_db']:4.1f} dB: "
            f"throughput={row['throughput']:.2f}  faults={row['num_faults']}"
        )
    print()
    print("Best width per SNR under defects:", faulty["best_width_per_snr"])
    print(
        "Wider words enlarge the storage and accumulate more faults at the same "
        "defect rate, so the narrower quantization wins — circuit limitations "
        "belong in the quantization decision."
    )


if __name__ == "__main__":
    main()
