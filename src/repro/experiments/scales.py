"""Scale presets shared by all experiment drivers.

Monte-Carlo link simulation cost grows with packet size, packet count, SNR
points and HARQ budget; the presets trade smoothness of the curves against
run time without changing any structural parameter of the study.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Sequence, Tuple

from repro.link.config import LinkConfig


@dataclass(frozen=True)
class Scale:
    """A named simulation scale.

    Attributes
    ----------
    name:
        Preset identifier.
    payload_bits:
        Information bits per packet (before CRC).
    num_packets:
        Monte-Carlo packets per operating point.
    num_fault_maps:
        Independent fault maps (dies) per operating point.
    turbo_iterations:
        Turbo-decoder iterations.
    snr_points_db:
        SNR grid used by the throughput-versus-SNR figures.
    defect_rates:
        Defect-rate grid used by the defect sweeps (fractions of the
        fallible LLR-storage cells).
    """

    name: str
    payload_bits: int
    num_packets: int
    num_fault_maps: int
    turbo_iterations: int
    snr_points_db: Tuple[float, ...]
    defect_rates: Tuple[float, ...]

    def link_config(self, **overrides) -> LinkConfig:
        """Build the default :class:`~repro.link.config.LinkConfig` at this scale.

        ``None``-valued overrides mean "keep the default", so drivers can
        forward optional keywords (e.g. ``decoder_backend``) unconditionally.

        The LLR dtype default is scale-dependent: the smoke scale pins
        ``float64`` (its results are the byte-level golden/identity
        reference), while the larger scales default to ``float32`` — paired
        float64/float32 sweeps across the BLER waterfall agree within 0.05
        (``tests/test_scenarios.py::TestFloat32LinkMode``), and it halves
        the LLR bandwidth of the dominant Monte-Carlo runs.  An explicit
        ``llr_dtype`` override always wins.
        """
        config = LinkConfig(
            payload_bits=self.payload_bits,
            crc_bits=16,
            turbo_iterations=self.turbo_iterations,
        )
        overrides = {key: value for key, value in overrides.items() if value is not None}
        if "llr_dtype" not in overrides and self.name != "smoke":
            overrides["llr_dtype"] = "float32"
        if overrides:
            config = config.with_updates(**overrides)
        return config

    def with_updates(self, **kwargs) -> "Scale":
        """Copy of the scale with selected fields replaced."""
        return replace(self, **kwargs)


#: Seconds-level preset used by the test suite and pytest-benchmark runs.
SMOKE = Scale(
    name="smoke",
    payload_bits=120,
    num_packets=8,
    num_fault_maps=2,
    turbo_iterations=4,
    snr_points_db=(8.0, 14.0, 20.0, 26.0),
    defect_rates=(0.0, 0.001, 0.01, 0.10),
)

#: Minutes-level preset with a denser grid for day-to-day exploration.
DEFAULT = Scale(
    name="default",
    payload_bits=296,
    num_packets=32,
    num_fault_maps=2,
    turbo_iterations=5,
    snr_points_db=(6.0, 9.0, 12.0, 15.0, 18.0, 21.0, 24.0, 27.0),
    defect_rates=(0.0, 0.001, 0.01, 0.05, 0.10),
)

#: The preset used to regenerate the numbers recorded in EXPERIMENTS.md.
PAPER = Scale(
    name="paper",
    payload_bits=488,
    num_packets=96,
    num_fault_maps=4,
    turbo_iterations=6,
    snr_points_db=(5.0, 8.0, 11.0, 14.0, 17.0, 20.0, 23.0, 26.0, 29.0),
    defect_rates=(0.0, 0.0001, 0.001, 0.01, 0.05, 0.10),
)

#: Registry of the built-in scales by name.
SCALES: Dict[str, Scale] = {scale.name: scale for scale in (SMOKE, DEFAULT, PAPER)}


def get_scale(scale: "str | Scale") -> Scale:
    """Resolve a scale given by name or passed through unchanged."""
    if isinstance(scale, Scale):
        return scale
    try:
        return SCALES[scale]
    except KeyError as exc:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}") from exc
