"""Wireless channel substrate: ITU multipath Rayleigh channels with AWGN.

:meth:`~repro.channel.multipath.MultipathChannel.apply_batch` passes each
row of a ``(packets, samples)`` matrix through its own block Rayleigh
channel realisation; Jakes fading waveforms model intra-packet variation.
"""

from repro.channel.fading import JakesFadingProcess, JakesFadingRealization
from repro.channel.multipath import (
    ITU_PEDESTRIAN_A,
    ITU_PEDESTRIAN_B,
    ITU_VEHICULAR_A,
    MultipathChannel,
    PowerDelayProfile,
    SINGLE_PATH,
)

__all__ = [
    "ITU_PEDESTRIAN_A",
    "ITU_PEDESTRIAN_B",
    "ITU_VEHICULAR_A",
    "JakesFadingProcess",
    "JakesFadingRealization",
    "MultipathChannel",
    "PowerDelayProfile",
    "SINGLE_PATH",
]
