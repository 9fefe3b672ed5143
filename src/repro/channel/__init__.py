"""Wireless channel substrate: ITU multipath Rayleigh channels with AWGN.

:meth:`~repro.channel.multipath.MultipathChannel.apply_batch` passes each
row of a ``(packets, samples)`` matrix through its own channel realisation;
Jakes fading waveforms and block Rayleigh gains model the time variation.
"""

from repro.channel.awgn import awgn_noise
from repro.channel.fading import (
    JakesFadingProcess,
    JakesFadingRealization,
    block_rayleigh_gains,
)
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
    "awgn_noise",
    "block_rayleigh_gains",
]
