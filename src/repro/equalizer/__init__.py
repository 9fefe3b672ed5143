"""Receiver front-end substrate: MMSE and RAKE equalizers."""

from repro.equalizer.mmse import MmseEqualizer, MmseEqualizerOutput
from repro.equalizer.rake import RakeReceiver

__all__ = [
    "MmseEqualizer",
    "MmseEqualizerOutput",
    "RakeReceiver",
]
