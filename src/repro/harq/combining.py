"""HARQ soft-combining schemes.

Two standard schemes are modelled:

* **Chase combining** — every (re)transmission carries the same coded bits;
  the receiver adds the LLRs of matching positions, improving the effective
  SNR by roughly 3 dB per doubling of transmissions.
* **Incremental redundancy (IR)** — retransmissions carry different
  redundancy versions; LLR addition happens in the mother-code (virtual
  buffer) domain, so combining both improves SNR on repeated bits and lowers
  the effective code rate by filling in previously punctured bits.

Both reduce to the same primitive — element-wise addition in the mother-code
domain, done by the HARQ buffer's read-combine — because the rate matcher's
de-rate-matching already scatters a transmission's LLRs onto mother-code
positions.  The schemes differ only in their redundancy-version schedule.
"""

from __future__ import annotations

from enum import Enum


class CombiningScheme(str, Enum):
    """Which redundancy-version schedule the HARQ transmitter follows."""

    #: All transmissions use redundancy version 0 (identical coded bits).
    CHASE = "chase"
    #: Transmissions cycle through redundancy versions 0, 1, 2, 3.
    INCREMENTAL_REDUNDANCY = "ir"

    def redundancy_version(self, transmission_index: int, num_versions: int = 4) -> int:
        """Redundancy version used for the given (0-based) transmission index."""
        if transmission_index < 0:
            raise ValueError("transmission_index must be non-negative")
        if self is CombiningScheme.CHASE:
            return 0
        return transmission_index % num_versions
