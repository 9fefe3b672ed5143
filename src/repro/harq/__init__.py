"""Hybrid automatic repeat request (HARQ) subsystem.

Implements the LLR soft buffer (backed by the unreliable-memory model), the
soft-combining schemes (chase and incremental redundancy) and the
throughput/retransmission metrics the paper evaluates.  The HARQ state
machine itself is the batched packet loop of :mod:`repro.link.system`.
"""

from repro.harq.buffer import LlrSoftBuffer, TransmissionSoftBuffer
from repro.harq.combining import CombiningScheme, chase_combine, incremental_redundancy_combine
from repro.harq.metrics import HarqPacketResult, HarqStatistics, aggregate_results

__all__ = [
    "CombiningScheme",
    "HarqPacketResult",
    "HarqStatistics",
    "LlrSoftBuffer",
    "TransmissionSoftBuffer",
    "aggregate_results",
    "chase_combine",
    "incremental_redundancy_combine",
]
