"""Hybrid automatic repeat request (HARQ) subsystem.

Implements the LLR soft buffers (backed by the unreliable-memory model),
whose read-combine sums a packet's transmissions in the mother-code domain,
the redundancy-version schedules of chase combining and incremental
redundancy, and the throughput/retransmission metrics the paper evaluates.
The HARQ state machine itself is the batched packet loop of
:mod:`repro.link.system`.
"""

from repro.harq.buffer import LlrSoftBuffer, TransmissionSoftBuffer
from repro.harq.combining import CombiningScheme
from repro.harq.metrics import HarqPacketResult, HarqStatistics, aggregate_results

__all__ = [
    "CombiningScheme",
    "HarqPacketResult",
    "HarqStatistics",
    "LlrSoftBuffer",
    "TransmissionSoftBuffer",
    "aggregate_results",
]
