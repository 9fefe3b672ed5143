"""Throughput, BLER and retransmission statistics for HARQ simulations.

The paper's two headline system metrics are the *normalized throughput*
(Fig. 6a, 7, 9) and the *average number of transmissions* per data packet
(Fig. 6b), plus the per-transmission decoding-failure probability of Fig. 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np


@dataclass
class HarqPacketResult:
    """Outcome of one packet's HARQ lifetime.

    Attributes
    ----------
    success:
        Whether the CRC passed within the transmission budget.
    num_transmissions:
        Transmissions used (including the successful one).
    decoded_bits:
        Final decoder hard decisions (payload including CRC).
    failure_history:
        ``failure_history[t]`` is ``True`` when decoding still failed after
        transmission ``t + 1``.
    """

    success: bool
    num_transmissions: int
    decoded_bits: Optional[np.ndarray] = None
    failure_history: List[bool] = field(default_factory=list)


@dataclass
class HarqStatistics:
    """Aggregated statistics over a set of simulated HARQ packet lifetimes.

    Attributes
    ----------
    num_packets:
        Number of packets simulated.
    num_successful:
        Packets whose CRC eventually passed within the transmission budget.
    total_transmissions:
        Sum of transmissions used by all packets.
    info_bits_per_packet:
        Information payload per packet (CRC excluded).
    failures_per_transmission:
        ``failures_per_transmission[t]`` is the number of packets still
        undecoded after transmission ``t + 1`` (the Fig. 2 quantity), and
        ``attempts_per_transmission[t]`` the number of packets that attempted
        that transmission.
    """

    num_packets: int
    num_successful: int
    total_transmissions: int
    info_bits_per_packet: int
    attempts_per_transmission: np.ndarray
    failures_per_transmission: np.ndarray

    # ------------------------------------------------------------------ #
    @property
    def block_error_rate(self) -> float:
        """Residual BLER after the full HARQ budget."""
        if self.num_packets == 0:
            return 0.0
        return 1.0 - self.num_successful / self.num_packets

    @property
    def average_transmissions(self) -> float:
        """Average number of transmissions per packet (Fig. 6b)."""
        if self.num_packets == 0:
            return 0.0
        return self.total_transmissions / self.num_packets

    @property
    def normalized_throughput(self) -> float:
        """Successfully delivered information per transmission opportunity.

        Defined as (successful packets) / (total transmissions used), so a
        defect-free link that always succeeds on the first attempt scores 1.0
        and the value decreases both with retransmissions and with residual
        block errors — the "normalized throughput" the paper plots, with the
        0.53-at-18-dB requirement for 64QAM.
        """
        if self.total_transmissions == 0:
            return 0.0
        return self.num_successful / self.total_transmissions

    def failure_probability_per_transmission(self) -> np.ndarray:
        """Decoding-failure probability after each transmission (Fig. 2).

        Element ``t`` is P(packet still fails after transmission ``t+1``),
        conditioned on the packet having attempted that transmission.
        """
        attempts = self.attempts_per_transmission.astype(np.float64)
        failures = self.failures_per_transmission.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            probability = np.where(attempts > 0, failures / attempts, np.nan)
        return probability


def merge_statistics(parts: Sequence[HarqStatistics]) -> HarqStatistics:
    """Merge statistics computed over disjoint packet sets into one aggregate.

    This is the reduction the parallel runner uses: every shard aggregates
    its own packets with :func:`aggregate_results`, and the merged outcome is
    identical to aggregating all packets in one call (the counters are sums
    and the per-transmission arrays are padded to the longest budget seen).
    """
    parts = list(parts)
    if not parts:
        raise ValueError("parts must not be empty")
    info_bits = {p.info_bits_per_packet for p in parts}
    if len(info_bits) != 1:
        raise ValueError(f"cannot merge statistics with mixed info bits {sorted(info_bits)}")
    max_tx = max(p.attempts_per_transmission.size for p in parts)
    attempts = np.zeros(max_tx, dtype=np.int64)
    failures = np.zeros(max_tx, dtype=np.int64)
    for p in parts:
        attempts[: p.attempts_per_transmission.size] += p.attempts_per_transmission
        failures[: p.failures_per_transmission.size] += p.failures_per_transmission
    return HarqStatistics(
        num_packets=sum(p.num_packets for p in parts),
        num_successful=sum(p.num_successful for p in parts),
        total_transmissions=sum(p.total_transmissions for p in parts),
        info_bits_per_packet=parts[0].info_bits_per_packet,
        attempts_per_transmission=attempts,
        failures_per_transmission=failures,
    )


def aggregate_results(results: Sequence[HarqPacketResult], info_bits_per_packet: int) -> HarqStatistics:
    """Build :class:`HarqStatistics` from individual packet results."""
    if not results:
        return HarqStatistics(
            num_packets=0,
            num_successful=0,
            total_transmissions=0,
            info_bits_per_packet=info_bits_per_packet,
            attempts_per_transmission=np.zeros(0, dtype=np.int64),
            failures_per_transmission=np.zeros(0, dtype=np.int64),
        )
    for result in results:
        if not isinstance(result, HarqPacketResult):
            raise TypeError(f"expected HarqPacketResult, got {type(result).__name__}")
    max_tx = max(r.num_transmissions for r in results)
    attempts = np.zeros(max_tx, dtype=np.int64)
    failures = np.zeros(max_tx, dtype=np.int64)
    for r in results:
        for t in range(r.num_transmissions):
            attempts[t] += 1
            # The packet counts as failed at transmission t if it had not yet
            # decoded successfully after that transmission.
            decoded_by_t = r.success and (t + 1 >= r.num_transmissions)
            failures[t] += int(not decoded_by_t)
    return HarqStatistics(
        num_packets=len(results),
        num_successful=sum(int(r.success) for r in results),
        total_transmissions=sum(r.num_transmissions for r in results),
        info_bits_per_packet=info_bits_per_packet,
        attempts_per_transmission=attempts,
        failures_per_transmission=failures,
    )
