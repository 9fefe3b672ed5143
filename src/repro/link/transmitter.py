"""HSPA+-like baseband transmitter chain.

Implements the transmit side of the paper's Fig. 1(a): CRC attachment, turbo
encoding, rate matching with a redundancy version, channel interleaving,
QAM mapping and (optionally) OVSF spreading and RRC pulse shaping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.link.config import LinkConfig
from repro.phy.interleaving import ChannelInterleaver
from repro.phy.pulse_shaping import PulseShaper
from repro.phy.rate_matching import RateMatcher
from repro.phy.spreading import Spreader
from repro.phy.turbo import TurboCode
from repro.utils.rng import RngLike, as_rng


@dataclass
class EncodedPacket:
    """A packet after CRC attachment and turbo encoding.

    The coded buffer is computed once per packet; each (re)transmission only
    re-runs the (cheap) rate matching, interleaving and mapping stages with
    its redundancy version.
    """

    payload: np.ndarray
    payload_with_crc: np.ndarray
    coded_buffer: np.ndarray


class Transmitter:
    """Transmit chain for one :class:`~repro.link.config.LinkConfig`.

    Parameters
    ----------
    config:
        Link operating mode.
    turbo:
        Optionally share a pre-built :class:`~repro.phy.turbo.TurboCode`
        (the receiver must use the same internal interleaver).
    """

    def __init__(self, config: LinkConfig, turbo: Optional[TurboCode] = None) -> None:
        self.config = config
        self.turbo = turbo or TurboCode(
            config.block_size,
            num_iterations=config.turbo_iterations,
            backend=config.decoder_backend,
        )
        self.rate_matcher = RateMatcher(
            num_coded_bits=config.num_coded_bits,
            num_output_bits=config.channel_bits_per_transmission,
        )
        self.channel_interleaver = ChannelInterleaver(config.interleaver_columns)
        self.spreader = (
            Spreader(config.spreading_factor) if config.spreading_factor > 1 else None
        )
        self.pulse_shaper: Optional[PulseShaper] = None

    # ------------------------------------------------------------------ #
    def random_payload(self, rng: RngLike = None) -> np.ndarray:
        """Generate a uniformly random payload of the configured size."""
        return as_rng(rng).integers(0, 2, self.config.payload_bits, dtype=np.int8)

    def encode_batch(self, payloads) -> list[EncodedPacket]:
        """CRC-attach and turbo-encode a batch of payloads in one pass.

        The CRC runs as one GF(2) matrix product and the trellises sweep
        column-wise across the whole batch.
        """
        rows = []
        for payload in payloads:
            bits = np.asarray(payload)
            if bits.ndim != 1:
                raise ValueError(
                    f"payload must be one-dimensional, got shape {bits.shape}"
                )
            if bits.size != self.config.payload_bits:
                raise ValueError(
                    f"expected {self.config.payload_bits} payload bits, got {bits.size}"
                )
            rows.append(bits)
        if not rows:
            return []
        stacked = np.stack(rows)
        if not ((stacked == 0) | (stacked == 1)).all():
            raise ValueError("payload must contain only 0s and 1s")
        stacked = stacked.astype(np.int8)
        with_crc = self.config.crc.attach_batch(stacked)
        coded = self.turbo.encode_batch(with_crc)
        return [
            EncodedPacket(
                payload=stacked[i], payload_with_crc=with_crc[i], coded_buffer=coded[i]
            )
            for i in range(stacked.shape[0])
        ]

    def encode(self, payload: np.ndarray) -> EncodedPacket:
        """:meth:`encode_batch` for one payload."""
        return self.encode_batch([payload])[0]

    # ------------------------------------------------------------------ #
    def transmission_bits_batch(
        self, packets: list[EncodedPacket], redundancy_version: int
    ) -> np.ndarray:
        """Rate-matched and channel-interleaved bits of one (re)transmission,
        one row per packet."""
        coded = np.stack([p.coded_buffer for p in packets])
        selected = self.rate_matcher.rate_match_batch(coded, redundancy_version)
        return self.channel_interleaver.interleave_batch(selected)

    def modulate_batch(self, channel_bits: np.ndarray) -> np.ndarray:
        """Map a ``(batch, num_bits)`` bit matrix to (optionally spread) samples.

        The QAM mapper is elementwise over bit groups, so the flattened batch
        is mapped in one pass and reshaped.
        """
        bits = np.asarray(channel_bits)
        if bits.ndim != 2:
            raise ValueError(f"expected a 2-D bit matrix, got shape {bits.shape}")
        batch = bits.shape[0]
        symbols = self.config.modulator.modulate(bits.reshape(-1))
        symbols = symbols.reshape(batch, -1)
        if self.spreader is not None:
            symbols = self.spreader.spread_batch(symbols)
        if self.pulse_shaper is not None:
            symbols = np.stack([self.pulse_shaper.shape(row) for row in symbols])
        return symbols

    def transmit_batch(
        self, packets: list[EncodedPacket], redundancy_version: int
    ) -> np.ndarray:
        """Produce the transmit sample matrix of one batched (re)transmission."""
        return self.modulate_batch(self.transmission_bits_batch(packets, redundancy_version))

    def transmission_bits(self, packet: EncodedPacket, redundancy_version: int) -> np.ndarray:
        """:meth:`transmission_bits_batch` for one packet."""
        return self.transmission_bits_batch([packet], redundancy_version)[0]

    def transmit(self, packet: EncodedPacket, redundancy_version: int) -> np.ndarray:
        """:meth:`transmit_batch` for one packet."""
        return self.transmit_batch([packet], redundancy_version)[0]
