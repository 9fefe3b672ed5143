"""Rate-1/3 parallel-concatenated (turbo) encoder."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.phy.rate_matching import make_systematic_priority_buffer_batch
from repro.phy.turbo.interleaver import TurboInterleaver, make_turbo_interleaver
from repro.phy.turbo.trellis import RscTrellis, UMTS_TRELLIS
from repro.utils.validation import ensure_bit_array, ensure_positive_int


@dataclass(frozen=True)
class TurboEncoder:
    """UMTS-style rate-1/3 turbo encoder.

    Two identical RSC encoders operate on the information sequence and on its
    internally interleaved copy.  The output consists of three equal-length
    streams: the systematic bits, parity stream 1 (from the first encoder)
    and parity stream 2 (from the second encoder).

    The encoders are left unterminated (no tail bits).  The corresponding
    max-log-MAP decoders initialise the backward recursion uniformly, which
    costs a negligible fraction of a dB for the block lengths used here and
    keeps every stream exactly ``block_size`` bits long — which in turn keeps
    the HARQ circular buffer and the fault-injection address map simple.

    Parameters
    ----------
    block_size:
        Number of information bits per code block.
    interleaver_kind:
        ``"qpp"`` or ``"random"`` internal interleaver construction.
    trellis:
        Constituent-code trellis (UMTS (13, 15) by default).
    """

    block_size: int
    interleaver_kind: str = "qpp"
    trellis: RscTrellis = UMTS_TRELLIS
    interleaver: TurboInterleaver = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        ensure_positive_int(self.block_size, "block_size")
        object.__setattr__(
            self,
            "interleaver",
            make_turbo_interleaver(self.block_size, self.interleaver_kind),
        )

    @property
    def rate(self) -> float:
        """Mother code rate (1/3)."""
        return 1.0 / 3.0

    @property
    def num_coded_bits(self) -> int:
        """Total number of coded bits per block (3 * block_size)."""
        return 3 * self.block_size

    def encode_streams_batch(
        self, bits: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Encode each row of a ``(batch, block_size)`` matrix into
        ``(systematic, parity1, parity2)`` stream matrices."""
        info = np.asarray(bits, dtype=np.int8)
        if info.ndim != 2 or info.shape[1] != self.block_size:
            raise ValueError(
                f"expected shape (batch, {self.block_size}), got {info.shape}"
            )
        # Both constituent encoders run as one sweep over the stacked rows.
        interleaved = info[:, self.interleaver.permutation]
        parity, _ = self.trellis.encode_bits_batch(np.concatenate([info, interleaved]))
        batch = info.shape[0]
        return info.copy(), parity[:batch], parity[batch:]

    def encode_batch(self, bits: np.ndarray) -> np.ndarray:
        """Encode each row of a ``(batch, block_size)`` bit matrix.

        The output order is the circular-buffer order used by the rate
        matcher: all systematic bits first, then the two parity streams
        interlaced (see
        :func:`repro.phy.rate_matching.make_systematic_priority_buffer_batch`).
        """
        return make_systematic_priority_buffer_batch(*self.encode_streams_batch(bits))

    def encode(self, bits: np.ndarray) -> np.ndarray:
        """:meth:`encode_batch` for one bit vector."""
        return self.encode_batch(ensure_bit_array(bits)[None])[0]
