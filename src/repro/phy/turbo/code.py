"""Convenience wrapper bundling the turbo encoder and decoder."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.phy.rate_matching import split_systematic_priority_buffer_batch
from repro.phy.turbo.decoder import TurboDecoder, TurboDecoderResult
from repro.phy.turbo.encoder import TurboEncoder
from repro.phy.turbo.trellis import RscTrellis, UMTS_TRELLIS
from repro.utils.validation import ensure_positive_int


@dataclass
class TurboCode:
    """A matched turbo encoder/decoder pair sharing one internal interleaver.

    Parameters
    ----------
    block_size:
        Information bits per code block.
    num_iterations:
        Decoder iterations.
    interleaver_kind:
        Internal interleaver construction (``"qpp"`` or ``"random"``).
    backend:
        Decoder backend name (see :mod:`repro.phy.turbo.backends`).
    """

    block_size: int
    num_iterations: int = 6
    interleaver_kind: str = "qpp"
    trellis: RscTrellis = field(default_factory=lambda: UMTS_TRELLIS)
    extrinsic_scale: float = 0.75
    backend: str = "auto"

    def __post_init__(self) -> None:
        ensure_positive_int(self.block_size, "block_size")
        self.encoder = TurboEncoder(
            self.block_size, self.interleaver_kind, trellis=self.trellis
        )
        self.decoder = TurboDecoder(
            self.block_size,
            self.num_iterations,
            trellis=self.trellis,
            interleaver=self.encoder.interleaver,
            extrinsic_scale=self.extrinsic_scale,
            backend=self.backend,
        )

    # ------------------------------------------------------------------ #
    @property
    def num_coded_bits(self) -> int:
        """Total mother-code output length (3 * block_size)."""
        return self.encoder.num_coded_bits

    @property
    def rate(self) -> float:
        """Mother code rate."""
        return self.encoder.rate

    def encode_batch(self, bits: np.ndarray) -> np.ndarray:
        """Encode each row of a ``(batch, block_size)`` bit matrix into the
        circular-buffer ordered sequence."""
        return self.encoder.encode_batch(bits)

    def decode_buffer(self, buffer_llrs: np.ndarray) -> TurboDecoderResult:
        """Decode LLRs arranged in the circular-buffer order.

        Parameters
        ----------
        buffer_llrs:
            ``(batch, 3 * block_size)`` LLRs, one block per row (systematic
            first, then the interlaced parity streams).
        """
        arr = np.asarray(buffer_llrs)
        if arr.dtype != np.float32:
            # float32 rows stay in single precision end-to-end (the backend
            # casts to its own compute dtype); everything else keeps the
            # historical float64 path bit-for-bit (zero-copy when the input
            # is already float64).
            arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != self.num_coded_bits:
            raise ValueError(
                f"expected a (batch, {self.num_coded_bits}) LLR matrix, "
                f"got shape {arr.shape}"
            )
        sys_llrs, par1, par2 = split_systematic_priority_buffer_batch(
            arr, self.block_size
        )
        return self.decoder.decode(sys_llrs, par1, par2)
