"""HSPA+-like baseband receiver chain (front end).

Implements the receive side of the paper's Fig. 1(a) up to the HARQ buffer:
MMSE equalization (or RAKE combining), soft QAM demapping into LLRs,
channel de-interleaving and de-rate-matching into the mother-code domain.
Turbo decoding and CRC checking happen after HARQ combining and are driven
by :class:`repro.link.system.HspaLikeLink`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.equalizer.mmse import MmseEqualizer
from repro.equalizer.rake import RakeReceiver
from repro.link.config import LinkConfig
from repro.link.transmitter import Transmitter
from repro.phy.spreading import Spreader


class Receiver:
    """Receive chain for one :class:`~repro.link.config.LinkConfig`.

    Parameters
    ----------
    config:
        Link operating mode.
    transmitter:
        The matching transmitter — shared so that the rate matcher and
        channel interleaver permutations are identical on both sides.
    use_rake:
        Use the RAKE baseline instead of the MMSE equalizer.
    """

    def __init__(
        self,
        config: LinkConfig,
        transmitter: Transmitter,
        *,
        use_rake: bool = False,
    ) -> None:
        self.config = config
        self.transmitter = transmitter
        self.use_rake = use_rake
        self.equalizer = MmseEqualizer(num_taps=config.equalizer_taps)
        self.rake = RakeReceiver()
        self.spreader: Optional[Spreader] = transmitter.spreader

    # ------------------------------------------------------------------ #
    def equalize_batch(
        self,
        received: np.ndarray,
        impulse_responses: np.ndarray,
        noise_variances: np.ndarray,
        fading_gains: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Recover each packet's transmitted symbols and post-detection noise.

        Returns ``(symbols, effective_noise)`` where *symbols* is
        ``(batch, num_symbols)`` and *effective_noise* is per-packet
        ``(batch,)`` or per-symbol ``(batch, num_symbols)``.

        With *fading_gains* (the per-sample intra-packet fading waveform the
        transmit samples were modulated with), the receiver compensates each
        recovered sample with perfect CSI: samples are divided by their gain
        and the effective noise variance becomes per-symbol — a deep fade
        yields near-zero LLRs rather than confidently wrong ones.
        """
        num_samples = self.config.symbols_per_transmission
        if self.spreader is not None:
            num_samples *= self.spreader.spreading_factor
        r2d = np.asarray(received, dtype=np.complex128)
        if r2d.ndim != 2:
            raise ValueError(f"expected a 2-D received matrix, got shape {r2d.shape}")
        nv = np.asarray(noise_variances, dtype=np.float64).reshape(-1)
        if self.use_rake:
            symbols, effective_noise = self.rake.combine_batch(
                r2d, impulse_responses, nv, num_samples
            )
        else:
            output = self.equalizer.equalize_batch(r2d, impulse_responses, nv, num_samples)
            symbols, effective_noise = output.symbols, output.effective_noise_variance
        if fading_gains is not None:
            gains = np.asarray(fading_gains, dtype=np.complex128)
            if gains.shape != symbols.shape:
                raise ValueError(
                    f"fading_gains shape {gains.shape} does not match "
                    f"recovered sample matrix {symbols.shape}"
                )
            gain_power = np.maximum(np.abs(gains) ** 2, 1e-30)
            symbols = symbols * np.conj(gains) / gain_power
            effective_noise = effective_noise[:, None] / gain_power
        if self.spreader is not None:
            symbols = self.spreader.despread_batch(symbols)
            # Despreading averages SF chips, reducing the noise variance:
            # Var(mean of SF chips) = mean(per-chip variance) / SF.
            sf = self.spreader.spreading_factor
            if effective_noise.ndim == 2:
                effective_noise = (
                    effective_noise.reshape(effective_noise.shape[0], -1, sf).mean(axis=2)
                    / sf
                )
            else:
                effective_noise = effective_noise / sf
        return symbols, effective_noise

    def demap_batch(
        self, symbols: np.ndarray, effective_noise_variances: np.ndarray
    ) -> np.ndarray:
        """Soft-demap equalized symbols into channel-bit LLRs, one row per packet.

        The max-log demapper is elementwise per symbol, so the flattened batch
        is demapped in one pass.  *effective_noise_variances* is per-packet
        ``(batch,)`` or per-symbol ``(batch, num_symbols)``.  The output dtype
        follows :attr:`LinkConfig.llr_dtype`, so the opt-in float32 mode
        rounds the LLRs once here and keeps the rest of the receive chain in
        single precision.
        """
        sym = np.asarray(symbols, dtype=np.complex128)
        if sym.ndim != 2:
            raise ValueError(f"expected a 2-D symbol matrix, got shape {sym.shape}")
        noise = np.asarray(effective_noise_variances, dtype=np.float64)
        if noise.ndim == 1:
            noise = np.broadcast_to(noise[:, None], sym.shape)
        elif noise.shape != sym.shape:
            raise ValueError(
                f"noise variance shape {noise.shape} does not match symbols {sym.shape}"
            )
        flat = self.config.modulator.demodulate_soft(
            sym.reshape(-1), np.ascontiguousarray(noise).reshape(-1)
        )
        llrs = flat.reshape(sym.shape[0], -1)
        llrs = llrs[:, : self.config.channel_bits_per_transmission]
        dtype = self.config.llr_numpy_dtype
        if llrs.dtype != dtype:
            llrs = llrs.astype(dtype)
        return llrs

    def to_mother_domain_batch(
        self, channel_llrs: np.ndarray, redundancy_version: int
    ) -> np.ndarray:
        """De-interleave and de-rate-match each row of channel LLRs."""
        deinterleaved = self.transmitter.channel_interleaver.deinterleave_batch(channel_llrs)
        return self.transmitter.rate_matcher.derate_match_batch(
            deinterleaved, redundancy_version
        )

    # ------------------------------------------------------------------ #
    def front_end_batch(
        self,
        received: np.ndarray,
        impulse_responses: np.ndarray,
        noise_variances: np.ndarray,
        fading_gains: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Equalize and demap a whole round into channel-bit LLRs.

        These are the LLRs the HARQ memory stores in the per-transmission
        buffer organisation (before de-interleaving / de-rate-matching).
        """
        symbols, effective_noise = self.equalize_batch(
            received, impulse_responses, noise_variances, fading_gains=fading_gains
        )
        return self.demap_batch(symbols, effective_noise)

    def decode_batch(self, combined_rows: np.ndarray):
        """Turbo-decode a batch of combined LLR rows and CRC-check each.

        This is the aggregation point of the receive chain: the link layer
        pools the active packets of *many* simulation groups (work-item
        chunks, HARQ attempts at the same combining state) into one call, so
        the decoder runs at the widest batch available.  Because the decoder
        processes rows independently, the result for each packet is
        identical to decoding it alone.

        Returns
        -------
        tuple
            ``(decoded_blocks, crc_ok, decoder_result)`` where
            ``decoded_blocks`` has shape ``(batch, block_size)`` and
            ``crc_ok`` is a boolean array of per-row CRC outcomes.
        """
        result = self.transmitter.turbo.decode_buffer(combined_rows)
        decoded = result.decoded_bits
        crc_ok = self.config.crc.check_batch(np.asarray(decoded))
        return decoded, crc_ok, result
