"""Linear MMSE equalization of frequency-selective channels.

The paper's receiver uses "a minimum mean-square error (MMSE) equalizer ...
for the generation of LLRs".  This module implements a finite-impulse-response
MMSE equalizer designed from the (known or estimated) channel impulse
response, and computes the post-equalization signal-to-interference-and-noise
ratio (SINR) needed to scale the demapper LLRs correctly.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import ensure_positive_int


@dataclass
class MmseEqualizerOutput:
    """Result of equalizing received blocks.

    :meth:`MmseEqualizer.equalize_batch` stacks one row per packet in every
    field; :meth:`MmseEqualizer.equalize` returns a single packet's row.

    Attributes
    ----------
    symbols:
        Bias-compensated symbol estimates (same scale as the transmitted
        constellation).
    effective_noise_variance:
        Residual interference-plus-noise variance *after* bias compensation;
        feed this to the soft demapper.
    sinr:
        Post-equalization SINR (linear).
    taps:
        The equalizer taps that were applied.
    """

    symbols: np.ndarray
    effective_noise_variance: "float | np.ndarray"
    sinr: "float | np.ndarray"
    taps: np.ndarray


class MmseEqualizer:
    """FIR MMSE equalizer for a known channel impulse response.

    Parameters
    ----------
    num_taps:
        Equalizer filter length.
    decision_delay:
        Delay (in samples) of the symbol the equalizer targets; ``None``
        selects the centre of the combined channel+equalizer response, which
        is close to optimal for symmetric filters.
    """

    #: Bounded size of the per-instance (channel, noise, power) -> design cache.
    DESIGN_CACHE_SIZE = 256

    def __init__(self, num_taps: int = 16, decision_delay: int | None = None) -> None:
        self.num_taps = ensure_positive_int(num_taps, "num_taps")
        if decision_delay is not None and decision_delay < 0:
            raise ValueError("decision_delay must be non-negative")
        self.decision_delay = decision_delay
        # LRU cache of solved designs keyed by the exact (impulse response
        # bytes, noise variance, signal power) triple: at a fixed operating
        # point the filter is built once and reused for every packet that
        # sees the same channel realisation (repeated equalize calls, HARQ
        # re-processing, reference evaluations) instead of re-solving.
        self._design_cache: OrderedDict = OrderedDict()

    # ------------------------------------------------------------------ #
    def _design_key(self, h: np.ndarray, noise_variance: float, signal_power: float):
        return (h.tobytes(), float(noise_variance), float(signal_power))

    def _cache_store(self, key, value) -> None:
        cache = self._design_cache
        cache[key] = value
        cache.move_to_end(key)
        while len(cache) > self.DESIGN_CACHE_SIZE:
            cache.popitem(last=False)

    def design_batch(
        self,
        impulse_responses: np.ndarray,
        noise_variances: np.ndarray,
        signal_power: float = 1.0,
    ) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
        """Compute MMSE taps for a stack of channels.

        The covariance build, the linear solve and the combined-response
        product run as batched gemm/``np.linalg.solve``/matmul calls; rows
        whose exact ``(impulse response, noise variance, signal power)``
        triple was designed before are served from the filter cache without
        re-solving.

        Returns
        -------
        tuple
            ``(taps, delay, bias, residual_variance)`` with shapes
            ``(batch, num_taps)``, scalar, ``(batch,)``, ``(batch,)`` —
            *bias* is the effective complex gain on the desired symbol;
            *residual_variance* is the variance of interference plus noise at
            the equalizer output (before bias compensation).
        """
        h2d = np.asarray(impulse_responses, dtype=np.complex128)
        if h2d.ndim != 2 or h2d.shape[1] == 0:
            raise ValueError(
                f"expected a non-empty 2-D impulse-response matrix, got shape {h2d.shape}"
            )
        nv = np.asarray(noise_variances, dtype=np.float64).reshape(-1)
        if nv.size != h2d.shape[0]:
            raise ValueError("one noise variance per impulse response required")
        if (nv < 0).any():
            raise ValueError("noise_variance must be non-negative")
        batch, channel_length = h2d.shape
        nf = self.num_taps
        num_symbols = nf + channel_length - 1
        delay = (
            self.decision_delay
            if self.decision_delay is not None
            else (num_symbols - 1) // 2
        )
        if not 0 <= delay < num_symbols:
            raise ValueError(f"decision_delay must be in [0, {num_symbols}), got {delay}")
        es = float(signal_power)

        taps = np.empty((batch, nf), dtype=np.complex128)
        bias = np.empty(batch, dtype=np.complex128)
        residual = np.empty(batch, dtype=np.float64)
        cache = self._design_cache
        keys = [self._design_key(h2d[i], nv[i], es) for i in range(batch)]
        missing = []
        for i, key in enumerate(keys):
            hit = cache.get(key)
            if hit is None:
                missing.append(i)
            else:
                cache.move_to_end(key)
                taps[i], bias[i], residual[i] = hit
        if missing:
            rows = np.asarray(missing)
            new_taps, new_bias, new_residual = self._design_rows(
                h2d[rows], nv[rows], es, delay, num_symbols
            )
            taps[rows] = new_taps
            bias[rows] = new_bias
            residual[rows] = new_residual
            for j, i in enumerate(missing):
                self._cache_store(
                    keys[i], (new_taps[j].copy(), new_bias[j], new_residual[j])
                )
        return taps, delay, bias, residual

    def _design_rows(
        self,
        h2d: np.ndarray,
        nv: np.ndarray,
        es: float,
        delay: int,
        num_symbols: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Solve the MMSE design for a stack of channels (no cache)."""
        batch, channel_length = h2d.shape
        nf = self.num_taps
        # Channel (convolution) matrix H such that the received window
        #   r_k = [r[k], ..., r[k + nf - 1]]^T
        # satisfies r_k = H s_k + n with
        #   s_k = [s[k - L + 1], ..., s[k + nf - 1]]^T  (length nf + L - 1).
        # Row i covers symbols s[k + i - L + 1 .. k + i], hence the reversed
        # channel taps: H[i, i + L - 1 - l] = h[l].
        conv_matrix = np.zeros((batch, nf, num_symbols), dtype=np.complex128)
        reversed_taps = h2d[:, ::-1]
        for i in range(nf):
            conv_matrix[:, i, i : i + channel_length] = reversed_taps
        covariance = es * (
            conv_matrix @ conv_matrix.conj().transpose(0, 2, 1)
        ) + nv[:, None, None] * np.eye(nf)
        desired = es * conv_matrix[:, :, delay]
        taps = np.linalg.solve(covariance, desired[:, :, None])[:, :, 0]

        # Effective gain on the desired symbol and total output power split.
        response = (taps.conj()[:, None, :] @ conv_matrix)[:, 0, :]
        bias = response[:, delay]
        interference = es * (
            np.sum(np.abs(response) ** 2, axis=1) - np.abs(bias) ** 2
        )
        noise_out = nv * np.sum(np.abs(taps) ** 2, axis=1)
        residual = interference + noise_out
        return taps, bias, residual

    # ------------------------------------------------------------------ #
    def equalize_batch(
        self,
        received: np.ndarray,
        impulse_responses: np.ndarray,
        noise_variances: np.ndarray,
        num_symbols: int,
        signal_power: float = 1.0,
    ) -> MmseEqualizerOutput:
        """Equalize a batch of received blocks, one packet per row.

        Parameters
        ----------
        received:
            ``(batch, n)`` received samples (``n >= num_symbols + L - 1``,
            i.e. the full convolution output).
        impulse_responses:
            ``(batch, L)`` channel impulse responses used for the design.
        noise_variances:
            Per-packet complex noise variance at the receiver input.
        num_symbols:
            Number of transmitted symbols to recover.
        signal_power:
            Average transmit symbol energy.

        The tap design runs as one stacked solve (through the filter cache);
        the filtering itself stays a per-packet ``np.convolve`` because a
        batched shifted-tap accumulation is not bit-identical to it.  A
        degenerate design (zero channel) yields zero symbols, effective noise
        ``1e30`` and SINR 0 for its row.

        Returns
        -------
        MmseEqualizerOutput
            Row-stacked fields: ``symbols`` ``(batch, num_symbols)``,
            ``effective_noise_variance`` and ``sinr`` ``(batch,)``, ``taps``
            ``(batch, num_taps)``.
        """
        r2d = np.asarray(received, dtype=np.complex128)
        h2d = np.asarray(impulse_responses, dtype=np.complex128)
        if r2d.ndim != 2 or h2d.ndim != 2 or r2d.shape[0] != h2d.shape[0]:
            raise ValueError("received and impulse_responses must be matching 2-D batches")
        taps, delay, bias, residual = self.design_batch(
            h2d, noise_variances, signal_power
        )
        batch = r2d.shape[0]
        # The design estimates s[k - L + 1 + delay] from the window
        # [r[k], ..., r[k + nf - 1]], i.e. symbol n is estimated as
        #   y[n] = sum_i conj(taps[i]) * r[n + (L - 1 - delay) + i].
        # Implemented as a full convolution with the reversed conjugate taps,
        # then sampled at offset n + nf + L - 2 - delay.
        offset = self.num_taps + h2d.shape[1] - 2 - delay
        indices = np.arange(num_symbols) + offset
        filtered_size = r2d.shape[1] + self.num_taps - 1
        if indices[-1] >= filtered_size or indices[0] < 0:
            raise ValueError("received block too short for the requested symbol count")
        raw = np.empty((batch, num_symbols), dtype=np.complex128)
        conj_taps = np.conj(taps)[:, ::-1]
        for i in range(batch):
            raw[i] = np.convolve(r2d[i], conj_taps[i])[indices]

        bias_abs2 = np.abs(bias) ** 2
        degenerate = bias_abs2 < 1e-30
        symbols = raw / np.where(degenerate, 1.0, bias)[:, None]
        symbols[degenerate] = 0.0
        effective_noise = np.where(
            degenerate, 1e30, residual / np.where(degenerate, 1.0, bias_abs2)
        )
        sinr = np.where(
            degenerate, 0.0, float(signal_power) * bias_abs2 / np.maximum(residual, 1e-30)
        )
        return MmseEqualizerOutput(
            symbols=symbols, effective_noise_variance=effective_noise, sinr=sinr, taps=taps
        )

    def equalize(
        self,
        received: np.ndarray,
        impulse_response: np.ndarray,
        noise_variance: float,
        num_symbols: int,
        signal_power: float = 1.0,
    ) -> MmseEqualizerOutput:
        """:meth:`equalize_batch` for one received block."""
        out = self.equalize_batch(
            np.asarray(received, dtype=np.complex128).reshape(1, -1),
            np.asarray(impulse_response, dtype=np.complex128).reshape(1, -1),
            [noise_variance],
            num_symbols,
            signal_power,
        )
        return MmseEqualizerOutput(
            symbols=out.symbols[0],
            effective_noise_variance=float(out.effective_noise_variance[0]),
            sinr=float(out.sinr[0]),
            taps=out.taps[0],
        )
