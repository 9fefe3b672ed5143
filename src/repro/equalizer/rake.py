"""RAKE receiver (maximum-ratio combining of channel taps).

The classical CDMA receiver: one finger per resolvable multipath tap, each
despreading the chip stream at its delay, combined with maximum-ratio
weights.  It serves as the lower-complexity baseline against the MMSE
equalizer — it suffers from inter-path interference at high data rates, which
is exactly why HSPA+ terminals use equalizers for 64QAM operation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class RakeReceiver:
    """Maximum-ratio combining RAKE receiver for a known impulse response.

    Parameters
    ----------
    max_fingers:
        Maximum number of fingers (strongest taps are selected).
    """

    max_fingers: int = 8

    def __post_init__(self) -> None:
        if self.max_fingers <= 0:
            raise ValueError("max_fingers must be positive")

    def finger_delays(self, impulse_response: np.ndarray) -> np.ndarray:
        """Delays (sample indices) of the selected fingers, strongest first."""
        h = np.asarray(impulse_response, dtype=np.complex128).reshape(-1)
        powers = np.abs(h) ** 2
        nonzero = np.nonzero(powers > 0)[0]
        order = nonzero[np.argsort(powers[nonzero])[::-1]]
        return order[: self.max_fingers]

    def combine_batch(
        self,
        received: np.ndarray,
        impulse_responses: np.ndarray,
        noise_variances: np.ndarray,
        num_symbols: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """MRC-combine the received samples of a batch of packets.

        Finger selection is per packet (the order is a per-realisation power
        sort).  Packets are grouped by finger count, and each group
        accumulates its fingers across the whole group in finger order, so
        every row sums exactly the terms a lone packet would, in the same
        order.  A packet with no non-zero tap gets zero symbols and infinite
        noise variance.

        Returns
        -------
        tuple
            ``(symbols, effective_noise_variance)`` with shapes
            ``(batch, num_symbols)`` and ``(batch,)`` — symbol estimates
            after normalising the combined channel gain, and the per-symbol
            effective noise variance (ignoring inter-path interference, which
            is the RAKE's intrinsic approximation).
        """
        r2d = np.asarray(received, dtype=np.complex128)
        h2d = np.asarray(impulse_responses, dtype=np.complex128)
        if r2d.ndim != 2 or h2d.ndim != 2 or r2d.shape[0] != h2d.shape[0]:
            raise ValueError("received and impulse_responses must be matching 2-D batches")
        nv = np.asarray(noise_variances, dtype=np.float64).reshape(-1)
        batch = r2d.shape[0]
        delay_rows = [self.finger_delays(h2d[i]) for i in range(batch)]
        finger_counts = np.array([d.size for d in delay_rows])
        symbols = np.zeros((batch, num_symbols), dtype=np.complex128)
        effective_noise = np.full(batch, np.inf)
        sample_range = np.arange(num_symbols)
        for count in np.unique(finger_counts[finger_counts > 0]):
            rows = np.flatnonzero(finger_counts == count)
            delays = np.stack([delay_rows[i] for i in rows])
            finger_gains = h2d[rows[:, None], delays]  # (rows, fingers), finger order
            total_gain = np.sum(np.abs(finger_gains) ** 2, axis=1)
            combined = np.zeros((rows.size, num_symbols), dtype=np.complex128)
            for k in range(count):
                cols = delays[:, k][:, None] + sample_range[None, :]
                valid = cols < r2d.shape[1]
                segment = np.where(
                    valid, r2d[rows[:, None], np.minimum(cols, r2d.shape[1] - 1)], 0.0
                )
                combined += np.conj(finger_gains[:, k])[:, None] * segment
            symbols[rows] = combined / total_gain[:, None]
            effective_noise[rows] = nv[rows] / total_gain
        return symbols, effective_noise

    def combine(
        self,
        received: np.ndarray,
        impulse_response: np.ndarray,
        noise_variance: float,
        num_symbols: int,
    ) -> tuple[np.ndarray, float]:
        """:meth:`combine_batch` for one packet."""
        symbols, effective_noise = self.combine_batch(
            np.asarray(received, dtype=np.complex128).reshape(1, -1),
            np.asarray(impulse_response, dtype=np.complex128).reshape(1, -1),
            [noise_variance],
            num_symbols,
        )
        return symbols[0], float(effective_noise[0])
