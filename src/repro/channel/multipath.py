"""Frequency-selective multipath channels (tapped delay lines).

The paper evaluates "a standard-compliant multipath channel"; 3GPP HSDPA
performance requirements use the ITU Pedestrian-A/B and Vehicular-A power
delay profiles.  This module provides those profiles (resampled to the chip
or symbol rate), random Rayleigh realisations per transmission, and the
convolution of the transmit sequence with the resulting channel impulse
response.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.awgn import awgn_noise
from repro.channel.fading import block_rayleigh_gains
from repro.utils.rng import RngLike, as_rng
from repro.utils.validation import ensure_positive_int


@dataclass(frozen=True)
class PowerDelayProfile:
    """A named power delay profile.

    Parameters
    ----------
    name:
        Profile identifier.
    delays_ns:
        Tap delays in nanoseconds.
    powers_db:
        Average tap powers in dB (relative).
    """

    name: str
    delays_ns: tuple
    powers_db: tuple

    def __post_init__(self) -> None:
        if len(self.delays_ns) != len(self.powers_db):
            raise ValueError("delays_ns and powers_db must have the same length")
        if len(self.delays_ns) == 0:
            raise ValueError("profile must have at least one tap")
        object.__setattr__(self, "delays_ns", tuple(float(d) for d in self.delays_ns))
        object.__setattr__(self, "powers_db", tuple(float(p) for p in self.powers_db))

    @property
    def num_taps(self) -> int:
        """Number of physical taps in the profile."""
        return len(self.delays_ns)

    def linear_powers(self) -> np.ndarray:
        """Tap powers in linear scale, normalised to sum to one."""
        powers = 10.0 ** (np.asarray(self.powers_db) / 10.0)
        return powers / powers.sum()

    def resample(self, sample_period_ns: float) -> tuple[np.ndarray, np.ndarray]:
        """Map physical taps onto a uniformly spaced tap grid.

        Returns ``(tap_indices, tap_powers)`` where taps falling into the same
        sample period have their powers added.
        """
        if sample_period_ns <= 0:
            raise ValueError("sample_period_ns must be positive")
        indices = np.round(np.asarray(self.delays_ns) / sample_period_ns).astype(np.int64)
        powers = self.linear_powers()
        max_index = int(indices.max())
        grid = np.zeros(max_index + 1, dtype=np.float64)
        np.add.at(grid, indices, powers)
        nonzero = np.nonzero(grid)[0]
        return nonzero, grid[nonzero]


#: Flat (single-path) profile — reduces the channel to pure Rayleigh/AWGN.
SINGLE_PATH = PowerDelayProfile("SinglePath", (0.0,), (0.0,))

#: ITU Pedestrian A (ITU-R M.1225), a mild multipath profile.
ITU_PEDESTRIAN_A = PowerDelayProfile(
    "ITU-PedA", (0.0, 110.0, 190.0, 410.0), (0.0, -9.7, -19.2, -22.8)
)

#: ITU Pedestrian B, a strongly frequency-selective profile.
ITU_PEDESTRIAN_B = PowerDelayProfile(
    "ITU-PedB",
    (0.0, 200.0, 800.0, 1200.0, 2300.0, 3700.0),
    (0.0, -0.9, -4.9, -8.0, -7.8, -23.9),
)

#: ITU Vehicular A.
ITU_VEHICULAR_A = PowerDelayProfile(
    "ITU-VehA",
    (0.0, 310.0, 710.0, 1090.0, 1730.0, 2510.0),
    (0.0, -1.0, -9.0, -10.0, -15.0, -20.0),
)

#: Registry of the built-in profiles by name.
PROFILES = {
    profile.name: profile
    for profile in (SINGLE_PATH, ITU_PEDESTRIAN_A, ITU_PEDESTRIAN_B, ITU_VEHICULAR_A)
}


@dataclass
class MultipathChannel:
    """Quasi-static frequency-selective Rayleigh channel with AWGN.

    Each call to :meth:`realize` draws a new set of complex tap gains from
    the configured power delay profile; :meth:`apply_batch` convolves each
    transmit sequence with a realisation and adds noise.  HARQ
    retransmissions see independent realisations, modelling the rapidly
    varying mobile channel.

    Parameters
    ----------
    profile:
        Power delay profile.
    sample_period_ns:
        Duration of one transmitted sample (chip or symbol) in nanoseconds;
        260 ns corresponds to the 3.84 Mcps UMTS chip rate.
    """

    profile: PowerDelayProfile = ITU_PEDESTRIAN_A
    sample_period_ns: float = 260.417

    def __post_init__(self) -> None:
        self._tap_indices, self._tap_powers = self.profile.resample(self.sample_period_ns)
        # Reusable real workspace for the per-packet noise-power derivation:
        # |signal|^2 is computed in place here instead of materialising two
        # fresh full-batch temporaries (abs, then square) every round.
        self._power_workspace: np.ndarray | None = None

    @property
    def num_effective_taps(self) -> int:
        """Number of taps after resampling to the sample grid."""
        return int(self._tap_indices.size)

    @property
    def impulse_response_length(self) -> int:
        """Length of the discrete channel impulse response."""
        return int(self._tap_indices.max()) + 1

    def realize(self, rng: RngLike = None) -> np.ndarray:
        """Draw one channel impulse response (complex array)."""
        gains = block_rayleigh_gains(
            1, self.num_effective_taps, self._tap_powers, rng
        )[0]
        response = np.zeros(self.impulse_response_length, dtype=np.complex128)
        response[self._tap_indices] = gains
        return response

    def mean_signal_powers(self, signals: np.ndarray) -> np.ndarray:
        """Row-wise mean ``|x|^2`` of a ``(batch, n)`` sample matrix.

        Uses the channel's preallocated real workspace so the per-round
        noise-power derivation does not materialise two fresh full-batch
        temporaries (the magnitude and its square).  Bit-identical to
        ``np.mean(np.abs(row) ** 2)`` per row.
        """
        sig = np.asarray(signals, dtype=np.complex128)
        workspace = self._power_workspace
        if workspace is None or workspace.shape != sig.shape:
            workspace = np.empty(sig.shape, dtype=np.float64)
            self._power_workspace = workspace
        np.abs(sig, out=workspace)
        np.multiply(workspace, workspace, out=workspace)
        return workspace.mean(axis=1)

    def apply_batch(
        self,
        signals: np.ndarray,
        snr_dbs,
        rngs,
        impulse_responses=None,
        mean_signal_powers=None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pass each row through its own channel realisation and add AWGN.

        Every packet draws its fading gains and noise from its *own*
        generator in exactly the serial order (realisation first, then
        noise), so a batch of N is byte-identical to N batches of one.  The
        received matrix is preallocated and filled row by row; the
        convolution stays per-packet (``np.convolve``) because a shifted
        tap-accumulation differs bitwise.

        Parameters
        ----------
        signals:
            ``(batch, num_samples)`` complex transmit matrix.
        snr_dbs:
            Per-packet receive SNRs in dB (scalar broadcasts).
        rngs:
            One seed or generator per packet.
        impulse_responses:
            Optional pre-drawn per-packet impulse responses.
        mean_signal_powers:
            Optional per-packet average transmit sample powers used for
            the SNR accounting; default to each row's empirical mean.
            Callers that modulate the samples with an extra fading waveform
            pass the *unfaded* power here, so a deep fade lowers the
            instantaneous SNR instead of being renormalised away.

        Returns
        -------
        tuple
            ``(received, impulse_responses, noise_variances)`` with shapes
            ``(batch, num_samples + L - 1)``, ``(batch, L)`` and ``(batch,)``.
        """
        sig = np.asarray(signals, dtype=np.complex128)
        if sig.ndim != 2:
            raise ValueError(f"expected a 2-D signal matrix, got shape {sig.shape}")
        batch, num_samples = sig.shape
        snr_arr = np.broadcast_to(np.asarray(snr_dbs, dtype=np.float64), (batch,))
        if len(rngs) != batch:
            raise ValueError(f"expected {batch} rngs, got {len(rngs)}")
        if impulse_responses is not None:
            responses = np.stack(
                [np.asarray(h, dtype=np.complex128).reshape(-1) for h in impulse_responses]
            )
        else:
            responses = np.empty((batch, self.impulse_response_length), dtype=np.complex128)
        length = responses.shape[1]
        received = np.empty((batch, num_samples + length - 1), dtype=np.complex128)
        noise_variances = np.empty(batch, dtype=np.float64)
        if mean_signal_powers is None:
            mean_signal_powers = self.mean_signal_powers(sig)
        for i in range(batch):
            generator = as_rng(rngs[i])
            if impulse_responses is None:
                responses[i] = self.realize(generator)
            h = responses[i]
            convolved = np.convolve(sig[i], h)
            signal_power = float(mean_signal_powers[i]) * float(np.sum(np.abs(h) ** 2))
            noise_variance = signal_power / (10.0 ** (float(snr_arr[i]) / 10.0))
            noise_variances[i] = noise_variance
            np.add(
                convolved,
                awgn_noise(convolved.shape, noise_variance, generator),
                out=received[i],
            )
        return received, responses, noise_variances
