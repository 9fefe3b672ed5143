"""Tests for the channel models and the receiver front end (MMSE / RAKE)."""

import numpy as np
import pytest

from repro.channel.awgn import awgn_noise
from repro.channel.fading import JakesFadingProcess, block_rayleigh_gains, jakes_gains_batch
from repro.channel.multipath import (
    ITU_PEDESTRIAN_A,
    ITU_PEDESTRIAN_B,
    ITU_VEHICULAR_A,
    MultipathChannel,
    PowerDelayProfile,
    SINGLE_PATH,
)
from repro.equalizer.mmse import MmseEqualizer
from repro.equalizer.rake import RakeReceiver
from repro.phy.modulation import get_modulator


class TestAwgn:
    def test_noise_variance_statistics(self, rng):
        noise = awgn_noise(200_000, 0.4, rng)
        assert np.var(noise) == pytest.approx(0.4, rel=0.03)
        assert np.abs(np.mean(noise)) < 0.01

    def test_awgn_channel_snr(self, rng):
        """The noise a flat channel adds has the variance its SNR implies."""
        channel = MultipathChannel(SINGLE_PATH)
        signal = np.ones((1, 100_000), dtype=complex)
        received, responses, noise_variances = channel.apply_batch(signal, 10.0, [rng])
        path_power = np.abs(responses[0, 0]) ** 2
        assert noise_variances[0] == pytest.approx(path_power / 10.0, rel=1e-12)
        noise = received[0] - responses[0, 0] * signal[0]
        assert np.var(noise) == pytest.approx(noise_variances[0], rel=0.03)


class TestFading:
    def test_block_rayleigh_unit_power(self, rng):
        gains = block_rayleigh_gains(50_000, 1, rng=rng)
        assert np.mean(np.abs(gains) ** 2) == pytest.approx(1.0, rel=0.05)

    def test_block_rayleigh_tap_powers(self, rng):
        powers = np.array([0.7, 0.2, 0.1])
        gains = block_rayleigh_gains(100_000, 3, powers, rng)
        measured = np.mean(np.abs(gains) ** 2, axis=0)
        assert np.allclose(measured, powers, rtol=0.08)

    def test_block_rayleigh_validation(self):
        with pytest.raises(ValueError):
            block_rayleigh_gains(10, 2, np.array([1.0]))

    def test_jakes_unit_power(self, rng):
        process = JakesFadingProcess(doppler_hz=50.0, sample_rate_hz=10_000.0)
        waveform = jakes_gains_batch([process.realization(rng)], 0, 50_000)[0]
        assert np.mean(np.abs(waveform) ** 2) == pytest.approx(1.0, rel=0.15)

    def test_jakes_correlation_decays(self, rng):
        process = JakesFadingProcess(doppler_hz=100.0, sample_rate_hz=10_000.0)
        waveform = jakes_gains_batch([process.realization(rng)], 0, 20_000)[0]
        lag_short = np.abs(np.vdot(waveform[:-1], waveform[1:])) / (waveform.size - 1)
        lag_long = np.abs(np.vdot(waveform[:-400], waveform[400:])) / (waveform.size - 400)
        assert lag_short > lag_long


class TestMultipath:
    @pytest.mark.parametrize(
        "profile", [SINGLE_PATH, ITU_PEDESTRIAN_A, ITU_PEDESTRIAN_B, ITU_VEHICULAR_A]
    )
    def test_profile_powers_normalised(self, profile):
        assert profile.linear_powers().sum() == pytest.approx(1.0)

    def test_resample_merges_taps(self):
        profile = PowerDelayProfile("test", (0.0, 10.0, 500.0), (0.0, 0.0, -3.0))
        indices, powers = profile.resample(260.0)
        assert indices.tolist() == [0, 2]
        assert powers.sum() == pytest.approx(1.0)

    def test_single_path_is_flat(self, rng):
        channel = MultipathChannel(SINGLE_PATH)
        assert channel.impulse_response_length == 1

    def test_realizations_are_random(self):
        channel = MultipathChannel(ITU_PEDESTRIAN_A)
        h1 = channel.realize(rng=1)
        h2 = channel.realize(rng=2)
        assert not np.allclose(h1, h2)

    def test_apply_output_length_and_snr(self, rng):
        channel = MultipathChannel(ITU_PEDESTRIAN_A)
        signal = np.exp(1j * rng.uniform(0, 2 * np.pi, (1, 20_000)))
        received, impulse_response, noise_variance = channel.apply_batch(signal, 15.0, [rng])
        assert received.size == signal.size + impulse_response.size - 1
        signal_power = np.mean(np.abs(signal) ** 2) * np.sum(np.abs(impulse_response) ** 2)
        assert signal_power / noise_variance == pytest.approx(10 ** 1.5, rel=1e-9)

    def test_invalid_profile(self):
        with pytest.raises(ValueError):
            PowerDelayProfile("bad", (0.0, 1.0), (0.0,))


class TestEqualizers:
    def _run_link(self, equalizer_output, modulator, bits):
        llrs = modulator.demodulate_soft(
            equalizer_output[0], equalizer_output[1]
        )
        hard = (llrs < 0).astype(np.int8)
        return np.mean(hard[: bits.size] != bits)

    def test_mmse_identity_channel(self, rng):
        modulator = get_modulator("16QAM")
        bits = rng.integers(0, 2, 4 * 500).astype(np.int8)
        symbols = modulator.modulate(bits)
        equalizer = MmseEqualizer(num_taps=8)
        output = equalizer.equalize_batch(symbols[None], np.ones((1, 1)), [1e-6], symbols.size)
        assert np.allclose(output.symbols[0], symbols, atol=1e-3)

    def test_mmse_removes_isi(self, rng):
        modulator = get_modulator("16QAM")
        bits = rng.integers(0, 2, 4 * 1000).astype(np.int8)
        symbols = modulator.modulate(bits)
        impulse_response = np.array([0.9, 0.4 + 0.2j, 0.1])
        received = np.convolve(symbols, impulse_response)
        noise_variance = 1e-3
        received = received + np.sqrt(noise_variance / 2) * (
            rng.normal(size=received.shape) + 1j * rng.normal(size=received.shape)
        )
        equalizer = MmseEqualizer(num_taps=16)
        output = equalizer.equalize_batch(
            received[None], impulse_response[None], [noise_variance], symbols.size
        )
        ber = self._run_link(
            (output.symbols[0], output.effective_noise_variance[0]), modulator, bits
        )
        assert ber < 0.01
        assert output.sinr[0] > 10.0

    def test_mmse_sinr_tracks_snr(self, rng):
        modulator = get_modulator("QPSK")
        bits = rng.integers(0, 2, 2 * 2000).astype(np.int8)
        symbols = modulator.modulate(bits)
        channel = MultipathChannel(ITU_PEDESTRIAN_A)
        sinrs = []
        for snr_db in (5.0, 20.0):
            received, responses, noise_variances = channel.apply_batch(
                symbols[None], snr_db, [rng]
            )
            output = MmseEqualizer(num_taps=12).equalize_batch(
                received, responses, noise_variances, symbols.size
            )
            sinrs.append(output.sinr[0])
        assert sinrs[1] > sinrs[0]

    def test_mmse_zero_channel_degenerate(self):
        equalizer = MmseEqualizer(num_taps=4)
        output = equalizer.equalize_batch(
            np.zeros((1, 50), dtype=complex), np.zeros((1, 3)), [0.1], 10
        )
        assert output.sinr[0] == 0.0

    def test_rake_single_path(self, rng):
        modulator = get_modulator("QPSK")
        bits = rng.integers(0, 2, 2 * 500).astype(np.int8)
        symbols = modulator.modulate(bits)
        rake = RakeReceiver()
        recovered, noise = rake.combine_batch(
            symbols[None] * 0.7, np.full((1, 1), 0.7), [0.01], symbols.size
        )
        assert np.allclose(recovered[0], symbols, atol=1e-9)
        assert noise[0] == pytest.approx(0.01 / 0.49)

    def test_rake_selects_strongest_fingers(self):
        rake = RakeReceiver(max_fingers=2)
        impulse_response = np.array([0.1, 0.9, 0.0, 0.5])
        delays = rake.finger_delays(impulse_response)
        assert delays.tolist() == [1, 3]

    def test_mmse_outperforms_rake_on_dispersive_channel(self, rng):
        modulator = get_modulator("16QAM")
        bits = rng.integers(0, 2, 4 * 1500).astype(np.int8)
        symbols = modulator.modulate(bits)
        impulse_response = np.array([0.7, 0.6, 0.4])
        received = np.convolve(symbols, impulse_response)
        noise_variance = 10 ** (-18 / 10) * np.sum(np.abs(impulse_response) ** 2)
        received = received + np.sqrt(noise_variance / 2) * (
            rng.normal(size=received.shape) + 1j * rng.normal(size=received.shape)
        )
        mmse_out = MmseEqualizer(num_taps=16).equalize_batch(
            received[None], impulse_response[None], [noise_variance], symbols.size
        )
        rake_symbols, rake_noise = RakeReceiver().combine_batch(
            received[None], impulse_response[None], [noise_variance], symbols.size
        )
        mmse_ber = self._run_link(
            (mmse_out.symbols[0], mmse_out.effective_noise_variance[0]), modulator, bits
        )
        rake_ber = self._run_link((rake_symbols[0], rake_noise[0]), modulator, bits)
        assert mmse_ber < rake_ber
