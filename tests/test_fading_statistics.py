"""Statistical validation of the Jakes time-correlated fading process.

The sum-of-sinusoids waveform must actually *be* what the intra-packet
fading mode claims: unit-power complex Rayleigh with autocorrelation
J0(2*pi*fD*tau).  The moments and the autocorrelation are validated against
theory on a fixed-seed ensemble (deterministic — no flaky statistical
sampling), and the realization API is pinned to be seed-deterministic and
chunk-boundary invariant, the property that makes streamed generation safe.
The link-level tests pin how the mode composes with the existing machinery:
block mode consumes no extra randomness, jakes mode is deterministic and
distinct.
"""

import numpy as np
import pytest
from scipy.special import j0

from repro.channel.fading import JakesFadingProcess, jakes_gains_batch
from repro.link.config import LinkConfig, parse_fading_token
from repro.link.system import HspaLikeLink

#: Fixed ensemble used by the moment/autocorrelation checks.
NUM_REALIZATIONS = 400
SAMPLES_PER_REALIZATION = 128
ENSEMBLE_SEED = 2012


@pytest.fixture(scope="module")
def process():
    return JakesFadingProcess(doppler_hz=100.0, sample_rate_hz=10_000.0, num_sinusoids=32)


@pytest.fixture(scope="module")
def ensemble(process):
    """A fixed-seed ensemble of waveforms, one row per realization."""
    rng = np.random.default_rng(ENSEMBLE_SEED)
    realizations = [process.realization(rng) for _ in range(NUM_REALIZATIONS)]
    return jakes_gains_batch(realizations, 0, SAMPLES_PER_REALIZATION)


class TestRayleighStatistics:
    def test_mean_power_is_unity(self, ensemble):
        assert np.mean(np.abs(ensemble) ** 2) == pytest.approx(1.0, abs=0.05)

    def test_envelope_mean_matches_rayleigh(self, ensemble):
        # Unit-power complex Rayleigh: E|g| = sqrt(pi)/2.
        assert np.mean(np.abs(ensemble)) == pytest.approx(np.sqrt(np.pi) / 2, abs=0.03)

    def test_components_are_zero_mean_and_balanced(self, ensemble):
        assert np.mean(ensemble.real) == pytest.approx(0.0, abs=0.05)
        assert np.mean(ensemble.imag) == pytest.approx(0.0, abs=0.05)
        # I and Q each carry half the power.
        assert np.mean(ensemble.real**2) == pytest.approx(0.5, abs=0.05)
        assert np.mean(ensemble.imag**2) == pytest.approx(0.5, abs=0.05)

    def test_autocorrelation_matches_bessel(self, process, ensemble):
        # Clarke's model: R(tau) = J0(2*pi*fD*tau), real-valued.
        lags = np.array([0, 4, 8, 16, 32, 64])
        tau = lags / process.sample_rate_hz
        expected = j0(2 * np.pi * process.doppler_hz * tau)
        for lag, theory in zip(lags, expected):
            head = ensemble[:, : SAMPLES_PER_REALIZATION - lag]
            shifted = ensemble[:, lag:]
            empirical = np.mean(head * np.conj(shifted))
            assert empirical.real == pytest.approx(theory, abs=0.08), f"lag {lag}"
            assert abs(empirical.imag) < 0.08, f"lag {lag}"

    def test_waveform_is_time_correlated(self, ensemble):
        # Adjacent samples at fD/fs = 0.01 are nearly identical — the whole
        # point of the model versus independent per-sample draws.
        adjacent = np.mean(ensemble[:, :-1] * np.conj(ensemble[:, 1:]))
        assert adjacent.real > 0.95


class TestRealizationDeterminism:
    def test_same_seed_same_waveform(self, process):
        a = jakes_gains_batch([process.realization(np.random.default_rng(7))], 0, 64)[0]
        b = jakes_gains_batch([process.realization(np.random.default_rng(7))], 0, 64)[0]
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self, process):
        a = jakes_gains_batch([process.realization(np.random.default_rng(7))], 0, 64)[0]
        b = jakes_gains_batch([process.realization(np.random.default_rng(8))], 0, 64)[0]
        assert not np.allclose(a, b)

    def test_batch_rows_match_each_realization_alone(self, process):
        rng = np.random.default_rng(7)
        realizations = [process.realization(rng) for _ in range(3)]
        together = jakes_gains_batch(realizations, 5, 64)
        for index, realization in enumerate(realizations):
            alone = jakes_gains_batch([realization], 5, 64)[0]
            np.testing.assert_array_equal(together[index], alone)

    def test_chunked_generation_is_boundary_invariant(self, process):
        realization = process.realization(np.random.default_rng(7))
        whole = jakes_gains_batch([realization], 0, 100)
        for split in (1, 13, 50, 99):
            chunked = np.concatenate(
                [
                    jakes_gains_batch([realization], 0, split),
                    jakes_gains_batch([realization], split, 100 - split),
                ],
                axis=1,
            )
            np.testing.assert_array_equal(chunked, whole)

    def test_gains_rejects_bad_windows(self, process):
        realization = process.realization(np.random.default_rng(7))
        with pytest.raises(ValueError):
            jakes_gains_batch([realization], -1, 10)
        with pytest.raises(ValueError):
            jakes_gains_batch([realization], 0, 0)


class TestFadingTokens:
    def test_block_token(self):
        assert parse_fading_token("block") is None

    def test_jakes_token(self):
        assert parse_fading_token("jakes:40000") == pytest.approx(40000.0)
        assert parse_fading_token("JAKES:1e4") == pytest.approx(10000.0)

    @pytest.mark.parametrize("token", ["jakes", "jakes:", "jakes:abc", "jakes:-5", "rician:3"])
    def test_bad_tokens(self, token):
        with pytest.raises(ValueError):
            parse_fading_token(token)

    def test_config_validates_and_describes(self):
        config = LinkConfig(fading="jakes:40000")
        assert "fading jakes:40000" in config.describe()
        assert config.fading_doppler_hz == pytest.approx(40000.0)
        with pytest.raises(ValueError):
            LinkConfig(fading="fast")

    def test_default_describe_omits_fading(self):
        assert "fading" not in LinkConfig().describe()
        assert LinkConfig().fading_process() is None


class TestLinkLevelFading:
    @pytest.fixture(scope="class")
    def config(self):
        return LinkConfig(payload_bits=56, turbo_iterations=2)

    def test_jakes_link_is_deterministic(self, config):
        link = HspaLikeLink(config.with_updates(fading="jakes:40000"))
        a = link.simulate_packets(3, 18.0, np.random.default_rng(5))
        b = link.simulate_packets(3, 18.0, np.random.default_rng(5))
        assert a.statistics.normalized_throughput == b.statistics.normalized_throughput
        assert [r.num_transmissions for r in a.packet_results] == [
            r.num_transmissions for r in b.packet_results
        ]

    def test_jakes_differs_from_block(self, config):
        block = HspaLikeLink(config).simulate_packets(4, 18.0, np.random.default_rng(5))
        jakes = HspaLikeLink(config.with_updates(fading="jakes:120000")).simulate_packets(
            4, 18.0, np.random.default_rng(5)
        )
        block_bits = np.concatenate([r.decoded_bits for r in block.packet_results])
        jakes_bits = np.concatenate([r.decoded_bits for r in jakes.packet_results])
        assert not np.array_equal(block_bits, jakes_bits) or (
            [r.num_transmissions for r in block.packet_results]
            != [r.num_transmissions for r in jakes.packet_results]
        )

    def test_jakes_composes_with_rake_and_spreading(self, config):
        rake = HspaLikeLink(config.with_updates(fading="jakes:40000"), use_rake=True)
        result = rake.simulate_packets(2, 18.0, np.random.default_rng(5))
        assert 0.0 <= result.statistics.normalized_throughput <= 1.0
        spread = HspaLikeLink(
            config.with_updates(fading="jakes:40000", spreading_factor=4)
        )
        result = spread.simulate_packets(2, 18.0, np.random.default_rng(5))
        assert 0.0 <= result.statistics.normalized_throughput <= 1.0

    def test_block_mode_streams_untouched(self, config):
        """The fading field's existence must not perturb seeded block runs."""
        a = HspaLikeLink(config).simulate_packets(3, 18.0, np.random.default_rng(5))
        b = HspaLikeLink(config.with_updates(fading="block")).simulate_packets(
            3, 18.0, np.random.default_rng(5)
        )
        np.testing.assert_array_equal(
            np.concatenate([r.decoded_bits for r in a.packet_results]),
            np.concatenate([r.decoded_bits for r in b.packet_results]),
        )
