"""Batch-axis properties of the link front end.

Every link stage has one implementation, a batch kernel; a single packet
is a batch of one.  These tests pin what that design has to guarantee:

* each bit-domain kernel against an independent reference — the CRC's
  GF(2) matrix product against polynomial long division, the turbo encoder
  against a scalar trellis walk — or against its own inverse/adjoint;
* row independence of the sample-domain kernels and of the whole round: a
  row of a wider batch is byte-identical to that packet alone (a batch of
  one), so pooling packets into wider rounds never changes an outcome;
* a cross-check against the verbatim pre-batching serial front end
  preserved below.
"""

from typing import Optional

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.channel.awgn import awgn_noise
from repro.channel.fading import JakesFadingProcess, jakes_gains_batch
from repro.channel.multipath import ITU_PEDESTRIAN_A, MultipathChannel
from repro.equalizer.mmse import MmseEqualizer
from repro.equalizer.rake import RakeReceiver
from repro.experiments.scales import get_scale
from repro.link import HspaLikeLink, LinkConfig
from repro.harq.buffer import combined_mother_rows, store_transmission_rows
from repro.link.system import PacketGroup, simulate_packet_groups
from repro.phy.crc import CRC_8, CRC_16, CRC_24A
from repro.phy.interleaving import Interleaver
from repro.phy.rate_matching import RateMatcher
from repro.phy.spreading import Spreader
from repro.phy.turbo import TurboCode
from repro.utils.rng import as_rng, child_rngs

BATCHES = st.integers(min_value=1, max_value=7)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

_SMALL_16QAM_CONFIG = LinkConfig(
    payload_bits=56,
    crc_bits=16,
    modulation="16QAM",
    effective_code_rate=0.6,
    turbo_iterations=3,
    max_transmissions=3,
)


def _crc_long_division(crc, bits):
    """CRC remainder of one bit vector by GF(2) polynomial long division."""
    degree = crc.num_check_bits
    register = np.concatenate([bits, np.zeros(degree, dtype=np.int8)]).astype(np.int8)
    poly = np.asarray(crc.polynomial, dtype=np.int8)
    for i in range(bits.size):
        if register[i]:
            register[i : i + degree + 1] ^= poly
    return register[-degree:]


def _rsc_parity(trellis, bits):
    """Parity stream of one RSC encoder run, walking the trellis bit by bit."""
    state = 0
    out = np.empty(bits.size, dtype=np.int8)
    for i, u in enumerate(bits):
        out[i] = trellis.parity[state, u]
        state = trellis.next_state[state, u]
    return out


# --------------------------------------------------------------------------- #
# Seed (pre-batching) serial front end, preserved as the fixed reference.
# --------------------------------------------------------------------------- #
class _SeedMmseEqualizer:
    """The pre-batching per-call MMSE design + equalize (no filter cache)."""

    def __init__(self, num_taps: int, decision_delay: Optional[int] = None) -> None:
        self.num_taps = num_taps
        self.decision_delay = decision_delay

    def design(self, impulse_response, noise_variance, signal_power=1.0):
        h = np.asarray(impulse_response, dtype=np.complex128).reshape(-1)
        channel_length = h.size
        nf = self.num_taps
        num_symbols = nf + channel_length - 1
        conv_matrix = np.zeros((nf, num_symbols), dtype=np.complex128)
        for i in range(nf):
            conv_matrix[i, i : i + channel_length] = h[::-1]
        delay = (
            self.decision_delay
            if self.decision_delay is not None
            else (num_symbols - 1) // 2
        )
        es = float(signal_power)
        covariance = es * (conv_matrix @ conv_matrix.conj().T) + noise_variance * np.eye(nf)
        desired = es * conv_matrix[:, delay]
        taps = np.linalg.solve(covariance, desired)
        response = taps.conj() @ conv_matrix
        bias = response[delay]
        interference = es * (np.sum(np.abs(response) ** 2) - np.abs(bias) ** 2)
        noise_out = noise_variance * float(np.sum(np.abs(taps) ** 2))
        return taps, delay, complex(bias), float(interference + noise_out)

    def equalize(self, received, impulse_response, noise_variance, num_symbols):
        r = np.asarray(received, dtype=np.complex128).reshape(-1)
        h = np.asarray(impulse_response, dtype=np.complex128).reshape(-1)
        taps, delay, bias, residual_variance = self.design(
            impulse_response, noise_variance
        )
        filtered = np.convolve(r, np.conj(taps)[::-1])
        offset = self.num_taps + h.size - 2 - delay
        indices = np.arange(num_symbols) + offset
        raw = filtered[indices]
        bias_abs2 = np.abs(bias) ** 2
        if bias_abs2 < 1e-30:
            return np.zeros(num_symbols, dtype=np.complex128), 1e30
        return raw / bias, residual_variance / bias_abs2


def _seed_channel_apply(channel, signal, snr_db, generator):
    """The pre-batching serial ``MultipathChannel.apply`` body."""
    impulse_response = channel.realize(generator)
    convolved = np.convolve(signal, impulse_response)
    signal_power = float(np.mean(np.abs(signal) ** 2)) * float(
        np.sum(np.abs(impulse_response) ** 2)
    )
    noise_variance = signal_power / (10.0 ** (snr_db / 10.0))
    received = convolved + awgn_noise(convolved.shape, noise_variance, generator)
    return received, impulse_response, noise_variance


def _prepare_inputs(link: HspaLikeLink, num_packets: int, snr_db: float, rng_seed):
    """Payloads, buffers and post-payload generators shared by both passes.

    Same stream derivation as :meth:`HspaLikeLink._start_group` (child rngs,
    then payloads, then buffers), so each pass consumes every packet's
    generator from exactly the state the live link would.  Buffer
    construction (pure allocation, identical in both implementations) stays
    outside the timed region; encoding is part of the front end and is
    timed.
    """
    packet_rngs = child_rngs(rng_seed, num_packets)
    payloads = [link.transmitter.random_payload(r) for r in packet_rngs]
    buffers = [link.make_buffer() for _ in range(num_packets)]
    return packet_rngs, payloads, buffers


def _seed_front_end_pass(link: HspaLikeLink, inputs, snr_db: float):
    """One HARQ transmission through the seed serial front end, per packet.

    Mirrors the pre-batching serial chain (block-fading mode) for the first
    transmission of every packet: encode, transmit, channel, MMSE equalize,
    demap, store into the HARQ buffer and read back the combined
    mother-domain LLRs.
    """
    packet_rngs, payloads, buffers = inputs
    config = link.config
    seed_equalizer = _SeedMmseEqualizer(num_taps=config.equalizer_taps)
    receiver = link.receiver
    spreader = receiver.spreader
    num_samples = config.symbols_per_transmission
    if spreader is not None:
        num_samples *= spreader.spreading_factor
    redundancy_version = config.combining.redundancy_version(0)
    rows = []
    for packet_rng, payload, soft_buffer in zip(packet_rngs, payloads, buffers):
        [packet] = link.transmitter.encode_batch([payload])
        samples = link.transmitter.transmit_batch([packet], redundancy_version)[0]
        received, impulse_response, noise_variance = _seed_channel_apply(
            link.channel, samples, snr_db, as_rng(packet_rng)
        )
        symbols, effective_noise = seed_equalizer.equalize(
            received, impulse_response, noise_variance, num_samples
        )
        if spreader is not None:
            symbols = spreader.despread_batch(symbols[None])[0]
            effective_noise = effective_noise / spreader.spreading_factor
        channel_llrs = receiver.demap_batch(symbols[None], np.array([effective_noise]))
        if config.buffer_architecture == "per-transmission":
            store_transmission_rows([soft_buffer], 0, channel_llrs, redundancy_version)
            combined = combined_mother_rows([soft_buffer], receiver.to_mother_domain_batch)[0]
        else:
            mother = receiver.to_mother_domain_batch(channel_llrs, redundancy_version)
            combined = soft_buffer.combine_and_store(mother[0])
        dtype = config.llr_numpy_dtype
        if combined.dtype != dtype:
            combined = combined.astype(dtype)
        rows.append(combined)
    return np.stack(rows)


def _batched_front_end_pass(link: HspaLikeLink, inputs, snr_db: float):
    """One HARQ transmission through the live batched front end."""
    from repro.link.system import _PacketState

    packet_rngs, payloads, buffers = inputs
    packets = link.transmitter.encode_batch(payloads)
    states = [
        _PacketState(
            rng=packet_rng, packet=packet, buffer=soft_buffer, snr_db=float(snr_db)
        )
        for packet_rng, packet, soft_buffer in zip(packet_rngs, packets, buffers)
    ]
    redundancy_version = link.config.combining.redundancy_version(0)
    return link._front_end_round(states, 0, redundancy_version)


# --------------------------------------------------------------------------- #
# bit-domain kernels
# --------------------------------------------------------------------------- #
class TestBitKernels:
    @given(
        batch=BATCHES,
        seed=SEEDS,
        num_bits=st.integers(min_value=0, max_value=80),
        crc=st.sampled_from([CRC_8, CRC_16, CRC_24A]),
    )
    @settings(max_examples=25, deadline=None)
    def test_crc_batch_matches_serial(self, batch, seed, num_bits, crc):
        """The GF(2) matrix product equals per-row polynomial long division."""
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 2, (batch, num_bits), dtype=np.int8)
        attached = crc.attach_batch(data)
        corrupted = attached.copy()
        corrupted[np.arange(batch), rng.integers(0, attached.shape[1], batch)] ^= 1
        for row in range(batch):
            expected = _crc_long_division(crc, data[row])
            assert attached[row, num_bits:].tobytes() == expected.tobytes()
            assert attached[row, :num_bits].tobytes() == data[row].tobytes()
        assert crc.check_batch(attached).all()
        verdicts = crc.check_batch(corrupted)
        for row in range(batch):
            remainder = _crc_long_division(crc, corrupted[row, :num_bits])
            assert bool(verdicts[row]) == np.array_equal(remainder, corrupted[row, num_bits:])

    @given(batch=BATCHES, seed=SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_turbo_encode_batch_matches_serial(self, batch, seed):
        """Batch encoding equals a scalar trellis walk of each row."""
        code = TurboCode(40)
        trellis = code.encoder.trellis
        permutation = code.encoder.interleaver.permutation
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 2, (batch, 40), dtype=np.int8)
        encoded = code.encode_batch(data)
        for row in range(batch):
            parity1 = _rsc_parity(trellis, data[row])
            parity2 = _rsc_parity(trellis, data[row][permutation])
            interlaced = np.stack([parity1, parity2], axis=1).reshape(-1)
            expected = np.concatenate([data[row], interlaced])
            assert encoded[row].tobytes() == expected.tobytes()

    @given(batch=BATCHES, seed=SEEDS, rv=st.integers(min_value=0, max_value=3))
    @settings(max_examples=15, deadline=None)
    def test_derate_match_is_adjoint_of_rate_match(self, batch, seed, rv):
        """De-rate-matching is the transpose of the circular read-out.

        Each mother position is hit ``E // N`` or ``E // N + 1`` times, the
        latter exactly for the first ``E % N`` positions of the window that
        starts at the redundancy version's offset; and for any coded rows
        ``x`` and channel rows ``y``, ``<rate_match(x), y> ==
        <x, derate_match(y)>``.
        """
        rng = np.random.default_rng(seed)
        num_coded = 48
        for num_output in (30, 72):  # puncturing and repetition regimes
            matcher = RateMatcher(num_coded_bits=num_coded, num_output_bits=num_output)
            start = (rv % 4) * num_coded // 4
            offsets = (np.arange(num_coded) - start) % num_coded
            hits = num_output // num_coded + (offsets < num_output % num_coded)
            counts = matcher.derate_match_batch(np.ones((batch, num_output)), rv)
            assert np.array_equal(counts, np.broadcast_to(hits, (batch, num_coded)))

            bits = rng.integers(0, 2, (batch, num_coded), dtype=np.int8)
            selected = matcher.rate_match_batch(bits, rv)
            window = (start + np.arange(num_output)) % num_coded
            assert np.array_equal(selected, bits[:, window])

            x = rng.normal(0.0, 2.0, (batch, num_coded))
            y = rng.normal(0.0, 2.0, (batch, num_output))
            forward = np.sum(matcher.rate_match_batch(x, rv) * y, axis=1)
            backward = np.sum(x * matcher.derate_match_batch(y, rv), axis=1)
            assert np.allclose(forward, backward, rtol=1e-12, atol=1e-12)

            # Untransmitted positions are +0.0 erasures, and a transmitted
            # -0.0 folds to +0.0 as an accumulation from zero would.
            folded = matcher.derate_match_batch(np.full((batch, num_output), -0.0), rv)
            assert not np.signbit(folded).any()

    @given(batch=BATCHES, seed=SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_deinterleave_inverts_interleave(self, batch, seed):
        rng = np.random.default_rng(seed)
        interleaver = Interleaver(rng.permutation(36))
        values = rng.normal(0.0, 1.0, (batch, 36))
        forward = interleaver.interleave_batch(values)
        assert np.array_equal(forward, values[:, interleaver.permutation])
        assert np.array_equal(interleaver.deinterleave_batch(forward), values)
        assert np.array_equal(
            interleaver.interleave_batch(interleaver.deinterleave_batch(values)), values
        )


# --------------------------------------------------------------------------- #
# sample-domain kernels: a row of a batch equals that packet alone
# --------------------------------------------------------------------------- #
class TestSampleKernels:
    @given(batch=BATCHES, seed=SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_noiseless_despread_inverts_spread(self, batch, seed):
        """Despreading recovers the symbols; an orthogonal code sees nothing."""
        spreader = Spreader(spreading_factor=4, code_index=1)
        other = Spreader(spreading_factor=4, code_index=2)
        rng = np.random.default_rng(seed)
        symbols = rng.normal(size=(batch, 12)) + 1j * rng.normal(size=(batch, 12))
        chips = spreader.spread_batch(symbols)
        assert chips.shape == (batch, 48)
        assert np.allclose(np.abs(chips), np.repeat(np.abs(symbols), 4, axis=1))
        assert np.allclose(spreader.despread_batch(chips), symbols, rtol=1e-12, atol=1e-12)
        assert np.allclose(other.despread_batch(chips), 0.0, atol=1e-12)

    @given(batch=BATCHES, seed=SEEDS)
    @settings(max_examples=10, deadline=None)
    def test_channel_batch_matches_serial(self, batch, seed):
        channel = MultipathChannel(ITU_PEDESTRIAN_A, 260.417)
        rng = np.random.default_rng(seed)
        signals = rng.normal(size=(batch, 48)) + 1j * rng.normal(size=(batch, 48))
        snrs = rng.uniform(5.0, 25.0, batch)
        received, responses, variances = channel.apply_batch(
            signals,
            snrs,
            [np.random.default_rng(seed + 1 + i) for i in range(batch)],
        )
        alone = MultipathChannel(ITU_PEDESTRIAN_A, 260.417)
        for row in range(batch):
            r, h, nv = alone.apply_batch(
                signals[row : row + 1], snrs[row], [np.random.default_rng(seed + 1 + row)]
            )
            assert received[row].tobytes() == r[0].tobytes()
            assert responses[row].tobytes() == h[0].tobytes()
            assert float(variances[row]) == float(nv[0])

    @given(batch=BATCHES, seed=SEEDS)
    @settings(max_examples=10, deadline=None)
    def test_jakes_batch_matches_serial(self, batch, seed):
        process = JakesFadingProcess(doppler_hz=80.0, sample_rate_hz=1e4)
        realizations = [
            process.realization(np.random.default_rng(seed + i)) for i in range(batch)
        ]
        gains = jakes_gains_batch(realizations, 3, 25)
        for row in range(batch):
            alone = jakes_gains_batch([realizations[row]], 3, 25)
            assert gains[row].tobytes() == alone[0].tobytes()

    @given(batch=BATCHES, seed=SEEDS)
    @settings(max_examples=10, deadline=None)
    def test_mmse_equalize_batch_matches_serial(self, batch, seed):
        rng = np.random.default_rng(seed)
        num_symbols = 20
        channel_length = 3
        responses = rng.normal(size=(batch, channel_length)) + 1j * rng.normal(
            size=(batch, channel_length)
        )
        received = rng.normal(
            size=(batch, num_symbols + channel_length - 1)
        ) + 1j * rng.normal(size=(batch, num_symbols + channel_length - 1))
        variances = rng.uniform(0.01, 1.0, batch)
        equalizer = MmseEqualizer(num_taps=8)
        # Two passes: the second is served from the design cache and must
        # still match a fresh design for a batch of one exactly.
        for _ in range(2):
            output = equalizer.equalize_batch(received, responses, variances, num_symbols)
            alone = MmseEqualizer(num_taps=8)
            for row in range(batch):
                rows = slice(row, row + 1)
                single = alone.equalize_batch(
                    received[rows], responses[rows], variances[rows], num_symbols
                )
                assert output.symbols[row].tobytes() == single.symbols[0].tobytes()
                assert output.taps[row].tobytes() == single.taps[0].tobytes()
                assert output.effective_noise_variance[row] == single.effective_noise_variance[0]
                assert output.sinr[row] == single.sinr[0]

    @given(batch=BATCHES, seed=SEEDS, zero_tap=st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_rake_combine_batch_matches_serial(self, batch, seed, zero_tap):
        rng = np.random.default_rng(seed)
        num_symbols = 16
        channel_length = 4
        responses = rng.normal(size=(batch, channel_length)) + 1j * rng.normal(
            size=(batch, channel_length)
        )
        if zero_tap:
            # Ragged finger counts: the first packet loses a tap and the last
            # loses all of them, so the rows fall into separate finger-count
            # groups (and a zero-finger row) inside one call.
            responses[0, -1] = 0.0
            if batch > 1:
                responses[-1] = 0.0
        received = rng.normal(
            size=(batch, num_symbols + channel_length - 1)
        ) + 1j * rng.normal(size=(batch, num_symbols + channel_length - 1))
        variances = rng.uniform(0.01, 1.0, batch)
        rake = RakeReceiver(max_fingers=3)
        symbols, noise = rake.combine_batch(received, responses, variances, num_symbols)
        for row in range(batch):
            rows = slice(row, row + 1)
            expected, expected_noise = rake.combine_batch(
                received[rows], responses[rows], variances[rows], num_symbols
            )
            assert symbols[row].tobytes() == expected[0].tobytes()
            assert noise[row] == expected_noise[0]


# --------------------------------------------------------------------------- #
# transmitter and full-link composition: rounds are row-independent
# --------------------------------------------------------------------------- #
class TestLinkComposition:
    @given(batch=BATCHES, seed=SEEDS)
    @settings(max_examples=10, deadline=None)
    def test_transmit_batch_matches_serial(self, batch, seed):
        from repro.link.transmitter import Transmitter

        config = LinkConfig(
            payload_bits=56,
            crc_bits=16,
            modulation="16QAM",
            effective_code_rate=0.6,
            turbo_iterations=3,
            max_transmissions=3,
            spreading_factor=4,
        )
        transmitter = Transmitter(config)
        rng = np.random.default_rng(seed)
        payloads = [transmitter.random_payload(rng) for _ in range(batch)]
        packets = transmitter.encode_batch(payloads)
        for rv in (0, 1):
            samples = transmitter.transmit_batch(packets, rv)
            for row in range(batch):
                alone = transmitter.encode_batch([payloads[row]])
                expected = transmitter.transmit_batch(alone, rv)
                assert samples[row].tobytes() == expected[0].tobytes()

    @given(seed=SEEDS, case=st.just((_SMALL_16QAM_CONFIG, 12.0, (5,))))
    @example(seed=2012, case=(get_scale("smoke").link_config(), 14.0, (1, 8, 32)))
    @settings(max_examples=5, deadline=None)
    def test_seed_serial_front_end_cross_check(self, seed, case):
        """Batched front end == verbatim pre-batching serial front end.

        Random seeds drive a small 16-QAM link at batch 5; the explicit
        example is the smoke-scale link at 14 dB and batches 1, 8 and 32.
        """
        config, snr_db, batches = case
        for batch in batches:
            link = HspaLikeLink(config)
            reference = _seed_front_end_pass(
                link, _prepare_inputs(link, batch, snr_db, seed), snr_db
            )
            candidate = _batched_front_end_pass(
                link, _prepare_inputs(link, batch, snr_db, seed), snr_db
            )
            assert reference.tobytes() == candidate.tobytes(), batch

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"buffer_architecture": "combined"},
            {"fading": "jakes:120"},
            {"fading": "jakes:120", "buffer_architecture": "combined"},
        ],
        ids=["per-transmission", "combined", "jakes-fading", "jakes-combined"],
    )
    def test_batch_one_fast_path_matches_general_round(self, overrides):
        """A batch of one equals that packet's row of a wider round.

        Three packets run every HARQ round together, then each runs the same
        rounds alone; every round's combined LLR row must match byte for
        byte — in both buffer architectures, with and without fading, and
        across rounds that read back and combine several stored
        transmissions.  ``simulate_single_packet`` is a batch of one, so this
        is what keeps it consistent with the pooled Monte-Carlo paths.
        """
        from repro.link.system import _PacketState
        from repro.utils.rng import child_rngs

        config = LinkConfig(
            payload_bits=56,
            crc_bits=16,
            modulation="16QAM",
            effective_code_rate=0.6,
            turbo_iterations=3,
            max_transmissions=3,
            **overrides,
        )

        def rounds(indices):
            link = HspaLikeLink(config)
            rngs = child_rngs(777, 3)
            payloads = [link.transmitter.random_payload(r) for r in rngs]
            packets = link.transmitter.encode_batch([payloads[i] for i in indices])
            states = [
                _PacketState(
                    rng=rngs[i],
                    packet=packets[j],
                    buffer=link.make_buffer(),
                    snr_db=10.0,
                )
                for j, i in enumerate(indices)
            ]
            return [
                link._front_end_round(
                    states, index, config.combining.redundancy_version(index)
                )
                for index in range(config.max_transmissions)
            ]

        wide = rounds([0, 1, 2])
        for i in range(3):
            for index, (alone, shared) in enumerate(zip(rounds([i]), wide)):
                assert alone.shape[0] == 1
                assert alone[0].tobytes() == shared[i].tobytes(), (i, index)

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"buffer_architecture": "combined"},
            {"fading": "jakes:120"},
            {"spreading_factor": 4},
        ],
        ids=["per-transmission", "combined", "jakes-fading", "spread"],
    )
    def test_group_pooling_is_result_neutral(self, overrides):
        """Pooling groups into wider front-end rounds changes nothing.

        The pooled run processes both groups' packets in shared batched
        rounds (different batch widths than the isolated runs), so equality
        here pins "batching is result-neutral" end to end.
        """
        config = LinkConfig(
            payload_bits=56,
            crc_bits=16,
            modulation="16QAM",
            effective_code_rate=0.6,
            turbo_iterations=3,
            max_transmissions=3,
            **overrides,
        )
        link = HspaLikeLink(config)
        groups = [
            PacketGroup(num_packets=3, snr_db=8.0, rng=11),
            PacketGroup(num_packets=2, snr_db=14.0, rng=22),
        ]
        pooled = simulate_packet_groups(link, groups)
        isolated = [
            HspaLikeLink(config).simulate_packets(3, 8.0, rng=11),
            HspaLikeLink(config).simulate_packets(2, 14.0, rng=22),
        ]
        for pooled_result, isolated_result in zip(pooled, isolated):
            assert (
                pooled_result.statistics.num_successful
                == isolated_result.statistics.num_successful
            )
            assert (
                pooled_result.statistics.total_transmissions
                == isolated_result.statistics.total_transmissions
            )
            for a, b in zip(
                pooled_result.packet_results, isolated_result.packet_results
            ):
                assert a.success == b.success
                assert a.num_transmissions == b.num_transmissions
                assert a.failure_history == b.failure_history
                assert np.array_equal(a.decoded_bits, b.decoded_bits)

    def test_rake_link_pooling_is_result_neutral(self):
        config = LinkConfig(
            payload_bits=56,
            crc_bits=16,
            modulation="16QAM",
            effective_code_rate=0.6,
            turbo_iterations=3,
            max_transmissions=3,
        )
        link = HspaLikeLink(config, use_rake=True)
        pooled = simulate_packet_groups(
            link,
            [
                PacketGroup(num_packets=3, snr_db=10.0, rng=7),
                PacketGroup(num_packets=2, snr_db=16.0, rng=9),
            ],
        )
        isolated = [
            HspaLikeLink(config, use_rake=True).simulate_packets(3, 10.0, rng=7),
            HspaLikeLink(config, use_rake=True).simulate_packets(2, 16.0, rng=9),
        ]
        for pooled_result, isolated_result in zip(pooled, isolated):
            for a, b in zip(
                pooled_result.packet_results, isolated_result.packet_results
            ):
                assert a.success == b.success
                assert a.failure_history == b.failure_history
