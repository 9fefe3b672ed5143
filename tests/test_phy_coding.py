"""Tests for interleaving, rate matching, convolutional and turbo coding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.bits import random_bits
from repro.phy.convolutional import ConvolutionalCode, umts_convolutional_code
from repro.phy.interleaving import (
    ChannelInterleaver,
    Interleaver,
    block_interleaver,
    identity_interleaver,
    random_interleaver,
)
from repro.phy.rate_matching import (
    RateMatcher,
    make_systematic_priority_buffer_batch,
    split_systematic_priority_buffer_batch,
)
from repro.phy.turbo import TurboCode, TurboDecoder, TurboEncoder, UMTS_TRELLIS
from repro.phy.turbo.interleaver import pseudo_random_interleaver, qpp_interleaver


class TestInterleaving:
    @pytest.mark.parametrize("size", [7, 30, 100, 257])
    def test_block_interleaver_roundtrip(self, size, rng):
        interleaver = block_interleaver(size)
        data = rng.normal(size=size)
        assert np.allclose(interleaver.deinterleave(interleaver.interleave(data)), data)

    def test_identity_interleaver(self):
        interleaver = identity_interleaver(10)
        data = np.arange(10)
        assert np.array_equal(interleaver.interleave(data), data)

    def test_random_interleaver_roundtrip(self, rng):
        interleaver = random_interleaver(64, seed=1)
        data = rng.normal(size=64)
        assert np.allclose(interleaver.deinterleave(interleaver.interleave(data)), data)

    def test_inverse_property(self):
        interleaver = random_interleaver(32, seed=5)
        data = np.arange(32)
        assert np.array_equal(
            interleaver.inverse.interleave(interleaver.interleave(data)), data
        )

    def test_invalid_permutation_rejected(self):
        with pytest.raises(ValueError):
            Interleaver(np.array([0, 0, 1]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            identity_interleaver(4).interleave(np.zeros(5))

    def test_block_interleaver_spreads_bursts(self):
        interleaver = block_interleaver(120, num_columns=30)
        burst = np.arange(10)  # 10 adjacent input positions
        output_positions = np.array(
            [np.nonzero(interleaver.permutation == b)[0][0] for b in burst]
        )
        # After interleaving the burst must be spread far apart on average.
        spacing = np.diff(np.sort(output_positions))
        assert spacing.mean() > 2

    def test_channel_interleaver_caches_and_roundtrips(self, rng):
        channel_interleaver = ChannelInterleaver()
        for length in (60, 61, 60):
            data = rng.normal(size=(2, length))
            assert np.array_equal(
                channel_interleaver.deinterleave_batch(
                    channel_interleaver.interleave_batch(data)
                ),
                data,
            )
        assert sorted(channel_interleaver._cache) == [60, 61]

    @given(st.integers(min_value=2, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_block_interleaver_is_permutation_property(self, size):
        interleaver = block_interleaver(size)
        assert np.array_equal(np.sort(interleaver.permutation), np.arange(size))


class TestRateMatching:
    def test_puncturing_selects_subset(self, rng):
        matcher = RateMatcher(num_coded_bits=300, num_output_bits=200)
        coded = random_bits(300, rng)
        out = matcher.rate_match(coded, 0)
        assert out.size == 200

    def test_repetition_wraps(self, rng):
        matcher = RateMatcher(num_coded_bits=90, num_output_bits=120)
        coded = random_bits(90, rng)
        out = matcher.rate_match(coded, 0)
        assert np.array_equal(out[:90], coded)
        assert np.array_equal(out[90:], coded[:30])

    def test_derate_match_accumulates(self):
        matcher = RateMatcher(num_coded_bits=10, num_output_bits=15)
        llrs = np.ones(15)
        buffer = matcher.derate_match(llrs, 0)
        assert buffer[:5].tolist() == [2.0] * 5
        assert buffer[5:].tolist() == [1.0] * 5

    def test_redundancy_versions_cover_more_bits(self):
        matcher = RateMatcher(num_coded_bits=300, num_output_bits=100)
        assert matcher.coverage([0]) == pytest.approx(1 / 3)
        assert matcher.coverage([0, 1]) > matcher.coverage([0])
        assert matcher.coverage([0, 1, 2, 3]) == pytest.approx(1.0)

    def test_rate_then_derate_identity_positions(self, rng):
        matcher = RateMatcher(num_coded_bits=120, num_output_bits=80)
        llrs = rng.normal(size=120)
        selected = matcher.rate_match(llrs, 1)
        buffer = matcher.derate_match(selected, 1)
        indices = matcher.output_indices(1)
        assert np.allclose(buffer[indices], llrs[indices])
        untouched = np.setdiff1d(np.arange(120), indices)
        assert np.allclose(buffer[untouched], 0.0)

    def test_effective_code_rate(self):
        matcher = RateMatcher(num_coded_bits=300, num_output_bits=200)
        assert matcher.effective_code_rate == pytest.approx(0.5)

    def test_wrong_lengths_rejected(self):
        matcher = RateMatcher(num_coded_bits=30, num_output_bits=20)
        with pytest.raises(ValueError):
            matcher.rate_match(np.zeros(29, dtype=np.int8), 0)
        with pytest.raises(ValueError):
            matcher.derate_match(np.zeros(19), 0)

    def test_priority_buffer_roundtrip(self, rng):
        systematic = rng.integers(0, 2, (3, 50), dtype=np.int8)
        parity1 = rng.integers(0, 2, (3, 50), dtype=np.int8)
        parity2 = rng.integers(0, 2, (3, 50), dtype=np.int8)
        buffer = make_systematic_priority_buffer_batch(systematic, parity1, parity2)
        s, p1, p2 = split_systematic_priority_buffer_batch(buffer, 50)
        assert np.array_equal(s, systematic)
        assert np.array_equal(p1, parity1)
        assert np.array_equal(p2, parity2)


class TestConvolutional:
    def test_encode_length(self):
        code = ConvolutionalCode()
        assert code.encode(np.zeros(10, dtype=np.int8)).size == code.num_coded_bits(10)

    def test_noiseless_decode(self, rng):
        code = ConvolutionalCode()
        bits = random_bits(60, rng)
        coded = code.encode(bits)
        decoded = code.decode(1.0 - 2.0 * coded.astype(float))
        assert np.array_equal(decoded, bits)

    def test_corrects_scattered_errors(self, rng):
        code = ConvolutionalCode(generators=(0o133, 0o171), constraint_length=7)
        bits = random_bits(100, rng)
        coded = code.encode(bits)
        llrs = 1.0 - 2.0 * coded.astype(float)
        # Flip a few well separated coded bits.
        for position in (10, 60, 120, 180):
            llrs[position] = -llrs[position]
        assert np.array_equal(code.decode(llrs), bits)

    def test_umts_code_parameters(self):
        code = umts_convolutional_code()
        assert code.rate == pytest.approx(1 / 3)
        assert code.num_states == 256

    def test_hard_decision_decode(self, rng):
        code = ConvolutionalCode()
        bits = random_bits(40, rng)
        assert np.array_equal(code.decode_hard(code.encode(bits)), bits)


class TestTurbo:
    def test_trellis_tables_consistent(self):
        trellis = UMTS_TRELLIS
        assert trellis.num_states == 8
        # Every state reachable from exactly two predecessors.
        counts = np.zeros(8, dtype=int)
        for state in range(8):
            for bit in (0, 1):
                counts[trellis.next_state[state, bit]] += 1
        assert np.all(counts == 2)

    def test_termination_input_drives_to_zero(self):
        trellis = UMTS_TRELLIS
        for state in range(8):
            current = state
            for _ in range(3):
                bit = int(trellis.termination_input[current])
                current = int(trellis.next_state[current, bit])
            assert current == 0

    def test_qpp_interleaver_is_permutation(self):
        for size in (40, 64, 104, 320):
            interleaver = qpp_interleaver(size)
            assert np.array_equal(np.sort(interleaver.permutation), np.arange(size))

    def test_pseudo_random_interleaver_reproducible(self):
        assert np.array_equal(
            pseudo_random_interleaver(100).permutation,
            pseudo_random_interleaver(100).permutation,
        )

    def test_encoder_output_length(self):
        encoder = TurboEncoder(96)
        assert encoder.encode(np.zeros(96, dtype=np.int8)).size == 288

    def test_encoder_systematic_part(self, rng):
        encoder = TurboEncoder(64)
        bits = random_bits(64, rng)
        coded = encoder.encode(bits)
        assert np.array_equal(coded[:64], bits)

    def test_decoder_noiseless(self, rng):
        code = TurboCode(96, num_iterations=4)
        bits = random_bits(96, rng)
        llrs = 8.0 * (1.0 - 2.0 * code.encode(bits).astype(float))
        result = code.decode_buffer(llrs)
        assert np.array_equal(result.decoded_bits[0], bits)

    def test_decoder_moderate_awgn(self, rng):
        code = TurboCode(200, num_iterations=6)
        bits = rng.integers(0, 2, (4, 200)).astype(np.int8)
        coded = np.stack([code.encode(b) for b in bits])
        ebn0 = 10 ** (2.5 / 10) / 3.0
        noise_variance = 1.0 / (2.0 * ebn0)
        received = (1.0 - 2.0 * coded) + rng.normal(0, np.sqrt(noise_variance), coded.shape)
        llrs = 2.0 * received / noise_variance
        result = code.decode_buffer(llrs)
        ber = np.mean(result.decoded_bits != bits)
        assert ber < 0.01

    def test_decoder_beats_uncoded(self, rng):
        code = TurboCode(150, num_iterations=5)
        bits = rng.integers(0, 2, (4, 150)).astype(np.int8)
        coded = np.stack([code.encode(b) for b in bits])
        noise_variance = 0.8
        received = (1.0 - 2.0 * coded) + rng.normal(0, np.sqrt(noise_variance), coded.shape)
        llrs = 2.0 * received / noise_variance
        decoded = code.decode_buffer(llrs).decoded_bits
        coded_ber = np.mean(decoded != bits)
        uncoded_ber = np.mean((received < 0).astype(np.int8) != coded)
        assert coded_ber < uncoded_ber

    def test_batch_matches_single(self, rng):
        code = TurboCode(80, num_iterations=3)
        bits = rng.integers(0, 2, (3, 80)).astype(np.int8)
        coded = np.stack([code.encode(b) for b in bits])
        llrs = 4.0 * (1.0 - 2.0 * coded.astype(float))
        batch = code.decode_buffer(llrs).decoded_bits
        singles = np.stack([code.decode_buffer(llrs[i]).decoded_bits[0] for i in range(3)])
        assert np.array_equal(batch, singles)

    def test_early_stopping_reports_convergence(self, rng):
        code = TurboCode(80, num_iterations=8)
        bits = random_bits(80, rng)
        llrs = 10.0 * (1.0 - 2.0 * code.encode(bits).astype(float))
        result = code.decode_buffer(llrs)
        assert result.iterations_run < 8
        assert result.converged.all()

    def test_decoder_wrong_length_rejected(self):
        code = TurboCode(50)
        with pytest.raises(ValueError):
            code.decode_buffer(np.zeros(100))

    def test_decoder_erasures_give_chance_output(self):
        decoder = TurboDecoder(40, num_iterations=2)
        result = decoder.decode(np.zeros((1, 40)), np.zeros((1, 40)), np.zeros((1, 40)))
        assert result.decoded_bits.shape == (1, 40)
