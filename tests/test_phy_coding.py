"""Tests for interleaving, rate matching and turbo coding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.interleaving import ChannelInterleaver, Interleaver, block_interleaver
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
        data = rng.normal(size=(1, size))
        forward = interleaver.interleave_batch(data)
        assert np.allclose(interleaver.deinterleave_batch(forward), data)

    def test_identity_interleaver(self):
        interleaver = Interleaver(np.arange(10))
        data = np.arange(10)[None]
        assert np.array_equal(interleaver.interleave_batch(data), data)

    def test_random_interleaver_roundtrip(self, rng):
        interleaver = Interleaver(rng.permutation(64))
        data = rng.normal(size=(1, 64))
        forward = interleaver.interleave_batch(data)
        assert np.allclose(interleaver.deinterleave_batch(forward), data)

    def test_inverse_property(self, rng):
        """Deinterleaving is interleaving by the inverse permutation."""
        interleaver = Interleaver(rng.permutation(32))
        inverse = Interleaver(np.argsort(interleaver.permutation))
        data = np.arange(3 * 32).reshape(3, 32)
        forward = interleaver.interleave_batch(data)
        assert np.array_equal(inverse.interleave_batch(forward), data)
        assert np.array_equal(interleaver.deinterleave_batch(forward), data)
        assert np.array_equal(interleaver.interleave_batch(inverse.interleave_batch(data)), data)

    def test_invalid_permutation_rejected(self):
        with pytest.raises(ValueError):
            Interleaver(np.array([0, 0, 1]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Interleaver(np.arange(4)).interleave_batch(np.zeros((1, 5)))

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
        coded = rng.integers(0, 2, (1, 300), dtype=np.int8)
        out = matcher.rate_match_batch(coded, 0)
        assert out.shape == (1, 200)

    def test_repetition_wraps(self, rng):
        matcher = RateMatcher(num_coded_bits=90, num_output_bits=120)
        coded = rng.integers(0, 2, (1, 90), dtype=np.int8)
        out = matcher.rate_match_batch(coded, 0)
        assert np.array_equal(out[:, :90], coded)
        assert np.array_equal(out[:, 90:], coded[:, :30])

    def test_derate_match_accumulates(self):
        matcher = RateMatcher(num_coded_bits=10, num_output_bits=15)
        llrs = np.ones((1, 15))
        buffer = matcher.derate_match_batch(llrs, 0)[0]
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
        selected = matcher.rate_match_batch(llrs[None], 1)
        buffer = matcher.derate_match_batch(selected, 1)[0]
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
            matcher.rate_match_batch(np.zeros((1, 29), dtype=np.int8), 0)
        with pytest.raises(ValueError):
            matcher.derate_match_batch(np.zeros((1, 19)), 0)

    def test_priority_buffer_roundtrip(self, rng):
        systematic = rng.integers(0, 2, (3, 50), dtype=np.int8)
        parity1 = rng.integers(0, 2, (3, 50), dtype=np.int8)
        parity2 = rng.integers(0, 2, (3, 50), dtype=np.int8)
        buffer = make_systematic_priority_buffer_batch(systematic, parity1, parity2)
        s, p1, p2 = split_systematic_priority_buffer_batch(buffer, 50)
        assert np.array_equal(s, systematic)
        assert np.array_equal(p1, parity1)
        assert np.array_equal(p2, parity2)


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
        assert encoder.encode_batch(np.zeros((1, 96), dtype=np.int8)).shape == (1, 288)

    def test_encoder_systematic_part(self, rng):
        encoder = TurboEncoder(64)
        bits = rng.integers(0, 2, 64, dtype=np.int8)
        coded = encoder.encode_batch(bits[None])[0]
        assert np.array_equal(coded[:64], bits)

    def test_decoder_noiseless(self, rng):
        code = TurboCode(96, num_iterations=4)
        bits = rng.integers(0, 2, 96, dtype=np.int8)
        llrs = 8.0 * (1.0 - 2.0 * code.encode_batch(bits[None]).astype(float))
        result = code.decode_buffer(llrs)
        assert np.array_equal(result.decoded_bits[0], bits)

    def test_decoder_moderate_awgn(self, rng):
        code = TurboCode(200, num_iterations=6)
        bits = rng.integers(0, 2, (4, 200)).astype(np.int8)
        coded = code.encode_batch(bits)
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
        coded = code.encode_batch(bits)
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
        coded = code.encode_batch(bits)
        llrs = 4.0 * (1.0 - 2.0 * coded.astype(float))
        batch = code.decode_buffer(llrs).decoded_bits
        singles = np.stack(
            [code.decode_buffer(llrs[i : i + 1]).decoded_bits[0] for i in range(3)]
        )
        assert np.array_equal(batch, singles)

    def test_early_stopping_reports_convergence(self, rng):
        code = TurboCode(80, num_iterations=8)
        bits = rng.integers(0, 2, 80, dtype=np.int8)
        llrs = 10.0 * (1.0 - 2.0 * code.encode_batch(bits[None]).astype(float))
        result = code.decode_buffer(llrs)
        assert result.iterations_run < 8
        assert result.converged.all()

    def test_decoder_wrong_length_rejected(self):
        code = TurboCode(50)
        with pytest.raises(ValueError):
            code.decode_buffer(np.zeros((1, 100)))
        with pytest.raises(ValueError):
            code.decode_buffer(np.zeros(150))  # one block, but not a batch
        with pytest.raises(ValueError, match=r"expected shape \(batch, 50\)"):
            code.decoder.decode(np.zeros(50), np.zeros(50), np.zeros(50))

    def test_decoder_erasures_give_chance_output(self):
        decoder = TurboDecoder(40, num_iterations=2)
        result = decoder.decode(np.zeros((1, 40)), np.zeros((1, 40)), np.zeros((1, 40)))
        assert result.decoded_bits.shape == (1, 40)
