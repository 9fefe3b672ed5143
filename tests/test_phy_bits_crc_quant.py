"""Tests for the bit-to-symbol reshape, word bit matrices, CRC codes and the LLR quantizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.crc import CRC_8, CRC_16, CRC_24A, Crc
from repro.phy.modulation import bits_to_symbols_matrix
from repro.phy.quantization import LlrQuantizer


def test_symbols_matrix_pads():
    matrix = bits_to_symbols_matrix(np.ones(5, dtype=np.int8), 4)
    assert matrix.shape == (2, 4)
    assert matrix[1, -1] == 0


class TestWordBits:
    """Stored words to and from the MSB-first bit matrix a fault map covers."""

    @pytest.mark.parametrize("value,width", [(0, 2), (5, 3), (255, 8), (1023, 10)])
    def test_int_bits_roundtrip(self, value, width):
        quantizer = LlrQuantizer(num_bits=width)
        bits = quantizer.words_to_bits(np.array([value]))
        assert bits.shape == (1, width)
        assert quantizer.bits_to_words(bits).tolist() == [value]

    def test_int_to_bits_msb_first(self):
        bits = LlrQuantizer(num_bits=3).words_to_bits(np.array([4, 1]))
        assert bits.tolist() == [[1, 0, 0], [0, 0, 1]]

    def test_int_to_bits_overflow(self):
        quantizer = LlrQuantizer(num_bits=3)
        with pytest.raises(ValueError, match="fit in 3 bits"):
            quantizer.words_to_index(np.array([8]))
        with pytest.raises(ValueError, match="fit in 3 bits"):
            quantizer.words_to_index(np.array([-1]))

    def test_pack_bits_wrong_length(self):
        quantizer = LlrQuantizer(num_bits=4)
        with pytest.raises(ValueError, match="expected shape"):
            quantizer.bits_to_words(np.zeros((2, 5), dtype=np.int8))
        with pytest.raises(ValueError, match="expected shape"):
            quantizer.bits_to_words(np.zeros(4, dtype=np.int8))


class TestCrc:
    @pytest.mark.parametrize("crc", [CRC_8, CRC_16, CRC_24A])
    def test_attach_check_roundtrip(self, crc, rng):
        data = rng.integers(0, 2, (3, 100), dtype=np.int8)
        assert crc.check_batch(crc.attach_batch(data)).all()

    @pytest.mark.parametrize("crc", [CRC_8, CRC_16, CRC_24A])
    def test_single_bit_error_detected(self, crc, rng):
        codeword = crc.attach_batch(rng.integers(0, 2, (1, 64), dtype=np.int8))
        for position in [0, codeword.shape[1] // 2, codeword.shape[1] - 1]:
            corrupted = codeword.copy()
            corrupted[0, position] ^= 1
            assert not crc.check_batch(corrupted)[0]

    def test_burst_error_detected(self, rng):
        codeword = CRC_16.attach_batch(rng.integers(0, 2, (1, 200), dtype=np.int8))
        corrupted = codeword.copy()
        corrupted[0, 10:14] ^= 1
        assert not CRC_16.check_batch(corrupted)[0]

    def test_num_check_bits(self):
        assert CRC_24A.num_check_bits == 24
        assert CRC_16.num_check_bits == 16
        assert CRC_8.num_check_bits == 8

    def test_strip_recovers_payload(self, rng):
        data = rng.integers(0, 2, (1, 50), dtype=np.int8)
        assert np.array_equal(CRC_8.strip(CRC_8.attach_batch(data)[0]), data[0])

    def test_invalid_polynomial_rejected(self):
        with pytest.raises(ValueError):
            Crc((0, 1, 1))

    @given(st.lists(st.integers(0, 1), min_size=8, max_size=64))
    @settings(max_examples=40, deadline=None)
    def test_random_flip_detected_property(self, bits):
        codeword = CRC_16.attach_batch(np.array([bits], dtype=np.int8))
        corrupted = codeword.copy()
        corrupted[0, len(bits) // 2] ^= 1
        assert not CRC_16.check_batch(corrupted)[0]


class TestLlrQuantizer:
    def test_roundtrip_within_step(self):
        quantizer = LlrQuantizer(num_bits=10, max_abs=32.0)
        llrs = np.linspace(-30, 30, 257)
        error = np.abs(quantizer.index_to_value(quantizer.quantize_to_index(llrs)) - llrs)
        assert error.max() <= quantizer.step / 2 + 1e-12

    def test_saturation(self):
        quantizer = LlrQuantizer(num_bits=8, max_abs=8.0)
        index = quantizer.quantize_to_index(np.array([100.0, -100.0]))
        assert quantizer.index_to_value(index) == pytest.approx([8.0, -8.0])

    def test_sign_preserved(self, rng):
        quantizer = LlrQuantizer(num_bits=10)
        llrs = rng.normal(0, 10, 500)
        quantized = quantizer.index_to_value(quantizer.quantize_to_index(llrs))
        big = np.abs(llrs) > quantizer.step
        assert np.all(np.sign(quantized[big]) == np.sign(llrs[big]))

    @pytest.mark.parametrize("word_format", ["sign-magnitude", "twos-complement"])
    def test_word_roundtrip(self, word_format, rng):
        quantizer = LlrQuantizer(num_bits=10, word_format=word_format)
        llrs = rng.normal(0, 10, 300)
        words = quantizer.llrs_to_words(llrs)
        assert words.min() >= 0 and words.max() < 2**10
        quantized = quantizer.index_to_value(quantizer.quantize_to_index(llrs))
        assert np.allclose(quantizer.words_to_llrs(words), quantized)

    @pytest.mark.parametrize("word_format", ["sign-magnitude", "twos-complement"])
    def test_bit_matrix_roundtrip(self, word_format, rng):
        quantizer = LlrQuantizer(num_bits=9, word_format=word_format)
        words = quantizer.llrs_to_words(rng.normal(0, 5, 100))
        bits = quantizer.words_to_bits(words)
        assert bits.shape == (100, 9)
        assert np.array_equal(quantizer.bits_to_words(bits), words)

    def test_msb_is_sign_for_sign_magnitude(self):
        quantizer = LlrQuantizer(num_bits=6, word_format="sign-magnitude")
        words = quantizer.llrs_to_words(np.array([-3.0, 3.0]))
        bits = quantizer.words_to_bits(words)
        assert bits[0, 0] == 1  # negative -> sign bit set
        assert bits[1, 0] == 0

    def test_sign_bit_flip_changes_llr_sign(self):
        quantizer = LlrQuantizer(num_bits=10)
        words = quantizer.llrs_to_words(np.array([20.0]))
        bits = quantizer.words_to_bits(words)
        bits[0, 0] ^= 1
        flipped = quantizer.words_to_llrs(quantizer.bits_to_words(bits))
        stored = quantizer.index_to_value(quantizer.quantize_to_index(20.0))
        assert flipped[0] == pytest.approx(-stored)

    def test_monotonicity(self):
        quantizer = LlrQuantizer(num_bits=8, max_abs=16.0)
        llrs = np.linspace(-16, 16, 101)
        quantized = quantizer.index_to_value(quantizer.quantize_to_index(llrs))
        assert np.all(np.diff(quantized) >= -1e-12)

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            LlrQuantizer(num_bits=1)
        with pytest.raises(ValueError):
            LlrQuantizer(max_abs=0.0)
        with pytest.raises(ValueError):
            LlrQuantizer(word_format="bogus")

    def test_quantization_noise_power(self):
        """Rounding inside the range leaves a uniform error of power step^2 / 12."""
        quantizer = LlrQuantizer(num_bits=10, max_abs=32.0)
        llrs = np.linspace(-31.0, 31.0, 200_001)
        error = quantizer.index_to_value(quantizer.quantize_to_index(llrs)) - llrs
        assert np.mean(error**2) == pytest.approx(quantizer.step**2 / 12.0, rel=0.01)

    @given(st.floats(min_value=-100, max_value=100, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_word_roundtrip_property(self, llr):
        quantizer = LlrQuantizer(num_bits=10, max_abs=32.0)
        words = quantizer.llrs_to_words(np.array([llr]))
        recovered = quantizer.words_to_llrs(words)[0]
        clipped = np.clip(llr, -32.0, 32.0)
        assert abs(recovered - clipped) <= quantizer.step / 2 + 1e-9
