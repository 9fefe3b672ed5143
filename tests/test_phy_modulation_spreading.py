"""Tests for QAM modulation/demapping and OVSF spreading."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.awgn import awgn_noise
from repro.phy.modulation import MODULATIONS, Modulator, get_modulator
from repro.phy.spreading import Spreader, ovsf_code


def _constellation(modulator):
    """Every constellation point, indexed by its MSB-first bit pattern."""
    k = modulator.bits_per_symbol
    patterns = np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)
    return modulator.modulate((patterns & 1).astype(np.int8).reshape(-1))


def _hard_bits(modulator, symbols):
    return (modulator.demodulate_soft(symbols, noise_variance=1.0) < 0).astype(np.int8)


class TestModulation:
    @pytest.mark.parametrize("name", ["QPSK", "16QAM", "64QAM"])
    def test_unit_average_energy(self, name):
        points = _constellation(get_modulator(name))
        assert np.mean(np.abs(points) ** 2) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("name", ["QPSK", "16QAM", "64QAM"])
    def test_noiseless_roundtrip(self, name, rng):
        modulator = get_modulator(name)
        bits = rng.integers(0, 2, modulator.bits_per_symbol * 200, dtype=np.int8)
        symbols = modulator.modulate(bits)
        hard = _hard_bits(modulator, symbols)
        assert np.array_equal(hard[: bits.size], bits)

    @pytest.mark.parametrize("name", ["QPSK", "16QAM", "64QAM"])
    def test_soft_llr_signs_match_bits_noiseless(self, name, rng):
        modulator = get_modulator(name)
        bits = rng.integers(0, 2, modulator.bits_per_symbol * 100, dtype=np.int8)
        llrs = modulator.demodulate_soft(modulator.modulate(bits), noise_variance=0.1)
        assert np.array_equal((llrs < 0).astype(np.int8)[: bits.size], bits)

    def test_constellation_size(self):
        assert _constellation(get_modulator("64QAM")).size == 64

    def test_constellation_gray_property(self):
        modulator = get_modulator("16QAM")
        points = _constellation(modulator)
        # Nearest neighbours in the constellation differ in exactly one bit.
        min_distance = np.min(
            [
                np.abs(points[i] - points[j])
                for i in range(16)
                for j in range(16)
                if i != j
            ]
        )
        for i in range(16):
            for j in range(16):
                if i != j and np.abs(points[i] - points[j]) < min_distance * 1.01:
                    assert bin(i ^ j).count("1") == 1

    @pytest.mark.parametrize("name", ["QPSK", "64QAM"])
    def test_gray_code_adjacent_differ_by_one_bit(self, name):
        """Every pair of nearest neighbours carries labels one bit apart."""
        points = _constellation(get_modulator(name))
        labels = np.arange(points.size)
        distance = np.abs(points[:, None] - points[None, :])
        np.fill_diagonal(distance, np.inf)
        neighbours = distance < distance.min() * 1.01
        # Corner points have two nearest neighbours, inner points four.
        assert neighbours.sum(axis=1).min() == 2
        flipped = labels[:, None] ^ labels[None, :]
        assert all(bin(int(x)).count("1") == 1 for x in flipped[neighbours])

    def test_llr_magnitude_scales_with_noise(self, rng):
        modulator = get_modulator("16QAM")
        bits = rng.integers(0, 2, 400, dtype=np.int8)
        symbols = modulator.modulate(bits)
        quiet = np.mean(np.abs(modulator.demodulate_soft(symbols, 0.01)))
        loud = np.mean(np.abs(modulator.demodulate_soft(symbols, 1.0)))
        assert quiet > loud

    def test_awgn_ber_decreases_with_snr(self, rng):
        modulator = get_modulator("16QAM")
        bits = rng.integers(0, 2, 4 * 3000, dtype=np.int8)
        symbols = modulator.modulate(bits)
        bers = []
        for snr_db in (5.0, 15.0):
            n0 = 10 ** (-snr_db / 10)
            noisy = symbols + (
                rng.normal(0, np.sqrt(n0 / 2), symbols.shape)
                + 1j * rng.normal(0, np.sqrt(n0 / 2), symbols.shape)
            )
            hard = (modulator.demodulate_soft(noisy, n0) < 0).astype(np.int8)
            bers.append(np.mean(hard[: bits.size] != bits))
        assert bers[1] < bers[0]

    def test_odd_bits_per_symbol_rejected(self):
        with pytest.raises(ValueError):
            Modulator(3)

    def test_unknown_modulation_rejected(self):
        with pytest.raises(ValueError):
            get_modulator("256QAM")

    def test_registry_names(self):
        assert set(MODULATIONS) == {"QPSK", "16QAM", "64QAM"}

    @given(st.integers(min_value=0, max_value=2**12 - 1))
    @settings(max_examples=30, deadline=None)
    def test_single_symbol_roundtrip_property(self, pattern):
        modulator = get_modulator("64QAM")
        bits = np.array([(pattern >> (11 - i)) & 1 for i in range(12)], dtype=np.int8)
        hard = _hard_bits(modulator, modulator.modulate(bits))
        assert np.array_equal(hard[:12], bits)


class TestSpreading:
    def test_ovsf_codes_are_orthogonal(self):
        codes = np.array([ovsf_code(16, index) for index in range(16)])
        gram = codes @ codes.T / 16
        assert np.allclose(gram, np.eye(16), atol=1e-12)

    @pytest.mark.parametrize("sf", [2, 4, 8, 16, 32])
    def test_ovsf_code_values(self, sf):
        for index in (0, sf // 2, sf - 1):
            code = ovsf_code(sf, index)
            assert code.size == sf
            assert set(np.unique(code)).issubset({-1.0, 1.0})

    def test_ovsf_matches_tree(self):
        """Row k of the code tree: C(2n, 2k) = [c, c], C(2n, 2k+1) = [c, -c]."""
        tree = np.array([[1.0]])
        while tree.shape[1] < 8:
            tree = np.stack([np.hstack([tree, tree]), np.hstack([tree, -tree])], axis=1)
            tree = tree.reshape(-1, tree.shape[-1])
        for index in range(8):
            assert np.array_equal(ovsf_code(8, index), tree[index])

    def test_ovsf_invalid_sf(self):
        with pytest.raises(ValueError):
            ovsf_code(12, 0)

    def test_spread_despread_roundtrip(self, rng):
        spreader = Spreader(spreading_factor=8, code_index=3)
        symbols = rng.normal(size=(1, 64)) + 1j * rng.normal(size=(1, 64))
        recovered = spreader.despread_batch(spreader.spread_batch(symbols))
        assert np.allclose(recovered, symbols, atol=1e-12)

    def test_despread_rejects_partial_symbol(self):
        spreader = Spreader(spreading_factor=4)
        with pytest.raises(ValueError):
            spreader.despread_batch(np.zeros((1, 6), dtype=complex))

    @pytest.mark.parametrize("sf", [4, 16])
    def test_processing_gain(self, sf, rng):
        """Despreading averages ``sf`` chips: white chip noise loses 10 log10(sf) dB."""
        chips = awgn_noise((1, 16_384 * sf), 1.0, rng)
        despread = Spreader(spreading_factor=sf).despread_batch(chips)
        gain_db = -10.0 * np.log10(np.var(despread))
        assert gain_db == pytest.approx(10.0 * np.log10(sf), abs=0.15)

    def test_other_user_rejected(self, rng):
        """A different OVSF code despreads to (near) zero — CDMA orthogonality."""
        user_a = Spreader(spreading_factor=8, code_index=1)
        user_b = Spreader(spreading_factor=8, code_index=5)
        symbols = rng.normal(size=(1, 32)) + 1j * rng.normal(size=(1, 32))
        chips = user_a.spread_batch(symbols)
        leaked = user_b.despread_batch(chips)
        assert np.max(np.abs(leaked)) < 1e-10

    def test_cross_correlation_identical_code(self):
        code = ovsf_code(8, 2)
        assert np.dot(code, code) / code.size == pytest.approx(1.0)

