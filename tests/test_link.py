"""Tests for the link layer: configuration, transmitter, receiver and system."""

import numpy as np
import pytest

from repro.link import HspaLikeLink, LinkConfig, Receiver, Transmitter
from repro.memory.faults import FaultMap
from repro.utils.rng import child_rngs


class TestLinkConfig:
    def test_defaults_are_papers_mode(self):
        config = LinkConfig()
        assert config.modulation == "64QAM"
        assert config.llr_bits == 10
        assert config.max_transmissions == 4

    def test_block_size_includes_crc(self):
        config = LinkConfig(payload_bits=100, crc_bits=16)
        assert config.block_size == 116
        assert config.num_coded_bits == 348

    def test_channel_bits_multiple_of_symbol(self):
        config = LinkConfig(payload_bits=100, crc_bits=16, modulation="64QAM")
        assert config.channel_bits_per_transmission % 6 == 0
        assert config.symbols_per_transmission * 6 == config.channel_bits_per_transmission

    def test_storage_sizes(self):
        config = LinkConfig(payload_bits=100, crc_bits=16)
        per_tx = config.channel_bits_per_transmission * config.max_transmissions
        assert config.llr_storage_words == per_tx
        assert config.llr_storage_cells == per_tx * 10
        combined = config.with_updates(buffer_architecture="combined")
        assert combined.llr_storage_words == combined.num_coded_bits

    def test_effective_code_rate_bounds(self):
        with pytest.raises(ValueError):
            LinkConfig(effective_code_rate=0.0)
        with pytest.raises(ValueError):
            LinkConfig(effective_code_rate=1.2)

    def test_invalid_crc_bits(self):
        with pytest.raises(ValueError):
            LinkConfig(crc_bits=12)

    def test_invalid_modulation(self):
        with pytest.raises(ValueError):
            LinkConfig(modulation="BPSK")

    def test_invalid_profile(self):
        with pytest.raises(ValueError):
            LinkConfig(channel_profile="Mars")

    def test_invalid_buffer_architecture(self):
        with pytest.raises(ValueError):
            LinkConfig(buffer_architecture="holographic")

    def test_with_updates(self):
        config = LinkConfig(payload_bits=100)
        updated = config.with_updates(llr_bits=12)
        assert updated.llr_bits == 12
        assert updated.payload_bits == 100
        assert config.llr_bits == 10  # original unchanged

    def test_describe_mentions_key_parameters(self):
        text = LinkConfig().describe()
        assert "64QAM" in text and "10-bit" in text


class TestTransmitter:
    def test_encode_attaches_crc_and_systematic(self, tiny_config, rng):
        transmitter = Transmitter(tiny_config)
        payload = transmitter.random_payload(rng)
        [packet] = transmitter.encode_batch([payload])
        assert packet.payload_with_crc.size == tiny_config.block_size
        assert np.array_equal(packet.coded_buffer[: tiny_config.block_size], packet.payload_with_crc)
        assert tiny_config.crc.check_batch(packet.payload_with_crc[None])[0]

    def test_wrong_payload_length_rejected(self, tiny_config):
        transmitter = Transmitter(tiny_config)
        with pytest.raises(ValueError):
            transmitter.encode_batch([np.zeros(tiny_config.payload_bits + 1, dtype=np.int8)])

    def test_transmission_bits_length(self, tiny_config, rng):
        transmitter = Transmitter(tiny_config)
        [packet] = transmitter.encode_batch([transmitter.random_payload(rng)])
        bits = transmitter.transmission_bits_batch([packet], 0)
        assert bits.shape[1] == tiny_config.channel_bits_per_transmission

    def test_redundancy_versions_differ(self, tiny_config, rng):
        transmitter = Transmitter(tiny_config)
        [packet] = transmitter.encode_batch([transmitter.random_payload(rng)])
        rv0 = transmitter.transmission_bits_batch([packet], 0)
        rv1 = transmitter.transmission_bits_batch([packet], 1)
        assert not np.array_equal(rv0, rv1)

    def test_transmit_symbol_count(self, tiny_config, rng):
        transmitter = Transmitter(tiny_config)
        [packet] = transmitter.encode_batch([transmitter.random_payload(rng)])
        symbols = transmitter.transmit_batch([packet], 0)
        assert symbols.shape[1] == tiny_config.symbols_per_transmission

    def test_spreading_multiplies_samples(self, rng):
        config = LinkConfig(payload_bits=56, crc_bits=16, spreading_factor=4)
        transmitter = Transmitter(config)
        [packet] = transmitter.encode_batch([transmitter.random_payload(rng)])
        samples = transmitter.transmit_batch([packet], 0)
        assert samples.shape[1] == config.symbols_per_transmission * 4

    def test_random_payload_is_binary(self, tiny_config, rng):
        payload = Transmitter(tiny_config).random_payload(rng)
        assert payload.shape == (tiny_config.payload_bits,)
        assert payload.dtype == np.int8
        assert set(np.unique(payload).tolist()) == {0, 1}

    def test_random_payload_reproducible(self, tiny_config):
        transmitter = Transmitter(tiny_config)
        assert np.array_equal(transmitter.random_payload(3), transmitter.random_payload(3))
        assert not np.array_equal(transmitter.random_payload(3), transmitter.random_payload(4))


class TestReceiverAndLink:
    def test_noiseless_single_transmission_decodes(self, tiny_config, rng):
        """Over an ideal channel, the first transmission must decode and pass CRC."""
        transmitter = Transmitter(tiny_config)
        receiver = Receiver(tiny_config, transmitter)
        payload = transmitter.random_payload(rng)
        [packet] = transmitter.encode_batch([payload])
        symbols = transmitter.transmit_batch([packet], 0)
        channel_llrs = receiver.front_end_batch(symbols, np.array([[1.0]]), [1e-4])
        mother = receiver.to_mother_domain_batch(channel_llrs, 0)
        decoded, crc_ok, _ = receiver.decode_batch(mother)
        assert crc_ok[0]
        assert np.array_equal(decoded[0, : tiny_config.payload_bits], payload)

    def test_high_snr_link_first_transmission(self, tiny_config):
        link = HspaLikeLink(tiny_config)
        result = link.simulate_packets(6, 30.0, rng=0)
        assert result.statistics.block_error_rate == 0.0
        assert result.statistics.average_transmissions < 1.5

    def test_decoded_payloads_match_at_high_snr(self, tiny_config, rng):
        link = HspaLikeLink(tiny_config)
        payloads = [link.transmitter.random_payload(rng) for _ in range(3)]
        result = link.simulate_packets(3, 30.0, rng=1, payloads=payloads)
        for sent, outcome in zip(payloads, result.packet_results):
            assert outcome.success
            assert np.array_equal(outcome.decoded_bits, sent)

    def test_low_snr_uses_retransmissions(self, tiny_config):
        link = HspaLikeLink(tiny_config)
        low = link.simulate_packets(6, 4.0, rng=2)
        high = link.simulate_packets(6, 30.0, rng=2)
        assert low.statistics.average_transmissions > high.statistics.average_transmissions

    def test_throughput_increases_with_snr(self, tiny_64qam_config):
        link = HspaLikeLink(tiny_64qam_config)
        low_rng, high_rng = child_rngs(3, 2)
        low = link.simulate_packets(6, 10.0, low_rng).statistics
        high = link.simulate_packets(6, 30.0, high_rng).statistics
        assert high.normalized_throughput >= low.normalized_throughput

    def test_single_packet_api(self, tiny_config):
        link = HspaLikeLink(tiny_config)
        result = link.simulate_single_packet(28.0, rng=4)
        assert result.num_transmissions >= 1
        assert isinstance(result.success, bool)

    def test_combined_architecture_also_works(self, rng):
        config = LinkConfig(
            payload_bits=56,
            crc_bits=16,
            modulation="16QAM",
            effective_code_rate=0.6,
            turbo_iterations=3,
            max_transmissions=3,
            buffer_architecture="combined",
        )
        link = HspaLikeLink(config)
        result = link.simulate_packets(4, 30.0, rng=rng)
        assert result.statistics.block_error_rate == 0.0

    def test_faulty_buffer_degrades_low_snr_performance(self, tiny_64qam_config):
        link = HspaLikeLink(tiny_64qam_config)
        config = tiny_64qam_config

        def faulty_factory(i):
            fault_map = FaultMap.with_exact_fault_count(
                config.llr_storage_words,
                config.llr_bits,
                int(0.10 * config.llr_storage_cells),
                rng=100 + i,
            )
            return link.make_buffer(fault_map=fault_map)

        clean = link.simulate_packets(8, 16.0, rng=5)
        dirty = link.simulate_packets(8, 16.0, rng=5, buffer_factory=faulty_factory)
        assert (
            dirty.statistics.average_transmissions
            >= clean.statistics.average_transmissions - 1e-9
        )

    def test_rake_receiver_variant_runs(self, tiny_config):
        link = HspaLikeLink(tiny_config, use_rake=True)
        result = link.simulate_packets(3, 30.0, rng=6)
        assert result.statistics.num_packets == 3

    def test_reproducibility(self, tiny_config):
        link = HspaLikeLink(tiny_config)
        first = link.simulate_packets(4, 15.0, rng=9)
        second = link.simulate_packets(4, 15.0, rng=9)
        for field in ("num_packets", "num_successful", "total_transmissions"):
            assert getattr(first.statistics, field) == getattr(second.statistics, field)

    def test_payload_count_mismatch_rejected(self, tiny_config, rng):
        link = HspaLikeLink(tiny_config)
        with pytest.raises(ValueError):
            link.simulate_packets(3, 20.0, rng=1, payloads=[link.transmitter.random_payload(rng)])

