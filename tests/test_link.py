"""Tests for the link layer: configuration, transmitter, receiver and system."""

import numpy as np
import pytest

from repro.link import HspaLikeLink, LinkConfig, Receiver, Transmitter
from repro.memory.faults import FaultMap


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
        packet = transmitter.encode(payload)
        assert packet.payload_with_crc.size == tiny_config.block_size
        assert np.array_equal(packet.coded_buffer[: tiny_config.block_size], packet.payload_with_crc)
        assert tiny_config.crc.check(packet.payload_with_crc)

    def test_wrong_payload_length_rejected(self, tiny_config):
        transmitter = Transmitter(tiny_config)
        with pytest.raises(ValueError):
            transmitter.encode(np.zeros(tiny_config.payload_bits + 1, dtype=np.int8))

    def test_transmission_bits_length(self, tiny_config, rng):
        transmitter = Transmitter(tiny_config)
        packet = transmitter.encode(transmitter.random_payload(rng))
        bits = transmitter.transmission_bits(packet, 0)
        assert bits.size == tiny_config.channel_bits_per_transmission

    def test_redundancy_versions_differ(self, tiny_config, rng):
        transmitter = Transmitter(tiny_config)
        packet = transmitter.encode(transmitter.random_payload(rng))
        rv0 = transmitter.transmission_bits(packet, 0)
        rv1 = transmitter.transmission_bits(packet, 1)
        assert not np.array_equal(rv0, rv1)

    def test_transmit_symbol_count(self, tiny_config, rng):
        transmitter = Transmitter(tiny_config)
        packet = transmitter.encode(transmitter.random_payload(rng))
        symbols = transmitter.transmit(packet, 0)
        assert symbols.size == tiny_config.symbols_per_transmission

    def test_spreading_multiplies_samples(self, rng):
        config = LinkConfig(payload_bits=56, crc_bits=16, spreading_factor=4)
        transmitter = Transmitter(config)
        packet = transmitter.encode(transmitter.random_payload(rng))
        samples = transmitter.transmit(packet, 0)
        assert samples.size == config.symbols_per_transmission * 4


class TestReceiverAndLink:
    def test_noiseless_single_transmission_decodes(self, tiny_config, rng):
        """Over an ideal channel, the first transmission must decode and pass CRC."""
        transmitter = Transmitter(tiny_config)
        receiver = Receiver(tiny_config, transmitter)
        payload = transmitter.random_payload(rng)
        packet = transmitter.encode(payload)
        symbols = transmitter.transmit(packet, 0)
        channel_llrs = receiver.front_end_batch(symbols[None], np.array([[1.0]]), [1e-4])
        mother = receiver.to_mother_domain_batch(channel_llrs, 0)
        decoded_payload, crc_ok, _ = receiver.decode(mother[0])
        assert crc_ok
        assert np.array_equal(decoded_payload, payload)

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
        results = link.snr_sweep([10.0, 30.0], 6, rng=3)
        assert results[1].statistics.normalized_throughput >= results[0].statistics.normalized_throughput

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
        assert first.statistics.as_dict() == second.statistics.as_dict()

    def test_payload_count_mismatch_rejected(self, tiny_config, rng):
        link = HspaLikeLink(tiny_config)
        with pytest.raises(ValueError):
            link.simulate_packets(3, 20.0, rng=1, payloads=[link.transmitter.random_payload(rng)])


class TestSnrSweep:
    def test_sweep_runs_each_point(self, tiny_config):
        link = HspaLikeLink(tiny_config)
        results = link.snr_sweep([10.0, 30.0], num_packets=2, rng=4)
        assert [r.snr_db for r in results] == [10.0, 30.0]
        assert all(r.statistics.num_packets == 2 for r in results)

    def test_empty_sweep_rejected(self, tiny_config):
        link = HspaLikeLink(tiny_config)
        with pytest.raises(ValueError, match="snr_points_db"):
            link.snr_sweep([], num_packets=2, rng=4)

    def test_payloads_forwarded_to_every_point(self, tiny_config, rng):
        link = HspaLikeLink(tiny_config)
        payloads = [link.transmitter.random_payload(rng) for _ in range(2)]
        results = link.snr_sweep([40.0, 45.0], num_packets=2, rng=4, payloads=payloads)
        # At near-noiseless SNR every packet decodes, and the decoded payloads
        # must be the ones supplied — proving the forwarding works.
        for result in results:
            for packet, payload in zip(result.packet_results, payloads):
                assert packet.success
                np.testing.assert_array_equal(packet.decoded_bits, payload)

    def test_payload_count_mismatch_rejected_in_sweep(self, tiny_config, rng):
        link = HspaLikeLink(tiny_config)
        with pytest.raises(ValueError):
            link.snr_sweep(
                [20.0], num_packets=3, rng=1, payloads=[link.transmitter.random_payload(rng)]
            )
