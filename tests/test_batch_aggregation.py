"""Cross-work-item decode aggregation and adaptive fault-map stopping.

Aggregation is a pure throughput optimisation: pooling the packets of many
work items into shared decoder calls must reproduce the per-task results
bit-for-bit, for any grouping, worker count or scheduling.  Adaptive
stopping trades packets for confidence but must stay deterministic in the
worker count.
"""

import numpy as np
import pytest

from repro.core.protection import NoProtection, msb_protection_scheme
from repro.link.system import PacketGroup, simulate_packet_groups
from repro.runner.parallel import ParallelRunner
from repro.runner.tasks import (
    AdaptiveStopping,
    FaultMapTask,
    GridPoint,
    LinkChunkTask,
    group_tasks_for_batching,
    resolve_adaptive,
    run_fault_map_grid,
    simulate_fault_map_batch,
    simulate_link_chunk_batch,
)
from repro.utils.rng import keyed_seed_sequence


def _totals(stats):
    """The counts every HARQ summary figure derives from."""
    return stats.num_packets, stats.num_successful, stats.total_transmissions


def _chunk_tasks(config, snrs, entropy=2012, packets=4):
    return [
        LinkChunkTask(
            config=config,
            snr_db=snr,
            num_packets=packets,
            entropy=entropy,
            key=(index,),
        )
        for index, snr in enumerate(snrs)
    ]


class TestGrouping:
    def test_groups_respect_packet_target_and_order(self, tiny_config):
        tasks = _chunk_tasks(tiny_config, [10.0, 12.0, 14.0, 16.0, 18.0], packets=4)
        groups = group_tasks_for_batching(tasks, aggregate_packets=8)
        assert [len(g) for g in groups] == [2, 2, 1]
        assert [t for g in groups for t in g] == tasks

    def test_incompatible_configs_split_groups(self, tiny_config, tiny_64qam_config):
        tasks = _chunk_tasks(tiny_config, [10.0]) + _chunk_tasks(tiny_64qam_config, [10.0])
        groups = group_tasks_for_batching(tasks, aggregate_packets=64)
        assert len(groups) == 2

    def test_mixed_configs_rejected_by_batch_executor(self, tiny_config, tiny_64qam_config):
        tasks = _chunk_tasks(tiny_config, [10.0]) + _chunk_tasks(tiny_64qam_config, [10.0])
        with pytest.raises(ValueError, match="share one link configuration"):
            simulate_link_chunk_batch(tasks)

    def test_invalid_aggregate_packets(self, tiny_config):
        with pytest.raises(ValueError):
            group_tasks_for_batching(_chunk_tasks(tiny_config, [10.0]), aggregate_packets=0)


class TestLinkChunkAggregation:
    def test_batched_chunks_match_solo_chunks(self, tiny_config):
        tasks = _chunk_tasks(tiny_config, [8.0, 12.0, 16.0], packets=5)
        solo = [simulate_link_chunk_batch((task,))[0] for task in tasks]
        batched = simulate_link_chunk_batch(tasks)
        for a, b in zip(solo, batched):
            assert _totals(a) == _totals(b)
            assert np.array_equal(
                a.attempts_per_transmission, b.attempts_per_transmission
            )
            assert np.array_equal(
                a.failures_per_transmission, b.failures_per_transmission
            )

    def test_packet_groups_independent_of_grouping(self, tiny_config):
        """Simulating groups together or apart gives identical packets."""
        from repro.runner.tasks import _cached_link

        link = _cached_link(tiny_config)
        make = lambda key, snr: PacketGroup(
            num_packets=3, snr_db=snr, rng=keyed_seed_sequence(7, key)
        )
        together = simulate_packet_groups(
            link, [make((0,), 10.0), make((1,), 14.0)]
        )
        apart = [
            simulate_packet_groups(link, [make((0,), 10.0)])[0],
            simulate_packet_groups(link, [make((1,), 14.0)])[0],
        ]
        for merged, alone in zip(together, apart):
            assert len(merged.packet_results) == len(alone.packet_results)
            for p_merged, p_alone in zip(merged.packet_results, alone.packet_results):
                assert p_merged.success == p_alone.success
                assert p_merged.num_transmissions == p_alone.num_transmissions
                assert np.array_equal(p_merged.decoded_bits, p_alone.decoded_bits)
                assert p_merged.failure_history == p_alone.failure_history


class TestFaultMapAggregation:
    def test_batched_dies_match_solo_dies(self, tiny_config):
        protection = msb_protection_scheme(tiny_config.llr_bits, 3)
        point = GridPoint(
            key_prefix=(0, 0),
            config=tiny_config,
            protection=protection,
            snr_db=12.0,
            defect_rate=0.05,
        )
        tasks = point.die_tasks(
            range(4), packets_per_die=2, entropy=2012, use_rake=False
        )
        solo = [simulate_fault_map_batch((task,))[0] for task in tasks]
        batched = simulate_fault_map_batch(tasks)
        for a, b in zip(solo, batched):
            assert a.num_faults == b.num_faults
            assert a.fallible_cells == b.fallible_cells
            assert _totals(a.statistics) == _totals(b.statistics)

    def test_grid_results_independent_of_aggregate_size(self, tiny_config):
        protection = NoProtection(bits_per_word=tiny_config.llr_bits)
        points = [
            GridPoint(
                key_prefix=(i,),
                config=tiny_config,
                protection=protection,
                snr_db=snr,
                defect_rate=0.01,
            )
            for i, snr in enumerate([10.0, 16.0])
        ]
        runner = ParallelRunner.serial()
        results = [
            run_fault_map_grid(
                runner,
                points,
                num_packets=6,
                num_fault_maps=2,
                entropy=2012,
                aggregate_packets=aggregate,
            )
            for aggregate in (1, 8, 1024)
        ]
        reference = results[0]
        for other in results[1:]:
            for a, b in zip(reference, other):
                assert _totals(a.statistics) == _totals(b.statistics)
                assert a.per_map_throughput == b.per_map_throughput


class TestAdaptiveFaultSweeps:
    def test_resolve_adaptive(self):
        assert resolve_adaptive(None) is None
        assert resolve_adaptive(False) is None
        assert isinstance(resolve_adaptive(True), AdaptiveStopping)
        custom = AdaptiveStopping(bler_floor=0.2)
        assert resolve_adaptive(custom) is custom
        with pytest.raises(TypeError):
            resolve_adaptive("yes")

    def test_adaptive_point_deterministic_across_workers(self, tiny_config):
        protection = NoProtection(bits_per_word=tiny_config.llr_bits)
        point = GridPoint(
            key_prefix=(0,),
            config=tiny_config,
            protection=protection,
            snr_db=18.0,
            defect_rate=0.0,
        )
        kwargs = dict(num_packets=8, num_fault_maps=2, entropy=2012, adaptive=AdaptiveStopping())
        serial = run_fault_map_grid(ParallelRunner.serial(), [point], **kwargs)[0]
        parallel = run_fault_map_grid(ParallelRunner(workers=3), [point], **kwargs)[0]
        assert _totals(serial.statistics) == _totals(parallel.statistics)
        assert serial.per_map_throughput == parallel.per_map_throughput

    def test_adaptive_uses_fixed_schedule_dies(self, tiny_config):
        """The first dies of an adaptive run coincide with the fixed sweep's."""
        protection = NoProtection(bits_per_word=tiny_config.llr_bits)
        point = GridPoint(
            key_prefix=(3,),
            config=tiny_config,
            protection=protection,
            snr_db=14.0,
            defect_rate=0.02,
        )
        adaptive = run_fault_map_grid(
            ParallelRunner.serial(),
            [point],
            num_packets=8,
            num_fault_maps=2,
            entropy=99,
            adaptive=AdaptiveStopping(chunks_per_round=2),
        )[0]
        fixed = run_fault_map_grid(
            ParallelRunner.serial(),
            [point],
            num_packets=8,
            num_fault_maps=2,
            entropy=99,
        )[0]
        assert len(fixed.per_map_throughput) == 2
        assert (
            adaptive.per_map_throughput[: len(fixed.per_map_throughput)]
            == fixed.per_map_throughput
        )

    def test_adaptive_stops_confident_low_bler_point_early(self, tiny_config):
        """A clean high-SNR point must not burn the whole fixed budget."""
        protection = NoProtection(bits_per_word=tiny_config.llr_bits)
        point = GridPoint(
            key_prefix=(0,),
            config=tiny_config,
            protection=protection,
            snr_db=20.0,
            defect_rate=0.0,
        )
        result = run_fault_map_grid(
            ParallelRunner.serial(),
            [point],
            num_packets=64,
            num_fault_maps=16,
            entropy=2012,
            adaptive=AdaptiveStopping(bler_floor=0.5, chunks_per_round=2),
        )[0]
        # budget for bler_floor=0.5 at 0.3 relative error is ~12 packets,
        # far below the 64-packet fixed budget.
        assert result.statistics.num_packets < 64
