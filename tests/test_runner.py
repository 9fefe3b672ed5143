"""Tests for the parallel experiment runner: sharding, determinism, stopping."""

from functools import partial

import numpy as np
import pytest

from repro.experiments import fig2_bler_vs_harq, fig6_throughput_vs_defects
from repro.experiments.scales import SCALES
from repro.harq.metrics import HarqStatistics, merge_statistics
from repro.link.config import LinkConfig
from repro.core.montecarlo import proportion_confidence_interval, required_packets_for_bler
from repro.runner.parallel import AdaptiveRounds, ParallelRunner, default_workers
from repro.runner.tasks import (
    FaultMapTask,
    GridPoint,
    LinkChunkTask,
    block_errors,
    run_fault_map_grid,
    run_pooled_round,
    simulate_fault_map_batch,
    simulate_link_chunk_batch,
    split_packets,
)
from repro.core.protection import NoProtection
from repro.utils.rng import child_rngs, keyed_seed_sequence


@pytest.fixture(scope="module")
def micro_scale():
    """A sub-smoke scale so parallel end-to-end tests stay fast."""
    return SCALES["smoke"].with_updates(
        payload_bits=56,
        num_packets=4,
        num_fault_maps=2,
        turbo_iterations=3,
        snr_points_db=(16.0, 26.0),
        defect_rates=(0.0, 0.10),
    )


# Module-level so the process pool can pickle it by reference.
def _square(value):
    return value * value


class TestParallelRunnerMap:
    def test_serial_fallback_preserves_order(self):
        runner = ParallelRunner.serial()
        assert runner.backend.name == "serial"
        assert runner.map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_empty_task_list(self):
        assert ParallelRunner(workers=4).map(_square, []) == []

    def test_parallel_preserves_order(self):
        runner = ParallelRunner(workers=2)
        assert runner.map(_square, list(range(10))) == [i * i for i in range(10)]

    def test_workers_zero_means_auto(self):
        assert ParallelRunner(workers=0).workers == default_workers()

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            ParallelRunner(workers=-1)


class TestDeterminism:
    """Parallel and serial runs must be bit-identical for the same seed."""

    def test_link_chunk_is_location_independent(self):
        config = LinkConfig(payload_bits=56, crc_bits=16, turbo_iterations=3, max_transmissions=2)
        task = LinkChunkTask(config=config, snr_db=20.0, num_packets=2, entropy=9, key=(4, 2))
        [first] = simulate_link_chunk_batch((task,))
        [second] = simulate_link_chunk_batch((task,))
        assert first.num_successful == second.num_successful
        assert first.total_transmissions == second.total_transmissions
        np.testing.assert_array_equal(
            first.attempts_per_transmission, second.attempts_per_transmission
        )

    def test_fig6_parallel_matches_serial_bit_for_bit(self, micro_scale):
        serial = fig6_throughput_vs_defects.run(micro_scale, seed=2012)
        parallel = fig6_throughput_vs_defects.run(
            micro_scale, seed=2012, runner=ParallelRunner(workers=4)
        )
        assert serial.to_json() == parallel.to_json()

    def test_fig2_parallel_matches_serial_bit_for_bit(self, micro_scale):
        serial = fig2_bler_vs_harq.run(micro_scale, seed=3, snr_regimes_db=(12.0, 24.0))
        parallel = fig2_bler_vs_harq.run(
            micro_scale,
            seed=3,
            snr_regimes_db=(12.0, 24.0),
            runner=ParallelRunner(workers=3),
        )
        assert serial.to_json() == parallel.to_json()

    def test_different_seeds_differ(self, micro_scale):
        one = fig6_throughput_vs_defects.run(micro_scale, seed=1)
        two = fig6_throughput_vs_defects.run(micro_scale, seed=2)
        assert one.to_json() != two.to_json()


class TestSeedKeys:
    def test_child_rngs_seed_sequence_children_never_collide(self):
        parent = np.random.SeedSequence(42)
        children = child_rngs(parent, 64)
        draws = {int(rng.integers(0, 2**63 - 1)) for rng in children}
        assert len(draws) == 64

    def test_seed_sequence_spawn_keys_unique(self):
        parent = np.random.SeedSequence(42)
        spawned = parent.spawn(32)
        keys = {child.spawn_key for child in spawned}
        assert len(keys) == 32

    def test_keyed_seed_sequence_distinct_keys_distinct_streams(self):
        keys = [(0,), (1,), (0, 0), (0, 1), (1, 0), (2, 5, 7)]
        draws = {
            key: int(np.random.default_rng(keyed_seed_sequence(7, key)).integers(0, 2**63 - 1))
            for key in keys
        }
        assert len(set(draws.values())) == len(keys)

    def test_keyed_seed_sequence_same_key_same_stream(self):
        a = np.random.default_rng(keyed_seed_sequence(7, (3, 1))).integers(0, 2**31, 4)
        b = np.random.default_rng(keyed_seed_sequence(7, (3, 1))).integers(0, 2**31, 4)
        np.testing.assert_array_equal(a, b)

    def test_keyed_seed_sequence_rejects_negative(self):
        with pytest.raises(ValueError):
            keyed_seed_sequence(-1)
        with pytest.raises(ValueError):
            keyed_seed_sequence(1, (-2,))


class TestSplitPackets:
    def test_exact_division(self):
        assert split_packets(32, 8) == [8, 8, 8, 8]

    def test_remainder_chunk(self):
        assert split_packets(20, 8) == [8, 8, 4]

    def test_small_budget_single_chunk(self):
        assert split_packets(3, 8) == [3]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            split_packets(0)
        with pytest.raises(ValueError):
            split_packets(8, 0)


class TestFaultMapTasks:
    def test_point_sharding_matches_serial_packet_split(self):
        config = LinkConfig(payload_bits=56, crc_bits=16, turbo_iterations=3, max_transmissions=2)
        protection = NoProtection(bits_per_word=config.llr_bits)
        point = GridPoint(
            key_prefix=(0, 3),
            config=config,
            protection=protection,
            snr_db=20.0,
            defect_rate=0.1,
        )
        tasks = point.die_tasks(range(2), packets_per_die=2, entropy=11, use_rake=False)
        assert [t.key for t in tasks] == [(0, 3, 0), (0, 3, 1)]
        # Same split the serial fault simulator uses: num_packets // maps each.
        [merged] = run_fault_map_grid(
            ParallelRunner.serial(), [point], num_packets=5, num_fault_maps=2, entropy=11
        )
        assert merged.statistics.num_packets == 4
        assert len(merged.per_map_throughput) == 2

    def test_fault_count_scales_with_defect_rate(self):
        config = LinkConfig(payload_bits=56, crc_bits=16, turbo_iterations=3, max_transmissions=2)
        protection = NoProtection(bits_per_word=config.llr_bits)
        task = FaultMapTask(
            config=config,
            protection=protection,
            snr_db=20.0,
            defect_rate=0.1,
            num_packets=1,
            entropy=5,
            key=(0,),
        )
        [outcome] = simulate_fault_map_batch((task,))
        assert outcome.fallible_cells == config.llr_storage_cells
        assert outcome.num_faults == int(round(0.1 * config.llr_storage_cells))


# Adaptive-stopping doubles: deterministic "simulators" at module level so
# they stay picklable for the multi-worker variant of the test.
def _always_one_error(chunk_index):
    return (1, 10)


def _never_errors(chunk_index):
    return (0, 10)


def _identity_task(chunk_index):
    return chunk_index


def _adaptive(
    runner,
    simulate,
    *,
    make_task=_identity_task,
    confidence=0.95,
    relative_error=0.3,
    bler_floor=1e-3,
    min_trials=32,
    max_trials=None,
):
    """``run_adaptive_rounds`` over rounds of four chunks, ``repro bler``'s shape."""

    def schedule_round(num_items, _trials):
        return [make_task(num_items + i) for i in range(4)]

    return runner.run_adaptive_rounds(
        schedule_round,
        lambda active, chunks: active.map(simulate, chunks),
        lambda counts: counts,
        confidence=confidence,
        relative_error=relative_error,
        min_trials=min_trials,
        budget=required_packets_for_bler(bler_floor, relative_error),
        max_trials=max_trials,
    )


class TestAdaptiveStopping:
    def test_stops_once_confident(self):
        outcome = _adaptive(
            ParallelRunner.serial(), _always_one_error, relative_error=0.5, min_trials=20
        )
        assert isinstance(outcome, AdaptiveRounds)
        assert outcome.stop_reason == "confident"
        estimate = proportion_confidence_interval(outcome.errors, outcome.trials, 0.95)
        assert estimate.half_width <= 0.5 * estimate.value
        assert outcome.trials == 10 * outcome.num_items

    def test_error_free_point_stops_at_budget(self):
        outcome = _adaptive(
            ParallelRunner.serial(), _never_errors, relative_error=0.5, bler_floor=0.05
        )
        assert outcome.stop_reason == "budget"
        assert outcome.errors == 0
        # required_packets_for_bler(0.05, 0.5) == ceil(0.95 / (0.05 * 0.25)) == 76.
        assert outcome.trials >= 76

    def test_max_trials_ceiling(self):
        outcome = _adaptive(
            ParallelRunner.serial(),
            _never_errors,
            relative_error=0.1,
            bler_floor=1e-6,
            max_trials=50,
        )
        assert outcome.stop_reason == "max_packets"
        assert outcome.trials >= 50

    def test_stopping_point_independent_of_workers(self):
        serial = _adaptive(
            ParallelRunner.serial(), _always_one_error, relative_error=0.5, min_trials=20
        )
        parallel = _adaptive(
            ParallelRunner(workers=2), _always_one_error, relative_error=0.5, min_trials=20
        )
        assert serial == parallel

    def test_adaptive_on_real_link(self, micro_scale):
        config = micro_scale.link_config()

        def schedule_round(num_items, _trials):
            return [
                LinkChunkTask(
                    config=config,
                    snr_db=8.0,
                    num_packets=2,
                    entropy=2012,
                    key=(num_items + i,),
                )
                for i in range(4)
            ]

        outcome = ParallelRunner.serial().run_adaptive_rounds(
            schedule_round,
            partial(run_pooled_round, fn=simulate_link_chunk_batch, outcomes=[]),
            block_errors,
            confidence=0.95,
            relative_error=0.5,
            min_trials=8,
            budget=required_packets_for_bler(0.2, 0.5),
            max_trials=24,
        )
        assert outcome.trials >= 8
        estimate = proportion_confidence_interval(outcome.errors, outcome.trials, 0.95)
        assert 0.0 <= estimate.lower <= estimate.upper <= 1.0

    def test_rejects_bad_parameters(self):
        runner = ParallelRunner.serial()
        with pytest.raises(ValueError):
            _adaptive(runner, _never_errors, bler_floor=0.0)
        with pytest.raises(ValueError, match="max_trials"):
            _adaptive(runner, _never_errors, max_trials=0)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5, -0.5, float("nan")])
    def test_bad_confidence_fails_before_any_round(self, confidence):
        scheduled = []

        def make_task(chunk_index):
            scheduled.append(chunk_index)
            return chunk_index

        with pytest.raises(ValueError, match="confidence"):
            _adaptive(
                ParallelRunner.serial(),
                _always_one_error,
                make_task=make_task,
                confidence=confidence,
            )
        assert scheduled == []


class TestLinkCacheLru:
    """The per-thread link memo is a bounded LRU (long-lived workers)."""

    @pytest.fixture()
    def patched_tasks(self, monkeypatch):
        from repro.runner import tasks

        class FakeLink:
            def __init__(self, config, use_rake=False):
                self.config = config
                self.use_rake = use_rake

        monkeypatch.setattr(tasks, "HspaLikeLink", FakeLink)
        monkeypatch.setattr(tasks, "LINK_CACHE_MAX_ENTRIES", 3)
        tasks._link_cache().clear()
        yield tasks
        tasks._link_cache().clear()

    @staticmethod
    def _configs(count):
        return [
            LinkConfig(
                payload_bits=56 + 8 * index,
                crc_bits=16,
                turbo_iterations=3,
                max_transmissions=2,
            )
            for index in range(count)
        ]

    def test_hit_returns_cached_instance(self, patched_tasks):
        config = self._configs(1)[0]
        first = patched_tasks._cached_link(config)
        assert patched_tasks._cached_link(config) is first
        assert len(patched_tasks._link_cache()) == 1

    def test_rake_variant_is_a_distinct_entry(self, patched_tasks):
        config = self._configs(1)[0]
        plain = patched_tasks._cached_link(config)
        rake = patched_tasks._cached_link(config, use_rake=True)
        assert plain is not rake
        assert patched_tasks._cached_link(config, use_rake=True) is rake

    def test_capacity_is_bounded_and_lru_evicted(self, patched_tasks):
        configs = self._configs(4)
        links = [patched_tasks._cached_link(config) for config in configs[:3]]
        assert len(patched_tasks._link_cache()) == 3
        # Refresh config 0 so config 1 becomes least-recently used.
        assert patched_tasks._cached_link(configs[0]) is links[0]
        patched_tasks._cached_link(configs[3])
        assert len(patched_tasks._link_cache()) == 3
        assert (configs[1], False) not in patched_tasks._link_cache()
        # The refreshed entry survived; the evicted one is rebuilt anew.
        assert patched_tasks._cached_link(configs[0]) is links[0]
        assert patched_tasks._cached_link(configs[1]) is not links[1]

    def test_default_cap_covers_a_whole_experiment(self):
        from repro.runner.tasks import LINK_CACHE_MAX_ENTRIES

        # Fig. 9 sweeps one configuration per LLR bit-width; the cap must
        # comfortably exceed any stock sweep so runs never thrash.
        assert LINK_CACHE_MAX_ENTRIES >= 8

    def test_each_thread_owns_its_simulators(self, patched_tasks):
        """Slot threads must never share a simulator instance.

        A simulator is stateful while it runs; multi-slot worker daemons
        execute items concurrently on a thread pool, so a process-global
        memo would hand two threads the same ``HspaLikeLink`` and race.
        """
        import threading

        config = self._configs(1)[0]
        main_link = patched_tasks._cached_link(config)
        other: list = []

        def build():
            other.append(patched_tasks._cached_link(config))

        thread = threading.Thread(target=build)
        thread.start()
        thread.join(timeout=10.0)
        assert other and other[0] is not main_link
        # The main thread's cache is untouched by the other thread's build.
        assert patched_tasks._cached_link(config) is main_link


class TestMergeStatistics:
    def test_merge_equals_single_aggregate(self):
        parts = [
            HarqStatistics(
                num_packets=2,
                num_successful=1,
                total_transmissions=5,
                info_bits_per_packet=100,
                attempts_per_transmission=np.array([2, 2, 1]),
                failures_per_transmission=np.array([2, 1, 1]),
            ),
            HarqStatistics(
                num_packets=1,
                num_successful=1,
                total_transmissions=1,
                info_bits_per_packet=100,
                attempts_per_transmission=np.array([1]),
                failures_per_transmission=np.array([0]),
            ),
        ]
        merged = merge_statistics(parts)
        assert merged.num_packets == 3
        assert merged.num_successful == 2
        assert merged.total_transmissions == 6
        np.testing.assert_array_equal(merged.attempts_per_transmission, [3, 2, 1])
        np.testing.assert_array_equal(merged.failures_per_transmission, [2, 1, 1])

    def test_merge_rejects_empty_and_mixed(self):
        with pytest.raises(ValueError):
            merge_statistics([])
        parts = [
            HarqStatistics(1, 1, 1, 100, np.array([1]), np.array([0])),
            HarqStatistics(1, 1, 1, 200, np.array([1]), np.array([0])),
        ]
        with pytest.raises(ValueError):
            merge_statistics(parts)
