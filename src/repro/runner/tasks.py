"""Picklable work items executed by :class:`~repro.runner.parallel.ParallelRunner`.

Every task is a frozen dataclass carrying (a) the full simulation
configuration, (b) an integer ``entropy`` (the user-visible experiment seed)
and (c) a ``key`` — the task's coordinates inside its sweep (SNR index,
defect-rate index, fault-map index, chunk index, ...).  The worker derives
its random stream as ``keyed_seed_sequence(entropy, key)``, so the stream is
a pure function of *what* is being simulated, never of *where* (which worker
process) or *when* (in which order) it runs.  That is the whole determinism
contract: serial and parallel executions of the same task list are
bit-identical.

Workers memoise the (expensive to build) link simulator per configuration,
so scheduling many tasks that share a :class:`~repro.link.config.LinkConfig`
costs one construction per worker process, not one per task.  The memo is a
small LRU: long-lived distributed workers (``python -m repro worker``) serve
many runs with many distinct configurations, so an unbounded cache would
grow without limit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.protection import ProtectionScheme
from repro.harq.metrics import HarqStatistics, merge_statistics
from repro.link.config import LinkConfig
from repro.memory.faults import FaultModel, FaultModelSpec, coerce_fault_model
from repro.link.system import HspaLikeLink, PacketGroup, simulate_packet_groups
from repro.runner.backends.base import TaskQuarantined
from repro.utils.rng import keyed_seed_sequence

#: Upper bound on memoised link simulators per worker process.  Comfortably
#: above the distinct configurations of any single experiment (Fig. 9 sweeps
#: one configuration per LLR bit-width), so within one run the cache never
#: thrashes — it only evicts across runs on long-lived workers.
LINK_CACHE_MAX_ENTRIES = 16

#: Per-*thread* LRUs of constructed link simulators, keyed by configuration.
#: Thread-local because a simulator is stateful while it runs: a multi-slot
#: worker daemon executes several work items concurrently on a thread pool,
#: and two threads sharing one ``HspaLikeLink`` would race on its internal
#: buffers (corrupting results nondeterministically).  Each slot thread
#: therefore owns its simulators; workers running one item at a time (the
#: process pool, serial runs, slots=1 daemons) see exactly the
#: one-cache-per-process behaviour they always had.
_LINK_CACHES = threading.local()


def _link_cache() -> "OrderedDict[Tuple[LinkConfig, bool], HspaLikeLink]":
    """The calling thread's simulator LRU (created on first use)."""
    cache = getattr(_LINK_CACHES, "cache", None)
    if cache is None:
        cache = _LINK_CACHES.cache = OrderedDict()
    return cache


def _cached_link(config: LinkConfig, use_rake: bool = False) -> HspaLikeLink:
    """The thread-local simulator for *config* (LRU-memoised)."""
    cache = _link_cache()
    cache_key = (config, use_rake)
    link = cache.get(cache_key)
    if link is None:
        link = HspaLikeLink(config, use_rake=use_rake)
        cache[cache_key] = link
    else:
        cache.move_to_end(cache_key)
    while len(cache) > LINK_CACHE_MAX_ENTRIES:
        cache.popitem(last=False)
    return link


#: Packets per shard used by the stock experiment decompositions.  Part of
#: the sharding plan (chunk boundaries move per-packet seed streams), so it
#: is a constant of the experiment definition — never derived from the
#: worker count.
DEFAULT_CHUNK_PACKETS = 8

#: Target decode-batch width of the cross-work-item aggregation layer:
#: consecutive tasks are pooled until their packets add up to roughly this
#: many.  Purely a throughput knob — grouping can never change results,
#: because every task keeps its own seed stream and the decoder treats
#: batch rows independently.
DEFAULT_AGGREGATE_PACKETS = 32


def split_packets(num_packets: int, chunk_packets: int = DEFAULT_CHUNK_PACKETS) -> List[int]:
    """Split a packet budget into deterministic shard sizes.

    ``split_packets(20, 8) == [8, 8, 4]``; the plan depends only on the
    budget and the chunk size, so any worker count replays the same shards.
    """
    if num_packets <= 0:
        raise ValueError(f"num_packets must be positive, got {num_packets}")
    if chunk_packets <= 0:
        raise ValueError(f"chunk_packets must be positive, got {chunk_packets}")
    full, remainder = divmod(num_packets, chunk_packets)
    return [chunk_packets] * full + ([remainder] if remainder else [])


# --------------------------------------------------------------------------- #
# fault-free link chunks (Fig. 2 and adaptive BLER estimation)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class LinkChunkTask:
    """Simulate a chunk of packets on the defect-free link at one SNR point."""

    config: LinkConfig
    snr_db: float
    num_packets: int
    entropy: int
    key: Tuple[int, ...]
    use_rake: bool = False


def simulate_link_chunk(task: LinkChunkTask) -> HarqStatistics:
    """Run one :class:`LinkChunkTask` and return its aggregate statistics."""
    return simulate_link_chunk_batch((task,))[0]


def simulate_link_chunk_batch(tasks: Sequence[LinkChunkTask]) -> List[HarqStatistics]:
    """Run several link chunks with shared (cross-work-item) decoder calls.

    All tasks must share a link configuration; each keeps its own seed
    stream and SNR point, so the per-task statistics are bit-identical to
    running the tasks one by one — pooling only widens the decode batches.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    link = _require_shared_link(tasks)
    groups = [
        PacketGroup(
            num_packets=task.num_packets,
            snr_db=task.snr_db,
            rng=keyed_seed_sequence(task.entropy, task.key),
        )
        for task in tasks
    ]
    return [result.statistics for result in simulate_packet_groups(link, groups)]


def count_block_errors(task: LinkChunkTask) -> Tuple[int, int]:
    """Run one chunk and return ``(block_errors, packets)`` for adaptive stopping."""
    statistics = simulate_link_chunk(task)
    return statistics.num_packets - statistics.num_successful, statistics.num_packets


def count_block_errors_batched(runner, tasks: Sequence[LinkChunkTask]) -> List[Tuple[int, int]]:
    """Round executor for adaptive BLER runs with cross-chunk decode pooling.

    Drop-in ``map_chunks`` argument for
    :meth:`~repro.runner.parallel.ParallelRunner.run_adaptive_proportion`:
    pools the round's chunks into aggregated decode batches and returns one
    ``(block_errors, packets)`` pair per chunk, in chunk order.
    """
    counts: List[Tuple[int, int]] = []
    groups = group_tasks_for_batching(tasks)
    for statistics_list in runner.map(simulate_link_chunk_batch, groups):
        counts.extend(
            (s.num_packets - s.num_successful, s.num_packets) for s in statistics_list
        )
    return counts


def _require_shared_link(tasks: Sequence) -> HspaLikeLink:
    """The cached link of a task batch, asserting one shared configuration."""
    first = tasks[0]
    for task in tasks[1:]:
        if task.config != first.config or task.use_rake != first.use_rake:
            raise ValueError(
                "aggregated tasks must share one link configuration; "
                "group them with group_tasks_for_batching first"
            )
    return _cached_link(first.config, first.use_rake)


def group_tasks_for_batching(
    tasks: Sequence, aggregate_packets: int = DEFAULT_AGGREGATE_PACKETS
) -> List[Tuple]:
    """Pool consecutive compatible tasks into decode-aggregation groups.

    Consecutive tasks sharing a ``(config, use_rake)`` pair are grouped
    until their packet budgets add up to *aggregate_packets* (each group
    holds at least one task).  Order is preserved, so flattening the
    grouped results reproduces the task-order contract of
    :meth:`~repro.runner.parallel.ParallelRunner.map`.
    """
    if aggregate_packets <= 0:
        raise ValueError(f"aggregate_packets must be positive, got {aggregate_packets}")
    groups: List[Tuple] = []
    current: List = []
    current_packets = 0
    for task in tasks:
        compatible = (
            not current
            or (task.config == current[0].config and task.use_rake == current[0].use_rake)
        )
        if current and (not compatible or current_packets >= aggregate_packets):
            groups.append(tuple(current))
            current, current_packets = [], 0
        current.append(task)
        current_packets += task.num_packets
    if current:
        groups.append(tuple(current))
    return groups


# --------------------------------------------------------------------------- #
# faulty-buffer chunks (Figs. 6-9: one task per fault map / die)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class FaultMapTask:
    """Simulate one fault map (die) at one (SNR, defect-rate) operating point.

    Draw a worst-case accepted die with exactly ``Nf`` faults in the
    fallible cells, install it in the HARQ soft buffer, and push a packet
    batch through the link.

    ``fault_model`` carries the read-out semantics and the spatial placement
    (a plain :class:`~repro.memory.faults.FaultModel` for the historical
    uniform placement, a :class:`~repro.memory.faults.FaultModelSpec` for
    clustered placement).  A positive ``soft_error_rate`` additionally flips
    each stored cell with that probability on every buffer read (transient
    upsets), drawn from a dedicated child of the task's keyed stream — one
    per packet, so results stay independent of batch composition.
    """

    config: LinkConfig
    protection: ProtectionScheme
    snr_db: float
    defect_rate: float
    num_packets: int
    entropy: int
    key: Tuple[int, ...]
    use_rake: bool = False
    fault_model: "FaultModel | FaultModelSpec" = FaultModel.BIT_FLIP
    soft_error_rate: float = 0.0


@dataclass(frozen=True)
class FaultMapOutcome:
    """Statistics of one simulated die, plus its fault-injection bookkeeping."""

    statistics: HarqStatistics
    num_faults: int
    fallible_cells: int

    @property
    def normalized_throughput(self) -> float:
        """Normalized throughput of this die."""
        return self.statistics.normalized_throughput


def _fault_map_group(link: HspaLikeLink, task: FaultMapTask) -> Tuple[PacketGroup, int, int]:
    """Build one die's packet group (fault map installed) from its task.

    With soft errors enabled the keyed stream spawns a third child whose
    grandchildren seed one upset stream per packet buffer; with the default
    rate of 0.0 the historical two-way spawn is untouched, so pre-existing
    seeded runs are bit-identical.
    """
    fallible = task.protection.unprotected_cells(task.config.llr_storage_words)
    if task.defect_rate < 0:
        raise ValueError("defect_rate must be non-negative")
    num_faults = int(round(task.defect_rate * fallible))
    seed = keyed_seed_sequence(task.entropy, task.key)
    if task.soft_error_rate > 0.0:
        map_seed, sim_seed, soft_seed = seed.spawn(3)
        soft_seeds = soft_seed.spawn(task.num_packets)
    else:
        map_seed, sim_seed = seed.spawn(2)
        soft_seeds = None
    fault_map = task.protection.make_fault_map(
        task.config.llr_storage_words,
        num_faults,
        rng=np.random.default_rng(map_seed),
        fault_model=task.fault_model,
    )
    ecc = task.protection.ecc

    def buffer_factory(index: int):
        return link.make_buffer(
            fault_map=fault_map,
            ecc=ecc,
            soft_error_rate=task.soft_error_rate,
            soft_error_rng=None if soft_seeds is None else soft_seeds[index],
        )

    group = PacketGroup(
        num_packets=task.num_packets,
        snr_db=task.snr_db,
        rng=sim_seed,
        buffer_factory=buffer_factory,
    )
    return group, num_faults, fallible


def simulate_fault_map_batch(tasks: Sequence[FaultMapTask]) -> List[FaultMapOutcome]:
    """Run several dies' fault-map tasks with shared decoder calls.

    This is the cross-work-item aggregation path of the Fig. 6-9 sweeps:
    each die keeps its own fault map, seed stream and soft buffers, while
    all packets at the same HARQ combining state — across every die in the
    batch — are decoded in one turbo-decoder call.  Per-die outcomes are
    bit-identical to running the tasks one by one.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    link = _require_shared_link(tasks)
    groups: List[PacketGroup] = []
    bookkeeping: List[Tuple[int, int]] = []
    for task in tasks:
        group, num_faults, fallible = _fault_map_group(link, task)
        groups.append(group)
        bookkeeping.append((num_faults, fallible))
    results = simulate_packet_groups(link, groups)
    return [
        FaultMapOutcome(
            statistics=result.statistics, num_faults=num_faults, fallible_cells=fallible
        )
        for result, (num_faults, fallible) in zip(results, bookkeeping)
    ]


@dataclass
class FaultSimulationPoint:
    """Result of evaluating one (SNR, defect, protection) operating point.

    Attributes
    ----------
    snr_db:
        Receive SNR of the point.
    num_faults:
        Number of faulty cells injected per die (the acceptance criterion).
    defect_rate:
        ``num_faults`` over the number of fallible LLR-storage cells.
    statistics:
        Aggregate HARQ statistics over all packets and fault maps.
    per_map_throughput:
        Normalized throughput of each individual fault map (die), exposing
        die-to-die variation.
    protection_name:
        Name of the evaluated protection scheme.
    """

    snr_db: float
    num_faults: int
    defect_rate: float
    statistics: HarqStatistics
    per_map_throughput: List[float] = field(default_factory=list)
    protection_name: str = "unprotected-6T"

    @property
    def normalized_throughput(self) -> float:
        """Normalized throughput aggregated over all simulated dies."""
        return self.statistics.normalized_throughput

    @property
    def average_transmissions(self) -> float:
        """Average number of transmissions per packet."""
        return self.statistics.average_transmissions

    @property
    def block_error_rate(self) -> float:
        """Residual BLER after the HARQ budget."""
        return self.statistics.block_error_rate


def merge_fault_outcomes(
    outcomes: Sequence[FaultMapOutcome],
    *,
    snr_db: float,
    protection: ProtectionScheme,
) -> FaultSimulationPoint:
    """Reduce per-die outcomes into one :class:`FaultSimulationPoint`.

    Packet statistics are summed over the dies and the per-die throughputs
    are kept for die-to-die variation.
    """
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("outcomes must not be empty")
    statistics = merge_statistics([o.statistics for o in outcomes])
    num_faults = outcomes[0].num_faults
    fallible = outcomes[0].fallible_cells
    defect_rate = num_faults / fallible if fallible else 0.0
    return FaultSimulationPoint(
        snr_db=float(snr_db),
        num_faults=num_faults,
        defect_rate=defect_rate,
        statistics=statistics,
        per_map_throughput=[o.normalized_throughput for o in outcomes],
        protection_name=protection.name,
    )


@dataclass(frozen=True)
class GridPoint:
    """One operating point of a fault-map sweep grid.

    Attributes
    ----------
    key_prefix:
        The point's coordinates in the sweep (die index is appended).
    config, protection:
        Link configuration and storage scheme evaluated at this point.
    snr_db, defect_rate:
        Operating conditions.
    fault_model:
        Read-out semantics and placement of the injected faults (bit-flip,
        uniformly placed by default, matching the paper's model).
    soft_error_rate:
        Per-read transient upset probability per cell (0.0 disables).
    """

    key_prefix: Tuple[int, ...]
    config: LinkConfig
    protection: ProtectionScheme
    snr_db: float
    defect_rate: float
    fault_model: "FaultModel | FaultModelSpec" = FaultModel.BIT_FLIP
    soft_error_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.protection.bits_per_word != self.config.llr_bits:
            raise ValueError(
                f"protection word width {self.protection.bits_per_word} does not match "
                f"the link's llr_bits {self.config.llr_bits}"
            )


@dataclass(frozen=True)
class AdaptiveStopping:
    """Configuration of adaptive (early) stopping for fault-map sweeps.

    Each grid point keeps scheduling fixed-size die chunks — in rounds, so
    the stopping decision never depends on the worker count — until its
    block-error proportion is confidently resolved or the packet budget for
    the smallest BLER of interest is spent.  High-SNR points (few or no
    errors) therefore stop after a fraction of the fixed budget.

    Attributes
    ----------
    confidence, relative_error:
        Wilson-interval target: stop once the half-width is at most
        ``relative_error`` times the estimate.
    bler_floor:
        Smallest BLER worth resolving; error-free points stop once the
        :func:`~repro.core.montecarlo.required_packets_for_bler` budget for
        this floor is spent.
    chunks_per_round:
        Dies scheduled per decision round (the deterministic quantum).
    min_trials:
        Soft floor on packets before the confidence test may stop the point.
    max_trials:
        Hard packet ceiling per point; ``None`` uses the scale's fixed
        packet budget, so adaptive mode never simulates more than the
        fixed-schedule sweep at any point.
    """

    confidence: float = 0.95
    relative_error: float = 0.3
    bler_floor: float = 0.05
    chunks_per_round: int = 4
    min_trials: int = 16
    max_trials: Optional[int] = None


def resolve_adaptive(value) -> Optional[AdaptiveStopping]:
    """Normalise a driver's ``adaptive`` keyword.

    Accepts ``None``/``False`` (fixed schedule), ``True`` (defaults) or an
    :class:`AdaptiveStopping` instance.
    """
    if value is None or value is False:
        return None
    if value is True:
        return AdaptiveStopping()
    if isinstance(value, AdaptiveStopping):
        return value
    raise TypeError(
        f"adaptive must be None, a bool or AdaptiveStopping, got {type(value).__name__}"
    )


def _fault_outcome_errors(outcome: FaultMapOutcome) -> Tuple[int, int]:
    """Project one die's outcome to ``(block_errors, packets)``."""
    statistics = outcome.statistics
    return statistics.num_packets - statistics.num_successful, statistics.num_packets


def run_fault_map_grid(
    runner,
    points: Sequence[GridPoint],
    *,
    num_packets: int,
    num_fault_maps: int,
    entropy: int,
    use_rake: bool = False,
    aggregate_packets: int = DEFAULT_AGGREGATE_PACKETS,
    adaptive: Optional[AdaptiveStopping] = None,
    point_store=None,
) -> List[FaultSimulationPoint]:
    """Evaluate a whole sweep grid and return one merged point per entry.

    This owns the task-order/slicing invariant shared by the Fig. 6-9
    drivers: tasks are laid out point-major (``num_fault_maps`` consecutive
    tasks per grid point) and reduced back in the same order.  Work items
    are pooled into cross-work-item decode batches of roughly
    *aggregate_packets* packets (see :func:`group_tasks_for_batching`) —
    a pure throughput knob that never changes results.

    With *adaptive*, each point instead schedules die chunks in rounds
    until its BLER is confidently resolved (or the budget is spent), so
    high-SNR points stop early.  Adaptive runs simulate a
    schedule-dependent number of dies per point and are therefore a
    distinct experiment identity (drivers expose it as a keyword that is
    hashed into the cache key).

    With *point_store* (a :class:`~repro.runner.point_store.PointStore`),
    every grid point is first looked up by its content digest.  A fixed
    point whose record holds all its dies is merged from them and schedules
    zero work items; an adaptive point replays the dies its record holds
    (see :func:`_run_adaptive_point`).  A fixed point's record is written
    as its last die arrives, an adaptive point's after every round, so a
    run killed mid-sweep keeps every finished point and rerunning the same
    command resumes it.  Stored outcomes round-trip exactly and are merged
    by the same code as fresh ones, so a warm run is byte-identical to a
    cold one; like the execution backend, the store is topology and never
    part of any run identity.

    Under a runner whose backend quarantines poisoned tasks
    (``--on-task-error=quarantine``), a point that lost *some* dies is
    still merged from the surviving ones — marked tainted, so it is never
    written to the cache or the point store — and a point that lost
    *every* die raises.  Quarantine changes that point's statistics (fewer
    dies), which is exactly why tainted results never reach any persistent
    store.
    """
    points = list(points)
    records: List[Optional[Tuple[str, dict]]] = [None] * len(points)
    stored: List[Optional[List[FaultMapOutcome]]] = [None] * len(points)
    if point_store is not None:
        from repro.runner.point_store import fault_point_identity, link_identity

        link_of = lru_cache(maxsize=None)(link_identity)
        for index, point in enumerate(points):
            identity = fault_point_identity(
                point,
                link_of(point.config),
                num_packets=num_packets,
                num_fault_maps=num_fault_maps,
                entropy=entropy,
                use_rake=use_rake,
                adaptive=adaptive,
            )
            digest = point_store.digest(identity)
            records[index] = (digest, identity)
            stored[index] = point_store.load(
                digest, "fault", None if adaptive is not None else num_fault_maps
            )

    def save(index: int, outcomes: List[FaultMapOutcome]) -> None:
        if point_store is not None:
            point_store.store(*records[index], outcomes)

    def merge(index: int, outcomes: Sequence[FaultMapOutcome]) -> FaultSimulationPoint:
        return merge_fault_outcomes(
            outcomes, snr_db=points[index].snr_db, protection=points[index].protection
        )

    if adaptive is not None:
        return [
            _run_adaptive_point(
                runner,
                point,
                num_packets=num_packets,
                num_fault_maps=num_fault_maps,
                entropy=entropy,
                use_rake=use_rake,
                adaptive=adaptive,
                aggregate_packets=aggregate_packets,
                stored=stored[index] or [],
                save=partial(save, index),
            )
            for index, point in enumerate(points)
        ]

    results: List[Optional[FaultSimulationPoint]] = [
        None if outcomes is None else merge(index, outcomes)
        for index, outcomes in enumerate(stored)
    ]
    pending = [index for index, outcomes in enumerate(stored) if outcomes is None]
    tasks: List[FaultMapTask] = []
    for index in pending:
        point = points[index]
        tasks.extend(
            fault_map_tasks_for_point(
                point.config,
                point.protection,
                snr_db=point.snr_db,
                defect_rate=point.defect_rate,
                num_packets=num_packets,
                num_fault_maps=num_fault_maps,
                entropy=entropy,
                key_prefix=point.key_prefix,
                use_rake=use_rake,
                fault_model=point.fault_model,
                soft_error_rate=point.soft_error_rate,
            )
        )

    def finish_point(slot: int, point_outcomes: List[Optional[FaultMapOutcome]]) -> None:
        index = pending[slot]
        survivors = [o for o in point_outcomes if o is not None]
        if not survivors:
            raise RuntimeError(
                f"every die of grid point {index} "
                f"(key_prefix={points[index].key_prefix}) was quarantined; "
                f"there is nothing left to merge — see the quarantine "
                f"directory for the tracebacks"
            )
        if len(survivors) == len(point_outcomes):
            save(index, survivors)
        results[index] = merge(index, survivors)

    run_units(
        runner,
        simulate_fault_map_batch,
        tasks,
        unit_size=num_fault_maps,
        finish=finish_point,
        aggregate_packets=aggregate_packets,
    )
    return results


def run_units(
    runner,
    fn: Callable,
    tasks: Sequence,
    *,
    unit_size: int,
    finish: Callable[[int, List], None],
    aggregate_packets: int = DEFAULT_AGGREGATE_PACKETS,
) -> None:
    """Run unit-major *tasks* in pooled batches, finishing each unit early.

    *tasks* holds ``unit_size`` consecutive work items per unit (a grid
    point's dies, a BLER cell's chunks); they are pooled into decode batches
    (:func:`group_tasks_for_batching`) and streamed through
    :meth:`~repro.runner.parallel.ParallelRunner.submit_round`.
    ``finish(slot, outcomes)`` receives unit *slot*'s outcomes in item order
    as soon as its last item is in, so an interrupted run keeps every unit
    it completed.  A quarantined batch loses every item it pooled and
    leaves per-item holes (``None``); a batch the backend never delivers
    raises once the stream ends.
    """
    task_groups = group_tasks_for_batching(tasks, aggregate_packets)
    group_starts = np.cumsum([0] + [len(group) for group in task_groups]).tolist()
    outcomes: List = [None] * len(tasks)
    items_left = [unit_size] * (len(tasks) // unit_size)
    for group_index, group_result in runner.submit_round(fn, task_groups):
        start, stop = group_starts[group_index], group_starts[group_index + 1]
        if not isinstance(group_result, TaskQuarantined):
            outcomes[start:stop] = group_result
        for task_index in range(start, stop):
            slot = task_index // unit_size
            items_left[slot] -= 1
            if items_left[slot] == 0:
                finish(slot, outcomes[slot * unit_size : (slot + 1) * unit_size])
    unfinished = [slot for slot, left in enumerate(items_left) if left]
    if unfinished:
        raise RuntimeError(f"backend never delivered every item of units {unfinished}")


def _run_adaptive_point(
    runner,
    point: GridPoint,
    *,
    num_packets: int,
    num_fault_maps: int,
    entropy: int,
    use_rake: bool,
    adaptive: AdaptiveStopping,
    aggregate_packets: int = DEFAULT_AGGREGATE_PACKETS,
    stored: Sequence[FaultMapOutcome],
    save: Callable[[List[FaultMapOutcome]], None],
) -> FaultSimulationPoint:
    """Adaptively estimate one grid point, one round of die chunks at a time.

    Die ``m`` uses the same spawn key as the fixed schedule
    (``key_prefix + (m,)``), so the first ``num_fault_maps`` dies coincide
    with the fixed sweep's dies; adaptive mode only decides *how many* of
    them (and, for hard points, how many extra dies) to run.  Each round's
    dies are pooled into cross-work-item decode batches exactly like the
    fixed path, and the loop itself is the shared
    :meth:`~repro.runner.parallel.ParallelRunner.run_adaptive_rounds`
    scheduler — which dies run depends only on round membership, so neither
    grouping, nor the worker count, nor the execution backend can change
    the result.

    *stored* is a prefix of the point's die sequence from its point-store
    record: a round yields the stored outcome for every die index the
    prefix holds and computes only the rest, so the round decisions replay
    deterministically and the merged point is byte-identical to an
    uninterrupted run.  After every round that computed a die, *save*
    receives every die so far.
    """
    from repro.core.montecarlo import required_packets_for_bler

    packets_per_map = max(1, num_packets // num_fault_maps)
    budget = required_packets_for_bler(adaptive.bler_floor, adaptive.relative_error)
    max_trials = adaptive.max_trials if adaptive.max_trials is not None else num_packets
    min_trials = min(adaptive.min_trials, max_trials)
    trial_ceiling = min(max_trials, budget)

    def schedule_round(num_dies: int, trials: int) -> List[FaultMapTask]:
        # Never schedule past the trial ceiling: a round shrinks to however
        # many dies the remaining budget still covers, so adaptive mode
        # cannot simulate more than the fixed-schedule sweep at any point.
        remaining_dies = -(-(trial_ceiling - trials) // packets_per_map)  # ceil
        round_dies = max(1, min(adaptive.chunks_per_round, remaining_dies))
        return [
            FaultMapTask(
                config=point.config,
                protection=point.protection,
                snr_db=float(point.snr_db),
                defect_rate=float(point.defect_rate),
                num_packets=packets_per_map,
                entropy=entropy,
                key=point.key_prefix + (num_dies + i,),
                use_rake=use_rake,
                fault_model=point.fault_model,
                soft_error_rate=point.soft_error_rate,
            )
            for i in range(round_dies)
        ]

    dies: List[FaultMapOutcome] = list(stored)

    def execute_round(round_runner, round_tasks):
        first = round_tasks[0].key[-1]
        known = dies[first : first + len(round_tasks)]
        yield from known
        fresh = round_tasks[len(known) :]
        if not fresh:
            return
        groups = group_tasks_for_batching(fresh, aggregate_packets)
        for group_outcomes in round_runner.map(simulate_fault_map_batch, groups):
            dies.extend(group_outcomes)
            yield from group_outcomes
        save(dies)

    rounds = runner.run_adaptive_rounds(
        schedule_round,
        execute_round,
        _fault_outcome_errors,
        confidence=adaptive.confidence,
        relative_error=adaptive.relative_error,
        min_trials=min_trials,
        budget=budget,
        max_trials=max_trials,
    )
    return merge_fault_outcomes(
        dies[: rounds.num_items], snr_db=point.snr_db, protection=point.protection
    )


def fault_map_tasks_for_point(
    config: LinkConfig,
    protection: ProtectionScheme,
    *,
    snr_db: float,
    defect_rate: float,
    num_packets: int,
    num_fault_maps: int,
    entropy: int,
    key_prefix: Tuple[int, ...],
    use_rake: bool = False,
    fault_model: "FaultModel | FaultModelSpec | str" = FaultModel.BIT_FLIP,
    soft_error_rate: float = 0.0,
) -> List[FaultMapTask]:
    """The standard sharding of one operating point: one task per die.

    Packets are split evenly across dies
    (``max(1, num_packets // num_fault_maps)`` per die); die ``m`` gets spawn
    key ``key_prefix + (m,)``.
    """
    packets_per_map = max(1, num_packets // num_fault_maps)
    return [
        FaultMapTask(
            config=config,
            protection=protection,
            snr_db=float(snr_db),
            defect_rate=float(defect_rate),
            num_packets=packets_per_map,
            entropy=entropy,
            key=key_prefix + (map_index,),
            use_rake=use_rake,
            fault_model=coerce_fault_model(fault_model),
            soft_error_rate=float(soft_error_rate),
        )
        for map_index in range(num_fault_maps)
    ]
