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

Work items make up Monte Carlo units — a grid point's dies, a BLER cell's
chunks — and this module is the only place a unit is scheduled, pooled
into cross-work-item decode batches, looked up in and written to the point
store, and merged: :func:`run_fixed_units` runs fixed-size units, and
:func:`run_pooled_round` executes each round of every adaptive estimate
(``repro bler`` and the adaptive fault-map points alike).

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
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.montecarlo import required_packets_for_bler
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


def block_errors(statistics: HarqStatistics) -> Tuple[int, int]:
    """``(block_errors, packets)`` of one work item, for adaptive stopping."""
    return statistics.num_packets - statistics.num_successful, statistics.num_packets


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

    def die_tasks(
        self, dies: Iterable[int], *, packets_per_die: int, entropy: int, use_rake: bool
    ) -> List[FaultMapTask]:
        """One :class:`FaultMapTask` per die index in *dies*.

        Die ``m`` gets spawn key ``key_prefix + (m,)`` on the fixed and the
        adaptive schedule alike, so an adaptive point's first dies are the
        fixed sweep's.
        """
        return [
            FaultMapTask(
                config=self.config,
                protection=self.protection,
                snr_db=float(self.snr_db),
                defect_rate=float(self.defect_rate),
                num_packets=packets_per_die,
                entropy=entropy,
                key=self.key_prefix + (die,),
                use_rake=use_rake,
                fault_model=coerce_fault_model(self.fault_model),
                soft_error_rate=float(self.soft_error_rate),
            )
            for die in dies
        ]


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


# --------------------------------------------------------------------------- #
# Monte Carlo units: scheduled, pooled, stored and merged here only
# --------------------------------------------------------------------------- #
def _point_record(point_store, identity: dict, count: Optional[int]):
    """One unit's ``(digest, identity)`` record and its stored outcomes.

    The outcomes are ``None`` on a miss; *count* is the exact number a usable
    record holds (``None``: any non-empty prefix, an adaptive point).
    """
    digest = point_store.digest(identity)
    return (digest, identity), point_store.load(digest, identity["kind"], count)


def run_fixed_units(
    runner,
    fn: Callable,
    units: Sequence[Sequence],
    *,
    merge: Callable[[int, List], object],
    identity: Optional[Callable[[int], dict]],
    point_store=None,
    aggregate_packets: int = DEFAULT_AGGREGATE_PACKETS,
) -> List:
    """Run fixed-size Monte Carlo units and return ``merge(i, outcomes)`` per unit.

    ``units[i]`` holds unit *i*'s work items — a grid point's dies, a BLER
    cell's chunks — in item order, each keyed ``unit prefix + (item,)``.
    With a *point_store*, unit *i* is first looked up under its point
    identity ``identity(i)``: a record holding all its outcomes is merged and
    schedules no work.  The other units' items are pooled into decode
    batches (:func:`group_tasks_for_batching`, *fn* runs one batch) and
    streamed through one
    :meth:`~repro.runner.parallel.ParallelRunner.submit_round`; a unit is
    merged, and written to the store, as soon as its last item arrives, so
    an interrupted run keeps every unit it completed.

    Under ``--on-task-error=quarantine`` a quarantined batch loses every
    item it pooled: its units are merged from the survivors and never
    written (their statistics differ from a complete unit's), and a unit
    that lost every item raises.  A batch the backend never delivers raises
    once the stream ends.
    """
    results: List = [None] * len(units)
    pending: List[Tuple[int, Optional[Tuple[str, dict]]]] = []
    tasks: List = []
    for index, unit in enumerate(units):
        record = None
        if point_store is not None:
            record, stored = _point_record(point_store, identity(index), len(unit))
            if stored is not None:
                results[index] = merge(index, stored)
                continue
        pending.append((index, record))
        tasks.extend(unit)

    sizes = [len(units[index]) for index, _record in pending]
    unit_starts = np.cumsum([0] + sizes).tolist()
    slot_of = [slot for slot, size in enumerate(sizes) for _item in range(size)]
    items_left = list(sizes)
    task_groups = group_tasks_for_batching(tasks, aggregate_packets)
    group_starts = np.cumsum([0] + [len(group) for group in task_groups]).tolist()
    outcomes: List = [None] * len(tasks)
    for group_index, group_result in runner.submit_round(fn, task_groups):
        start, stop = group_starts[group_index], group_starts[group_index + 1]
        if not isinstance(group_result, TaskQuarantined):
            outcomes[start:stop] = group_result
        for task_index in range(start, stop):
            slot = slot_of[task_index]
            items_left[slot] -= 1
            if items_left[slot]:
                continue
            index, record = pending[slot]
            unit_outcomes = outcomes[unit_starts[slot] : unit_starts[slot + 1]]
            survivors = [o for o in unit_outcomes if o is not None]
            if not survivors:
                raise RuntimeError(
                    f"every die/chunk of unit {index} (key prefix "
                    f"{units[index][0].key[:-1]}) was quarantined; there is "
                    f"nothing left to merge — see the quarantine directory "
                    f"for the tracebacks"
                )
            if record is not None and len(survivors) == len(unit_outcomes):
                point_store.store(*record, survivors)
            results[index] = merge(index, survivors)
    unfinished = [pending[slot][0] for slot, left in enumerate(items_left) if left]
    if unfinished:
        raise RuntimeError(f"backend never delivered every item of units {unfinished}")
    return results


def run_pooled_round(
    runner,
    round_tasks: Sequence,
    *,
    fn: Callable,
    outcomes: List,
    save: Optional[Callable[[List], None]] = None,
    aggregate_packets: int = DEFAULT_AGGREGATE_PACKETS,
):
    """The round executor of every adaptive estimate (``execute_round`` of
    :meth:`~repro.runner.parallel.ParallelRunner.run_adaptive_rounds`).

    *outcomes* holds the unit's items in item order — those a point-store
    record already holds — and receives every computed one.  A round yields
    the known outcome of every item index *outcomes* covers and computes
    the rest in pooled decode batches (*fn* runs one batch), so a resumed
    unit replays its round decisions exactly.  After a round that computed
    an item, *save* receives every outcome so far.
    """
    first = round_tasks[0].key[-1]
    known = outcomes[first : first + len(round_tasks)]
    yield from known
    fresh = round_tasks[len(known) :]
    if not fresh:
        return
    for group_outcomes in runner.map(fn, group_tasks_for_batching(fresh, aggregate_packets)):
        outcomes.extend(group_outcomes)
        yield from group_outcomes
    if save is not None:
        save(outcomes)


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

    Every die simulates ``max(1, num_packets // num_fault_maps)`` packets.
    On the fixed schedule a point is one unit of :func:`run_fixed_units`:
    its ``num_fault_maps`` dies, pooled into cross-work-item decode batches
    of roughly *aggregate_packets* packets — a pure throughput knob that
    never changes results.

    With *adaptive*, each point instead schedules die chunks in rounds
    until its BLER is confidently resolved (or the budget is spent), so
    high-SNR points stop early.  Adaptive runs simulate a
    schedule-dependent number of dies per point and are therefore a
    distinct experiment identity (drivers expose it as a keyword that is
    hashed into the cache key).

    With *point_store* (a :class:`~repro.runner.point_store.PointStore`),
    every grid point is first looked up by its content digest.  A fixed
    point whose record holds all its dies schedules zero work items; an
    adaptive point replays the dies its record holds (see
    :func:`run_pooled_round`).  A fixed point's record is written as its
    last die arrives, an adaptive point's after every round, so a run
    killed mid-sweep keeps every finished point and rerunning the same
    command resumes it.  Stored outcomes round-trip exactly and are merged
    by the same code as fresh ones, so a warm run is byte-identical to a
    cold one; like the execution backend, the store is topology and never
    part of any run identity.  Quarantine follows :func:`run_fixed_units`.
    """
    points = list(points)
    packets_per_die = max(1, num_packets // num_fault_maps)
    identity = None
    if point_store is not None:
        from repro.runner.point_store import fault_point_identity, link_identity

        link_of = lru_cache(maxsize=None)(link_identity)

        def identity(index: int) -> dict:
            return fault_point_identity(
                points[index],
                link_of(points[index].config),
                num_packets=num_packets,
                num_fault_maps=num_fault_maps,
                entropy=entropy,
                use_rake=use_rake,
                adaptive=adaptive,
            )

    def merge(index: int, dies: Sequence[FaultMapOutcome]) -> FaultSimulationPoint:
        return merge_fault_outcomes(
            dies, snr_db=points[index].snr_db, protection=points[index].protection
        )

    if adaptive is None:
        units = [
            point.die_tasks(
                range(num_fault_maps),
                packets_per_die=packets_per_die,
                entropy=entropy,
                use_rake=use_rake,
            )
            for point in points
        ]
        return run_fixed_units(
            runner,
            simulate_fault_map_batch,
            units,
            merge=merge,
            identity=identity,
            point_store=point_store,
            aggregate_packets=aggregate_packets,
        )

    budget = required_packets_for_bler(adaptive.bler_floor, adaptive.relative_error)
    max_trials = adaptive.max_trials if adaptive.max_trials is not None else num_packets
    trial_ceiling = min(max_trials, budget)
    results: List[FaultSimulationPoint] = []
    for index, point in enumerate(points):
        record, dies = None, []
        if point_store is not None:
            record, stored = _point_record(point_store, identity(index), None)
            dies = list(stored or [])

        def schedule_round(num_dies: int, trials: int) -> List[FaultMapTask]:
            # Die m keeps the fixed schedule's spawn key, so the first
            # num_fault_maps dies are the fixed sweep's.  Never schedule
            # past the trial ceiling: a round shrinks to however many dies
            # the remaining budget still covers, so adaptive mode cannot
            # simulate more than the fixed-schedule sweep at any point.
            remaining_dies = -(-(trial_ceiling - trials) // packets_per_die)  # ceil
            round_dies = max(1, min(adaptive.chunks_per_round, remaining_dies))
            return point.die_tasks(
                range(num_dies, num_dies + round_dies),
                packets_per_die=packets_per_die,
                entropy=entropy,
                use_rake=use_rake,
            )

        execute_round = partial(
            run_pooled_round,
            fn=simulate_fault_map_batch,
            outcomes=dies,
            save=None if record is None else partial(point_store.store, *record),
            aggregate_packets=aggregate_packets,
        )
        rounds = runner.run_adaptive_rounds(
            schedule_round,
            execute_round,
            lambda die: block_errors(die.statistics),
            confidence=adaptive.confidence,
            relative_error=adaptive.relative_error,
            min_trials=min(adaptive.min_trials, max_trials),
            budget=budget,
            max_trials=max_trials,
        )
        results.append(merge(index, dies[: rounds.num_items]))
    return results
