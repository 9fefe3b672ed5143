"""Fault-location maps and fault models for memory arrays.

The system-level fault simulator (paper Section 4) creates, "for various
number of defects Nf, an array instance with random fault locations"; when a
stored bit maps to a faulty cell "the bit is inverted to indicate a
bit-error".  This module generates those fault maps (exactly-Nf, uniform or
clustered) and reduces the chosen fault semantics (bit-flip,
stuck-at-0/1/random) to three integer masks per stored word, so a read-out
is ``((word & and_mask) | or_mask) ^ xor_mask``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from repro.utils.rng import RngLike, as_rng
from repro.utils.validation import ensure_non_negative_int, ensure_positive_int


class FaultModel(str, Enum):
    """Semantics of a faulty cell on read-out."""

    #: The stored bit is inverted (the paper's model).
    BIT_FLIP = "bit-flip"
    #: The cell always reads 0 regardless of what was written.
    STUCK_AT_0 = "stuck-at-0"
    #: The cell always reads 1 regardless of what was written.
    STUCK_AT_1 = "stuck-at-1"
    #: Each faulty cell is independently assigned stuck-at-0 or stuck-at-1.
    STUCK_AT_RANDOM = "stuck-at-random"


@dataclass(frozen=True)
class FaultModelSpec:
    """A fault model plus the spatial placement of the faulty cells.

    The historical tokens (``"bit-flip"``, ``"stuck-at-0"``, ...) keep their
    uniform placement; ``"clustered:<r>"`` places the same exact fault count
    in spatially-correlated clusters of Chebyshev radius ``r`` on the
    ``(word, bit)`` grid (shared-well / multi-cell defects), with the
    paper's bit-flip read-out semantics.

    Attributes
    ----------
    model:
        Read-out semantics of faulty cells.
    placement:
        ``"uniform"`` (independent random locations) or ``"clustered"``.
    cluster_radius:
        Chebyshev radius of one cluster (``0`` for uniform placement).
    """

    model: FaultModel = FaultModel.BIT_FLIP
    placement: str = "uniform"
    cluster_radius: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "model", FaultModel(self.model))
        if self.placement not in ("uniform", "clustered"):
            raise ValueError(
                f"placement must be 'uniform' or 'clustered', got {self.placement!r}"
            )
        if self.placement == "clustered":
            ensure_positive_int(self.cluster_radius, "cluster_radius")
        elif self.cluster_radius != 0:
            raise ValueError("cluster_radius applies to clustered placement only")

    @property
    def token(self) -> str:
        """The canonical string token naming this spec."""
        if self.placement == "clustered":
            return f"clustered:{self.cluster_radius}"
        return self.model.value

    @classmethod
    def parse(cls, value: "FaultModelSpec | FaultModel | str") -> "FaultModelSpec":
        """Resolve a fault-model token (or instance) to a spec.

        Accepts an existing spec (returned unchanged), a :class:`FaultModel`
        and the string tokens ``"bit-flip"`` / ``"stuck-at-*"`` (uniform
        placement) or ``"clustered:<r>"`` (clustered bit-flips of radius
        *r*).
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, FaultModel):
            return cls(model=value)
        token = str(value).strip().lower()
        if token.startswith("clustered:"):
            try:
                radius = int(token[10:])
            except ValueError:
                raise ValueError(
                    f"bad fault-model token {value!r}: clustered:<r> needs an integer"
                ) from None
            return cls(placement="clustered", cluster_radius=radius)
        try:
            return cls(model=FaultModel(token))
        except ValueError:
            raise ValueError(
                f"unknown fault-model token {value!r}; use one of "
                f"{[m.value for m in FaultModel]} or 'clustered:<r>'"
            ) from None


def coerce_fault_model(
    value: "FaultModelSpec | FaultModel | str",
) -> "FaultModel | FaultModelSpec":
    """Normalise a fault-model token for storage on a work item.

    Uniform placements reduce to the plain :class:`FaultModel` (keeping the
    historical task contents byte-for-byte); clustered placements keep the
    full :class:`FaultModelSpec`.
    """
    spec = FaultModelSpec.parse(value)
    return spec.model if spec.placement == "uniform" else spec


@dataclass
class FaultMap:
    """Fault locations of one memory-array instance (one manufactured die).

    Attributes
    ----------
    num_words, bits_per_word:
        Array organisation: one stored word per LLR, one column per LLR bit.
    fault_mask:
        Boolean array of shape ``(num_words, bits_per_word)``; ``True`` marks
        a faulty cell.
    fault_model:
        Read-out semantics of faulty cells.
    stuck_values:
        For stuck-at models, the value (0 or 1) each faulty cell is stuck at
        (same shape as :attr:`fault_mask`; ignored for bit-flip faults).
    """

    num_words: int
    bits_per_word: int
    fault_mask: np.ndarray
    fault_model: FaultModel = FaultModel.BIT_FLIP
    stuck_values: Optional[np.ndarray] = None

    _word_masks: Optional["WordMasks"] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        ensure_positive_int(self.num_words, "num_words")
        ensure_positive_int(self.bits_per_word, "bits_per_word")
        mask = np.asarray(self.fault_mask, dtype=bool)
        if mask.shape != (self.num_words, self.bits_per_word):
            raise ValueError(
                f"fault_mask shape {mask.shape} does not match "
                f"({self.num_words}, {self.bits_per_word})"
            )
        self.fault_mask = mask
        self.fault_model = FaultModel(self.fault_model)
        if self.fault_model in (FaultModel.STUCK_AT_0, FaultModel.STUCK_AT_1):
            value = 0 if self.fault_model is FaultModel.STUCK_AT_0 else 1
            self.stuck_values = np.full(mask.shape, value, dtype=np.int8)
        elif self.fault_model is FaultModel.STUCK_AT_RANDOM:
            if self.stuck_values is None:
                raise ValueError("stuck_values required for the stuck-at-random fault model")
            stuck = np.asarray(self.stuck_values)
            if stuck.shape != mask.shape:
                raise ValueError(
                    f"stuck_values shape {stuck.shape} does not match fault_mask {mask.shape}"
                )
            if not ((stuck == 0) | (stuck == 1)).all():
                raise ValueError("stuck_values must be 0 or 1")
            self.stuck_values = stuck.astype(np.int8)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls, num_words: int, bits_per_word: int) -> "FaultMap":
        """A defect-free array instance."""
        mask = np.zeros((num_words, bits_per_word), dtype=bool)
        return cls(num_words, bits_per_word, mask)

    @classmethod
    def _placed(cls, mask: np.ndarray, fault_model: FaultModel, generator) -> "FaultMap":
        """The map of placed faults; stuck-at-random draws its values after placement."""
        stuck = None
        if fault_model is FaultModel.STUCK_AT_RANDOM:
            stuck = generator.integers(0, 2, size=mask.shape, dtype=np.int8)
        return cls(mask.shape[0], mask.shape[1], mask, fault_model, stuck)

    @classmethod
    def with_exact_fault_count(
        cls,
        num_words: int,
        bits_per_word: int,
        num_faults: int,
        rng: RngLike = None,
        fault_model: FaultModel = FaultModel.BIT_FLIP,
        protected_columns: Optional[np.ndarray] = None,
    ) -> "FaultMap":
        """Place exactly *num_faults* faults uniformly at random.

        This is the paper's selection-criterion model: the worst-case die that
        passes inspection has exactly ``Nf`` faulty cells at unknown random
        locations.

        Parameters
        ----------
        protected_columns:
            Optional boolean array of length *bits_per_word*; ``True`` marks
            bit positions implemented in robust cells that cannot fail.  The
            ``num_faults`` faults are then distributed over the unprotected
            columns only (the hybrid-array acceptance criterion of Section 6).
        """
        eligible_columns = _eligible_columns(
            num_words, bits_per_word, num_faults, protected_columns
        )
        generator = as_rng(rng)
        num_eligible = num_words * eligible_columns.size
        mask = np.zeros((num_words, bits_per_word), dtype=bool)
        if num_faults and eligible_columns.size:
            flat_choice = generator.choice(num_eligible, size=num_faults, replace=False)
            rows = flat_choice // eligible_columns.size
            cols = eligible_columns[flat_choice % eligible_columns.size]
            mask[rows, cols] = True

        return cls._placed(mask, fault_model, generator)

    @classmethod
    def with_clustered_fault_count(
        cls,
        num_words: int,
        bits_per_word: int,
        num_faults: int,
        cluster_radius: int,
        rng: RngLike = None,
        fault_model: FaultModel = FaultModel.BIT_FLIP,
        protected_columns: Optional[np.ndarray] = None,
    ) -> "FaultMap":
        """Place exactly *num_faults* faults in spatially-correlated clusters.

        The clustered counterpart of :meth:`with_exact_fault_count` (same
        marginal defect rate by construction, same acceptance-criterion
        semantics): cluster centres are drawn uniformly over the eligible
        cells, and each cluster marks the eligible cells within Chebyshev
        radius *cluster_radius* of its centre on the ``(word, bit)`` grid —
        nearest first — until the fault budget is spent.  Models multi-cell
        defects (shared wells, supply droop) whose burst errors the channel
        interleaver is supposed to break up.

        Parameters
        ----------
        cluster_radius:
            Chebyshev radius of one cluster; radius ``r`` covers up to
            ``(2r + 1)^2`` cells.
        protected_columns:
            Optional boolean array of length *bits_per_word*; ``True`` marks
            robust bit positions that cannot fail (clusters flow around
            them).
        """
        eligible_columns = _eligible_columns(
            num_words, bits_per_word, num_faults, protected_columns
        )
        cluster_radius = ensure_positive_int(cluster_radius, "cluster_radius")
        generator = as_rng(rng)
        num_eligible = num_words * eligible_columns.size
        mask = np.zeros((num_words, bits_per_word), dtype=bool)
        placed = 0
        while placed < num_faults:
            flat = int(generator.integers(0, num_eligible))
            centre_row = flat // eligible_columns.size
            centre_col = int(eligible_columns[flat % eligible_columns.size])
            rows = np.arange(
                max(0, centre_row - cluster_radius),
                min(num_words, centre_row + cluster_radius + 1),
            )
            cols = eligible_columns[
                np.abs(eligible_columns - centre_col) <= cluster_radius
            ]
            grid_rows, grid_cols = np.meshgrid(rows, cols, indexing="ij")
            grid_rows, grid_cols = grid_rows.ravel(), grid_cols.ravel()
            fresh = ~mask[grid_rows, grid_cols]
            grid_rows, grid_cols = grid_rows[fresh], grid_cols[fresh]
            if not grid_rows.size:
                continue  # the whole neighbourhood is already faulty
            distance = np.maximum(
                np.abs(grid_rows - centre_row), np.abs(grid_cols - centre_col)
            )
            order = np.lexsort((grid_cols, grid_rows, distance))
            take = order[: num_faults - placed]
            mask[grid_rows[take], grid_cols[take]] = True
            placed += take.size

        return cls._placed(mask, fault_model, generator)

    # ------------------------------------------------------------------ #
    # properties and application
    # ------------------------------------------------------------------ #
    @property
    def num_cells(self) -> int:
        """Total number of cells in the array."""
        return self.num_words * self.bits_per_word

    @property
    def num_faults(self) -> int:
        """Number of faulty cells."""
        return int(self.fault_mask.sum())

    @property
    def defect_rate(self) -> float:
        """Fraction of faulty cells."""
        return self.num_faults / self.num_cells

    def word_masks(self) -> "WordMasks":
        """The die's read-out as per-word integer masks (computed once).

        Column 0 is the most significant bit of a stored word.  A bit-flip
        cell sets its bit in ``xor``; a stuck-at cell clears its bit in
        ``and_`` and sets it in ``or_`` when stuck at 1.  A map without
        faults yields the identity masks, shared by every such map of the
        same shape.  The masks are computed on the first call and cached:
        the map is treated as fixed from then on, as a die is.
        """
        if self._word_masks is None:
            num_words, full = self.num_words, (1 << self.bits_per_word) - 1
            weights = 1 << np.arange(self.bits_per_word - 1, -1, -1, dtype=np.int64)
            if not self.fault_mask.any():
                masks = _identity_masks(num_words, full)
            elif self.fault_model is FaultModel.BIT_FLIP:
                faulty = self.fault_mask @ weights
                masks = WordMasks(_constant(full, num_words), _constant(0, num_words), faulty)
            else:
                faulty = self.fault_mask @ weights
                stuck = (self.fault_mask & (self.stuck_values == 1)) @ weights
                masks = WordMasks(full ^ faulty, stuck, _constant(0, num_words))
            self._word_masks = masks
        return self._word_masks


def _eligible_columns(
    num_words: int, bits_per_word: int, num_faults: int, protected_columns
) -> np.ndarray:
    """Columns that can fail, once *num_faults* is known to fit in their cells."""
    ensure_positive_int(num_words, "num_words")
    ensure_positive_int(bits_per_word, "bits_per_word")
    ensure_non_negative_int(num_faults, "num_faults")
    if protected_columns is None:
        eligible_columns = np.arange(bits_per_word)
    else:
        protected = np.asarray(protected_columns, dtype=bool)
        if protected.shape != (bits_per_word,):
            raise ValueError("protected_columns must have length bits_per_word")
        eligible_columns = np.nonzero(~protected)[0]
    num_eligible = num_words * eligible_columns.size
    if num_faults > num_eligible:
        raise ValueError(f"cannot place {num_faults} faults in {num_eligible} eligible cells")
    return eligible_columns


class WordMasks(NamedTuple):
    """Read-out of every stored word: ``((word & and_) | or_) ^ xor``."""

    and_: np.ndarray
    or_: np.ndarray
    xor: np.ndarray


def _constant(value: int, num_words: int) -> np.ndarray:
    """A read-only length-*num_words* mask of one value (no per-word storage)."""
    return np.broadcast_to(np.int64(value), (num_words,))


@lru_cache(maxsize=16)
def _identity_masks(num_words: int, full: int) -> WordMasks:
    """Masks that read every word of ``full``'s width back unchanged."""
    return WordMasks(_constant(full, num_words), _constant(0, num_words), _constant(0, num_words))
