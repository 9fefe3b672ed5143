"""The HARQ LLR soft buffer backed by a (possibly faulty) memory array.

This is the component the whole paper revolves around: "The received data
packets are buffered in the LLR storage prior to decoding ... the HARQ
operation combines the retransmitted data packet with the (stored)
information (i.e., LLRs) of previous transmissions."

Both buffer kinds quantize LLRs with the configured
:class:`~repro.phy.quantization.LlrQuantizer` and keep the integer words in
one :class:`~repro.memory.array.MemoryArray` laid over the die's fault map.
Every read-back goes through the die's word masks — ``((word & and_) |
or_) ^ xor`` per word — so memory defects corrupt exactly the bits the
paper's fault simulator corrupts, and the words decode to LLRs with one
gather from the quantizer's value table.  A per-transmission slot is a row
range of that array and of the die's masks, not an array of its own.

:func:`store_transmission_rows` and :func:`combined_mother_rows` serve a
whole HARQ round of per-transmission buffers: the round's rows are quantized
and stored in one call, and each slot read applies every die's masks once to
that die's rows.  The per-buffer methods are the same functions for one row.
Transient upsets are drawn per buffer, per read, in ascending slot order, so
a buffer's upset stream does not depend on the rows it is read with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.memory.array import MemoryArray, read_rows, write_rows
from repro.memory.ecc import HammingCode
from repro.memory.faults import FaultMap
from repro.phy.quantization import LlrQuantizer
from repro.utils.rng import RngLike
from repro.utils.validation import ensure_positive_int


@dataclass
class LlrSoftBuffer:
    """Soft buffer holding the combined LLRs of one HARQ process.

    Parameters
    ----------
    num_llrs:
        Number of LLR words the buffer holds (the mother-code length for an
        incremental-redundancy virtual buffer).
    quantizer:
        Fixed-point format of the stored LLRs.
    fault_map:
        Fault locations of the underlying SRAM (defect-free by default).  The
        map must cover ``num_llrs`` words of ``quantizer.num_bits`` columns.
    ecc:
        Optional Hamming code protecting every stored word (conventional
        full-ECC alternative).
    soft_error_rate:
        Per-read transient upset probability per cell (composes with the
        persistent fault map; see :class:`~repro.memory.array.MemoryArray`).
    soft_error_rng:
        Seed or generator driving the transient upsets.
    """

    num_llrs: int
    quantizer: LlrQuantizer = field(default_factory=LlrQuantizer)
    fault_map: Optional[FaultMap] = None
    ecc: Optional[HammingCode] = None
    soft_error_rate: float = 0.0
    soft_error_rng: RngLike = None

    def __post_init__(self) -> None:
        ensure_positive_int(self.num_llrs, "num_llrs")
        self._array = MemoryArray(
            num_words=self.num_llrs,
            bits_per_word=self.quantizer.num_bits,
            fault_map=self.fault_map,
            ecc=self.ecc,
            soft_error_rate=self.soft_error_rate,
            soft_error_rng=self.soft_error_rng,
        )
        self._occupied = False

    # ------------------------------------------------------------------ #
    @property
    def num_cells(self) -> int:
        """Number of bit cells the buffer occupies."""
        return self._array.num_cells

    # ------------------------------------------------------------------ #
    def store(self, llrs: np.ndarray) -> None:
        """Quantize and store *llrs* (length must equal ``num_llrs``)."""
        values = np.asarray(llrs, dtype=np.float64).reshape(-1)
        if values.size != self.num_llrs:
            raise ValueError(f"expected {self.num_llrs} LLRs, got {values.size}")
        self._array.write_words(self.quantizer.llrs_to_words(values))
        self._occupied = True

    def load(self) -> np.ndarray:
        """Read the stored LLRs back through the faulty memory.

        Returns zeros when the buffer is empty (first transmission).
        """
        if not self._occupied:
            return np.zeros(self.num_llrs, dtype=np.float64)
        return np.take(self.quantizer.word_values(), self._array.read_words())

    def combine_and_store(self, new_llrs: np.ndarray) -> np.ndarray:
        """Add *new_llrs* to the stored soft values, store and return the result.

        The returned array is what the channel decoder sees: it is read back
        through the faulty memory *after* the combined value has been written,
        matching the hardware dataflow (decoder reads from the LLR SRAM).
        """
        values = np.asarray(new_llrs, dtype=np.float64).reshape(-1)
        if values.size != self.num_llrs:
            raise ValueError(f"expected {self.num_llrs} LLRs, got {values.size}")
        self.store(self.load() + values)
        return self.load()

    def clear(self) -> None:
        """Flush the soft buffer (ACK received or process re-used)."""
        self._array.clear()
        self._occupied = False

    def defect_rate(self) -> float:
        """Fraction of faulty cells in the underlying array."""
        return self._array.defect_rate


@dataclass
class TransmissionSoftBuffer:
    """Soft buffer storing each HARQ transmission's received LLRs separately.

    This models the alternative (and, for HSDPA terminals, common) buffer
    organisation in which the LLR memory is sized for the channel bits of up
    to ``num_slots`` transmissions and the soft combining is performed when
    the decoder reads the buffer: every stored transmission is read back
    (through the fault map), de-rate-matched with its redundancy version and
    summed in the mother-code domain.

    Compared with :class:`LlrSoftBuffer` (which stores the already-combined
    mother-domain values), a faulty cell here corrupts only *one*
    transmission's contribution, so retransmissions dilute the damage — the
    behaviour responsible for the paper's finding that the system still meets
    its throughput requirement at surprisingly high defect rates.

    Parameters
    ----------
    words_per_transmission:
        Stored LLR words per transmission (the channel-bit count).
    num_slots:
        Maximum number of transmissions retained (the HARQ budget).
    quantizer:
        Fixed-point format of the stored LLRs.
    fault_map:
        Die-wide fault map covering ``num_slots * words_per_transmission``
        words; it is partitioned row-wise among the slots.
    ecc:
        Optional Hamming code protecting every stored word.
    soft_error_rate:
        Per-read transient upset probability per cell (composes with the
        persistent fault map; see :class:`~repro.memory.array.MemoryArray`).
    soft_error_rng:
        Seed or generator driving the transient upsets; one stream is
        shared by all slots (reads visit slots in a fixed order).
    """

    words_per_transmission: int
    num_slots: int
    quantizer: LlrQuantizer = field(default_factory=LlrQuantizer)
    fault_map: Optional[FaultMap] = None
    ecc: Optional[HammingCode] = None
    soft_error_rate: float = 0.0
    soft_error_rng: RngLike = None

    def __post_init__(self) -> None:
        ensure_positive_int(self.words_per_transmission, "words_per_transmission")
        ensure_positive_int(self.num_slots, "num_slots")
        self._array = MemoryArray(
            num_words=self.words_per_transmission * self.num_slots,
            bits_per_word=self.quantizer.num_bits,
            fault_map=self.fault_map,
            ecc=self.ecc,
            soft_error_rate=self.soft_error_rate,
            soft_error_rng=self.soft_error_rng,
        )
        self._slot_redundancy_versions: list[Optional[int]] = [None] * self.num_slots
        self._occupied = [False] * self.num_slots

    # ------------------------------------------------------------------ #
    @property
    def num_words(self) -> int:
        """Total stored LLR words across all slots."""
        return self.words_per_transmission * self.num_slots

    @property
    def num_cells(self) -> int:
        """Total number of bit cells in the buffer."""
        return self._array.num_cells

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.num_slots:
            raise ValueError(f"slot must be in [0, {self.num_slots})")

    # ------------------------------------------------------------------ #
    def clear(self) -> None:
        """Flush all slots (ACK received or process re-used)."""
        self._array.clear()
        self._slot_redundancy_versions = [None] * self.num_slots
        self._occupied = [False] * self.num_slots

    def defect_rate(self) -> float:
        """Fraction of faulty cells across the whole buffer."""
        return self._array.defect_rate


# --------------------------------------------------------------------------- #
def store_transmission_rows(
    buffers: Sequence[TransmissionSoftBuffer],
    slot: int,
    llr_rows: np.ndarray,
    redundancy_version: int,
) -> None:
    """Quantize and store row ``i`` of *llr_rows* into ``buffers[i]``'s *slot*.

    One HARQ round's transmissions, quantized in one call and written as one
    batch (one ECC encode per run of rows sharing a code).  The buffers of a
    batch share one ``words_per_transmission`` and quantizer format (those
    of ``buffers[0]`` are used), as the buffers of one link do.
    """
    width = buffers[0].words_per_transmission
    values = np.asarray(llr_rows, dtype=np.float64)
    if values.shape != (len(buffers), width):
        raise ValueError(f"expected {len(buffers)} rows of {width} LLRs, got {values.shape}")
    for buffer in buffers:
        buffer._check_slot(slot)
    words = buffers[0].quantizer.llrs_to_words(values)
    write_rows([buffer._array for buffer in buffers], slot * width, words)
    for buffer in buffers:
        buffer._slot_redundancy_versions[slot] = int(redundancy_version)
        buffer._occupied[slot] = True


def combined_mother_rows(
    buffers: Sequence[TransmissionSoftBuffer], to_mother_domain_batch
) -> np.ndarray:
    """Read back and sum every stored transmission in the mother-code domain.

    This is the HARQ read-combine: one output row per buffer.  Slots are
    visited in ascending order; each slot's active rows are read in one
    batch (each die's masks applied once to that die's rows), so each
    buffer's transient-upset stream advances in the same order whether it
    is read alone or with others, and each row accumulates its
    transmissions in ascending-slot order.  Rows read from the same slot
    with the same redundancy version share one de-interleave /
    de-rate-match call.

    Parameters
    ----------
    buffers:
        Per-transmission soft buffers, one per output row, sharing one
        ``words_per_transmission`` and quantizer format as in
        :func:`store_transmission_rows`.
    to_mother_domain_batch:
        Callable ``(channel_llr_rows, redundancy_version) -> mother_rows``
        (typically the receiver's de-interleave + de-rate-match stage).
    """
    width = buffers[0].words_per_transmission
    values = buffers[0].quantizer.word_values()
    batch = len(buffers)
    combined: Optional[np.ndarray] = None
    seen = np.zeros(batch, dtype=bool)
    for slot in range(max(buffer.num_slots for buffer in buffers)):
        rows = [
            index
            for index, buffer in enumerate(buffers)
            if slot < buffer.num_slots and buffer._occupied[slot]
        ]
        if not rows:
            continue
        words = read_rows(
            [buffers[index]._array for index in rows], slot * width, (slot + 1) * width
        )
        stacked = np.take(values, words)
        versions = [buffers[index]._slot_redundancy_versions[slot] for index in rows]
        mother: Optional[np.ndarray] = None
        for version in dict.fromkeys(versions):
            selector = [j for j, rv in enumerate(versions) if rv == version]
            part = np.asarray(
                to_mother_domain_batch(stacked[selector], version), dtype=np.float64
            )
            if mother is None:
                mother = np.empty((len(rows), part.shape[1]), dtype=np.float64)
            mother[selector] = part
        if combined is None:
            combined = np.empty((batch, mother.shape[1]), dtype=np.float64)
        row_indices = np.asarray(rows)
        first = ~seen[row_indices]
        if first.any():
            combined[row_indices[first]] = mother[first]
        if not first.all():
            combined[row_indices[~first]] += mother[~first]
        seen[rows] = True
    if combined is None or not seen.all():
        raise ValueError("no transmissions stored yet")
    return combined

