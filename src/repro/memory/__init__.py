"""Unreliable-silicon substrate: SRAM bit-cell failure models, fault maps,
memory arrays, ECC, yield and area/power models.

This package models everything Section 3 and 4 of the paper need: the
failure probability of 6T / upsized-6T / 8T bit-cells as a function of supply
voltage at the 65 nm slow-fast corner (parametric variations), the voltage
dependence of soft errors, the yield of an array accepting up to ``Nf``
faulty cells (Eq. 1 and 2), and the read-path behaviour of an array with an
explicit fault-location map (bit-flips on read) that the system-level fault
simulation injects into the HARQ LLR storage.
"""

from repro.memory.cells import (
    BitCellType,
    CELL_6T,
    CELL_6T_UPSIZED,
    CELL_8T,
    CELL_TYPES,
    SoftErrorModel,
)
from repro.memory.faults import FaultMap, FaultModel, FaultModelSpec, coerce_fault_model
from repro.memory.array import MemoryArray
from repro.memory.ecc import HammingCode
from repro.memory.power import AreaModel, PowerModel
from repro.memory.yield_model import (
    acceptance_yield,
    defect_free_yield,
    min_defects_for_yield,
)

__all__ = [
    "AreaModel",
    "BitCellType",
    "CELL_6T",
    "CELL_6T_UPSIZED",
    "CELL_8T",
    "CELL_TYPES",
    "FaultMap",
    "FaultModel",
    "FaultModelSpec",
    "HammingCode",
    "MemoryArray",
    "PowerModel",
    "SoftErrorModel",
    "acceptance_yield",
    "coerce_fault_model",
    "defect_free_yield",
    "min_defects_for_yield",
]
