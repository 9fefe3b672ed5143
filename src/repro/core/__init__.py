"""The paper's storage models and the analyses built on them.

1. :mod:`repro.core.protection` — how the LLR storage is implemented
   (unprotected 6T, all-8T, full ECC, or the proposed preferential MSB
   protection), which determines per-bit-position failure probabilities,
   fault-map shapes and area/power cost.
2. :mod:`repro.core.voltage` — the Section 6.3 voltage-scaling analysis
   (defects accepted per supply voltage and the resulting power savings).
3. :mod:`repro.core.montecarlo` and :mod:`repro.core.results` — the
   Monte-Carlo confidence intervals and the result tables every driver
   returns.

The Monte-Carlo fault simulation itself (Fig. 4: fault maps injected into
the HARQ LLR buffer, packets pushed through the link) runs as keyed work
items in :mod:`repro.runner.tasks`, driven by
:func:`repro.scenarios.engine.run_scenario_grid`.
"""

from repro.core.protection import (
    EccProtection,
    FullCellProtection,
    MsbProtection,
    NoProtection,
    ProtectionScheme,
)
from repro.core.voltage import VoltageScalingAnalysis
from repro.core.results import SweepTable

__all__ = [
    "EccProtection",
    "FullCellProtection",
    "MsbProtection",
    "NoProtection",
    "ProtectionScheme",
    "SweepTable",
    "VoltageScalingAnalysis",
]
