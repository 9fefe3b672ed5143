"""Physical-layer substrate for the HSPA+-like link simulator.

Contains every transmit/receive building block the paper's system model
(Fig. 1a) requires, each over a ``(packets, ...)`` batch: CRC attachment,
the 3GPP-style turbo code, rate matching with redundancy versions, channel
interleaving, Gray-mapped QPSK/16QAM/64QAM with soft (LLR) demapping,
OVSF spreading/scrambling and fixed-point LLR quantization.
"""

from repro.phy.crc import Crc, CRC_8, CRC_16, CRC_24A
from repro.phy.modulation import Modulator, MODULATIONS, bits_to_symbols_matrix
from repro.phy.quantization import LlrQuantizer
from repro.phy.turbo import TurboCode, TurboDecoder, TurboEncoder

__all__ = [
    "Crc",
    "CRC_8",
    "CRC_16",
    "CRC_24A",
    "LlrQuantizer",
    "MODULATIONS",
    "Modulator",
    "TurboCode",
    "TurboDecoder",
    "TurboEncoder",
    "bits_to_symbols_matrix",
]
