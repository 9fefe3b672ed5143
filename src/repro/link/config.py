"""Configuration of the HSPA+-like downlink used by all experiments."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.channel.multipath import PROFILES, PowerDelayProfile
from repro.harq.combining import CombiningScheme
from repro.phy.crc import CRC_BY_LENGTH, Crc
from repro.phy.modulation import Modulator, get_modulator
from repro.phy.quantization import LlrQuantizer
from repro.utils.validation import ensure_positive_int


def parse_fading_token(token: str) -> Optional[float]:
    """Validate a fading-mode token, returning the Doppler frequency.

    ``"block"`` (the quasi-static default) maps to ``None``;
    ``"jakes:<doppler_hz>"`` maps to the positive maximum Doppler frequency
    in Hz.
    """
    value = str(token).strip().lower()
    if value == "block":
        return None
    if value.startswith("jakes:"):
        try:
            doppler_hz = float(value[6:])
        except ValueError:
            raise ValueError(
                f"bad fading token {token!r}: jakes:<doppler_hz> needs a number"
            ) from None
        if doppler_hz <= 0:
            raise ValueError("jakes Doppler frequency must be positive")
        return doppler_hz
    raise ValueError(
        f"unknown fading token {token!r}; use 'block' or 'jakes:<doppler_hz>'"
    )


@dataclass(frozen=True)
class LinkConfig:
    """All parameters of one link-level operating mode.

    The defaults reproduce the paper's evaluation setting: 64QAM (the most
    noise-sensitive, high-throughput mode), 10-bit LLR quantization, a
    maximum of three retransmissions (four transmissions total) with
    incremental-redundancy combining, an MMSE equalizer and a
    standard-compliant multipath profile.

    Parameters
    ----------
    modulation:
        ``"QPSK"``, ``"16QAM"`` or ``"64QAM"``.
    payload_bits:
        Information bits per packet, CRC excluded.
    crc_bits:
        CRC length appended to the payload (8, 16 or 24).
    effective_code_rate:
        Target code rate of a single transmission after rate matching
        (information+CRC bits over channel bits).
    turbo_iterations:
        Maximum turbo-decoder iterations.
    max_transmissions:
        HARQ transmission budget per packet (initial + retransmissions).
    combining:
        HARQ combining scheme (chase or incremental redundancy).
    llr_bits:
        HARQ soft-buffer quantization width (the paper's joint study uses
        10, 11 and 12).
    llr_max_abs:
        Quantizer saturation level.
    channel_profile:
        Name of a built-in power delay profile, or a custom profile object.
    sample_period_ns:
        Duration of one transmitted sample for resampling the delay profile
        (the UMTS chip period by default).
    equalizer_taps:
        MMSE equalizer filter length.
    spreading_factor:
        OVSF spreading factor; 1 bypasses spreading (the despread output is
        statistically identical, so experiments default to 1 for speed).
    interleaver_columns:
        Number of columns of the channel (2nd) interleaver.
    buffer_architecture:
        ``"per-transmission"`` (default) stores each transmission's received
        LLRs in its own region of the HARQ memory and combines them when the
        decoder reads the buffer — the organisation whose size matches the
        paper's LLR-storage numbers.  ``"combined"`` stores the running
        mother-domain sum instead (a virtual-IR-buffer organisation).
    decoder_backend:
        Turbo-decoder backend name (see :mod:`repro.phy.turbo.backends`).
        The default ``"auto"`` runs the native C kernel where it can be
        built and numpy elsewhere — both bit-identical at float64, so the
        golden-seed suite pins the same bytes; ``"numpy-f32"`` selects the
        float32 mode.
    llr_dtype:
        Floating-point dtype of the end-to-end link LLRs (``"float64"`` or
        ``"float32"``).  The opt-in float32 mode halves the LLR memory
        traffic between demapper, HARQ buffer and decoder; pair it with
        ``decoder_backend="numpy-f32"`` to keep the whole receive chain in
        single precision.  Non-default, so run identities and goldens are
        untouched by its existence.
    fading:
        Time-selectivity of the channel within one transmission.  The
        default ``"block"`` keeps the historical quasi-static model (one
        multipath realisation per transmission, constant over the packet);
        ``"jakes:<doppler_hz>"`` additionally modulates the transmit
        samples with a unit-power time-correlated Jakes waveform at the
        given maximum Doppler frequency, so the channel varies *inside*
        a packet.  The receiver tracks the waveform with perfect CSI
        (per-symbol gain compensation and per-symbol demapper noise
        variances).  Non-default, so run identities and goldens are
        untouched by its existence.
    """

    modulation: str = "64QAM"
    payload_bits: int = 488
    crc_bits: int = 16
    effective_code_rate: float = 0.75
    turbo_iterations: int = 5
    max_transmissions: int = 4
    combining: CombiningScheme = CombiningScheme.INCREMENTAL_REDUNDANCY
    llr_bits: int = 10
    llr_max_abs: float = 32.0
    channel_profile: str | PowerDelayProfile = "ITU-PedA"
    sample_period_ns: float = 260.417
    equalizer_taps: int = 12
    spreading_factor: int = 1
    interleaver_columns: int = 30
    buffer_architecture: str = "per-transmission"
    decoder_backend: str = "auto"
    llr_dtype: str = "float64"
    fading: str = "block"

    def __post_init__(self) -> None:
        ensure_positive_int(self.payload_bits, "payload_bits")
        ensure_positive_int(self.turbo_iterations, "turbo_iterations")
        ensure_positive_int(self.max_transmissions, "max_transmissions")
        ensure_positive_int(self.llr_bits, "llr_bits")
        ensure_positive_int(self.equalizer_taps, "equalizer_taps")
        ensure_positive_int(self.spreading_factor, "spreading_factor")
        if self.crc_bits not in CRC_BY_LENGTH:
            raise ValueError(
                f"crc_bits must be one of {sorted(CRC_BY_LENGTH)}, got {self.crc_bits}"
            )
        if not 0.0 < self.effective_code_rate <= 1.0:
            raise ValueError("effective_code_rate must be in (0, 1]")
        get_modulator(self.modulation)  # validates
        if self.buffer_architecture not in ("per-transmission", "combined"):
            raise ValueError(
                "buffer_architecture must be 'per-transmission' or 'combined', "
                f"got {self.buffer_architecture!r}"
            )
        if isinstance(self.channel_profile, str) and self.channel_profile not in PROFILES:
            raise ValueError(
                f"unknown channel profile {self.channel_profile!r}; "
                f"choose from {sorted(PROFILES)}"
            )
        if self.llr_dtype not in ("float64", "float32"):
            raise ValueError(
                f"llr_dtype must be 'float64' or 'float32', got {self.llr_dtype!r}"
            )
        parse_fading_token(self.fading)  # validates
        # Validates the token (raises on typos); availability is resolved at
        # decoder construction time, falling back to numpy if necessary.
        from repro.phy.turbo.backends import parse_backend_name

        parse_backend_name(self.decoder_backend)

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    @property
    def crc(self) -> Crc:
        """The CRC attached to every packet."""
        return CRC_BY_LENGTH[self.crc_bits]

    @property
    def block_size(self) -> int:
        """Turbo code-block size (payload + CRC bits)."""
        return self.payload_bits + self.crc_bits

    @property
    def num_coded_bits(self) -> int:
        """Mother-code output length (3 * block_size, untail-biased encoder)."""
        return 3 * self.block_size

    @property
    def modulator(self) -> Modulator:
        """The configured modulator instance."""
        return get_modulator(self.modulation)

    @property
    def bits_per_symbol(self) -> int:
        """Bits per modulation symbol."""
        return self.modulator.bits_per_symbol

    @property
    def channel_bits_per_transmission(self) -> int:
        """Channel bits per (re)transmission, rounded to a whole symbol count."""
        raw = int(round(self.block_size / self.effective_code_rate))
        bits_per_symbol = self.bits_per_symbol
        return int(-(-raw // bits_per_symbol) * bits_per_symbol)  # ceil to multiple

    @property
    def symbols_per_transmission(self) -> int:
        """Modulated symbols per (re)transmission."""
        return self.channel_bits_per_transmission // self.bits_per_symbol

    @property
    def quantizer(self) -> LlrQuantizer:
        """The HARQ soft-buffer quantizer."""
        return LlrQuantizer(num_bits=self.llr_bits, max_abs=self.llr_max_abs)

    @property
    def llr_storage_words(self) -> int:
        """Number of LLR words the HARQ soft buffer holds.

        For the per-transmission organisation this is the channel-bit count
        times the transmission budget; for the combined organisation it is
        the mother-code length (virtual IR buffer).
        """
        if self.buffer_architecture == "per-transmission":
            return self.channel_bits_per_transmission * self.max_transmissions
        return self.num_coded_bits

    @property
    def llr_storage_cells(self) -> int:
        """Number of SRAM bit cells in the HARQ soft buffer.

        This is the ``M`` of the yield analysis: every stored LLR occupies
        ``llr_bits`` cells.
        """
        return self.llr_storage_words * self.llr_bits

    @property
    def llr_numpy_dtype(self):
        """The numpy dtype of the end-to-end link LLRs."""
        import numpy as np

        return np.float32 if self.llr_dtype == "float32" else np.float64

    @property
    def fading_doppler_hz(self) -> Optional[float]:
        """Maximum Doppler of the intra-packet fading (``None`` for block fading)."""
        return parse_fading_token(self.fading)

    def fading_process(self):
        """The intra-packet :class:`~repro.channel.fading.JakesFadingProcess`.

        Returns ``None`` in the default block-fading mode.  The waveform is
        sampled at the transmit sample (chip) rate implied by
        :attr:`sample_period_ns`.
        """
        doppler_hz = self.fading_doppler_hz
        if doppler_hz is None:
            return None
        from repro.channel.fading import JakesFadingProcess

        return JakesFadingProcess(
            doppler_hz=doppler_hz, sample_rate_hz=1e9 / self.sample_period_ns
        )

    @property
    def profile(self) -> PowerDelayProfile:
        """The resolved power delay profile object."""
        if isinstance(self.channel_profile, PowerDelayProfile):
            return self.channel_profile
        return PROFILES[self.channel_profile]

    # ------------------------------------------------------------------ #
    def with_updates(self, **kwargs) -> "LinkConfig":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)

    def describe(self) -> str:
        """Human-readable multi-line summary of the operating mode.

        The decoder is named by the backend results are filed under (see
        :func:`repro.phy.turbo.backends.identity_spec`) and omitted when
        that is numpy at float64, so run identities (and the golden
        snapshots that pin them) do not depend on which exact family ran;
        any other backend is spelled out, which keys caches apart.
        """
        from repro.phy.turbo.backends import identity_spec

        decoder = identity_spec(self.decoder_backend).name
        backend = "" if decoder == "numpy" else f", decoder {decoder}"
        dtype = "" if self.llr_dtype == "float64" else f", llr dtype {self.llr_dtype}"
        fading = "" if self.fading == "block" else f", fading {self.fading}"
        backend += dtype + fading
        return (
            f"{self.modulation}, K={self.block_size} bits "
            f"(payload {self.payload_bits} + CRC {self.crc_bits}), "
            f"rate {self.effective_code_rate:.2f}, "
            f"{self.max_transmissions} transmissions ({self.combining.value}), "
            f"{self.llr_bits}-bit LLRs, profile {self.profile.name}, "
            f"LLR storage {self.llr_storage_cells} cells{backend}"
        )
