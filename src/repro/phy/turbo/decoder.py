"""Iterative max-log-MAP (BCJR) turbo decoder, vectorised over a batch.

The decoder operates on channel LLRs with the library-wide convention
``LLR = log P(bit = 0) - log P(bit = 1)`` (positive favours 0).  Internally
the BCJR branch metrics use the antipodal value ``(1 - 2*bit)`` so that a
positive LLR rewards the bit-0 branches.

Performance notes
-----------------
Monte-Carlo link simulation decodes many packets per operating point, so the
decoder processes a *batch* of packets simultaneously and the hot
forward/backward kernel is pluggable (see :mod:`repro.phy.turbo.backends`):
the default ``auto`` runs the recursion in a C kernel compiled on first use
(``native``), or, where no compiler is available, in the vectorised numpy
kernel, which precomputes per-step branch metrics once and runs the trellis
loop allocation-free.  The two are bit-identical.

Early stopping is *per packet*: once a packet's hard decisions are stable
over a full iteration its result is frozen and the packet leaves the active
batch, so converged packets stop paying for the stragglers.  Every packet is
decoded exactly as if it were alone in the batch — the property that lets
the link layer aggregate packets from many work items into one decoder call
without changing any result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.phy.turbo.backends import SisoBackend, create_backend
from repro.phy.turbo.interleaver import TurboInterleaver, make_turbo_interleaver
from repro.phy.turbo.trellis import RscTrellis, UMTS_TRELLIS
from repro.utils.validation import ensure_positive_int

_NEG_INF = -1e30


@dataclass
class TurboDecoderResult:
    """Outcome of decoding one batch of code blocks.

    Attributes
    ----------
    decoded_bits:
        Hard decisions, shape ``(batch, block_size)``, dtype ``int8``.
    app_llrs:
        A-posteriori LLRs of the information bits, same shape (float64
        regardless of the backend's compute dtype).
    iterations_run:
        Number of full iterations executed by the slowest packet in the
        batch (per-packet early stopping freezes faster packets earlier).
    converged:
        Boolean per-batch-element flag: hard decisions stable over the last
        iteration the packet participated in.  With ``num_iterations == 1``
        stability is measured against the pre-iteration (channel LLR) hard
        decisions.
    """

    decoded_bits: np.ndarray
    app_llrs: np.ndarray
    iterations_run: int
    converged: np.ndarray


class TurboDecoder:
    """Iterative turbo decoder matching :class:`~repro.phy.turbo.encoder.TurboEncoder`.

    Parameters
    ----------
    block_size:
        Number of information bits per code block.
    num_iterations:
        Maximum number of full (two half-) iterations.
    interleaver_kind:
        Must match the encoder's internal interleaver construction.
    trellis:
        Constituent-code trellis.
    early_stopping:
        If ``True`` (default), freeze each packet as soon as its hard
        decisions are unchanged over ``stable_iterations`` consecutive full
        iterations and shrink the active batch accordingly.
    stable_iterations:
        Number of consecutive stable full iterations required before a
        packet is frozen.  The default of 2 makes the frozen output
        provably equal to running one more iteration whenever the decisions
        are at a fixed point, which keeps the decoder's results independent
        of batch composition *and* matched to the reference whole-batch
        stopping on the golden runs.
    freeze_min_llr:
        Min-LLR fast path: a packet whose decisions are stable over one
        full iteration *and* whose smallest APP magnitude is at least this
        value freezes immediately (the standard hardware min-LLR stopping
        rule) — weakly-converged packets still wait for the
        ``stable_iterations`` streak.  ``None`` disables the fast path.
    extrinsic_scale:
        Scaling applied to extrinsic information between half-iterations; a
        value slightly below 1 (0.75) compensates the optimism of the max-log
        approximation (standard practice in hardware decoders).
    backend:
        Backend name (``"auto"``, the default, ``"numpy"``, ``"numpy-f32"``,
        ``"native"``, ...) or a pre-built
        :class:`~repro.phy.turbo.backends.SisoBackend`.  See
        :mod:`repro.phy.turbo.backends`.
    """

    def __init__(
        self,
        block_size: int,
        num_iterations: int = 6,
        interleaver_kind: str = "qpp",
        trellis: RscTrellis = UMTS_TRELLIS,
        *,
        early_stopping: bool = True,
        stable_iterations: int = 2,
        freeze_min_llr: Optional[float] = 2.0,
        extrinsic_scale: float = 0.75,
        interleaver: Optional[TurboInterleaver] = None,
        backend: Union[str, SisoBackend] = "auto",
    ) -> None:
        self.block_size = ensure_positive_int(block_size, "block_size")
        self.num_iterations = ensure_positive_int(num_iterations, "num_iterations")
        self.early_stopping = early_stopping
        self.stable_iterations = ensure_positive_int(stable_iterations, "stable_iterations")
        self.freeze_min_llr = None if freeze_min_llr is None else float(freeze_min_llr)
        self.extrinsic_scale = float(extrinsic_scale)
        self.trellis = trellis
        self.interleaver = interleaver or make_turbo_interleaver(block_size, interleaver_kind)
        self._siso = create_backend(backend, trellis, block_size)

    @property
    def backend(self) -> SisoBackend:
        """The backend instance running the SISO kernel."""
        return self._siso

    # ------------------------------------------------------------------ #
    def decode(
        self,
        systematic_llrs: np.ndarray,
        parity1_llrs: np.ndarray,
        parity2_llrs: np.ndarray,
    ) -> TurboDecoderResult:
        """Decode one batch of code blocks.

        Each input is either 1-D (single block) or 2-D ``(batch, block_size)``.
        Every row is decoded independently: batching (and per-packet early
        stopping) never changes a row's output.
        """
        dtype = self._siso.dtype
        sys_llrs = self._as_batch(systematic_llrs, dtype)
        par1 = self._as_batch(parity1_llrs, dtype)
        par2 = self._as_batch(parity2_llrs, dtype)
        batch, k = sys_llrs.shape

        perm = self.interleaver.permutation
        sys_interleaved = sys_llrs[:, perm]

        # Full-batch outputs; active-row work arrays are compacted as
        # packets converge.
        app_llrs = np.zeros((batch, k), dtype=dtype)
        converged = np.zeros(batch, dtype=bool)
        # Pre-iteration hard decisions: the reference the first iteration's
        # stability check compares against.
        previous_hard = sys_llrs < 0

        active = np.arange(batch)
        extrinsic12 = np.zeros((batch, k), dtype=dtype)  # from dec2 to dec1
        app1 = np.empty((batch, k), dtype=dtype)
        app2 = np.empty((batch, k), dtype=dtype)
        apriori1 = np.empty((batch, k), dtype=dtype)
        app_nat = np.empty((batch, k), dtype=dtype)
        iterations_run = 0

        sys_a, par1_a, par2_a, sys_i_a = sys_llrs, par1, par2, sys_interleaved
        prev_hard_a = previous_hard
        streak_a = np.zeros(batch, dtype=np.int64)

        for iteration in range(self.num_iterations):
            iterations_run = iteration + 1
            n = active.size

            # --- Decoder 1: natural order ---------------------------------
            ap1 = apriori1[:n]
            ap1[:, perm] = extrinsic12[:n]  # de-interleave extrinsic from dec2
            a1 = self._siso.siso(sys_a, par1_a, ap1, app1[:n])
            extrinsic1 = self.extrinsic_scale * (a1 - sys_a - ap1)

            # --- Decoder 2: interleaved order ------------------------------
            apriori2 = extrinsic1[:, perm]
            a2 = self._siso.siso(sys_i_a, par2_a, apriori2, app2[:n], terminated_start=True)
            extrinsic12[:n] = self.extrinsic_scale * (a2 - sys_i_a - apriori2)

            # A-posteriori LLRs in natural order: the decoder-2 output already
            # contains the systematic channel LLR plus both extrinsics (via its
            # a-priori input), so mapping it back is the complete APP.
            nat = app_nat[:n]
            nat[:, perm] = a2
            app_llrs[active] = nat

            hard = nat < 0
            stable = np.all(hard == prev_hard_a, axis=1)
            converged[active] = stable
            prev_hard_a = hard

            # Per-packet early stopping: freeze rows whose decisions were
            # stable across `stable_iterations` consecutive full turbo
            # iterations, or stable once with every APP magnitude above the
            # min-LLR threshold.  The iteration-1 comparison against the
            # channel decisions never counts, so the freeze point depends
            # only on the row's own trajectory.
            if iteration >= 1:
                streak_a = np.where(stable, streak_a + 1, 0)
                if self.early_stopping:
                    frozen = streak_a >= self.stable_iterations
                    if self.freeze_min_llr is not None:
                        confident = np.abs(nat).min(axis=1) >= self.freeze_min_llr
                        frozen |= stable & confident
                    if frozen.any():
                        keep = ~frozen
                        if not keep.any():
                            break
                        active = active[keep]
                        sys_a = sys_a[keep]
                        par1_a = par1_a[keep]
                        par2_a = par2_a[keep]
                        sys_i_a = sys_i_a[keep]
                        extrinsic12[: active.size] = extrinsic12[:n][keep]
                        prev_hard_a = prev_hard_a[keep]
                        streak_a = streak_a[keep]

        decoded = (app_llrs < 0).astype(np.int8)
        return TurboDecoderResult(
            decoded_bits=decoded,
            app_llrs=np.asarray(app_llrs, dtype=np.float64),
            iterations_run=iterations_run,
            converged=converged,
        )

    # ------------------------------------------------------------------ #
    def _as_batch(self, llrs: np.ndarray, dtype: np.dtype) -> np.ndarray:
        arr = np.asarray(llrs, dtype=dtype)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.block_size:
            raise ValueError(
                f"expected shape (batch, {self.block_size}), got {arr.shape}"
            )
        return np.ascontiguousarray(arr)
