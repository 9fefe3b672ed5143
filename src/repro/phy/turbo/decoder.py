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

Inside the decoder everything is *step-major*: ``(block_size, batch)``, one
trellis step per row and one packet per column, so every kernel loop runs
contiguously over the batch.  :meth:`TurboDecoder.decode` transposes its
three inputs once on entry and its APPs once on exit (the result keeps the
``(batch, block_size)`` API); in between, each iteration works on
contiguous ``(block_size, n)`` views of three preallocated pools,
interleaving is a row gather (``np.take(..., axis=0, out=...)``) and both
backends read and write these arrays in place.

Early stopping is *per packet*: once a packet's hard decisions are stable
over a full iteration its result is frozen and its column leaves the active
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
        # Interleaving is a row gather in the step-major layout: row i of the
        # interleaved block is row perm[i] of the natural one, and back.
        self._perm = self.interleaver.permutation.astype(np.intp)
        self._inverse = np.argsort(self._perm)
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

        Each input is a ``(batch, block_size)`` matrix, one block per row.
        Every row is decoded independently: batching (and per-packet early
        stopping) never changes a row's output.
        """
        dtype = self._siso.dtype
        sys_a = self._step_major(systematic_llrs, dtype)
        par1_a = self._step_major(parity1_llrs, dtype)
        par2_a = self._step_major(parity2_llrs, dtype)
        k, batch = sys_a.shape
        perm, inverse = self._perm, self._inverse
        scale = self.extrinsic_scale
        sys_i_a = sys_a.take(perm, axis=0)

        # Full-batch outputs, step-major; a packet's column is written when
        # it freezes or after the last iteration.
        app_llrs = np.empty((k, batch), dtype=dtype)
        converged = np.zeros(batch, dtype=bool)
        # Three flat pools the per-iteration (k, n) work arrays are carved
        # from; pool 2 carries the extrinsic from decoder 2 to decoder 1
        # across iterations.
        pools = np.empty((3, k * batch), dtype=dtype)
        extrinsic21 = pools[2].reshape(k, batch)
        extrinsic21.fill(0.0)
        # Pre-iteration hard decisions: the reference the first iteration's
        # stability check compares against.
        prev_hard = sys_a < 0
        active = np.arange(batch)
        streak = np.zeros(batch, dtype=np.int64)
        iterations_run = 0

        for iteration in range(self.num_iterations):
            iterations_run = iteration + 1
            last = iterations_run == self.num_iterations
            n = active.size
            apriori = pools[0, : k * n].reshape(k, n)
            app = pools[1, : k * n].reshape(k, n)

            # --- Decoder 1: natural order ---------------------------------
            extrinsic21.take(inverse, axis=0, out=apriori)  # de-interleave
            self._siso.siso(sys_a, par1_a, apriori, app)
            # extrinsic = scale * ((app - sys) - apriori), in place in `app`.
            np.subtract(app, sys_a, out=app)
            app -= apriori
            app *= scale

            # --- Decoder 2: interleaved order ------------------------------
            app.take(perm, axis=0, out=apriori)  # interleave
            self._siso.siso(sys_i_a, par2_a, apriori, extrinsic21, terminated_start=True)
            # A-posteriori LLRs in natural order: the decoder-2 output already
            # contains the systematic channel LLR plus both extrinsics (via its
            # a-priori input), so mapping it back is the complete APP.
            nat = extrinsic21.take(inverse, axis=0, out=app)
            np.subtract(extrinsic21, sys_i_a, out=extrinsic21)
            extrinsic21 -= apriori
            extrinsic21 *= scale

            hard = nat < 0
            stable = (hard == prev_hard).all(axis=0)
            prev_hard = hard
            if last:
                app_llrs[:, active] = nat
                converged[active] = stable
                break

            # Per-packet early stopping: freeze columns whose decisions were
            # stable across `stable_iterations` consecutive full turbo
            # iterations, or stable once with every APP magnitude above the
            # min-LLR threshold.  The iteration-1 comparison against the
            # channel decisions never counts, so the freeze point depends
            # only on the packet's own trajectory.
            if iteration >= 1:
                streak = np.where(stable, streak + 1, 0)
                if self.early_stopping:
                    frozen = streak >= self.stable_iterations
                    if self.freeze_min_llr is not None:
                        confident = np.abs(nat).min(axis=0) >= self.freeze_min_llr
                        frozen |= stable & confident
                    if frozen.any():
                        done = active[frozen]
                        app_llrs[:, done] = nat[:, frozen]
                        converged[done] = stable[frozen]
                        keep = np.flatnonzero(~frozen)
                        if not keep.size:
                            break
                        active = active[keep]
                        streak = streak[keep]
                        # Column gathers: `take` returns C-contiguous copies.
                        sys_a = sys_a.take(keep, axis=1)
                        par1_a = par1_a.take(keep, axis=1)
                        par2_a = par2_a.take(keep, axis=1)
                        sys_i_a = sys_i_a.take(keep, axis=1)
                        prev_hard = prev_hard.take(keep, axis=1)
                        kept = extrinsic21.take(keep, axis=1)
                        extrinsic21 = pools[2, : kept.size].reshape(kept.shape)
                        extrinsic21[...] = kept

        app_out = np.ascontiguousarray(app_llrs.T, dtype=np.float64)
        return TurboDecoderResult(
            decoded_bits=(app_out < 0).astype(np.int8),
            app_llrs=app_out,
            iterations_run=iterations_run,
            converged=converged,
        )

    # ------------------------------------------------------------------ #
    def _step_major(self, llrs: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """A ``(batch, block_size)`` input as a contiguous ``(block_size, batch)`` copy."""
        arr = np.asarray(llrs)
        if arr.ndim != 2 or arr.shape[1] != self.block_size:
            raise ValueError(
                f"expected shape (batch, {self.block_size}), got {arr.shape}"
            )
        return np.ascontiguousarray(arr.T, dtype=dtype)
