"""Decoder-backend abstraction for the max-log-MAP SISO kernel.

A *backend* owns the hot inner loop of turbo decoding — the forward/backward
(BCJR) recursion of one soft-in/soft-out constituent decoder — while the
iteration control (extrinsic exchange, interleaving, early stopping) stays in
:class:`repro.phy.turbo.decoder.TurboDecoder`.  This split keeps every
backend trivially exchangeable: two backends that implement the same
``siso`` contract produce the same decoder, differing only in speed and
floating-point precision.

Backends are identified by a :class:`BackendSpec` — an implementation family
(``numpy`` or ``native``) plus a compute dtype — so result
caches can key on exactly what produced a number.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.phy.turbo.trellis import RscTrellis

#: Log-domain "impossible state" metric shared by all backends.
NEG_INF = -1e30


@dataclass(frozen=True)
class BackendSpec:
    """Identity of a decoder backend: implementation family plus dtype.

    Attributes
    ----------
    family:
        Implementation family (``"numpy"`` or ``"native"``).
    dtype_name:
        Compute dtype (``"float64"`` or ``"float32"``).
    """

    family: str
    dtype_name: str

    @property
    def name(self) -> str:
        """Canonical user-facing token (``numpy``, ``numpy-f32``, ...)."""
        if self.dtype_name == "float64":
            return self.family
        return f"{self.family}-f32"

    @property
    def dtype(self) -> np.dtype:
        """The numpy dtype state metrics and LLRs are computed in."""
        return np.dtype(self.dtype_name)


class SisoBackend(ABC):
    """One constituent-code soft-in/soft-out max-log-MAP decoder kernel.

    Parameters
    ----------
    trellis:
        Constituent RSC trellis (tables are precomputed per instance).
    block_size:
        Number of information bits per code block.
    spec:
        The backend's identity (family + dtype).

    Implementations may keep internal scratch buffers between calls; a
    backend instance is therefore *not* safe for concurrent use from
    multiple threads, matching how a decoder drives it (one call at a time).
    """

    def __init__(self, trellis: RscTrellis, block_size: int, spec: BackendSpec) -> None:
        self.trellis = trellis
        self.block_size = int(block_size)
        self.spec = spec

    @property
    def dtype(self) -> np.dtype:
        """Compute dtype of this backend instance."""
        return self.spec.dtype

    def siso(
        self,
        sys_llrs: np.ndarray,
        par_llrs: np.ndarray,
        apriori_llrs: np.ndarray,
        out: np.ndarray,
        *,
        terminated_start: bool = True,
    ) -> np.ndarray:
        """Write a-posteriori information-bit LLRs for one half-iteration.

        All four arrays are C-contiguous, step-major ``(block_size, batch)``
        (one trellis step per row, one packet per column) and of the
        backend's dtype; *out* receives the APP LLRs and is returned.
        Columns are decoded independently: the result of any column never
        depends on which other columns share the batch (the property that
        makes cross-work-item batch aggregation and per-packet early
        stopping exact).
        """
        arrays = (sys_llrs, par_llrs, apriori_llrs, out)
        shape = sys_llrs.shape
        if len(shape) != 2 or shape[0] != self.block_size or any(
            a.shape != shape or a.dtype != self.dtype or not a.flags.c_contiguous
            for a in arrays
        ):
            raise ValueError(
                f"expected C-contiguous {self.dtype} arrays of one shape "
                f"({self.block_size}, batch), got "
                + ", ".join(f"{a.dtype} {a.shape}" for a in arrays)
            )
        self._half_iteration(sys_llrs, par_llrs, apriori_llrs, out, bool(terminated_start))
        return out

    @abstractmethod
    def _half_iteration(
        self,
        sys_llrs: np.ndarray,
        par_llrs: np.ndarray,
        apriori_llrs: np.ndarray,
        out: np.ndarray,
        terminated_start: bool,
    ) -> None:
        """Run the kernel on arrays :meth:`siso` has checked."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.spec.name!r}, K={self.block_size})"
