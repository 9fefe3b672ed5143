"""Python wrapper around the native (C) max-log-MAP SISO kernel.

The compiled kernel (:mod:`repro.phy.turbo.backends._native`, built on
first use) runs the forward/backward recursion over the columns of a
step-major ``(block_size, batch)`` layout with the GIL released.  That is
the decoder's own layout, so the kernel reads and writes the decoder's
arrays in place: this wrapper only owns the flat trellis tables (the same
plane-major layout as the numpy backend, converted to the kernel's dtype
once per instance).

The kernel is compiled for the 8-state UMTS constituent code (the only
trellis the link uses); an instance for any other trellis is refused.

Exactness contract: ``native`` is exact.  It computes each branch metric
per step instead of gathering it from a shared table, but every add and
multiply takes the numpy kernel's operands in the numpy kernel's order,
every max over states runs in the numpy kernel's state order, and the
kernel is compiled with ``-ffp-contract=off`` so no multiply-add is
fused — in the AVX2 clone of the kernel as in the baseline one.  Its APP
LLRs are therefore bit-identical to the numpy backend's at the same dtype,
signed zeros included — pinned with ``array_equal`` by
``tests/test_decoder_backends.py`` for the clone the test machine's CPU
dispatches to (the other clone is built but not exercised there).
"""

from __future__ import annotations

import numpy as np

from repro.phy.turbo.backends._native import load_kernel_module
from repro.phy.turbo.backends.base import BackendSpec, SisoBackend
from repro.phy.turbo.trellis import RscTrellis


class NativeSisoBackend(SisoBackend):
    """Native (C) max-log-MAP kernel over the whole batch in one call."""

    def __init__(
        self,
        trellis: RscTrellis,
        block_size: int,
        spec: BackendSpec = BackendSpec("native", "float32"),
    ) -> None:
        super().__init__(trellis, block_size, spec)
        kernel, reason = load_kernel_module()
        if kernel is None:
            raise RuntimeError(f"native decoder backend unavailable: {reason}")
        num_states = trellis.num_states
        if num_states != kernel.STATES:
            raise ValueError(
                f"the native kernel is built for {kernel.STATES}-state trellises, "
                f"got {num_states} states; use the numpy backend"
            )
        self._kernel = kernel
        dtype = self.dtype

        parity_sign = 1.0 - 2.0 * trellis.parity.astype(np.float64)  # (S, 2)
        input_sign = np.array([1.0, -1.0])
        prev_state = trellis.prev_state  # (S, 2)
        prev_input = trellis.prev_input  # (S, 2)

        # Flat plane-major tables, exactly as in the numpy backend: forward
        # row j * S + s' is the branch from predecessor slot j into state
        # s'; backward row u * S + s is the branch leaving s with input u.
        self._prev_flat = np.ascontiguousarray(
            prev_state.T.reshape(-1), dtype=np.int32
        )
        self._next_flat = np.ascontiguousarray(
            trellis.next_state.T.reshape(-1), dtype=np.int32
        )
        in_sign_bwd = np.repeat(input_sign, num_states)
        par_sign_bwd = parity_sign.T.reshape(-1)
        fwd_from_bwd = (prev_input.T * num_states + prev_state.T).reshape(-1)
        self._in_sign_fwd = np.ascontiguousarray(
            in_sign_bwd[fwd_from_bwd], dtype=dtype
        )
        self._par_sign_fwd = np.ascontiguousarray(
            par_sign_bwd[fwd_from_bwd], dtype=dtype
        )
        self._par_sign_bwd = np.ascontiguousarray(par_sign_bwd, dtype=dtype)
        self._num_states = num_states
        self._is_double = dtype == np.dtype("float64")

    # ------------------------------------------------------------------ #
    def _half_iteration(
        self,
        sys_llrs: np.ndarray,
        par_llrs: np.ndarray,
        apriori_llrs: np.ndarray,
        out: np.ndarray,
        terminated_start: bool,
    ) -> None:
        k, batch = sys_llrs.shape
        self._kernel.siso(
            sys_llrs,
            par_llrs,
            apriori_llrs,
            out,
            self._prev_flat,
            self._in_sign_fwd,
            self._par_sign_fwd,
            self._next_flat,
            self._par_sign_bwd,
            k,
            batch,
            self._num_states,
            terminated_start,
            self._is_double,
        )
