"""Python wrapper around the native (C) max-log-MAP SISO kernel.

The compiled kernel (:mod:`repro.phy.turbo.backends._native`, built on
first use) runs the forward/backward recursion over the columns of a
step-major ``(block_size, batch)`` layout with the GIL released.  This wrapper owns

* the flat trellis tables (the same plane-major layout as the numpy
  backend, converted to the kernel's dtype once per instance), and
* transposed scratch buffers — the decoder hands over ``(batch, block)``
  arrays, the kernel wants contiguous step-major planes so its inner loops
  run over the batch.

Exactness contract: ``native`` is exact.  It computes each branch metric
per step instead of gathering it from a shared table, but every add and
multiply takes the numpy kernel's operands in the numpy kernel's order, and
the kernel is compiled with ``-ffp-contract=off`` so no multiply-add is
fused.  Its APP LLRs are therefore bit-identical to the numpy backend's at
the same dtype, signed zeros included — pinned with ``array_equal`` by
``tests/test_decoder_backends.py``.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.phy.turbo.backends._native import load_kernel_module
from repro.phy.turbo.backends.base import BackendSpec, SisoBackend
from repro.phy.turbo.trellis import RscTrellis

class _Workspace:
    """Step-major transposed scratch for one block size (grown on demand)."""

    def __init__(self, capacity: int, k: int, dtype: np.dtype) -> None:
        self.capacity = capacity
        self.sys_t = np.empty((k, capacity), dtype=dtype)
        self.par_t = np.empty((k, capacity), dtype=dtype)
        self.ap_t = np.empty((k, capacity), dtype=dtype)
        self.app_t = np.empty((k, capacity), dtype=dtype)


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
        self._kernel = kernel
        dtype = self.dtype
        num_states = trellis.num_states

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
        self._workspaces: Dict[int, _Workspace] = {}

    # ------------------------------------------------------------------ #
    def _workspace(self, batch: int, k: int) -> _Workspace:
        ws = self._workspaces.get(k)
        if ws is None or ws.capacity < batch:
            capacity = batch if ws is None else max(batch, 2 * ws.capacity)
            ws = _Workspace(capacity, k, self.dtype)
            self._workspaces[k] = ws
        return ws

    # ------------------------------------------------------------------ #
    def siso(
        self,
        sys_llrs: np.ndarray,
        par_llrs: np.ndarray,
        apriori_llrs: np.ndarray,
        out: np.ndarray,
        *,
        terminated_start: bool = True,
    ) -> np.ndarray:
        batch, k = sys_llrs.shape
        ws = self._workspace(batch, k)
        sys_t = ws.sys_t[:, :batch]
        par_t = ws.par_t[:, :batch]
        ap_t = ws.ap_t[:, :batch]
        app_t = ws.app_t[:, :batch]
        np.copyto(sys_t, sys_llrs.T)
        np.copyto(par_t, par_llrs.T)
        np.copyto(ap_t, apriori_llrs.T)

        # The scratch views are only contiguous when the batch fills the
        # workspace; hand the kernel the *backing* buffers plus the true
        # column stride (= capacity) and decode columns [0, batch) of them
        # instead of copying again.
        self._kernel.siso(
            ws.sys_t,
            ws.par_t,
            ws.ap_t,
            ws.app_t,
            self._prev_flat,
            self._in_sign_fwd,
            self._par_sign_fwd,
            self._next_flat,
            self._par_sign_bwd,
            ws.capacity,
            k,
            self._num_states,
            bool(terminated_start),
            0,
            batch,
            self._is_double,
        )
        np.copyto(out, app_t.T)
        return out
