"""Turbo-decoder backend registry with auto-detection.

Backends are selected by name:

``numpy`` / ``numpy-f32``
    The vectorised numpy kernel (float64 / float32).  Needs nothing but
    numpy, so it is the fallback everywhere.
``native`` / ``native-f32``
    The C max-log-MAP kernel, compiled with the machine's C compiler on
    first use and cached (see :mod:`repro.phy.turbo.backends._native`).
``auto``
    The fastest available family (``native`` > ``numpy``) at float64.  This
    is the default.

Any other token is rejected with ``unknown decoder backend``.  Requesting
``native`` where the kernel cannot be built **falls back to numpy** at the
same dtype with a warning instead of failing — results stay the same, only
slower — so a config written on one machine runs anywhere.

:func:`resolve_backend` reduces any of these names to the
:class:`~repro.phy.turbo.backends.base.BackendSpec` that will actually run;
:func:`identity_spec` reduces it to the spec results are filed under (see
:func:`repro.runner.cache.decoder_backend_identity`).

Exactness contract (pinned by the conformance tests): both families are
exact (``exact=True``) — at either dtype, ``native`` performs every float
operation of the numpy kernel on the same operands in the same order, so
its output is bit-identical to ``numpy``'s.  An exact family therefore
never enters a run identity, ``config`` string or point-store digest: it is
filed as ``numpy`` at its dtype, and the two share cache entries and golden
bytes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, Union

from repro.phy.turbo.backends.base import NEG_INF, BackendSpec, SisoBackend
from repro.phy.turbo.backends.numpy_backend import NumpySisoBackend
from repro.phy.turbo.trellis import RscTrellis

#: The backend used when nothing is requested.  Every family is exact, so the
#: golden-seed suite pins the same bytes whichever family ``auto`` picks.
DEFAULT_BACKEND = "auto"

#: ``auto`` preference order (first available wins).
AUTO_PREFERENCE = ("native", "numpy")


@dataclass(frozen=True)
class FamilyInfo:
    """Registry record of one backend family.

    Attributes
    ----------
    factory:
        ``factory(trellis, block_size, spec) -> SisoBackend``.
    probe:
        ``() -> (available, reason)``; the reason string is surfaced by
        ``repro backends ls`` so operators can audit heterogeneous fleets.
    exact:
        Whether the family is bit-identical to the numpy kernel at the same
        dtype (a family with reordered float arithmetic would be
        tolerance-gated instead, and filed under its own identity).
    """

    factory: Callable[[RscTrellis, int, BackendSpec], SisoBackend]
    probe: Callable[[], Tuple[bool, str]]
    exact: bool = True


def _probe_numpy() -> Tuple[bool, str]:
    return True, "always available (pure-numpy reference kernel)"


def _probe_native() -> Tuple[bool, str]:
    from repro.phy.turbo.backends._native import load_kernel_module

    kernel, reason = load_kernel_module()
    return kernel is not None, reason


def _make_native(trellis: RscTrellis, block_size: int, spec: BackendSpec) -> SisoBackend:
    from repro.phy.turbo.backends.native_backend import NativeSisoBackend

    return NativeSisoBackend(trellis, block_size, spec)


_FAMILIES: Dict[str, FamilyInfo] = {
    "numpy": FamilyInfo(NumpySisoBackend, _probe_numpy, exact=True),
    "native": FamilyInfo(_make_native, _probe_native, exact=True),
}


def backend_names() -> Tuple[str, ...]:
    """Every selectable backend token, including ``auto``."""
    names = ["auto"]
    for family in _FAMILIES:
        names.append(family)
        names.append(f"{family}-f32")
    return tuple(names)


def family_listing() -> List[Dict[str, object]]:
    """Availability report of every family, for ``repro backends ls``."""
    default_family = resolve_backend(DEFAULT_BACKEND, warn=False).family
    listing: List[Dict[str, object]] = []
    for family, info in _FAMILIES.items():
        ok, reason = _FAMILIES[family].probe()
        listing.append(
            {
                "family": family,
                "tokens": [family, f"{family}-f32"],
                "available": ok,
                "reason": reason,
                "exact": info.exact,
                "default": family == default_family,
            }
        )
    return listing


def parse_backend_name(name: str) -> BackendSpec:
    """Split a backend token into (family, dtype); no availability checks."""
    token = str(name).strip().lower()
    if token == "auto":
        family, dtype_name = "auto", "float64"
    elif token.endswith("-f32"):
        family, dtype_name = token[: -len("-f32")], "float32"
    elif token.endswith("-f64"):
        family, dtype_name = token[: -len("-f64")], "float64"
    else:
        family, dtype_name = token, "float64"
    if family != "auto" and family not in _FAMILIES:
        raise ValueError(
            f"unknown decoder backend {name!r}; choose from {sorted(backend_names())}"
        )
    return BackendSpec(family, dtype_name)


def resolve_backend(name: Union[str, BackendSpec], *, warn: bool = True) -> BackendSpec:
    """Reduce a requested backend to the spec that will actually run.

    ``auto`` picks the fastest available family (native > numpy); a
    ``native`` that cannot be built degrades to numpy at the same dtype
    (with a warning), so a config written on a machine with a C compiler
    still runs everywhere.
    """
    spec = parse_backend_name(name) if isinstance(name, str) else name
    if spec.family == "auto":
        family = next((f for f in AUTO_PREFERENCE if _FAMILIES[f].probe()[0]), "numpy")
        return BackendSpec(family, spec.dtype_name)
    available, reason = _FAMILIES[spec.family].probe()
    if not available:
        if warn:
            warnings.warn(
                f"decoder backend {spec.name!r} is not available "
                f"({reason}); falling back to numpy",
                RuntimeWarning,
                stacklevel=2,
            )
        spec = BackendSpec("numpy", spec.dtype_name)
    return spec


def identity_spec(spec_or_name: Union[str, BackendSpec]) -> BackendSpec:
    """The backend a result of *spec_or_name* is filed under.

    That is the backend that will actually run, except that an exact family
    is filed as ``numpy`` at its dtype: its output is bit-identical, so it
    must share numpy's cache entries, point digests and ``config`` strings.
    """
    spec = resolve_backend(spec_or_name, warn=False)
    if _FAMILIES[spec.family].exact:
        return BackendSpec("numpy", spec.dtype_name)
    return spec


def create_backend(
    name: Union[str, BackendSpec, SisoBackend],
    trellis: RscTrellis,
    block_size: int,
) -> SisoBackend:
    """Instantiate the (resolved) backend for one constituent decoder."""
    if isinstance(name, SisoBackend):
        return name
    spec = resolve_backend(name)
    return _FAMILIES[spec.family].factory(trellis, block_size, spec)


__all__ = [
    "AUTO_PREFERENCE",
    "BackendSpec",
    "DEFAULT_BACKEND",
    "FamilyInfo",
    "NEG_INF",
    "NumpySisoBackend",
    "SisoBackend",
    "backend_names",
    "create_backend",
    "family_listing",
    "identity_spec",
    "parse_backend_name",
    "resolve_backend",
]
