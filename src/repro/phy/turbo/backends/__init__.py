"""Turbo-decoder backend registry with auto-detection.

Backends are selected by name:

``numpy`` / ``numpy-f32``
    The vectorised numpy kernel (float64 / float32).  ``numpy`` is the
    default everywhere and is bit-identical to the seed decoder.
``native`` / ``native-f32``
    The C-extension max-log-MAP kernel, if the compiled module was built
    (``python setup.py build_ext --inplace`` with a C compiler).
``auto``
    The fastest available family (``native`` > ``numpy``) at float64.

Any other token is rejected with ``unknown decoder backend``.  Requesting
``native`` where the extension was not built **falls back to numpy** at the
same dtype with a warning instead of failing — results stay correct, only
slower — so a config written on a machine with the extension still runs
anywhere.

:func:`resolve_backend` reduces any of these names to the
:class:`~repro.phy.turbo.backends.base.BackendSpec` that will actually run,
which is what result caches must key on (see
:func:`repro.runner.cache.decoder_backend_identity`).

Exactness contract (pinned by the conformance tests): ``numpy`` is the
bit-exact golden reference (``exact=True``); ``native`` (``exact=False``)
evaluates the same max-log equations in a different operation order and is
held to decision-level agreement plus a BLER-delta tolerance instead.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, Union

from repro.phy.turbo.backends.base import NEG_INF, BackendSpec, SisoBackend
from repro.phy.turbo.backends.numpy_backend import NumpySisoBackend
from repro.phy.turbo.trellis import RscTrellis

#: The backend used when nothing is requested — must stay deterministic and
#: dependency-free, because the golden-seed suite pins its exact output.
DEFAULT_BACKEND = "numpy"

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
        Whether the family is bit-identical to the numpy/float64 reference
        at float64 (max-log families with reordered float arithmetic are
        tolerance-gated instead).
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
    "native": FamilyInfo(_make_native, _probe_native, exact=False),
}

#: Memoised probe results — probes import modules, which is not free, and
#: the answer cannot change within one process.
_PROBE_CACHE: Dict[str, Tuple[bool, str]] = {}


def _probe(family: str) -> Tuple[bool, str]:
    cached = _PROBE_CACHE.get(family)
    if cached is None:
        cached = _FAMILIES[family].probe()
        _PROBE_CACHE[family] = cached
    return cached


def backend_names() -> Tuple[str, ...]:
    """Every selectable backend token, including ``auto``."""
    names = ["auto"]
    for family in _FAMILIES:
        names.append(family)
        names.append(f"{family}-f32")
    return tuple(names)


def available_backends() -> Tuple[str, ...]:
    """Backend tokens whose family is importable on this machine."""
    names = []
    for family in _FAMILIES:
        if _probe(family)[0]:
            names.append(family)
            names.append(f"{family}-f32")
    return tuple(names)


def family_listing() -> List[Dict[str, object]]:
    """Availability report of every family, for ``repro backends ls``."""
    listing: List[Dict[str, object]] = []
    for family, info in _FAMILIES.items():
        ok, reason = _probe(family)
        listing.append(
            {
                "family": family,
                "tokens": [family, f"{family}-f32"],
                "available": ok,
                "reason": reason,
                "exact": info.exact,
                "default": family == DEFAULT_BACKEND,
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

    ``auto`` picks the fastest available family (native > numpy); an
    unbuilt ``native`` degrades to numpy at the same dtype (with a
    warning), so a config written on a machine with the extension still
    runs — and is cached under the backend that *really* produced the
    numbers.
    """
    spec = parse_backend_name(name) if isinstance(name, str) else name
    if spec.family == "auto":
        family = next((f for f in AUTO_PREFERENCE if _probe(f)[0]), "numpy")
        spec = BackendSpec(family, spec.dtype_name)
    elif not _probe(spec.family)[0]:
        if warn:
            warnings.warn(
                f"decoder backend {spec.name!r} is not available "
                f"({_probe(spec.family)[1]}); falling back to numpy",
                RuntimeWarning,
                stacklevel=2,
            )
        spec = BackendSpec("numpy", spec.dtype_name)
    return spec


def backend_is_exact(spec_or_name: Union[str, BackendSpec]) -> bool:
    """Whether the (resolved) backend is bit-exact at float64 against the
    numpy reference (as opposed to tolerance-gated max-log parity)."""
    spec = resolve_backend(spec_or_name, warn=False)
    return _FAMILIES[spec.family].exact


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
    "available_backends",
    "backend_is_exact",
    "backend_names",
    "create_backend",
    "family_listing",
    "parse_backend_name",
    "resolve_backend",
]
