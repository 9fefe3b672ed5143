"""The native (C) SISO kernel, compiled on first use.

``sisokernel.c`` (with ``sisokernel_impl.h``) is compiled by the
interpreter's C compiler — ``$CC`` if set, else ``sysconfig``'s ``CC`` —
the first time a process asks for it.  The module lands in a
content-addressed cache entry::

    ${XDG_CACHE_HOME:-~/.cache}/repro/native/<sha256 of sources, flags, EXT_SUFFIX>/

so every later process (and every checkout of the same sources) loads it
without compiling.  A build is published atomically — written to a temporary
file in the entry directory, then ``os.replace``-d into place — and recorded
by the sha256 of its bytes, so two processes building at once both end with
a complete module, and a truncated or otherwise damaged binary is rebuilt
instead of loaded.  Any failure (no compiler, unwritable cache, a module
that does not import) leaves the family unavailable with the reason, which
``repro backends ls`` shows; the registry then falls back to numpy.

The kernel reads and writes the decoder's step-major ``(block_size,
batch)`` arrays in place.  On x86-64 compilers with ``target_clones``, the
source marks each kernel for an AVX2 and a baseline clone, and the dynamic
loader picks the one the CPU supports; the flags below stay the same for
both, so both clones are exact (see ``sisokernel.c``).
"""

from __future__ import annotations

import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile
import threading
from importlib.machinery import ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path
from typing import Dict, Optional, Tuple

HERE = Path(__file__).resolve().parent

#: Every file the module is built from; their bytes key the cache entry.
SOURCES = ("sisokernel.c", "sisokernel_impl.h")

#: Compiler flags.  ``-ffp-contract=off`` forbids fused multiply-adds, which
#: would round differently from the numpy kernel and break exactness; it
#: holds in every ``target_clones`` clone.
CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")

#: Import name of the extension (its ``PyInit__sisokernel`` entry point).
MODULE_NAME = "repro.phy.turbo.backends._native._sisokernel"

#: Seconds a build may take before it is abandoned (numpy is used instead).
BUILD_TIMEOUT_S = 300

_EXT_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX") or ".so"

#: Load results by cache entry: the answer cannot change within one process.
#: The lock makes threads that need the kernel at once share one build.
_LOADED: Dict[Path, Tuple[Optional[object], str]] = {}
_LOADED_LOCK = threading.Lock()


def cache_entry() -> Path:
    """The cache directory of the current sources, flags and interpreter ABI."""
    digest = hashlib.sha256()
    for name in SOURCES:
        digest.update(name.encode() + b"\0" + (HERE / name).read_bytes() + b"\0")
    digest.update(" ".join(CFLAGS).encode() + b"\0" + _EXT_SUFFIX.encode())
    root = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return Path(root) / "repro" / "native" / digest.hexdigest()


def load_kernel_module() -> Tuple[Optional[object], str]:
    """The compiled kernel, building it if needed: ``(module_or_None, reason)``.

    The reason string feeds ``repro backends ls`` so operators can see *why*
    the family is (un)available on a given machine.
    """
    try:
        entry = cache_entry()
    except OSError as exc:
        return None, f"native kernel sources unreadable: {exc}"
    with _LOADED_LOCK:
        if entry not in _LOADED:
            _LOADED[entry] = _load(entry)
        return _LOADED[entry]


def _load(entry: Path) -> Tuple[Optional[object], str]:
    binary = entry / f"_sisokernel{_EXT_SUFFIX}"
    stamp = entry / "_sisokernel.sha256"
    origin = "loaded from the cache"
    if not _intact(binary, stamp):
        origin = "compiled on first use"
        try:
            _build(entry, binary, stamp)
        except subprocess.CalledProcessError as exc:
            detail = (exc.stderr or b"").decode(errors="replace").strip().splitlines()
            return None, (
                f"C compiler failed (`{shlex.join(exc.cmd[:1])}`, exit status "
                f"{exc.returncode}){': ' + detail[-1] if detail else ''}"
            )
        except (OSError, subprocess.SubprocessError) as exc:
            return None, f"cannot build the native kernel in {entry}: {exc}"
    try:
        loader = ExtensionFileLoader(MODULE_NAME, str(binary))
        module = module_from_spec(spec_from_file_location(MODULE_NAME, binary, loader=loader))
        loader.exec_module(module)
    except (ImportError, OSError) as exc:
        return None, f"compiled kernel {binary} does not import: {exc}"
    return module, f"C kernel {origin}: {binary}"


def _intact(binary: Path, stamp: Path) -> bool:
    """Whether *binary* holds exactly the bytes its build recorded in *stamp*."""
    try:
        return hashlib.sha256(binary.read_bytes()).hexdigest() == stamp.read_text().strip()
    except OSError:
        return False


def _build(entry: Path, binary: Path, stamp: Path) -> None:
    """Compile into a temporary file in *entry*, then publish it atomically."""
    compiler = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")
    include = sysconfig.get_paths()["include"]
    entry.mkdir(parents=True, exist_ok=True)
    scratch = []
    try:
        fd, tmp_binary = tempfile.mkstemp(dir=entry, prefix=".build-", suffix=_EXT_SUFFIX)
        os.close(fd)
        scratch.append(tmp_binary)
        subprocess.run(
            [*compiler, *CFLAGS, f"-I{include}", str(HERE / "sisokernel.c"), "-o", tmp_binary],
            check=True,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=BUILD_TIMEOUT_S,
        )
        checksum = hashlib.sha256(Path(tmp_binary).read_bytes()).hexdigest()
        fd, tmp_stamp = tempfile.mkstemp(dir=entry, prefix=".stamp-")
        scratch.append(tmp_stamp)
        with os.fdopen(fd, "w") as handle:
            handle.write(checksum + "\n")
        os.replace(tmp_binary, binary)
        os.replace(tmp_stamp, stamp)
    finally:
        for name in scratch:
            try:
                os.unlink(name)
            except FileNotFoundError:
                pass
