"""The native kernel's first-use build and its cache fail closed.

Every test points ``XDG_CACHE_HOME`` at its own temporary directory, so the
cache entry it sees is empty (or exactly what the test put there), and sets
``CC`` to control the compiler.  ``CC=false`` is a compiler that always
fails: a test that passes with it proves nothing was compiled.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.phy.turbo import backends
from repro.phy.turbo.backends import _native
from repro.phy.turbo.backends._native import cache_entry, load_kernel_module

SRC = Path(__file__).resolve().parent.parent / "src"


def _binary(entry: Path) -> Path:
    return entry / f"_sisokernel{_native._EXT_SUFFIX}"


def _intact(entry: Path) -> bool:
    digest = hashlib.sha256(_binary(entry).read_bytes()).hexdigest()
    return digest == (entry / "_sisokernel.sha256").read_text().strip()


@pytest.fixture(scope="module")
def built_entry(tmp_path_factory):
    """One cache entry built with the real compiler, to copy from."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-built")))
        module, reason = load_kernel_module()
        entry = cache_entry()
    if module is None:
        pytest.skip(f"no working C compiler here: {reason}")
    return entry


@pytest.fixture
def cache_home(tmp_path, monkeypatch):
    """A fresh, empty cache root; load results are memoised per entry, so
    this test sees only its own."""
    root = tmp_path / "xdg"
    monkeypatch.setenv("XDG_CACHE_HOME", str(root))
    return root


def _seed(cache_home: Path, built_entry: Path) -> Path:
    """Copy the built entry into *cache_home*; returns the entry path."""
    entry = cache_entry()
    assert entry.is_relative_to(cache_home)
    shutil.copytree(built_entry, entry)
    return entry


def test_entry_lives_under_the_cache_root(cache_home):
    entry = cache_entry()
    assert entry.parent == cache_home / "repro" / "native"
    assert len(entry.name) == 64


def test_warm_cache_loads_without_the_compiler(cache_home, built_entry, monkeypatch):
    entry = _seed(cache_home, built_entry)
    monkeypatch.setenv("CC", "false")
    module, reason = load_kernel_module()
    assert module is not None, reason
    assert "loaded from the cache" in reason
    assert hasattr(module, "siso")
    assert _intact(entry)


def test_failing_compiler_leaves_native_unavailable(cache_home, monkeypatch):
    monkeypatch.setenv("CC", "false")
    module, reason = load_kernel_module()
    assert module is None
    assert "C compiler failed" in reason and "false" in reason
    assert not _binary(cache_entry()).exists()
    listing = {entry["family"]: entry for entry in backends.family_listing()}
    assert listing["native"]["available"] is False
    assert listing["native"]["reason"] == reason
    assert listing["numpy"]["default"] is True
    assert backends.resolve_backend("auto") == backends.BackendSpec("numpy", "float64")


def test_missing_compiler_leaves_native_unavailable(cache_home, monkeypatch):
    monkeypatch.setenv("CC", str(cache_home / "no-such-compiler"))
    module, reason = load_kernel_module()
    assert module is None
    assert "cannot build the native kernel" in reason


def test_truncated_binary_is_never_loaded(cache_home, built_entry, monkeypatch):
    entry = _seed(cache_home, built_entry)
    binary = _binary(entry)
    binary.write_bytes(binary.read_bytes()[: binary.stat().st_size // 2])
    # With no compiler to rebuild it, the damaged file must be refused
    # before it is opened: loading it could crash the interpreter.
    monkeypatch.setenv("CC", "false")
    module, reason = load_kernel_module()
    assert module is None
    assert "C compiler failed" in reason


def test_truncated_binary_is_rebuilt(cache_home, built_entry):
    entry = _seed(cache_home, built_entry)
    binary = _binary(entry)
    binary.write_bytes(binary.read_bytes()[:100])
    module, reason = load_kernel_module()
    assert module is not None, reason
    assert "compiled on first use" in reason
    assert _intact(entry)


def test_missing_stamp_forces_a_rebuild(cache_home, built_entry):
    entry = _seed(cache_home, built_entry)
    (entry / "_sisokernel.sha256").unlink()
    module, reason = load_kernel_module()
    assert module is not None, reason
    assert "compiled on first use" in reason
    assert _intact(entry)


def test_changed_source_gets_a_new_entry(cache_home, built_entry, tmp_path, monkeypatch):
    old_entry = _seed(cache_home, built_entry)
    sources = tmp_path / "sources"
    shutil.copytree(_native.HERE, sources, ignore=shutil.ignore_patterns("__pycache__"))
    kernel = sources / "sisokernel.c"
    kernel.write_text(kernel.read_text() + "\n/* edited */\n")
    monkeypatch.setattr(_native, "HERE", sources)
    new_entry = cache_entry()
    assert new_entry != old_entry and new_entry.parent == old_entry.parent
    module, reason = load_kernel_module()
    assert module is not None, reason
    assert "compiled on first use" in reason
    assert _intact(new_entry) and _intact(old_entry)


_LOAD_AFTER_GO = """
import sys, time
from pathlib import Path
from repro.phy.turbo.backends._native import load_kernel_module
go = Path(sys.argv[1])
while not go.exists():
    time.sleep(0.005)
module, reason = load_kernel_module()
assert module is not None, reason
print(reason)
"""


def test_concurrent_builds_both_end_loadable(cache_home, built_entry, tmp_path):
    go = tmp_path / "go"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    builders = [
        subprocess.Popen(
            [sys.executable, "-c", _LOAD_AFTER_GO, str(go)],
            cwd=tmp_path,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(2)
    ]
    go.touch()
    for builder in builders:
        out, err = builder.communicate(timeout=300)
        assert builder.returncode == 0, err
        assert "C kernel" in out
    entry = cache_entry()
    assert _intact(entry)
    assert not [p.name for p in entry.iterdir() if p.name.startswith(".")]
    module, reason = load_kernel_module()
    assert module is not None, reason
