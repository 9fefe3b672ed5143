"""Every module under ``src/repro`` is reachable from the command line.

The walk is static and deterministic: it parses each module with :mod:`ast`
and follows its ``import`` statements (including function-local ones) from
the two entry points, ``repro.__main__`` and ``repro.runner.cli``.  A
package ``__init__`` is executed on the way to its submodules, but its
re-exports are not followed: an ``import`` at the top level of an
``__init__`` whose bound names the ``__init__`` never uses only republishes
them, so it reaches nothing by itself.  ``from package import name`` is
resolved through such a re-export to the module that defines *name*.

A module no entry point reaches is dead code that only its own tests keep
alive; the test names every such module.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"
ENTRY_POINTS = ("repro.__main__", "repro.runner.cli")


def _module_files() -> Dict[str, Path]:
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


MODULES = _module_files()


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


def _used_names(tree: ast.Module) -> Set[str]:
    """Names the module body reads (``__all__`` holds strings, not names)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
    return used


def _imports(name: str) -> Iterator[Tuple[ast.AST, bool]]:
    """``(import node, is_reexport)`` for every import of module *name*."""
    tree = ast.parse(MODULES[name].read_text(encoding="utf-8"))
    used = _used_names(tree) if _is_package(name) else set()
    top_level = set(map(id, tree.body))
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        bound = {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        reexport = _is_package(name) and id(node) in top_level and not bound & used
        yield node, reexport


def _absolute(name: str, node: ast.ImportFrom) -> str:
    if not node.level:
        return node.module or ""
    package = name if _is_package(name) else name.rpartition(".")[0]
    for _ in range(node.level - 1):
        package = package.rpartition(".")[0]
    return f"{package}.{node.module}" if node.module else package


def _with_parents(name: str) -> List[str]:
    parts = name.split(".")
    return [".".join(parts[: i + 1]) for i in range(len(parts))]


def _defining_module(package: str, attribute: str, seen: Set[Tuple[str, str]]) -> List[str]:
    """Modules reached by ``from package import attribute``."""
    submodule = f"{package}.{attribute}"
    if submodule in MODULES:
        return [submodule]
    if package not in MODULES or not _is_package(package) or (package, attribute) in seen:
        return []
    seen.add((package, attribute))
    for node, _ in _imports(package):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == attribute:
                    source = _absolute(package, node)
                    return [source] + _defining_module(source, alias.name, seen)
    return []


def _targets(name: str) -> Iterator[str]:
    for node, reexport in _imports(name):
        if reexport:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield from _with_parents(alias.name)
            continue
        source = _absolute(name, node)
        yield from _with_parents(source)
        for alias in node.names:
            yield from _defining_module(source, alias.name, set())


def reachable_modules() -> Set[str]:
    reached: Set[str] = set()
    stack = [parent for entry in ENTRY_POINTS for parent in _with_parents(entry)]
    while stack:
        name = stack.pop()
        if name in reached or name not in MODULES:
            continue
        reached.add(name)
        stack.extend(_targets(name))
    return reached


def test_every_module_is_reachable_from_the_cli():
    unreached = sorted(set(MODULES) - reachable_modules())
    assert unreached == [], (
        "modules no entry point imports (delete them or give them a caller): "
        + ", ".join(unreached)
    )


def test_reexports_are_not_followed():
    """``repro.core``'s re-exports reach nothing; a name resolves to its module."""
    reexports = [node for node, reexport in _imports("repro.core") if reexport]
    assert reexports, "repro.core re-exports its public names"
    assert "repro.core.voltage" in _defining_module("repro.core", "VoltageScalingAnalysis", set())
