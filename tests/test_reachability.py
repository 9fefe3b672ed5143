"""Every module and every definition under ``src/repro`` is reachable.

Module level.  The walk is static and deterministic: it parses each module
with :mod:`ast` and follows its ``import`` statements (including
function-local ones) from the two entry points, ``repro.__main__`` and
``repro.runner.cli``.  A package ``__init__`` is executed on the way to its
submodules, but its re-exports are not followed: an ``import`` at the top
level of an ``__init__`` whose bound names the ``__init__`` never uses only
republishes them, so it reaches nothing by itself.  ``from package import name`` is
resolved through such a re-export to the module that defines *name*.

A module no entry point reaches is dead code that only its own tests keep
alive; the test names every such module.

Name level.  Every top-level function and class and every method must be
named by live code.  The roots are the command line, every file in
``examples/`` and ``benchmarks/``, the module-level statements of every
module (imports and ``__all__`` aside) and the identifiers of the CI
workflow's ``run:`` steps.  A name counts as used when it appears as a
loaded name, an attribute or an identifier-shaped string constant, so a
registry that dispatches by string name keeps its targets alive.  Tests are
not roots, and neither are the benchmark harness's trace hooks.  The
allow-list holds only definitions called by name from outside the tree,
each with its reason.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

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


# --------------------------------------------------------------------------
# Name level: every top-level function, class and method is reachable.
# --------------------------------------------------------------------------

REPO = SRC.parent
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
CI_WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"

#: Definitions called by name from outside the source tree, where the walk
#: cannot see the call.  Only dispatch by name belongs here.
ALLOWED = {
    "repro.runner.serve:_QueryHandler.do_GET": "http.server dispatches do_<METHOD> by name",
    "repro.runner.serve:_QueryHandler.do_POST": "http.server dispatches do_<METHOD> by name",
    "repro.runner.serve:_QueryHandler.do_PUT": "http.server dispatches do_<METHOD> by name",
    "repro.runner.serve:_QueryHandler.do_DELETE": "http.server dispatches do_<METHOD> by name",
    "repro.runner.serve:_QueryHandler.log_message": "http.server override, called by the base",
    "repro.runner.telemetry:reset": "process-global test-isolation reset",
    "repro.runner.telemetry:MetricsRegistry.reset": "process-global test-isolation reset",
    "repro.runner.chaos:reset": "process-global test-isolation reset",
}

_FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITION = (ast.ClassDef, *_FUNCTION)
_NOT_ROOT = (ast.Import, ast.ImportFrom, *_DEFINITION)


def _named(nodes: Iterable[ast.AST]) -> Set[str]:
    """Identifiers *nodes* use: loaded names, attributes, identifier strings."""
    names = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if IDENTIFIER.fullmatch(node.value):
                    names.add(node.value)
    return names


def _is_all(statement: ast.stmt) -> bool:
    targets = getattr(statement, "targets", None) or [getattr(statement, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


class _Definition:
    """A top-level function or class, or a method: its name and what it names."""

    def __init__(self, module: str, node: ast.AST, owner: Optional[str] = None):
        self.name = node.name
        self.owner = f"{module}:{owner}" if owner else None
        self.qualname = f"{self.owner}.{node.name}" if owner else f"{module}:{node.name}"
        if isinstance(node, ast.ClassDef):
            # A class's own code; its methods are definitions of their own.
            body = [s for s in node.body if not isinstance(s, _FUNCTION)]
            self.uses = _named([*node.bases, *node.keywords, *node.decorator_list, *body])
        else:
            self.uses = _named([node])

    def reached(self, live: Set[str], live_names: Set[str]) -> bool:
        if self.owner is not None and self.owner not in live:
            return False
        dunder = self.name.startswith("__") and self.name.endswith("__")
        return (
            self.qualname in live
            or self.name in live_names
            or (dunder and self.owner is not None)
        )


def _source_tree(src: Path) -> Tuple[Set[str], Dict[str, _Definition]]:
    """Names the module-level statements use, and every definition by qualname."""
    names: Set[str] = set()
    definitions: Dict[str, _Definition] = {}
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names |= _named(s for s in tree.body if not isinstance(s, _NOT_ROOT) and not _is_all(s))
        for node in tree.body:
            if isinstance(node, _DEFINITION):
                definitions[f"{module}:{node.name}"] = _Definition(module, node)
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, _FUNCTION):
                        method = _Definition(module, member, owner=node.name)
                        definitions[method.qualname] = method
    return names, definitions


def _run_steps(workflow: Path) -> str:
    """The shell text of every ``run:`` step of a GitHub workflow file."""
    steps, indent = [], None
    for line in workflow.read_text(encoding="utf-8").splitlines():
        depth = len(line) - len(line.lstrip())
        if indent is not None and (not line.strip() or depth > indent):
            steps.append(line)
            continue
        indent = None
        key, _, value = line.strip().lstrip("- ").partition(":")
        if key == "run":
            indent = depth
            steps.append(value)
    return "\n".join(steps)


def unreachable_definitions(
    src: Path,
    root_files: Iterable[Path] = (),
    root_definitions: Iterable[str] = (),
    root_identifiers: Iterable[str] = (),
) -> List[str]:
    """Qualified names (``module:Class.method``) no root reaches.

    The roots are the files in *root_files*, whole; the module-level
    statements of every module under *src*, imports and ``__all__`` aside;
    the definitions in *root_definitions*; and the identifiers in
    *root_identifiers*.  A top-level function or class is live once live
    code names it, a method once its class is live and live code names it
    (a dunder of a live class at once).  Names are matched as identifiers,
    not resolved: a live use of ``store`` keeps every live class's ``store``.
    """
    live_names, pending = _source_tree(src)
    live_names |= set(root_identifiers)
    for path in root_files:
        live_names |= _named([ast.parse(path.read_text(encoding="utf-8"))])
    live = set(root_definitions)
    progress = True
    while progress:
        reached = [d for d in pending.values() if d.reached(live, live_names)]
        for definition in reached:
            live.add(definition.qualname)
            live_names |= definition.uses
            del pending[definition.qualname]
        progress = bool(reached)
    return sorted(pending)


def test_allowed_definitions_exist():
    _, definitions = _source_tree(SRC)
    assert sorted(set(ALLOWED) - set(definitions)) == []


def test_every_definition_is_reachable():
    """No definition is dead or kept alive by tests alone.

    Roots: the ``python -m repro`` entry (``repro.__main__`` and
    ``repro.runner.cli.main``), every file in ``examples/`` and
    ``benchmarks/``, and the identifiers of the CI workflow's ``run:`` steps
    (its serve smoke step calls ``telemetry.snapshot_counter_total``).  Trace
    hooks of the benchmark harness are not callers, and tests are not roots.
    """
    roots = [SRC / "repro" / "__main__.py"]
    for directory in ("examples", "benchmarks"):
        roots += sorted((REPO / directory).glob("*.py"))
    unreached = unreachable_definitions(
        SRC,
        root_files=roots,
        root_definitions=["repro.runner.cli:main", *ALLOWED],
        root_identifiers=IDENTIFIER.findall(_run_steps(CI_WORKFLOW)),
    )
    assert unreached == [], (
        "definitions no entry point, example, benchmark or CI step reaches "
        "(delete them or give them a caller): " + ", ".join(unreached)
    )


def test_name_walk_on_a_synthetic_tree(tmp_path):
    """The walk reports dead and test-only names, not dispatch by string."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from pkg.core import Engine\n\n__all__ = ['Engine']\n")
    (package / "core.py").write_text(
        "KERNELS = {'fast': 'fast_kernel'}\n"
        "\n"
        "def fast_kernel():\n"
        "    return 1\n"
        "\n"
        "def orphan():\n"
        "    return 2\n"
        "\n"
        "class Engine:\n"
        "    def __init__(self):\n"
        "        self.kind = 'fast'\n"
        "\n"
        "    def run(self):\n"
        "        return globals()[KERNELS[self.kind]]()\n"
        "\n"
        "    def debug_dump(self):\n"
        "        return vars(self)\n"
    )
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_core.py").write_text(
        "from pkg import Engine\n\ndef test_dump():\n    assert Engine().debug_dump()\n"
    )
    example = tmp_path / "example.py"
    example.write_text("from pkg import Engine\n\nprint(Engine().run())\n")

    unreached = unreachable_definitions(tmp_path / "src", root_files=[example])
    assert unreached == ["pkg.core:Engine.debug_dump", "pkg.core:orphan"]
