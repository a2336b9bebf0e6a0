"""Every module under ``src/repro`` is reached from an entry point:
:mod:`repro.cli`, a ``__main__`` module, or a ``repro`` module that
``bench/*.py`` or ``tests/paper/*.py`` (the paper's table and figure
checks) imports.  ``from repro.pkg import
name`` is followed through ``pkg/__init__.py`` to the submodule that
defines ``name``; a package ``__init__`` adds no edges of its own, so a
re-export alone keeps nothing alive.
"""

import ast
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = {
    ".".join(p.relative_to(ROOT / "src").with_suffix("").parts).removesuffix(".__init__"): p
    for p in ROOT.glob("src/repro/**/*.py")
}
PACKAGES = {m for m, path in MODULES.items() if path.name == "__init__.py"}


def _imports(node: ast.AST, package: str):
    """Yield ``(target, names)`` per import under ``node``, resolved."""
    for found in ast.walk(node):
        if isinstance(found, ast.Import):
            yield from ((alias.name, ()) for alias in found.names)
        elif isinstance(found, ast.ImportFrom):
            target = found.module or ""
            if found.level:
                base = package.rsplit(".", found.level - 1)[0]
                target = f"{base}.{target}" if target else base
            yield target, tuple(alias.name for alias in found.names)


@cache
def _resolve(target: str, names: tuple[str, ...]) -> frozenset[str]:
    """The non-package modules that ``from target import names`` uses."""
    if target not in PACKAGES:
        return frozenset({target} & MODULES.keys())
    used: set[str] = set()
    for name in names:
        if f"{target}.{name}" in MODULES:
            used |= _resolve(f"{target}.{name}", ())
            continue
        # Module-level re-exports only: a lazy ``__getattr__`` is no edge.
        for stmt in ast.parse(MODULES[target].read_text()).body:
            if not isinstance(stmt, ast.ImportFrom):
                continue
            for alias in stmt.names:
                if alias.name == "*" or (alias.asname or alias.name) == name:
                    [(source, _)] = _imports(stmt, target)
                    used |= _resolve(source, (name if alias.name == "*" else alias.name,))
    return frozenset(used)


def _reached() -> set[str]:
    todo = {"repro.cli"} | {m for m in MODULES if m.endswith(".__main__")}
    for script in [
        *ROOT.glob("bench/*.py"),
        *ROOT.glob("tests/paper/*.py"),
    ]:
        for target, names in _imports(ast.parse(script.read_text()), ""):
            todo |= _resolve(target, names)
    seen: set[str] = set()
    while todo:
        seen.add(module := todo.pop())
        tree = ast.parse(MODULES[module].read_text())
        for target, names in _imports(tree, module.rpartition(".")[0]):
            todo |= _resolve(target, names) - seen
    return seen


def test_every_module_is_reached_from_an_entry_point():
    unreached = sorted(MODULES.keys() - PACKAGES - _reached())
    assert not unreached, f"no entry point reaches {unreached}"
