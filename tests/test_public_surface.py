"""Every exported name has a caller outside the tests.

For each non-dunder name in the ``__all__`` of ``repro`` and of each of
its subpackages, some file outside ``tests/``, outside the module that
defines the name and outside every ``__init__.py`` must mention it as a
whole word: a module in ``src/``, an example, a benchmark, the README or
a page under ``docs/``.  A name only the tests reach is either moved to
a test helper or dropped from ``__all__``.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SEARCHED = ("src", "examples", "benchmarks", "docs")
SUFFIXES = {".py", ".md", ".dl", ".txt", ".json", ".toml", ".csv"}


def _module_path(package: Path, dotted: str) -> Path:
    target = package.joinpath(*dotted.split("."))
    if (target / "__init__.py").exists():
        return target / "__init__.py"
    return target.with_suffix(".py")


def _defining_file(init: Path, name: str) -> Path:
    """Follow relative ``from . import`` chains to the module that
    defines ``name``."""
    tree = ast.parse(init.read_text())
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom) or not node.level:
            continue
        if not any((alias.asname or alias.name) == name
                   for alias in node.names):
            continue
        base = init.parent
        for _ in range(node.level - 1):
            base = base.parent
        source = _module_path(base, node.module or "")
        if source.name == "__init__.py":
            return _defining_file(source, name)
        return source
    return init


def _exported() -> list[tuple[str, str, Path]]:
    out = []
    inits = [PACKAGE / "__init__.py"] + sorted(PACKAGE.glob("*/__init__.py"))
    for init in inits:
        tree = ast.parse(init.read_text())
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                names = ast.literal_eval(node.value)
                break
        else:
            continue
        package = init.parent.relative_to(PACKAGE.parent).as_posix()
        for name in names:
            if name.startswith("__"):
                continue
            out.append((package.replace("/", "."), name,
                        _defining_file(init, name)))
    return out


@lru_cache(maxsize=None)
def _corpus() -> tuple[tuple[Path, str], ...]:
    files = [ROOT / "README.md"]
    for top in SEARCHED:
        files.extend(p for p in sorted((ROOT / top).rglob("*"))
                     if p.is_file() and p.suffix in SUFFIXES)
    return tuple((p, p.read_text(errors="replace")) for p in files
                 if p.name != "__init__.py" and "__pycache__" not in p.parts)


EXPORTED = _exported()


def test_surface_is_scanned():
    packages = {package for package, _, _ in EXPORTED}
    assert "repro" in packages and len(packages) == 14
    assert all(path.exists() for _, _, path in EXPORTED)


@pytest.mark.parametrize(
    "package,name,defined_in", EXPORTED,
    ids=[f"{package}.{name}" for package, name, _ in EXPORTED])
def test_exported_name_has_a_caller(package, name, defined_in):
    word = re.compile(rf"\b{re.escape(name)}\b")
    callers = [path for path, text in _corpus()
               if path != defined_in and word.search(text)]
    assert callers, (
        f"{package}.{name} (defined in "
        f"{defined_in.relative_to(ROOT)}) is referenced only by the "
        "tests: give it a caller or a doc, or drop it from __all__")
