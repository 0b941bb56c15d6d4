"""The public surface stays what is used: every exported name resolves, and
every public top-level function or class is exported or used elsewhere in
the package, so helpers with no caller do not accumulate."""

import ast
from pathlib import Path

import pytest

import flowplug
import flowplug.numerics

PACKAGE = Path(flowplug.__file__).resolve().parent
MODULES = sorted(PACKAGE.rglob("*.py"))


@pytest.mark.parametrize("module", [flowplug, flowplug.numerics], ids=lambda m: m.__name__)
def test_all_names_resolve_without_duplicates(module):
    names = module.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [n for n in names if not hasattr(module, n)]
    assert not missing


def _all_names(tree: ast.Module) -> set[str]:
    out: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            out.update(ast.literal_eval(node.value))
    return out


def _referenced(node: ast.AST) -> set[str]:
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_every_public_definition_is_exported_or_used():
    exported: set[str] = set()
    # (module, name) -> names the top-level statement defining it refers to;
    # every other top-level statement counts as its own unit
    units: list[tuple[str | None, set[str]]] = []
    public: list[tuple[str, str]] = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exported |= _all_names(tree)
        rel = str(path.relative_to(PACKAGE))
        for node in tree.body:
            name = getattr(node, "name", None) if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            if name is not None and not name.startswith("_"):
                public.append((rel, name))
            units.append(((rel, name) if name else None, _referenced(node)))
    unused = [
        f"{rel}:{name}"
        for rel, name in public
        if name not in exported and not any(key != (rel, name) and name in refs for key, refs in units)
    ]
    assert not unused, f"public definitions with no export and no caller: {unused}"
