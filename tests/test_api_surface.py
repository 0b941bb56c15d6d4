"""The public surface stays what is used: every exported name resolves,
every public top-level function or class is exported or used elsewhere in
the package, every private top-level function has a caller in the
package, and no definition is used only by the selftest suites, so
helpers with no caller, and reference copies that nothing but selftest
runs, do not accumulate."""

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


def _top_level_units():
    """(exported names, per-statement units, top-level definitions): a unit
    is ((module, name or None), names the statement refers to), and each
    definition is (module, name, is_function)."""
    exported: set[str] = set()
    units: list[tuple[tuple[str, str | None], set[str]]] = []
    defs: list[tuple[str, str, bool]] = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exported |= _all_names(tree)
        rel = str(path.relative_to(PACKAGE))
        for node in tree.body:
            name = getattr(node, "name", None) if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            if name is not None:
                defs.append((rel, name, isinstance(node, ast.FunctionDef)))
            units.append(((rel, name), _referenced(node)))
    return exported, units, defs


def _used_elsewhere(units, rel: str, name: str) -> bool:
    return any(key != (rel, name) and name in refs for key, refs in units)


def test_every_public_definition_is_exported_or_used():
    exported, units, defs = _top_level_units()
    unused = [
        f"{rel}:{name}"
        for rel, name, _ in defs
        if not name.startswith("_") and name not in exported and not _used_elsewhere(units, rel, name)
    ]
    assert not unused, f"public definitions with no export and no caller: {unused}"


def test_every_private_function_has_a_caller():
    _, units, defs = _top_level_units()
    unused = [
        f"{rel}:{name}"
        for rel, name, is_function in defs
        if is_function and name.startswith("_") and not _used_elsewhere(units, rel, name)
    ]
    assert not unused, f"private functions with no caller in the package: {unused}"


SELFTEST = "selftest.py"
# references that tests compare against stay: acceptance criterion 3
# imports contrastive_loss as the contrastive identity's reference, and
# criterion 2 imports gradient and finite_diff_gradient as the gradient
# oracle's two sides
SELFTEST_ONLY_EXEMPT = {"contrastive_loss", "gradient", "finite_diff_gradient"}


def test_no_definition_is_used_only_by_selftest():
    """A public definition outside selftest.py fails when every reference
    to it in the package comes from selftest.py, directly or through
    definitions that only selftest reaches."""
    _, units, defs = _top_level_units()
    only_selftest: set[tuple[str, str]] = set()
    changed = True
    while changed:
        changed = False
        for rel, name, _ in defs:
            if rel == SELFTEST or name in SELFTEST_ONLY_EXEMPT or (rel, name) in only_selftest:
                continue
            users = [key for key, refs in units if key != (rel, name) and name in refs]
            if users and all(key[0] == SELFTEST or key in only_selftest for key in users):
                only_selftest.add((rel, name))
                changed = True
    flagged = sorted(f"{rel}:{name}" for rel, name in only_selftest if not name.startswith("_"))
    assert not flagged, f"definitions that only selftest uses: {flagged}"


# the one second-process lifecycle (fork, pipe, SIGINT, join or kill) is
# ``blas.SecondProcess``; the row worker's shared arrays may stay in losses.py
PROCESS_IMPORTS = {"multiprocessing": {"blas.py"}, "signal": {"blas.py"}, "mmap": {"blas.py", "losses.py"}}


def test_only_blas_runs_a_second_process():
    found = []
    for path in MODULES:
        rel = str(path.relative_to(PACKAGE))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                root = name.split(".")[0]
                if root in PROCESS_IMPORTS and rel not in PROCESS_IMPORTS[root]:
                    found.append(f"{rel} imports {name}")
    assert not found, found
