"""Checks on the package's module boundaries: static ones read from the source with ast,
and one on what importing the package loads."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "uppertail"
MODULES = sorted(SRC.glob("*.py"))
# Code outside the package that may use its public names; tests do not count.
CALLERS = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _all_entries(tree: ast.Module) -> list[str] | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return None


def _statement_references(tree: ast.Module) -> list[tuple[ast.stmt, set[str]]]:
    """Each top-level statement but __all__, with the names it loads, reads as an
    attribute or spells as a string constant (as getattr would take them)."""
    out = []
    for stmt in tree.body:
        if _all_entries(ast.Module(body=[stmt], type_ignores=[])) is not None:
            continue
        refs = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.add(node.value)
        out.append((stmt, refs))
    return out


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "bounds.py", "hypergraph.py", "verify.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    private = [
        f"{'.' * node.level}{node.module or ''}:{alias.name} (line {node.lineno})"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"{path.name} imports private names: {private}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_entries_are_defined(path):
    tree = _tree(path)
    missing = sorted(set(_all_entries(tree) or ()) - _top_level_names(tree))
    assert not missing, f"{path.name} exports undefined names: {missing}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_entries_are_used(path):
    # A public name that only its own definition and its tests mention is dead
    # code: some other statement of its module, another module, a demo,
    # perfbench or the README must use it.  Imports and re-exports do not count.
    used = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    for other in MODULES + CALLERS:
        if other != path:
            used.update(*(refs for _, refs in _statement_references(_tree(other))))
    tree = _tree(path)
    own = _statement_references(tree)
    unused = [
        name
        for name in _all_entries(tree) or ()
        if name not in used
        and not any(
            name in refs and name not in _top_level_names(ast.Module(body=[stmt], type_ignores=[]))
            for stmt, refs in own
        )
    ]
    assert not unused, f"{path.name} exports names nothing uses: {unused}"


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs about a second per process; the library needs only scipy.special.
    code = (
        "import sys, uppertail, uppertail.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "[]"



def test_verify_checks_return_check_results():
    # A verify check reports through its CheckResult (verdict, detail and counts),
    # never through a tuple of counts or (name, ok) pairs for a caller to re-format.
    wrong = []
    for node in _tree(SRC / "verify.py").body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        returns = node.returns or ast.Constant(None)
        is_check = re.search(r"_(check|checks|suite)$", node.name)
        if is_check and ast.unparse(returns) not in ("CheckResult", "list[CheckResult]"):
            wrong.append(f"{node.name} -> {ast.unparse(returns)}")
        elif any(isinstance(n, ast.Name) and n.id in ("tuple", "Tuple") for n in ast.walk(returns)):
            wrong.append(f"{node.name} -> {ast.unparse(returns)}")
    assert not wrong, f"verify functions that do not return CheckResult: {wrong}"
