"""Checks on the package's module boundaries: static ones read from the source with ast,
and ones on what importing a module loads."""

import ast
import importlib
import inspect
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
# Modules that import neither uppertail.estimate nor scipy.
LEAVES = ["bounds", "decompose", "disjointness", "families", "hypergraph", "rng", "workers"]
# Further modules a leaf must not load: the event calculus stands on hypergraph
# alone, and verify combines it with M_r.
NOT_LOADED = {"disjointness": ["uppertail.decompose"]}
# The only package modules a module may import.  estimate stands on the edge
# store, the sample streams and the worker layer: planting reads a forced
# VertexSet, not a witness.  The worker layer stands on nothing in the package.
IMPORTS_AT_MOST = {"estimate": {"hypergraph", "rng", "workers"}, "workers": set()}


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
def test_relative_imports_name_all_entries(path):
    # __all__ is the exact API: a name another module imports is in its source's __all__.
    unlisted = [
        f"{node.module}:{alias.name} (line {node.lineno})"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name not in (_all_entries(_tree(SRC / f"{node.module}.py")) or ())
    ]
    assert not unlisted, f"{path.name} imports names outside their module's __all__: {unlisted}"


def test_package_root_binds_no_public_name():
    # Each public name is imported from the module that defines it, never re-exported.
    public = sorted(n for n in _top_level_names(_tree(SRC / "__init__.py")) if not n.startswith("_"))
    assert not public, f"uppertail/__init__.py binds public names: {public}"


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module's import statements name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            names |= {node.module.split(".")[0]} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("uppertail"):
            parts = node.module.split(".")
            names |= {parts[1]} if len(parts) > 1 else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names if a.name.startswith("uppertail.")}
    return names


@pytest.mark.parametrize("module", IMPORTS_AT_MOST)
def test_imports_only_the_modules_it_stands_on(module):
    extra = _package_imports(_tree(SRC / f"{module}.py")) - IMPORTS_AT_MOST[module]
    assert not extra, f"{module}.py imports {sorted(extra)}"


@pytest.mark.parametrize("module", LEAVES)
def test_leaf_import_loads_only_what_it_uses(module):
    forbidden = ["uppertail.estimate", *NOT_LOADED.get(module, [])]
    code = (
        f"import sys, uppertail.{module}\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m in {forbidden}))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "[]"


def _perfbench_parameters() -> dict[tuple[str, str], set[str]]:
    """(module, name) -> parameters perfbench needs by name: every name in
    tracing.TRACED, with the args[...] keys its span hook reads, and every
    uppertail call in run.py, with the keywords it passes."""
    tracing = _tree(ROOT / "perfbench" / "tracing.py")
    tables = {
        target.id: node.value
        for node in tracing.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    needed = {
        (mod, name): set() for mod, names in ast.literal_eval(tables["TRACED"]).items() for name in names
    }
    hook_reads = {
        node.name: {
            n.slice.value
            for n in ast.walk(node)
            if isinstance(n, ast.Subscript) and isinstance(n.value, ast.Name) and n.value.id == "args"
        }
        for node in tracing.body
        if isinstance(node, ast.FunctionDef)
    }
    for key, hook in zip(tables["_HOOKS"].keys, tables["_HOOKS"].values):
        hook_name = (hook.func if isinstance(hook, ast.Call) else hook).id
        needed[tuple(key.value.split("."))] |= hook_reads[hook_name]
    run = _tree(ROOT / "perfbench" / "run.py")
    modules = {
        alias.asname or alias.name
        for node in ast.walk(run)
        if isinstance(node, ast.ImportFrom) and node.module == "uppertail"
        for alias in node.names
    }
    for node in ast.walk(run):
        func = getattr(node, "func", None)
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in modules:
            needed.setdefault((func.value.id, func.attr), set()).update(
                kw.arg for kw in node.keywords if kw.arg
            )
    return needed


def test_perfbench_names_exist():
    # perfbench's traced mode patches these names with getattr and reads these
    # parameters, so a rename here crashes `--trace 1`.
    needed = _perfbench_parameters()
    # The ast reading found the sampler hooks' reads and the probe's keywords.
    assert needed[("estimate", "mc_tail")] >= {"h", "seed", "samples", "workers"}
    wrong = []
    for (mod, name), params in sorted(needed.items()):
        fn = getattr(importlib.import_module(f"uppertail.{mod}"), name, None)
        if not callable(fn):
            wrong.append(f"{mod}.{name} is missing or not callable")
        elif missing := params - set(inspect.signature(fn).parameters):
            wrong.append(f"{mod}.{name} lacks {sorted(missing)}")
    assert not wrong, wrong


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_entries_are_defined(path):
    tree = _tree(path)
    missing = sorted(set(_all_entries(tree) or ()) - _top_level_names(tree))
    assert not missing, f"{path.name} exports undefined names: {missing}"


def _readme_code() -> list[str]:
    """README.md's fenced code blocks and inline code spans; its prose is left out."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    fenced = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
    blocks = fenced.findall(text)
    return blocks + re.findall(r"`([^`\n]+)`", fenced.sub("", text))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_entries_are_used(path):
    # A public name that only its own definition and its tests mention is dead
    # code: some other statement of its module, another module, a demo,
    # perfbench or the README's code must use it.  Imports, re-exports and
    # README prose do not count.
    used = set(re.findall(r"\w+", "\n".join(_readme_code())))
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


# The cache decorators of functools, and the one function allowed to keep a
# process-wide cache: a table of constant masks keyed by (coordinate, m).
CACHES = {"lru_cache", "cache"}
CACHE_ALLOWED = {("disjointness.py", "_coord_zero_mask")}


def _cache_decorated(tree: ast.Module) -> set[str]:
    """Functions decorated with functools.lru_cache or functools.cache, whether
    imported from functools (under any alias) or read off the module."""
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update(a.asname or a.name for a in node.names if a.name in CACHES)
        elif isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "functools")
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            if (isinstance(target, ast.Name) and target.id in names) or (
                isinstance(target, ast.Attribute)
                and target.attr in CACHES
                and isinstance(target.value, ast.Name)
                and target.value.id in modules
            ):
                found.add(node.name)
    return found


def test_no_process_wide_cache():
    # A call computes its own result: a table held across calls lives with the
    # caller that repeats it (verify's run memo), never in a module-level cache.
    # Equality also shows the reading finds the one allowed decorator.
    found = {(path.name, name) for path in MODULES for name in _cache_decorated(_tree(path))}
    assert found == CACHE_ALLOWED


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


# Each input kind is refused in one place, uppertail.hypergraph's check_*
# helpers; cli's usage checks name flags and exit 2, so they keep their own.
# The text is p's, since disjointness refuses a whole array of probabilities.
REFUSERS = {"hypergraph.py", "cli.py"}
REFUSAL_TEXT = ("p must lie in [0, 1]", "must not be NaN", "must be finite, not")


def _second_refusals(tree: ast.Module) -> list[str]:
    """Spellings of a helper's rule: its message text, a name compared with
    itself (x != x) and math.isnan."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            found += [f"{text!r} (line {node.lineno})" for text in REFUSAL_TEXT if text in node.value]
        elif isinstance(node, ast.Compare):
            names = [n.id for n in (node.left, *node.comparators) if isinstance(n, ast.Name)]
            if len(names) != len(set(names)):
                found.append(f"a name compared with itself (line {node.lineno})")
        elif isinstance(node, ast.Attribute) and node.attr == "isnan":
            if isinstance(node.value, ast.Name) and node.value.id == "math":
                found.append(f"math.isnan (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in REFUSERS], ids=lambda p: p.name)
def test_refusals_go_through_the_helpers(path):
    found = _second_refusals(_tree(path))
    assert not found, f"{path.name} spells a refusal of its own: {found}"


def test_refusal_reading_finds_the_helpers():
    # The reading sees hypergraph's own spellings: the three messages and the
    # NaN compare in check_threshold.
    found = _second_refusals(_tree(SRC / "hypergraph.py"))
    assert sum("compared with itself" in f for f in found) == 1
    assert all(any(repr(text) in f for f in found) for text in REFUSAL_TEXT)
