"""The package's public surface."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import lexgb


def test_every_exported_name_resolves():
    missing = [name for name in lexgb.__all__ if not hasattr(lexgb, name)]
    assert not missing
    assert len(set(lexgb.__all__)) == len(lexgb.__all__)
    namespace = {}
    exec("from lexgb import *", namespace)
    assert set(lexgb.__all__) <= set(namespace)


def test_import_loads_no_rational_arithmetic():
    # the coefficients are ints mod p, so importing the package should not
    # pay for the standard library's fractions (and decimal, which it loads);
    # nor should it load the process pool, and the logging it pulls in, which
    # only a campaign with more than one job uses
    src = str(Path(lexgb.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    unwanted = "{'fractions', 'decimal', 'concurrent.futures', 'logging'}"
    probe = f"import sys, lexgb; print(sorted({unwanted} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def _modules() -> dict:
    src = Path(lexgb.__file__).resolve().parent
    return {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}


def _loads(tree) -> set:
    """The names a tree reads, as bare names or as attributes."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__":  # it imports to re-export
            continue
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        unused += [f"{name}.{n}" for n in sorted(imported - _loads(tree))]
    assert not unused


def test_every_private_module_level_name_is_used():
    # a private name counts as used when some other top-level statement of
    # the package reads it, so a helper that only calls itself does not
    defined, reads = [], []
    for name, tree in _modules().items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:
                names = set()
            defined += [(name, n) for n in names if n.startswith("_") and not n.startswith("__")]
            reads.append((names, _loads(stmt)))
    unused = [f"{module}.{n}" for module, n in defined if not any(n in r and n not in own for own, r in reads)]
    assert not unused


def test_no_function_of_a_basis_keeps_a_module_level_cache():
    # what is worked out from a basis is kept on it (`GroebnerBasis._memoized`),
    # not in a cache keyed by the basis's value, which hashes every term on
    # each call and keeps the last bases alive
    cached = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or not node.args.args:
                continue
            first = node.args.args[0].annotation
            if not (isinstance(first, ast.Name) and first.id == "GroebnerBasis"):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if (target.attr if isinstance(target, ast.Attribute) else target.id) in ("lru_cache", "cache"):
                    cached.append(f"{name}.{node.name}")
    assert not cached


def test_only_the_checks_module_builds_reports():
    # the verdict rule lives in `checks._report`, and `verify_all` alone
    # reports the checks a closed gate skips: every check, the gatekeepers
    # and the fiber checks of `specialize` among them, hands back witnesses
    # or a note, never a report of its own
    builders = set()
    for name, tree in _modules().items():
        for stmt in tree.body:
            owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and "CheckReport" in _loads(node.func):
                    builders.add((name, owner))
    assert builders == {("checks", "_report"), ("checks", "verify_all")}
