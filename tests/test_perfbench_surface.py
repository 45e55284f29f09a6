"""The part of the library that the benchmark's code in ``perfbench/`` uses.

The benchmark imports names from ``shiftshare`` and calls them with keywords. A name
or parameter that the library drops while the benchmark still uses it would show only
as a failed benchmark operation. These tests read ``perfbench/*.py`` as source, without
importing or running it, and check every such name and keyword against the package.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _trees(path: Path):
    """The file's syntax tree, then that of each string in it that is Python code naming
    ``shiftshare``: the code it runs in a child interpreter."""
    tree = ast.parse(path.read_text(), str(path))
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and (
                "shiftshare" in node.value):
            try:
                yield ast.parse(node.value)
            except SyntaxError:  # prose, such as a docstring
                pass


def _imported(module: str, name: str):
    """``from module import name``: an attribute of the module, or its submodule."""
    found = getattr(importlib.import_module(module), name, None)
    if found is None:
        try:
            found = importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            return None
    return found


def _bindings(trees, problems: list) -> dict:
    """What each name that the file imports from ``shiftshare`` is bound to."""
    bound = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == (
                    "shiftshare"):
                for alias in node.names:
                    found = _imported(node.module, alias.name)
                    if found is None:
                        problems.append(f"{node.module} has no {alias.name!r}")
                    else:
                        bound[alias.asname or alias.name] = found
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "shiftshare":
                        importlib.import_module(alias.name)
                        target = alias.name if alias.asname else "shiftshare"
                        bound[alias.asname or "shiftshare"] = importlib.import_module(target)
    return bound


def _callee(func: ast.expr, bound: dict):
    """The library object that a call's ``func`` names, or None where it is not one."""
    if isinstance(func, ast.Name):
        return bound.get(func.id)
    if isinstance(func, ast.Attribute):
        owner = _callee(func.value, bound)
        return None if owner is None else getattr(owner, func.attr, None)
    return None


def _check(path: Path, problems: list, called: set) -> None:
    trees = list(_trees(path))
    bound = _bindings(trees, problems)
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target = _callee(node.func, bound)
            if target is None or not callable(target):
                continue
            parameters = inspect.signature(target).parameters
            if any(p.kind is p.VAR_KEYWORD for p in parameters.values()):
                continue
            name = ast.unparse(node.func)
            called.add(name)
            for keyword in node.keywords:
                if keyword.arg is not None and keyword.arg not in parameters:
                    problems.append(f"{path.name}:{node.lineno}: {name} takes no "
                                    f"keyword {keyword.arg!r}")


def test_every_library_name_and_keyword_that_the_benchmark_uses_exists():
    problems, called = [], set()
    for path in sorted(PERFBENCH.glob("*.py")):
        _check(path, problems, called)
    assert problems == []
    # the calls that pass the most keywords are among those checked
    assert {"balance_test_unit", "run_coverage", "Dataset", "cli.main"} <= called
