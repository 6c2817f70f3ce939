"""Rules the package's sources keep, checked on their text.

The package keeps only the tape ops its model runs: a function that records
onto the tape has a caller elsewhere in the package. Ops that only the tests
chain live in ``tests/ops.py``. The id tables and their row numbers stay inside
``model.py``: the rest of the package passes texts to the code-row functions.
"""

import ast
import glob
import os
import re

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "polywsd")


def _package_calls(fn: ast.FunctionDef, modules: set[str]) -> set[str]:
    """The names ``fn`` calls bare or through one of the package's ``modules``."""
    names = set()
    for node in ast.walk(fn):
        func = getattr(node, "func", None)
        if isinstance(func, ast.Name):
            names.add(func.id)
        elif isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in modules:
            names.add(func.attr)
    return names


def test_every_recording_function_has_a_caller_in_the_package():
    recorders, callers = set(), {}  # callers: name -> the functions that call it
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        modules = {  # ``from . import tensor as T`` binds T
            alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level and node.module is None
            for alias in node.names
        }
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                called = _package_calls(fn, modules)
                if "record" in called:
                    recorders.add(fn.name)
                for name in called:
                    callers.setdefault(name, set()).add(fn.name)
    unused = sorted(name for name in recorders if not callers.get(name, set()) - {name})
    assert recorders and not unused, f"tape ops no package function calls: {unused}"


def test_only_the_model_names_its_id_tables():
    named = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            found = set(re.findall(r"IdTable|context_index|gloss_index", fh.read()))
        if found and os.path.basename(path) != "model.py":
            named[os.path.basename(path)] = sorted(found)
    assert not named, f"id-table names outside model.py: {named}"
