"""Every name that a loxgrow module imports is used in that module, and
every private module-level name is used somewhere in the package; every
backend config key is a constructor parameter and a ``config()`` entry.

No linter runs in the test suite, so these are its unused-import and
dead-helper rules. Names listed in ``__all__`` and imports on a line marked
``# noqa: F401`` (names kept for perfbench's tracer to patch) are exempt
from the first. The second covers each function, class and constant that
a module defines at top level under a name starting with ``_`` (dunders
aside): some module of the package must load it by name or import it.
"""

import ast
import inspect
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "loxgrow"
MODULES = sorted(SRC.rglob("*.py"))


def _unused_imports(path):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_covers_the_package():
    assert SRC / "freebasis.py" in MODULES and SRC / "spaces" / "base.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _private_definitions(path):
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.endswith("__"))


@lru_cache(maxsize=None)
def _referenced_names():
    """Every name some module loads, or imports from another."""
    refs = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add(node.id)
            elif isinstance(node, ast.alias):
                refs.add(node.name)
    return refs


def test_the_private_scan_sees_private_names():
    assert "_spell_back" in _private_definitions(SRC / "words.py")
    assert "_P23" in _private_definitions(SRC / "spaces" / "psl2z.py")


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unreferenced_private_names(path):
    assert [n for n in _private_definitions(path) if n not in _referenced_names()] == []


def test_the_cli_loads_no_fractions_or_decimal():
    # importing fractions costs about 2 ms of every command's start; the
    # half-plane loads float entries with as_integer_ratio and math.gcd
    code = "import sys, loxgrow.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout == "[]\n"


def test_backend_config_keys_are_the_constructor_and_config_names():
    # a key that make_backend accepts is a constructor parameter and is
    # hashed into certificates through config(); a parameter dropped from
    # the constructor leaves the accepted keys and the hash with it
    from loxgrow.spaces import _ALLOWED_KEYS, _KINDS, make_backend

    assert set(_KINDS) == set(_ALLOWED_KEYS)
    required = {"free_group_tree": {"rank": 2}}
    for kind, cls in _KINDS.items():
        params = set(inspect.signature(cls.__init__).parameters) - {"self"}
        config = make_backend({"kind": kind, **required.get(kind, {})}).config()
        assert config["kind"] == kind
        assert params == _ALLOWED_KEYS[kind] - {"kind"} == set(config) - {"kind"}, kind
