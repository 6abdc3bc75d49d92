"""The standard-library lint (``tools/astlint.py``) finds what it claims
to find and nothing else."""

from __future__ import annotations

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "astlint", os.path.join(ROOT, "tools", "astlint.py"))
astlint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(astlint)


def lint(source: str, path: str = "module.py") -> list[str]:
    return [message for _, message in astlint.lint_source(source, path)]


def test_syntax_error():
    assert lint("def broken(:\n    pass\n")[0].startswith("syntax error")


def test_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from typing import Any, Optional\n"
              "from collections import OrderedDict  # noqa\n"
              "from json import dumps\n"
              "__all__ = ['dumps']\n"
              "def f(x: 'Optional[int]') -> Any:\n"
              "    return sys.argv\n")
    assert lint(source) == ["unused import 'os'"]
    # an __init__ re-exports what it imports
    assert lint("import os\n", path="pkg/__init__.py") == []


def test_undefined_module_level_names():
    source = ("import os\n"
              "VALUE = os.sep + missing\n"
              "def f():\n"
              "    global LATE\n"
              "    LATE = 1\n"
              "    return len(LATE_TYPO) + LATE\n"
              "class C:\n"
              "    attr = 1\n"
              "    other = attr + VALUE\n"
              "def g(arg):\n"
              "    local = arg\n"
              "    return [item for item in local] + [nested() for nested in ()]\n")
    assert lint(source) == ["undefined name 'missing'",
                            "undefined name 'LATE_TYPO'"]
    # a star import makes the module's names unknowable: no verdict
    assert lint("from os.path import *\nprint(join)\n") == []


def test_isinstance_against_tuple_under_src():
    source = ("def f(value, other):\n"
              "    if isinstance(value, (set, frozenset, list, tuple)):\n"
              "        return 1\n"
              "    return isinstance(other, tuple)\n")
    message = ("isinstance against 'tuple' (an OID is a tuple): "
               "use is_collection()")
    assert lint(source, path="src/repro/physical/module.py") == [message] * 2
    # the collection predicate's own module, and code outside src/, may ask
    assert lint(source, path="src/repro/datamodel/oid.py") == []
    assert lint(source, path="tests/test_module.py") == []
    # a type tuple without ``tuple`` is fine anywhere
    assert lint("def f(v):\n    return isinstance(v, (set, list))\n",
                path="src/repro/module.py") == []
