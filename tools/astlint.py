"""A local lint that needs nothing beyond the standard library.

Checks every ``.py`` file under the given paths (default: ``src`` and
``tests``) for

* syntax errors (the file must compile),
* unused imports (an imported name that the module never reads; imports in
  an ``__init__.py``, names listed in ``__all__``, ``__future__`` imports
  and lines marked ``# noqa`` are exempt),
* undefined module-level names (a name read at module scope, or read as a
  global inside a function or class, that the module never binds and that
  is not a builtin; modules with a star import are skipped),
* under ``src/``, an ``isinstance`` test against ``tuple`` (bare or in a
  type tuple) anywhere but the collection predicate's module: an ``OID`` is
  a tuple, so such a test reads a single reference as a two-element
  collection.  Ask ``repro.datamodel.oid.is_collection`` instead.

Usage::

    python tools/astlint.py [PATH ...]

Prints one ``path:line: message`` per finding and exits 1 if there was
any, 0 otherwise.  CI runs it before ruff; it is the lint to run locally
when ruff is not installed.
"""

from __future__ import annotations

import ast
import builtins
import os
import symtable
import sys
from typing import Iterator

#: names every module has without binding them
MODULE_NAMES = frozenset({"__name__", "__file__", "__doc__", "__spec__",
                          "__loader__", "__package__", "__path__",
                          "__builtins__", "__annotations__", "__dict__"})
BUILTIN_NAMES = frozenset(dir(builtins)) | MODULE_NAMES
#: the repository root (absolute paths are read relative to it)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: the one module under ``src/`` that may ask ``isinstance(value, tuple)``
COLLECTION_PREDICATE_MODULE = os.path.join("src", "repro", "datamodel",
                                           "oid.py")


def python_files(paths: list[str]) -> Iterator[str]:
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs if not d.startswith("."))
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def lint_source(source: str, path: str) -> list[tuple[int, str]]:
    """``(line, message)`` findings for one module's *source*."""
    try:
        tree = ast.parse(source, path)
        compile(source, path, "exec")
    except SyntaxError as error:
        return [(error.lineno or 0, f"syntax error: {error.msg}")]
    findings = [] if os.path.basename(path) == "__init__.py" \
        else unused_imports(tree, source.splitlines())
    findings += undefined_names(source, path, tree)
    findings += tuple_isinstance(tree, path)
    return sorted(findings)


def unused_imports(tree: ast.Module, lines: list[str]) -> list[tuple[int, str]]:
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    read |= exported_names(tree) | annotation_names(tree)
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name != "*" and bound not in read:
                findings.append((node.lineno, f"unused import {alias.name!r}"))
    return findings


def annotation_names(tree: ast.Module) -> set[str]:
    """Names read by quoted annotations (``x: "Database"``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names: set[str] = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names |= {name.id for name in ast.walk(quoted)
                          if isinstance(name, ast.Name)}
    return names


def exported_names(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__`` list or tuple."""
    names: set[str] = set()
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AugAssign)
                   else [])
        if (any(isinstance(target, ast.Name) and target.id == "__all__"
                for target in targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            names |= {element.value for element in node.value.elts
                      if isinstance(element, ast.Constant)}
    return names


def scopes(table: symtable.SymbolTable) -> Iterator[symtable.SymbolTable]:
    yield table
    for child in table.get_children():
        yield from scopes(child)


def undefined_names(source: str, path: str,
                    tree: ast.Module) -> list[tuple[int, str]]:
    if any(isinstance(node, ast.ImportFrom)
           and any(alias.name == "*" for alias in node.names)
           for node in ast.walk(tree)):
        return []
    module = symtable.symtable(source, path, "exec")
    tables = list(scopes(module))
    # module-level bindings, including ``global`` assignments in functions
    bound = {symbol.get_name() for table in tables
             for symbol in table.get_symbols()
             if (table is module or symbol.is_declared_global())
             and (symbol.is_assigned() or symbol.is_imported()
                  or symbol.is_namespace())}
    missing = {symbol.get_name() for table in tables
               for symbol in table.get_symbols()
               if symbol.is_referenced()
               and (table is module or symbol.is_global())
               and symbol.get_name() not in bound | BUILTIN_NAMES}
    return [(node.lineno, f"undefined name {node.id!r}")
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in missing
            and isinstance(node.ctx, ast.Load)]


def tuple_isinstance(tree: ast.Module, path: str) -> list[tuple[int, str]]:
    """``isinstance`` calls under ``src/`` whose type argument names
    ``tuple``, outside the collection predicate's module."""
    relative = os.path.normpath(os.path.relpath(path, ROOT)
                                if os.path.isabs(path) else path)
    if (relative.split(os.sep)[0] != "src"
            or relative == COLLECTION_PREDICATE_MODULE):
        return []
    findings = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        types = node.args[1]
        names = types.elts if isinstance(types, ast.Tuple) else [types]
        if any(isinstance(name, ast.Name) and name.id == "tuple"
               for name in names):
            findings.append((node.lineno, "isinstance against 'tuple' "
                             "(an OID is a tuple): use is_collection()"))
    return findings


def main(argv: list[str]) -> int:
    paths = argv or ["src", "tests"]
    count = 0
    for path in python_files(paths):
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        for line, message in lint_source(source, path):
            print(f"{path}:{line}: {message}")
            count += 1
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
