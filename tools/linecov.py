"""Which lines under ``src/`` does the test suite never run?

A line-coverage tool that needs nothing beyond the standard library.  It
runs pytest in this process under a line tracer and prints, for every file
under ``src/``, the executable lines that never ran, and then every
function with unreached lines, marking those that were never entered at
all.

Usage (from anywhere; the tool runs pytest from the repository root, with
``src`` on the import path, like the tier-1 command)::

    python tools/linecov.py [-- PYTEST_ARGS ...]

Arguments after ``--`` go to pytest unchanged (default: ``-q``).  Traced,
the tier-1 suite runs several times slower than untraced.

What it counts:

* A line is *executable* if some code object compiled from the file maps
  an instruction to it (``co_lines()``): docstrings of functions, blank
  lines, comments and the continuation lines of a statement whose
  instructions all sit on its first line are not.
* A line marked ``# pragma: no cover`` is excluded, and so is the whole
  block it starts: a ``def``, ``class``, ``if``, ``except``, ``else:`` or
  ``finally:`` header excludes its body, any other statement its own lines.
* A line is *reached* if it ran in the pytest process, on the main thread
  or on any thread started through :mod:`threading` after the tracer was
  installed.  The tracer is installed before pytest starts, so import-time
  lines (module bodies, ``def`` and ``class`` statements) count.
* Lines that run only in a child process (``subprocess``,
  ``multiprocessing``) are **not** seen and count as unreached.

The exit status is pytest's.  There is no coverage threshold: the report is
for reading, not a gate.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import threading
import tokenize
import types
from typing import Iterable, Iterator

#: the repository root
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRAGMA = "pragma: no cover"


def code_objects(code: types.CodeType) -> Iterator[types.CodeType]:
    """``code`` and every code object nested in it, depth first."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from code_objects(const)


def code_lines(code: types.CodeType) -> set[int]:
    """The lines ``code`` itself (not its nested code) maps instructions to."""
    return {line for _, _, line in code.co_lines() if line is not None}


def excluded_lines(source: str) -> set[int]:
    """The lines a ``# pragma: no cover`` comment excludes."""
    marked = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT and PRAGMA in token.string:
            marked.add(token.start[0])
    if not marked:
        return set()
    # (first line with decorators, header line, last line) of every block
    # a marked line may start; None for ``else:``/``finally:`` blocks,
    # whose header is not a node of its own
    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.stmt, ast.ExceptHandler)):
            first = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", ())])
            spans.append((first, node.lineno, node.end_lineno))
        for field in ("orelse", "finalbody"):
            block = getattr(node, field, None)
            if block and isinstance(node, ast.stmt):
                # an ``else:``/``finally:`` header has no node of its own:
                # it is the line above the block's first statement
                spans.append((None, block[0].lineno, block[-1].end_lineno))
    excluded = set()
    lines = source.splitlines()
    for line in marked:
        span = _block_at(line, spans, lines)
        excluded.update(range(span[0], span[1] + 1))
    return excluded


def _block_at(line: int, spans, lines: list[str]) -> tuple[int, int]:
    """The first and last line a pragma on *line* excludes."""
    for first, start, end in spans:
        if first is not None and first <= line <= start:
            return first, end
    for first, start, end in spans:
        if first is None and line < start and _header_between(lines, line,
                                                               start):
            return line, end
    return line, line


def _header_between(lines: list[str], line: int, start: int) -> bool:
    """Whether ``line`` is an ``else:``/``finally:`` header directly above
    the block that starts at ``start`` (only blank or comment lines
    between)."""
    text = lines[line - 1].split("#", 1)[0].strip()
    if text not in ("else:", "finally:"):
        return False
    return all(not lines[i].strip() or lines[i].lstrip().startswith("#")
               for i in range(line, start - 1))


def executable_lines(path: str) -> tuple[set[int], list[tuple[str, int,
                                                               set[int]]]]:
    """The executable lines of the file at ``path`` (pragma-excluded lines
    removed), and its functions as ``(qualname, first line, own lines)``."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    excluded = excluded_lines(source)
    module = compile(source, path, "exec", dont_inherit=True)
    lines: set[int] = set()
    functions = []
    for code in code_objects(module):
        own = code_lines(code) - excluded
        lines |= own
        if code is not module and not code.co_name.startswith("<"):
            # the ``def`` line runs in the enclosing scope
            body = own - {code.co_firstlineno}
            if body:
                functions.append((code.co_qualname, code.co_firstlineno,
                                  body))
    return lines, functions


class LineTracer:
    """Records which lines of the files under ``roots`` run, on the
    current thread and on every thread started after :meth:`start`.

    A code object stops being traced once all its lines have run, so hot,
    fully covered code costs one dictionary lookup per call.
    """

    def __init__(self, roots: Iterable[str]):
        self.roots = tuple(os.path.join(os.path.abspath(root), "")
                           for root in roots)
        #: code object -> its local trace function, or None (not traced)
        self._tracers: dict[types.CodeType, object] = {}
        #: (file name, all lines, lines not yet run) per traced code object
        self._codes: list[tuple[str, set[int], set[int]]] = []
        self._previous = None

    def _trace(self, frame, event, arg):
        try:
            local = self._tracers[frame.f_code]
        except KeyError:
            local = self._new_code(frame.f_code)
        if local is not None:
            return local(frame, event, arg)
        return None

    def _new_code(self, code: types.CodeType):
        local = None
        if os.path.abspath(code.co_filename).startswith(self.roots):
            lines = code_lines(code)
            remaining = set(lines)
            self._codes.append((os.path.abspath(code.co_filename), lines,
                                remaining))
            local = self._local(code, remaining)
        self._tracers[code] = local
        return local

    def _local(self, code: types.CodeType, remaining: set[int]):
        tracers = self._tracers
        discard = remaining.discard

        def local(frame, event, arg):
            discard(frame.f_lineno)
            if remaining:
                return local
            tracers[code] = None
            frame.f_trace = None
            return None
        return local

    def start(self) -> None:
        self._previous = (sys.gettrace(), threading.gettrace())
        threading.settrace(self._trace)
        sys.settrace(self._trace)

    def stop(self) -> None:
        previous_sys, previous_threading = self._previous
        sys.settrace(previous_sys)
        threading.settrace(previous_threading)

    def __enter__(self) -> "LineTracer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def reached(self) -> dict[str, set[int]]:
        """Absolute file name -> the lines that ran."""
        reached: dict[str, set[int]] = {}
        for filename, lines, remaining in self._codes:
            reached.setdefault(filename, set()).update(lines - remaining)
        return reached


def python_files(directory: str) -> Iterator[str]:
    for root, dirs, files in os.walk(directory):
        dirs[:] = sorted(d for d in dirs if not d.startswith("."))
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(root, name)


def report(directory: str, reached: dict[str, set[int]]) -> dict:
    """Unreached lines per file and per function under ``directory``."""
    files = {}
    functions = []
    total = unreached_total = 0
    for path in python_files(directory):
        lines, defs = executable_lines(path)
        ran = reached.get(os.path.abspath(path), set())
        unreached = sorted(lines - ran)
        relative = os.path.relpath(path, ROOT)
        total += len(lines)
        unreached_total += len(unreached)
        if unreached:
            files[relative] = {"executable": len(lines),
                               "unreached": unreached}
        for qualname, first, body in defs:
            missed = body - ran
            if missed:
                functions.append({"file": relative, "line": first,
                                  "function": qualname,
                                  "unreached": len(missed),
                                  "lines": len(body),
                                  "entered": missed != body})
    return {"executable": total, "unreached": unreached_total,
            "files": files, "functions": functions}


def ranges(lines: list[int]) -> str:
    """``[1, 2, 3, 7]`` -> ``"1-3, 7"``."""
    parts = []
    start = previous = None
    for line in lines + [None]:
        if previous is not None and line == previous + 1:
            previous = line
            continue
        if start is not None:
            parts.append(str(start) if start == previous
                         else f"{start}-{previous}")
        start = previous = line
    return ", ".join(parts)


def print_report(result: dict, out=sys.stdout) -> None:
    print("unreached lines per file:", file=out)
    for path, entry in result["files"].items():
        print(f"  {path}  {len(entry['unreached'])}/{entry['executable']}: "
              f"{ranges(entry['unreached'])}", file=out)
    print("functions with unreached lines:", file=out)
    never = [f for f in result["functions"] if not f["entered"]]
    for entry in result["functions"]:
        mark = "  never entered" if not entry["entered"] else ""
        print(f"  {entry['file']}:{entry['line']} {entry['function']}  "
              f"{entry['unreached']}/{entry['lines']}{mark}", file=out)
    share = 100.0 * result["unreached"] / max(result["executable"], 1)
    print(f"{len(never)} functions never entered "
          f"({sum(f['lines'] for f in never)} lines)", file=out)
    print(f"unreached: {result['unreached']} of {result['executable']} "
          f"executable lines ({share:.1f} %)", file=out)


def main(argv: list[str]) -> int:
    if "--" in argv:
        split = argv.index("--")
        argv, pytest_args = argv[:split], argv[split + 1:]
    else:
        pytest_args = ["-q"]
    parser = argparse.ArgumentParser(
        description="Run pytest under a line tracer and report the lines "
                    "under src/ that never ran.  Lines that run only in a "
                    "child process count as unreached.  Arguments after "
                    "-- go to pytest (default: -q).")
    parser.parse_args(argv)
    os.chdir(ROOT)
    source_root = os.path.join(ROOT, "src")
    # what ``PYTHONPATH=src python -m pytest`` puts first on the path: the
    # source tree and the working directory (tests import ``tests.…``)
    sys.path[:0] = [source_root, ROOT]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    tracer = LineTracer([source_root])
    tracer.start()
    try:
        import pytest
        status = pytest.main(pytest_args)
    finally:
        tracer.stop()
    print_report(report(source_root, tracer.reached()))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
