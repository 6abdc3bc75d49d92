"""The standard-library line-coverage tool (``tools/linecov.py``) reports
what it claims to report and nothing else."""

from __future__ import annotations

import importlib.util
import os
import sys
import textwrap
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "linecov", os.path.join(ROOT, "tools", "linecov.py"))
linecov = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linecov)

FIXTURE = textwrap.dedent('''\
    import threading


    def never_called(x):
        y = x + 1
        return y


    def in_worker(flag):
        seen = []

        def work():
            if flag:
                seen.append("worker")
            else:
                seen.append("main")

        worker = threading.Thread(target=work)
        worker.start()
        worker.join()
        return seen


    def guarded(value):
        if value is None:  # pragma: no cover
            value = 0
            value += 1
        try:
            return value
        except TypeError:  # pragma: no cover
            raise
        finally:
            value = None


    def main():
        assert in_worker(True) == ["worker"]
        assert guarded(2) == 2
    ''')


def run_fixture(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    tracer = linecov.LineTracer([str(tmp_path)])
    with tracer:
        spec = importlib.util.spec_from_file_location("linecov_fixture",
                                                      path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main()
    return linecov.report(str(tmp_path), tracer.reached())


def line_of(text: str) -> int:
    return FIXTURE.splitlines().index(text) + 1


def test_reports_exactly_the_unreached_lines(tmp_path):
    result = run_fixture(tmp_path)
    (entry,) = result["files"].values()
    # the body of the uncalled function, and the branch the worker thread
    # did not take; the branch it took counts as reached
    assert entry["unreached"] == [line_of("    y = x + 1"),
                                  line_of("    return y"),
                                  line_of('            seen.append("main")')]
    assert result["unreached"] == 3
    never = [f["function"] for f in result["functions"] if not f["entered"]]
    assert never == ["never_called"]
    partly = [f["function"] for f in result["functions"] if f["entered"]]
    assert partly == ["in_worker.<locals>.work"]


def test_pragma_excludes_the_block_it_starts(tmp_path):
    run_fixture(tmp_path)
    lines, _ = linecov.executable_lines(str(tmp_path / "fixture.py"))
    excluded = {line_of("    if value is None:  # pragma: no cover"),
                line_of("        value = 0"),
                line_of("        value += 1"),
                line_of("    except TypeError:  # pragma: no cover"),
                line_of("        raise")}
    assert not excluded & lines
    # the statements around the excluded blocks still count
    assert line_of("        return value") in lines
    assert line_of("        value = None") in lines


def test_else_header_excludes_its_block():
    source = ("def f(x):\n"
              "    if x:\n"
              "        return 1\n"
              "    else:  # pragma: no cover\n"
              "        y = 2\n"
              "        return y\n"
              "    return 3\n")
    assert linecov.excluded_lines(source) == {4, 5, 6}


def test_the_previous_tracer_is_restored(tmp_path):
    before = (sys.gettrace(), threading.gettrace())
    run_fixture(tmp_path)
    assert (sys.gettrace(), threading.gettrace()) == before


def test_ranges():
    assert linecov.ranges([1, 2, 3, 7, 9, 10]) == "1-3, 7, 9-10"
    assert linecov.ranges([]) == ""
