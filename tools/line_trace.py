"""A pytest plugin that lists the lines of ``src/fuzzysoft`` no test ran.

Standard library only: a ``sys.settrace`` tracer (and ``threading.settrace``
for threads the tests start) records every line executed in the package
while the session runs, and the terminal summary lists, per module, the
lines that the compiled code can execute but no test did.  Run it from the
root of the repository:

    PYTHONPATH=src python -m pytest -p tools.line_trace -q

The tracer starts before the tests import the package, so module-level
lines count.  Code run in a subprocess (the console-script tests) is not
seen, and tracing slows the suite down, so Hypothesis deadlines that hold
untraced may not hold traced.  The plugin never changes the exit status.
"""

import sys
import threading
import types
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fuzzysoft"

_run: set[tuple[str, int]] = set()
_prefix = str(PACKAGE) + "/"


def _trace_lines(frame, event, arg):
    if event == "line":
        _run.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_lines


def _trace_calls(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(_prefix):
        return None
    _run.add((filename, frame.f_code.co_firstlineno))
    return _trace_lines


def _executable_lines(path: Path) -> set[int]:
    """The lines that some instruction of the module's code belongs to
    (line 0, where CPython starts a module, excluded)."""
    lines = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines - {0}


def _ranges(lines: list[int]) -> str:
    spans, first = [], None
    for i, line in enumerate(lines):
        if first is None:
            first = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            spans.append(str(first) if first == line else f"{first}-{line}")
            first = None
    return ", ".join(spans)


def pytest_configure(config):
    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    total = missed = 0
    report = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = _executable_lines(path)
        run = {line for name, line in _run if name == str(path)}
        unrun = sorted(lines - run)
        total += len(lines)
        missed += len(unrun)
        if unrun:
            report.append(f"  {path.name}: {_ranges(unrun)}")
    terminalreporter.write_sep("-", "line trace of src/fuzzysoft")
    terminalreporter.write_line(f"{total - missed} of {total} executable lines run")
    for line in report:
        terminalreporter.write_line(line)
