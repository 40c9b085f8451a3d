"""The code and docstring line count of ``tools/code_lines.py``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring
on two lines."""

# a comment
NAME = """a string
assigned to a name"""


def f():
    """Function docstring."""
    return NAME  # a trailing comment
'''


def test_docstrings_count_apart_from_code_and_comments_count_as_neither():
    # Docstring: lines 1-2 and 10.  Code: 5-6 (the assigned string), 9 and 11.
    assert code_lines.count(SOURCE) == (4, 3)


def test_the_total_follows_the_modules(tmp_path, capsys, monkeypatch):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
    monkeypatch.setattr(code_lines, "PACKAGE", tmp_path)
    assert code_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["4", "3", "a.py"], ["1", "0", "b.py"], ["5", "3", "total"]]
