import ast
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fuzzysoft.cli import run_cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))


def test_all_five_demos_are_found():
    assert [demo.name[:2] for demo in DEMOS] == ["01", "02", "03", "04", "05"]


def _run_python(args, cwd):
    """Run Python on ``args`` in ``cwd``, with the package's source on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_runs(demo, tmp_path):
    _run_python([str(demo)], tmp_path)


def test_readme_library_quickstart_runs(tmp_path):
    section = (ROOT / "README.md").read_text().split("\n## Library quickstart\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "a1*b1: 0.5 0.7" in _run_python(["-c", block], tmp_path)


def _readme_commands() -> list[str]:
    """The ``fuzzysoft ...`` lines of README's "Command line" code block."""
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("fuzzysoft ")]


def test_readme_lists_eleven_commands():
    assert len(_readme_commands()) == 11


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_exits_zero(line, tmp_path, monkeypatch, capsys):
    # The README's paths are relative to the repository root.
    shutil.copytree(ROOT / "demos", tmp_path / "demos")
    monkeypatch.chdir(tmp_path)
    code = run_cli(shlex.split(line)[1:])
    assert code == 0, capsys.readouterr().err


# pyproject.toml declares requires-python >= 3.10, and CI runs the demos and
# the benchmark there too: every source must parse on 3.10.
SOURCES = [path for folder in ("src", "tests", "demos", "perfbench")
           for path in sorted((ROOT / folder).rglob("*.py"))]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_the_syntax_guard_rejects_newer_syntax():
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
