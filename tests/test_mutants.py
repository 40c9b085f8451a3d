"""The table of ``tools/mutants.py`` still matches the source it mutates.

Every row's source text must occur exactly once in its module, so that a
change to the module cannot leave a mutant that silently mutates nothing
or something else.  No mutant is run here."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_each_mutant_changes_one_site_and_still_compiles(mutant):
    path = mutants.PACKAGE / mutant.module
    text = path.read_text(encoding="utf-8")
    assert text.count(mutant.source) == 1
    assert mutant.replacement != mutant.source
    compile(mutants.mutate(text, mutant), str(path), "exec")
    assert mutant.tests and all((mutants.ROOT / test).is_file() for test in mutant.tests)


def test_mutant_names_are_unique():
    names = [mutant.name for mutant in mutants.MUTANTS]
    assert len(set(names)) == len(names)


def test_mutate_refuses_a_source_that_does_not_occur_once():
    mutant = mutants.Mutant("m", "x.py", "a < b", "a <= b", ("tests/test_x.py",))
    assert mutants.mutate("if a < b:\n", mutant) == "if a <= b:\n"
    for text in ("if a > b:\n", "a < b or a < b\n"):
        with pytest.raises(ValueError, match="not once"):
            mutants.mutate(text, mutant)
