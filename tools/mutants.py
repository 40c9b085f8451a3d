"""Run a fixed table of mutants of ``src/fuzzysoft`` against the tests that
should kill them.

Standard library only.  Each row of ``MUTANTS`` names a module, an exact
source text that occurs once in it, its replacement, the test paths to
run and, for a mutant that cannot change any output, why.  Every mutant
is written into a temporary copy of ``src``, never into the checkout, and
its tests run from the temporary folder with that copy first on the path,
stopping at the first failure; a failing test (or a run past ``TIMEOUT``
seconds) kills it.
Run it from the root of the repository:

    python tools/mutants.py

It prints ``killed`` or ``survived`` for each mutant, then the counts and
the time taken, and exits 1 when a mutant not marked equivalent survives.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fuzzysoft"

#: Seconds one mutant's tests may run; a mutant that runs longer (an
#: endless loop, say) is killed.
TIMEOUT = 600


class Mutant(NamedTuple):
    name: str
    module: str
    source: str
    replacement: str
    tests: tuple[str, ...]
    equivalent: str | None = None


_ANALYSIS = ("tests/test_analysis.py", "tests/test_golden_reports.py")
_SETS = ("tests/test_sets.py", "tests/test_golden_sets.py")
_FILEIO = ("tests/test_fileio.py", "tests/test_golden_sets.py")
_SCRIPT = ("tests/test_script.py", "tests/test_golden_sets.py")

MUTANTS = (
    # _walk_cube's screen: the triples it covers, where it stops, which tiles it
    # folds, the plane it reports.
    Mutant("exchange-screened-with-c-from-b0", "analysis.py",
           "slice(b if k == 3 else 0, None)", "slice(b, None)", _ANALYSIS),
    Mutant("screen-break-past-the-plane", "analysis.py",
           "if tile[0].start >= start and not fn.divides:",
           "if tile[0].start > start and not fn.divides:", _ANALYSIS),
    Mutant("screen-break-though-it-divides", "analysis.py",
           "if tile[0].start >= start and not fn.divides:",
           "if tile[0].start >= start:", _ANALYSIS),
    Mutant("screen-folds-every-tile", "analysis.py",
           "folds = tile[0].start < start", "folds = True", _ANALYSIS,
           equivalent="a tile at or past the first failing plane can only report a plane "
                      "at or past it, so the minimum keeps its value: it changes time, "
                      "not output"),
    Mutant("screen-failing-plane-plus-one", "analysis.py",
           "start = min(start, tile[0].start + first_failing)",
           "start = min(start, tile[0].start + first_failing + 1)", _ANALYSIS),
    Mutant("screen-raising-plane-plus-one", "analysis.py",
           "return tile[0].start, True", "return tile[0].start + 1, True", _ANALYSIS),
    # _walk_cube's walk: which tiles it skips, when it stops.
    Mutant("walk-skips-the-start-plane", "analysis.py",
           "if min(tile[0].stop, tile[1].stop or n) <= start:",
           "if min(tile[0].stop, tile[1].stop or n) <= start + 1:", _ANALYSIS),
    Mutant("walk-walks-below-the-start", "analysis.py",
           "if min(tile[0].stop, tile[1].stop or n) <= start:",
           "if tile[0].stop <= start:", _ANALYSIS),
    Mutant("walk-stops-though-it-may-raise", "analysis.py",
           "if witness and not may_raise:", "if witness:", _ANALYSIS),
    Mutant("walk-stops-an-uncompiled-candidate", "analysis.py",
           "start, may_raise = 0, not compiled or fn.divides",
           "start, may_raise = 0, compiled and fn.divides", _ANALYSIS),
    # The witness: the lexicographically smallest violation, ties to the earlier part.
    Mutant("witness-largest-first-column", "analysis.py",
           "mask = mask & (col == np.min(col, where=mask, initial=np.inf))",
           "mask = mask & (col == np.max(col, where=mask, initial=-np.inf))", _ANALYSIS),
    Mutant("witness-columns-reversed", "analysis.py",
           "for col in cols:", "for col in cols[::-1]:", _ANALYSIS),
    Mutant("witness-tie-to-the-later-part", "analysis.py",
           "if found and (witness is None or found.args < witness.args):",
           "if found and (witness is None or found.args <= witness.args):", _ANALYSIS),
    # The sample draws, x before y: only a reference that draws on its own can kill these.
    Mutant("sample-columns-reversed", "analysis.py",
           "return lambda rng, m: tuple(rng.random(m) for _ in range(count))",
           "return lambda rng, m: tuple(rng.random(m) for _ in range(count))[::-1]",
           ("tests/test_analysis.py",)),
    Mutant("pair-draw-y-before-x", "analysis.py",
           "        x1, x2 = _sorted_pair(rng, m) if sort_x else (rng.random(m),) * 2\n"
           "        y1, y2 = _sorted_pair(rng, m) if sort_y else (rng.random(m),) * 2\n",
           "        y1, y2 = _sorted_pair(rng, m) if sort_y else (rng.random(m),) * 2\n"
           "        x1, x2 = _sorted_pair(rng, m) if sort_x else (rng.random(m),) * 2\n",
           ("tests/test_analysis.py",)),
    # _part_witness: when an "==" part passes, and each relation's violations.
    Mutant("part-passes-on-the-max-alone", "analysis.py",
           "if diff.max(initial=0.0) <= tol and diff.min(initial=0.0) >= -tol:",
           "if diff.max(initial=0.0) <= tol:", _ANALYSIS),
    Mutant("part-passes-on-the-min-alone", "analysis.py",
           "if diff.max(initial=0.0) <= tol and diff.min(initial=0.0) >= -tol:",
           "if diff.min(initial=0.0) >= -tol:", _ANALYSIS),
    Mutant("violation-equal-lets-nan-pass", "analysis.py",
           "bad = ~(np.abs(diff, out=diff) <= tol)",
           "bad = np.abs(diff, out=diff) > tol", _ANALYSIS),
    Mutant("violation-at-most-without-tolerance", "analysis.py",
           "bad = ~(got <= want + tol)", "bad = ~(got <= want)", _ANALYSIS),
    Mutant("violation-at-least-without-tolerance", "analysis.py",
           "bad = ~(got >= want - tol)", "bad = ~(got >= want)", _ANALYSIS),
    Mutant("violation-codomain-without-tolerance", "analysis.py",
           "bad = ~((got >= -tol) & (got <= 1.0 + tol))",
           "bad = ~((got >= 0.0) & (got <= 1.0))", _ANALYSIS),
    # apply_connective's collision check.
    Mutant("collision-needs-equal-rows", "sets.py",
           ".max(axis=1) > CLAMP_TOLERANCE", ".max(axis=1) > 0.0", _SETS),
    Mutant("collision-needs-every-element-apart", "sets.py",
           ".max(axis=1) > CLAMP_TOLERANCE", ".min(axis=1) > CLAMP_TOLERANCE", _SETS),
    Mutant("collision-checks-pairs-past-the-fault", "sets.py",
           "limit = p1 * p2 if fault is None else fault[0]", "limit = p1 * p2", _SETS),
    # _run_kernel: the pairs before an out-of-range value are clamped.
    Mutant("kernel-fault-leaves-values-unclamped", "sets.py",
           "np.clip(raw[:checked], 0.0, 1.0, out=out[start:start + checked])",
           "out[start:start + checked] = raw[:checked]", _SETS),
    # The loader's check order: the first fault in document order is raised.
    Mutant("loader-duplicate-keys-inner-first", "fileio.py",
           'for path, obj in [("", doc), ("parameters.", raw_parameters), *repeating]:',
           'for path, obj in [*repeating, ("parameters.", raw_parameters), ("", doc)]:',
           _FILEIO),
    Mutant("loader-later-fault-before-a-float-row", "fileio.py",
           "if (outside := ~((matrix >= 0.0) & (matrix <= 1.0))).any():",
           "if fault is None and (outside := ~((matrix >= 0.0) & (matrix <= 1.0))).any():",
           _FILEIO),
    # save_fss's bytes.
    Mutant("save-label-separator-swapped", "fileio.py",
           'separators = np.array(["", RESERVED_SEPARATOR], dtype=object)',
           'separators = np.array([RESERVED_SEPARATOR, ""], dtype=object)', _FILEIO),
    Mutant("save-element-separator-spaced", "fileio.py",
           'prefixes = [",\\n      " + encode_basestring_ascii(element) + ": "',
           'prefixes = [", \\n      " + encode_basestring_ascii(element) + ": "', _FILEIO),
    # eval_script's one SetOp branch: its operands in order, complement's negation.
    Mutant("script-operands-reversed", "script.py",
           "*map(eval_set, node.operands)", "*map(eval_set, node.operands[::-1])", _SCRIPT),
    Mutant("script-complement-is-sugeno", "script.py",
           '{"complement": "standard-negation",', '{"complement": "sugeno(1)",', _SCRIPT),
)


def mutate(text: str, mutant: Mutant) -> str:
    """``text`` with the mutant's one occurrence of its source replaced."""
    found = text.count(mutant.source)
    if found != 1:
        raise ValueError(f"{mutant.name}: its source occurs {found} times in "
                         f"{mutant.module}, not once")
    return text.replace(mutant.source, mutant.replacement)


def _killed(mutant: Mutant, work: Path) -> bool:
    """Whether the mutant's tests fail with it written into ``work / "src"``,
    a copy of the package's source; the copy is restored afterwards."""
    original = (PACKAGE / mutant.module).read_text(encoding="utf-8")
    target = work / "src" / "fuzzysoft" / mutant.module
    target.write_text(mutate(original, mutant), encoding="utf-8")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *(str(ROOT / test) for test in mutant.tests)]
    try:
        code = subprocess.run(command, cwd=work, env=_environment(work), timeout=TIMEOUT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    except subprocess.TimeoutExpired:
        return True
    finally:
        target.write_text(original, encoding="utf-8")
    # pytest exits 1 when a test fails and 2 when a test module fails to
    # import; any other status means the run itself went wrong.
    if code not in (0, 1, 2):
        raise RuntimeError(f"{mutant.name}: pytest exited {code}")
    return code != 0


def _environment(work: Path) -> dict:
    """The environment of a run: the copy first on the path, no bytecode written."""
    path = os.pathsep.join(filter(None, [str(work / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")


def main() -> int:
    started = time.perf_counter()
    killed, survivors = 0, []
    with tempfile.TemporaryDirectory(prefix="fuzzysoft-mutants-") as tmp:
        work = Path(tmp)
        shutil.copytree(PACKAGE.parent, work / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        probe = [sys.executable, "-c", "import fuzzysoft; print(fuzzysoft.__file__)"]
        imported = subprocess.run(probe, cwd=work, env=_environment(work), capture_output=True,
                                  text=True, check=True).stdout.strip()
        if not imported.startswith(str(work / "src")):
            raise RuntimeError(f"the tests would import {imported}, not the copy in {work}")
        for mutant in MUTANTS:
            began = time.perf_counter()
            if _killed(mutant, work):
                killed += 1
                verdict = "killed"
            else:
                survivors.append(mutant)
                verdict = "survived"
                if mutant.equivalent:
                    verdict += f", equivalent because {mutant.equivalent}"
            print(f"{mutant.name} [{mutant.module}]: {verdict} "
                  f"({time.perf_counter() - began:.0f} s)", flush=True)
    unexplained = [mutant for mutant in survivors if not mutant.equivalent]
    print(f"{killed} killed, {len(survivors)} survived ({len(unexplained)} not marked "
          f"equivalent) in {time.perf_counter() - started:.0f} s")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
