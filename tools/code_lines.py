"""Count the lines of Python modules that hold code and that hold docstrings.

Standard library only.  A line holds docstring if a STRING token that is a
whole statement spans it; it holds code if any other token spans it,
except COMMENT, NL, NEWLINE, INDENT and DEDENT.  Blank and comment-only
lines count as neither.  Run it from the root of the repository:

    python tools/code_lines.py

It prints one line per module of ``src/fuzzysoft``, then the total, each
as ``code docstring name``.
"""

import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fuzzysoft"

#: Tokens that neither hold code nor end a statement's code.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT}


def count(source: str) -> tuple[int, int]:
    """(code lines, docstring lines) of one module's source."""
    code, docstring = set(), set()
    statement = []
    readline = iter(source.splitlines(keepends=True)).__next__
    for token in tokenize.generate_tokens(readline):
        if token.type in _LAYOUT:
            continue
        if token.type not in (tokenize.NEWLINE, tokenize.ENDMARKER):
            statement.append(token)
            continue
        lone_string = len(statement) == 1 and statement[0].type == tokenize.STRING
        for tok in statement:
            (docstring if lone_string else code).update(range(tok.start[0], tok.end[0] + 1))
        statement = []
    return len(code), len(docstring)


def main() -> int:
    total_code = total_docstring = 0
    for module in sorted(PACKAGE.glob("*.py")):
        code, docstring = count(module.read_text(encoding="utf-8"))
        total_code += code
        total_docstring += docstring
        print(f"{code:6} {docstring:6} {module.name}")
    print(f"{total_code:6} {total_docstring:6} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
