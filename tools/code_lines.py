"""Print the code lines of each module of ``src/octofast/`` and their total,
then the totals of ``tests/`` and ``tools/``.

A code line is one that holds a token other than a comment, ``NL``,
``NEWLINE``, ``INDENT`` or ``DEDENT``, after the docstring of every module,
class and function is dropped; blank lines never count.  Each total is
over the ``*.py`` files directly in its directory.  Run from anywhere:

    python tools/code_lines.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "octofast"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) \
                and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1)
                         if n not in skip)
    return len(lines)


def file_lines(directory: Path) -> dict:
    """The code lines of each ``*.py`` file in ``directory``, by name."""
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("*.py"))}


def main() -> int:
    rows = file_lines(PACKAGE)
    for name, n in rows.items():
        print(f"{n:6d}  {name}")
    print(f"{sum(rows.values()):6d}  total")
    for name in ("tests", "tools"):
        print(f"{sum(file_lines(ROOT / name).values()):6d}  {name}/ total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
