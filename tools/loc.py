"""Count the code lines of Python files.

    python3 tools/loc.py PATH...

Prints the code lines of each file named, and of each ``.py`` file under
each directory named (in path order), then their total.  A line counts when
it holds a Python token other than a comment and is not part of a
docstring: a string expression that is the first statement of a module, a
class or a function.  Blank lines, comment lines and docstring lines do not
count; each line of a statement that spans several lines does, and so does
each line of a multi-line string that is not a docstring.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of a Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list) -> int:
    total = 0
    for arg in argv:
        path = Path(arg)
        for file in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            count = code_lines(file.read_text(encoding="utf-8"))
            total += count
            print(f"{count:6d}  {file}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
