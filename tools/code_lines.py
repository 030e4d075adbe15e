"""Count package code lines: lines that hold a code token, outside comments and docstrings.

    python3 tools/code_lines.py [PATH ...]

Each PATH is a Python file or a directory searched for `*.py` files (default
`src`, relative to the working directory). A line counts when some token on
it is code: comments, blank lines and the docstrings of modules, classes and
functions count for nothing, and a token that spans several lines (a
multi-line string that is not a docstring) counts on each of them. Prints
each file's count and the total.
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers of the module, class and function docstrings of a parsed source."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source):
    """The number of lines of `source` that hold a code token."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def python_files(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None):
    total = 0
    for path in python_files((argv if argv is not None else sys.argv[1:]) or ["src"]):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
