"""Size of the package source, per module and in total.

Run as `python tests/src_lines.py [DIR]` (default: `src/tabpretrain` beside
this directory). It prints one line per module, `<lines> <code> <statements>
<name>`, then the same three counts for all modules:

- lines: the lines of the file, as `wc -l` counts them;
- code: the lines that hold a token other than a comment, after the
  docstrings of the module, its classes and its functions are taken out, so
  blank, comment and docstring lines do not count;
- statements: the `ast` statement nodes, docstrings not counted.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

LAYOUT = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER)


def counts(source: str) -> tuple[int, int, int]:
    """(lines, code lines, statements) of one module's source."""
    tree = ast.parse(source)
    docstrings = [node.body[0] for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)]
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for doc in docstrings:
        code.difference_update(range(doc.lineno, doc.end_lineno + 1))
    statements = sum(isinstance(node, ast.stmt) for node in ast.walk(tree)) - len(docstrings)
    return source.count("\n"), len(code), statements


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = argv[0] if argv else os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                                             "src", "tabpretrain")
    total = [0, 0, 0]
    for name in sorted(n for n in os.listdir(root) if n.endswith(".py")):
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            row = counts(fh.read())
        total = [t + c for t, c in zip(total, row)]
        print(f"{row[0]:6d} {row[1]:6d} {row[2]:6d} {name}")
    print(f"{total[0]:6d} {total[1]:6d} {total[2]:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
