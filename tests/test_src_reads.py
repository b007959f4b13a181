"""Every function, class and class-level annotated field that `src/tabpretrain`
defines is read somewhere in `src/tabpretrain`, so code that only the tests
reach does not stay there.

A name counts as read where it appears as a name token outside its own
definition line, in any module of the package, or as a string constant, which
covers by-name lookups such as `training._contrastive_loss`'s
`getattr(losses, name)`. Dunder names are exempt.
"""

from __future__ import annotations

import ast
import io
import os
import tokenize

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "tabpretrain")

# read outside src only, each with its reason
EXCEPTIONS = {
    "data.process_csv": "perfbench's scarf_mixed ingestion, until ROADMAP item 1 ports it",
    "corruption.CorruptionDraw.index_sets": "perfbench/spans.py's corruption counters, until "
                                            "ROADMAP item 1 ports them",
}


def _definitions(tree: ast.Module, module: str):
    """(qualified name, name, definition line) of each function, class and
    class-level annotated field of one module, at any depth."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{prefix}.{child.name}", child.name, child.lineno
                yield from walk(child, f"{prefix}.{child.name}")
            elif (isinstance(node, ast.ClassDef) and isinstance(child, ast.AnnAssign)
                  and isinstance(child.target, ast.Name)):
                yield f"{prefix}.{child.target.id}", child.target.id, child.lineno
            elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, prefix)
    yield from walk(tree, module)


def unread(root: str = SRC) -> list[str]:
    """The qualified names (`module.Class.name`) defined in the package at
    `root` that nothing in it reads, sorted."""
    defined, lines_of, strings = [], {}, set()
    for name in sorted(n for n in os.listdir(root) if n.endswith(".py")):
        module = name[:-3]
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            source = fh.read()
        tree = ast.parse(source)
        defined += [(qualified, short, (module, line))
                    for qualified, short, line in _definitions(tree, module)]
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NAME:
                lines_of.setdefault(tok.string, set()).add((module, tok.start[0]))
        strings.update(node.value for node in ast.walk(tree)
                       if isinstance(node, ast.Constant) and isinstance(node.value, str))
    return sorted(qualified for qualified, short, where in defined
                  if not (short.startswith("__") and short.endswith("__"))
                  and not lines_of.get(short, set()) - {where} and short not in strings)


def test_src_defines_nothing_that_src_does_not_read():
    assert unread() == sorted(EXCEPTIONS), "defined in src, read by no src code"


def test_the_rule_on_a_small_package(tmp_path):
    """A name read only on its own definition line is unread; one read on
    another line, in another module or as a string is read; dunders are
    exempt; annotated fields count at class level only."""
    (tmp_path / "a.py").write_text(
        "def lonely(): return lonely\n"
        "def called(): pass\n"
        "def by_name(): pass\n"
        "class Box:\n"
        "    kept: int\n"
        "    dropped: int\n"
        "    def __init__(self): self.local: int = self.kept\n"
        "    def unused(self): pass\n"
        "KEY = 'by_name'\n")
    (tmp_path / "b.py").write_text("from a import Box, called\ncalled()\n")
    assert unread(str(tmp_path)) == ["a.Box.dropped", "a.Box.unused", "a.lonely"]
