"""The src/ line budget, counted the way bench/run.py counts it, and unused imports."""
import ast
import glob
import os

# the ceiling on src/ lines that ROADMAP.md item 5 sets for items 1-5
SRC_LINE_BUDGET = 2602

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_src_within_line_budget():
    lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            lines += sum(1 for _ in fh)
    assert 0 < lines <= SRC_LINE_BUDGET


def test_src_has_no_unused_imports():
    # a deletion can leave an import behind; __init__.py imports to re-export
    unused = []
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{os.path.relpath(path, SRC)}:{line} {name}"
                   for name, line in bound.items() if name not in used]
    assert not unused
