"""The src/ line budget, counted the way bench/run.py counts it, and unused or hidden imports."""
import ast
import glob
import os

# the ceiling on src/ lines that every open item in ROADMAP.md holds to: the count once
# the second fiber walk, facet map and norm call, the flow's series loop, descending line
# scans and default_convex left src/
SRC_LINE_BUDGET = 2458

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


def test_src_private_definitions_are_referenced():
    # a deletion can leave a private helper behind once its last import goes too
    trees = {}
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as fh:
            trees[os.path.relpath(path, SRC)] = ast.parse(fh.read())
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = [f"{rel}:{node.lineno} {node.name}" for rel, tree in trees.items()
              for node in tree.body if isinstance(node, defs)
              and node.name.startswith("_") and not node.name.startswith("__")
              and node.name not in used]
    assert not unused


def test_src_imports_only_at_module_level():
    # an import inside a function can hide a cycle between modules
    hidden = []
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        hidden += [f"{os.path.relpath(path, SRC)}:{node.lineno}"
                   for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not hidden


def test_cli_imports_no_private_names():
    # cli orchestrates: a decision it needs from another module is that module's public API
    with open(os.path.join(SRC, "toric_quant", "cli.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    private = [f"{node.lineno} {node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.level > 0 or (
                   node.module or "").split(".")[0] == "toric_quant")
               for alias in node.names if alias.name.startswith("_")]
    assert not private
