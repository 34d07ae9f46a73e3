"""The src/ line budget, counted the way bench/run.py counts it."""
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
