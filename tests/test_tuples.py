"""Tuples are built from lists, at their final size.

``tuple(<generator>)`` and ``tuple(map(...))`` cannot know their length,
so CPython allocates a tuple of 10 slots and shrinks it.  Each call then
leaves a freshly allocated small tuple on a free list once it is freed,
and a build that makes one per record parks memory that grows with its
input until those free lists are full.
"""

import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import nextphrase

from conftest import random_tree_text

PACKAGE = Path(nextphrase.__file__).parent
SRC = str(PACKAGE.parent)


def _unsized_tuple_calls(source: str) -> list[int]:
    """The lines of the tuple(...) calls whose argument is a generator
    expression or a map, filter or zip call."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id != "tuple" or len(node.args) != 1:
            continue
        (arg,) = node.args
        if isinstance(arg, ast.GeneratorExp) or (
            isinstance(arg, ast.Call)
            and isinstance(arg.func, ast.Name)
            and arg.func.id in ("map", "filter", "zip")
        ):
            lines.append(node.lineno)
    return lines


def test_the_lint_finds_each_unsized_argument():
    source = "\n".join(
        [
            "tuple(x for x in y)",
            "tuple(map(str, y))",
            "tuple(filter(None, y))",
            "tuple(zip(y, y))",
            "tuple([x for x in y])",
            "tuple(y)",
            "tuple(list(map(str, y)))",
        ]
    )
    assert _unsized_tuple_calls(source) == [1, 2, 3, 4]


def test_no_tuple_is_built_from_a_generator_or_an_iterator():
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _unsized_tuple_calls(path.read_text(encoding="utf-8"))
    ]
    assert found == []


# two builds in one process, tracemalloc on from the start: what the
# second still holds past the first is memory that grows with the input
TWO_BUILDS = """
import sys, tracemalloc
tracemalloc.start()
from nextphrase.cli import main
held = []
for trees, out in zip(sys.argv[1::2], sys.argv[2::2]):
    assert main(["build-npp", trees, "--out", out]) == 0
    held.append(tracemalloc.get_traced_memory()[0])
print(held[1] - held[0])
"""


def test_build_npp_holds_no_more_after_ten_times_the_trees(tmp_path):
    rng = random.Random(27)
    trees = [random_tree_text(rng) + "\n" for _ in range(3000)]
    small, large = tmp_path / "small.txt", tmp_path / "large.txt"
    small.write_text("".join(trees[:300]), encoding="utf-8")
    large.write_text("".join(trees), encoding="utf-8")
    argv = [str(small), str(tmp_path / "out-small"), str(large), str(tmp_path / "out-large")]
    done = subprocess.run(
        [sys.executable, "-c", TWO_BUILDS, *argv],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    # 680 KiB with tuples built from generators, 36 KiB from lists (3.11);
    # the bound leaves room for what CPython parks by itself, such as
    # freed 20-item tuples, which 3.11 keeps on a free list but never reuses
    assert int(done.stdout) < 256 * 1024
