"""Tuples are built from lists, at their final size.

``tuple(<generator>)`` and ``tuple(map(...))`` cannot know their length,
so CPython allocates a tuple of 10 slots and shrinks it.  Each call then
leaves a freshly allocated small tuple on a free list once it is freed,
and a build that makes one per record parks memory that grows with its
input until those free lists are full.

``build-nsp`` keeps its distractor pool as texts plus one array, with no
tuple or boxed document number per pool sentence, and per document only
its hash.
"""

import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import nextphrase
from nextphrase.corpus import DEFAULT_GUARDS, split_sentences

from conftest import random_sentence, random_tree_text
from oracles import nsp_pool_oracle

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


# build-nsp on each input at each pool cap in one process, each traced on
# its own after a first build that loads what a build loads
NSP_PEAKS = """
import sys, tracemalloc
from nextphrase.cli import main
out, runs = sys.argv[1], sys.argv[2:]
peaks = []
for number, (emails, cap) in enumerate(zip(runs[::2], runs[1::2])):
    tracemalloc.start()
    assert main(["build-nsp", emails, "--out", f"{out}{number}", "--pool-cap", cap]) == 0
    peaks.append(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
print(*peaks[1:])
"""


def _nsp_peaks(out: Path, *runs: tuple[Path, int]) -> list[int]:
    """The traced peaks of build-nsp on each ``(emails, cap)`` of runs,
    after a first build of the first run whose peak is dropped."""
    argv = [str(part) for run in [runs[0], *runs] for part in run]
    done = subprocess.run(
        [sys.executable, "-c", NSP_PEAKS, str(out), *argv],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    return list(map(int, done.stdout.split()))


def test_build_nsp_pays_few_bytes_per_pool_entry_beyond_its_text(tmp_path):
    rng = random.Random(30)
    emails = [
        " ".join(
            " ".join(random_sentence(rng, 3, 12)).capitalize() + "."
            for _ in range(rng.randint(2, 8))
        )
        for _ in range(800)
    ]
    path = tmp_path / "emails.txt"
    path.write_text("".join(email + "\n" for email in emails), encoding="utf-8")
    documents = [split_sentences(email, DEFAULT_GUARDS) for email in emails]
    caps = (200, 2000)
    assert sum(map(len, documents)) > caps[1]
    small, large = _nsp_peaks(tmp_path / "out", *((path, cap) for cap in caps))
    # the pool's texts at each cap, drawn with the build's default seed
    texts = [nsp_pool_oracle(documents, cap, random.Random(0))[0] for cap in caps]
    text_bytes = sum(map(sys.getsizeof, texts[1])) - sum(map(sys.getsizeof, texts[0]))
    per_entry = (large - small - text_bytes) / (caps[1] - caps[0])
    # 65-78 B with a (doc_index, text) tuple per entry and a sort keyed by
    # a lambda, 18-33 B with the texts and two arrays (3.10 to 3.13), 21 B
    # with the texts and one array of document * len(pool) + position (3.11)
    assert per_entry < 40


def test_build_nsp_pays_few_bytes_per_document(tmp_path):
    rng = random.Random(31)
    sizes = (2_000, 20_000)
    emails = [
        " ".join(" ".join(random_sentence(rng, 3, 6)).capitalize() + "." for _ in range(2))
        for _ in range(sizes[1])
    ]
    paths = [tmp_path / f"emails-{size}.txt" for size in sizes]
    for path, size in zip(paths, sizes):
        path.write_text("".join(email + "\n" for email in emails[:size]), encoding="utf-8")
    small, large = _nsp_peaks(tmp_path / "out", *((path, 50) for path in paths))
    per_document = (large - small) / (sizes[1] - sizes[0])
    # the first pass keeps one 8-byte hash per document; 15 B with an
    # 8-byte first-sentence position per document besides (3.11)
    assert per_document < 12
