"""Golden hashes of the build outputs.

Every data file and every ``stats.json`` that ``build-npp``,
``build-pairs`` and ``build-nsp`` write is pinned by sha256, together
with the manifest's ``command`` and ``counts``.  The manifest's
``inputs`` (absolute paths) and ``created_at`` are left out, because
they move between runs.  A change to the build commands that keeps
these hashes keeps their output byte for byte; one that changes them
changes the output format and must say so.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import nextphrase
from nextphrase.cli import main

from conftest import DOG, EAT_PIE, SHOP, random_sentence, random_tree_text

NPP_FILES = {
    "instances.jsonl": "7be8d6629dd8bfd0fd729642978ccf40fedf0b82893bb7b20a89eb53fe5c477c",
    "stats.json": "0605396c9683e1a9b870a33d318e26d36b7ee5d465667f29c5f53674b5afc66b",
}
NPP_COUNTS = {
    "sentences_read": 103,
    "instances_written": 56,
    "skips": {"no_eligible_group": 39, "ambiguous_choices": 8},
}

NPP_SAMPLE_FILES = {
    "instances.jsonl": "f5573b4031749f278e2bb95cbe4d299ffbf3e03e319275b3789476426748402b",
    "stats.json": "097d92983a03caa68395a87ec49e00e6c56f6a9dd83e875a51fb6cb0d41cf9b5",
}
NPP_SAMPLE_COUNTS = {
    "sentences_read": 20,
    "instances_written": 12,
    "skips": {"ambiguous_choices": 1, "no_eligible_group": 7},
    "sentences_scanned": 103,
}

PAIRS_TREEBANK_FILES = {
    "pairs_train.jsonl": "a5759beb3bfd45fcfce1d881505c419c67e7aa9d95375ab90353c585551a6f53",
    "pairs_dev.jsonl": "b54f9ac234eea5e28f71e2b4974a85a2f138d42db9a6a68b1ad7022769b753d3",
    "pairs_test.jsonl": "91e848a2ecbd3be9911963800215740a129e2d7381fe48edd82a1b7af9879367",
    "stats.json": "44071fc496b8eb09e68114f52bf559f31edc7585d4aee853a4c7e1a2abe495ac",
}
PAIRS_TREEBANK_COUNTS = {
    "sentences_read": 103,
    "pairs_written": 7675,
    "skips": {"too_short": 31},
    "sentences": {"train": 83, "dev": 10, "test": 10},
    "pairs": {"train": 6025, "dev": 665, "test": 985},
}

PAIRS_LINES_FILES = {
    "pairs_train.jsonl": "a9be09e320324261f4c719f7334f751011a47a985b2f5e6b0cdb7982e85da5ca",
    "pairs_dev.jsonl": "0f3d748301ffb80ce7b3e51bda504e79c21c4ac2ef5ae1ed2e5837aacd64832e",
    "pairs_test.jsonl": "1548e01d770a09be98b13807f9f17bc1c460bf50adda49bfea42d1c355636e05",
    "stats.json": "772fd80272eefb7a8ff59ecaf1df1669d24bf6bca73514ecccee901ef717c76c",
}
PAIRS_LINES_COUNTS = {
    "sentences_read": 75,
    "pairs_written": 525,
    "skips": {},
    "sentences": {"train": 61, "dev": 7, "test": 7},
    "pairs": {"train": 423, "dev": 46, "test": 56},
}

NSP_FILES = {
    "instances.jsonl": "9453d1fad17767bbbcf4e4239b523dcb1828dab7b0dba56ecd1ffd6bed556398",
    "stats.json": "85494af969eff79e7f678fc415da7c4bd959f6afb1e3dfebecddfe3e9edb70fe",
}
NSP_COUNTS = {"contexts_read": 45, "instances_written": 45, "skips": {}}


def _trees(tmp_path):
    # the 103 trees of acceptance criterion 7
    rng = random.Random(77)
    lines = [SHOP, EAT_PIE, DOG] + [random_tree_text(rng) for _ in range(100)]
    path = tmp_path / "trees.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def _documents(tmp_path):
    """30 one-line documents of one to four capitalised sentences."""
    rng = random.Random(33)
    documents = []
    for _ in range(30):
        sentences = [
            " ".join(random_sentence(rng, 2, 12)).capitalize() + "."
            for _ in range(rng.randint(1, 4))
        ]
        documents.append(" ".join(sentences))
    path = tmp_path / "docs.txt"
    path.write_text("".join(doc + "\n" for doc in documents), encoding="utf-8")
    return path


RUNS = {
    "npp-w1": (_trees, ["build-npp", "--seed", "11", "--workers", "1"], NPP_FILES, NPP_COUNTS),
    "npp-w2": (_trees, ["build-npp", "--seed", "11", "--workers", "2"], NPP_FILES, NPP_COUNTS),
    "npp-sample": (
        _trees,
        ["build-npp", "--seed", "11", "--sample", "20"],
        NPP_SAMPLE_FILES,
        NPP_SAMPLE_COUNTS,
    ),
    # the sample is drawn in the first pass; each block reads the tree
    # lines again and builds only the drawn ones
    "npp-sample-w2": (
        _trees,
        ["build-npp", "--seed", "11", "--sample", "20", "--workers", "2"],
        NPP_SAMPLE_FILES,
        NPP_SAMPLE_COUNTS,
    ),
    "pairs-treebank-w1": (
        _trees,
        ["build-pairs", "--seed", "11", "--input-mode", "treebank"],
        PAIRS_TREEBANK_FILES,
        PAIRS_TREEBANK_COUNTS,
    ),
    "pairs-treebank-w2": (
        _trees,
        ["build-pairs", "--seed", "11", "--input-mode", "treebank", "--workers", "2"],
        PAIRS_TREEBANK_FILES,
        PAIRS_TREEBANK_COUNTS,
    ),
    "pairs-lines": (
        _documents,
        ["build-pairs", "--seed", "11"],
        PAIRS_LINES_FILES,
        PAIRS_LINES_COUNTS,
    ),
    "pairs-lines-w2": (
        _documents,
        ["build-pairs", "--seed", "11", "--workers", "2"],
        PAIRS_LINES_FILES,
        PAIRS_LINES_COUNTS,
    ),
    "nsp": (
        _documents,
        ["build-nsp", "--seed", "11", "--distractors", "2"],
        NSP_FILES,
        NSP_COUNTS,
    ),
    "nsp-w2": (
        _documents,
        ["build-nsp", "--seed", "11", "--distractors", "2", "--workers", "2"],
        NSP_FILES,
        NSP_COUNTS,
    ),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("run", sorted(RUNS))
def test_build_outputs_match_golden_hashes(tmp_path, run):
    make_input, argv, files, counts = RUNS[run]
    source = make_input(tmp_path)
    out = tmp_path / "out"
    command, *options = argv
    assert main([command, str(source), "--out", str(out), *options]) == 0
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted([*files, "manifest.json"])
    assert {name: _sha256(out / name) for name in files} == files
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == command
    assert manifest["counts"] == counts
    assert list(manifest["counts"]) == list(counts)


@pytest.mark.parametrize("run", ["npp-w1", "npp-w2", "pairs-treebank-w1", "pairs-lines"])
def test_an_input_that_opens_with_a_byte_order_mark_builds_the_same_files(tmp_path, run):
    # as an editor that saves "UTF-8 with BOM" writes it: the mark is no
    # part of the first tree or document, and only the manifest's digest
    # of the input, which hashes its bytes, differs
    make_input, argv, files, counts = RUNS[run]
    source = make_input(tmp_path)
    source.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    out = tmp_path / "out"
    command, *options = argv
    assert main([command, str(source), "--out", str(out), *options]) == 0
    assert {name: _sha256(out / name) for name in files} == files
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["counts"] == counts
    assert manifest["inputs"] == {str(source): _sha256(source)}


def test_build_npp_without_the_builtin_sha256_writes_the_same_bytes(tmp_path):
    # an interpreter with neither _sha2 nor _sha256 hashes with hashlib
    source = _trees(tmp_path)
    out = tmp_path / "out"
    code = (
        "import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
        "import hashlib; from nextphrase import instances; from nextphrase.cli import main; "
        "code = main(sys.argv[1:]); print(instances.sha256 is hashlib.sha256, code)"
    )
    argv = ["build-npp", str(source), "--out", str(out), "--seed", "11"]
    result = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(nextphrase.__file__).parents[1])},
    )
    assert result.stdout.split() == ["True", "0"], result.stdout
    assert {name: _sha256(out / name) for name in NPP_FILES} == NPP_FILES
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["inputs"] == {str(source): _sha256(source)}
