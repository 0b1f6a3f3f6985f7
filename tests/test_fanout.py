"""The builders' fan-out, where the parent builds the first contiguous
block and each forked worker reads the input up to the end of its own
block and builds that block: at --workers 2 and 3 every build writes the
bytes of --workers 1, also on fewer records than workers; --workers N
forks min(N, records) - 1 workers, so no block is empty, and appends no
part of the first block; a worker reads nothing past its block, but for
the last block's one read past its end; a worker's failure, which it
leaves in its counts file before it exits, its death, a fork that
fails, whatever multiprocessing start method the caller has set, Ctrl-C
and SIGTERM leave --out as it was and no worker process behind, SIGTERM
still ends the build by SIGTERM, a SIGTERM that the caller left ignored
stops nothing, and Ctrl-C reaches a program that runs cli.main in its
own process as KeyboardInterrupt; an input that ends before its counted
end or goes on past it, or has an item rewritten since the count, with
as many sentences or not, exits 2 and leaves --out as it was; the
manifest digests the bytes that the count read; the first error of an
input is the same at any worker count; and the one write-and-count
loop counts a range in parts as it counts it whole."""

import errno
import functools
import hashlib
import io
import itertools
import json
import marshal
import multiprocessing
import os
import pickle
import random
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import nextphrase.corpus
from nextphrase import build, cli, fanout
from nextphrase.build import _text_pair_outcomes
from nextphrase.cli import main
from nextphrase.corpus import InputChanged
from nextphrase.instances import SkipReason

from conftest import DOG, EAT_PIE, SHOP, WORDS, list_tree, random_sentence, random_tree_text

SRC = str(Path(nextphrase.corpus.__file__).parents[1])

# a tree with no eligible NPP group, and one token so no completion pair
ONE_TOKEN = "(S (NN x))"
# trees whose skip reason the property appends to the end of a corpus,
# so that its first occurrence can fall in the last block
LATE_SKIPS = (ONE_TOKEN, list_tree(27))


def _assert_no_child_process():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _written(out: Path) -> dict:
    """Every file a build wrote, with its bytes; of the manifest only its counts,
    since its config names the worker count and its timestamp moves."""
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    files["manifest.json"] = json.loads(files["manifest.json"])["counts"]
    return files


def _tree_file(path: Path, texts) -> Path:
    path.write_text("".join(text + "\n" for text in texts), encoding="utf-8")
    return path


def _inputs(tmp_path: Path) -> tuple[Path, Path, Path]:
    """A treebank and a document file, each long enough for a block of
    several items per worker, and a treebank of one tree, which the
    parent builds alone at any worker count."""
    rng = random.Random(7)
    texts = [random_tree_text(rng, 5, 4) for _ in range(30)] + [SHOP, EAT_PIE, DOG, *LATE_SKIPS]
    lines = []
    for _ in range(40):
        sentences = [
            " ".join(random_sentence(rng, 1, 8)).capitalize() + "."
            for _ in range(rng.randint(1, 4))
        ]
        lines.append(" ".join(sentences))
    docs = tmp_path / "docs.txt"
    docs.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return _tree_file(tmp_path / "trees.txt", texts), docs, _tree_file(tmp_path / "one.txt", [DOG])


def _builds(trees: Path, docs: Path, one: Path) -> dict[str, list[str]]:
    return {
        "npp": ["build-npp", str(trees)],
        "npp-one-record": ["build-npp", str(one)],
        "pairs-treebank": ["build-pairs", str(trees), "--input-mode", "treebank"],
        "pairs-lines": ["build-pairs", str(docs)],
        "nsp": ["build-nsp", str(docs), "--distractors", "3", "--pool-cap", "40"],
    }


@pytest.mark.parametrize("workers", ["2", "3"])
def test_two_and_three_workers_write_the_bytes_of_one_worker(tmp_path, workers):
    for label, argv in _builds(*_inputs(tmp_path)).items():
        serial = tmp_path / f"{label}-1"
        assert main([*argv, "--out", str(serial), "--seed", "3"]) == 0
        forked = tmp_path / f"{label}-{workers}"
        assert main([*argv, "--out", str(forked), "--seed", "3", "--workers", workers]) == 0
        assert _written(forked) == _written(serial), label
        _assert_no_child_process()


TREE_BUILDS = {"build-npp": [], "build-pairs": ["--input-mode", "treebank"]}


@pytest.mark.parametrize("command", sorted(TREE_BUILDS))
def test_a_failure_in_the_last_range_leaves_out_as_it_was(tmp_path, capsys, command):
    rng = random.Random(9)
    texts = [random_tree_text(rng, 5, 4) for _ in range(40)]
    trees = _tree_file(tmp_path / "trees.txt", texts)
    out = tmp_path / "out"
    argv = [command, str(trees), *TREE_BUILDS[command], "--out", str(out), "--workers", "2"]
    assert main(argv) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    # 40 trees make 2 blocks of 20: line 40 ends the last, whose worker has
    # written 19 records to its part files when the parse fails, and the
    # parent has built the first block into the staged outputs
    _tree_file(trees, [*texts[:-1], "(S (NP"])
    assert main(argv) == 3
    assert "error: line 40:" in capsys.readouterr().err
    assert list(out.glob(".nextphrase-*")) == []
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


# run with a build's argv, it prints the build's exit status, how many
# times it forked, the suffixes of the part files it appended and whether
# signal was loaded
SHAPE = """
import json, os, sys
from nextphrase import cli, fanout

forks, parts = [], []
fork, append_part = os.fork, fanout._append_part


def counted_fork():
    forks.append(1)
    return fork()


def recorded_append_part(sink, path):
    parts.append(path.rsplit(".", 1)[1])
    append_part(sink, path)


os.fork, fanout._append_part = counted_fork, recorded_append_part
code = cli.main(sys.argv[1:])
print(json.dumps([code, len(forks), parts, "signal" in sys.modules]))
"""


def _shape(argv: list[str]) -> list:
    """[exit status, forks, part suffixes appended, signal loaded] of a build
    run with argv in a fresh process."""
    result = subprocess.run(
        [sys.executable, "-c", SHAPE, *argv],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    return json.loads(result.stdout.splitlines()[-1])


# (trees, --workers, forks): a block per worker, but never more blocks than trees
@pytest.mark.parametrize(
    "trees, workers, forks",
    [
        pytest.param(9, 1, 0, id="1"),
        pytest.param(9, 2, 1, id="2"),
        pytest.param(9, 3, 2, id="3"),
        pytest.param(0, 3, 0, id="3-workers-0-trees"),
        pytest.param(1, 3, 0, id="3-workers-1-tree"),
        pytest.param(2, 3, 1, id="3-workers-2-trees"),
    ],
)
def test_the_parent_builds_block_0_and_forks_a_worker_per_other_block(
    tmp_path, trees, workers, forks
):
    texts = ([DOG, SHOP, EAT_PIE] * 3)[:trees]
    argv = ["build-npp", str(_tree_file(tmp_path / "trees.txt", texts))]
    argv += ["--out", str(tmp_path / "out"), "--workers", str(workers)]
    # one part per worker's block, and none of block 0; signal only to fork
    parts = [str(worker) for worker in range(1, forks + 1)]
    assert _shape(argv) == [0, forks, parts, forks > 0]


@pytest.mark.parametrize("command", ["build-nsp", "build-pairs"])
def test_a_one_document_build_forks_nothing_at_two_workers(tmp_path, command):
    docs = _tree_file(tmp_path / "docs.txt", ["It rains. We hide. Thanks, Bob."])
    written = []
    for workers in ("1", "2"):
        out = tmp_path / f"out-{workers}"
        argv = [command, str(docs), "--out", str(out), "--seed", "3", "--workers", workers]
        assert _shape(argv) == [0, 0, [], False]
        written.append(_written(out))
    assert written[0] == written[1]


def test_a_fork_that_fails_exits_4_and_leaves_out_as_it_was(tmp_path, capsys, monkeypatch):
    rng = random.Random(8)
    trees = _tree_file(tmp_path / "trees.txt", [random_tree_text(rng, 5, 4) for _ in range(30)])
    out = tmp_path / "out"
    argv = ["build-npp", str(trees), "--out", str(out), "--workers", "3"]
    assert main(argv) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    fork = os.fork
    forks = []

    def second_fork_fails():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    # worker 1 is forked and building when worker 2 cannot be
    monkeypatch.setattr(os, "fork", second_fork_fails)
    capsys.readouterr()
    assert main(argv) == 4
    assert capsys.readouterr().err == (
        f"error: could not start a worker process: [Errno {errno.EAGAIN}] "
        f"{os.strerror(errno.EAGAIN)}\n"
    )
    assert len(forks) == 2
    _assert_no_child_process()
    assert list(out.glob(".nextphrase-*")) == []
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_a_worker_builds_its_block_and_reads_nothing_past_its_end(tmp_path):
    endless = itertools.count()
    sink = str(tmp_path / "out")
    # worker 1 of 3, its block items 3 to 5 of an endless input; only the
    # last block reads past its end
    # hash(n) is n, so range(9) holds the hashes of the items counted
    fanout._serve(
        lambda n: [(0, 1, [f"{n}\n"])], lambda: endless, range(9), [sink], [0, 3, 6, 9], 1
    )
    assert marshal.loads(Path(f"{sink}.1.counts").read_bytes()) == (3, (3,), {})
    assert Path(f"{sink}.1").read_text(encoding="utf-8") == "3\n4\n5\n"
    assert next(endless) == 6


def test_the_last_worker_reads_one_item_past_its_end_and_fails_on_it(tmp_path):
    endless = itertools.count()
    sink = str(tmp_path / "out")
    # worker 1 of 2, the last block, items 3 to 5 of an input that goes on
    fanout._serve(lambda n: [(0, 1, [f"{n}\n"])], lambda: endless, range(6), [sink], [0, 3, 6], 1)
    failed = pickle.loads(marshal.loads(Path(f"{sink}.1.counts").read_bytes()))
    assert isinstance(failed, InputChanged)
    assert str(failed) == "it has more than the 6 items counted"
    assert next(endless) == 7


# at most 5 levels and 4 children, so at most 256 tokens: the pairs of a
# tree grow with the square of its length
GENERATED = st.integers(0, 2**32 - 1).map(lambda seed: random_tree_text(random.Random(seed), 5, 4))


@settings(max_examples=25, deadline=None)
@given(
    st.tuples(
        st.lists(GENERATED, min_size=1, max_size=39),
        st.lists(st.sampled_from(LATE_SKIPS), max_size=1),
    ),
    st.integers(0, 2**16),
)
# no_eligible_group first, in the first block; too_many_choices and
# too_short first in the last block
@example(([DOG] + [SHOP, EAT_PIE] * 10 + [ONE_TOKEN], [list_tree(27)]), 0)
def test_two_workers_merge_counts_as_one_worker_counts(corpus, seed):
    head, tail = corpus
    # at --workers 3 a 1- or 2-tree corpus forks fewer workers than asked for
    with tempfile.TemporaryDirectory() as scratch:
        trees = _tree_file(Path(scratch) / "trees.txt", head + tail)
        for command, options in TREE_BUILDS.items():
            written = []
            for workers in ("1", "2", "3"):
                out = Path(scratch) / f"{command}-{workers}"
                argv = [command, str(trees), *options, "--seed", str(seed), "--workers", workers]
                assert main([*argv, "--out", str(out)]) == 0
                written.append(_written(out))
            # equal dicts may differ in key order: compare the skips' order too
            skips = [list(w["manifest.json"]["skips"]) for w in written]
            assert written[0] == written[1] == written[2], command
            assert skips[0] == skips[1] == skips[2], command


# a sentence from a small vocabulary, a sign-off that many emails share
# (so that a distractor can repeat the answer), a one-word sentence with
# no pair, and a guarded abbreviation
EMAIL_SENTENCES = st.one_of(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=6).map(
        lambda words: " ".join(words).capitalize() + "."
    ),
    st.sampled_from(["Thanks, Bob.", "Hello.", "See Dr. Who soon!"]),
)
# up to 6 emails, so that --workers 3 can fork fewer workers than it asks
# for; a blank email is no document in lines mode and a document of no
# sentence in dir mode
EMAILS = st.lists(st.lists(EMAIL_SENTENCES, max_size=4).map(" ".join), max_size=6)


def _email_input(scratch: Path, emails: list[str], mode: str) -> Path:
    if mode == "lines":
        return _tree_file(scratch / "emails.txt", emails)
    root = scratch / "emails"
    root.mkdir()
    for index, email in enumerate(emails):
        (root / f"{index}.txt").write_text(email, encoding="utf-8")
    return root


def _accounted(command: str, written: dict) -> bool:
    """Every sentence (or context) read is written or counted as a skip."""
    counts = written["manifest.json"]
    skipped = sum(counts["skips"].values())
    if command == "build-nsp":
        return counts["contexts_read"] == counts["instances_written"] + skipped
    # a sentence with pairs is written once per pair
    ids = set()
    for name in ("pairs_train.jsonl", "pairs_dev.jsonl", "pairs_test.jsonl"):
        for line in written[name].split(b"\n")[:-1]:
            ids.add(json.loads(line)["id"].rpartition("#")[0])
    return counts["sentences_read"] == len(ids) + skipped


@settings(max_examples=20, deadline=None)
@given(EMAILS, st.sampled_from(["lines", "dir"]), st.integers(1, 8), st.integers(0, 2**16))
@example(["Thanks, Bob. It rains.", "", "Thanks, Bob. Hello."], "dir", 2, 0)
def test_raw_text_builds_write_the_same_at_one_two_and_three_workers(emails, mode, pool, seed):
    options = {"build-pairs": [], "build-nsp": ["--pool-cap", str(pool)]}
    with tempfile.TemporaryDirectory() as scratch:
        corpus = _email_input(Path(scratch), emails, mode)
        for command in ("build-pairs", "build-nsp"):
            written = []
            for workers in ("1", "2", "3"):
                out = Path(scratch) / f"{command}-{workers}"
                argv = [command, str(corpus), "--input-mode", mode, *options[command]]
                argv += ["--seed", str(seed), "--workers", workers, "--out", str(out)]
                assert main(argv) == 0
                written.append(_written(out))
                assert _accounted(command, written[-1]), command
            skips = [list(w["manifest.json"]["skips"]) for w in written]
            assert written[0] == written[1] == written[2], command
            assert skips[0] == skips[1] == skips[2], command


# build, and an input of five items with its options; a -dir build reads
# a directory of five files, any other build a file of five lines
CHANGED_INPUTS = {
    "build-npp": ([DOG, SHOP, EAT_PIE, DOG, SHOP], []),
    "build-npp-sample": ([DOG, SHOP, EAT_PIE, DOG, SHOP], ["--sample", "4"]),
    "build-pairs-treebank": ([DOG, SHOP, EAT_PIE, DOG, SHOP], ["--input-mode", "treebank"]),
    "build-pairs": (["It rains. We hide."] * 5, []),
    "build-pairs-dir": (["It rains. We hide."] * 5, ["--input-mode", "dir"]),
    "build-nsp": (["It rains. We hide."] * 5, ["--pool-cap", "3"]),
    "build-nsp-dir": (["It rains. We hide."] * 5, ["--pool-cap", "3", "--input-mode", "dir"]),
}


def _write_input(source: Path, texts) -> None:
    """Write texts as the lines of the file source or, when source is a
    directory, as its files 0.txt, 1.txt and so on, in place of its own."""
    if not source.is_dir():
        _tree_file(source, texts)
        return
    for name in source.glob("*.txt"):
        name.unlink()
    for index, text in enumerate(texts):
        (source / f"{index}.txt").write_text(text, encoding="utf-8")


def _changed_input(tmp_path: Path, name: str, workers: str) -> tuple[Path, list[str]]:
    """The input of the CHANGED_INPUTS row name, written, and the argv
    of its build at workers, but for --out."""
    texts, options = CHANGED_INPUTS[name]
    source = tmp_path / "input.txt"
    if name.endswith("-dir"):
        source = tmp_path / "input"
        source.mkdir()
    _write_input(source, texts)
    command = "-".join(name.split("-")[:2])
    return source, [command, str(source), *options, "--workers", workers]


def _changed_after_the_count(monkeypatch, source: Path, texts) -> None:
    """Rewrite the input at source with texts once the first pass, the
    count, has read it: every later pass reads the new input, a forked
    worker's too."""
    fan_out = build.fan_out

    def changed(*args):
        _write_input(source, texts)
        return fan_out(*args)

    monkeypatch.setattr(build, "fan_out", changed)


def _before(argv: list[str], out: Path) -> dict:
    assert main([*argv, "--out", str(out)]) == 0
    return {path.name: path.read_bytes() for path in out.iterdir()}


def _assert_the_changed_input_exits_2(capsys, argv, out: Path, before: dict, detail: str) -> None:
    """A build of argv, whose input changed after the count, exits 2 with
    its one line, which ends in detail, and leaves out as it was."""
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {argv[1]}: changed while it was read: {detail}\n"
    _assert_no_child_process()
    assert list(out.glob(".nextphrase-*")) == []
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("build", sorted(CHANGED_INPUTS))
def test_an_input_that_ends_before_its_counted_end_exits_2(
    tmp_path, capsys, monkeypatch, build, workers
):
    source, argv = _changed_input(tmp_path, build, workers)
    out = tmp_path / "out"
    before = _before(argv, out)
    # the last item, which the last block builds, is gone when it is read
    _changed_after_the_count(monkeypatch, source, CHANGED_INPUTS[build][0][:-1])
    detail = "it ended before item 5 of the 5 counted"
    _assert_the_changed_input_exits_2(capsys, argv, out, before, detail)


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("build", sorted(CHANGED_INPUTS))
def test_an_input_that_grows_past_its_counted_end_exits_2(
    tmp_path, capsys, monkeypatch, build, workers
):
    source, argv = _changed_input(tmp_path, build, workers)
    out = tmp_path / "out"
    before = _before(argv, out)
    texts = CHANGED_INPUTS[build][0]
    # a sixth item, which the last block reads past its end
    _changed_after_the_count(monkeypatch, source, [*texts, texts[0]])
    detail = "it has more than the 5 items counted"
    _assert_the_changed_input_exits_2(capsys, argv, out, before, detail)


@pytest.mark.parametrize("build", ["build-nsp", "build-pairs"])
def test_a_directory_that_gains_a_file_after_the_count_exits_2(
    tmp_path, capsys, monkeypatch, build
):
    docs = _email_input(tmp_path, ["It rains. We hide."] * 5, "dir")
    out = tmp_path / "out"
    argv = [build, str(docs), "--input-mode", "dir", "--workers", "2"]
    before = _before(argv, out)
    read = nextphrase.corpus.iter_documents

    def count_then_grow(*args, **kwargs):
        yield from read(*args, **kwargs)
        (docs / "5.txt").write_text("One more. Mail.", encoding="utf-8")

    # every pass reads the documents through corpus.read_items; the files
    # are listed anew by each block, and the last block finds the sixth
    monkeypatch.setattr(nextphrase.corpus, "iter_documents", count_then_grow)
    detail = "it has more than the 5 items counted"
    _assert_the_changed_input_exits_2(capsys, argv, out, before, detail)


# item 3 rewritten, per build and change: a document with one sentence
# more, one less, or as many; a tree line is one sentence, so another
# tree keeps the count
RAW_TEXT_EDITS = {
    "gained": "It rains. We hide. We wait.",
    "lost": "It rains and we hide.",
    "kept": "Birds sing. We hide.",
}
TREE_ROWS = ("build-npp", "build-npp-sample", "build-pairs-treebank")
EDITS = {
    name: {"kept": EAT_PIE} if name in TREE_ROWS else RAW_TEXT_EDITS for name in CHANGED_INPUTS
}


# the ids name the change and the worker count, and the build but for
# build-pairs on a lines input
@pytest.mark.parametrize(
    "build, change, workers",
    [
        pytest.param(build, change, workers, id="-".join([*named, change, workers]))
        for build in sorted(CHANGED_INPUTS)
        for named in ([] if build == "build-pairs" else [build],)
        for change in EDITS[build]
        for workers in ("1", "2")
    ],
)
def test_a_document_whose_sentence_count_changes_exits_2(
    tmp_path, capsys, monkeypatch, build, change, workers
):
    # the change check compares items, not counts: a document or a tree
    # line rewritten between the passes fails whatever its sentence count
    source, argv = _changed_input(tmp_path, build, workers)
    out = tmp_path / "out"
    before = _before(argv, out)
    texts = list(CHANGED_INPUTS[build][0])
    texts[3] = EDITS[build][change]
    # document 3 is in the last block at both worker counts
    _changed_after_the_count(monkeypatch, source, texts)
    detail = "item 4 is not the item the first pass read"
    _assert_the_changed_input_exits_2(capsys, argv, out, before, detail)


@pytest.mark.parametrize("name", sorted(CHANGED_INPUTS))
def test_the_manifest_digests_the_bytes_that_the_count_read(tmp_path, monkeypatch, name):
    source, argv = _changed_input(tmp_path, name, "2")
    files = sorted(source.glob("*.txt")) if source.is_dir() else [source]
    counted = {str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in files}
    fan_out = build.fan_out

    def then_grown(*args):
        counts = fan_out(*args)
        with open(files[-1], "a", encoding="utf-8") as last:
            last.write(f"{CHANGED_INPUTS[name][0][0]}\n")
        return counts

    # every block has been read when fan_out returns; the line it appends
    # is no part of the build, nor of its manifest
    monkeypatch.setattr(build, "fan_out", then_grown)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text(encoding="utf-8"))["inputs"] == counted


@pytest.fixture
def start_method(request):
    """The multiprocessing start method the calling program has set, put
    back as it was after the test."""
    if request.param not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {request.param} start method on this platform")
    before = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(request.param, force=True)
    yield request.param
    multiprocessing.set_start_method(before, force=True)


# the workers are forked without multiprocessing, so a dead one fails the
# build the same way whatever start method the calling program has set
@pytest.mark.parametrize("start_method", ["fork", "spawn", "forkserver"], indirect=True)
def test_a_dead_worker_fails_the_build_and_leaves_out_as_it_was(
    tmp_path, capsys, monkeypatch, start_method
):
    rng = random.Random(5)
    trees = _tree_file(tmp_path / "trees.txt", [random_tree_text(rng, 5, 4) for _ in range(40)])
    out = tmp_path / "out"
    argv = ["build-npp", str(trees), "--out", str(out), "--workers", "2"]
    assert main(argv) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    original = build._npp_outcomes

    def dying(item, **options):
        if item[0] == 22:
            os._exit(1)
        return original(item, **options)

    # the forked workers inherit the patch; 40 trees make 2 blocks of 20,
    # and worker 1 dies in its block, which the parent reaches after it
    # has built block 0 into the staged outputs
    monkeypatch.setattr(build, "_npp_outcomes", dying)
    capsys.readouterr()
    assert main(argv) == 4
    # one error line and the worker's exit status, no traceback
    assert capsys.readouterr().err == "error: a worker process died: exit status 1\n"
    _assert_no_child_process()
    assert list(out.glob(".nextphrase-*")) == []
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_a_worker_that_dies_before_its_first_range_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(fanout, "_serve", lambda *args: os._exit(1))
    trees = _tree_file(tmp_path / "trees.txt", [DOG, SHOP])
    out = tmp_path / "out"
    assert main(["build-npp", str(trees), "--out", str(out), "--workers", "2"]) == 4
    assert capsys.readouterr().err == "error: a worker process died: exit status 1\n"
    _assert_no_child_process()
    assert list(out.iterdir()) == []


def test_a_worker_killed_after_it_wrote_its_counts_exits_4(tmp_path, capsys, monkeypatch):
    serve = fanout._serve

    def killed_once_served(*args):
        serve(*args)
        os.kill(os.getpid(), signal.SIGKILL)

    # the counts file is whole, but only a worker that exits 0 is read
    monkeypatch.setattr(fanout, "_serve", killed_once_served)
    trees = _tree_file(tmp_path / "trees.txt", [DOG, SHOP])
    out = tmp_path / "out"
    assert main(["build-npp", str(trees), "--out", str(out), "--workers", "2"]) == 4
    assert capsys.readouterr().err == (
        f"error: a worker process died: killed by signal {signal.SIGKILL.value}\n"
    )
    _assert_no_child_process()
    assert list(out.iterdir()) == []


# 40 trees make 2 blocks of 20: a malformed tree on line 2 or on line 12
# fails block 0, which the parent builds, near its start or in its middle
@pytest.mark.parametrize("line", [2, 12])
@pytest.mark.parametrize("command", sorted(TREE_BUILDS))
def test_a_failure_in_an_early_range_exits_3(tmp_path, capsys, monkeypatch, command, line):
    original = build.read_items

    def slow_from_the_second_block(*args, **kwargs):
        for index, text in original(*args, **kwargs):
            if index >= 20:
                time.sleep(0.01)
            yield index, text

    # every pass reads the input through build's read_items, which yields
    # each tree line's position and the line, from the second block on
    # slowly, so the parent's block has failed while worker 1 still builds
    monkeypatch.setattr(build, "read_items", slow_from_the_second_block)
    rng = random.Random(4)
    texts = [random_tree_text(rng, 5, 4) for _ in range(40)]
    texts[line - 1] = "(S (NP"
    trees = _tree_file(tmp_path / "trees.txt", texts)
    out = tmp_path / "out"
    argv = [command, str(trees), *TREE_BUILDS[command], "--out", str(out), "--workers", "2"]
    # the parent meets the parse error in its own block, before it waits
    # for a worker, and kills worker 1: never exit 4
    for _ in range(3):
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith(f"error: line {line}: ")
        _assert_no_child_process()
        assert list(out.iterdir()) == []


def test_the_first_error_of_an_input_is_the_same_at_any_worker_count(tmp_path, capsys):
    # a malformed tree on line 2 and, far past the first 8 KiB that a
    # reader decodes ahead, a line that is not UTF-8: the count pass meets
    # the second before any tree is parsed, at every worker count
    trees = tmp_path / "trees.txt"
    lines = [DOG.encode()] * 2000
    lines[1] = b"(S (NP"
    lines[1990] = b"(S (NN \xff))"
    trees.write_bytes(b"\n".join(lines) + b"\n")
    for command, options in TREE_BUILDS.items():
        for workers in ("1", "2", "3"):
            out = tmp_path / f"{command}-{workers}"
            argv = [command, str(trees), *options, "--out", str(out), "--workers", workers]
            assert main(argv) == 2, (command, workers)
            first = capsys.readouterr().err.splitlines()[0]
            assert first.startswith(f"error: {trees}: line 1991 is not UTF-8 "), first
            assert not out.exists()
            _assert_no_child_process()


# imported, it makes build-npp's outcomes append the pid of the process
# that builds to the file that $STARTED names, and then build slowly
SLOW = """
import os, time
from nextphrase import build

original = build._npp_outcomes


def outcomes(item, **options):
    with open(os.environ["STARTED"], "a") as started:
        started.write(f"{os.getpid()}\\n")
    time.sleep(0.1)
    return original(item, **options)


build._npp_outcomes = outcomes
"""


# python -c runs one of these on the argv of a build after it imports slow
THROUGH_THE_ENTRY = "import slow; from nextphrase.__main__ import main; main()"
IN_PROCESS = """
import slow, sys
from nextphrase.cli import main
try:
    main()
except KeyboardInterrupt:
    sys.stderr.write("caught KeyboardInterrupt\\n")
"""


def _slow_argv(tmp_path: Path, workers: str) -> list[str]:
    """A build-npp of 40 trees, which builds slowly once tmp_path's slow.py is imported."""
    (tmp_path / "slow.py").write_text(SLOW, encoding="utf-8")
    rng = random.Random(6)
    trees = _tree_file(tmp_path / "trees.txt", [random_tree_text(rng, 5, 4) for _ in range(40)])
    return ["build-npp", str(trees), "--workers", workers]


def _slow_build(
    tmp_path: Path, argv: list[str], stop, code: str = THROUGH_THE_ENTRY, **popen
) -> tuple[int, bytes]:
    """The exit status and standard error of python -c code on argv, a slow
    build, run in a session of its own with the further Popen options;
    once every one of its processes builds, ``stop(its pid, the pids that
    build)`` runs.  Afterwards no process of its session is left."""
    workers = int(argv[argv.index("--workers") + 1])
    started = tmp_path / "started"
    # a session of its own, so that a signal can go to its whole process group
    build = subprocess.Popen(
        [sys.executable, "-c", code, *argv],
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([SRC, str(tmp_path)]), "STARTED": str(started)},
        start_new_session=True,
        **popen,
    )
    try:
        builders: set[int] = set()
        deadline = time.monotonic() + 60
        while len(builders) < workers and build.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
            if started.exists():
                builders = set(map(int, started.read_text(encoding="utf-8").split()))
        assert len(builders) == workers
        stop(build.pid, builders)
        _, err = build.communicate(timeout=60)
    finally:
        if build.poll() is None:
            os.killpg(build.pid, signal.SIGKILL)
            build.wait()
    # no process of the group is left: the workers were stopped and reaped
    with pytest.raises(ProcessLookupError):
        os.killpg(build.pid, 0)
    return build.returncode, err


def _stopped_build(
    tmp_path: Path, workers: str, stop, code: str = THROUGH_THE_ENTRY
) -> tuple[int, bytes]:
    """The exit status and standard error of a slow build (see _slow_build)
    into tmp_path / "out", which holds the bytes of a finished build
    before it; afterwards --out is as it was."""
    out = tmp_path / "out"
    argv = _slow_argv(tmp_path, workers)
    before = _before(argv, out)
    result = _slow_build(tmp_path, [*argv, "--out", str(out)], stop, code)
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    return result


def test_ctrl_c_stops_the_workers_and_leaves_out_as_it_was(tmp_path):
    code, err = _stopped_build(tmp_path, "2", lambda pid, _: os.killpg(pid, signal.SIGINT))
    assert code == -signal.SIGINT
    assert err == b""


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sigterm_stops_the_workers_and_leaves_out_as_it_was(tmp_path, workers):
    code, err = _stopped_build(tmp_path, workers, lambda pid, _: os.killpg(pid, signal.SIGTERM))
    # the staging directory is gone, and the build still ends by SIGTERM
    assert code == -signal.SIGTERM
    assert err == b""


@pytest.mark.parametrize("workers", ["1", "2"])
def test_ctrl_c_reaches_an_in_process_caller_once_the_build_is_gone(tmp_path, workers):
    code, err = _stopped_build(tmp_path, workers, lambda pid, _: os.killpg(pid, signal.SIGINT), IN_PROCESS)
    # cli.main raised KeyboardInterrupt to its caller, whose handler ran
    assert (code, err) == (0, b"caught KeyboardInterrupt\n")
    assert list((tmp_path / "out").glob(".nextphrase-*")) == []


def test_a_sigterm_the_caller_left_ignored_does_not_stop_the_build(tmp_path, capsys):
    argv = _slow_argv(tmp_path, "1")
    assert main([*argv, "--out", str(tmp_path / "undisturbed")]) == 0
    info = capsys.readouterr().err.encode()
    out = tmp_path / "out"
    code, err = _slow_build(
        tmp_path,
        [*argv, "--out", str(out)],
        lambda pid, _: os.kill(pid, signal.SIGTERM),
        preexec_fn=lambda: signal.signal(signal.SIGTERM, signal.SIG_IGN),
    )
    assert (code, err) == (0, info)
    assert _written(out) == _written(tmp_path / "undisturbed")


def test_sigterm_to_a_worker_alone_fails_the_build_with_exit_4(tmp_path):
    def stop_the_worker(pid, builders):
        (worker,) = builders - {pid}
        os.kill(worker, signal.SIGTERM)

    # the worker does not run the parent's SIGTERM handler: it dies at once
    code, err = _stopped_build(tmp_path, "2", stop_the_worker)
    assert code == 4
    assert err == b"error: a worker process died: killed by signal 15\n"


def test_a_long_sentence_is_written_one_pair_at_a_time():
    # 2,000 tokens of 5 characters: each pair line is about 12 kB and all
    # 1,999 of them about 24 MB, so the bound fails when they are joined
    # as one document of one sentence, which the build splits and tokenizes
    text = " ".join(f"w{i:04d}" for i in range(2000))
    outcomes_of = functools.partial(
        _text_pair_outcomes, splits=bytearray(1), starts=[0, 1], name="doc", guards=()
    )
    with fanout.open_sink(os.devnull) as sink:
        tracemalloc.start()
        try:
            counts = fanout._write_range(outcomes_of, [(0, text)], [sink])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert counts == fanout.RangeCounts(1, (1999,), {})
    assert peak < 2 * 2**20


SKIP_REASON = st.sampled_from([reason.value for reason in SkipReason])
# (sink index, records written, lines) for one of two sinks
WRITTEN = st.tuples(
    st.integers(0, 1),
    st.integers(0, 3),
    st.lists(st.text(max_size=4).map(lambda text: text + "\n"), max_size=3),
)
# an item's outcomes: one, as for a tree or a sentence, or several, as
# for an NSP document
ITEMS = st.lists(st.lists(st.one_of(SKIP_REASON, WRITTEN), max_size=4), max_size=12)


@given(ITEMS, st.data())
def test_counts_of_two_halves_add_up_to_the_counts_of_the_whole(items, data):
    cut = data.draw(st.integers(0, len(items)))

    def write(records):
        sinks = [io.StringIO(), io.StringIO()]
        counts = fanout._write_range(iter, records, sinks)
        return counts, [sink.getvalue() for sink in sinks]

    whole, whole_text = write(items)
    head, head_text = write(items[:cut])
    tail, tail_text = write(items[cut:])
    added = fanout.add_counts(head, tail)
    assert added == whole
    # equal dicts may differ in key order: compare the skips' order too
    assert list(added.skips) == list(whole.skips)
    assert [a + b for a, b in zip(head_text, tail_text)] == whole_text
    assert whole.read == sum(map(len, items))
