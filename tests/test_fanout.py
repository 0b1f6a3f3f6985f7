"""The builders' fan-out: at --workers 2 and 3 every build writes the
bytes of --workers 1; a failure in a worker, even its death whatever
multiprocessing start method the caller has set, and Ctrl-C leave --out
as it was and no worker process behind; and the one
write-and-count loop counts a range in parts as it counts it whole."""

import io
import itertools
import json
import multiprocessing
import os
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
from nextphrase import cli, fanout
from nextphrase.cli import _text_pair_outcomes, main
from nextphrase.instances import SkipReason

from conftest import DOG, EAT_PIE, SHOP, list_tree, random_sentence, random_tree_text

SRC = str(Path(nextphrase.corpus.__file__).parents[1])

# a tree with no eligible NPP group, and one token so no completion pair
ONE_TOKEN = "(S (NN x))"
# trees whose skip reason the property appends to the end of a corpus,
# so that its first occurrence can fall in the last range
LATE_SKIPS = (ONE_TOKEN, list_tree(27))

# ranges this short cut the small inputs below into many ranges
SHORT_RANGE = 5

# the command line, with ranges of argv[1] records
WITH_RANGE_RECORDS = (
    "import sys; from nextphrase import fanout; fanout.RANGE_RECORDS = int(sys.argv[1]); "
    "from nextphrase.cli import main; sys.exit(main(sys.argv[2:]))"
)


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


def _inputs(tmp_path: Path) -> tuple[Path, Path]:
    """A treebank and a document file, each long enough for seven short ranges."""
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
    return _tree_file(tmp_path / "trees.txt", texts), docs


def _builds(trees: Path, docs: Path) -> dict[str, list[str]]:
    return {
        "npp": ["build-npp", str(trees)],
        "pairs-treebank": ["build-pairs", str(trees), "--input-mode", "treebank"],
        "pairs-lines": ["build-pairs", str(docs)],
        "nsp": ["build-nsp", str(docs), "--distractors", "3", "--pool-cap", "40"],
    }


@pytest.mark.parametrize("workers", ["2", "3"])
def test_two_and_three_workers_write_the_bytes_of_one_worker(tmp_path, monkeypatch, workers):
    monkeypatch.setattr(fanout, "RANGE_RECORDS", SHORT_RANGE)
    for label, argv in _builds(*_inputs(tmp_path)).items():
        serial = tmp_path / f"{label}-1"
        assert main([*argv, "--out", str(serial), "--seed", "3"]) == 0
        forked = tmp_path / f"{label}-{workers}"
        assert main([*argv, "--out", str(forked), "--seed", "3", "--workers", workers]) == 0
        assert _written(forked) == _written(serial), label
        _assert_no_child_process()


TREE_BUILDS = {"build-npp": [], "build-pairs": ["--input-mode", "treebank"]}


@pytest.mark.parametrize("command", sorted(TREE_BUILDS))
def test_a_failure_in_the_last_range_leaves_out_as_it_was(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(fanout, "RANGE_RECORDS", SHORT_RANGE)
    rng = random.Random(9)
    texts = [random_tree_text(rng, 5, 4) for _ in range(40)]
    trees = _tree_file(tmp_path / "trees.txt", texts)
    out = tmp_path / "out"
    argv = [command, str(trees), *TREE_BUILDS[command], "--out", str(out), "--workers", "2"]
    assert main(argv) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    # 40 trees make 8 ranges of 5: line 40 is in the last, whose worker has
    # opened its part files when the parse fails
    _tree_file(trees, [*texts[:-1], "(S (NP"])
    assert main(argv) == 3
    assert "error: line 40:" in capsys.readouterr().err
    assert list(out.glob(".nextphrase-*")) == []
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_ranges_have_a_fixed_size_and_are_read_as_asked_for(monkeypatch):
    monkeypatch.setattr(fanout, "RANGE_RECORDS", 3)
    endless = itertools.count()
    ranges = fanout._ranges(endless)
    assert next(ranges) == (0, [0, 1, 2])
    # nothing past the range handed out has been read
    assert next(endless) == 3
    assert next(ranges) == (1, [4, 5, 6])
    assert list(fanout._ranges(range(4))) == [(0, [0, 1, 2]), (1, [3])]
    assert list(fanout._ranges([])) == []


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
# no_eligible_group first, in the first range; too_many_choices and
# too_short first in the last range
@example(([DOG] + [SHOP, EAT_PIE] * 10 + [ONE_TOKEN], [list_tree(27)]), 0)
def test_two_workers_merge_counts_as_one_worker_counts(corpus, seed):
    head, tail = corpus
    # ranges of 3 cut the corpus into up to 14
    with tempfile.TemporaryDirectory() as scratch, pytest.MonkeyPatch.context() as patch:
        patch.setattr(fanout, "RANGE_RECORDS", 3)
        trees = _tree_file(Path(scratch) / "trees.txt", head + tail)
        for command, options in TREE_BUILDS.items():
            written = []
            for workers in ("1", "2"):
                out = Path(scratch) / f"{command}-{workers}"
                argv = [command, str(trees), *options, "--seed", str(seed), "--workers", workers]
                assert main([*argv, "--out", str(out)]) == 0
                written.append(_written(out))
            # equal dicts may differ in key order: compare the skips' order too
            skips = [list(w["manifest.json"]["skips"]) for w in written]
            assert written[0] == written[1] and skips[0] == skips[1], command


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


# the workers are forked on plain pipes, so a dead one fails the build the
# same way whatever start method the calling program has set
@pytest.mark.parametrize("start_method", ["fork", "spawn", "forkserver"], indirect=True)
def test_a_dead_worker_fails_the_build_and_leaves_out_as_it_was(
    tmp_path, capsys, monkeypatch, start_method
):
    monkeypatch.setattr(fanout, "RANGE_RECORDS", SHORT_RANGE)
    rng = random.Random(5)
    trees = _tree_file(tmp_path / "trees.txt", [random_tree_text(rng, 5, 4) for _ in range(40)])
    out = tmp_path / "out"
    argv = ["build-npp", str(trees), "--out", str(out), "--workers", "2"]
    assert main(argv) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    original = cli._npp_outcomes

    def dying(item, **options):
        if item[0] == 22:
            os._exit(1)
        return original(item, **options)

    # the forked workers inherit the patch; 40 trees make 8 ranges of 5,
    # and the worker dies in the fifth, after earlier ranges have been
    # appended to the staged outputs
    monkeypatch.setattr(cli, "_npp_outcomes", dying)
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


# a malformed tree on line 2 fails the first range, of worker 0; on line
# 12, the third range, worker 0's second
@pytest.mark.parametrize("line", [2, 12])
@pytest.mark.parametrize("command", sorted(TREE_BUILDS))
def test_a_failure_in_an_early_range_exits_3(tmp_path, capsys, monkeypatch, command, line):
    monkeypatch.setattr(fanout, "RANGE_RECORDS", SHORT_RANGE)
    original = cli.iter_tree_lines

    def slow_from_the_fifth_range(path):
        for index, text in original(path):
            if index >= 4 * SHORT_RANGE:
                time.sleep(0.01)
            yield index, text

    # the parent sends worker 0 its third range slowly, after the worker
    # has failed its second
    monkeypatch.setattr(cli, "iter_tree_lines", slow_from_the_fifth_range)
    rng = random.Random(4)
    texts = [random_tree_text(rng, 5, 4) for _ in range(40)]
    texts[line - 1] = "(S (NP"
    trees = _tree_file(tmp_path / "trees.txt", texts)
    out = tmp_path / "out"
    argv = [command, str(trees), *TREE_BUILDS[command], "--out", str(out), "--workers", "2"]
    # the failed worker reads its later ranges without building them, so
    # the parent meets the parse error, not a closed pipe: never exit 4
    for _ in range(3):
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith(f"error: line {line}: ")
        _assert_no_child_process()
        assert list(out.iterdir()) == []


# imported, it makes build-npp's outcomes mark that a worker builds, in
# the file that $STARTED names, and then build slowly
SLOW = """
import os, time
from nextphrase import cli

original = cli._npp_outcomes


def outcomes(item, **options):
    open(os.environ["STARTED"], "a").close()
    time.sleep(0.1)
    return original(item, **options)


cli._npp_outcomes = outcomes
"""


def test_ctrl_c_stops_the_workers_and_leaves_out_as_it_was(tmp_path):
    (tmp_path / "slow.py").write_text(SLOW, encoding="utf-8")
    rng = random.Random(6)
    trees = _tree_file(tmp_path / "trees.txt", [random_tree_text(rng, 5, 4) for _ in range(40)])
    out = tmp_path / "out"
    started = tmp_path / "started"
    argv = ["build-npp", str(trees), "--out", str(out), "--workers", "2"]
    # a session of its own, so that Ctrl-C can go to its whole process group
    build = subprocess.Popen(
        [sys.executable, "-c", "import slow; " + WITH_RANGE_RECORDS, str(SHORT_RANGE), *argv],
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([SRC, str(tmp_path)]), "STARTED": str(started)},
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not started.exists() and build.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert started.exists()
        os.killpg(build.pid, signal.SIGINT)
        _, err = build.communicate(timeout=60)
    finally:
        if build.poll() is None:
            os.killpg(build.pid, signal.SIGKILL)
            build.wait()
    assert build.returncode == -signal.SIGINT
    assert b"KeyboardInterrupt" in err
    # no process of the group is left: the workers were stopped and reaped
    with pytest.raises(ProcessLookupError):
        os.killpg(build.pid, 0)
    assert list(out.iterdir()) == []


def test_a_long_sentence_is_written_one_pair_at_a_time():
    # 2,000 tokens of 5 characters: each pair line is about 12 kB and all
    # 1,999 of them about 24 MB, so the bound fails when they are joined
    text = " ".join(f"w{i:04d}" for i in range(2000))
    record = (0, ("doc:0", text))
    with fanout.open_sink(os.devnull) as sink:
        tracemalloc.start()
        try:
            counts = fanout._write_range(_text_pair_outcomes, [record], [sink])
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
