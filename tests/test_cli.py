import datetime
import gc
import hashlib
import importlib
import itertools
import json
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import nextphrase.corpus
import nextphrase.metrics
import nextphrase.treebank
from nextphrase import __main__ as entry, build, cli
from nextphrase.build import _npp_outcomes, _pair_lines, _record_line, _tree_pair_outcomes
from nextphrase.cli import PipelineConfig, main
from nextphrase.corpus import detokenize, tokenize
from nextphrase.instances import SkipReason, build_completion_pairs

import oracles
from conftest import DOG, EAT_PIE, SHOP, list_tree, random_sentence, random_tree_text
from oracles import iter_sentence_texts, parse_prompt, tree_root

DATA = Path(__file__).parent / "data"

# (max_depth, max_branch) of random_tree_text: wide trees and deep trees
TREE_SHAPES = ((4, 12), (14, 2))

GENERATED_TREES = st.one_of(
    st.builds(
        lambda seed, shape: random_tree_text(random.Random(seed), *shape),
        st.integers(0, 2**32 - 1),
        st.sampled_from(TREE_SHAPES),
    ),
    st.integers(0, 40).map(list_tree),
)

SKIP_REASONS = {reason.value for reason in SkipReason}

# characters that JSON escapes or that ensure_ascii=False writes as they
# are: quote, backslash, control characters, a line separator, a
# non-ASCII letter and a character outside the BMP
ESCAPE_HEAVY = 'ab"\\\x00\x07\x1b\u2028\u00e9\U0001f600'
ESCAPE_TEXT = st.text(ESCAPE_HEAVY)
# sentence ids that need quoting themselves
QUOTED_IDS = ESCAPE_TEXT.map(lambda text: 'q"' + text)


def _write_trees(tmp_path, name="trees.txt"):
    path = tmp_path / name
    path.write_text(f"{SHOP}\n{EAT_PIE}\n{DOG}\n", encoding="utf-8")
    return path


def _write_docs(tmp_path, name="docs.txt"):
    path = tmp_path / name
    path.write_text(
        "The sky is blue. It rains often. We stay inside.\n"
        "Dogs bark loudly. Cats nap all day. Birds sing at dawn.\n",
        encoding="utf-8",
    )
    return path


def _records(path):
    # split on newlines only: str.splitlines would also cut at U+2028
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line.removesuffix("\n")) for line in handle]


def _manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_build_npp_outputs_and_manifest(tmp_path):
    trees = _write_trees(tmp_path)
    out = tmp_path / "out"
    assert main(["build-npp", str(trees), "--out", str(out), "--seed", "3"]) == 0
    records = _records(out / "instances.jsonl")
    assert len(records) == 2
    assert records[0]["id"] == "trees:00000000"
    prefix, query, choices = parse_prompt(records[0]["input"])
    assert prefix == "generate next phrase:"
    assert set(choices) == {"a top and bottom", "that strange little shop"}
    assert records[0]["target"] in choices
    shop_text = "She bought a top and bottom from that strange little shop ."
    assert shop_text.startswith(f"{query} {records[0]['target']}")
    assert records[1]["id"] == "trees:00000001"
    assert records[1]["target"] == "pie"
    manifest = _manifest(out)
    assert manifest["command"] == "build-npp"
    assert manifest["config"]["seed"] == 3
    counts = manifest["counts"]
    assert counts["sentences_read"] == counts["instances_written"] + sum(
        counts["skips"].values()
    )
    assert counts["skips"] == {"no_eligible_group": 1}
    stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    assert stats == counts
    assert manifest["inputs"] == {str(trees): _digest(trees)}


def test_the_manifest_digests_an_input_of_many_read_blocks(tmp_path):
    trees = tmp_path / "big.txt"
    trees.write_text(f"{DOG}\n" * 1500, encoding="utf-8")
    # more than one 64 KiB read block, and not a whole number of them
    assert trees.stat().st_size > 1 << 16 and trees.stat().st_size % (1 << 16)
    out = tmp_path / "out"
    assert main(["build-npp", str(trees), "--out", str(out)]) == 0
    assert _manifest(out)["inputs"] == {str(trees): _digest(trees)}


def test_build_npp_reruns_are_byte_identical(tmp_path):
    trees = _write_trees(tmp_path)
    first = tmp_path / "one"
    second = tmp_path / "two"
    parallel = tmp_path / "par"
    assert main(["build-npp", str(trees), "--out", str(first), "--seed", "9"]) == 0
    assert main(["build-npp", str(trees), "--out", str(second), "--seed", "9"]) == 0
    assert main(
        ["build-npp", str(trees), "--out", str(parallel), "--seed", "9", "--workers", "2"]
    ) == 0
    blob = (first / "instances.jsonl").read_bytes()
    assert (second / "instances.jsonl").read_bytes() == blob
    assert (parallel / "instances.jsonl").read_bytes() == blob
    drop_time = lambda m: {k: v for k, v in m.items() if k != "created_at"}
    assert drop_time(_manifest(first)) == drop_time(_manifest(second))


def test_build_npp_seed_changes_output(tmp_path):
    trees = _write_trees(tmp_path)
    blobs = set()
    for seed in range(10):
        out = tmp_path / f"run{seed}"
        assert main(["build-npp", str(trees), "--out", str(out), "--seed", str(seed)]) == 0
        blobs.add((out / "instances.jsonl").read_bytes())
    assert len(blobs) > 1


def test_build_npp_sample(tmp_path):
    trees = tmp_path / "many.txt"
    trees.write_text("".join(f"{SHOP}\n" for _ in range(40)), encoding="utf-8")
    out = tmp_path / "out"
    assert main(
        ["build-npp", str(trees), "--out", str(out), "--seed", "1", "--sample", "5"]
    ) == 0
    manifest = _manifest(out)
    assert manifest["counts"]["sentences_scanned"] == 40
    assert manifest["counts"]["sentences_read"] == 5
    assert len(_records(out / "instances.jsonl")) == 5


@settings(max_examples=15, deadline=None)
@given(st.lists(GENERATED_TREES, max_size=10), st.integers(1, 12), st.integers(0, 2**16))
@example([DOG, SHOP], 1, 0)
def test_a_sample_writes_the_full_builds_lines_at_the_drawn_positions(trees, k, seed):
    # one tree per document: the pool oracle's reservoir draws the positions
    documents = [[position] for position in range(len(trees))]
    drawn, _, _ = oracles.nsp_pool_oracle(documents, k, random.Random(seed))
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "trees.txt"
        path.write_text("".join(tree + "\n" for tree in trees), encoding="utf-8")
        argv = ["build-npp", str(path), "--seed", str(seed)]
        assert main([*argv, "--out", f"{scratch}/full"]) == 0
        full = Path(scratch, "full", "instances.jsonl").read_bytes().splitlines(keepends=True)
        # a record's id ends in its tree's line number, here its position
        expected = [line for line in full if int(json.loads(line)["id"][-8:]) in drawn]
        for workers in ("1", "2", "3"):
            out = Path(scratch) / workers
            assert main([*argv, "--sample", str(k), "--workers", workers, "--out", str(out)]) == 0
            assert (out / "instances.jsonl").read_bytes() == b"".join(expected)
            counts = _manifest(out)["counts"]
            assert counts["sentences_scanned"] == len(trees)
            assert counts["sentences_read"] == min(k, len(trees))


@given(
    st.lists(st.integers(0, 6), max_size=25).flatmap(
        lambda counts: st.tuples(st.just(counts), st.integers(1, sum(counts) + 3))
    ),
    st.integers(0, 2**16),
)
@example(([0, 3, 0, 0, 2, 5, 0], 2), 7)
@example(([0, 3, 0, 0, 2, 5, 0], 11), 7)
@example(([0, 0], 1), 0)
@example(([], 1), 0)
def test_nsp_pool_equals_the_tuple_oracle(counts_and_cap, seed):
    counts, cap = counts_and_cap
    documents = [[f"{d}.{i}" for i in range(n)] for d, n in enumerate(counts)]
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    pool, owned = build._nsp_pool(iter(documents), cap, rng)
    # each key is document * len(pool) + position; an empty pool has none
    owners, positions = zip(*(divmod(key, len(pool)) for key in owned)) if owned else ((), ())
    expected = oracles.nsp_pool_oracle(documents, cap, oracle_rng)
    assert (pool, list(owners), list(positions)) == expected
    # the same draws, and no more
    assert rng.getstate() == oracle_rng.getstate()


def test_build_npp_empty_input(tmp_path):
    trees = tmp_path / "empty.txt"
    trees.write_text("", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["build-npp", str(trees), "--out", str(out)]) == 0
    assert (out / "instances.jsonl").read_text(encoding="utf-8") == ""
    assert _manifest(out)["counts"]["sentences_read"] == 0


def test_build_npp_min_group_size_flag(tmp_path):
    trees = _write_trees(tmp_path)
    out = tmp_path / "out"
    assert main(
        ["build-npp", str(trees), "--out", str(out), "--min-group-size", "3"]
    ) == 0
    assert _records(out / "instances.jsonl") == []
    assert _manifest(out)["counts"]["skips"] == {"no_eligible_group": 3}


@pytest.mark.parametrize(
    "tree, message",
    [
        ("(S (NP", "input is not a single well-formed tree"),
        ("(S (NP-SBJ))", "(NP) has no children and no token"),
        ("((NN dog))", "constituent is missing its label"),
    ],
    ids=["UnbalancedBrackets", "EmptyConstituent", "MalformedLabel"],
)
def test_build_npp_malformed_tree_exits_3(tmp_path, capsys, tree, message):
    # build-pairs parses in the worker too, so at 2 workers the error on
    # line 2, in the worker's block, crosses to the parent in the worker's
    # counts file and must keep its type and line number; it parses
    # without spans, and must still print build-npp's line word for word
    trees = tmp_path / "bad.txt"
    trees.write_text(f"{DOG}\n{tree}\n", encoding="utf-8")
    commands = (["build-npp"], ["build-pairs", "--input-mode", "treebank"])
    for command in commands:
        for workers in ("1", "2"):
            out = tmp_path / f"{command[0]}-{workers}"
            argv = [*command, str(trees), "--out", str(out), "--workers", workers]
            assert main(argv) == 3, argv
            assert capsys.readouterr().err == f"error: line 2: {message}\n", argv
            assert list(out.glob(".nextphrase-*")) == [], argv
            assert list(out.glob("pairs_*.jsonl")) == [], argv


@given(GENERATED_TREES, st.integers(0, 2**16))
def test_npp_record_writes_or_names_a_skip(text, seed):
    (outcome,) = _npp_outcomes((0, (0, text)), seed=seed, min_size=2, name="t")
    if isinstance(outcome, tuple):
        sink, written, lines = outcome
        assert (sink, written) == (0, 1)
        (line,) = lines
        record = json.loads(line)
        assert record["id"] == "t:00000000"
        choices = parse_prompt(record["input"])[2]
        assert record["target"] in choices
        assert len(set(choices)) == len(choices)
    else:
        assert isinstance(outcome, str)
        assert outcome in SKIP_REASONS


def test_tree_records_build_no_nodes(monkeypatch):
    def no_node(*args):
        raise AssertionError("a Node was built")

    monkeypatch.setattr(oracles, "Node", no_node)
    with pytest.raises(AssertionError, match="a Node was built"):
        tree_root(nextphrase.treebank.parse_ptb(DOG))
    outcomes = []
    for index, text in enumerate((SHOP, EAT_PIE, DOG, f"(ROOT {SHOP})", list_tree(3))):
        record = (0, (index, text))
        outcomes += _npp_outcomes(record, seed=3, min_size=2, name="t")
        ((_, pairs, lines),) = _tree_pair_outcomes(record, splits=bytearray(1), name="t")
        assert pairs and "".join(lines)
    assert any(isinstance(outcome, tuple) for outcome in outcomes)


def test_build_npp_accounts_for_every_generated_tree(tmp_path):
    rng = random.Random(41)
    texts = [random_tree_text(rng, *shape) for shape in TREE_SHAPES for _ in range(40)]
    texts += [list_tree(n) for n in range(41)]
    trees = tmp_path / "generated.txt"
    trees.write_text("\n".join(texts) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["build-npp", str(trees), "--out", str(out), "--seed", "2"]) == 0
    counts = _manifest(out)["counts"]
    assert counts["sentences_read"] == len(texts)
    assert counts["sentences_read"] == counts["instances_written"] + sum(
        counts["skips"].values()
    )
    assert counts["instances_written"] > 0 and set(counts["skips"]) <= SKIP_REASONS
    assert "too_many_choices" in counts["skips"]
    lines = (out / "instances.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == counts["instances_written"]


def test_build_npp_skips_group_beyond_the_letters(tmp_path):
    trees = tmp_path / "trees.txt"
    trees.write_text(f"{SHOP}\n{list_tree(27)}\n{DOG}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["build-npp", str(trees), "--out", str(out)]) == 0
    counts = _manifest(out)["counts"]
    assert counts["skips"] == {"too_many_choices": 1, "no_eligible_group": 1}
    assert counts["sentences_read"] == counts["instances_written"] + sum(
        counts["skips"].values()
    )
    assert [r["id"] for r in _records(out / "instances.jsonl")] == ["trees:00000000"]
    assert list(out.glob(".nextphrase-*")) == []


# what a --workers 2 build loads none of either: its workers are forked
# and report through files and their exit status
NOT_LOADED_BY_A_FORKED_BUILD = ("multiprocessing", "concurrent.futures", "logging")


@pytest.mark.parametrize(
    "module", ["multiprocessing", "concurrent.futures", "dataclasses", "logging", "datetime"]
)
def test_importing_the_cli_does_not_load(tmp_path, module):
    # only a finished build reads the clock; records are named tuples and
    # the summary line is a plain print, so start-up runs no dataclass or
    # logging set-up
    src = str(Path(nextphrase.corpus.__file__).parents[1])
    codes = [f"import sys, nextphrase.cli; print({module!r} in sys.modules)"]
    if module in NOT_LOADED_BY_A_FORKED_BUILD:
        argv = [
            "build-pairs", str(_write_trees(tmp_path)), "--input-mode", "treebank",
            "--out", str(tmp_path / "out"), "--workers", "2",
        ]
        codes.append(
            "import sys; from nextphrase.cli import main; "
            f"code = main({argv!r}); print(code or {module!r} in sys.modules)"
        )
    for code in codes:
        # -W error: forking a process that runs threads warns on Python 3.12+
        result = subprocess.run(
            [sys.executable, "-W", "error", "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.stdout.splitlines()[-1] == "False", result.stdout


@pytest.mark.parametrize("command", ["build-npp", "build-nsp", "build-pairs"])
def test_a_build_loads_neither_string_nor_datetime(tmp_path, command):
    # the choice letters are a constant and the manifest's time comes
    # from time; a module the interpreter loaded before the build counts
    # as not loaded by it
    trees = tmp_path / "one.txt"
    trees.write_text(f"{EAT_PIE}\n", encoding="utf-8")
    docs = tmp_path / "doc.txt"
    docs.write_text("It rains. We hide. Thanks, Bob.\n", encoding="utf-8")
    source = docs if command == "build-nsp" else trees
    argv = [command, str(source), "--out", str(tmp_path / "out")]
    if command == "build-pairs":
        argv += ["--input-mode", "treebank"]
    code = (
        "import sys; names = ('string', 'datetime'); "
        "before = [name in sys.modules for name in names]; "
        "from nextphrase.cli import main; code = main(sys.argv[1:]); "
        "print(code, *(name in sys.modules and not was for name, was in zip(names, before)))"
    )
    src = str(Path(nextphrase.corpus.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.splitlines()[-1].split() == ["0", "False", "False"]


def test_a_run_puts_back_sigterm_and_runs_outside_the_main_thread(tmp_path):
    # main sets no signal handler, which only the main thread could set;
    # the process entry handles the stop signals
    trees = _write_trees(tmp_path)
    sigint = signal.getsignal(signal.SIGINT)
    assert main(["build-npp", str(trees), "--out", str(tmp_path / "main")]) == 0
    assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL
    assert signal.getsignal(signal.SIGINT) is sigint
    codes = []
    argv = ["build-npp", str(trees), "--out", str(tmp_path / "thread")]
    thread = threading.Thread(target=lambda: codes.append(main(argv)))
    thread.start()
    thread.join()
    assert codes == [0]
    assert (tmp_path / "thread" / "instances.jsonl").read_bytes() == (
        tmp_path / "main" / "instances.jsonl"
    ).read_bytes()


def test_created_at_is_the_time_of_the_run_in_utc(tmp_path):
    trees = _write_trees(tmp_path)
    out = tmp_path / "out"
    start = datetime.datetime.now(datetime.timezone.utc)
    assert main(["build-npp", str(trees), "--out", str(out)]) == 0
    end = datetime.datetime.now(datetime.timezone.utc)
    created_at = _manifest(out)["created_at"]
    # isoformat's layout, always with six microsecond digits
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{6}\+00:00", created_at), created_at
    stamp = datetime.datetime.fromisoformat(created_at)
    assert stamp.utcoffset() == datetime.timedelta(0)
    assert start - datetime.timedelta(seconds=2) <= stamp <= end + datetime.timedelta(seconds=2)


# what only the build commands load; the other commands run none of it
BUILD_ONLY = ("nextphrase.build", "nextphrase.fanout", "nextphrase.instances")


@pytest.mark.parametrize(
    "command", ["evaluate", "stats", "debug-phrases", "build-npp", "build-nsp", "build-pairs"]
)
def test_only_a_build_loads_the_builders(tmp_path, command):
    trees, docs, out = _write_trees(tmp_path), _write_docs(tmp_path), str(tmp_path / "out")
    argv = {
        "evaluate": _evaluate_argv(tmp_path / "report.txt"),
        "stats": ["stats", str(docs)],
        "debug-phrases": ["debug-phrases", str(trees)],
        "build-npp": ["build-npp", str(trees), "--out", out],
        "build-nsp": ["build-nsp", str(docs), "--out", out],
        "build-pairs": ["build-pairs", str(docs), "--out", out],
    }[command]
    code = (
        "import sys; from nextphrase.cli import main; code = main(sys.argv[1:]); "
        f"print(code, *(name in sys.modules for name in {(*BUILD_ONLY, 'hashlib')!r}))"
    )
    src = str(Path(nextphrase.corpus.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    *loaded, hashlib_loaded = result.stdout.splitlines()[-1].split()
    build_run = str(command.startswith("build-"))
    assert loaded == ["0", *[build_run] * len(BUILD_ONLY)]
    # only a build digests its input; hashlib would load OpenSSL, a few
    # MiB of a small run's peak RSS
    if build_run == "False":
        assert hashlib_loaded == "False"


def test_build_summary_lines(tmp_path, capsys):
    trees = tmp_path / "one.txt"
    trees.write_text(f"{EAT_PIE}\n", encoding="utf-8")
    assert main(["build-npp", str(trees), "--out", str(tmp_path / "npp")]) == 0
    assert capsys.readouterr().err == "INFO build-npp: 1 sentences -> 1 instances (0 skipped)\n"
    argv = ["build-pairs", str(trees), "--input-mode", "treebank", "--out", str(tmp_path / "pairs")]
    assert main(argv) == 0
    assert capsys.readouterr().err == "INFO build-pairs: 1 sentences -> 5 pairs\n"
    docs = _write_docs(tmp_path)
    assert main(["build-nsp", str(docs), "--out", str(tmp_path / "nsp")]) == 0
    assert capsys.readouterr().err == "INFO build-nsp: 4 contexts -> 4 instances (0 skipped)\n"


def test_manifest_config_is_the_pipeline_config(tmp_path):
    defaults = PipelineConfig()._asdict()
    assert list(defaults) == [
        "seed", "min_group_size", "distractors", "ratios", "input_mode",
        "guard_list", "sample", "workers", "pool_cap",
    ]
    # as the manifest writes them: JSON has no tuples
    defaults = json.loads(json.dumps(defaults))
    trees = _write_trees(tmp_path)
    docs = _write_docs(tmp_path)
    seen = set()
    for command, source in (("build-npp", trees), ("build-pairs", docs), ("build-nsp", docs)):
        out = tmp_path / command
        assert main([command, str(source), "--out", str(out)]) == 0
        config = _manifest(out)["config"]
        assert list(config.items()) == [
            (key, value) for key, value in defaults.items() if key in config
        ], command
        seen.update(config)
    # every field is a flag of some build
    assert seen == set(defaults)


def test_missing_input_exits_2(tmp_path):
    assert main(
        ["build-npp", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "out")]
    ) == 2


def _files_under(root):
    """Every path under root, with the bytes of each file (None for a directory)."""
    return {
        str(path.relative_to(root)): path.read_bytes() if path.is_file() else None
        for path in sorted(root.rglob("*"))
    }


FAILED_RERUN_BUILDS = {
    "build-npp": (_write_trees, []),
    "build-pairs": (_write_trees, ["--input-mode", "treebank"]),
    "build-nsp": (_write_docs, []),
}


# what fails the rerun: a directory in the way of the finished manifest,
# or an input whose last line is not UTF-8
@pytest.mark.parametrize("failure", ["not-utf-8", "manifest.json"])
@pytest.mark.parametrize("command", sorted(FAILED_RERUN_BUILDS))
def test_failed_rerun_leaves_out_as_it_was(tmp_path, command, failure):
    write_input, options = FAILED_RERUN_BUILDS[command]
    source = write_input(tmp_path)
    out = tmp_path / "out"
    assert main([command, str(source), "--out", str(out), *options]) == 0
    if failure == "manifest.json":
        (out / "manifest.json").unlink()
        (out / "manifest.json").mkdir()
    before = _files_under(out)
    lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
    # more than one read buffer of input
    source.write_text("".join(reversed(lines)) * 100, encoding="utf-8")
    # without the failure, the rerun's input writes other data bytes
    fresh = tmp_path / "fresh"
    assert main([command, str(source), "--out", str(fresh), *options]) == 0
    data = [name for name in before if name.endswith(".jsonl")]
    assert any((fresh / name).read_bytes() != before[name] for name in data)
    if failure == "not-utf-8":
        with open(source, "ab") as handle:
            handle.write(b"(S (NN \xff))\n")
    assert main([command, str(source), "--out", str(out), *options]) == 2
    assert _files_under(out) == before


# every output of each build, as named in --out
BUILD_OUTPUTS = {
    "build-npp": ["instances.jsonl", "stats.json", "manifest.json"],
    "build-pairs": [f"pairs_{split}.jsonl" for split in ("train", "dev", "test")]
    + ["stats.json", "manifest.json"],
    "build-nsp": ["instances.jsonl", "stats.json", "manifest.json"],
}


def _plant_temp_names(directory, outputs):
    """A regular file or a directory, in turn, under each temp or part file
    name an output could take, ``<output>.tmp`` and ``<output>.tmp.<n>``;
    what directory then holds, as ``_files_under`` gives it."""
    directory.mkdir(parents=True, exist_ok=True)
    for index, output in enumerate(outputs):
        for k, suffix in enumerate((".tmp", ".tmp.0", ".tmp.1")):
            path = directory / (output + suffix)
            if (index + k) % 2:
                path.mkdir()
                (path / "inside").write_bytes(b"not the run's\n")
            else:
                path.write_bytes(f"not the run's {path.name}\n".encode())
    return _files_under(directory)


def _left_alone(directory, planted, outputs):
    """True when directory holds what was planted, unchanged, and the outputs."""
    after = _files_under(directory)
    return {name: after.get(name) for name in planted} == planted and sorted(
        set(after) - set(planted)
    ) == sorted(outputs)


@pytest.mark.parametrize("command", sorted(FAILED_RERUN_BUILDS))
def test_a_build_leaves_files_named_like_its_temp_files_alone(tmp_path, command):
    write_input, options = FAILED_RERUN_BUILDS[command]
    source = write_input(tmp_path)
    for workers in ("1", "2"):
        out = tmp_path / f"out-{workers}"
        planted = _plant_temp_names(out, BUILD_OUTPUTS[command])
        argv = [command, str(source), "--out", str(out), *options, "--workers", workers]
        assert main(argv) == 0, workers
        assert _left_alone(out, planted, BUILD_OUTPUTS[command]), workers


def test_a_finished_run_warns_about_a_staging_directory_it_did_not_make(tmp_path, capsys):
    trees = _write_trees(tmp_path)
    argv = ["build-npp", str(trees), "--workers", "2"]
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    assert main([*argv, "--out", str(fresh)]) == 0
    # what a killed run leaves, and a file that is only named like it
    stale = out / ".nextphrase-killed"
    stale.mkdir(parents=True)
    (stale / "instances.jsonl").write_bytes(b'{"id": ')
    (out / ".nextphrase-file").write_bytes(b"not a directory\n")
    planted = _files_under(out)
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines() if "WARN" in line]
    assert warnings == [
        f"WARN {stale}: not this run's staging directory; it may belong to a run "
        "still in progress, so it is left in place"
    ]
    after = _files_under(out)
    assert {name: after[name] for name in planted} == planted
    outputs = {name: after[name] for name in _files_under(fresh)}
    assert outputs.pop("manifest.json")
    assert outputs == {name: (fresh / name).read_bytes() for name in outputs}
    # a run that fails prints its error line alone
    trees.write_text(f"{DOG}\n(S (NP\n", encoding="utf-8")
    assert main([*argv, "--out", str(out)]) == 3
    _assert_one_error_line(capsys)
    assert _files_under(out) == after


def _evaluate_argv(report, candidates=DATA / "candidates.txt"):
    return [
        "evaluate", "--candidates", str(candidates),
        "--references", str(DATA / "references.txt"), "--report", str(report),
    ]


def test_evaluate_leaves_files_named_like_its_temp_files_alone(tmp_path):
    report = tmp_path / "ev" / "report.txt"
    outputs = ["report.txt", "report.txt.json"]
    planted = _plant_temp_names(report.parent, outputs)
    assert main(_evaluate_argv(report)) == 0
    assert _left_alone(report.parent, planted, outputs)


def _assert_one_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


def test_build_npp_on_a_tree_line_that_is_not_utf8_exits_2(tmp_path, capsys):
    trees = _write_trees(tmp_path)
    bad = tmp_path / "bad.txt"
    # more than one read buffer of good lines: the error names the file and
    # the line, not an offset in the last buffer decoded
    good = trees.read_bytes() * 100
    bad.write_bytes(good + b"(S (NN \xff))\n" + trees.read_bytes())
    for workers in ("1", "2"):
        out = tmp_path / f"out-{workers}"
        argv = ["build-npp", str(trees), "--out", str(out), "--workers", workers]
        assert main(argv) == 0
        before = _files_under(out)
        capsys.readouterr()
        assert main(["build-npp", str(bad), *argv[2:]]) == 2, workers
        err = _assert_one_error_line(capsys)
        assert err.startswith(f"error: {bad}: line 301 is not UTF-8 (byte 8: "), err
        assert _files_under(out) == before


def test_evaluate_on_candidates_that_are_not_utf8_exits_2(tmp_path, capsys):
    report = tmp_path / "ev" / "report.txt"
    assert main(_evaluate_argv(report)) == 0
    before = _files_under(report.parent)
    candidates = tmp_path / "candidates.txt"
    candidates.write_bytes(b"\xff\xfe" + (DATA / "candidates.txt").read_bytes())
    capsys.readouterr()
    assert main(_evaluate_argv(report, candidates)) == 2
    err = _assert_one_error_line(capsys)
    assert err == f"error: {candidates}: line 1 is not UTF-8 (byte 1: invalid start byte)"
    assert _files_under(report.parent) == before


# the lines evaluate's first pass reads, three in each file
SAT, SAT_DOWN = "the cat sat\n", "the cat sat down\n"
# the files' lines after evaluate's first pass, and the error line of its
# second pass
CHANGED_EVAL_FILES = {
    "both-grown": ([SAT] * 4, [SAT_DOWN] * 4, "candidates", "it has more than the 3 items counted"),
    "both-cut": ([SAT], [SAT_DOWN], "candidates", "it ended before item 2 of the 3 counted"),
    "candidates-grown": (
        [SAT] * 4, [SAT_DOWN] * 3, "candidates", "it has more than the 3 items counted"
    ),
    "references-grown": (
        [SAT] * 3, [SAT_DOWN] * 4, "references", "it has more than the 3 items counted"
    ),
    # as many lines as the first pass read, each another line
    "candidates-rewritten": (
        ["a dog ran\n"] * 3, [SAT_DOWN] * 3, "candidates",
        "item 1 is not the item the first pass read",
    ),
    "references-rewritten": (
        [SAT] * 3, ["a dog ran\n"] * 3, "references",
        "item 1 is not the item the first pass read",
    ),
    # as many lines, only the last of them another line
    "references-last-rewritten": (
        [SAT] * 3, [SAT_DOWN, SAT_DOWN, "a dog ran\n"], "references",
        "item 3 is not the item the first pass read",
    ),
}


@pytest.mark.parametrize("change", sorted(CHANGED_EVAL_FILES))
def test_evaluate_on_files_that_change_between_its_passes_exits_2(
    tmp_path, capsys, monkeypatch, change
):
    candidates, references, changed, detail = CHANGED_EVAL_FILES[change]
    paths = {"candidates": tmp_path / "cand.txt", "references": tmp_path / "refs.txt"}

    def write(candidate_lines, reference_lines):
        paths["candidates"].write_text("".join(candidate_lines), encoding="utf-8")
        paths["references"].write_text("".join(reference_lines), encoding="utf-8")

    write([SAT] * 3, [SAT_DOWN] * 3)
    report = tmp_path / "ev" / "report.txt"
    argv = [
        "evaluate", "--candidates", str(paths["candidates"]),
        "--references", str(paths["references"]), "--report", str(report),
    ]
    assert main(argv) == 0
    before = _files_under(report.parent)
    first_pass = nextphrase.metrics._document_frequency

    def count_then_change(references_per_segment):
        counted = first_pass(references_per_segment)
        write(candidates, references)
        return counted

    monkeypatch.setattr(nextphrase.metrics, "_document_frequency", count_then_change)
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {paths[changed]}: changed while it was read: {detail}\n"
    assert _files_under(report.parent) == before


# evaluate scores every segment before it stages any output; here the
# scoring touches the file that $STARTED names and then waits
SLOW_EVALUATE = """
import os, time
from nextphrase import cli


def evaluate_files(*paths):
    open(os.environ["STARTED"], "w").close()
    time.sleep(60)


cli.evaluate_files = evaluate_files
"""


def _stopped_evaluate(tmp_path: Path, signum: int) -> None:
    """Send signum to an evaluate run, started through the process entry,
    while it scores, before it stages any output: as Python ends on an
    uncaught Ctrl-C, it ends by the signal, but silently, and leaves the
    report directory as it was."""
    (tmp_path / "slow.py").write_text(SLOW_EVALUATE, encoding="utf-8")
    report = tmp_path / "ev" / "report.txt"
    assert main(_evaluate_argv(report)) == 0
    before = _files_under(report.parent)
    started = tmp_path / "started"
    src = str(Path(nextphrase.corpus.__file__).parents[1])
    run = subprocess.Popen(
        [sys.executable, "-c", "import slow; from nextphrase.__main__ import main; main()",
         *_evaluate_argv(report)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, str(tmp_path)]), "STARTED": str(started)},
    )
    try:
        deadline = time.monotonic() + 60
        while not started.exists() and run.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert started.exists()
        run.send_signal(signum)
        out, err = run.communicate(timeout=60)
    finally:
        if run.poll() is None:
            run.kill()
            run.wait()
    assert run.returncode == -signum
    assert (out, err) == (b"", b"")
    assert _files_under(report.parent) == before


def test_ctrl_c_ends_evaluate_by_sigint_with_no_traceback(tmp_path):
    _stopped_evaluate(tmp_path, signal.SIGINT)


def test_sigterm_ends_evaluate_by_sigterm_with_no_traceback(tmp_path):
    # SIGTERM unwinds the whole command, not only while outputs are staged
    _stopped_evaluate(tmp_path, signal.SIGTERM)


# the results are printed only once the files are in place, so a run
# that cannot write them prints its error line alone
@pytest.mark.parametrize("command", ["evaluate", "stats"])
def test_a_run_that_cannot_put_its_files_in_place_prints_no_result(tmp_path, capsys, command):
    out = tmp_path / "out"
    if command == "evaluate":
        argv, blocked = _evaluate_argv(out / "report.txt"), out / "report.txt.json"
    else:
        argv, blocked = ["stats", str(_write_docs(tmp_path)), "--out", str(out)], out / "stats.json"
    blocked.mkdir(parents=True)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: output is a directory: {blocked}"]


def test_usage_error_exits_1(tmp_path, capsys):
    assert main(["build-npp"]) == 1
    assert main(["no-such-command"]) == 1
    trees = _write_trees(tmp_path)
    out = str(tmp_path / "out")
    assert main(["build-npp", str(trees), "--out", out, "--template", "lettered"]) == 1
    assert main(["stats", str(trees), "--workers", "2"]) == 1
    capsys.readouterr()
    docs = _write_docs(tmp_path)
    for argv in (
        ["build-npp", str(trees), "--out", out, "--sample", "0"],
        ["build-npp", str(trees), "--out", out, "--sample", "-3"],
        ["build-nsp", str(docs), "--out", out, "--pool-cap", "0"],
        # the split sizes take no seed, so stats has no --seed
        ["stats", str(docs), "--seed", "5"],
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), argv
    assert not (tmp_path / "out").exists()


def test_workers_above_1_need_fork(tmp_path, capsys, monkeypatch):
    # as on Windows, which has no os.fork
    monkeypatch.delattr(os, "fork")
    trees = _write_trees(tmp_path)
    out = tmp_path / "out"
    assert main(["build-npp", str(trees), "--out", str(out), "--workers", "2"]) == 1
    assert capsys.readouterr().err == (
        "error: workers above 1 need os.fork, which this platform lacks\n"
    )
    assert not out.exists()
    assert main(["build-npp", str(trees), "--out", str(out), "--workers", "1"]) == 0


def test_a_whole_file_input_that_is_not_utf8_names_its_file_and_line(tmp_path, capsys):
    trees = _write_trees(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_bytes(b"seed=5\n# caf\xe9\n")
    argv = ["build-npp", str(trees), "--out", str(tmp_path / "npp"), "--config", str(config)]
    assert main(argv) == 2
    assert _assert_one_error_line(capsys).startswith(f"error: {config}: line 2 is not UTF-8 ")
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "a.txt").write_text("The sky is blue. It rains.\n", encoding="utf-8")
    (docs / "b.txt").write_bytes(b"Dogs bark.\nCats \xc3 nap.\n")
    argv = ["build-nsp", str(docs), "--input-mode", "dir", "--out", str(tmp_path / "nsp")]
    assert main(argv) == 2
    err = _assert_one_error_line(capsys)
    assert err.startswith(f"error: {docs / 'b.txt'}: line 2 is not UTF-8 (byte 6: "), err


@pytest.mark.parametrize("command", ["build-pairs", "build-nsp", "stats"])
def test_a_directory_named_like_a_document_is_passed_over(tmp_path, capsys, command):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "a.txt").write_text("The sky is blue. It rains often.\n", encoding="utf-8")
    (docs / "b.txt").write_text("Dogs bark loudly. Cats nap. Birds sing.\n", encoding="utf-8")
    runs = []
    for out in (tmp_path / "plain", tmp_path / "with-sub"):
        if out.name == "with-sub":
            (docs / "sub.txt").mkdir()
            (docs / "sub.txt" / "c.txt").write_text("Not a document.\n", encoding="utf-8")
        argv = [command, str(docs), "--input-mode", "dir", "--out", str(out)]
        if command == "build-nsp":
            argv += ["--distractors", "1"]
        assert main(argv) == 0
        files = {
            path.name: path.read_bytes() for path in out.iterdir() if path.name != "manifest.json"
        }
        inputs = _manifest(out)["inputs"] if command != "stats" else None
        runs.append((capsys.readouterr().out, files, inputs))
    assert runs[0] == runs[1]
    if command != "stats":
        documents = (docs / "a.txt", docs / "b.txt")
        assert runs[0][2] == {str(path): _digest(path) for path in documents}


def test_config_file_and_flag_precedence(tmp_path):
    trees = _write_trees(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text("seed=5\nmin_group_size=2\n# comment\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(
        ["build-npp", str(trees), "--out", str(out), "--config", str(config)]
    ) == 0
    assert _manifest(out)["config"]["seed"] == 5
    override = tmp_path / "out2"
    assert main(
        [
            "build-npp", str(trees), "--out", str(override),
            "--config", str(config), "--seed", "8",
        ]
    ) == 0
    assert _manifest(override)["config"]["seed"] == 8


def test_unknown_config_key_exits_1(tmp_path, capsys):
    trees = _write_trees(tmp_path)
    config = tmp_path / "run.cfg"
    out = tmp_path / "out"
    build_npp = ["build-npp", str(trees), "--out", str(out)]
    # a key is known only to a subcommand with the matching flag
    for command, line in (
        (build_npp, "sede=5"),
        (build_npp, "template=lettered"),
        (build_npp, "distractors=30"),
        (build_npp, "ratios=0.5,0.5,0.5"),
        (["stats", str(trees)], "workers=0"),
        (["stats", str(trees)], "seed=5"),
    ):
        config.write_text(line + "\n", encoding="utf-8")
        assert main([*command, "--config", str(config)]) == 1, line
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: unknown config key: {line.partition('=')[0]!r}"], line
    assert not out.exists()


def test_a_config_line_without_a_key_exits_1(tmp_path, capsys):
    trees = _write_trees(tmp_path)
    config = tmp_path / "run.cfg"
    # blank lines and comments are skipped, as in a guard list
    config.write_text("# seeds\n\nseed=5\n  seed 6  \n", encoding="utf-8")
    out = tmp_path / "out"
    for command in (["build-npp", str(trees), "--out", str(out)], ["stats", str(trees)]):
        assert main([*command, "--config", str(config)]) == 1, command
        assert capsys.readouterr().err.splitlines() == ["error: bad config line: 'seed 6'"]
    assert not out.exists()


def test_a_config_line_ends_only_at_a_newline(tmp_path, capsys):
    trees = _write_trees(tmp_path)
    config = tmp_path / "run.cfg"
    # one line: str.splitlines would also cut it at U+2028 and read workers=2
    value = "5\u2028workers=2"
    config.write_text(f"seed={value}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["build-npp", str(trees), "--out", str(out), "--config", str(config)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: bad config value for seed: {value!r}"]
    assert not out.exists()


def test_a_config_file_may_open_with_a_byte_order_mark(tmp_path):
    trees = _write_trees(tmp_path)
    config = tmp_path / "run.cfg"
    # as an editor that saves "UTF-8 with BOM" writes it
    config.write_bytes(b"\xef\xbb\xbfseed=3\n")
    out = tmp_path / "out"
    assert main(["build-npp", str(trees), "--out", str(out), "--config", str(config)]) == 0
    assert _manifest(out)["config"]["seed"] == 3


def test_unknown_input_mode_in_config_exits_1(tmp_path, capsys):
    docs = _write_docs(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text("input_mode=bogus\n", encoding="utf-8")
    out = tmp_path / "out"
    for command in (
        ["build-pairs", str(docs), "--out", str(out)],
        ["build-nsp", str(docs), "--out", str(out)],
        ["stats", str(docs)],
    ):
        assert main([*command, "--config", str(config)]) == 1, command
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: unknown input mode: 'bogus'"], command
    assert not out.exists()


def test_build_pairs_counts_and_split(tmp_path, capsys):
    docs = _write_docs(tmp_path)
    out = tmp_path / "out"
    assert main(
        ["build-pairs", str(docs), "--out", str(out), "--seed", "2", "--ratios", "0.5,0.25,0.25"]
    ) == 0
    table = capsys.readouterr().out
    assert table.splitlines()[0].split() == ["Dataset", "Train", "Dev", "Test"]
    manifest = _manifest(out)
    counts = manifest["counts"]
    assert counts["sentences_read"] == 6
    assert counts["sentences"] == {"train": 4, "dev": 1, "test": 1}
    per_split = {
        split: _records(out / f"pairs_{split}.jsonl")
        for split in ("train", "dev", "test")
    }
    assert sum(len(r) for r in per_split.values()) == counts["pairs_written"]
    for records in per_split.values():
        for record in records:
            assert record["q"]
            assert record["p"]
    sample = per_split["train"][0]
    assert "#" in sample["id"]


@given(QUOTED_IDS, st.lists(ESCAPE_TEXT, max_size=8))
def test_pair_block_matches_json_dumps_of_each_pair(sentence_id, tokens):
    pairs = build_completion_pairs(tokens, sentence_id)
    expected = "".join(
        json.dumps(
            {
                "id": f"{pair.sentence_id}#{pair.split_point}",
                "p": detokenize(pair.p),
                "q": detokenize(pair.q),
            },
            ensure_ascii=False,
        )
        + "\n"
        for pair in pairs
    )
    count, lines = _pair_lines(sentence_id, tokens)
    assert (count, "".join(lines)) == (len(pairs), expected)


def test_pair_lines_of_a_long_sentence_come_one_line_per_item():
    tokens = [f"w{i}" for i in range(100)]
    count, lines = _pair_lines("doc:0", tokens)
    lines = list(lines)
    assert count == len(lines) == 99
    assert all(line.count("\n") == 1 and line.endswith("\n") for line in lines)
    assert lines[40] == json.dumps(
        {"id": "doc:0#41", "p": " ".join(tokens[:41]), "q": " ".join(tokens[41:])}
    ) + "\n"


@given(QUOTED_IDS, ESCAPE_TEXT, ESCAPE_TEXT)
def test_record_line_matches_json_dumps(sentence_id, prompt, target):
    record = {"id": sentence_id, "input": prompt, "target": target}
    assert _record_line(sentence_id, prompt, target) == json.dumps(
        record, ensure_ascii=False
    ) + "\n"


def test_build_pairs_escape_heavy_tokens_round_trip(tmp_path):
    docs = tmp_path / "docs.txt"
    docs.write_text(
        'She said "hi\\there" \x00\x07 caf\u00e9 \U0001f600 \x1b[0m today.\n'
        'A \\" b\u00e9\\ "\x1b" \U0001f600\U0001f600 end\n',
        encoding="utf-8",
    )
    name = 'q"b\\'
    out = tmp_path / "out"
    assert main(["build-pairs", str(docs), "--out", str(out), "--name", name]) == 0
    tokens = {i: tokenize(text) for i, text in iter_sentence_texts(docs, "lines", name)}
    seen = 0
    for split in ("train", "dev", "test"):
        # split on newlines only: str.splitlines would also cut at U+2028
        for line in (out / f"pairs_{split}.jsonl").read_bytes().split(b"\n")[:-1]:
            text = line.decode("utf-8")
            record = json.loads(text)
            assert text == json.dumps(record, ensure_ascii=False)
            sentence_id, _, cut = record["id"].rpartition("#")
            expected = tokens[sentence_id]
            assert record["p"].split(" ") == expected[: int(cut)]
            assert record["q"].split(" ") == expected[int(cut):]
            seen += 1
    assert seen == sum(len(t) - 1 for t in tokens.values()) > 0


# five documents, so that at --workers 2 block 0 is documents 0 and 1
FIVE_DOCUMENTS = [
    "The sky is blue. It rains often.",
    "Dogs bark loudly. Cats nap all day. Birds sing.",
    "We stay inside. Tea is hot.",
    "Thanks, Bob. See you soon.",
    "One more line here. And the last one.",
]
RAW_TEXT_BUILDS = {"build-pairs": [], "build-nsp": ["--pool-cap", "3"]}


# the ids of a lines input name the worker count alone
@pytest.mark.parametrize(
    "mode, workers",
    [("lines", "1"), ("lines", "2"), ("dir", "1"), ("dir", "2")],
    ids=["1", "2", "dir-1", "dir-2"],
)
@pytest.mark.parametrize("command", sorted(RAW_TEXT_BUILDS))
def test_a_raw_text_build_splits_each_document_where_its_block_is_built(
    tmp_path, monkeypatch, command, mode, workers
):
    # the count pass splits every document and keeps no sentence; the
    # build pass reads the documents only as far as the fan-out asks for
    # them, and splits each in the process that builds its block
    if mode == "lines":
        docs = tmp_path / "docs.txt"
        docs.write_text("".join(doc + "\n" for doc in FIVE_DOCUMENTS), encoding="utf-8")
    else:
        docs = tmp_path / "docs"
        docs.mkdir()
        for index, document in enumerate(FIVE_DOCUMENTS):
            (docs / f"{index}.txt").write_text(document, encoding="utf-8")
    split, read = cli.split_sentences, cli.iter_documents
    splits, passes = [], []

    def counted_split(document, *args, **kwargs):
        splits.append(FIVE_DOCUMENTS.index(document))
        return split(document, *args, **kwargs)

    def counted_read(*args, **kwargs):
        passes.append(0)
        for item in read(*args, **kwargs):
            passes[-1] += 1
            yield item

    # every pass reads the documents through cli._items; the first pass
    # splits them in cli, or in build-nsp's pool pass, and a block in build
    monkeypatch.setattr(cli, "iter_documents", counted_read)
    for module in (cli, build):
        monkeypatch.setattr(module, "split_sentences", counted_split)
    out = tmp_path / "out"
    argv = [command, str(docs), "--input-mode", mode, "--out", str(out), "--workers", workers]
    assert main([*argv, *RAW_TEXT_BUILDS[command]]) == 0
    # this process's splits and reads; a worker's are its own
    block_0 = range(5) if workers == "1" else range(2)
    assert splits == [*range(5), *block_0]
    assert passes == [5, len(block_0)]
    # 11 sentences, and a context is each sentence but a document's last
    expected = {"build-pairs": ("sentences_read", 11), "build-nsp": ("contexts_read", 6)}
    key, count = expected[command]
    assert _manifest(out)["counts"][key] == count


def test_build_pairs_reconstruction(tmp_path):
    docs = _write_docs(tmp_path)
    out = tmp_path / "out"
    assert main(["build-pairs", str(docs), "--out", str(out)]) == 0
    texts = {i: tokenize(text) for i, text in iter_sentence_texts(docs, "lines")}
    seen = 0
    for split in ("train", "dev", "test"):
        for record in _records(out / f"pairs_{split}.jsonl"):
            sentence_id, _, cut = record["id"].partition("#")
            expected = texts[sentence_id]
            assert tokenize(record["p"]) + tokenize(record["q"]) == expected
            assert tokenize(record["p"]) == expected[: int(cut)]
            seen += 1
    assert seen == sum(len(t) - 1 for t in texts.values())


def test_build_pairs_from_treebank(tmp_path):
    trees = _write_trees(tmp_path)
    out = tmp_path / "out"
    assert main(
        ["build-pairs", str(trees), "--out", str(out), "--input-mode", "treebank"]
    ) == 0
    counts = _manifest(out)["counts"]
    assert counts["sentences_read"] == 3
    assert counts["pairs_written"] == 11 + 5 + 3


def test_build_pairs_names_sentences_without_pairs(tmp_path, capsys):
    docs = tmp_path / "docs.txt"
    docs.write_text("Hello\nThe cat sat.\nOk\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["build-pairs", str(docs), "--out", str(out)]) == 0
    assert capsys.readouterr().err == "INFO build-pairs: 3 sentences -> 3 pairs\n"
    counts = _manifest(out)["counts"]
    assert counts["sentences_read"] == 3
    assert counts["pairs_written"] == 3
    assert counts["skips"] == {"too_short": 2}
    assert set(counts["skips"]) <= SKIP_REASONS
    stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    assert stats["skips"] == {"too_short": 2}


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(["Ok", "cat", "sat", "."]), max_size=5).map(" ".join),
        min_size=1,
        max_size=8,
    )
)
def test_build_pairs_accounts_for_every_sentence(lines):
    with tempfile.TemporaryDirectory() as scratch:
        docs = Path(scratch) / "docs.txt"
        docs.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        out = Path(scratch) / "out"
        assert main(["build-pairs", str(docs), "--out", str(out)]) == 0
        counts = _manifest(out)["counts"]
        sentences_with_pairs = len({
            record["id"].rpartition("#")[0]
            for split in ("train", "dev", "test")
            for record in _records(out / f"pairs_{split}.jsonl")
        })
        assert counts["sentences_read"] == sentences_with_pairs + sum(counts["skips"].values())


def test_build_nsp_distractors_cross_documents(tmp_path):
    docs = _write_docs(tmp_path)
    out = tmp_path / "out"
    assert main(["build-nsp", str(docs), "--out", str(out), "--seed", "4"]) == 0
    records = _records(out / "instances.jsonl")
    assert len(records) == 4
    doc_of = {
        "The sky is blue.": 0, "It rains often.": 0, "We stay inside.": 0,
        "Dogs bark loudly.": 1, "Cats nap all day.": 1, "Birds sing at dawn.": 1,
    }
    for record in records:
        doc_index = int(record["id"].split(":")[1])
        _, context, choices = parse_prompt(record["input"])
        assert doc_of[context] == doc_index
        assert record["target"] in choices
        for choice in choices:
            if choice != record["target"]:
                assert doc_of[choice] != doc_index


def test_build_nsp_skips_ambiguous_choices(tmp_path):
    docs = tmp_path / "docs.txt"
    docs.write_text(
        "Hello there. Thanks, Bob.\n"
        "Meeting at noon. Thanks, Bob.\n"
        "Report attached. Thanks, Bob.\n"
        "Lunch is ready. Come eat.\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    # five of the six sentences in each pool: every signed-off email draws
    # another email's sign-off, and "Come eat." draws "Thanks, Bob." twice
    assert main(["build-nsp", str(docs), "--out", str(out), "--distractors", "5"]) == 0
    counts = _manifest(out)["counts"]
    assert counts["skips"] == {"ambiguous_choices": 4}
    assert counts["contexts_read"] == counts["instances_written"] + sum(
        counts["skips"].values()
    )
    assert _records(out / "instances.jsonl") == []
    # with two distractors some draws are distinct; none that repeats is written
    written = []
    for seed in range(8):
        out = tmp_path / f"seed{seed}"
        assert main([
            "build-nsp", str(docs), "--out", str(out),
            "--distractors", "2", "--seed", str(seed),
        ]) == 0
        written += _records(out / "instances.jsonl")
    assert {r["target"] for r in written} == {"Thanks, Bob.", "Come eat."}
    for record in written:
        choices = parse_prompt(record["input"])[2]
        assert len(choices) == 3
        assert len(set(choices)) == len(choices)


def test_build_nsp_deterministic(tmp_path):
    docs = _write_docs(tmp_path)
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main(["build-nsp", str(docs), "--out", str(out), "--seed", "4"]) == 0
    assert (a / "instances.jsonl").read_bytes() == (b / "instances.jsonl").read_bytes()


def test_build_nsp_line_separator_stays_inside_its_record(tmp_path):
    # JSON leaves U+2028 unescaped; only "\\n" ends a record
    docs = tmp_path / "docs.txt"
    docs.write_text(
        "The sky is blue. It rains\u2028often. We stay inside.\n"
        "Dogs bark loudly. Cats nap all day. Birds sing at dawn.\n"
        "Trains run late. Buses run early. Bikes are quick.\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["build-nsp", str(docs), "--out", str(out), "--distractors", "2"]) == 0
    text = (out / "instances.jsonl").read_text(encoding="utf-8")
    records = _records(out / "instances.jsonl")
    assert len(records) == text.count("\n") == _manifest(out)["counts"]["instances_written"]
    assert any("\u2028" in record["input"] + record["target"] for record in records)


def test_build_nsp_workers_2_writes_the_same_bytes(tmp_path):
    # enough documents for a block of many per worker; a pool cap below the
    # sentence count leaves some documents with no sentence in the pool,
    # and shared sign-offs make some draws ambiguous
    rng = random.Random(5)
    lines = []
    for _ in range(120):
        sentences = [
            " ".join(random_sentence(rng, 2, 8)).capitalize() + "."
            for _ in range(rng.randint(1, 5))
        ]
        if rng.random() < 0.4:
            sentences.append("Thanks, Bob.")
        lines.append(" ".join(sentences))
    docs = tmp_path / "docs.txt"
    docs.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert main([
            "build-nsp", str(docs), "--out", str(out), "--seed", "3",
            "--distractors", "7", "--pool-cap", "150", "--workers", workers,
        ]) == 0
        outputs.append([(out / n).read_bytes() for n in ("instances.jsonl", "stats.json")])
        counts = _manifest(out)["counts"]
        assert counts["contexts_read"] == counts["instances_written"] + sum(
            counts["skips"].values()
        )
        assert counts["instances_written"] == len(_records(out / "instances.jsonl"))
    assert outputs[0] == outputs[1]
    assert counts["instances_written"] > 0 and counts["skips"]


@pytest.mark.parametrize("distractors", ["0", "26"])
def test_build_nsp_distractors_out_of_range_exit_1(tmp_path, capsys, distractors):
    docs = _write_docs(tmp_path)
    out = tmp_path / "out"
    assert main(
        ["build-nsp", str(docs), "--out", str(out), "--distractors", distractors]
    ) == 1
    assert "distractors" in capsys.readouterr().err
    assert not out.exists()


def test_build_nsp_pool_too_small(tmp_path):
    docs = tmp_path / "docs.txt"
    docs.write_text("Only doc here. It has two sentences.\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["build-nsp", str(docs), "--out", str(out)]) == 0
    counts = _manifest(out)["counts"]
    assert counts["instances_written"] == 0
    assert counts["skips"] == {"pool_too_small": 1}


def test_evaluate_writes_report_and_sidecar(tmp_path, capsys):
    report = tmp_path / "report.txt"
    assert main(
        [
            "evaluate",
            "--candidates", str(DATA / "candidates.txt"),
            "--references", str(DATA / "references.txt"),
            "--report", str(report),
        ]
    ) == 0
    assert report.read_text(encoding="utf-8") == (DATA / "golden_report.txt").read_text(
        encoding="utf-8"
    )
    sidecar = (tmp_path / "report.txt.json").read_text(encoding="utf-8")
    assert sidecar == (DATA / "golden_report.json").read_text(encoding="utf-8")
    assert "BLEU-4" in capsys.readouterr().out


def test_evaluate_count_mismatch_exits_3(tmp_path):
    cand = tmp_path / "c.txt"
    ref = tmp_path / "r.txt"
    cand.write_text("one line\n", encoding="utf-8")
    ref.write_text("one line\ntwo lines\n", encoding="utf-8")
    assert main(
        ["evaluate", "--candidates", str(cand), "--references", str(ref),
         "--report", str(tmp_path / "rep.txt")]
    ) == 3


def test_evaluate_splits_inputs_at_newlines_only(tmp_path, capsys):
    cand = tmp_path / "c.txt"
    ref = tmp_path / "r.txt"
    cand.write_text("the cat\u2028sat down\nthe dog ran\n", encoding="utf-8")
    ref.write_text("the cat sat down\nthe dog ran\n", encoding="utf-8")
    assert main(
        ["evaluate", "--candidates", str(cand), "--references", str(ref),
         "--report", str(tmp_path / "rep.txt")]
    ) == 0
    assert "segments: 2" in capsys.readouterr().out


# the runs that write files, by test id: each build at 1 and 2 workers,
# stats --out and evaluate
WRITING_RUNS = [
    f"{build}-w{workers}"
    for build in ("build-npp", "build-nsp", "build-pairs-lines", "build-pairs-treebank")
    for workers in (1, 2)
] + ["stats", "evaluate"]


@pytest.mark.parametrize("run", WRITING_RUNS)
def test_no_command_loads_openssl(tmp_path, run):
    # hashlib loads OpenSSL's _hashlib, a few MiB of a small run's peak
    # RSS; record seeds and manifest digests use CPython's own sha256
    trees, docs = _write_trees(tmp_path), _write_docs(tmp_path)
    command, _, workers = run.partition("-w")
    if command == "evaluate":
        argv = _evaluate_argv(tmp_path / "rep.txt")
    else:
        argv = {
            "build-npp": ["build-npp", str(trees)],
            "build-nsp": ["build-nsp", str(docs)],
            "build-pairs-lines": ["build-pairs", str(docs)],
            "build-pairs-treebank": ["build-pairs", str(trees), "--input-mode", "treebank"],
            "stats": ["stats", str(docs)],
        }[command] + ["--out", str(tmp_path / "out")]
    if workers:
        argv += ["--workers", workers]
    code = (
        "import sys; before = '_hashlib' in sys.modules; "
        "from nextphrase.cli import main; code = main(sys.argv[1:]); "
        "print(before, '_hashlib' in sys.modules, code)"
    )
    src = str(Path(nextphrase.corpus.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    before, after, code = result.stdout.splitlines()[-1].split()
    if before == "True":
        pytest.skip("the interpreter loaded _hashlib before nextphrase")
    assert (after, code) == ("False", "0")


def test_evaluate_missing_file_exits_2(tmp_path):
    assert main(
        ["evaluate", "--candidates", str(tmp_path / "nope.txt"),
         "--references", str(tmp_path / "nope2.txt"),
         "--report", str(tmp_path / "rep.txt")]
    ) == 2


def test_stats_table_and_sidecar(tmp_path, capsys):
    docs = _write_docs(tmp_path)
    other = tmp_path / "more.txt"
    other.write_text("One sentence here.\nAnd another one. Plus two.\n", encoding="utf-8")
    out = tmp_path / "stats"
    assert main(
        ["stats", str(docs), str(other), "--ratios", "0.8,0.1,0.1", "--out", str(out)]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["Dataset", "Train", "Dev", "Test"]
    assert lines[1].split()[0] == "docs"
    assert lines[2].split()[0] == "more"
    docs_counts = [int(x) for x in lines[1].split()[1:]]
    assert sum(docs_counts) == 6
    sidecar = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    assert sidecar["docs"]["total"] == 6
    assert sidecar["more"]["total"] == 3


def test_stats_and_build_pairs_split_a_treebank_alike(tmp_path, capsys):
    rng = random.Random(3)
    lines = []
    for index in range(30):
        lines.append(random_tree_text(rng))
        if index % 4 == 0:
            lines.append("  \t")  # a blank line is no sentence
    trees = tmp_path / "trees.txt"
    trees.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["stats", str(trees), "--input-mode", "treebank"]) == 0
    table = capsys.readouterr().out
    # the split sizes do not depend on the seed, only which sentence lands where
    for seed in ("5", "6"):
        out = tmp_path / f"out{seed}"
        assert main(
            ["build-pairs", str(trees), "--input-mode", "treebank", "--seed", seed,
             "--out", str(out)]
        ) == 0
        assert capsys.readouterr().out == table
        assert _manifest(out)["counts"]["sentences_read"] == 30
    row = table.splitlines()[1].split()
    assert row[0] == "trees"
    assert sum(int(count) for count in row[1:]) == 30


def test_stats_and_build_pairs_split_raw_text_alike(tmp_path, capsys):
    rng = random.Random(4)
    lines = []
    for index in range(30):
        sentences = [
            " ".join(random_sentence(rng, 1, 8)).capitalize() + rng.choice(".!?")
            for _ in range(rng.randint(1, 5))
        ]
        # a guard inside an email, and blank lines, which are no document
        lines.append(" ".join(sentences) + (" Dr. Who waves." if index % 3 == 0 else ""))
        if index % 4 == 0:
            lines.append("  \t")
    docs = tmp_path / "emails.txt"
    docs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    total = sum(1 for _ in iter_sentence_texts(docs, "lines"))
    assert main(["stats", str(docs)]) == 0
    table = capsys.readouterr().out
    for seed in ("5", "6"):
        out = tmp_path / f"out{seed}"
        assert main(["build-pairs", str(docs), "--seed", seed, "--out", str(out)]) == 0
        assert capsys.readouterr().out == table
        assert _manifest(out)["counts"]["sentences_read"] == total
    row = table.splitlines()[1].split()
    assert row[0] == "emails"
    assert sum(int(count) for count in row[1:]) == total > 30


def test_a_treebank_reads_no_guard_list(tmp_path, capsys):
    # the guards split raw text into sentences; a treebank is split already
    trees = _write_trees(tmp_path)
    missing = str(tmp_path / "missing.txt")
    options = ["--input-mode", "treebank", "--guard-list", missing]
    assert main(["stats", str(trees), *options]) == 0
    table = capsys.readouterr().out
    assert main(["build-pairs", str(trees), *options, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out == table
    # in lines mode the same list is read, and its absence fails both
    lines_out = tmp_path / "lines"
    for command in (["stats", str(trees)], ["build-pairs", str(trees), "--out", str(lines_out)]):
        assert main([*command, "--guard-list", missing]) == 2, command
        assert missing in _assert_one_error_line(capsys)
    assert not lines_out.exists()


def test_a_guard_list_may_open_with_a_byte_order_mark(tmp_path, capsys):
    text = tmp_path / "text.txt"
    text.write_text("See e.g. Smith now. Then go.\n", encoding="utf-8")
    guards = tmp_path / "guards.txt"
    guards.write_bytes(b"\xef\xbb\xbfe.g.\n")
    assert main(["stats", str(text), "--guard-list", str(guards)]) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    # the first guard still matches, so "e.g." ends no sentence
    assert sum(int(count) for count in row[1:]) == 2


@pytest.mark.parametrize("command", ["build-pairs", "build-nsp"])
def test_the_manifest_digests_the_guard_list(tmp_path, command):
    docs = _write_docs(tmp_path)
    guards = tmp_path / "g.txt"
    guards.write_text("e.g.\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, str(docs), "--out", str(out), "--guard-list", str(guards)]) == 0
    assert _manifest(out)["inputs"] == {str(docs): _digest(docs), str(guards): _digest(guards)}


def test_a_guard_list_that_is_also_a_document_has_one_digest(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "a.txt").write_text("The sky is blue. It rains often.\n", encoding="utf-8")
    guards = docs / "g.txt"
    guards.write_text("e.g.\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["build-pairs", str(docs), "--input-mode", "dir", "--guard-list", str(guards)]
    assert main([*argv, "--out", str(out)]) == 0
    documents = (docs / "a.txt", guards)
    assert _manifest(out)["inputs"] == {str(path): _digest(path) for path in documents}


def test_stats_counts_a_malformed_tree_line(tmp_path, capsys):
    # stats counts non-blank lines and parses no tree, so it takes a line
    # that build-npp rejects
    trees = tmp_path / "trees.txt"
    trees.write_text("(NN dog)\n\n(S\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["stats", str(trees), "--input-mode", "treebank", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((out / "stats.json").read_text(encoding="utf-8"))["trees"]["total"] == 2
    assert main(["build-npp", str(trees), "--out", str(tmp_path / "npp")]) == 3


def test_stats_inputs_sharing_a_stem_exit_1(tmp_path, capsys):
    # stats.json keys its rows by stem: two "x" rows would keep only one
    paths = []
    for folder in ("a", "b"):
        (tmp_path / folder).mkdir()
        paths.append(str(_write_docs(tmp_path / folder, "x.txt")))
    out = tmp_path / "out"
    assert main(["stats", *paths, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: two inputs share the file stem 'x'"]
    assert captured.out == ""
    assert not out.exists()


def test_stats_bad_ratios_exit_1(tmp_path, capsys):
    docs = _write_docs(tmp_path)
    assert main(["stats", str(docs), "--ratios", "0.5,0.2,0.2"]) == 1
    assert main(["stats", str(docs), "--ratios", "0.5,0.5"]) == 1
    assert main(["stats", str(docs), "--ratios", "1.2,-0.1,-0.1"]) == 1
    assert main(["stats", str(docs), "--ratios", "nan,0.5,0.5"]) == 1
    out = tmp_path / "out"
    assert main(
        ["build-pairs", str(docs), "--out", str(out), "--ratios", "1.2,-0.1,-0.1"]
    ) == 1
    assert main(
        ["build-pairs", str(docs), "--out", str(out), "--ratios", "nan,0.5,0.5"]
    ) == 1
    config = tmp_path / "nan.cfg"
    config.write_text("ratios=nan,0.5,0.5\n", encoding="utf-8")
    assert main(
        ["build-pairs", str(docs), "--out", str(out), "--config", str(config)]
    ) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 7
    assert all(line.startswith("error: ") for line in err)
    assert list(out.glob("*")) == []


def test_bad_ratios_exit_1_before_the_input_is_read(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    out = tmp_path / "out"
    config = tmp_path / "bad.cfg"
    config.write_text("ratios = 0.5,0.5,0.5\n", encoding="utf-8")
    for argv in (
        ["build-pairs", missing, "--out", str(out), "--ratios", "0.5,0.5,0.5"],
        ["build-pairs", missing, "--out", str(out), "--config", str(config)],
        ["stats", missing, "--ratios", "0.5,0.5,0.5"],
    ):
        assert main(argv) == 1, argv
        assert _assert_one_error_line(capsys) == "error: ratios sum to 1.5, expected 1"
    assert not out.exists()


# each command's arguments after its input, its exit code and its one
# error line, where {input} is the input's path
ONE_LINE_ERRORS = {
    "min-group-size": ("build-npp", ["--min-group-size", "0"], 1, "min-group-size must be >= 1"),
    "ratios-build-pairs": ("build-pairs", ["--ratios", "a,b,c"], 1, "bad ratios: 'a,b,c'"),
    "ratios-stats": ("stats", ["--ratios", "a,b,c"], 1, "bad ratios: 'a,b,c'"),
    "nsp-treebank-config": (
        "build-nsp",
        ["--config", "{input}.cfg"],
        1,
        "build-nsp reads raw text (input mode lines or dir)",
    ),
    **{
        f"dir-{command}": (command, ["--input-mode", "dir"], 2, "not a directory: {input}")
        for command in ("build-pairs", "build-nsp", "stats")
    },
}


@pytest.mark.parametrize("case", sorted(ONE_LINE_ERRORS))
def test_an_error_prints_its_line_alone_and_writes_no_out(tmp_path, capsys, case):
    command, options, code, message = ONE_LINE_ERRORS[case]
    source = _write_trees(tmp_path) if command == "build-npp" else _write_docs(tmp_path)
    # the config file of nsp-treebank-config
    Path(f"{source}.cfg").write_text("input_mode=treebank\n", encoding="utf-8")
    out = tmp_path / "out"
    options = [option.format(input=source) for option in options]
    assert main([command, str(source), *options, "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message.format(input=source)}\n")
    assert not out.exists()


def test_debug_phrases_prints_nothing_when_a_tree_fails(tmp_path, capsys):
    trees = tmp_path / "trees.txt"
    trees.write_text("(S (NP (PRP She)) (VP (VBZ naps)))\n(S (NP\n", encoding="utf-8")
    assert main(["debug-phrases", str(trees)]) == 3
    # as evaluate and stats, no partial output: the good tree's phrases are
    # printed only once every tree has parsed
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: line 2: input is not a single well-formed tree"
    ]


def test_debug_phrases_tsv(tmp_path, capsys):
    trees = tmp_path / "trees.txt"
    trees.write_text(f"{EAT_PIE}\n", encoding="utf-8")
    assert main(["debug-phrases", str(trees)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [
        "NP\t0\t1\tShe",
        "NP\t4\t5\tpie",
        "VP\t3\t5\teat pie",
    ]


# ---------------------------------------------------- the process entry

# every way to start a run in a fresh process: the installed script runs
# the function that python -m nextphrase runs
ENTRY_MODULES = ("nextphrase",)


def _run_module(module, argv):
    """One run of the command line in a fresh process, as python -m module."""
    src = str(Path(nextphrase.corpus.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )


@pytest.mark.parametrize("module", ENTRY_MODULES)
@pytest.mark.parametrize(
    "case, code, err",
    [
        ("stats", 0, ""),
        ("distractors", 1, "error: distractors must be between 1 and 25\n"),
        ("workers", 1, "error: workers must be >= 1\n"),
        ("malformed-tree", 3, "error: line 2: input is not a single well-formed tree\n"),
    ],
    ids=["stats", "distractors", "workers", "malformed-tree"],
)
def test_a_process_entry_prints_and_exits_as_main_does(tmp_path, capsys, module, case, code, err):
    docs, out = str(_write_docs(tmp_path)), str(tmp_path / "out")
    bad = tmp_path / "bad.txt"
    bad.write_text(f"{DOG}\n(S (NP\n", encoding="utf-8")
    argv = {
        "stats": ["stats", docs],
        "distractors": ["build-nsp", docs, "--out", out, "--distractors", "30"],
        "workers": ["build-pairs", docs, "--out", out, "--workers", "0"],
        "malformed-tree": ["build-npp", str(bad), "--out", out],
    }[case]
    assert main(argv) == code
    in_process = capsys.readouterr()
    assert in_process.err == err
    done = _run_module(module, argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, in_process.out, err)
    if case == "stats":
        assert done.stdout.startswith("Dataset  Train  Dev  Test\n")


@pytest.mark.parametrize("module", ENTRY_MODULES)
def test_a_process_entry_writes_the_golden_report(tmp_path, module):
    report = tmp_path / "report.txt"
    done = _run_module(module, _evaluate_argv(report))
    assert (done.returncode, done.stderr) == (0, "")
    assert report.read_bytes() == (DATA / "golden_report.txt").read_bytes()
    assert (tmp_path / "report.txt.json").read_bytes() == (DATA / "golden_report.json").read_bytes()


@pytest.mark.parametrize("module", ENTRY_MODULES)
@pytest.mark.parametrize("argv", [["--version"], ["stats", "--help"]], ids=["version", "help"])
def test_version_and_help_print_and_return_0(capsys, monkeypatch, module, argv):
    # in process, main returns argparse's status rather than raise SystemExit
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps the help at
    assert main(argv) == 0
    in_process = capsys.readouterr()
    assert in_process.err == ""
    if argv == ["--version"]:
        assert in_process.out == "0.1.0\n"
    else:
        assert in_process.out.startswith("usage: nextphrase stats [-h] [--ratios A,B,C]\n")
    done = _run_module(module, argv)
    assert (done.returncode, done.stdout, done.stderr) == (0, in_process.out, "")


def test_the_cli_module_starts_no_run(tmp_path):
    done = _run_module("nextphrase.cli", ["stats", str(_write_docs(tmp_path))])
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


def test_the_installed_script_is_the_process_entry():
    # a text match, not tomllib, which Python 3.10 lacks
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    target = re.search(r'^\[project\.scripts\]\nnextphrase = "([\w.]+):(\w+)"$', pyproject, re.M)
    assert target, pyproject
    module, name = target.groups()
    assert getattr(importlib.import_module(module), name) is entry.main


def test_main_in_process_freezes_nothing(tmp_path):
    frozen = gc.get_freeze_count()
    assert main(["build-npp", str(_write_trees(tmp_path)), "--out", str(tmp_path / "out")]) == 0
    assert gc.get_freeze_count() == frozen


def test_the_process_entry_freezes_once_before_main_and_exits_with_its_code(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
    with pytest.raises(SystemExit) as stop:
        entry.main()
    assert calls == ["freeze", "main"]
    assert stop.value.code == 3


def _phrase_trees(tmp_path):
    """Trees whose debug-phrases output, about 145 KiB, overfills a pipe."""
    trees = tmp_path / "trees.txt"
    trees.write_text(f"{EAT_PIE}\n" * 4000, encoding="utf-8")
    return trees


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_a_closed_stdout_ends_the_run_by_sigpipe_with_no_error_line(tmp_path):
    # as `nextphrase debug-phrases trees.txt | head -1` does
    src = str(Path(nextphrase.corpus.__file__).parents[1])
    run = subprocess.Popen(
        [sys.executable, "-m", "nextphrase", "debug-phrases", str(_phrase_trees(tmp_path))],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    try:
        assert run.stdout.readline() == b"NP\t0\t1\tShe\n"
        run.stdout.close()
        err = run.stderr.read()
        run.wait(timeout=60)
    finally:
        if run.poll() is None:
            run.kill()
            run.wait()
        run.stderr.close()
    assert (run.returncode, err) == (-signal.SIGPIPE, b"")


def test_a_closed_stdout_raises_broken_pipe_out_of_main(tmp_path, monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        writelines = write

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(BrokenPipeError):
        main(["debug-phrases", str(_phrase_trees(tmp_path))])
