import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nextphrase.corpus
import nextphrase.treebank
from nextphrase.cli import (
    PipelineConfig,
    _npp_outcomes,
    _pair_lines,
    _record_line,
    _tree_pair_outcomes,
    main,
)
from nextphrase.corpus import detokenize, iter_sentence_texts, tokenize
from nextphrase.instances import SkipReason, build_completion_pairs

import oracles
from conftest import DOG, EAT_PIE, SHOP, list_tree, random_sentence, random_tree_text
from oracles import parse_prompt, tree_root

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
    assert list(manifest["inputs"]) == [str(trees)]


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


def test_build_npp_malformed_tree_exits_3(tmp_path, capsys):
    # build-pairs parses in the worker too, so at 2 workers the error
    # crosses the Pool and must keep its type and line number
    trees = tmp_path / "bad.txt"
    trees.write_text(f"{DOG}\n(S (NP\n", encoding="utf-8")
    commands = (["build-npp"], ["build-pairs", "--input-mode", "treebank"])
    for command in commands:
        for workers in ("1", "2"):
            out = tmp_path / f"{command[0]}-{workers}"
            argv = [*command, str(trees), "--out", str(out), "--workers", workers]
            assert main(argv) == 3, argv
            assert "error: line 2:" in capsys.readouterr().err, argv
            assert list(out.glob(".nextphrase-*")) == [], argv
            assert list(out.glob("pairs_*.jsonl")) == [], argv


@given(GENERATED_TREES, st.integers(0, 2**16))
def test_npp_record_writes_or_names_a_skip(text, seed):
    (outcome,) = _npp_outcomes((0, text), seed=seed, min_size=2, name="t")
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
        outcomes += _npp_outcomes((index, text), seed=3, min_size=2, name="t")
        ((_, pairs, lines),) = _tree_pair_outcomes((0, (index, text)), name="t")
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
# and talk over plain pipes
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
# or an input whose last line is not UTF-8, which build-npp reads after
# it has written data into its staging directory
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


def test_pair_lines_of_a_long_sentence_are_joined_a_bounded_number_at_a_time():
    tokens = [f"w{i}" for i in range(100)]
    count, chunks = _pair_lines("doc:0", tokens)
    chunks = list(chunks)
    assert count == 99
    assert [chunk.count("\n") for chunk in chunks] == [32, 32, 32, 3]
    assert "".join(chunks).splitlines()[40] == json.dumps(
        {"id": "doc:0#41", "p": " ".join(tokens[:41]), "q": " ".join(tokens[41:])}
    )


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


@pytest.mark.parametrize("workers", ["1", "2"])
def test_build_pairs_splits_each_document_once(tmp_path, monkeypatch, workers):
    docs = _write_docs(tmp_path)
    split = nextphrase.corpus.split_sentences
    documents = []

    def counted(document, *args, **kwargs):
        documents.append(document)
        return split(document, *args, **kwargs)

    monkeypatch.setattr(nextphrase.corpus, "split_sentences", counted)
    out = tmp_path / "out"
    assert main(["build-pairs", str(docs), "--out", str(out), "--workers", workers]) == 0
    assert len(documents) == len(set(documents)) == 2
    assert _manifest(out)["counts"]["sentences_read"] == 6


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
    # enough documents for several Pool chunks; a pool cap below the
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


def test_evaluate_never_loads_openssl(tmp_path):
    # hashlib loads OpenSSL's _hashlib, a few MiB of a small run's peak
    # RSS; only the builds hash anything
    code = (
        "import sys; before = '_hashlib' in sys.modules; "
        "from nextphrase.cli import main; code = main(sys.argv[1:]); "
        "print(before, '_hashlib' in sys.modules, code)"
    )
    argv = [
        "evaluate", "--candidates", str(DATA / "candidates.txt"),
        "--references", str(DATA / "references.txt"), "--report", str(tmp_path / "rep.txt"),
    ]
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
