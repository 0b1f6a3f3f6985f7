"""Tests of the benchmark's own logic: corpora, span arithmetic, checks."""

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import corpora  # noqa: E402
import run  # noqa: E402
from spans import Recorder, self_times  # noqa: E402
from workloads import WORKLOADS, inputs_for, npp_identities, pairs_identities  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_bytes(tmp_path, name):
    workload = WORKLOADS[name]
    first = inputs_for(workload, 11, tmp_path / "a")
    again = inputs_for(workload, 11, tmp_path / "b")
    other = inputs_for(workload, 12, tmp_path / "c")
    for key, path in first.files.items():
        assert path.read_bytes() == again.files[key].read_bytes()
        assert path.read_bytes() != other.files[key].read_bytes()
    assert first.properties == again.properties


def test_treebank_skip_share_is_exact():
    bank = corpora.make_treebank(random.Random(3), 200, 0.1)
    assert bank.properties["records"] == 200
    assert len(bank.text.splitlines()) == 200
    skip_shaped = [line for line in bank.text.splitlines() if "(PP" not in line and line.count("(NP") == 1]
    assert len(skip_shaped) == 20


def test_eval_halves_split_forced_from_searched():
    corpus = corpora.make_eval(random.Random(5), 40, 4, (5, 30))
    assert corpus.properties["forced_share"] == 0.5
    assert corpora.is_forced(["a", "b", "c"], ["c", "a", "x"])
    assert not corpora.is_forced(["a", "b", "a"], ["a", "b"])
    assert not corpora.is_forced(["a", "b"], ["b", "b"])


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ("cli", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),  # overlaps a: the union, 1..6, is subtracted once
        ("c", 2.0, 3.0, 1),
        ("c", 8.0, 9.5, 0),
    ]
    totals = self_times(spans)
    assert totals["cli"] == {"calls": 1, "self_s": pytest.approx(10.0 - 5.0 - 1.5)}
    assert totals["a"]["self_s"] == pytest.approx(2.0)
    assert totals["b"]["self_s"] == pytest.approx(3.0)
    assert totals["c"] == {"calls": 2, "self_s": pytest.approx(2.5)}


def test_recorder_patches_cli_and_defining_module(tmp_path):
    import nextphrase.cli as cli
    import nextphrase.treebank as treebank

    original = treebank.parse_ptb
    trees = tmp_path / "t.txt"
    trees.write_text("(S (NP (PRP It)) (VP (VBZ naps)))\n(S (NN x))\n", encoding="utf-8")
    ticks = iter(range(1000))
    recorder = Recorder(clock=lambda: float(next(ticks)))
    recorder.patch("nextphrase.treebank", "parse_ptb", "treebank.parse_ptb")
    recorder.patch("nextphrase.treebank", "read_treebank", "treebank.read_treebank")
    try:
        assert cli.parse_ptb is treebank.parse_ptb is not original
        assert len(list(cli.read_treebank(trees))) == 2
    finally:
        recorder.restore()
    assert cli.parse_ptb is treebank.parse_ptb is original
    spans = recorder.finished()
    names = [s[0] for s in spans]
    # two items plus the final, empty resumption of the generator
    assert names.count("treebank.read_treebank") == 3
    assert names.count("treebank.parse_ptb") == 2
    for name, _, _, parent in spans:
        if name == "treebank.parse_ptb":
            assert spans[parent][0] == "treebank.read_treebank"


def test_broken_accounting_identity_counts_as_a_failure():
    tally = run.Tally()
    good = {"sentences_read": 3, "instances_written": 2, "skips": {"no_eligible_group": 1}}
    tally.record("ok", npp_identities(good, lines=2, records=3))
    broken = {"sentences_read": 3, "instances_written": 1, "skips": {"no_eligible_group": 1}}
    tally.record("lost sentence", npp_identities(broken, lines=1, records=3))
    stats = {"sentences_read": 2, "sentences": {"train": 2}, "pairs_written": 7}
    tally.record("lost pair", pairs_identities(stats, lines=7, records=2, expected_pairs=8))
    assert (tally.attempted, tally.failed) == (3, 2)
    assert "instances_written 1 + skips 1" in tally.problems[0]


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = run.layer_metrics({}, {}, output_bytes=0, cpu_over_wall=0.0, overhead_share=0.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layers.items()}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
