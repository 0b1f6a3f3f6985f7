"""End-to-end acceptance checklist.

Each test covers one release criterion and prints a single
``[n] <description>: PASS`` (or ``FAIL``) line, so a run with ``-s``
reads as a checklist.  The criteria pin the behaviour the rest of the
suite checks piecemeal: phrase selection, pair construction, metric
values, choice balance, and byte-level reproducibility.
"""

import json
import random
from contextlib import contextmanager

from nextphrase.cli import main
from nextphrase.corpus import detokenize
from nextphrase.instances import (
    Skip,
    build_completion_pairs,
    build_npp_instance,
    record_rng,
)
from nextphrase.metrics import (
    EvalSegment,
    cider_scores,
    corpus_bleu,
    meteor_segment,
)
from nextphrase.phrases import extract_phrases
from nextphrase.treebank import parse_ptb

from conftest import DOG, EAT_PIE, SHOP, random_sentence, random_tree_text
from oracles import brute_force_phrases

IDENTITY = [
    EvalSegment(("a", "b", "c", "d"), (("a", "b", "c", "d"),)),
    EvalSegment(("e", "f", "g", "h", "i"), (("e", "f", "g", "h", "i"),)),
    EvalSegment(("j", "k", "l", "m"), (("j", "k", "l", "m"),)),
]


@contextmanager
def criterion(index, description):
    try:
        yield
    except BaseException:
        print(f"[{index}] {description}: FAIL")
        raise
    print(f"[{index}] {description}: PASS")


def test_1_nested_verb_phrases_collapse_to_innermost():
    with criterion(1, "nested verb phrases collapse to the innermost span"):
        groups = extract_phrases(parse_ptb(EAT_PIE))
        assert [p.text for p in groups.vp] == ["eat pie"]
        assert groups.vp[0].span == (3, 5)


def test_2_noun_phrase_group_drives_the_seeded_instance():
    with criterion(2, "noun phrase group yields the expected seeded instance"):
        tree = parse_ptb(SHOP)
        groups = extract_phrases(tree)
        assert [p.text for p in groups.np] == [
            "a top and bottom",
            "that strange little shop",
        ]
        instance = None
        for seed in range(500):
            built = build_npp_instance(tree, groups, record_rng(seed, "shop"), "shop")
            if not isinstance(built, Skip) and built.answer == "a top and bottom":
                instance = built
                break
        assert instance is not None, "no seed under 500 picked the first phrase"
        assert detokenize(instance.partial_query) == "She bought"
        assert set(instance.choices) == {
            "a top and bottom",
            "that strange little shop",
        }
        assert instance.choices[instance.answer_index] == instance.answer


def test_3_extraction_matches_brute_force_on_1000_trees():
    with criterion(3, "phrase extraction matches brute force on 1000 random trees"):
        rng = random.Random(2025)
        agreed = 0
        for _ in range(1000):
            tree = parse_ptb(random_tree_text(rng))
            groups = extract_phrases(tree)
            expected = brute_force_phrases(tree)
            if all(
                [(p.start, p.end) for p in spans] == expected[kind]
                for kind, spans in groups.items()
            ):
                agreed += 1
        assert agreed == 1000


def test_4_completion_pairs_reconstruct_and_reconcile(tmp_path):
    with criterion(4, "10000 sentences yield n-1 reconstructable pairs each"):
        rng = random.Random(404)
        sentences = [random_sentence(rng, 2, 60) for _ in range(10000)]
        expected_pairs = 0
        for index, tokens in enumerate(sentences):
            pairs = build_completion_pairs(tuple(tokens), f"s{index}")
            assert len(pairs) == len(tokens) - 1
            for pair in pairs:
                assert list(pair.p) + list(pair.q) == tokens
            expected_pairs += len(pairs)
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(
            "".join(detokenize(tokens) + "\n" for tokens in sentences),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["build-pairs", str(corpus), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        counts = manifest["counts"]
        assert counts["sentences_read"] == 10000
        assert counts["pairs_written"] == expected_pairs
        assert sum(counts["sentences"].values()) == 10000
        assert sum(counts["pairs"].values()) == expected_pairs


def test_5_metric_identities_and_hand_values():
    with criterion(5, "metrics hit identity and hand-computed values"):
        assert corpus_bleu(IDENTITY).score == 100.0
        assert abs(cider_scores(IDENTITY)[0] - 10.0) < 1e-9
        for m in range(1, 11):
            tokens = tuple(f"w{i}" for i in range(m))
            stats = meteor_segment(EvalSegment(tokens, (tokens,)))
            assert abs(stats.score - (1.0 - 0.5 * (1.0 / m) ** 3)) < 1e-12
        clipped = corpus_bleu([EvalSegment(("the", "the", "the"), (("the", "cat"),))])
        assert abs(clipped.precisions[0] - 1.0 / 3.0) < 1e-9
        hand = meteor_segment(EvalSegment(("the", "cat", "sat"), (("the", "cat", "napped"),)))
        assert abs(hand.score - 0.625) < 1e-9


def test_6_answer_position_is_balanced():
    with criterion(6, "answer slot stays within two points of even over 10000 draws"):
        tree = parse_ptb(SHOP)
        groups = extract_phrases(tree)
        first = 0
        total = 10000
        for i in range(total):
            sentence_id = f"bal{i}"
            built = build_npp_instance(
                tree, groups, record_rng(0, sentence_id), sentence_id
            )
            assert not isinstance(built, Skip)
            assert len(built.choices) == 2
            if built.answer_index == 0:
                first += 1
        assert 0.48 <= first / total <= 0.52


def test_7_reruns_and_worker_counts_are_byte_identical(tmp_path):
    with criterion(7, "same-seed reruns at 1 and 8 workers are byte identical"):
        rng = random.Random(77)
        lines = [SHOP, EAT_PIE, DOG] + [random_tree_text(rng) for _ in range(100)]
        trees = tmp_path / "trees.txt"
        trees.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        blobs = []
        for label, workers in (("a", 1), ("b", 1), ("c", 8), ("d", 8)):
            out = tmp_path / label
            assert main(
                [
                    "build-npp", str(trees), "--out", str(out),
                    "--seed", "11", "--workers", str(workers),
                ]
            ) == 0
            blobs.append((out / "instances.jsonl").read_bytes())
        assert len(set(blobs)) == 1
        assert blobs[0], "fixture produced no instances"


def test_8_split_table_accounts_for_every_sentence(tmp_path, capsys):
    with criterion(8, "split table rows account for every input sentence"):
        rng = random.Random(88)
        first = tmp_path / "news.txt"
        second = tmp_path / "notes.txt"
        first.write_text(
            "".join(detokenize(random_sentence(rng, 2, 12)) + "\n" for _ in range(137)),
            encoding="utf-8",
        )
        second.write_text(
            "".join(detokenize(random_sentence(rng, 2, 12)) + "\n" for _ in range(53)),
            encoding="utf-8",
        )
        assert main(["stats", str(first), str(second)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == ["Dataset", "Train", "Dev", "Test"]
        rows = {
            line.split()[0]: [int(cell) for cell in line.split()[1:]]
            for line in lines[1:]
        }
        assert sum(rows["news"]) == 137
        assert sum(rows["notes"]) == 53
