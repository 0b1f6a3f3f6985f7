import json
import random

import pytest
from hypothesis import given, strategies as st

from nextphrase.cli import main
from nextphrase.corpus import (
    DEFAULT_GUARDS,
    RatioSumInvalid,
    SPLIT_NAMES,
    assign_splits,
    detokenize,
    format_stats_table,
    iter_documents,
    read_entries,
    split_counts,
    split_sentences,
    tokenize,
)

from oracles import (
    assign_splits_oracle,
    iter_sentence_texts,
    split_sentences_oracle,
    tokenize_oracle,
)


def test_split_on_terminator_before_capital():
    assert split_sentences("The sky is blue. It rains.") == [
        "The sky is blue.",
        "It rains.",
    ]


def test_guard_blocks_abbreviations():
    assert split_sentences("Dr. Smith arrived. He sat down.") == [
        "Dr. Smith arrived.",
        "He sat down.",
    ]
    assert split_sentences("See Fig. 2. It works.") == ["See Fig. 2.", "It works."]
    assert split_sentences("We use e.g. Apples and pears.") == [
        "We use e.g. Apples and pears."
    ]


def test_no_split_before_lowercase():
    text = "the server failed. retry was scheduled"
    assert split_sentences(text) == [text]


def test_split_at_end_of_line():
    assert split_sentences("It rains.\nbut it stays warm.") == [
        "It rains.",
        "but it stays warm.",
    ]


def test_single_sentence_stays_whole():
    text = "Building large OCR databases is a time consuming and tedious work."
    assert split_sentences(text) == [text]


def test_question_and_exclamation():
    assert split_sentences("Really? Yes! Fine.") == ["Really?", "Yes!", "Fine."]


def test_blank_input():
    assert split_sentences("") == []
    assert split_sentences("   \n ") == []


def test_custom_guard_list(tmp_path):
    path = tmp_path / "guards.txt"
    path.write_text("# comment\nfoo.\n\nbar.\n", encoding="utf-8")
    guards = read_entries(path)
    assert guards == ["foo.", "bar."]
    assert split_sentences("Take foo. Then stop.", guards) == ["Take foo. Then stop."]
    assert split_sentences("Take Dr. Who away.", guards) == [
        "Take Dr.",
        "Who away.",
    ]


def test_a_guard_list_line_ends_only_at_a_newline(tmp_path):
    path = tmp_path / "guards.txt"
    # str.splitlines would also cut at U+2028, U+0085 and the form feed
    path.write_text("foo.\u2028bar.\nbaz.\x85qux.\x0cend.\n", encoding="utf-8")
    assert read_entries(path) == ["foo.\u2028bar.", "baz.\x85qux.\x0cend."]


# pieces of the texts the splitter and tokenizer are checked on against
# their oracles: terminators and detached punctuation, spaces and tabs,
# the line breaks and other whitespace that neither counts as a space
# nor ends a line (\r, NBSP, \x1c), upper- and lower-case letters
# including the titlecase U+01C5, and guard words alone and behind the
# characters the guard check strips
FUZZ_WORDS = (
    ".", "!", "?", "...", "?!", ",", ";:", "a", "word.", "A", "Word?",
    "\u00c9", "\u01c5", "3.14", "(", "'", "x)", "e.g.", "Dr.", "etc.",
    "ETC.", "Fig.", "foo.", "Bar?!", "(e.g.", "[Dr.", "'No.", '"foo.',
    "(\"'etc.", "{\u01c5.",
)
FUZZ_GAPS = (
    " ", " ", "  ", "\t", "\n", " \n", "\t\n", "\r", " \r", "\r\n", "\xa0", " \xa0\n",
    "\x1c", "",
)
FUZZ_PIECES = FUZZ_WORDS + FUZZ_GAPS
CUSTOM_GUARDS = ("foo.", "bar?!", "\u01c5.", "A.")
FUZZ_TEXTS = st.lists(
    st.tuples(st.sampled_from(FUZZ_WORDS), st.sampled_from(FUZZ_GAPS)).map("".join),
    max_size=12,
).map("".join)


@given(FUZZ_TEXTS, st.sampled_from([DEFAULT_GUARDS, CUSTOM_GUARDS, ()]))
def test_split_sentences_matches_oracle(text, guards):
    assert split_sentences(text, guards) == split_sentences_oracle(text, guards)


@given(FUZZ_TEXTS)
def test_tokenize_matches_oracle(text):
    assert tokenize(text) == tokenize_oracle(text)


def test_split_and_tokenize_match_oracles_on_seeded_fuzz():
    rng = random.Random(29)
    mismatches = []
    for _ in range(20_000):
        text = "".join(rng.choices(FUZZ_PIECES, k=rng.randint(0, 40)))
        guards = rng.choice([DEFAULT_GUARDS, CUSTOM_GUARDS])
        if split_sentences(text, guards) != split_sentences_oracle(text, guards):
            mismatches.append(("split", text, guards))
        if tokenize(text) != tokenize_oracle(text):
            mismatches.append(("tokenize", text))
    assert mismatches == []


def test_tokenize_detaches_terminal_punctuation():
    assert tokenize("eat pie.") == ["eat", "pie", "."]
    assert tokenize("However, we left!") == ["However", ",", "we", "left", "!"]
    assert tokenize("so: this; that?") == ["so", ":", "this", ";", "that", "?"]


def test_tokenize_keeps_internal_punctuation():
    assert tokenize("3.14 is pi") == ["3.14", "is", "pi"]
    assert tokenize("e.g. this") == ["e.g", ".", "this"]


def test_tokenize_lone_punctuation():
    assert tokenize(".") == ["."]
    assert tokenize("wait...") == ["wait", ".", ".", "."]


@given(
    st.lists(
        st.text(
            alphabet=st.characters(
                whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=0x7F
            ),
            min_size=1,
            max_size=8,
        ),
        min_size=1,
        max_size=20,
    )
)
def test_tokenize_detokenize_round_trip(tokens):
    assert tokenize(detokenize(tokens)) == tokens


def _sizes(assignment):
    return tuple(assignment.count(split) for split in range(3))


def test_partition_sizes_floor_remainder_to_train():
    assignment = assign_splits(10, (0.8, 0.1, 0.1), seed=0)
    assert _sizes(assignment) == (8, 1, 1)
    assert len(assignment) == 10


def test_partition_remainder_goes_to_train():
    assert _sizes(assign_splits(6, (0.8, 0.1, 0.1), seed=3)) == (6, 0, 0)


def test_partition_deterministic():
    first = assign_splits(50, (0.8, 0.1, 0.1), seed=9)
    second = assign_splits(50, (0.8, 0.1, 0.1), seed=9)
    assert first == second
    other = assign_splits(50, (0.8, 0.1, 0.1), seed=10)
    assert first != other


def test_partition_close_to_exact_products():
    n = 1000
    sizes = _sizes(assign_splits(n, (0.8, 0.1, 0.1), seed=1))
    for size, ratio in zip(sizes, (0.8, 0.1, 0.1)):
        assert abs(size - n * ratio) < 1


def test_partition_rejects_bad_ratios():
    with pytest.raises(RatioSumInvalid):
        assign_splits(3, (0.5, 0.2, 0.2), seed=0)
    with pytest.raises(ValueError):
        assign_splits(3, (1.2, -0.1, -0.1), seed=0)
    with pytest.raises(RatioSumInvalid):
        assign_splits(3, (float("nan"), 0.5, 0.5), seed=0)
    assign_splits(3, (0.8, 0.1, 0.1 + 1e-12), seed=0)


def test_split_counts_floor_each_share_and_give_train_the_rest():
    counts = split_counts(10, (0.8, 0.1, 0.1))
    assert counts == {"train": 8, "dev": 1, "test": 1}
    assert list(counts) == list(SPLIT_NAMES)
    assert split_counts(0, (0.8, 0.1, 0.1)) == {"train": 0, "dev": 0, "test": 0}
    assert split_counts(6, (0.8, 0.1, 0.1)) == {"train": 6, "dev": 0, "test": 0}
    assert split_counts(7, (0.5, 0.25, 0.25)) == {"train": 5, "dev": 1, "test": 1}
    with pytest.raises(RatioSumInvalid):
        split_counts(3, (0.5, 0.2, 0.2))


@pytest.mark.parametrize("n", [0, 1, 7, 1000, 12345])
def test_assign_splits_in_arrays_matches_the_list_version(n):
    # random.shuffle draws the same on an array as on a list
    assignment = assign_splits(n, (0.8, 0.1, 0.1), seed=4)
    assert isinstance(assignment, bytearray)
    assert list(assignment) == assign_splits_oracle(n, (0.8, 0.1, 0.1), seed=4)


RATIOS = st.sampled_from(
    [(0.8, 0.1, 0.1), (0.5, 0.25, 0.25), (0.34, 0.33, 0.33), (0.9, 0.05, 0.05)]
)


@given(st.integers(0, 500), st.integers(0, 2**32), RATIOS)
def test_assign_splits_cuts_by_split_counts(n, seed, ratios):
    sizes = _sizes(assign_splits(n, ratios, seed))
    assert sizes == tuple(split_counts(n, ratios).values())


def test_stats_table_shape():
    rows = [
        ("emails", {"train": 156998, "dev": 13474, "test": 15030}),
        ("reviews", {"train": 74010, "dev": 9283, "test": 9317}),
    ]
    table = format_stats_table(rows)
    lines = table.splitlines()
    assert len(lines) == 3
    assert lines[0].split() == ["Dataset", "Train", "Dev", "Test"]
    assert lines[1].split() == ["emails", "156998", "13474", "15030"]
    assert lines[2].split() == ["reviews", "74010", "9283", "9317"]


def test_iter_documents_dir_sorted(tmp_path):
    (tmp_path / "b.txt").write_text("Second doc.", encoding="utf-8")
    (tmp_path / "a.txt").write_text("First doc.", encoding="utf-8")
    (tmp_path / "ignored.md").write_text("nope", encoding="utf-8")
    docs = list(iter_documents(tmp_path, "dir"))
    assert docs == [(0, "First doc."), (1, "Second doc.")]


def test_a_dir_input_reads_hidden_files_and_links_to_files_only(tmp_path):
    # a hidden *.txt file is read and so is a link to a file; a directory,
    # a link to one and a dangling link are not, in the listing and in the
    # manifest of a build
    docs = tmp_path / "docs"
    sub = docs / "sub"
    sub.mkdir(parents=True)
    (docs / "a.txt").write_text("Plain doc.", encoding="utf-8")
    (docs / ".h.txt").write_text("Hidden doc.", encoding="utf-8")
    (sub / "target.txt").write_text("Linked doc.", encoding="utf-8")
    (docs / "link.txt").symlink_to(sub / "target.txt")
    (docs / "sublink.txt").symlink_to(sub, target_is_directory=True)
    (docs / "broken.txt").symlink_to(docs / "missing.txt")
    (docs / "x.txt").mkdir()
    texts = [text for _, text in iter_documents(docs, "dir")]
    assert texts == ["Hidden doc.", "Plain doc.", "Linked doc."]
    out = tmp_path / "out"
    assert main(["build-pairs", str(docs), "--input-mode", "dir", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert sorted(manifest["inputs"]) == sorted(
        str(docs / name) for name in (".h.txt", "a.txt", "link.txt")
    )


def test_iter_documents_lines(tmp_path):
    path = tmp_path / "docs.txt"
    path.write_text("One doc here.\n\nAnother doc.\n", encoding="utf-8")
    assert list(iter_documents(path, "lines")) == [
        (0, "One doc here."),
        (1, "Another doc."),
    ]
    with pytest.raises(ValueError):
        list(iter_documents(path, "paragraphs"))


def test_iter_sentence_texts(tmp_path):
    path = tmp_path / "docs.txt"
    path.write_text("It rains. We hide.\nDogs bark.\n", encoding="utf-8")
    assert list(iter_sentence_texts(path, "lines")) == [
        ("docs:000000:0000", "It rains."),
        ("docs:000000:0001", "We hide."),
        ("docs:000001:0000", "Dogs bark."),
    ]
    assert list(iter_sentence_texts(path, "lines", "web"))[2][0] == "web:000001:0000"


def test_pair_recount_matches_token_lengths(tmp_path):
    from nextphrase.instances import build_completion_pairs

    path = tmp_path / "docs.txt"
    path.write_text("It rains hard. We hide.\nDogs bark.\n", encoding="utf-8")
    records = [(i, tokenize(text)) for i, text in iter_sentence_texts(path, "lines")]
    total = sum(len(build_completion_pairs(tokens, i)) for i, tokens in records)
    assert total == sum(len(tokens) - 1 for _, tokens in records)
