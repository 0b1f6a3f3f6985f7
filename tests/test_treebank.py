import random

import pytest
from hypothesis import given, strategies as st

from nextphrase.phrases import extract_phrases
from nextphrase.treebank import (
    EmptyConstituent,
    MalformedLabel,
    TreebankError,
    UnbalancedBrackets,
    normalize_label,
    parse_ptb,
    read_treebank,
)

from conftest import EAT_PIE, random_tree_text
from oracles import (
    iter_nodes,
    nodes_with_label,
    normalize_label_oracle,
    parse_ptb_oracle,
    to_bracketed,
    tree_root,
    yield_tokens,
)


def test_single_leaf_tree():
    tree = parse_ptb("(NN dog)")
    assert tree.tokens == ("dog",)
    root = tree_root(tree)
    assert root.is_leaf
    assert root.span == (0, 1)


def test_eat_pie_tokens():
    tree = parse_ptb(EAT_PIE)
    assert tree.tokens == ("She", "wants", "to", "eat", "pie", ".")


def test_eat_pie_vp_nodes_in_document_order():
    tree = parse_ptb(EAT_PIE)
    texts = [
        " ".join(tree.tokens[n.start:n.end]) for n in nodes_with_label(tree, "VP")
    ]
    assert texts == ["wants to eat pie", "to eat pie", "eat pie"]


def test_root_wrapper_unwrapped():
    plain = parse_ptb("(S (NP (DT the) (NN dog)) (VP (VBZ naps)))")
    wrapped = parse_ptb("(ROOT (S (NP (DT the) (NN dog)) (VP (VBZ naps))))")
    assert wrapped == plain
    assert parse_ptb("(TOP (S (NN x)))") == parse_ptb("(S (NN x))")


def test_functional_tags_stripped():
    tree = parse_ptb("(S (NP-SBJ-1 (PRP She)) (VP (VBZ naps)))")
    assert len(nodes_with_label(tree, "NP")) == 1
    assert normalize_label("NP-SBJ") == "NP"
    assert normalize_label("NP=2") == "NP"


def test_escaped_brackets_preserved():
    tree = parse_ptb("(NP (-LRB- -LRB-) (NN x) (-RRB- -RRB-))")
    assert tree.tokens == ("-LRB-", "x", "-RRB-")
    assert tree_root(tree).children[0].label == "-LRB-"
    assert normalize_label("-NONE-") == "-NONE-"


def test_spans_are_half_open_and_nested():
    tree = parse_ptb("(S (NP (DT the) (NN dog)) (VP (VBZ naps)))")
    root = tree_root(tree)
    np, vp = root.children
    assert np.span == (0, 2)
    assert vp.span == (2, 3)
    assert root.span == (0, 3)
    assert np.children[0].span == (0, 1)


@pytest.mark.parametrize(
    "text, error",
    [
        ("(S (NP", UnbalancedBrackets),
        ("(S (NN x)))", UnbalancedBrackets),
        (")", UnbalancedBrackets),
        ("", UnbalancedBrackets),
        ("just words", UnbalancedBrackets),
        ("(S (NN x)) trailing", UnbalancedBrackets),
        ("(S (NN x)) (S (NN y))", UnbalancedBrackets),
        ("(NP foo bar)", UnbalancedBrackets),
        ("(NP (DT the) dog)", UnbalancedBrackets),
        ("(S)", EmptyConstituent),
        ("(S (NP))", EmptyConstituent),
        ("()", MalformedLabel),
        ("((NN dog))", MalformedLabel),
    ],
)
def test_malformed_input(text, error):
    with pytest.raises(error):
        parse_ptb(text)


def test_round_trip_on_random_trees():
    rng = random.Random(11)
    for _ in range(300):
        tree = parse_ptb(random_tree_text(rng))
        assert parse_ptb(to_bracketed(tree_root(tree))) == tree


def test_serialization_is_canonical():
    messy = "(S   (NP-TMP (DT the)\t(NN dog))  (VP (VBZ naps)))"
    tree = parse_ptb(messy)
    assert to_bracketed(tree_root(tree)) == "(S (NP (DT the) (NN dog)) (VP (VBZ naps)))"


@given(st.text(alphabet="() SNPVx-", max_size=80))
def test_fuzz_returns_tree_or_structured_error(text):
    try:
        parse_ptb(text)
    except TreebankError:
        pass


@given(st.text() | st.text(alphabet="NP-=x", max_size=12))
def test_normalize_label_matches_regex_oracle(label):
    assert normalize_label(label) == normalize_label_oracle(label)


@given(st.text(max_size=60))
def test_fuzz_arbitrary_text(text):
    try:
        parse_ptb(text)
    except TreebankError:
        pass


def test_token_count_matches_root_span():
    rng = random.Random(5)
    for _ in range(100):
        tree = parse_ptb(random_tree_text(rng))
        root = tree_root(tree)
        assert root.start == 0
        assert root.end == len(tree.tokens)
        assert tuple(yield_tokens(root)) == tree.tokens


def test_span_union_invariant():
    rng = random.Random(6)
    for _ in range(100):
        tree = parse_ptb(random_tree_text(rng))
        for node in iter_nodes(tree_root(tree)):
            if node.children:
                assert node.start == node.children[0].start
                assert node.end == node.children[-1].end
                for left, right in zip(node.children, node.children[1:]):
                    assert left.end == right.start


def test_deep_input_does_not_hit_recursion_limit():
    with pytest.raises(UnbalancedBrackets):
        parse_ptb("(" * 50000)
    depth = 5000
    text = "".join("(S " for _ in range(depth)) + "(NN x)" + ")" * depth
    tree = parse_ptb(text)
    assert tree.tokens == ("x",)
    printed = to_bracketed(tree_root(tree))
    assert to_bracketed(tree_root(parse_ptb(printed))) == printed
    chain = "".join("(VP " for _ in range(depth)) + "(VB x)" + ")" * depth
    groups = extract_phrases(parse_ptb(chain))
    assert [p.span for p in groups.vp] == [(0, 1)]


def test_read_treebank_skips_blank_lines(tmp_path):
    path = tmp_path / "trees.txt"
    path.write_text(f"{EAT_PIE}\n\n(NN dog)\n", encoding="utf-8")
    loaded = list(read_treebank(path))
    assert [index for index, _ in loaded] == [0, 2]
    assert loaded[1][1].tokens == ("dog",)


def test_read_treebank_reports_line_number(tmp_path):
    path = tmp_path / "trees.txt"
    path.write_text("(NN dog)\n(S\n", encoding="utf-8")
    with pytest.raises(UnbalancedBrackets, match="line 2"):
        list(read_treebank(path))


# pieces of the parity fuzz: brackets, labels that normalize, wrappers
# and a trace label, joined with and without spaces
FUZZ_PIECES = ("(", ")", "NP", "VP", "a", "b", "(ROOT", "(TOP", "-NONE-", "NP-SBJ")


def _outcome(parse, text):
    """("error", class, message), or ("tree", tokens, pre-order spans, root)."""
    try:
        tree = parse(text)
    except TreebankError as exc:
        return ("error", type(exc), str(exc))
    return ("tree", tree.tokens, list(tree.spans), tree_root(tree))


def _oracle_outcome(text):
    try:
        root, tokens = parse_ptb_oracle(text)
    except TreebankError as exc:
        return ("error", type(exc), str(exc))
    spans = [(n.label, n.start, n.end) for n in iter_nodes(root)]
    return ("tree", tokens, spans, root)


def _tokens_outcome(text):
    """("error", class, message), or ("tree", tokens) of a parse without
    spans, whose span table must be empty."""
    try:
        tree = parse_ptb(text, spans=False)
    except TreebankError as exc:
        return ("error", type(exc), str(exc))
    assert tree.spans == ()
    return ("tree", tree.tokens)


def _without_spans(outcome):
    """What a parse without spans must give where the oracle gave outcome."""
    return outcome[:2] if outcome[0] == "tree" else outcome


@given(
    st.lists(st.sampled_from(FUZZ_PIECES), max_size=24).flatmap(
        lambda pieces: st.sampled_from((" ".join(pieces), "".join(pieces)))
    )
    | st.text(alphabet="() NPVab-=\t", max_size=40)
    | st.text(max_size=30)
)
def test_parse_matches_node_building_oracle(text):
    expected = _oracle_outcome(text)
    assert _outcome(parse_ptb, text) == expected
    assert _tokens_outcome(text) == _without_spans(expected)


def test_parse_matches_oracle_on_seeded_fuzz():
    rng = random.Random(17)
    texts = []
    for _ in range(300):
        tree = random_tree_text(rng)
        texts += [tree, f"(ROOT {tree})", f"(TOP {tree} {tree})"]
    for _ in range(100_000):
        pieces = rng.choices(FUZZ_PIECES, k=rng.randint(0, 16))
        texts.append((" " if rng.random() < 0.5 else "").join(pieces))
    mismatches = []
    for text in texts:
        expected = _oracle_outcome(text)
        if _outcome(parse_ptb, text) != expected:
            mismatches.append(text)
        if _tokens_outcome(text) != _without_spans(expected):
            mismatches.append(text)
    assert mismatches == []
