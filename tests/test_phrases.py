import random

import pytest

from nextphrase.phrases import eligible_groups, extract_phrases
from nextphrase.treebank import parse_ptb

from conftest import DOG, EAT_PIE, SHOP, list_tree, random_tree_text
from oracles import brute_force_phrases


def test_nested_vp_collapses_to_innermost():
    groups = extract_phrases(parse_ptb(EAT_PIE))
    assert [p.text for p in groups.vp] == ["eat pie"]
    assert groups.vp[0].span == (3, 5)


def test_shop_sentence_noun_phrases():
    groups = extract_phrases(parse_ptb(SHOP))
    assert [p.text for p in groups.np] == [
        "a top and bottom",
        "that strange little shop",
    ]
    assert [p.text for p in groups.vp] == [
        "bought a top and bottom from that strange little shop"
    ]
    assert [p.text for p in groups.pp] == ["from that strange little shop"]


def test_np_chain_keeps_only_innermost():
    groups = extract_phrases(parse_ptb("(NP (NP (NP (NN a))))"))
    assert [(p.start, p.end) for p in groups.np] == [(0, 1)]


def test_phrase_span_is_immutable():
    span = extract_phrases(parse_ptb(EAT_PIE)).vp[0]
    with pytest.raises(AttributeError):
        span.start = 0
    with pytest.raises(AttributeError):
        span.text = "changed"
    assert span.span == (3, 5)


def test_different_types_may_overlap():
    groups = extract_phrases(parse_ptb(SHOP))
    pp = groups.pp[0]
    inner_np = groups.np[1]
    assert pp.start <= inner_np.start and inner_np.end <= pp.end


def test_no_phrases_at_all():
    groups = extract_phrases(parse_ptb("(S (VBZ rains) (. .))"))
    assert groups.np == groups.vp == groups.pp == ()
    assert eligible_groups(groups, 1) == []


EDGE_TREES = (
    # unary same-label chains
    "(NP (NP (NP (NN x))))",
    "(S (VP (VP (VP (VB go))) (NP (NP (NN x)) (PP (PP (IN of) (NP (NN y)))))))",
    # trace leaves
    "(S (NP-SBJ (-NONE- *)) (VP (VBD ran) (NP (-NONE- *T*-1))) (. .))",
    "(NP (NP (-NONE- *)) (NP (NN x)))",
    # wrappers, dropped or kept
    "(ROOT (S (NP (PRP She)) (VP (VBZ naps))))",
    "(TOP (NP (NP (NN a))) (NP (NN b)))",
    list_tree(30),
)


def test_matches_brute_force_on_random_trees():
    rng = random.Random(21)
    texts = [random_tree_text(rng) for _ in range(300)] + list(EDGE_TREES)
    for text in texts:
        tree = parse_ptb(text)
        groups = extract_phrases(tree)
        expected = brute_force_phrases(tree)
        for kind, spans in groups.items():
            assert [(p.start, p.end) for p in spans] == expected[kind]


def test_same_type_spans_disjoint_and_ordered():
    rng = random.Random(22)
    for _ in range(200):
        tree = parse_ptb(random_tree_text(rng))
        for _, spans in extract_phrases(tree).items():
            for left, right in zip(spans, spans[1:]):
                assert left.end <= right.start


def test_phrase_text_matches_span():
    tree = parse_ptb(SHOP)
    for _, spans in extract_phrases(tree).items():
        for phrase in spans:
            assert phrase.text == " ".join(tree.tokens[phrase.start:phrase.end])


def test_eligible_groups_threshold():
    groups = extract_phrases(parse_ptb(SHOP))
    assert [kind for kind, _ in eligible_groups(groups, 2)] == ["NP"]
    assert [kind for kind, _ in eligible_groups(groups, 1)] == ["NP", "VP", "PP"]
    assert eligible_groups(groups, 3) == []


def test_eligible_groups_rejects_zero_threshold():
    groups = extract_phrases(parse_ptb(DOG))
    with pytest.raises(ValueError):
        eligible_groups(groups, 0)
