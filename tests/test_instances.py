import math
import random
import sys

import pytest
from hypothesis import given, strategies as st

from nextphrase import instances
from nextphrase.instances import (
    MoreChoicesThanLetters,
    NPP_PREFIX,
    NSP_PREFIX,
    PoolView,
    Skip,
    SkipReason,
    build_completion_pairs,
    build_npp_instance,
    build_nsp_instance,
    record_rng,
    render_prompt,
    serialize_npp,
    serialize_nsp,
)
from nextphrase.phrases import extract_phrases
from nextphrase.treebank import parse_ptb

from conftest import DOG, SHOP, list_tree, random_sentence
from oracles import parse_prompt


def _shop():
    tree = parse_ptb(SHOP)
    return tree, extract_phrases(tree)


def _find_seed(predicate, tree, groups, sentence_id="s", limit=500):
    for seed in range(limit):
        built = build_npp_instance(
            tree, groups, record_rng(seed, sentence_id), sentence_id
        )
        if not isinstance(built, Skip) and predicate(built):
            return seed, built
    raise AssertionError("no seed satisfied the predicate")


def test_shop_instance_first_np_answer():
    tree, groups = _shop()
    _, instance = _find_seed(lambda i: i.answer == "a top and bottom", tree, groups)
    assert instance.phrase_type == "NP"
    assert instance.partial_query == ("She", "bought")
    assert set(instance.choices) == {"a top and bottom", "that strange little shop"}
    assert instance.choices[instance.answer_index] == instance.answer


def test_shop_instance_second_np_answer():
    tree, groups = _shop()
    _, instance = _find_seed(
        lambda i: i.answer == "that strange little shop", tree, groups
    )
    assert instance.partial_query == ("She", "bought", "a", "top", "and", "bottom", "from")


def test_prefix_plus_answer_is_sentence_prefix():
    tree, groups = _shop()
    for seed in range(30):
        built = build_npp_instance(tree, groups, record_rng(seed, "x"), "x")
        assert not isinstance(built, Skip)
        prefix = built.partial_query + tuple(built.answer.split(" "))
        assert tree.tokens[:len(prefix)] == prefix


def test_skip_when_no_group_is_large_enough():
    tree = parse_ptb(DOG)
    built = build_npp_instance(tree, extract_phrases(tree), random.Random(0), "d")
    assert built == Skip(SkipReason.NO_ELIGIBLE_GROUP)


def test_skip_when_only_phrase_starts_the_sentence():
    tree = parse_ptb("(VP (VB Run) (RB home))")
    built = build_npp_instance(
        tree, extract_phrases(tree), random.Random(0), "r", min_size=1
    )
    assert built == Skip(SkipReason.ANSWER_AT_SENTENCE_START)


def test_skip_when_group_outgrows_the_letters():
    at_limit = parse_ptb(list_tree(25))
    built = build_npp_instance(at_limit, extract_phrases(at_limit), random.Random(0), "l")
    assert len(built.choices) == 26
    assert parse_prompt(serialize_npp(built)[0])[2] == list(built.choices)
    over = parse_ptb(list_tree(26))
    built = build_npp_instance(over, extract_phrases(over), random.Random(0), "l")
    assert built == Skip(SkipReason.TOO_MANY_CHOICES)


def test_sentence_initial_phrase_still_appears_among_choices():
    tree = parse_ptb(
        "(S (NP (NN Rain)) (VP (VBZ soaks) (NP (DT the) (NN field))) (. .))"
    )
    groups = extract_phrases(tree)
    built = build_npp_instance(tree, groups, random.Random(1), "s")
    assert not isinstance(built, Skip)
    assert built.answer == "the field"
    assert set(built.choices) == {"Rain", "the field"}


def test_instance_depends_only_on_seed_and_id():
    tree, groups = _shop()
    one = build_npp_instance(tree, groups, record_rng(7, "a"), "a")
    two = build_npp_instance(tree, groups, record_rng(7, "a"), "a")
    assert one == two
    assert record_rng(7, "a").random() != record_rng(7, "b").random()
    assert record_rng(7, "a").random() != record_rng(8, "a").random()


@pytest.mark.skipif(
    sys.implementation.name != "cpython", reason="only CPython has _sha2 or _sha256"
)
def test_records_hash_with_the_builtin_sha256():
    # hashlib's sha256 would load OpenSSL; should a future CPython rename
    # its built-in module, this fails instead of falling back silently
    builtins = [sys.modules[name].sha256 for name in ("_sha2", "_sha256") if name in sys.modules]
    assert any(instances.sha256 is builtin for builtin in builtins), instances.sha256


def test_serialized_prompt_layout():
    tree, groups = _shop()
    _, instance = _find_seed(
        lambda i: i.answer == "a top and bottom" and i.answer_index == 0,
        tree,
        groups,
    )
    prompt, target = serialize_npp(instance)
    assert prompt == (
        "generate next phrase: She bought \\n "
        "(A) a top and bottom (B) that strange little shop"
    )
    assert target == "a top and bottom"


def test_prompt_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        query = " ".join(random_sentence(rng, 1, 8))
        choices = [" ".join(random_sentence(rng, 1, 5)) for _ in range(rng.randint(2, 6))]
        prompt = render_prompt(NPP_PREFIX, query, choices)
        prefix, parsed_query, parsed_choices = parse_prompt(prompt)
        assert prefix == NPP_PREFIX
        assert parsed_query == query
        assert parsed_choices == choices


def test_prompt_round_trip_at_letter_limit():
    choices = [f"choice {i}" for i in range(26)]
    prompt = render_prompt(NPP_PREFIX, "query", choices)
    assert parse_prompt(prompt)[2] == choices
    with pytest.raises(MoreChoicesThanLetters):
        render_prompt(NPP_PREFIX, "query", choices + ["extra"])


def test_completion_pairs_cover_every_cut():
    tokens = ("automatic", "target", "recognition", "is", "an", "important", "task", ".")
    pairs = build_completion_pairs(tokens, "t")
    assert len(pairs) == len(tokens) - 1
    assert all(pair.p + pair.q == tokens for pair in pairs)
    assert [pair.split_point for pair in pairs] == list(range(1, len(tokens)))
    cut = pairs[1]
    assert cut.p == ("automatic", "target")
    assert cut.q == ("recognition", "is", "an", "important", "task", ".")


@given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=10**6))
def test_pair_law_on_random_sentences(length, seed):
    tokens = tuple(random_sentence(random.Random(seed), length, length))
    pairs = build_completion_pairs(tokens, "x")
    assert len(pairs) == length - 1
    assert all(pair.p and pair.q for pair in pairs)
    assert all(pair.p + pair.q == tokens for pair in pairs)


def test_single_token_sentence_has_no_pairs():
    assert build_completion_pairs(("hi",), "x") == []


def test_nsp_instance_layout():
    doc = ["First things first.", "Then this happened.", "Finally it ended."]
    pool = ["Unrelated line one.", "Unrelated line two."]
    built = build_nsp_instance(doc, 0, pool, random.Random(5), "n", 1)
    assert not isinstance(built, Skip)
    assert built.context == "First things first."
    assert built.answer == "Then this happened."
    assert built.choices[built.answer_index] == built.answer
    assert len(built.choices) == 2
    distractor = [c for i, c in enumerate(built.choices) if i != built.answer_index]
    assert distractor[0] in pool


def test_nsp_pool_too_small():
    doc = ["A one.", "A two."]
    built = build_nsp_instance(doc, 0, ["only"], random.Random(0), "n", 2)
    assert built == Skip(SkipReason.POOL_TOO_SMALL)


def test_nsp_needs_at_least_one_distractor():
    doc = ["A one.", "A two."]
    with pytest.raises(ValueError, match="^need at least one distractor$"):
        build_nsp_instance(doc, 0, ["Other one.", "Other two."], random.Random(0), "n", 0)


def test_nsp_skips_distractor_with_the_answers_text():
    doc = ["Hello there.", "Thanks, Bob."]
    pool = ["Thanks, Bob."] * 3
    built = build_nsp_instance(doc, 0, pool, random.Random(0), "n", 2)
    assert built == Skip(SkipReason.AMBIGUOUS_CHOICES)


def test_nsp_choices_are_distinct_or_skipped():
    doc = ["Hello there.", "Thanks, Bob."]
    pool = ["Thanks, Bob.", "See you.", "See you.", "Cheers.", "Best regards."]
    reasons = set()
    for seed in range(50):
        built = build_nsp_instance(doc, 0, pool, random.Random(seed), "n", 2)
        if isinstance(built, Skip):
            reasons.add(built.reason)
        else:
            assert len(set(built.choices)) == len(built.choices)
    assert reasons == {SkipReason.AMBIGUOUS_CHOICES}


def _copies_population(n, k):
    """True when random.sample copies the population into a list (it
    then iterates it), False when it selects indexes through a set."""
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    return n <= setsize


# (pool size, draws): each draw count on both sides of random.sample's
# list-or-set threshold, which grows with the draw count above 5
POOL_DRAWS = ((15, 3), (60, 3), (60, 8), (200, 8), (40, 25), (400, 25))


def _own_positions(n):
    """One document's pool positions: at the start, the middle, the end,
    scattered, a third of the pool, or none at all."""
    middle = n // 2
    return (
        [0, 1, 2],
        [middle - 1, middle, middle + 2],
        [n - 3, n - 2, n - 1],
        [1, n // 3, n - 1],
        list(range(0, n, 3)),
        [],
    )


def test_pool_view_draws_match_the_filtered_list():
    assert {_copies_population(n, k) for n, k in POOL_DRAWS} == {True, False}
    for n, k in POOL_DRAWS:
        texts = [f"s{i}" for i in range(n)]
        for own in _own_positions(n):
            view = PoolView(texts, own)
            kept = [text for i, text in enumerate(texts) if i not in own]
            assert len(view) == len(kept)
            assert list(view) == kept
            for outside in (len(kept), -1):
                with pytest.raises(IndexError):
                    view[outside]
            for seed in range(20):
                from_view, from_list = random.Random(seed), random.Random(seed)
                assert from_view.sample(view, k) == from_list.sample(kept, k), (n, k, own)
                assert from_view.random() == from_list.random()


def test_nsp_instance_from_a_pool_view_equals_one_from_the_list():
    doc = ["Hello there.", "See you soon.", "Bye now."]
    texts = [f"Pool sentence {i}." for i in range(30)] + ["See you soon."]
    own = [0, 14, 30]
    kept = [text for i, text in enumerate(texts) if i not in own]
    for seed in range(20):
        for index in (0, 1):
            assert build_nsp_instance(
                doc, index, PoolView(texts, own), record_rng(seed, "n"), "n", 6
            ) == build_nsp_instance(doc, index, kept, record_rng(seed, "n"), "n", 6)


def test_nsp_rejects_last_sentence_as_context():
    with pytest.raises(IndexError):
        build_nsp_instance(["A.", "B."], 1, ["x"], random.Random(0), "n")


def test_nsp_serialization_uses_sentence_prefix():
    doc = ["It rains.", "We hide."]
    built = build_nsp_instance(doc, 0, ["Dogs bark."], random.Random(2), "n", 1)
    prompt, target = serialize_nsp(built)
    assert prompt.startswith(f"{NSP_PREFIX} It rains. \\n (A) ")
    assert target == "We hide."
    assert parse_prompt(prompt)[0] == NSP_PREFIX


def test_answer_position_roughly_uniform():
    tree, groups = _shop()
    hits = 0
    runs = 2000
    for i in range(runs):
        built = build_npp_instance(tree, groups, record_rng(123, f"s{i}"), f"s{i}")
        assert not isinstance(built, Skip)
        hits += built.answer_index == 0
    assert 0.45 <= hits / runs <= 0.55
