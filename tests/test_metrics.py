import hashlib
import json
import math
import random
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import nextphrase.metrics
from nextphrase.metrics import (
    MAX_ORDER,
    CountMismatch,
    EvalSegment,
    SingleSegmentCorpus,
    align,
    cider_scores,
    corpus_bleu,
    evaluate,
    evaluate_files,
    load_segments,
    meteor,
    meteor_segment,
    normalize,
    render_report,
    report_to_json,
    sentence_bleu,
)

from conftest import WORDS, random_sentence
from oracles import (
    align_beam_oracle,
    align_oracle,
    bleu_oracle,
    cider_oracle,
    evaluate_oracle,
    meteor_segment_oracle,
)

DATA = Path(__file__).parent / "data"

IDENTITY = [
    EvalSegment(("a", "b", "c", "d"), (("a", "b", "c", "d"),)),
    EvalSegment(("e", "f", "g", "h", "i"), (("e", "f", "g", "h", "i"),)),
    EvalSegment(("j", "k", "l", "m"), (("j", "k", "l", "m"),)),
]


def _random_segments(rng, count=6):
    segments = []
    for _ in range(count):
        candidate = tuple(random_sentence(rng, 3, 12))
        refs = tuple(
            tuple(random_sentence(rng, 3, 12)) for _ in range(rng.randint(1, 3))
        )
        segments.append(EvalSegment(candidate, refs))
    return segments


# ---------------------------------------------------------------- BLEU


def test_bleu_identity_is_exactly_100():
    assert corpus_bleu(IDENTITY).score == 100.0


def test_bleu_clipped_unigram_precision():
    result = corpus_bleu([EvalSegment(("the", "the", "the"), (("the", "cat"),))])
    assert abs(result.precisions[0] - 1.0 / 3.0) < 1e-9


def test_bleu_zero_fourgram_overlap_scores_zero():
    segments = [EvalSegment(("a", "b", "c", "d"), (("a", "x", "c", "y"),))]
    assert corpus_bleu(segments).score == 0.0


def test_bleu_empty_candidate_is_zero_not_a_crash():
    empty = EvalSegment((), (("a", "b"),))
    assert corpus_bleu([empty]).score == 0.0
    assert sentence_bleu(empty) == 0.0
    mixed = [empty] + IDENTITY
    assert 0.0 < corpus_bleu(mixed).score < 100.0


def test_bleu_brevity_penalty():
    segments = [EvalSegment(("a", "b", "c", "d"), (("a", "b", "c", "d", "e", "f"),))]
    result = corpus_bleu(segments)
    assert abs(result.brevity_penalty - math.exp(1.0 - 6.0 / 4.0)) < 1e-12
    longer = [EvalSegment(("a", "b", "c", "d", "x", "y"), (("a", "b", "c", "d"),))]
    assert corpus_bleu(longer).brevity_penalty == 1.0


def test_bleu_closest_reference_length_breaks_ties_short():
    segment = EvalSegment(("a", "b", "c"), (("x", "y"), ("p", "q", "r", "s")))
    assert corpus_bleu([segment]).reference_length == 2


def test_bleu_multi_reference_clipping():
    segment = EvalSegment(
        ("the", "cat", "the"), (("the", "the", "dog"), ("cat", "nap"))
    )
    result = corpus_bleu([segment])
    assert abs(result.precisions[0] - 1.0) < 1e-12


def test_bleu_pools_counts_instead_of_averaging():
    segments = [
        EvalSegment(("a", "b", "c", "d", "e"), (("a", "b", "c", "d", "e"),)),
        EvalSegment(("p", "q", "r", "s"), (("p", "q", "x", "s"),)),
    ]
    pooled = corpus_bleu(segments).score
    averaged = sum(sentence_bleu(s) for s in segments) / 2
    assert abs(pooled - bleu_oracle([(s.candidate, s.references) for s in segments])) < 1e-9
    assert abs(pooled - averaged) > 1.0


def test_bleu_matches_fraction_oracle_on_random_corpora():
    rng = random.Random(31)
    for _ in range(30):
        segments = _random_segments(rng)
        expected = bleu_oracle([(s.candidate, s.references) for s in segments])
        assert abs(corpus_bleu(segments).score - expected) < 1e-9


def test_sentence_bleu_identity_and_smoothing():
    assert sentence_bleu(EvalSegment(("a", "b", "c", "d"), (("a", "b", "c", "d"),))) == 100.0
    short = sentence_bleu(EvalSegment(("a", "b"), (("a", "b"),)))
    assert 0.0 < short <= 100.0
    assert sentence_bleu(EvalSegment(("z", "z"), (("a", "b"),))) == 0.0


# -------------------------------------------------------------- METEOR


def test_meteor_identity_segment_formula():
    for m in range(1, 11):
        tokens = tuple(f"w{i}" for i in range(m))
        stats = meteor_segment(EvalSegment(tokens, (tokens,)))
        assert stats.matches == m
        assert stats.chunks == 1
        assert abs(stats.score - (1.0 - 0.5 * (1.0 / m) ** 3)) < 1e-12


def test_meteor_hand_case():
    stats = meteor_segment(EvalSegment(("the", "cat", "sat"), (("the", "cat", "napped"),)))
    assert stats.matches == 2
    assert stats.chunks == 1
    assert abs(stats.score - 0.625) < 1e-9


def test_meteor_zero_overlap():
    assert meteor_segment(EvalSegment(("a", "b"), (("c", "d"),))).score == 0.0
    assert meteor([EvalSegment(("a", "b"), (("c", "d"),))]) == 0.0


def test_align_counts_chunks():
    assert align(("x", "y", "z"), ("x", "y", "z")) == (3, 1)
    assert align(("a", "b", "c"), ("c", "a", "b")) == (3, 2)
    assert align(("a", "b", "c", "d"), ("b", "a", "d", "c")) == (4, 4)
    assert align(("the", "the", "cat"), ("the", "cat", "the")) == (3, 2)


def test_align_prefers_fewer_chunks_among_max_matchings():
    # greedy left-to-right pairing of "a" would split "a b" across chunks
    assert align(("a", "a", "b"), ("a", "x", "a", "b")) == (3, 2)


ALIGN_PIN_SHA256 = "b35352133b73f42a413a5456e9b9fc9597ce01e4d7b62aa1304ed46c83343ac3"


def test_align_beam_tie_break_is_pinned():
    # three-word vocabulary and up to 40 tokens: the beam truncates, so the
    # order in which it ranks equal-chunk states decides some results
    rng = random.Random(7)
    pairs = [
        tuple(
            tuple(rng.choice("abc") for _ in range(rng.randint(8, 40)))
            for _ in range(2)
        )
        for _ in range(400)
    ]
    results = [list(align(candidate, reference)) for candidate, reference in pairs]
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    assert digest == ALIGN_PIN_SHA256


SHORT_TOKENS = st.lists(st.sampled_from("abc"), max_size=8).map(tuple)


@given(SHORT_TOKENS, SHORT_TOKENS)
def test_align_matches_exhaustive_oracle(candidate, reference):
    assert align(candidate, reference) == align_oracle(candidate, reference)


@st.composite
def beam_pairs(draw):
    """A candidate and a reference of 0-60 tokens over 2-4 words: long
    enough, with so few words, for the beam to truncate."""
    words = st.sampled_from("abcd"[: draw(st.integers(2, 4))])
    tokens = st.integers(0, 60).flatmap(lambda n: st.lists(words, min_size=n, max_size=n))
    return tuple(draw(tokens)), tuple(draw(tokens))


@settings(deadline=None)
@given(beam_pairs())
@example((("a", "b", "a"), ()))
@example((("a", "b", "a", "b"), ("c", "d", "c")))
# masks of 200 bits, wider than a machine word
@example((tuple("abc"[i * 7 % 11 % 3] for i in range(40)), tuple("abc"[i * 5 % 13 % 3] for i in range(200))))
def test_align_keeps_the_tuple_ranked_beam(pair):
    candidate, reference = pair
    assert align(candidate, reference) == align_beam_oracle(candidate, reference)


def test_meteor_picks_best_reference():
    stats = meteor_segment(
        EvalSegment(
            ("a", "quick", "brown", "fox"),
            (("the", "quick", "brown", "fox", "jumps"), ("a", "quick", "brown", "fox", "runs")),
        )
    )
    assert stats.matches == 4
    assert stats.reference_length == 5


def test_meteor_ties_go_to_the_first_reference():
    # both references score 0.0; the pooled corpus METEOR sums the
    # winner's reference length, so the first one must win
    assert meteor_segment(EvalSegment(("a",), (("b",), ("c", "d")))).reference_length == 1


def test_meteor_aligns_only_references_that_can_win(monkeypatch):
    calls = []
    counted = nextphrase.metrics.align
    monkeypatch.setattr(
        nextphrase.metrics,
        "align",
        lambda candidate, reference: calls.append(reference) or counted(candidate, reference),
    )
    candidate = ("the", "cat", "sat", "on", "the", "mat")
    references = (candidate, ("the", "cat", "sat"), ("a", "cat", "sat", "on", "a", "mat"), ())
    stats = meteor_segment(EvalSegment(candidate, references))
    assert calls == [candidate]
    assert stats == (6, 1, 6, 6)


@st.composite
def meteor_cases(draw):
    """A candidate of up to 12 tokens over 1-4 words and 1-5 references,
    drawn with repeats from a few sentences, the candidate and ()."""
    words = st.sampled_from("abcd"[: draw(st.integers(1, 4))])
    sentence = st.lists(words, max_size=12).map(tuple)
    candidate = draw(sentence)
    pool = draw(st.lists(sentence, min_size=1, max_size=5)) + [candidate, ()]
    references = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    return candidate, references


@given(meteor_cases())
def test_meteor_segment_matches_in_order_oracle(case):
    candidate, references = case
    expected = meteor_segment_oracle(candidate, references)
    assert meteor_segment(EvalSegment(candidate, tuple(references))) == expected


def test_meteor_segment_matches_in_order_oracle_on_seeded_fuzz():
    rng = random.Random(19)
    for _ in range(3_000):
        vocabulary = "abcd"[: rng.randint(1, 4)]

        def sentence():
            return tuple(rng.choice(vocabulary) for _ in range(rng.randint(0, 12)))

        candidate = sentence()
        pool = [sentence() for _ in range(rng.randint(1, 5))] + [candidate, ()]
        references = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
        expected = meteor_segment_oracle(candidate, references)
        segment = EvalSegment(candidate, tuple(references))
        assert meteor_segment(segment) == expected, segment


def test_meteor_corpus_aggregates_counts():
    segments = [
        EvalSegment(("a", "b", "c", "d"), (("a", "b", "c", "d"),)),
        EvalSegment(("p", "q"), (("p", "x"),)),
    ]
    # pooled: matches 5, chunks 2, cand 6, ref 6
    precision = 5 / 6
    recall = 5 / 6
    fmean = 10 * precision * recall / (recall + 9 * precision)
    penalty = 0.5 * (2 / 5) ** 3
    assert abs(meteor(segments) - fmean * (1 - penalty)) < 1e-12


# --------------------------------------------------------------- CIDEr


def test_cider_identity_is_ten():
    assert abs(cider_scores(IDENTITY)[0] - 10.0) < 1e-9


def test_cider_single_segment_rejected():
    with pytest.raises(SingleSegmentCorpus):
        cider_scores(IDENTITY[:1])
    cider_scores(IDENTITY[:2])


def test_cider_disjoint_vocabulary_scores_zero():
    segments = [
        EvalSegment(("a", "b", "c"), (("x", "y", "z"),)),
        EvalSegment(("d", "e", "f"), (("p", "q", "r"),)),
        EvalSegment(("g", "h"), (("s", "t"),)),
    ]
    assert cider_scores(segments)[0] == 0.0


def test_cider_matches_frozen_toy_fixture():
    fixture = json.loads((DATA / "cider_toy_expected.json").read_text())
    segments = [
        EvalSegment(
            tuple(entry["candidate"]),
            tuple(tuple(r) for r in entry["references"]),
        )
        for entry in fixture["segments"]
    ]
    corpus, per_segment = cider_scores(segments)
    assert abs(corpus - fixture["corpus"]) < 1e-9
    for got, entry in zip(per_segment, fixture["segments"]):
        assert abs(got - entry["score"]) < 1e-9


def test_cider_matches_vector_oracle_on_random_corpora():
    rng = random.Random(41)
    for _ in range(20):
        segments = _random_segments(rng)
        expected_corpus, expected_per = cider_oracle(
            [(s.candidate, s.references) for s in segments]
        )
        corpus, per_segment = cider_scores(segments)
        assert abs(corpus - expected_corpus) < 1e-9
        assert max(abs(a - b) for a, b in zip(per_segment, expected_per)) < 1e-9


# ----------------------------------------------------- shared properties


def test_scores_invariant_under_vocabulary_relabeling():
    rng = random.Random(51)
    mapping = {word: f"tok{i}" for i, word in enumerate(WORDS)}
    for _ in range(10):
        segments = _random_segments(rng)
        renamed = [
            EvalSegment(
                tuple(mapping[w] for w in s.candidate),
                tuple(tuple(mapping[w] for w in r) for r in s.references),
            )
            for s in segments
        ]
        assert abs(corpus_bleu(segments).score - corpus_bleu(renamed).score) < 1e-12
        assert abs(meteor(segments) - meteor(renamed)) < 1e-12
        assert abs(cider_scores(segments)[0] - cider_scores(renamed)[0]) < 1e-12


def test_scores_independent_of_segment_order():
    rng = random.Random(61)
    segments = _random_segments(rng, count=8)
    shuffled = segments[:]
    rng.shuffle(shuffled)
    assert abs(corpus_bleu(segments).score - corpus_bleu(shuffled).score) < 1e-12
    assert abs(meteor(segments) - meteor(shuffled)) < 1e-12
    assert abs(cider_scores(segments)[0] - cider_scores(shuffled)[0]) < 1e-12


def test_perturbed_candidate_never_beats_identity():
    rng = random.Random(71)
    base_bleu = corpus_bleu(IDENTITY).score
    base_meteor = meteor(IDENTITY)
    base_cider = cider_scores(IDENTITY)[0]
    for _ in range(20):
        mutated = [
            EvalSegment(tuple(s.candidate), s.references) for s in IDENTITY
        ]
        target = rng.randrange(len(mutated))
        tokens = list(mutated[target].candidate)
        tokens[rng.randrange(len(tokens))] = "zzz"
        mutated[target] = EvalSegment(tuple(tokens), mutated[target].references)
        assert corpus_bleu(mutated).score <= base_bleu
        assert meteor(mutated) <= base_meteor
        assert cider_scores(mutated)[0] <= base_cider


def test_appending_junk_never_helps_on_identity():
    segments = [
        EvalSegment(s.candidate + ("zzz",), s.references) for s in IDENTITY
    ]
    assert corpus_bleu(segments).score < 100.0
    assert meteor(segments) < meteor(IDENTITY)
    assert cider_scores(segments)[0] < 10.0


# ------------------------------------------------------------- reports


def test_normalize_lowercases_and_tokenizes():
    assert normalize("The Cat sat.") == ("the", "cat", "sat", ".")


def test_load_segments_and_tab_references(tmp_path):
    cand = tmp_path / "c.txt"
    ref = tmp_path / "r.txt"
    cand.write_text("The cat.\nDogs bark!\n", encoding="utf-8")
    ref.write_text("the CAT.\tthe kitten.\nDogs bark!\n", encoding="utf-8")
    segments = load_segments(cand, ref)
    assert segments[0].candidate == ("the", "cat", ".")
    assert segments[0].references == (("the", "cat", "."), ("the", "kitten", "."))
    assert abs(meteor([segments[0]]) - (1.0 - 0.5 * (1.0 / 3.0) ** 3)) < 1e-12


def test_load_segments_count_mismatch(tmp_path):
    cand = tmp_path / "c.txt"
    ref = tmp_path / "r.txt"
    cand.write_text("one\ntwo\n", encoding="utf-8")
    ref.write_text("one\n", encoding="utf-8")
    with pytest.raises(CountMismatch):
        load_segments(cand, ref)


def test_report_matches_golden_fixture():
    segments = load_segments(DATA / "candidates.txt", DATA / "references.txt")
    report = evaluate(segments)
    assert report_to_json(report) == (DATA / "golden_report.json").read_text(
        encoding="utf-8"
    )
    assert render_report(report) + "\n" == (DATA / "golden_report.txt").read_text(
        encoding="utf-8"
    )


def test_report_mentions_unimplemented_spice_and_variant():
    report = evaluate(IDENTITY)
    text = render_report(report)
    assert "spice: not implemented" in text
    assert "exact-METEOR" in text
    assert len(report.segments) == len(IDENTITY)
    assert report.segments[0].bleu4 == 100.0


def test_evaluate_counts_each_segment_once(monkeypatch):
    # BLEU, the per-segment BLEU and CIDEr all read EvalSegment.ngrams; the
    # document frequencies come from sets of reference n-grams, not counts
    calls = []
    count = nextphrase.metrics._ngram_counts
    monkeypatch.setattr(
        nextphrase.metrics,
        "_ngram_counts",
        lambda tokens, n: calls.append(n) or count(tokens, n),
    )
    segments = load_segments(DATA / "candidates.txt", DATA / "references.txt")
    evaluate(segments)
    assert len(calls) == sum(MAX_ORDER * (1 + len(s.references)) for s in segments)


def test_evaluate_files_clips_each_segment_once(monkeypatch):
    # the corpus BLEU sums and the per-segment BLEU read one bleu_counts
    calls = []
    clip = nextphrase.metrics._clipped_matches
    monkeypatch.setattr(
        nextphrase.metrics,
        "_clipped_matches",
        lambda segment: calls.append(segment) or clip(segment),
    )
    report = evaluate_files(DATA / "candidates.txt", DATA / "references.txt")
    assert len(calls) == len(report.segments)


def test_eval_segment_fills_ngrams_once_and_compares_by_value():
    segment = EvalSegment(("a", "b"), (("a", "b", "c"), ("b",)))
    first = segment.ngrams
    assert segment.ngrams is first
    assert first[0][0] == {("a",): 1, ("b",): 1}
    twin = EvalSegment(("a", "b"), (("a", "b", "c"), ("b",)))
    assert twin == segment
    assert hash(twin) == hash(segment)
    assert twin != EvalSegment(("a",), twin.references)
    # a named tuple, so it equals the plain tuple of its fields
    assert twin == (twin.candidate, twin.references)
    assert repr(segment) == (
        "EvalSegment(candidate=('a', 'b'), references=(('a', 'b', 'c'), ('b',)))"
    )


def test_eval_segment_fields_are_read_only():
    # the n-gram counts are cached, so a reassigned field would score stale counts
    segment = EvalSegment(("a", "b"), (("a", "b"),))
    assert sentence_bleu(segment) == 100.0
    with pytest.raises(AttributeError):
        segment.candidate = ("x", "y")
    with pytest.raises(AttributeError):
        segment.references = (("x", "y"),)
    assert segment.candidate == ("a", "b")


def _write_eval_files(directory: Path, segments) -> tuple[Path, Path]:
    """Candidate and reference files of (candidate, references) word tuples."""
    candidates = directory / "candidates.txt"
    references = directory / "references.txt"
    candidates.write_text(
        "".join(" ".join(candidate) + "\n" for candidate, _ in segments), encoding="utf-8"
    )
    references.write_text(
        "".join("\t".join(" ".join(r) for r in refs) + "\n" for _, refs in segments),
        encoding="utf-8",
    )
    return candidates, references


EVAL_SENTENCES = st.lists(st.sampled_from(("a", "b", "c", "d")), max_size=7)
EVAL_SEGMENTS = st.tuples(EVAL_SENTENCES, st.lists(EVAL_SENTENCES, min_size=1, max_size=3))
# an empty candidate, an empty reference beside a full one, and "zebra",
# whose n-grams only one reference in the corpus has
EVAL_EDGES = [
    ((), (("a", "b"),)),
    (("a", "b", "c"), ((), ("a", "b", "d"))),
    (("a", "zebra"), (("a", "zebra", "b"), ("a", "b"))),
]


@given(st.lists(EVAL_SEGMENTS, max_size=6), st.randoms(use_true_random=False))
@example([], random.Random(0))
def test_streamed_files_report_the_bytes_of_the_list_oracle(drawn, rng):
    segments = drawn + EVAL_EDGES
    rng.shuffle(segments)
    with tempfile.TemporaryDirectory() as scratch:
        candidates, references = _write_eval_files(Path(scratch), segments)
        streamed = evaluate_files(candidates, references)
        expected = evaluate_oracle(load_segments(candidates, references))
        listed = evaluate(load_segments(candidates, references))
    assert report_to_json(streamed) == report_to_json(expected) == report_to_json(listed)
    assert render_report(streamed) == render_report(expected)


def _segments(drawn) -> list[EvalSegment]:
    return [EvalSegment(tuple(c), tuple([tuple(r) for r in refs])) for c, refs in drawn]


@given(
    st.lists(EVAL_SEGMENTS, min_size=2, max_size=8).flatmap(
        lambda drawn: st.tuples(st.just(drawn), st.permutations(range(len(drawn))))
    )
)
def test_a_permutation_keeps_the_corpus_scores_bit_equal(drawn_and_order):
    drawn, order = drawn_and_order
    report = evaluate(_segments(drawn))
    permuted = evaluate(_segments([drawn[i] for i in order]))
    assert (permuted.bleu4, permuted.meteor, permuted.cider) == (
        report.bleu4, report.meteor, report.cider
    )
    # the rows follow the permuted order, each with its segment's scores
    assert [row.index for row in permuted.segments] == list(range(len(drawn)))
    assert [row[1:] for row in permuted.segments] == [report.segments[i][1:] for i in order]


def test_evaluate_files_checks_counts_before_the_corpus_size(tmp_path):
    candidates, references = _write_eval_files(tmp_path, [(("a",), (("a",),))] * 2)
    references.write_text("a\n", encoding="utf-8")
    with pytest.raises(CountMismatch):
        evaluate_files(candidates, references)
    candidates.write_text("a\n", encoding="utf-8")
    with pytest.raises(SingleSegmentCorpus):
        evaluate_files(candidates, references)


def test_evaluate_files_holds_one_segment_at_a_time(tmp_path):
    # 2,000 segments of distinct words, two references each: a report that
    # holds every segment with its n-gram counts peaks above 20 MiB here;
    # streamed, only the document frequencies and one segment are held
    rng = random.Random(3)
    vocabulary = [f"w{i}" for i in range(5000)]
    segments = []
    for _ in range(2000):
        candidate = rng.sample(vocabulary, rng.randint(4, 10))
        references = []
        for _ in range(2):
            reference = list(candidate)
            reference[rng.randrange(len(reference))] = rng.choice(vocabulary)
            references.append(reference)
        segments.append((candidate, references))
    candidates, references = _write_eval_files(tmp_path, segments)
    tracemalloc.start()
    try:
        report = evaluate_files(candidates, references)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.segments) == 2000
    assert peak < 12 * 2**20
