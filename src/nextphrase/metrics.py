"""Completion quality metrics: BLEU-4, exact-match METEOR, CIDEr.

All three work on pre-tokenized, lowercased segments.  The corpus BLEU
score is computed from pooled n-gram counts without smoothing; add-one
smoothing exists only for the per-segment detail numbers.  METEOR is
the exact-match variant (no stemming, no synonyms): F-mean
10PR/(R+9P), fragmentation penalty 0.5*(chunks/matches)^3.  CIDEr is
the plain tf-idf cosine form with idf log(|S|/(1+df)) taken from the
reference corpus, averaged over n-gram orders 1..4 and scaled by 10.
Each segment's n-grams are counted once (``EvalSegment.ngrams``); BLEU,
CIDEr and the METEOR reference bound read those counts, and every scorer
takes the ``EvalSegment``.  BLEU's clipped matches are counted once too
(``EvalSegment.bleu_counts``), for the corpus sums and the segment's
score.  SPICE is not implemented.

CIDEr's document frequencies need every reference before any segment
can be scored, so a report takes two passes.  The first builds the
frequencies from each segment's set of distinct reference n-grams, and
from the corpus size one idf table per corpus, indexed by frequency; the
second scores one segment at a time and keeps only its scores.
``evaluate_files`` streams both passes from the two files, so it never
holds more than one segment, and that segment's ``ngrams`` are freed
with it: it keeps the frequencies, a hash per line and the report's
per-segment rows.  ``evaluate`` runs the same two passes over a list,
and the corpus scorers (``corpus_bleu``, ``meteor``, ``cider_scores``)
take a list too.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from collections import Counter, defaultdict
from typing import Iterable, NamedTuple, Sequence

from .corpus import hashed, text_lines, tokenize, unchanged

MAX_ORDER = 4

_BEAM_WIDTH = 64


class CountMismatch(ValueError):
    """Candidate and reference files disagree on segment count."""


class SingleSegmentCorpus(ValueError):
    """CIDEr idf is degenerate without at least two segments."""


class _Segment(NamedTuple):
    candidate: tuple[str, ...]
    references: tuple[tuple[str, ...], ...]


class EvalSegment(_Segment):
    """One tokenized candidate and its references, with n-gram counts
    cached on first use (hence the subclass: a NamedTuple has no
    ``__dict__`` to cache them in).  The fields cannot be reassigned, so
    the counts never go stale."""

    @functools.cached_property
    def ngrams(self) -> tuple[tuple[Counter, tuple[Counter, ...]], ...]:
        """Per order 1..MAX_ORDER: the candidate's n-gram counts and one
        Counter per reference."""
        return tuple([
            (
                _ngram_counts(self.candidate, n),
                tuple([_ngram_counts(reference, n) for reference in self.references]),
            )
            for n in range(1, MAX_ORDER + 1)
        ])

    @functools.cached_property
    def bleu_counts(self) -> tuple[int, ...]:
        """The candidate length, the closest reference length, and the
        clipped matches and total per order, in that order: clipped once
        for corpus BLEU and the segment's own BLEU."""
        length = len(self.candidate)
        counts = [length, _closest_reference_length(length, self.references)]
        for pair in _clipped_matches(self):
            counts += pair
        return tuple(counts)


def normalize(text: str) -> tuple[str, ...]:
    return tuple(tokenize(text.lower()))


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(
        tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)
    )


# ---------------------------------------------------------------- BLEU


class BleuResult(NamedTuple):
    score: float
    precisions: tuple[float, ...]
    brevity_penalty: float
    candidate_length: int
    reference_length: int


def _clipped_matches(segment: EvalSegment) -> list[tuple[int, int]]:
    """(clipped matches, total) of the candidate's n-grams, per order: each
    n-gram counts at most as often as it occurs in any single reference."""
    pairs = []
    for candidate, references in segment.ngrams:
        match = sum([
            min(count, max([reference.get(gram, 0) for reference in references]))
            for gram, count in candidate.items()
        ])
        pairs.append((match, sum(candidate.values())))
    return pairs


def _closest_reference_length(candidate_length: int, references) -> int:
    return min(
        (len(r) for r in references),
        key=lambda n: (abs(n - candidate_length), n),
    )


def _bleu(
    precisions: Sequence[float], candidate_length: int, reference_length: int
) -> BleuResult:
    """Brevity penalty times the geometric mean of the precisions, x100."""
    precisions = tuple(precisions)
    if candidate_length == 0:
        return BleuResult(0.0, precisions, 0.0, 0, reference_length)
    if candidate_length >= reference_length:
        brevity_penalty = 1.0
    else:
        brevity_penalty = math.exp(1.0 - reference_length / candidate_length)
    if min(precisions) > 0.0:
        geometric = math.exp(
            math.fsum(math.log(p) for p in precisions) / MAX_ORDER
        )
    else:
        geometric = 0.0
    return BleuResult(
        100.0 * brevity_penalty * geometric,
        precisions,
        brevity_penalty,
        candidate_length,
        reference_length,
    )


# the BLEU counts of no segment, where the corpus sums start
_NO_BLEU_COUNTS = (0,) * (2 + 2 * MAX_ORDER)


def _add_counts(sums: Sequence[int], counts: Sequence[int]) -> list[int]:
    return [a + b for a, b in zip(sums, counts)]


def _pooled_bleu(sums: Sequence[int]) -> BleuResult:
    """Corpus BLEU of the segments whose ``bleu_counts`` add up to sums."""
    candidate_length, reference_length, *pairs = sums
    precisions = [m / t if t else 0.0 for m, t in zip(pairs[::2], pairs[1::2])]
    return _bleu(precisions, candidate_length, reference_length)


def corpus_bleu(segments: Iterable[EvalSegment]) -> BleuResult:
    """Pooled modified n-gram precision BLEU, no smoothing."""
    return _pooled_bleu(
        functools.reduce(_add_counts, (s.bleu_counts for s in segments), _NO_BLEU_COUNTS)
    )


def sentence_bleu(segment: EvalSegment) -> float:
    """Per-segment detail score, add-one smoothed for orders >= 2."""
    length, reference_length, match, total, *higher = segment.bleu_counts
    precisions = [match / total if total else 0.0]
    precisions += [(m + 1.0) / (t + 1.0) for m, t in zip(higher[::2], higher[1::2])]
    return _bleu(precisions, length, reference_length).score


# -------------------------------------------------------------- METEOR


class MeteorStats(NamedTuple):
    matches: int
    chunks: int
    candidate_length: int
    reference_length: int

    @property
    def score(self) -> float:
        if self.matches == 0:
            return 0.0
        p = self.matches / self.candidate_length
        r = self.matches / self.reference_length
        return 10.0 * p * r / (r + 9.0 * p) * (1.0 - 0.5 * (self.chunks / self.matches) ** 3)


def align(candidate: Sequence[str], reference: Sequence[str]) -> tuple[int, int]:
    """(matches, chunks) of an exact unigram alignment.

    Every alignment with the maximum number of matches is feasible;
    among those a beam search minimizes the chunk count.  Exact chunk
    minimization is a common-partition problem, so for adversarial
    repetition patterns the beam may return a slight overcount, but it
    is deterministic and exact on natural sentences.

    A beam state is the int ``last << L | free`` for a reference of
    length ``L``: ``free`` has bit ``L-1-j`` set while reference
    position ``j`` is unmatched, and ``last`` is the last matched pair
    ``(i, j)`` as ``i*(L+2)+j``, which orders like the tuple; the start
    state's "no pair yet" is below every real pair.  Its value is
    ``chunks << b | (L - matches)``, with ``2**b > L``.  When a step has
    more than ``_BEAM_WIDTH`` successors, the beam keeps those with the
    fewest chunks, then the most matches, then the smallest ``last``,
    then the smallest ``free``: with that bit order, of two match sets
    of one size the one whose sorted positions come first leaves the
    smaller ``free``, so the tie-break is "earliest positions".  Those
    are the smallest values and, among equal values, the smallest
    states: one sort of the values finds the ``_BEAM_WIDTH``-th
    smallest, every state below it is kept, and only the states at it
    are sorted.  The start state, alone with no chunk, is never sorted.
    """
    size = len(reference)
    full = (1 << size) - 1
    width = size + 2
    ref_bits: dict[str, list[tuple[int, int]]] = defaultdict(list)
    word_mask: dict[str, int] = defaultdict(int)
    for j, word in enumerate(reference):
        bit = 1 << (size - 1 - j)
        ref_bits[word].append((j, bit))
        word_mask[word] |= bit
    remaining = Counter(candidate)
    quota = {
        word: min(count, len(ref_bits[word]))
        for word, count in remaining.items()
        if word in ref_bits
    }
    total = sum(quota.values())
    if total == 0:
        return 0, 0
    low = size.bit_length()
    chunk = 1 << low
    states: dict[int, int] = {(-2 * width - 2) << size | full: size}  # state -> value
    for i, word in enumerate(candidate):
        if word not in quota:
            continue
        remaining[word] -= 1
        later = remaining[word]
        mask = word_mask[word]
        # the matches a state still owes the word: offset plus its free positions of the word
        offset = quota[word] - mask.bit_count()
        here = i * width
        # per j: its bit, the pair (i, j) and that bit as state bits, and the last of (i-1, j-1)
        moves = [(bit, (here + j) << size | bit, here - width - 1 + j) for j, bit in ref_bits[word]]
        successors: dict[int, int] = {}
        for state, value in states.items():
            free = state & full
            need = offset + (free & mask).bit_count()
            if need <= 0 or later >= need:
                # no other state or match successor has this key
                successors[state] = value
            if need > 0:
                last = state >> size
                joined = value - 1  # one more match, in the last chunk
                for bit, pair, adjacent in moves:
                    if not free & bit:
                        continue
                    grown = joined if last == adjacent else joined + chunk
                    key = free ^ pair
                    if successors.setdefault(key, grown) > grown:
                        successors[key] = grown
        if len(successors) > _BEAM_WIDTH:
            cut = sorted(successors.values())[_BEAM_WIDTH - 1]
            kept = {state: value for state, value in successors.items() if value < cut}
            tied = sorted([state for state, value in successors.items() if value == cut])
            kept.update(dict.fromkeys(tied[:_BEAM_WIDTH - len(kept)], cut))
            successors = kept
        states = successors
    # every final state has all the matches, so the least value has the fewest chunks
    return total, min(states.values()) >> low


def _overlap(candidate: Counter, reference: Counter) -> int:
    """Clipped match count: each n-gram counts at most as often as it
    occurs in the other segment."""
    return sum(
        min(count, reference[gram]) for gram, count in candidate.items() if gram in reference
    )


def meteor_segment(segment: EvalSegment) -> MeteorStats:
    """Stats against the first reference with the highest score.

    A reference is aligned only if an upper bound on its score can beat
    the best score found so far.  ``align`` returns ``matches``, the
    clipped unigram match count, exactly.  Its chunk count is ``matches``
    minus the links, a link being two matches adjacent in both the
    candidate and the reference.  A link spends one candidate bigram and
    one equal reference bigram, each used by no other link, so there are
    at most as many links as clipped bigram matches, and ``chunks >=
    max(1, matches - bigram matches)`` when ``matches > 0``; the beam can
    only overcount chunks.  Every float operation of ``MeteorStats.score``
    is monotone, so the stats with that chunk bound score at least as
    high as the aligned ones.  References are visited by falling bound,
    the earlier first among equals; the first whose ``(bound, -index)``
    cannot beat the best ``(score, -index)`` ends the search, because no
    later one can either.
    """
    candidate, references = segment
    (unigrams, reference_unigrams), (bigrams, reference_bigrams) = segment.ngrams[:2]
    order = []
    for index, reference in enumerate(references):
        matches = _overlap(unigrams, reference_unigrams[index])
        chunks = max(1, matches - _overlap(bigrams, reference_bigrams[index]))
        bound = MeteorStats(matches, chunks, len(candidate), len(reference)).score
        order.append((-bound, index))
    best = None
    best_key = (-1.0, 0)  # (score, -index) of the best so far; scores are >= 0
    for negated, index in sorted(order):
        if (-negated, -index) <= best_key:
            break
        reference = references[index]
        stats = MeteorStats(*align(candidate, reference), len(candidate), len(reference))
        if (stats.score, -index) > best_key:
            best, best_key = stats, (stats.score, -index)
    assert best is not None
    return best


# the METEOR stats of no segment, where the corpus sums start
_NO_METEOR_STATS = MeteorStats(0, 0, 0, 0)


def meteor(segments: Iterable[EvalSegment]) -> float:
    """Corpus score: sum matches/chunks/lengths, then apply the formulas."""
    return MeteorStats(
        *functools.reduce(_add_counts, map(meteor_segment, segments), _NO_METEOR_STATS)
    ).score


# --------------------------------------------------------------- CIDEr


def _document_frequency(
    references_per_segment: Iterable[Sequence[Sequence[str]]],
) -> tuple[int, list[Counter]]:
    """How many segments there are and, per order, in how many segments'
    references each n-gram occurs.

    Built from each segment's set of distinct reference n-grams: no
    occurrence is counted, so ``EvalSegment.ngrams`` is neither read nor
    filled.
    """
    frequency: list[Counter] = [Counter() for _ in range(MAX_ORDER)]
    count = 0
    for count, references in enumerate(references_per_segment, 1):
        for n, counter in enumerate(frequency, 1):
            counter.update(
                {tuple(tokens[i:i + n]) for tokens in references for i in range(len(tokens) - n + 1)}
            )
    return count, frequency


def _idf(corpus_size: int) -> list[float]:
    """The idf ``log(|S|/(1+df))`` of each document frequency 0..|S|,
    one table per corpus; it is degenerate below two segments."""
    if corpus_size < 2:
        raise SingleSegmentCorpus(f"got {corpus_size} segment(s); idf needs a corpus of at least 2")
    return [math.log(corpus_size / (1.0 + df)) for df in range(corpus_size + 1)]


def _cider_segment(
    segment: EvalSegment, idf: Sequence[float], document_frequency: Sequence[Counter]
) -> float:
    """One segment's CIDEr: per order, the mean cosine of the candidate's
    tf-idf vector with each reference's, a zero vector scoring 0."""
    order_scores = []
    for frequency, (candidate, references) in zip(document_frequency, segment.ngrams):
        cand_vec = {gram: count * idf[frequency[gram]] for gram, count in candidate.items()}
        cand_norm = math.sqrt(math.fsum([v * v for v in cand_vec.values()]))
        sims = []
        for reference in references:
            ref_vec = {gram: count * idf[frequency[gram]] for gram, count in reference.items()}
            ref_norm = math.sqrt(math.fsum([v * v for v in ref_vec.values()]))
            dot = math.fsum([v * ref_vec[g] for g, v in cand_vec.items() if g in ref_vec])
            sims.append(dot / (cand_norm * ref_norm) if cand_norm and ref_norm else 0.0)
        order_scores.append(math.fsum(sims) / len(sims))
    return 10.0 * math.fsum(order_scores) / MAX_ORDER


def _mean(scores: Sequence[float]) -> float:
    return math.fsum(scores) / len(scores)


def cider_scores(segments: Sequence[EvalSegment]) -> tuple[float, list[float]]:
    """(corpus score, per-segment scores)."""
    corpus_size, frequency = _document_frequency(s.references for s in segments)
    idf = _idf(corpus_size)
    per_segment = [_cider_segment(s, idf, frequency) for s in segments]
    return _mean(per_segment), per_segment


# -------------------------------------------------------------- report


class SegmentScores(NamedTuple):
    index: int
    bleu4: float
    meteor: float
    cider: float


class EvalReport(NamedTuple):
    bleu4: float
    meteor: float
    cider: float
    segments: tuple[SegmentScores, ...]
    metadata: dict


def _score(
    segments: Iterable[EvalSegment], corpus_size: int, document_frequency: Sequence[Counter]
) -> EvalReport:
    """The second pass: score each segment in turn, keep only its scores
    and add its BLEU counts and METEOR stats to the corpus sums, so a
    segment and its cached counts are freed when the next one comes."""
    idf = _idf(corpus_size)
    bleu_sums = _NO_BLEU_COUNTS
    meteor_sums = _NO_METEOR_STATS
    detail: list[SegmentScores] = []
    for index, segment in enumerate(segments):
        bleu_sums = _add_counts(bleu_sums, segment.bleu_counts)
        stats = meteor_segment(segment)
        meteor_sums = _add_counts(meteor_sums, stats)
        detail.append(
            SegmentScores(
                index=index,
                bleu4=sentence_bleu(segment),
                meteor=stats.score,
                cider=_cider_segment(segment, idf, document_frequency),
            )
        )
    metadata = {
        "bleu4": "corpus pooled n-gram counts, unsmoothed; "
                 "per-segment detail add-one smoothed for n >= 2",
        "meteor": "exact-METEOR: fmean 10PR/(R+9P), "
                  "penalty 0.5*(chunks/matches)^3",
        "cider": "plain CIDEr, idf log(|S|/(1+df)) over the references",
        "spice": "not implemented",
    }
    return EvalReport(
        bleu4=_pooled_bleu(bleu_sums).score,
        meteor=MeteorStats(*meteor_sums).score,
        cider=_mean([s.cider for s in detail]),
        segments=tuple(detail),
        metadata=metadata,
    )


def evaluate(segments: Sequence[EvalSegment]) -> EvalReport:
    """The report of a list of segments: the two passes over the list."""
    return _score(segments, *_document_frequency(s.references for s in segments))


def _references(line: str) -> tuple[tuple[str, ...], ...]:
    """The normalized references of a line; tab separates them."""
    return tuple([normalize(reference) for reference in line.split("\t")])


def _segment(candidate: str, references: str) -> EvalSegment:
    return EvalSegment(normalize(candidate), _references(references))


def _check_counts(candidates: int, references: int) -> None:
    if candidates != references:
        raise CountMismatch(f"{candidates} candidates vs {references} references")


def load_segments(candidates_path, references_path) -> list[EvalSegment]:
    """Read aligned plain-text files; tab separates multiple references."""
    candidates = list(text_lines(candidates_path))
    references = list(text_lines(references_path))
    _check_counts(len(candidates), len(references))
    return list(map(_segment, candidates, references))


def evaluate_files(candidates_path, references_path) -> EvalReport:
    """The report of two aligned files, read twice and never held whole.

    A count mismatch or a one-segment corpus is raised by the first
    pass, before any segment is scored.  A file whose lines, each with
    its newline, differ from those of the first pass, in number or in
    hash, raises InputChanged naming that file (see ``corpus.unchanged``),
    so no report is made from frequencies of other lines than those scored.
    """
    from array import array  # an extension module; only the streamed report needs it

    candidates = array("q", map(hash, text_lines(candidates_path)))
    references = array("q")
    segments, frequency = _document_frequency(
        # interned, the n-gram keys of the frequencies share one string per word
        tuple([tuple([sys.intern(token) for token in tokens]) for tokens in _references(line)])
        for line in hashed(text_lines(references_path), references)
    )
    _check_counts(len(candidates), segments)
    # strict, zip reads both files to their ends, so a line that either
    # file gained is read and fails; each file's own check raises before
    # zip could find the two of different lengths
    pairs = zip(
        unchanged(text_lines(candidates_path), candidates, path=candidates_path),
        unchanged(text_lines(references_path), references, path=references_path),
        strict=True,
    )
    return _score(itertools.starmap(_segment, pairs), segments, frequency)


def render_report(report: EvalReport) -> str:
    lines = [
        "metric         score",
        f"BLEU-4        {report.bleu4:9.4f}",
        f"exact-METEOR  {report.meteor:9.4f}",
        f"CIDEr         {report.cider:9.4f}",
        "spice: not implemented",
        f"segments: {len(report.segments)}",
    ]
    for key in ("bleu4", "meteor", "cider"):
        lines.append(f"note {key}: {report.metadata[key]}")
    return "\n".join(lines)


def report_to_json(report: EvalReport) -> str:
    payload = {
        "bleu4": report.bleu4,
        "meteor": report.meteor,
        "cider": report.cider,
        "spice": "not implemented",
        "metadata": report.metadata,
        "segments": [s._asdict() for s in report.segments],
    }
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
