"""Slow reference implementations the fast code is tested against."""

import math
import random
import re
import string
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from nextphrase.corpus import (
    DEFAULT_GUARDS,
    iter_documents,
    make_sentence_id,
    split_counts,
    split_sentences,
)
from nextphrase.metrics import (
    EvalReport,
    MeteorStats,
    SegmentScores,
    _bleu,
    _clipped_matches,
    _closest_reference_length,
    align,
    meteor_segment,
    sentence_bleu,
)
from nextphrase.treebank import (
    EmptyConstituent,
    MalformedLabel,
    UnbalancedBrackets,
    normalize_label,
)


@dataclass(frozen=True)
class Node:
    """One constituent.  Leaves carry a token, internal nodes children.

    ``start``/``end`` are a half-open token index range; a node's range
    always equals the union of its children's ranges.
    """

    label: str
    children: tuple["Node", ...]
    token: str | None
    start: int
    end: int

    @property
    def span(self):
        return (self.start, self.end)

    @property
    def is_leaf(self):
        return self.token is not None


def tree_root(tree):
    """A parsed tree as Node objects, built from its span table."""
    spans = tree.spans
    # built nodes no parent has claimed yet, the leftmost last; a
    # backward scan meets every child before its parent
    free = []
    for index in range(len(spans) - 1, -1, -1):
        label, start, end = spans[index]
        if index + 1 == len(spans) or spans[index + 1][1] >= end:
            free.append(Node(label, (), tree.tokens[start], start, end))
            continue
        children = []
        while free and free[-1].start < end:
            children.append(free.pop())
        free.append(Node(label, tuple(children), None, start, end))
    return free[0]


def iter_nodes(node):
    """Pre-order (document order) traversal."""
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        stack.extend(reversed(cur.children))


def to_bracketed(node):
    """Canonical single-space bracketed form, re-parsable by parse_ptb."""
    out = []
    close = ")"
    stack = [node]
    while stack:
        item = stack.pop()
        if item is close:
            out.append(close)
            continue
        if item.is_leaf:
            out.append(f"({item.label} {item.token})")
        else:
            out.append(f"({item.label}")
            stack.append(close)
            stack.extend(reversed(item.children))
    text = []
    for piece in out:
        if text and piece != close:
            text.append(" ")
        text.append(piece)
    return "".join(text)


# the literal backslash-n between a prompt's query and its choices
_SEPARATOR = " \\n "


def parse_prompt(prompt):
    """Inverse of render_prompt: (prefix, query, choices)."""
    head, sep, options = prompt.partition(_SEPARATOR)
    if not sep:
        raise ValueError("prompt has no choice separator")
    match = re.match(r"(.*?:) (.*)", head)
    if not match:
        raise ValueError("prompt has no task prefix")
    prefix, query = match.group(1), match.group(2)
    choices = []
    if not options.startswith("(A) "):
        raise ValueError("choices do not start at (A)")
    at = 4
    for pos in range(1, len(string.ascii_uppercase) + 1):
        marker = f" ({string.ascii_uppercase[pos]}) " if pos < 26 else None
        cut = options.find(marker, at) if marker else -1
        if cut < 0:
            choices.append(options[at:])
            break
        choices.append(options[at:cut])
        at = cut + len(marker)
    return prefix, query, choices


def normalize_label_oracle(label):
    """Base category by regex: the text before the first ``-`` or ``=``,
    unless the label itself starts with ``-``."""
    if label.startswith("-"):
        return label
    return re.split(r"[-=]", label, maxsplit=1)[0]


_LEXER = re.compile(r"\(|\)|[^()\s]+")

_WRAPPER_LABELS = ("ROOT", "TOP")


def parse_ptb_oracle(text):
    """(root, tokens) of one bracketed tree, built as Node objects.

    The parser that came before the span table, kept as the reference
    for its tokens, constituents and errors.
    """
    pieces = _LEXER.findall(text)
    # stack holds None for an open bracket, str for a bare atom, and
    # Node for a finished constituent
    stack = []
    tokens = []
    for piece in pieces:
        if piece == "(":
            stack.append(None)
            continue
        if piece != ")":
            stack.append(piece)
            continue
        contents = []
        while stack and stack[-1] is not None:
            contents.append(stack.pop())
        if not stack:
            raise UnbalancedBrackets("close bracket without matching open")
        stack.pop()
        contents.reverse()
        if not contents or not isinstance(contents[0], str):
            raise MalformedLabel("constituent is missing its label")
        label = normalize_label(contents[0])
        rest = contents[1:]
        if not rest:
            raise EmptyConstituent(f"({label}) has no children and no token")
        if len(rest) == 1 and isinstance(rest[0], str):
            node = Node(label, (), rest[0], len(tokens), len(tokens) + 1)
            tokens.append(rest[0])
        else:
            for item in rest:
                if isinstance(item, str):
                    raise UnbalancedBrackets(
                        f"bare token {item!r} where a bracketed child was expected"
                    )
            kids = tuple(rest)
            node = Node(label, kids, None, kids[0].start, kids[-1].end)
        stack.append(node)
    if len(stack) != 1 or not isinstance(stack[0], Node):
        raise UnbalancedBrackets("input is not a single well-formed tree")
    root = stack[0]
    if root.label in _WRAPPER_LABELS and len(root.children) == 1:
        root = root.children[0]
    return root, tuple(tokens)


def yield_tokens(node):
    """Leaf tokens in sentence order."""
    out = []
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur.is_leaf:
            out.append(cur.token)
        else:
            stack.extend(reversed(cur.children))
    return out


def nodes_with_label(tree, label):
    """All nodes carrying the given base label, in document order."""
    return [n for n in iter_nodes(tree_root(tree)) if n.label == label]


def descendants(node):
    out = []
    pending = list(node.children)
    while pending:
        cur = pending.pop()
        out.append(cur)
        pending.extend(cur.children)
    return out


def brute_force_phrases(tree):
    """Keep every NP/VP/PP node without a same-label strict descendant."""
    kept = {"NP": [], "VP": [], "PP": []}
    pending = [tree_root(tree)]
    order = []
    while pending:
        cur = pending.pop()
        order.append(cur)
        pending.extend(reversed(cur.children))
    for node in order:
        if node.label not in kept:
            continue
        if any(below.label == node.label for below in descendants(node)):
            continue
        kept[node.label].append((node.start, node.end))
    return kept


def _grams(tokens, n):
    counts = {}
    for i in range(len(tokens) - n + 1):
        gram = tuple(tokens[i:i + n])
        counts[gram] = counts.get(gram, 0) + 1
    return counts


def bleu_oracle(segments):
    """Pooled corpus BLEU-4 with exact fraction precisions."""
    matches = [0] * 4
    totals = [0] * 4
    cand_len = 0
    ref_len = 0
    for candidate, references in segments:
        cand_len += len(candidate)
        ref_len += min(
            (len(r) for r in references),
            key=lambda k: (abs(k - len(candidate)), k),
        )
        for n in range(1, 5):
            counts = _grams(candidate, n)
            best = {}
            for reference in references:
                for gram, count in _grams(reference, n).items():
                    best[gram] = max(best.get(gram, 0), count)
            matches[n - 1] += sum(
                min(count, best.get(gram, 0)) for gram, count in counts.items()
            )
            totals[n - 1] += sum(counts.values())
    if cand_len == 0 or any(t == 0 for t in totals):
        return 0.0
    precisions = [Fraction(m, t) for m, t in zip(matches, totals)]
    if any(p == 0 for p in precisions):
        return 0.0
    log_sum = sum(math.log(float(p)) for p in precisions)
    bp = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * bp * math.exp(log_sum / 4.0)


def cider_oracle(segments):
    """Vector-based CIDEr over an explicit sorted vocabulary."""
    size = len(segments)
    per_order_vocab = []
    dfs = []
    for n in range(1, 5):
        df = {}
        for _, references in segments:
            seen = set()
            for reference in references:
                seen.update(_grams(reference, n))
            for gram in seen:
                df[gram] = df.get(gram, 0) + 1
        dfs.append(df)
        vocab = set(df)
        for candidate, _ in segments:
            vocab.update(_grams(candidate, n))
        per_order_vocab.append(sorted(vocab))

    def dense(tokens, n):
        counts = _grams(tokens, n)
        df = dfs[n - 1]
        return [
            counts.get(gram, 0) * math.log(size / (1.0 + df.get(gram, 0)))
            for gram in per_order_vocab[n - 1]
        ]

    def cosine(a, b):
        dot = sum(x * y for x, y in zip(a, b))
        na = math.sqrt(sum(x * x for x in a))
        nb = math.sqrt(sum(y * y for y in b))
        if na == 0.0 or nb == 0.0:
            return 0.0
        return dot / (na * nb)

    scores = []
    for candidate, references in segments:
        order_means = []
        for n in range(1, 5):
            cand_vec = dense(candidate, n)
            sims = [cosine(cand_vec, dense(r, n)) for r in references]
            order_means.append(sum(sims) / len(sims))
        scores.append(10.0 * sum(order_means) / 4.0)
    return sum(scores) / len(scores), scores


def align_oracle(candidate, reference):
    """(matches, chunks): the most matches, then the fewest chunks, over
    every matching of candidate tokens to equal reference tokens.

    Each candidate position is matched to a free reference position with
    the same word, or left unmatched.  A branch is cut only when matching
    every remaining candidate token could not beat the best so far.
    """
    best = (0, 0)  # (matches, -chunks) of the best complete matching

    def walk(i, used, last, matches, chunks):
        nonlocal best
        if (matches + len(candidate) - i, -chunks) < best:
            return
        if i == len(candidate):
            best = (matches, -chunks)
            return
        for j, word in enumerate(reference):
            if word == candidate[i] and j not in used:
                joined = last == (i - 1, j - 1)
                walk(i + 1, used | {j}, (i, j), matches + 1, chunks + (not joined))
        walk(i + 1, used, last, matches, chunks)

    walk(0, frozenset(), None, 0, 0)
    return best[0], -best[1]


def meteor_segment_oracle(candidate, references):
    """METEOR stats against the first reference with the highest score:
    every reference aligned, in order, and kept only when strictly better."""
    best = None
    for reference in references:
        matches, chunks = align(candidate, reference)
        stats = MeteorStats(matches, chunks, len(candidate), len(reference))
        if best is None or stats.score > best.score:
            best = stats
    assert best is not None
    return best


def evaluate_oracle(segments):
    """The list-based report that held every segment and its n-gram counts
    to the end: corpus BLEU and CIDEr each loop over the whole list, and
    the document frequencies come from the cached reference counts.  Its
    float operations are the library's, so its report has the same bytes."""
    matches = [0] * 4
    totals = [0] * 4
    candidate_length = 0
    reference_length = 0
    for segment in segments:
        length = len(segment.candidate)
        candidate_length += length
        reference_length += _closest_reference_length(length, segment.references)
        for n, (match, total) in enumerate(_clipped_matches(segment)):
            matches[n] += match
            totals[n] += total
    precisions = [m / t if t else 0.0 for m, t in zip(matches, totals)]
    corpus_bleu = _bleu(precisions, candidate_length, reference_length)

    meteor_stats = [meteor_segment(s) for s in segments]

    corpus_size = len(segments)
    document_frequency = [Counter() for _ in range(4)]
    for segment in segments:
        for frequency, (_, references) in zip(document_frequency, segment.ngrams):
            frequency.update(set().union(*references))

    def vector(counts, frequency):
        return {
            gram: count * math.log(corpus_size / (1.0 + frequency[gram]))
            for gram, count in counts.items()
        }

    def cosine(a, b):
        norm_a = math.sqrt(math.fsum(v * v for v in a.values()))
        norm_b = math.sqrt(math.fsum(v * v for v in b.values()))
        if norm_a == 0.0 or norm_b == 0.0:
            return 0.0
        dot = math.fsum(v * b[g] for g, v in a.items() if g in b)
        return dot / (norm_a * norm_b)

    cider_per_segment = []
    for segment in segments:
        order_scores = []
        for frequency, (candidate, references) in zip(document_frequency, segment.ngrams):
            cand_vec = vector(candidate, frequency)
            sims = [cosine(cand_vec, vector(reference, frequency)) for reference in references]
            order_scores.append(math.fsum(sims) / len(sims))
        cider_per_segment.append(10.0 * math.fsum(order_scores) / 4)

    detail = tuple(
        SegmentScores(
            index=i,
            bleu4=sentence_bleu(s),
            meteor=meteor_stats[i].score,
            cider=cider_per_segment[i],
        )
        for i, s in enumerate(segments)
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
        bleu4=corpus_bleu.score,
        # its own field sums, not the library's fold
        meteor=MeteorStats(*(sum(field) for field in zip(*meteor_stats))).score,
        cider=math.fsum(cider_per_segment) / len(cider_per_segment),
        segments=detail,
        metadata=metadata,
    )


def iter_sentence_texts(path, mode, corpus_name=None, guards=DEFAULT_GUARDS):
    """(sentence id, text) of every sentence, each document split once:
    the sentences that raw-text build-pairs builds, in its order."""
    name = corpus_name if corpus_name is not None else Path(path).stem
    for doc_index, document in iter_documents(path, mode):
        for sent_index, sentence in enumerate(split_sentences(document, guards)):
            yield make_sentence_id(name, doc_index, sent_index), sentence


def nsp_pool_oracle(documents, cap, rng):
    """build-nsp's distractor pool and its index by document, from a
    reservoir of ``(doc_index, text)`` tuples and a stable sort of the pool
    positions keyed by their document.  Returns the pool texts, each
    sorted position's document, and the sorted positions."""
    pool = []
    items = ((doc_index, text) for doc_index, texts in enumerate(documents) for text in texts)
    for seen, item in enumerate(items, 1):
        if seen <= cap:
            pool.append(item)
        else:
            slot = rng.randrange(seen)
            if slot < cap:
                pool[slot] = item
    order = sorted(range(len(pool)), key=lambda position: pool[position][0])
    return [text for _, text in pool], [pool[position][0] for position in order], order


def assign_splits_oracle(n, ratios, seed):
    """The split index per position from a shuffled list, cut by split_counts."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    assignment = [0] * n
    at = 0
    for split_index, size in enumerate(split_counts(n, ratios).values()):
        for position in order[at:at + size]:
            assignment[position] = split_index
        at += size
    return assignment


# The character-index loops that split_sentences and tokenize replaced,
# kept as written apart from their names.

_TERMINATORS = ".!?"
_DETACH = ".,!?;:"


def _guarded(text, dot, guards):
    start = dot
    while start > 0 and not text[start - 1].isspace():
        start -= 1
    word = text[start:dot + 1].lstrip("([{'\"")
    return word.lower() in guards


def split_sentences_oracle(text, guards=DEFAULT_GUARDS):
    """Sentences by a scan of each character of the text."""
    guard_set = frozenset(g.lower() for g in guards)
    sentences = []
    begin = 0
    i = 0
    n = len(text)
    while i < n:
        if text[i] in _TERMINATORS:
            # absorb a run like "?!" or "..."
            while i + 1 < n and text[i + 1] in _TERMINATORS:
                i += 1
            j = i + 1
            while j < n and text[j] in (" ", "\t"):
                j += 1
            at_eol = j >= n or text[j] == "\n"
            capital_next = j > i + 1 and j < n and text[j].isupper()
            if (at_eol or capital_next) and not _guarded(text, i, guard_set):
                chunk = text[begin:i + 1].strip()
                if chunk:
                    sentences.append(chunk)
                begin = i + 1
        i += 1
    tail = text[begin:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def tokenize_oracle(sentence):
    """Tokens by popping trailing punctuation one character at a time."""
    tokens = []
    for chunk in sentence.split():
        detached = []
        while len(chunk) > 1 and chunk[-1] in _DETACH:
            detached.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.append(chunk)
        tokens.extend(reversed(detached))
    return tokens
