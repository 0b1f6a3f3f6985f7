"""Construction of training instances from parsed or plain sentences.

Three record kinds come out of this module:

* next-phrase instances: a sentence prefix plus a lettered list of
  candidate phrases, one of which really continues the prefix;
* next-sentence instances: same shape, but the choices are whole
  sentences and the context is the previous sentence of a document;
* completion pairs: every (prefix, remainder) cut of a sentence.

All random decisions flow through a caller-supplied Random so a
(global seed, sentence id) pair pins every record exactly.
"""

from __future__ import annotations

import bisect
import enum
import random
from typing import NamedTuple, Sequence

from .corpus import detokenize
from .phrases import PhraseGroups, eligible_groups
from .treebank import ConstituencyTree

# CPython's built-in SHA-256, as Lib/random.py takes its sha512: hashlib
# would load OpenSSL's libcrypto, about 3.5 MiB of a small run's peak RSS.
# Both give the same bytes.  The built-in hashes slower, which shows in
# the manifest digest of a large input; seeding a record costs the same.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

NPP_PREFIX = "generate next phrase:"
NSP_PREFIX = "generate next sentence:"

# literal backslash-n, the usual single-line separator of lettered QA
# encodings; a real newline would not survive line-oriented files
_SEPARATOR = " \\n "

# the choice letters: string.ascii_uppercase, without loading string
_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
MAX_CHOICES = len(_LETTERS)


class MoreChoicesThanLetters(ValueError):
    """The lettered template runs out at 26 options."""


class SkipReason(enum.Enum):
    NO_ELIGIBLE_GROUP = "no_eligible_group"
    ANSWER_AT_SENTENCE_START = "answer_at_sentence_start"
    POOL_TOO_SMALL = "pool_too_small"
    TOO_MANY_CHOICES = "too_many_choices"
    AMBIGUOUS_CHOICES = "ambiguous_choices"
    # build-pairs: fewer than two tokens, so no cut leaves both sides non-empty
    TOO_SHORT = "too_short"


class Skip(NamedTuple):
    reason: SkipReason


class NppInstance(NamedTuple):
    sentence_id: str
    phrase_type: str
    partial_query: tuple[str, ...]
    choices: tuple[str, ...]
    answer: str
    answer_index: int


class NspInstance(NamedTuple):
    sentence_id: str
    context: str
    choices: tuple[str, ...]
    answer: str
    answer_index: int


class CompletionPair(NamedTuple):
    sentence_id: str
    split_point: int
    p: tuple[str, ...]
    q: tuple[str, ...]


def record_rng(global_seed: int, sentence_id: str) -> random.Random:
    """Random stream for one record, stable across runs and workers."""
    digest = sha256(f"{global_seed}:{sentence_id}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _shuffled(items: Sequence, rng: random.Random) -> tuple[list, list[int]]:
    order = list(range(len(items)))
    rng.shuffle(order)
    return [items[i] for i in order], order


def build_npp_instance(
    tree: ConstituencyTree,
    groups: PhraseGroups,
    rng: random.Random,
    sentence_id: str = "",
    min_size: int = 2,
) -> NppInstance | Skip:
    """Pick a phrase group, an answer phrase, and a shuffled choice list.

    The answer may not start the sentence (the prefix would be empty),
    but sentence-initial phrases still appear among the choices.  A
    group with more phrases than the template has letters is skipped,
    and so is one in which two phrases have the same text, because it
    would list two equal choices.
    """
    eligible = eligible_groups(groups, min_size)
    if not eligible:
        return Skip(SkipReason.NO_ELIGIBLE_GROUP)
    phrase_type, spans = eligible[rng.randrange(len(eligible))]
    if len(spans) > MAX_CHOICES:
        return Skip(SkipReason.TOO_MANY_CHOICES)
    candidates = [s for s in spans if s.start != 0]
    if not candidates:
        return Skip(SkipReason.ANSWER_AT_SENTENCE_START)
    if len({s.text for s in spans}) < len(spans):
        return Skip(SkipReason.AMBIGUOUS_CHOICES)
    answer_span = candidates[rng.randrange(len(candidates))]
    shuffled, order = _shuffled(spans, rng)
    answer_index = order.index(spans.index(answer_span))
    return NppInstance(
        sentence_id=sentence_id,
        phrase_type=phrase_type,
        partial_query=tree.tokens[:answer_span.start],
        choices=tuple([s.text for s in shuffled]),
        answer=answer_span.text,
        answer_index=answer_index,
    )


def build_completion_pairs(
    tokens: Sequence[str], sentence_id: str = ""
) -> list[CompletionPair]:
    """All n-1 prefix/remainder cuts of a tokenized sentence."""
    return [
        CompletionPair(sentence_id, k, tuple(tokens[:k]), tuple(tokens[k:]))
        for k in range(1, len(tokens))
    ]


class PoolView(Sequence):
    """Read-only view of ``texts`` without the positions in ``skip``.

    ``skip`` must be sorted.  ``random.sample`` uses only ``len()`` and
    indexing, or iterates when it copies a small population, so it draws
    the same items from the view as from the filtered list.
    """

    __slots__ = ("_texts", "_shifts", "_len")

    def __init__(self, texts: Sequence[str], skip: Sequence[int]) -> None:
        self._texts = texts
        # lookup j steps over skip[m] exactly when skip[m] - m <= j
        self._shifts = [position - m for m, position in enumerate(skip)]
        self._len = len(texts) - len(skip)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index: int) -> str:
        if not 0 <= index < self._len:
            raise IndexError(index)
        return self._texts[index + bisect.bisect_right(self._shifts, index)]


def build_nsp_instance(
    sentences: Sequence[str],
    index: int,
    pool: Sequence[str],
    rng: random.Random,
    sentence_id: str = "",
    num_distractors: int = 1,
) -> NspInstance | Skip:
    """Choice task: which sentence follows sentences[index]?

    ``pool`` must hold sentences from other documents only; distractors
    are drawn from it without replacement.  A draw that repeats a text,
    the answer's or another distractor's, would list two equal choices,
    so it is skipped.
    """
    if index < 0 or index + 1 >= len(sentences):
        raise IndexError(f"no sentence follows index {index}")
    if num_distractors < 1:
        raise ValueError("need at least one distractor")
    if len(pool) < num_distractors:
        return Skip(SkipReason.POOL_TOO_SMALL)
    context = sentences[index]
    answer = sentences[index + 1]
    choices = [answer] + rng.sample(pool, num_distractors)
    if len(set(choices)) < len(choices):
        return Skip(SkipReason.AMBIGUOUS_CHOICES)
    shuffled, order = _shuffled(choices, rng)
    return NspInstance(
        sentence_id=sentence_id,
        context=context,
        choices=tuple(shuffled),
        answer=answer,
        answer_index=order.index(0),
    )


def render_prompt(prefix: str, query: str, choices: Sequence[str]) -> str:
    """``<prefix> <query> \\n (A) ... (B) ...`` with single spaces."""
    if len(choices) > MAX_CHOICES:
        raise MoreChoicesThanLetters(f"{len(choices)} choices exceed A-Z")
    lettered = " ".join(
        f"({letter}) {text}"
        for letter, text in zip(_LETTERS, choices)
    )
    return f"{prefix} {query}{_SEPARATOR}{lettered}"


def serialize_npp(instance: NppInstance) -> tuple[str, str]:
    """(prompt, target) pair for a next-phrase instance."""
    prompt = render_prompt(
        NPP_PREFIX, detokenize(instance.partial_query), instance.choices
    )
    return prompt, instance.answer


def serialize_nsp(instance: NspInstance) -> tuple[str, str]:
    prompt = render_prompt(NSP_PREFIX, instance.context, instance.choices)
    return prompt, instance.answer
