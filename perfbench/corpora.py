"""Seeded synthetic corpora for the benchmark workloads.

Every generator takes a ``random.Random`` and returns text plus the
properties the benchmark records beside its results.  The same seed
always gives the same bytes.  Shapes that drive cost (tree template,
segment length, vocabulary half) are drawn from fixed, shuffled
quotas rather than independently, so that the total work of an input
varies little from one seed to the next.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# ------------------------------------------------------------- lexicon

DETS = ("the", "a", "this", "that", "every", "some", "each", "no")
NOUNS = (
    "dog", "report", "market", "bank", "committee", "trader", "price", "share",
    "company", "analyst", "plan", "meeting", "budget", "office", "manager",
    "client", "contract", "deal", "quarter", "investor", "bond", "rate",
    "loan", "factory", "worker", "union", "court", "judge", "law", "city",
    "river", "bridge", "school", "teacher", "student", "book", "paper",
    "letter", "phone", "car", "road", "train", "station", "house", "garden",
    "window", "table", "chair", "computer", "network", "system", "product",
)
ADJS = (
    "big", "small", "new", "old", "early", "late", "strong", "weak", "quiet",
    "busy", "local", "federal", "major", "minor", "quick", "careful", "red",
    "long", "short", "annual", "final", "public", "private", "recent",
)
PRONOUNS = ("he", "she", "it", "they", "we", "you")
NAMES = ("Dana", "Lee", "Sam", "Alex", "Jordan", "Morgan", "Riley", "Casey", "Pat", "Robin")
TRANSITIVE = (
    "saw", "bought", "sold", "signed", "reviewed", "approved", "rejected",
    "built", "found", "moved", "sent", "read", "wrote", "opened", "closed",
    "raised", "cut", "delayed", "announced", "discussed",
)
INTRANSITIVE = ("slept", "waited", "left", "arrived", "agreed", "fell", "rose", "smiled")
CONTROL = ("wants", "plans", "hopes", "tries", "expects", "decided", "agreed")
BARE = ("eat", "buy", "sell", "sign", "review", "approve", "build", "find", "move", "send")
SAYING = ("said", "argued", "reported", "noted", "claimed", "announced")
MODALS = ("will", "could", "should", "might", "must")
PREPS = ("of", "in", "on", "at", "near", "with", "for", "from", "under", "after")
PP_TAGS = ("PP", "PP-LOC", "PP-TMP", "PP-DIR", "PP-CLR")
ADVERBS = ("quickly", "quietly", "yesterday", "again", "later", "often")

# maximum NP -> PP -> NP recursion below one object NP
NP_PP_DEPTH = 2


class _TreeMaker:
    """Builds one tree as nested tuples, counting tokens and phrasal nodes."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.constituents = 0
        self.tokens = 0
        self.trace_index = 0

    def leaf(self, tag: str, word: str) -> tuple:
        self.tokens += 1
        return (tag, word)

    def node(self, label: str, *children: tuple) -> tuple:
        self.constituents += 1
        return (label, list(children))

    def base_np(self, label: str = "NP") -> tuple:
        rng = self.rng
        kids = [self.leaf("DT", rng.choice(DETS))]
        for _ in range(rng.choice((0, 0, 1, 2))):
            kids.append(self.leaf("JJ", rng.choice(ADJS)))
        kids.append(self.leaf("NN", rng.choice(NOUNS)))
        return self.node(label, *kids)

    def object_np(self, depth: int = 0) -> tuple:
        """NP, sometimes with PP attachments recursing to NP_PP_DEPTH."""
        if depth < NP_PP_DEPTH and self.rng.random() < 0.45:
            pp = self.pp(depth + 1)
            return self.node("NP", self.base_np(), pp)
        return self.base_np()

    def pp(self, depth: int = 0) -> tuple:
        rng = self.rng
        return self.node(
            rng.choice(PP_TAGS), self.leaf("IN", rng.choice(PREPS)), self.object_np(depth)
        )

    def subject(self) -> tuple:
        rng = self.rng
        roll = rng.random()
        if roll < 0.3:
            self.trace_index += 1
            tag = f"NP-SBJ-{self.trace_index}"
            return self.node(tag, self.leaf("PRP", rng.choice(PRONOUNS)))
        if roll < 0.45:
            return self.node("NP-SBJ", self.leaf("NNP", rng.choice(NAMES)))
        return self.base_np("NP-SBJ")

    def trace_subject(self) -> tuple:
        index = max(self.trace_index, 1)
        return self.node("NP-SBJ", self.leaf("-NONE-", f"*-{index}"))

    def vp(self, depth: int) -> tuple:
        """Verb phrase; control, modal and saying verbs nest further VPs."""
        rng = self.rng
        roll = rng.random()
        if depth < 2 and roll < 0.2:
            # wants to eat the pie: VP > S > VP > VP, with a trace subject
            inner = self.node(
                "VP", self.leaf("VB", rng.choice(BARE)), self.object_np()
            )
            to_vp = self.node("VP", self.leaf("TO", "to"), inner)
            clause = self.node("S", self.trace_subject(), to_vp)
            return self.node("VP", self.leaf("VBZ", rng.choice(CONTROL)), clause)
        if depth < 2 and roll < 0.35:
            inner = self.node(
                "VP", self.leaf("VB", rng.choice(BARE)), self.object_np(), self.pp()
            )
            return self.node("VP", self.leaf("MD", rng.choice(MODALS)), inner)
        if depth < 1 and roll < 0.5:
            clause = self.node("S", self.subject(), self.vp(depth + 1))
            sbar = self.node("SBAR", self.leaf("IN", "that"), clause)
            return self.node("VP", self.leaf("VBD", rng.choice(SAYING)), sbar)
        kids = [self.leaf("VBD", rng.choice(TRANSITIVE)), self.object_np()]
        if rng.random() < 0.5:
            kids.append(self.pp())
        if rng.random() < 0.2:
            kids.append(self.node("ADVP-TMP", self.leaf("RB", rng.choice(ADVERBS))))
        return self.node("VP", *kids)

    def sentence(self) -> tuple:
        kids = []
        if self.rng.random() < 0.25:
            kids += [self.pp(), self.leaf(",", ",")]
        kids += [self.subject(), self.vp(0), self.leaf(".", ".")]
        return self.node("ROOT", self.node("S", *kids))

    def skip_sentence(self) -> tuple:
        """One NP and one VP, no PP: no phrase group reaches size 2."""
        rng = self.rng
        subject = self.subject() if rng.random() < 0.5 else self.base_np("NP-SBJ")
        vp = self.node("VP", self.leaf("VBD", rng.choice(INTRANSITIVE)))
        return self.node("ROOT", self.node("S", subject, vp, self.leaf(".", ".")))


def _render(tree: tuple) -> tuple[str, int]:
    """Bracketed text and depth, iteratively (constituents only)."""
    out: list[str] = []
    depth = 0
    stack: list[tuple[object, int]] = [(tree, 1)]
    while stack:
        item, level = stack.pop()
        if item == ")":
            out.append(")")
            continue
        label, body = item  # type: ignore[misc]
        if isinstance(body, str):
            out.append(f"({label} {body})")
            continue
        depth = max(depth, level)
        out.append(f"({label}")
        stack.append((")", level))
        for child in reversed(body):
            stack.append((child, level + 1))
    text: list[str] = []
    for piece in out:
        if text and piece != ")":
            text.append(" ")
        text.append(piece)
    return "".join(text), depth


@dataclass(frozen=True)
class Treebank:
    text: str
    token_counts: tuple[int, ...]
    properties: dict


def make_treebank(rng: random.Random, trees: int, skip_share: float) -> Treebank:
    """PTB-shaped trees, one per line; ``skip_share`` of them cannot
    form a phrase group of two and must be skipped by build-npp."""
    skips = round(trees * skip_share)
    kinds = [True] * skips + [False] * (trees - skips)
    rng.shuffle(kinds)
    lines = []
    token_counts = []
    constituents = 0
    depth_total = 0
    for is_skip in kinds:
        maker = _TreeMaker(rng)
        tree = maker.skip_sentence() if is_skip else maker.sentence()
        text, depth = _render(tree)
        lines.append(text)
        token_counts.append(maker.tokens)
        constituents += maker.constituents
        depth_total += depth
    text = "\n".join(lines) + "\n"
    return Treebank(
        text=text,
        token_counts=tuple(token_counts),
        properties={
            "records": trees,
            "input_bytes": len(text.encode("utf-8")),
            "mean_constituents_per_tree": constituents / trees,
            "mean_depth_per_tree": depth_total / trees,
            "mean_tokens_per_tree": sum(token_counts) / trees,
            "skip_share_target": skip_share,
        },
    )


# ---------------------------------------------------------------- email

BOILERPLATE = (
    "Thanks.",
    "Best regards.",
    "Thank you.",
    "Let me know if you have any questions.",
    "Sent from my phone.",
    "Hope you are well.",
)

_EMAIL_TEMPLATES = (
    "Can we move the {n} review to {day}?",
    "I will send the {adj} {n} by {day}.",
    "The {n} from {name} looks {adj} to me.",
    "Please ask Dr. {name} about the {n}.",
    "We need a {adj} {n} before the {n2} meeting.",
    "{name} said the {n} is {adj} again.",
    "Could you check the {n} numbers, e.g. the {adj} ones?",
    "The {adj} {n} arrived on {day} with the {n2}.",
    "Did {name} approve the {n} yet?",
    "Our {n} team will meet {name} on {day}!",
)
DAYS = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday")


@dataclass(frozen=True)
class EmailCorpus:
    text: str
    properties: dict


def make_emails(
    rng: random.Random, documents: int, sentences_per_doc: tuple[int, int], boilerplate_share: float
) -> EmailCorpus:
    """One email per line; a fixed share of its sentences are sign-offs
    shared across the whole corpus."""
    low, high = sentences_per_doc
    lengths = [low + i % (high - low + 1) for i in range(documents)]
    rng.shuffle(lengths)
    total = sum(lengths)
    boiler = round(total * boilerplate_share)
    kinds = [True] * boiler + [False] * (total - boiler)
    rng.shuffle(kinds)
    lines = []
    at = 0
    for length in lengths:
        parts = []
        for is_boiler in kinds[at:at + length]:
            if is_boiler:
                parts.append(rng.choice(BOILERPLATE))
            else:
                parts.append(
                    rng.choice(_EMAIL_TEMPLATES).format(
                        n=rng.choice(NOUNS),
                        n2=rng.choice(NOUNS),
                        adj=rng.choice(ADJS),
                        name=rng.choice(NAMES),
                        day=rng.choice(DAYS),
                    )
                )
        at += length
        lines.append(f"Hi {rng.choice(NAMES)}, " + " ".join(parts))
    text = "\n".join(lines) + "\n"
    return EmailCorpus(
        text=text,
        properties={
            "records": documents,
            "input_bytes": len(text.encode("utf-8")),
            "sentences": total,
            "contexts": total - documents,
            "boilerplate_share": boiler / total,
        },
    )


# ----------------------------------------------------------- evaluation

_SYLLABLES = tuple(c + v for c in "bdfgklmnprstvz" for v in "aeiou")
# 70^2 two-syllable words, a vocabulary large enough that no word repeats
LARGE_VOCAB = tuple(a + b for a in _SYLLABLES for b in _SYLLABLES)
SMALL_VOCAB = ("the", "cat", "sat", "on", "mat", "and", "a", "dog")


@dataclass(frozen=True)
class EvalCorpus:
    candidates: str
    references: str
    properties: dict


def is_forced(candidate: list[str], reference: list[str]) -> bool:
    """True when every shared word occurs once on each side, so the
    unigram alignment has exactly one choice."""
    shared = set(candidate) & set(reference)
    return all(candidate.count(w) == 1 and reference.count(w) == 1 for w in shared)


def _perturb(rng: random.Random, tokens: list[str], vocab: tuple[str, ...], distinct: bool) -> list[str]:
    """A reference: substitute ~30% of words, then swap one neighbour pair."""
    out = list(tokens)
    used = set(out)
    for i in range(len(out)):
        if rng.random() < 0.3:
            word = rng.choice(vocab)
            while distinct and word in used:
                word = rng.choice(vocab)
            used.add(word)
            out[i] = word
    if len(out) > 2:
        i = rng.randrange(len(out) - 1)
        out[i], out[i + 1] = out[i + 1], out[i]
    if rng.random() < 0.5:
        out = out[:-1] if rng.random() < 0.5 else out + [rng.choice(vocab)]
        while distinct and len(set(out)) != len(out):
            out[-1] = rng.choice(vocab)
    return out


def make_eval(
    rng: random.Random, segments: int, references: int, lengths: tuple[int, int]
) -> EvalCorpus:
    """Half the segments repeat words from a tiny vocabulary, so METEOR
    alignment must search; the other half never repeat a word, so every
    alignment is forced."""
    low, high = lengths
    plan = [(i % 2 == 0, low + (i // 2) % (high - low + 1)) for i in range(segments)]
    rng.shuffle(plan)
    cand_lines = []
    ref_lines = []
    forced = 0
    for small, length in plan:
        if small:
            candidate = [rng.choice(SMALL_VOCAB) for _ in range(length)]
            refs = [_perturb(rng, candidate, SMALL_VOCAB, False) for _ in range(references)]
        else:
            candidate = rng.sample(LARGE_VOCAB, length)
            refs = [_perturb(rng, candidate, LARGE_VOCAB, True) for _ in range(references)]
        forced += all(is_forced(candidate, ref) for ref in refs)
        cand_lines.append(" ".join(candidate))
        ref_lines.append("\t".join(" ".join(ref) for ref in refs))
    candidates = "\n".join(cand_lines) + "\n"
    refs_text = "\n".join(ref_lines) + "\n"
    return EvalCorpus(
        candidates=candidates,
        references=refs_text,
        properties={
            "records": segments,
            "input_bytes": len(candidates.encode("utf-8")) + len(refs_text.encode("utf-8")),
            "references_per_segment": references,
            "reference_total": segments * references,
            "forced_share": forced / segments,
        },
    )
