"""Extraction of the lowest NP, VP, and PP constituents from a tree.

Nested phrases of one type collapse to the innermost: a constituent is
kept only if no descendant carries the same label, which holds exactly
when the next row with its label in the tree's pre-order span table is
absent or starts at or after the constituent's end.  "She wants to eat
pie." therefore contributes a single VP, "eat pie", even though three
VP nodes sit above one another.
"""

from __future__ import annotations

from typing import NamedTuple

from .treebank import ConstituencyTree, Span

PHRASE_TYPES = ("NP", "VP", "PP")


class PhraseSpan(NamedTuple):
    phrase_type: str
    start: int
    end: int
    text: str

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)


class PhraseGroups(NamedTuple):
    np: tuple[PhraseSpan, ...]
    vp: tuple[PhraseSpan, ...]
    pp: tuple[PhraseSpan, ...]

    def items(self) -> list[tuple[str, tuple[PhraseSpan, ...]]]:
        return [("NP", self.np), ("VP", self.vp), ("PP", self.pp)]


def extract_phrases(tree: ConstituencyTree) -> PhraseGroups:
    """Collect phrases per type, innermost only, in document order."""
    found: dict[str, list[Span]] = {t: [] for t in PHRASE_TYPES}
    for row in tree.spans:
        if row[0] in found:
            found[row[0]].append(row)
    kept: dict[str, tuple[PhraseSpan, ...]] = {}
    for label, rows in found.items():
        # a subtree is the block right after its root in pre-order and
        # every constituent spans a token, so the next same-label row is
        # a descendant exactly when it starts before this row's end
        kept[label] = tuple([
            PhraseSpan(label, start, end, " ".join(tree.tokens[start:end]))
            for (_, start, end), after in zip(rows, rows[1:] + [None])
            if after is None or after[1] >= end
        ])
    return PhraseGroups(np=kept["NP"], vp=kept["VP"], pp=kept["PP"])


def eligible_groups(
    groups: PhraseGroups, min_size: int = 2
) -> list[tuple[str, tuple[PhraseSpan, ...]]]:
    """Phrase groups large enough to pose a choice task, NP/VP/PP order."""
    if min_size < 1:
        raise ValueError(f"min_size must be at least 1, got {min_size}")
    return [(kind, spans) for kind, spans in groups.items() if len(spans) >= min_size]
