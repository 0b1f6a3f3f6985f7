"""Reader for Penn-Treebank-style bracketed constituency trees.

Input is the usual one-tree-per-line bracketed format, e.g.

    (S (NP (PRP She)) (VP (VBZ naps)) (. .))

Labels are normalized to their base category (``NP-SBJ`` and ``NP-1``
both become ``NP``); an outer ``(ROOT ...)`` or ``(TOP ...)`` wrapper is
dropped.  Escaped brackets such as ``-LRB-`` are kept verbatim, both as
labels and as tokens.  Malformed input raises a TreebankError subclass
rather than crashing, so the parser can be pointed at untrusted text.

A parsed tree is a span table, not a node graph: its tokens plus one
``(label, start, end)`` row per constituent, in pre-order.  That is all
phrase extraction and the builders read, so parsing builds no node
objects.
"""

from __future__ import annotations

import functools
from typing import Iterator, NamedTuple

from .corpus import text_lines


class TreebankError(ValueError):
    """Base class for bracketed-tree parse failures."""


class UnbalancedBrackets(TreebankError):
    """Bracket structure violates the one-tree grammar."""


class EmptyConstituent(TreebankError):
    """A labeled node has no children and no token."""


class MalformedLabel(TreebankError):
    """A constituent is missing its label."""


_WRAPPER_LABELS = ("ROOT", "TOP")

Span = tuple[str, int, int]  # label, start, end


class ConstituencyTree(NamedTuple):
    """One parsed sentence: its tokens and its constituents' span table.

    ``spans`` has one ``(label, start, end)`` row per constituent, leaves
    included, in pre-order: a parent comes before its children and
    siblings come left to right.  ``start``/``end`` are a half-open token
    range and every constituent covers at least one token, so a row's
    subtree is the block of rows right after it that start before its
    end, and a row is a leaf exactly when the next row does not.
    """

    tokens: tuple[str, ...]
    spans: tuple[Span, ...]


def normalize_label(label: str) -> str:
    """Strip functional tags and indices: NP-SBJ -> NP, NP=2 -> NP.

    Labels that themselves start with ``-`` (-NONE-, -LRB-, ...) are
    left alone.
    """
    if label.startswith("-"):
        return label
    return label.split("-", 1)[0].split("=", 1)[0]


# a treebank has a few hundred distinct raw labels; the cap bounds the
# memo on untrusted input
_base_label = functools.lru_cache(maxsize=1024)(normalize_label)

# what an open bracket has held so far; the state at its close decides
# between a leaf, an internal node and each error
_OPENED = 0  # nothing
_LABELED = 1  # a label
_LEAF = 2  # a label and one token
_INNER = 3  # a label and bracketed children only
_BARE = 4  # a label and a token next to some other item
_UNLABELED = 5  # a bracketed child where the label belongs


def parse_ptb(text: str) -> ConstituencyTree:
    """Parse one bracketed tree.

    Raises UnbalancedBrackets, MalformedLabel, or EmptyConstituent on
    malformed input; never anything else.  The parser is iterative, so
    pathologically deep input cannot blow the interpreter stack.
    """
    rows: list[list] = []  # [label, start, end] per open bracket, in pre-order
    tokens: list[str] = []
    enclosing: list[tuple[list, int, str | None]] = []  # (row, state, token)
    row: list | None = None  # the innermost open bracket's row; None at top level
    state = _OPENED
    token: str | None = None  # the first atom after the label
    trees = 0  # brackets opened at top level
    stray = False  # an atom at top level
    # padding the brackets with spaces lexes them apart from the atoms
    for piece in text.replace("(", " ( ").replace(")", " ) ").split():
        if piece == "(":
            if row is None:
                trees += 1
            else:
                if state == _LABELED:
                    state = _INNER
                elif state == _OPENED:
                    state = _UNLABELED
                elif state == _LEAF:
                    state = _BARE
                enclosing.append((row, state, token))
            row = [None, len(tokens), 0]
            rows.append(row)
            state = _OPENED
            token = None
        elif piece == ")":
            if row is None:
                raise UnbalancedBrackets("close bracket without matching open")
            if state == _LEAF:
                row[2] = len(tokens) + 1
                tokens.append(token)  # type: ignore[arg-type]
            elif state == _INNER:
                row[2] = len(tokens)
            elif state == _LABELED:
                raise EmptyConstituent(f"({row[0]}) has no children and no token")
            elif state == _BARE:
                raise UnbalancedBrackets(
                    f"bare token {token!r} where a bracketed child was expected"
                )
            else:
                raise MalformedLabel("constituent is missing its label")
            if enclosing:
                row, state, token = enclosing.pop()
            else:
                row = None
        elif row is None:
            stray = True
        elif state == _OPENED:
            row[0] = _base_label(piece)
            state = _LABELED
        elif state == _LABELED:
            state = _LEAF
            token = piece
        elif state == _LEAF:
            state = _BARE
        elif state == _INNER:
            state = _BARE
            token = piece
    if row is not None or trees != 1 or stray:
        raise UnbalancedBrackets("input is not a single well-formed tree")
    # the wrapper goes only when it is internal with one child, which
    # then ends where it ends
    if len(rows) > 1 and rows[0][0] in _WRAPPER_LABELS and rows[1][2] == rows[0][2]:
        del rows[0]
    return ConstituencyTree(tuple(tokens), tuple([tuple(row) for row in rows]))


def iter_tree_lines(path) -> Iterator[tuple[int, str]]:
    """(line_index, line) of each non-blank line of a treebank file, unparsed."""
    for index, line in enumerate(text_lines(path)):
        if line.strip():
            yield index, line


def parse_tree_line(line_index: int, line: str) -> ConstituencyTree:
    """Parse the treebank line at 0-based line_index.

    A parse error keeps its type and gains a ``line N:`` prefix, N
    counted from 1.
    """
    try:
        return parse_ptb(line)
    except TreebankError as exc:
        raise type(exc)(f"line {line_index + 1}: {exc}") from None


def read_treebank(path) -> Iterator[tuple[int, ConstituencyTree]]:
    """Yield (line_index, tree) for each non-blank line of a treebank file."""
    for index, line in iter_tree_lines(path):
        yield index, parse_tree_line(index, line)
