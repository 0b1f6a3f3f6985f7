"""Parser for Penn-Treebank-style bracketed constituency trees.

Input is the usual one-tree-per-line bracketed format, e.g.

    (S (NP (PRP She)) (VP (VBZ naps)) (. .))

whose lines ``corpus.read_items`` reads, as it reads every input.
Labels are normalized to their base category (``NP-SBJ`` and ``NP-1``
both become ``NP``); an outer ``(ROOT ...)`` or ``(TOP ...)`` wrapper is
dropped.  Escaped brackets such as ``-LRB-`` are kept verbatim, both as
labels and as tokens.  Malformed input raises a TreebankError subclass
rather than crashing, so the parser can be pointed at untrusted text.

A parsed tree is a span table, not a node graph: its tokens plus one
``(label, start, end)`` row per constituent, in pre-order.  That is all
phrase extraction and the builders read, so parsing builds no node
objects.  A caller that reads only the tokens, as ``build-pairs`` does,
parses with ``spans=False``: the same grammar checks the text and raises
the same errors, and no span table is built.
"""

from __future__ import annotations

import functools
from typing import Iterator, NamedTuple

from .corpus import read_items


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
    end, and a row is a leaf exactly when the next row does not.  A tree
    parsed with ``spans=False`` has an empty ``spans``.
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


def parse_ptb(text: str, spans: bool = True) -> ConstituencyTree:
    """Parse one bracketed tree.

    Raises UnbalancedBrackets, MalformedLabel, or EmptyConstituent on
    malformed input; never anything else.  The parser is iterative, so
    pathologically deep input cannot blow the interpreter stack.  With
    ``spans=False`` it checks the text with the same grammar and raises
    the same errors, but builds no span table: the tree's ``spans`` is
    empty.
    """
    rows: list[list] = []  # [label as read, start, end] per open bracket, in pre-order
    tokens: list[str] = []
    # (row, state, token) of each open bracket's parent, row None at top level
    enclosing: list[tuple[list | None, int, str | None]] = []
    row: list | None = None  # the innermost open bracket's row; None at top level
    # without spans every bracket writes into this one row: at an empty
    # constituent's close its label is the last one read, which the
    # error names
    shared = [None, 0, 0]
    state = _OPENED
    token: str | None = None  # the first atom after the label
    trees = 0  # brackets opened at top level
    stray = False  # an atom at top level
    # padding the brackets with spaces lexes them apart from the atoms
    for piece in text.replace("(", " ( ").replace(")", " ) ").split():
        if piece == "(":
            if row is None:
                trees += 1
            elif state == _LABELED:
                state = _INNER
            elif state == _OPENED:
                state = _UNLABELED
            elif state == _LEAF:
                state = _BARE
            enclosing.append((row, state, token))
            if spans:
                row = [None, len(tokens), 0]
                rows.append(row)
            else:
                row = shared
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
                raise EmptyConstituent(f"({_base_label(row[0])}) has no children and no token")
            elif state == _BARE:
                raise UnbalancedBrackets(
                    f"bare token {token!r} where a bracketed child was expected"
                )
            else:
                raise MalformedLabel("constituent is missing its label")
            row, state, token = enclosing.pop()
        elif row is None:
            stray = True
        elif state == _OPENED:
            row[0] = piece
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
    if len(rows) > 1 and rows[1][2] == rows[0][2] and _base_label(rows[0][0]) in _WRAPPER_LABELS:
        del rows[0]
    # labels are normalized here, once per row, so a parse without spans
    # normalizes none
    table = tuple([(_base_label(label), start, end) for label, start, end in rows])
    return ConstituencyTree(tuple(tokens), table)


def parse_tree_line(line_index: int, line: str, spans: bool = True) -> ConstituencyTree:
    """Parse the treebank line at 0-based line_index, with or without its
    span table, as parse_ptb does.

    A parse error keeps its type and gains a ``line N:`` prefix, N
    counted from 1.
    """
    try:
        return parse_ptb(line, spans)
    except TreebankError as exc:
        raise type(exc)(f"line {line_index + 1}: {exc}") from None


def read_treebank(path) -> Iterator[tuple[int, ConstituencyTree]]:
    """Yield (line_index, tree) for each non-blank line of a treebank file,
    read as every command reads one (``corpus.read_items``)."""
    for _, (index, line) in read_items(path, "treebank"):
        yield index, parse_tree_line(index, line)
