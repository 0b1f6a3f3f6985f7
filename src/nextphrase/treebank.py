"""Reader for Penn-Treebank-style bracketed constituency trees.

Input is the usual one-tree-per-line bracketed format, e.g.

    (S (NP (PRP She)) (VP (VBZ naps)) (. .))

Labels are normalized to their base category (``NP-SBJ`` and ``NP-1``
both become ``NP``); an outer ``(ROOT ...)`` or ``(TOP ...)`` wrapper is
dropped.  Escaped brackets such as ``-LRB-`` are kept verbatim, both as
labels and as tokens.  Malformed input raises a TreebankError subclass
rather than crashing, so the parser can be pointed at untrusted text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator


class TreebankError(ValueError):
    """Base class for bracketed-tree parse failures."""


class UnbalancedBrackets(TreebankError):
    """Bracket structure violates the one-tree grammar."""


class EmptyConstituent(TreebankError):
    """A labeled node has no children and no token."""


class MalformedLabel(TreebankError):
    """A constituent is missing its label."""


_LEXER = re.compile(r"\(|\)|[^()\s]+")

_WRAPPER_LABELS = ("ROOT", "TOP")


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
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)

    @property
    def is_leaf(self) -> bool:
        return self.token is not None


@dataclass(frozen=True)
class ConstituencyTree:
    root: Node
    tokens: tuple[str, ...]


def normalize_label(label: str) -> str:
    """Strip functional tags and indices: NP-SBJ -> NP, NP=2 -> NP.

    Labels that themselves start with ``-`` (-NONE-, -LRB-, ...) are
    left alone.
    """
    if label.startswith("-"):
        return label
    return label.split("-", 1)[0].split("=", 1)[0]


def parse_ptb(text: str) -> ConstituencyTree:
    """Parse one bracketed tree.

    Raises UnbalancedBrackets, MalformedLabel, or EmptyConstituent on
    malformed input; never anything else.  The parser is iterative, so
    pathologically deep input cannot blow the interpreter stack.
    """
    pieces = _LEXER.findall(text)
    # stack holds None for an open bracket, str for a bare atom, and
    # Node for a finished constituent
    stack: list[object] = []
    tokens: list[str] = []
    for piece in pieces:
        if piece == "(":
            stack.append(None)
            continue
        if piece != ")":
            stack.append(piece)
            continue
        contents: list[object] = []
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
            kids = tuple(rest)  # type: ignore[arg-type]
            node = Node(label, kids, None, kids[0].start, kids[-1].end)
        stack.append(node)
    if len(stack) != 1 or not isinstance(stack[0], Node):
        raise UnbalancedBrackets("input is not a single well-formed tree")
    root = stack[0]
    if root.label in _WRAPPER_LABELS and len(root.children) == 1:
        root = root.children[0]
    return ConstituencyTree(root, tuple(tokens))


def yield_tokens(node: Node) -> list[str]:
    """Leaf tokens in sentence order."""
    out: list[str] = []
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur.is_leaf:
            out.append(cur.token)  # type: ignore[arg-type]
        else:
            stack.extend(reversed(cur.children))
    return out


def iter_nodes(node: Node) -> Iterator[Node]:
    """Pre-order (document order) traversal."""
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        stack.extend(reversed(cur.children))


def nodes_with_label(tree: ConstituencyTree, label: str) -> list[Node]:
    """All nodes carrying the given base label, in document order."""
    return [n for n in iter_nodes(tree.root) if n.label == label]


def to_bracketed(node: Node) -> str:
    """Canonical single-space bracketed form, re-parsable by parse_ptb."""
    out: list[str] = []
    close = ")"
    stack: list[object] = [node]
    while stack:
        item = stack.pop()
        if item is close:
            out.append(close)
            continue
        assert isinstance(item, Node)
        if item.is_leaf:
            out.append(f"({item.label} {item.token})")
        else:
            out.append(f"({item.label}")
            stack.append(close)
            stack.extend(reversed(item.children))
    text: list[str] = []
    for piece in out:
        if text and piece != close:
            text.append(" ")
        text.append(piece)
    return "".join(text)


def serialize_tree(tree: ConstituencyTree) -> str:
    return to_bracketed(tree.root)


def read_treebank(path) -> Iterator[tuple[int, ConstituencyTree]]:
    """Yield (line_index, tree) for each non-blank line of a treebank file."""
    with open(path, encoding="utf-8") as handle:
        for index, line in enumerate(handle):
            if not line.strip():
                continue
            try:
                yield index, parse_ptb(line)
            except TreebankError as exc:
                raise type(exc)(f"line {index + 1}: {exc}") from None
