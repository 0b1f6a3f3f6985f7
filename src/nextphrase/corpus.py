"""Plain-text corpus handling: sentence split, tokenize, split into sets.

The sentence splitter is rule-based: a sentence ends at ``.``, ``!`` or
``?`` when followed by whitespace and a capital letter, or by the end
of a line, unless the word containing the terminator is on the
abbreviation guard list.  The tokenizer splits on whitespace and then
detaches trailing ``. , ! ? ; :`` characters into their own tokens.
Both are deliberately simple so that runs are reproducible; swap the
guard list via a config file when the domain needs it.
"""

from __future__ import annotations

import functools
import random
from pathlib import Path
from typing import Iterator, Mapping, Sequence

DEFAULT_GUARDS = (
    "e.g.", "i.e.", "etc.", "cf.", "vs.", "al.", "ca.",
    "Dr.", "Mr.", "Mrs.", "Ms.", "Prof.", "St.",
    "Fig.", "Figs.", "Eq.", "Eqs.", "Sec.", "Ref.", "Refs.",
    "No.", "Vol.", "pp.",
)

_TERMINATORS = ".!?"
_DETACH = ".,!?;:"

SPLIT_NAMES = ("train", "dev", "test")


class RatioSumInvalid(ValueError):
    """Split ratios are not all positive or do not sum to 1."""


class NotUtf8(ValueError):
    """An input file has a line that is not UTF-8."""


def _not_utf8(path) -> NotUtf8:
    """The error of a file that failed to decode, naming its first line
    that is not UTF-8: only this error path reads the file again, as
    bytes, to find it."""
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return NotUtf8(
                    f"{path}: line {number} is not UTF-8 (byte {exc.start + 1}: {exc.reason})"
                )
    return NotUtf8(f"{path}: not UTF-8")


def read_text(path) -> str:
    """The text of a UTF-8 file; a line that is not UTF-8 raises NotUtf8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def text_lines(path) -> Iterator[str]:
    """The lines of a UTF-8 file, each with its newline; text mode maps
    \\r\\n and \\r to \\n.  A line that is not UTF-8 raises NotUtf8."""
    with open(path, encoding="utf-8") as handle:
        try:
            yield from handle
        except UnicodeDecodeError:
            raise _not_utf8(path) from None


def load_guard_list(path) -> tuple[str, ...]:
    """Read one guard per line; blank lines and # comments are skipped."""
    guards = []
    for line in read_text(path).splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            guards.append(line)
    return tuple(guards)


def _guarded(text: str, dot: int, guards: frozenset[str]) -> bool:
    start = dot
    while start > 0 and not text[start - 1].isspace():
        start -= 1
    word = text[start:dot + 1].lstrip("([{'\"")
    return word.lower() in guards


@functools.lru_cache(maxsize=8)
def _guard_set(guards: tuple[str, ...]) -> frozenset[str]:
    return frozenset(g.lower() for g in guards)


def split_sentences(text: str, guards: Sequence[str] = DEFAULT_GUARDS) -> list[str]:
    """Deterministic rule-based sentence segmentation."""
    guard_set = _guard_set(tuple(guards))
    sentences: list[str] = []
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


def tokenize(sentence: str) -> list[str]:
    """Whitespace tokens with trailing punctuation detached."""
    tokens: list[str] = []
    for chunk in sentence.split():
        detached: list[str] = []
        while len(chunk) > 1 and chunk[-1] in _DETACH:
            detached.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.append(chunk)
        tokens.extend(reversed(detached))
    return tokens


def detokenize(tokens: Sequence[str]) -> str:
    return " ".join(tokens)


def make_sentence_id(corpus: str, doc_index: int, sent_index: int) -> str:
    return f"{corpus}:{doc_index:06d}:{sent_index:04d}"


def iter_documents(path, mode: str) -> Iterator[tuple[int, str]]:
    """Documents from a directory of .txt files or a one-per-line file."""
    root = Path(path)
    if mode == "dir":
        if not root.is_dir():
            raise FileNotFoundError(f"not a directory: {root}")
        for index, name in enumerate(sorted(root.glob("*.txt"))):
            yield index, read_text(name)
    elif mode == "lines":
        index = 0
        for line in text_lines(root):
            line = line.strip()
            if line:
                yield index, line
                index += 1
    else:
        raise ValueError(f"unknown input mode: {mode!r}")


def iter_sentence_texts(
    path,
    mode: str,
    corpus_name: str | None = None,
    guards: Sequence[str] = DEFAULT_GUARDS,
) -> Iterator[tuple[str, str]]:
    """(sentence id, text) of every sentence; each document is split once."""
    name = corpus_name if corpus_name is not None else Path(path).stem
    for doc_index, document in iter_documents(path, mode):
        for sent_index, sentence in enumerate(split_sentences(document, guards)):
            yield make_sentence_id(name, doc_index, sent_index), sentence


def split_counts(n: int, ratios: Sequence[float]) -> dict[str, int]:
    """Rows per split, in SPLIT_NAMES order, of n rows cut by ratios.

    Each split gets the floor of its share; the leftover rows go to train.
    """
    # written as negations so that NaN fails them too
    if any(not r > 0 for r in ratios):
        raise RatioSumInvalid(f"ratios must be positive, got {tuple(ratios)}")
    if not abs(sum(ratios) - 1.0) <= 1e-9:
        raise RatioSumInvalid(f"ratios sum to {sum(ratios)!r}, expected 1")
    sizes = [int(n * r) for r in ratios]
    sizes[0] += n - sum(sizes)
    return dict(zip(SPLIT_NAMES, sizes))


def assign_splits(n: int, ratios: Sequence[float], seed: int) -> bytearray:
    """Split index (0=train, 1=dev, 2=test) per record position.

    Positions 0..n-1 are shuffled with the seed, and the shuffled order
    is cut into one contiguous slice per split, sized by split_counts.
    The order is an ``array`` and the result a ``bytearray``, a few bytes
    per position where lists take a pointer and often an int object;
    ``random.shuffle`` makes the same draws on any mutable sequence.
    """
    from array import array  # an extension module; of the commands only build-pairs needs it

    sizes = split_counts(n, ratios).values()
    order = array("i", range(n))
    random.Random(seed).shuffle(order)
    assignment = bytearray(n)
    at = 0
    for split_index, size in enumerate(sizes):
        for position in order[at:at + size]:
            assignment[position] = split_index
        at += size
    return assignment


def format_stats_table(rows: Sequence[tuple[str, Mapping[str, int]]]) -> str:
    """Aligned table, one dataset per row, one column per split."""
    header = ["Dataset"] + [name.capitalize() for name in SPLIT_NAMES]
    body = [
        [name] + [str(counts.get(split, 0)) for split in SPLIT_NAMES]
        for name, counts in rows
    ]
    widths = [
        max(len(line[col]) for line in [header] + body)
        for col in range(len(header))
    ]
    lines = []
    for line in [header] + body:
        cells = [line[0].ljust(widths[0])]
        cells += [cell.rjust(width) for cell, width in zip(line[1:], widths[1:])]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)
