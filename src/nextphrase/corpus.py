"""Corpus handling: reading every input, sentence split, tokenize, split into sets.

Every command reads its files through ``text_lines``, and each input
mode's items through ``read_items``: a ``lines`` document per non-blank
line, a ``dir`` document per ``*.txt`` file, or a ``treebank``'s
unparsed tree lines.  ``sentence_starts`` is the count pass over them.

The sentence splitter is rule-based.  A sentence ends after a word
(a run of non-whitespace) that ends in one or more of ``.``, ``!`` and
``?``, when that word is followed either by spaces or tabs up to a line
break or the end of the text, or by at least one space or tab and then
an upper-case character; but not when the word, less any leading
``( [ { ' "``, is on the abbreviation guard list, compared
case-insensitively.  The tokenizer splits on whitespace and then
detaches trailing ``. , ! ? ; :`` characters into their own tokens.
Both are deliberately simple so that runs are reproducible; a guard
list file can replace the guards.
"""

from __future__ import annotations

import functools
import io
import itertools
import random
import re
from pathlib import Path
from typing import Iterable, Iterator, Mapping, MutableSequence, Sequence, TextIO

DEFAULT_GUARDS = (
    "e.g.", "i.e.", "etc.", "cf.", "vs.", "al.", "ca.",
    "Dr.", "Mr.", "Mrs.", "Ms.", "Prof.", "St.",
    "Fig.", "Figs.", "Eq.", "Eqs.", "Sec.", "Ref.", "Refs.",
    "No.", "Vol.", "pp.",
)

# a candidate sentence end: group 1 is the word, and group 2 the
# character after its spaces or tabs, None when a line break or the end
# of the text follows.  \s is exactly str.isspace, so a word here is
# what str.split() would cut; (?<!\S) finds no other ends, but without
# it a word that is no end is retried from each of its characters
_SENTENCE_END = re.compile(r"(?<!\S)(\S*[.!?]+)(?=[ \t]*(?:\n|\Z)|[ \t]+(\S))")
_DETACH = ".,!?;:"

SPLIT_NAMES = ("train", "dev", "test")

INPUT_MODES = ("lines", "dir", "treebank")


class RatioSumInvalid(ValueError):
    """Split ratios are not all positive or do not sum to 1."""


class NotUtf8(ValueError):
    """An input file has a line that is not UTF-8."""


class InputChanged(ValueError):
    """The input changed between the pass that counted it and a later pass.

    ``path`` names the file that changed when the command reads more
    than one; a build, which reads one input, leaves it None.
    """

    def __init__(self, message: str, path=None) -> None:
        super().__init__(message)
        self.path = path


def hashed(items: Iterable, hashes: MutableSequence[int]) -> Iterator:
    """The items of a first pass, with ``hash(item)`` of each appended to hashes."""
    for item in items:
        hashes.append(hash(item))
        yield item


def unchanged(items: Iterable, hashes: Sequence[int], start=0, stop=None, path=None) -> Iterator:
    """Items ``start`` up to ``stop``, by default the end, of a later pass,
    checked against the hashes that ``hashed`` kept: InputChanged, naming
    path, when an item's hash differs, when the items end before stop,
    or, when stop is the end, when they go on past it.  Items before
    start are not checked; the pass that reads them as its own checks
    them.  A ``str`` hash is fixed within a process and its forks, where
    the passes run; two different items share one with odds of 2**-64.
    """
    stop = len(hashes) if stop is None else stop
    items = iter(items)
    at = start
    for item in itertools.islice(items, start, stop):
        if hash(item) != hashes[at]:
            raise InputChanged(f"item {at + 1} is not the item the first pass read", path)
        at += 1
        yield item
    if at < stop:
        raise InputChanged(f"it ended before item {at + 1} of the {len(hashes)} counted", path)
    if stop == len(hashes) and list(itertools.islice(items, 1)):
        raise InputChanged(f"it has more than the {stop} items counted", path)


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


class _Digested(io.FileIO):
    """A file whose bytes update a digest as a buffered reader reads them;
    ``readall``, which a buffered reader calls only for ``read()``, does not."""

    def __init__(self, path, digest) -> None:
        super().__init__(path)
        self.digest = digest

    def readinto(self, buffer) -> int:
        size = super().readinto(buffer)
        self.digest.update(buffer[:size])
        return size


def text_lines(path, digests=None) -> Iterator[str]:
    """The lines of a UTF-8 file, each with its newline; text mode maps
    \\r\\n and \\r to \\n, and a byte-order mark at the very start of
    the file is dropped.  A line that is not UTF-8 raises NotUtf8.
    ``digests``, a ``defaultdict`` of digests such as ``defaultdict(sha256)``,
    gets the file's bytes in ``digests[str(Path(path))]`` as they are read."""
    raw = io.FileIO(path) if digests is None else _Digested(path, digests[str(Path(path))])
    with io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8-sig") as handle:
        try:
            yield from handle
        except UnicodeDecodeError:
            raise _not_utf8(path) from None


def read_text(path, digests=None) -> str:
    """The text of a UTF-8 file, its lines as text_lines reads them, joined."""
    return "".join(text_lines(path, digests))


def open_sink(path) -> TextIO:
    """A text output file: UTF-8, ``\\n`` line ends."""
    return open(path, "w", encoding="utf-8", newline="\n")


def read_entries(path, digests=None) -> list[str]:
    """The stripped lines of a UTF-8 file of one entry per line, read as
    text_lines reads them, less blank lines and # comments."""
    lines = [line.strip() for line in text_lines(path, digests)]
    return [line for line in lines if line and not line.startswith("#")]


@functools.lru_cache(maxsize=8)
def _guard_set(guards: tuple[str, ...]) -> frozenset[str]:
    return frozenset(g.lower() for g in guards)


def split_sentences(text: str, guards: Sequence[str] = DEFAULT_GUARDS) -> list[str]:
    """Deterministic rule-based sentence segmentation."""
    guard_set = _guard_set(tuple(guards))
    sentences: list[str] = []
    begin = 0
    for end in _SENTENCE_END.finditer(text):
        word, following = end.groups()
        if (following is None or following.isupper()) and (
            word.lstrip("([{'\"").lower() not in guard_set
        ):
            chunk = text[begin:end.end()].strip()
            if chunk:
                sentences.append(chunk)
            begin = end.end()
    tail = text[begin:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def tokenize(sentence: str) -> list[str]:
    """Whitespace tokens with trailing punctuation detached."""
    tokens: list[str] = []
    for chunk in sentence.split():
        # a chunk of punctuation alone keeps its first character as the word
        word = chunk.rstrip(_DETACH) or chunk[0]
        tokens.append(word)
        tokens.extend(chunk[len(word):])
    return tokens


def detokenize(tokens: Sequence[str]) -> str:
    return " ".join(tokens)


def make_sentence_id(corpus: str, doc_index: int, sent_index: int) -> str:
    return f"{corpus}:{doc_index:06d}:{sent_index:04d}"


def iter_documents(path, mode: str, digests=None) -> Iterator[tuple[int, str]]:
    """Documents from a one-per-line file, or from a directory: its regular
    ``*.txt`` files, or links to them, sorted by name.  ``digests`` is
    text_lines', and gets a digest per file read."""
    if mode == "dir":
        root = Path(path)
        if not root.is_dir():
            raise FileNotFoundError(f"not a directory: {root}")
        names = sorted(name for name in root.glob("*.txt") if name.is_file())
        for index, name in enumerate(names):
            yield index, read_text(name, digests)
    elif mode == "lines":
        index = 0
        for line in text_lines(path, digests):
            line = line.strip()
            if line:
                yield index, line
                index += 1
    else:
        raise ValueError(f"unknown input mode: {mode!r}")


def read_items(path, mode: str, digests=None) -> Iterator:
    """The items of an input, as every pass over it reads them: a
    treebank's non-blank lines, unparsed, as ``(position, (line_index,
    line))``, or raw text's documents; ``digests`` is text_lines'."""
    if mode != "treebank":
        return iter_documents(path, mode, digests)
    lines = enumerate(text_lines(path, digests))
    return enumerate((index, line) for index, line in lines if line.strip())


def sentence_starts(items: Iterable, mode: str, guards: Sequence[str]) -> Sequence[int]:
    """Where each of the ``read_items`` of an input of this mode has its
    first sentence, then where the last one ends; a tree line is one sentence."""
    if mode == "treebank":
        return range(sum(1 for _ in items) + 1)
    from array import array  # an extension module; only raw text needs it

    sentences = (len(split_sentences(text, guards)) for _, text in items)
    return array("q", itertools.accumulate(sentences, initial=0))


def read_guards(mode: str, guard_list, digests=None) -> tuple[str, ...]:
    """The abbreviation guards of raw text, from the guard list when there
    is one; a treebank reads no guard list."""
    if mode == "treebank":
        return ()
    if guard_list:
        return tuple(read_entries(guard_list, digests))
    return DEFAULT_GUARDS


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
