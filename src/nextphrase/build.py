"""The three build commands: build-npp, build-nsp and build-pairs.

Only a build imports this module, and with it the fan-out and the
instance builders, so ``evaluate``, ``stats`` and ``debug-phrases``
load neither.

A build reads its input in two passes.  The first runs in this process
at every worker count, so that an input's first error does not depend
on it.  It counts the items that ``corpus.read_items`` gives, each a
tree line, a document line or a ``*.txt`` file, keeps the hash of each,
and digests the bytes of each file it reads for the manifest:
``build-npp`` counts its tree lines unparsed, and draws the positions of
its ``--sample`` among them, ``build-pairs`` counts each item's
sentences for its split assignment (``corpus.sentence_starts``), and
``build-nsp`` fills its distractor pool.  The second pass is
``fanout.fan_out``'s, which reads the input again and builds each block
of items in its own process; a sampled ``build-npp`` passes over the
lines that were not drawn.  So a raw-text document is split into
sentences twice, and a tree is parsed once, in ``build-pairs`` without
its span table; a ``dir`` input is listed anew, and its files read, by
each pass of each process.

``build-nsp`` and raw-text ``build-pairs`` thus hold no sentence past
its document.  What grows with the input is a few bytes per sentence or
document: per document its 8-byte hash, and in ``build-pairs`` also the
8-byte position of its first sentence and, per sentence, the split
assignment (see ``corpus.assign_splits``).  The ``build-nsp`` pool grows
with ``--pool-cap``, not with the input (see ``_nsp_pool``); the
benchmark's 1,000 emails have about 6,000 sentences, so the default cap
holds them all.

Every build run writes its outputs plus ``stats.json`` and
``manifest.json`` (config snapshot, input digests, counts, skip
histogram) through ``cli._output_files``, so a run that fails leaves
``--out`` as it was.  Re-running with the same config and inputs
reproduces every output byte for byte; only the manifest timestamp
moves.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import itertools
import random
import sys
import time
from array import array
from collections import defaultdict
from json.encoder import encode_basestring as _quote
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import __version__
from .cli import PipelineConfig, UsageError, _json_text, _output_files, resolve_config
from .corpus import (
    SPLIT_NAMES,
    assign_splits,
    format_stats_table,
    hashed,
    make_sentence_id,
    read_guards,
    read_items,
    sentence_starts,
    split_counts,
    split_sentences,
    tokenize,
)
from .fanout import fan_out
from .instances import (
    MAX_CHOICES,
    PoolView,
    Skip,
    SkipReason,
    build_npp_instance,
    build_nsp_instance,
    record_rng,
    serialize_npp,
    serialize_nsp,
    sha256,
)
from .phrases import extract_phrases
from .treebank import parse_tree_line


# Every JSON-lines record is built with _quote, the string quoting of
# json.dumps(..., ensure_ascii=False): it escapes character by character,
# writes non-ASCII as it is and never touches a space.
def _record_line(sentence_id: str, prompt: str, target: str) -> str:
    """One NPP or NSP record, the bytes of json.dumps of its dict plus a newline."""
    return (
        f'{{"id": {_quote(sentence_id)}, "input": {_quote(prompt)}, '
        f'"target": {_quote(target)}}}\n'
    )


def _utc_now() -> str:
    """The time now in ISO 8601, UTC, to the microsecond: the format of
    datetime's isoformat() with six fraction digits, without loading datetime."""
    seconds, micro = divmod(time.time_ns() // 1000, 1_000_000)
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds)) + f".{micro:06d}+00:00"


def _reservoir(
    pairs: Iterable[tuple[int, object]], k: int, rng: random.Random
) -> tuple[list, Sequence[int], int]:
    """k items drawn uniformly from ``(key, item)`` pairs, in step with them
    an ``array('q')`` of their keys, and how many pairs there were.  The
    draws depend only on that count."""
    chosen: list = []
    keys = array("q")
    seen = 0
    for seen, (key, item) in enumerate(pairs, 1):
        if seen <= k:
            chosen.append(item)
            keys.append(key)
        else:
            slot = rng.randrange(seen)
            if slot < k:
                chosen[slot] = item
                keys[slot] = key
    return chosen, keys, seen


def _tree_id(name: str, line_index: int) -> str:
    return f"{name}:{line_index:08d}"


def _info(message: str) -> None:
    print(f"INFO {message}", file=sys.stderr)


def _first_pass(args: argparse.Namespace, config: PipelineConfig) -> tuple:
    """A build's guards, the items of its first pass, and the ``first``
    that ``_build`` takes: those items, the ``array('q')`` that gets each
    item's hash as the pass reads it, and the digests of the input and
    guard list."""
    # the guard list's digest is kept apart: the list may be an input file too
    guard_digests = defaultdict(sha256)
    guards = read_guards(config.input_mode, config.guard_list, guard_digests)
    hashes, digests = array("q"), defaultdict(sha256)
    items = hashed(read_items(args.input, config.input_mode, digests), hashes)
    return guards, items, (items, hashes, digests, guard_digests)


def _build(args, config, first, names, outcomes_of, tally) -> dict:
    """Read, and hash, whatever items the ``first`` pass left unread, then
    fan the items out into one data file per name, then write
    ``stats.json`` and the manifest from ``tally(built)``, which gives the
    counts and the stats of what was built, and return the counts.  The
    manifest's config holds the keys the subcommand has flags for."""
    items, hashes, digests, guard_digests = first
    for _ in items:
        pass
    manifest = {
        "command": args.command,
        "version": __version__,
        "config": {key: value for key, value in config._asdict().items() if hasattr(args, key)},
        "inputs": {path: digest.hexdigest() for path, digest in (digests | guard_digests).items()},
    }
    # the manifest is renamed into place last
    with _output_files(Path(args.out), [*names, "stats.json", "manifest.json"]) as sinks:
        open_items = functools.partial(read_items, args.input, config.input_mode)
        built = fan_out(outcomes_of, open_items, sinks[:-2], config.workers, hashes)
        counts, stats = tally(built)
        manifest.update(counts=counts, created_at=_utc_now())
        for sink, payload in zip(sinks[-2:], (stats, manifest)):
            sink.write(_json_text(payload))
    return counts


def _build_records(args, config, first, read_key, outcomes_of, **extra) -> None:
    """``_build`` of an NPP or NSP build into ``instances.jsonl``, with its
    counts under ``read_key`` and then ``extra``, and its summary line."""

    def tally(built):
        counts = {
            read_key: built.read,
            "instances_written": built.written[0],
            "skips": built.skips,
            **extra,
        }
        return counts, counts

    counts = _build(args, config, first, ["instances.jsonl"], outcomes_of, tally)
    _info(
        f"{args.command}: {counts[read_key]} {read_key.split('_')[0]} -> "
        f"{counts['instances_written']} instances ({sum(counts['skips'].values())} skipped)"
    )


def _npp_outcomes(item: tuple, seed: int, min_size: int, name: str, drawn=None) -> Iterator:
    """The one outcome of a tree line, its NPP record or its skip reason;
    ``item`` is its position among the tree lines and the line, and a
    line whose position a ``drawn`` sample leaves out has none."""
    position, (line_index, line) = item
    if drawn is not None and position not in drawn:
        return
    tree = parse_tree_line(line_index, line)
    sentence_id = _tree_id(name, line_index)
    groups = extract_phrases(tree)
    rng = record_rng(seed, sentence_id)
    built = build_npp_instance(tree, groups, rng, sentence_id, min_size)
    if isinstance(built, Skip):
        yield built.reason.value
    else:
        yield 0, 1, (_record_line(sentence_id, *serialize_npp(built)),)


def cmd_build_npp(args: argparse.Namespace) -> None:
    # build-npp reads a treebank, and has no --input-mode to say so
    config = resolve_config(args)._replace(input_mode="treebank")
    _, trees, first = _first_pass(args, config)
    outcomes_of = functools.partial(
        _npp_outcomes, seed=config.seed, min_size=config.min_group_size, name=Path(args.input).stem
    )
    sampled = {}
    if config.sample is not None:
        positions = ((position, None) for position, _ in trees)
        rng = random.Random(config.seed)
        _, drawn, sampled["sentences_scanned"] = _reservoir(positions, config.sample, rng)
        outcomes_of = functools.partial(outcomes_of, drawn=frozenset(drawn))
    _build_records(args, config, first, "sentences_read", outcomes_of, **sampled)


def _pair_lines(sentence_id: str, tokens: Sequence[str]) -> tuple[int, Iterator[str]]:
    """How many completion pairs a sentence has, and a generator of their
    JSON lines: a long sentence is never held whole.

    Line k has the bytes of json.dumps of ``{"id": f"{sentence_id}#{k}",
    "p": detokenize(tokens[:k]), "q": detokenize(tokens[k:])}`` plus a
    newline: each token is quoted once, and since quoting never touches a
    space, the quoted tokens joined once quote the joined text, and each
    pair's ``p`` and ``q`` are the two sides of a cut sliced out of it.
    """
    quoted = [_quote(token)[1:-1] for token in tokens]
    text = " ".join(quoted)
    # the k-th end is the quoted length of tokens[:k] without spaces; with
    # the k - 1 spaces between them p ends at end + k - 1, and q starts
    # past the space after it
    ends = itertools.accumulate(map(len, quoted[:-1]))
    head = '{"id": ' + _quote(sentence_id)[:-1] + "#"
    lines = (
        f'{head}{k}", "p": "{text[:end + k - 1]}", "q": "{text[end + k:]}"}}\n'
        for k, end in enumerate(ends, 1)
    )
    return max(len(quoted) - 1, 0), lines


def _pair_outcomes(split: int, sentence_id: str, tokens: Sequence[str]) -> tuple:
    """The one outcome of a sentence: its pairs for its split's sink, or
    too_short; a sentence without pairs still keeps its split slot."""
    pairs, lines = _pair_lines(sentence_id, tokens)
    return ((split, pairs, lines) if pairs else SkipReason.TOO_SHORT.value,)


def _tree_pair_outcomes(record: tuple[int, tuple[int, str]], splits: bytearray, name: str) -> tuple:
    """A tree line's outcome; ``record`` is its position among the tree
    lines and the line, and ``splits`` gives each position's split."""
    position, (line_index, line) = record
    tokens = parse_tree_line(line_index, line, spans=False).tokens
    return _pair_outcomes(splits[position], _tree_id(name, line_index), tokens)


def _text_pair_outcomes(
    item: tuple[int, str],
    splits: bytearray,
    starts: Sequence[int],
    name: str,
    guards: Sequence[str],
) -> Iterator:
    """A document's outcomes, one per sentence; ``starts[d]`` is the
    position of document d's first sentence, and ``splits`` gives each
    position's split.  The first pass read the same text, so the
    document splits into the sentences it counted."""
    doc_index, text = item
    first = starts[doc_index]
    for position, sentence in enumerate(split_sentences(text, guards)):
        sentence_id = make_sentence_id(name, doc_index, position)
        yield from _pair_outcomes(splits[first + position], sentence_id, tokenize(sentence))


def cmd_build_pairs(args: argparse.Namespace) -> None:
    config = resolve_config(args)
    name = args.name or Path(args.input).stem
    guards, items, first = _first_pass(args, config)
    # the count pass keeps where each document's first sentence sits; a
    # document is split again, or a tree parsed, where its block is built
    starts = sentence_starts(items, config.input_mode, guards)
    total = starts[-1]
    splits = assign_splits(total, config.ratios, config.seed)
    if config.input_mode == "treebank":
        outcomes_of = functools.partial(_tree_pair_outcomes, splits=splits, name=name)
    else:
        outcomes_of = functools.partial(
            _text_pair_outcomes, splits=splits, starts=starts, name=name, guards=guards
        )
    sentence_counts = split_counts(total, config.ratios)

    def tally(built):
        counts = {
            "sentences_read": total,
            "pairs_written": sum(built.written),
            "skips": built.skips,
            "sentences": sentence_counts,
            "pairs": dict(zip(SPLIT_NAMES, built.written)),
        }
        return counts, {"dataset": name, **counts, "total_sentences": total}

    names = [f"pairs_{split}.jsonl" for split in SPLIT_NAMES]
    counts = _build(args, config, first, names, outcomes_of, tally)
    print(format_stats_table([(name, sentence_counts)]))
    _info(f"{args.command}: {total} sentences -> {counts['pairs_written']} pairs")


def _nsp_outcomes(
    item: tuple[int, str],
    pool: Sequence[str],
    owned: Sequence[int],
    seed: int,
    distractors: int,
    name: str,
    guards: Sequence[str],
) -> Iterator:
    """A document's outcomes, one per context.  ``owned`` is ``_nsp_pool``'s:
    document d's own pool positions are its keys from d * len(pool) up to
    (d + 1) * len(pool), less d * len(pool)."""
    doc_index, text = item
    base = doc_index * len(pool)
    first = bisect.bisect_left(owned, base)
    last = bisect.bisect_left(owned, base + len(pool), first)
    others = PoolView(pool, [key - base for key in owned[first:last]])
    sentences = split_sentences(text, guards)
    for position in range(len(sentences) - 1):
        sentence_id = make_sentence_id(name, doc_index, position)
        rng = record_rng(seed, sentence_id)
        built = build_nsp_instance(sentences, position, others, rng, sentence_id, distractors)
        if isinstance(built, Skip):
            yield built.reason.value
        else:
            yield 0, 1, (_record_line(sentence_id, *serialize_nsp(built)),)


def _nsp_pool(
    documents: Iterable[Sequence[str]], cap: int, rng: random.Random
) -> tuple[list[str], Sequence[int]]:
    """The distractor pool of the documents' sentences, and ``owned``: the
    ``array('q')``, ascending, of ``document * len(pool) + position`` for
    each pool position, so that distractors can skip a document's own.  A
    pool entry costs its text, a list slot and 8 bytes of the array."""
    pairs = ((doc_index, text) for doc_index, texts in enumerate(documents) for text in texts)
    pool, owners, _ = _reservoir(pairs, cap, rng)
    # one sort orders the positions by document, and within one by position
    keys = sorted(owner * len(pool) + position for position, owner in enumerate(owners))
    del owners
    return pool, array("q", keys)


def cmd_build_nsp(args: argparse.Namespace) -> None:
    config = resolve_config(args)
    # one letter per choice, and the answer takes one of them
    if not 1 <= config.distractors < MAX_CHOICES:
        raise UsageError(f"distractors must be between 1 and {MAX_CHOICES - 1}")
    if config.input_mode not in ("lines", "dir"):
        raise UsageError("build-nsp reads raw text (input mode lines or dir)")
    name = Path(args.input).stem
    guards, documents, first = _first_pass(args, config)
    # the pool pass keeps the pool; each document is split again where
    # its block is built
    sentences = (split_sentences(text, guards) for _, text in documents)
    pool, owned = _nsp_pool(sentences, config.pool_cap, random.Random(config.seed))
    # forked workers inherit the pool and its index with this partial
    outcomes_of = functools.partial(
        _nsp_outcomes,
        pool=pool,
        owned=owned,
        seed=config.seed,
        distractors=config.distractors,
        name=name,
        guards=guards,
    )
    _build_records(args, config, first, "contexts_read", outcomes_of)


# the build commands by name: cli.main runs them and maps their errors to exit codes
COMMANDS = {
    "build-npp": cmd_build_npp,
    "build-nsp": cmd_build_nsp,
    "build-pairs": cmd_build_pairs,
}
