"""Command line entry points.

    nextphrase build-npp TREES --out DIR [--seed N] [--min-group-size K]
    nextphrase build-nsp CORPUS --out DIR [--distractors N]
    nextphrase build-pairs CORPUS --out DIR [--ratios 0.8,0.1,0.1]
    nextphrase evaluate --candidates FILE --references FILE --report FILE
    nextphrase stats INPUT [INPUT ...]
    nextphrase debug-phrases TREES

Every build run writes its outputs plus ``stats.json`` and
``manifest.json`` (config snapshot, input digests, counts, skip
histogram) into a private ``.nextphrase-*`` directory inside ``--out``,
where its worker processes write their part files too; at the end they
are renamed into ``--out`` together, the manifest last.  Re-running with
the same config and inputs reproduces every output byte for byte; only
the manifest timestamp moves.  A run that fails leaves ``--out`` as it
was, and every run deletes its private directory, so it deletes nothing
it did not create.  Exit codes: 0 ok, 1 usage or config error, 2 input
I/O error or an input that is not UTF-8, 3 data contract violation
(malformed tree, mismatched eval files), 4 a worker process died, for
example when it was killed or ran out of memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import shutil
import sys
from contextlib import ExitStack, contextmanager
from json.encoder import encode_basestring as _quote
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

from . import __version__
from .corpus import (
    DEFAULT_GUARDS,
    NotUtf8,
    RatioSumInvalid,
    SPLIT_NAMES,
    assign_splits,
    format_stats_table,
    iter_documents,
    iter_sentence_texts,
    load_guard_list,
    make_sentence_id,
    read_text,
    split_counts,
    split_sentences,
    tokenize,
)
from .fanout import WorkerDied, fan_out, open_sink
from .instances import (
    MAX_CHOICES,
    MoreChoicesThanLetters,
    PoolView,
    Skip,
    SkipReason,
    build_npp_instance,
    build_nsp_instance,
    record_rng,
    serialize_npp,
    serialize_nsp,
)
from .metrics import (
    CountMismatch,
    SingleSegmentCorpus,
    evaluate_files,
    render_report,
    report_to_json,
)
from .phrases import extract_phrases
# parse_ptb is not called here; perfbench's recorder test reads it as cli.parse_ptb
from .treebank import TreebankError, iter_tree_lines, parse_ptb, parse_tree_line, read_treebank

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DATA = 3
EXIT_WORKER = 4

INPUT_MODES = ("lines", "dir", "treebank")


class UsageError(Exception):
    pass


class PipelineConfig(NamedTuple):
    seed: int = 0
    min_group_size: int = 2
    distractors: int = 1
    ratios: tuple[float, ...] = (0.8, 0.1, 0.1)
    input_mode: str = "lines"
    guard_list: str | None = None
    sample: int | None = None
    workers: int = 1
    pool_cap: int = 10000


def load_config_file(path) -> dict[str, str]:
    """key=value lines; blank lines and # comments allowed."""
    values: dict[str, str] = {}
    for raw in read_text(path).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"bad config line: {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _parse_ratios(text: str) -> tuple[float, ...]:
    try:
        parts = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"bad ratios: {text!r}") from None
    if len(parts) != 3:
        raise UsageError(f"need three ratios, got {text!r}")
    return parts


# config file values are cast with these; every other key is an integer
_CASTS = {"ratios": _parse_ratios, "input_mode": str, "guard_list": str}


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """CLI flag beats config file beats the PipelineConfig default.

    A file key is known only when the subcommand has the matching flag.
    """
    file_cfg: dict[str, str] = {}
    if getattr(args, "config", None):
        file_cfg = load_config_file(args.config)
    known = PipelineConfig._fields
    for key in file_cfg:
        if key not in known or not hasattr(args, key):
            raise UsageError(f"unknown config key: {key!r}")
    values = {}
    for key in known:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
        elif key in file_cfg:
            try:
                values[key] = _CASTS.get(key, int)(file_cfg[key])
            except ValueError:
                raise UsageError(
                    f"bad config value for {key}: {file_cfg[key]!r}"
                ) from None
    config = PipelineConfig(**values)
    if config.input_mode not in INPUT_MODES:
        raise UsageError(f"unknown input mode: {config.input_mode!r}")
    if config.workers < 1:
        raise UsageError("workers must be >= 1")
    # the workers are forked processes
    if config.workers > 1 and not hasattr(os, "fork"):
        raise UsageError("workers above 1 need os.fork, which this platform lacks")
    if config.min_group_size < 1:
        raise UsageError("min-group-size must be >= 1")
    if config.sample is not None and config.sample < 1:
        raise UsageError("sample must be >= 1")
    if config.pool_cap < 1:
        raise UsageError("pool-cap must be >= 1")
    # one letter per choice, and the answer takes one of them
    if not 1 <= config.distractors < MAX_CHOICES:
        raise UsageError(f"distractors must be between 1 and {MAX_CHOICES - 1}")
    return config


def _guards(config: PipelineConfig) -> tuple[str, ...]:
    if config.guard_list:
        return load_guard_list(config.guard_list)
    return DEFAULT_GUARDS


# ------------------------------------------------------------ plumbing


def file_sha256(path) -> str:
    import hashlib  # here, not at the top: it loads OpenSSL, which evaluate never needs

    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


# Every JSON-lines record is built with _quote, the string quoting of
# json.dumps(..., ensure_ascii=False): it escapes character by character,
# writes non-ASCII as it is and never touches a space.
def _record_line(sentence_id: str, prompt: str, target: str) -> str:
    """One NPP or NSP record, the bytes of json.dumps of its dict plus a newline."""
    return (
        f'{{"id": {_quote(sentence_id)}, "input": {_quote(prompt)}, '
        f'"target": {_quote(target)}}}\n'
    )


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


@contextmanager
def _output_files(out_dir: Path, names: Sequence[str]) -> Iterator[list[TextIO]]:
    """Open one sink per name in a new private directory inside out_dir.

    When the block completes the files move into out_dir under their
    names, in order; when anything raises, none moves.  Either way the
    staging directory goes last, with the part files the block's worker
    processes wrote there, after the block has stopped them.  So a run
    deletes nothing it did not create.
    """
    import tempfile  # here, not at the top: only a command that writes needs it

    out_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        # a file cannot replace a directory: fail before any output moves
        if (out_dir / name).is_dir():
            raise IsADirectoryError(f"output is a directory: {out_dir / name}")
    staging = Path(tempfile.mkdtemp(prefix=".nextphrase-", dir=out_dir))
    try:
        with ExitStack() as stack:
            yield [stack.enter_context(open_sink(staging / name)) for name in names]
        for name in names:
            os.replace(staging / name, out_dir / name)
    finally:
        shutil.rmtree(staging)


# the last two outputs of every build; the manifest is renamed into place last
_BUILD_META = ("stats.json", "manifest.json")


def _finish_build(
    sinks: Sequence[TextIO],
    args: argparse.Namespace,
    config: PipelineConfig,
    counts: dict,
    stats: dict,
) -> None:
    """Write stats.json and manifest.json into the last two of a build's sinks.

    The manifest's config lists the keys the subcommand has flags for.
    """
    import datetime  # only a finished build stamps the time

    root = Path(args.input)
    inputs = sorted(root.glob("*.txt")) if config.input_mode == "dir" else [root]
    manifest = {
        "command": args.command,
        "version": __version__,
        "config": {key: value for key, value in config._asdict().items() if hasattr(args, key)},
        "inputs": {str(path): file_sha256(path) for path in inputs},
        "counts": counts,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    for sink, payload in zip(sinks[-2:], (stats, manifest)):
        sink.write(_json_text(payload))


def _reservoir(items: Iterable, k: int, rng: random.Random) -> tuple[list, int]:
    """k items drawn uniformly from items, and how many items there were."""
    chosen: list = []
    seen = 0
    for seen, item in enumerate(items, 1):
        if seen <= k:
            chosen.append(item)
        else:
            slot = rng.randrange(seen)
            if slot < k:
                chosen[slot] = item
    return chosen, seen


def _tree_id(name: str, line_index: int) -> str:
    return f"{name}:{line_index:08d}"


# ---------------------------------------------------------- subcommands


def _info(message: str) -> None:
    print(f"INFO {message}", file=sys.stderr)


def _log_records(args: argparse.Namespace, counts: dict, read_key: str) -> None:
    """The summary line of a finished NPP or NSP build."""
    _info(
        f"{args.command}: {counts[read_key]} {read_key.split('_')[0]} -> "
        f"{counts['instances_written']} instances ({sum(counts['skips'].values())} skipped)"
    )


def _npp_outcomes(item: tuple[int, str], seed: int, min_size: int, name: str) -> Iterator:
    """The one outcome of a tree line: its NPP record, or its skip reason."""
    line_index, line = item
    tree = parse_tree_line(line_index, line)
    sentence_id = _tree_id(name, line_index)
    groups = extract_phrases(tree)
    rng = record_rng(seed, sentence_id)
    built = build_npp_instance(tree, groups, rng, sentence_id, min_size)
    if isinstance(built, Skip):
        yield built.reason.value
    else:
        yield 0, 1, (_record_line(sentence_id, *serialize_npp(built)),)


def cmd_build_npp(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    name = Path(args.input).stem
    sampled: dict = {}
    items: Iterable[tuple[int, str]] = iter_tree_lines(args.input)
    if config.sample is not None:
        picked, sampled["sentences_scanned"] = _reservoir(
            items, config.sample, random.Random(config.seed)
        )
        items = sorted(picked)
    outcomes_of = functools.partial(
        _npp_outcomes, seed=config.seed, min_size=config.min_group_size, name=name
    )
    with _output_files(Path(args.out), ["instances.jsonl", *_BUILD_META]) as sinks:
        built = fan_out(outcomes_of, items, sinks[:1], config.workers)
        counts = {
            "sentences_read": built.read,
            "instances_written": built.written[0],
            "skips": built.skips,
            **sampled,
        }
        _finish_build(sinks, args, config, counts, counts)
    _log_records(args, counts, "sentences_read")
    return EXIT_OK


# the pair lines of a sentence are written this many at a time: one write
# for most sentences, and memory in proportion to the length of a long one
_PAIRS_PER_WRITE = 32


def _pair_lines(sentence_id: str, tokens: Sequence[str]) -> tuple[int, Iterator[str]]:
    """How many completion pairs a sentence has, and a generator of their
    JSON lines, joined _PAIRS_PER_WRITE at a time.

    Line k has the bytes of json.dumps of ``{"id": f"{sentence_id}#{k}",
    "p": detokenize(tokens[:k]), "q": detokenize(tokens[k:])}`` plus a
    newline: each token is quoted once, and since quoting never touches a
    space, joining quoted tokens quotes the joined text.
    """
    body = [_quote(token)[1:-1] for token in tokens]
    head = '{"id": ' + _quote(sentence_id)[:-1] + "#"
    chunks = (
        "".join([
            f'{head}{k}", "p": "{" ".join(body[:k])}", "q": "{" ".join(body[k:])}"}}\n'
            for k in range(first, min(first + _PAIRS_PER_WRITE, len(body)))
        ])
        for first in range(1, len(body), _PAIRS_PER_WRITE)
    )
    return max(len(body) - 1, 0), chunks


def _pair_outcomes(split: int, sentence_id: str, tokens: Sequence[str]) -> tuple:
    """The one outcome of a sentence: its pairs for its split's sink, or
    too_short; a sentence without pairs still keeps its split slot."""
    pairs, lines = _pair_lines(sentence_id, tokens)
    return ((split, pairs, lines) if pairs else SkipReason.TOO_SHORT.value,)


def _tree_pair_outcomes(record: tuple[int, tuple[int, str]], name: str) -> tuple:
    split, (line_index, line) = record
    tokens = parse_tree_line(line_index, line).tokens
    return _pair_outcomes(split, _tree_id(name, line_index), tokens)


def _text_pair_outcomes(record: tuple[int, tuple[str, str]]) -> tuple:
    split, (sentence_id, text) = record
    return _pair_outcomes(split, sentence_id, tokenize(text))


def cmd_build_pairs(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    name = args.name or Path(args.input).stem
    items: Iterable
    if config.input_mode == "treebank":
        # the count pass reads tree lines unparsed: each tree is parsed once, by the worker
        total = sum(1 for _ in iter_tree_lines(args.input))
        items = iter_tree_lines(args.input)
        outcomes_of = functools.partial(_tree_pair_outcomes, name=name)
    else:
        # each document is split once; the sentence texts are held for the
        # build pass and tokenized by the worker
        items = list(
            iter_sentence_texts(args.input, config.input_mode, name, _guards(config))
        )
        total = len(items)
        outcomes_of = _text_pair_outcomes
    sentence_counts = split_counts(total, config.ratios)
    records = zip(assign_splits(total, config.ratios, config.seed), items)
    names = [f"pairs_{split}.jsonl" for split in SPLIT_NAMES]
    with _output_files(Path(args.out), [*names, *_BUILD_META]) as sinks:
        built = fan_out(outcomes_of, records, sinks[: len(names)], config.workers)
        counts = {
            "sentences_read": total,
            "pairs_written": sum(built.written),
            "skips": built.skips,
            "sentences": sentence_counts,
            "pairs": dict(zip(SPLIT_NAMES, built.written)),
        }
        stats = {"dataset": name, **counts, "total_sentences": total}
        _finish_build(sinks, args, config, counts, stats)
    print(format_stats_table([(name, sentence_counts)]))
    _info(f"{args.command}: {total} sentences -> {counts['pairs_written']} pairs")
    return EXIT_OK


def _nsp_outcomes(
    item: tuple[int, list[str], list[int]],
    pool: Sequence[str],
    seed: int,
    distractors: int,
    name: str,
) -> Iterator:
    """A document's outcomes, one per context; ``own`` lists its positions in pool."""
    doc_index, sentences, own = item
    others = PoolView(pool, own)
    for position in range(len(sentences) - 1):
        sentence_id = make_sentence_id(name, doc_index, position)
        rng = record_rng(seed, sentence_id)
        built = build_nsp_instance(sentences, position, others, rng, sentence_id, distractors)
        if isinstance(built, Skip):
            yield built.reason.value
        else:
            yield 0, 1, (_record_line(sentence_id, *serialize_nsp(built)),)


def cmd_build_nsp(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    if config.input_mode not in ("lines", "dir"):
        raise UsageError("build-nsp reads raw text (input mode lines or dir)")
    name = Path(args.input).stem
    guards = _guards(config)
    documents = [
        (doc_index, split_sentences(document, guards))
        for doc_index, document in iter_documents(args.input, config.input_mode)
    ]
    pool, _ = _reservoir(
        ((doc_index, sentence) for doc_index, sentences in documents for sentence in sentences),
        config.pool_cap,
        random.Random(config.seed),
    )
    texts = [sentence for _, sentence in pool]
    # each document's own pool positions, ascending; distractors skip them
    own: dict[int, list[int]] = {}
    for position, (doc_index, _) in enumerate(pool):
        own.setdefault(doc_index, []).append(position)
    items = ((d, sentences, own.get(d, [])) for d, sentences in documents)
    # forked workers inherit the pool with the partial
    outcomes_of = functools.partial(
        _nsp_outcomes, pool=texts, seed=config.seed, distractors=config.distractors, name=name
    )
    with _output_files(Path(args.out), ["instances.jsonl", *_BUILD_META]) as sinks:
        built = fan_out(outcomes_of, items, sinks[:1], config.workers)
        counts = {
            "contexts_read": built.read,
            "instances_written": built.written[0],
            "skips": built.skips,
        }
        _finish_build(sinks, args, config, counts, counts)
    _log_records(args, counts, "contexts_read")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    report = evaluate_files(args.candidates, args.references)
    text = render_report(report)
    print(text)
    report_path = Path(args.report)
    names = [report_path.name, report_path.name + ".json"]
    with _output_files(report_path.parent, names) as (text_sink, json_sink):
        text_sink.write(text + "\n")
        json_sink.write(report_to_json(report))
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    names = [Path(path).stem for path in args.inputs]
    for name in names:
        # stats.json keys its rows by stem, so a shared stem would lose one
        if names.count(name) > 1:
            raise UsageError(f"two inputs share the file stem {name!r}")
    guards = _guards(config)
    rows = []
    for path, name in zip(args.inputs, names):
        if config.input_mode == "treebank":
            # the non-blank lines build-pairs splits; no tree is parsed
            records = iter_tree_lines(path)
        else:
            records = iter_sentence_texts(path, config.input_mode, name, guards)
        total = sum(1 for _ in records)
        rows.append((name, split_counts(total, config.ratios)))
    print(format_stats_table(rows))
    if args.out:
        payload = {
            name: {"counts": counts, "total": sum(counts.values())} for name, counts in rows
        }
        with _output_files(Path(args.out), ["stats.json"]) as (sink,):
            sink.write(_json_text(payload))
    return EXIT_OK


def cmd_debug_phrases(args: argparse.Namespace) -> int:
    for _, tree in read_treebank(args.input):
        groups = extract_phrases(tree)
        for kind, spans in groups.items():
            for span in spans:
                print(f"{kind}\t{span.start}\t{span.end}\t{span.text}")
    return EXIT_OK


# --------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's default 2
        raise UsageError(message)


def _add_build(
    sub, command: str, func, help_text: str, input_help: str | None = None
) -> argparse.ArgumentParser:
    """Subparser of a build command: one input, --out, --workers, --seed, --config."""
    p = sub.add_parser(command, help=help_text)
    p.add_argument("input", help=input_help)
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--workers", type=int, help="parallel workers (default 1)")
    p.add_argument("--seed", type=int, help="global random seed (default 0)")
    p.add_argument("--config", metavar="FILE", help="key=value config file")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nextphrase", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_build(
        sub, "build-npp", cmd_build_npp, "next-phrase instances from a treebank",
        "bracketed trees, one per line",
    )
    p.add_argument("--min-group-size", dest="min_group_size", type=int)
    p.add_argument("--sample", type=int, metavar="N", help="keep N random sentences")

    p = _add_build(sub, "build-nsp", cmd_build_nsp, "next-sentence instances from raw text")
    p.add_argument("--distractors", type=int, metavar="N")
    p.add_argument("--input-mode", dest="input_mode", choices=("lines", "dir"))
    p.add_argument("--pool-cap", dest="pool_cap", type=int)
    p.add_argument("--guard-list", dest="guard_list", metavar="FILE")

    p = _add_build(sub, "build-pairs", cmd_build_pairs, "prefix/remainder pairs, three-way split")
    p.add_argument("--ratios", type=_parse_ratios, metavar="A,B,C")
    p.add_argument("--input-mode", dest="input_mode", choices=INPUT_MODES)
    p.add_argument("--guard-list", dest="guard_list", metavar="FILE")
    p.add_argument("--name", help="dataset name for the stats table")

    p = sub.add_parser("evaluate", help="score candidates against references")
    p.add_argument("--candidates", required=True, metavar="FILE")
    p.add_argument("--references", required=True, metavar="FILE")
    p.add_argument("--report", required=True, metavar="FILE")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("stats", help="split-size table for one or more corpora")
    p.add_argument("inputs", nargs="+", metavar="INPUT")
    p.add_argument("--ratios", type=_parse_ratios, metavar="A,B,C")
    p.add_argument("--input-mode", dest="input_mode", choices=INPUT_MODES)
    p.add_argument("--guard-list", dest="guard_list", metavar="FILE")
    p.add_argument("--out", metavar="DIR", help="also write stats.json here")
    p.add_argument("--config", metavar="FILE", help="key=value config file")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("debug-phrases", help="dump extracted phrases as TSV")
    p.add_argument("input", help="bracketed trees, one per line")
    p.set_defaults(func=cmd_debug_phrases)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (UsageError, RatioSumInvalid) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TreebankError, CountMismatch, SingleSegmentCorpus, MoreChoicesThanLetters) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    # an input that is not UTF-8 fails as I/O
    except (OSError, NotUtf8) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except WorkerDied as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER


if __name__ == "__main__":
    sys.exit(main())
