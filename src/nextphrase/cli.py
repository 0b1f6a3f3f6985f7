"""Command line entry points.

    nextphrase build-npp TREES --out DIR [--seed N] [--min-group-size K]
    nextphrase build-nsp CORPUS --out DIR [--distractors N]
    nextphrase build-pairs CORPUS --out DIR [--ratios 0.8,0.1,0.1]
    nextphrase evaluate --candidates FILE --references FILE --report FILE
    nextphrase stats INPUT [INPUT ...]
    nextphrase debug-phrases TREES

This module parses the command line and runs the command it names; it
is a plain module, not a program, so ``python -m nextphrase.cli`` starts
no run.  ``evaluate``, ``stats`` and ``debug-phrases`` live here; the three
build commands live in ``nextphrase.build``, which ``main`` imports only
once it has parsed a build command, so the other commands never load
the builders, the fan-out or the instance code.  Exit codes, all set in
``main``: 0 ok, 1 usage or config error, 2 input I/O error, an input
that is not UTF-8 or one that changed between two passes, 3 data
contract violation (malformed tree, mismatched eval files), 4 a worker
process could not be forked or died, for example when it was killed or
ran out of memory; ``--help`` and ``--version`` exit 0.  ``main`` sets no
signal handler: Ctrl-C raises KeyboardInterrupt out of it once the run's
staged outputs and its workers are gone, and ``nextphrase.__main__``
ends a process by the signal.  A closed stdout, as under ``| head``,
raises BrokenPipeError out of ``main``; every command prints only once
its outputs are in place, so none is lost, and ``nextphrase.__main__``
ends the process by SIGPIPE.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence, TextIO

from . import __version__
from .corpus import (
    INPUT_MODES,
    InputChanged,
    NotUtf8,
    RatioSumInvalid,
    format_stats_table,
    open_sink,
    read_entries,
    read_guards,
    read_items,
    sentence_starts,
    split_counts,
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
from .treebank import TreebankError, parse_ptb, read_treebank

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DATA = 3
EXIT_WORKER = 4


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
    for line in read_entries(path):
        if "=" not in line:
            raise UsageError(f"bad config line: {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _parse_ratios(text: str) -> tuple[float, ...]:
    try:
        parts = tuple([float(p) for p in text.split(",")])
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
    # bad ratios fail before any input is read
    split_counts(0, config.ratios)
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
    return config


# ------------------------------------------------------------ plumbing


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


@contextmanager
def _output_files(out_dir: Path, names: Sequence[str]) -> Iterator[list[TextIO]]:
    """Open one sink per name in a new private directory inside out_dir.

    When the block completes the files move into out_dir under their
    names, in order; when anything raises, Ctrl-C and SIGTERM among
    them, none moves.  Either way the staging directory goes last, with
    the files the block's worker processes wrote there, after the block
    has stopped them.  So a run deletes nothing it did not create: once
    its outputs are in place, it warns about each other staging directory
    in out_dir and keeps it.
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
    for stale in sorted(out_dir.glob(".nextphrase-*")):
        if stale.is_dir():
            print(
                f"WARN {stale}: not this run's staging directory; it may belong to a run "
                "still in progress, so it is left in place",
                file=sys.stderr,
            )


# ---------------------------------------------------------- subcommands


def cmd_evaluate(args: argparse.Namespace) -> None:
    report = evaluate_files(args.candidates, args.references)
    text = render_report(report)
    report_path = Path(args.report)
    names = [report_path.name, report_path.name + ".json"]
    with _output_files(report_path.parent, names) as (text_sink, json_sink):
        text_sink.write(text + "\n")
        json_sink.write(report_to_json(report))
    # printed once the files are in place, so a failed run prints no report
    print(text)


def cmd_stats(args: argparse.Namespace) -> None:
    config = resolve_config(args)
    names = [Path(path).stem for path in args.inputs]
    for name in names:
        # stats.json keys its rows by stem, so a shared stem would lose one
        if names.count(name) > 1:
            raise UsageError(f"two inputs share the file stem {name!r}")
    mode = config.input_mode
    guards = read_guards(mode, config.guard_list)
    rows = []
    for path, name in zip(args.inputs, names):
        # the sentences build-pairs splits, counted as it counts them
        total = sentence_starts(read_items(path, mode), mode, guards)[-1]
        rows.append((name, split_counts(total, config.ratios)))
    if args.out:
        payload = {
            name: {"counts": counts, "total": sum(counts.values())} for name, counts in rows
        }
        with _output_files(Path(args.out), ["stats.json"]) as (sink,):
            sink.write(_json_text(payload))
    # as evaluate, printed once stats.json is in place
    print(format_stats_table(rows))


def cmd_debug_phrases(args: argparse.Namespace) -> None:
    rows = [
        f"{kind}\t{span.start}\t{span.end}\t{span.text}\n"
        for _, tree in read_treebank(args.input)
        for kind, spans in extract_phrases(tree).items()
        for span in spans
    ]
    # as evaluate and stats, printed once every tree has parsed
    sys.stdout.writelines(rows)


# --------------------------------------------------------------- parser


class _ParserExit(Exception):
    """--help or --version printed what it was asked for; args[0] is the exit code."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's default 2
        raise UsageError(message)

    def exit(self, status=0, message=None):  # called only by --help and --version
        raise _ParserExit(status)


def _build(args: argparse.Namespace) -> None:
    from . import build  # only a build loads the builders, the fan-out and instances

    build.COMMANDS[args.command](args)


def _add_build(
    sub, command: str, help_text: str, input_help: str | None = None
) -> argparse.ArgumentParser:
    """Subparser of a build command: one input, --out, --workers, --seed, --config."""
    p = sub.add_parser(command, help=help_text)
    p.add_argument("input", help=input_help)
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--workers", type=int, help="parallel workers (default 1)")
    p.add_argument("--seed", type=int, help="global random seed (default 0)")
    p.add_argument("--config", metavar="FILE", help="key=value config file")
    p.set_defaults(func=_build)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nextphrase", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_build(
        sub, "build-npp", "next-phrase instances from a treebank", "bracketed trees, one per line"
    )
    p.add_argument("--min-group-size", dest="min_group_size", type=int)
    p.add_argument("--sample", type=int, metavar="N", help="keep N random sentences")

    p = _add_build(sub, "build-nsp", "next-sentence instances from raw text")
    p.add_argument("--distractors", type=int, metavar="N")
    p.add_argument("--input-mode", dest="input_mode", choices=("lines", "dir"))
    p.add_argument("--pool-cap", dest="pool_cap", type=int)
    p.add_argument("--guard-list", dest="guard_list", metavar="FILE")

    p = _add_build(sub, "build-pairs", "prefix/remainder pairs, three-way split")
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
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
        return EXIT_OK
    except _ParserExit as done:
        return done.args[0]
    except (UsageError, RatioSumInvalid) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TreebankError, CountMismatch, SingleSegmentCorpus) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InputChanged as exc:
        # a build reads one input; evaluate names the file that changed
        path = args.input if exc.path is None else exc.path
        print(f"error: {path}: changed while it was read: {exc}", file=sys.stderr)
        return EXIT_IO
    # the fan-out's WorkerDied, caught here without loading the fan-out
    except ChildProcessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER
    # a closed stdout is no error of the run: the process entry ends it by SIGPIPE
    except BrokenPipeError:
        raise
    # an input that is not UTF-8 fails as I/O
    except (OSError, NotUtf8) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
