"""The four benchmark workloads: inputs, command lines and output checks.

Each workload is one ``nextphrase`` subcommand on one seeded corpus.
``make_inputs`` writes the corpus, ``argv`` gives the command line, and
``problems`` returns every broken accounting identity of a finished
run; an empty list means the run passed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import corpora

TREES = 3000
SKIP_SHARE = 0.1
DOCUMENTS = 1000
SENTENCES_PER_DOC = (3, 9)
BOILERPLATE_SHARE = 0.2
DISTRACTORS = 3
# below the ~6,000 generated sentences, so the reservoir really samples
POOL_CAP = 4000
SEGMENTS = 48
REFERENCES = 4
SEGMENT_LENGTHS = (5, 30)


@dataclass(frozen=True)
class Inputs:
    files: dict[str, Path]
    records: int
    properties: dict
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # seed stream of the corpus: npp-ptb and pairs-ptb-2w read the same trees
    corpus: str
    workers: int
    make_inputs: Callable[[random.Random, Path, bool], Inputs]
    argv: Callable[[Inputs, Path, int], list[str]]
    outputs: tuple[str, ...]
    problems: Callable[[Path, Inputs], list[str]]
    # None for evaluate, which has no worker option
    other_workers: int | None


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8", newline="\n")
    return path


def _lines(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


def _stats(out: Path) -> dict:
    return json.loads((out / "stats.json").read_text(encoding="utf-8"))


# ------------------------------------------------------------ treebank


def _trees(rng: random.Random, work: Path, tiny: bool) -> Inputs:
    bank = corpora.make_treebank(rng, 1 if tiny else TREES, 0.0 if tiny else SKIP_SHARE)
    return Inputs(
        files={"trees": _write(work / "trees.txt", bank.text)},
        records=len(bank.token_counts),
        properties=bank.properties,
        expect={"pairs": sum(n - 1 for n in bank.token_counts)},
    )


def npp_identities(stats: dict, lines: int, records: int) -> list[str]:
    out = []
    skipped = sum(stats["skips"].values())
    if stats["sentences_read"] != records:
        out.append(f"sentences_read {stats['sentences_read']} != {records} trees")
    if stats["sentences_read"] != stats["instances_written"] + skipped:
        out.append(
            f"sentences_read {stats['sentences_read']} != instances_written "
            f"{stats['instances_written']} + skips {skipped}"
        )
    if lines != stats["instances_written"]:
        out.append(f"{lines} lines != instances_written {stats['instances_written']}")
    return out


def _npp_problems(out: Path, inputs: Inputs) -> list[str]:
    return npp_identities(_stats(out), _lines(out / "instances.jsonl"), inputs.records)


def pairs_identities(stats: dict, lines: int, records: int, expected_pairs: int) -> list[str]:
    out = []
    if stats["sentences_read"] != records:
        out.append(f"sentences_read {stats['sentences_read']} != {records} trees")
    if sum(stats["sentences"].values()) != stats["sentences_read"]:
        out.append("split sentence counts do not add up to sentences_read")
    if stats["pairs_written"] != expected_pairs:
        out.append(f"pairs_written {stats['pairs_written']} != sum(len-1) {expected_pairs}")
    if lines != stats["pairs_written"]:
        out.append(f"{lines} lines != pairs_written {stats['pairs_written']}")
    return out


PAIR_FILES = tuple(f"pairs_{split}.jsonl" for split in ("train", "dev", "test"))


def _pairs_problems(out: Path, inputs: Inputs) -> list[str]:
    lines = sum(_lines(out / name) for name in PAIR_FILES)
    return pairs_identities(_stats(out), lines, inputs.records, inputs.expect["pairs"])


# ---------------------------------------------------------------- email


def _emails(rng: random.Random, work: Path, tiny: bool) -> Inputs:
    corpus = corpora.make_emails(
        rng, 1 if tiny else DOCUMENTS, (2, 2) if tiny else SENTENCES_PER_DOC, BOILERPLATE_SHARE
    )
    return Inputs(
        files={"docs": _write(work / "docs.txt", corpus.text)},
        records=corpus.properties["records"],
        properties={**corpus.properties, "pool_cap": POOL_CAP},
    )


def nsp_identities(stats: dict, lines: int) -> list[str]:
    out = []
    skipped = sum(stats["skips"].values())
    if stats["contexts_read"] != stats["instances_written"] + skipped:
        out.append(
            f"contexts_read {stats['contexts_read']} != instances_written "
            f"{stats['instances_written']} + skips {skipped}"
        )
    if lines != stats["instances_written"]:
        out.append(f"{lines} lines != instances_written {stats['instances_written']}")
    return out


def _nsp_problems(out: Path, inputs: Inputs) -> list[str]:
    return nsp_identities(_stats(out), _lines(out / "instances.jsonl"))


# ------------------------------------------------------------ evaluate


def _eval(rng: random.Random, work: Path, tiny: bool) -> Inputs:
    # CIDEr's idf needs a corpus of two, so the smallest input is two segments
    corpus = corpora.make_eval(rng, 2 if tiny else SEGMENTS, REFERENCES, SEGMENT_LENGTHS)
    return Inputs(
        files={
            "candidates": _write(work / "candidates.txt", corpus.candidates),
            "references": _write(work / "references.txt", corpus.references),
        },
        records=corpus.properties["records"],
        properties=corpus.properties,
    )


def _eval_problems(out: Path, inputs: Inputs) -> list[str]:
    report = json.loads((out / "report.txt.json").read_text(encoding="utf-8"))
    if len(report["segments"]) != inputs.records:
        return [f"{len(report['segments'])} segment rows != {inputs.records} segments"]
    return []


# ------------------------------------------------------------ workloads


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="npp-ptb",
            corpus="ptb",
            why="build-npp at 1 worker on PTB-shaped trees: treebank parse and "
            "phrase extraction do most of the work, metrics and corpus none",
            workers=1,
            make_inputs=_trees,
            argv=lambda i, out, w: [
                "build-npp", str(i.files["trees"]), "--out", str(out), "--workers", str(w)
            ],
            outputs=("instances.jsonl", "stats.json"),
            problems=_npp_problems,
            other_workers=2,
        ),
        Workload(
            name="pairs-ptb-2w",
            corpus="ptb",
            why="build-pairs on the same trees at 2 workers: tokens only, no "
            "extraction, n-1 pairs per tree, and the only Pool fan-out",
            workers=2,
            make_inputs=_trees,
            argv=lambda i, out, w: [
                "build-pairs", str(i.files["trees"]), "--input-mode", "treebank",
                "--out", str(out), "--workers", str(w),
            ],
            outputs=(*PAIR_FILES, "stats.json"),
            problems=_pairs_problems,
            other_workers=1,
        ),
        Workload(
            name="nsp-email",
            corpus="email",
            why="build-nsp on one-line emails with shared sign-offs: sentence "
            "splitting, the per-document pool filter and the pool copy dominate",
            workers=1,
            make_inputs=_emails,
            argv=lambda i, out, w: [
                "build-nsp", str(i.files["docs"]), "--out", str(out),
                "--distractors", str(DISTRACTORS), "--pool-cap", str(POOL_CAP),
                "--workers", str(w),
            ],
            outputs=("instances.jsonl", "stats.json"),
            problems=_nsp_problems,
            other_workers=2,
        ),
        Workload(
            name="eval-multiref",
            corpus="eval",
            why="evaluate with 4 references per segment: METEOR align searches "
            "its beam on the repeated-word half and is forced on the other half",
            workers=1,
            make_inputs=_eval,
            argv=lambda i, out, w: [
                "evaluate", "--candidates", str(i.files["candidates"]),
                "--references", str(i.files["references"]),
                "--report", str(out / "report.txt"),
            ],
            outputs=("report.txt", "report.txt.json"),
            problems=_eval_problems,
            other_workers=None,
        ),
    )
}

def inputs_for(workload: Workload, seed: int, work: Path, tiny: bool = False) -> Inputs:
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload.corpus}:{seed}:{'tiny' if tiny else 'full'}")
    return workload.make_inputs(rng, work, tiny)
