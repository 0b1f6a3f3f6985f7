"""Run one nextphrase command in-process with span recorders attached.

    python3 perfbench/traced.py SPANS.json -- build-npp trees.txt --out DIR

The command runs under a root span named ``cli``; every function in
TARGETS gets a span of its own.  Small helpers such as ``tokenize`` or
``detokenize`` are not wrapped, because a wrapper would cost more than
their work; their time counts in the caller's self time.  The spans,
the boundary counts and the exit code are written to SPANS.json when
the command returns.
"""

from __future__ import annotations

import json
import sys

from spans import Recorder

TARGETS = {
    "nextphrase.treebank": ("parse_ptb", "read_treebank"),
    "nextphrase.phrases": ("extract_phrases",),
    "nextphrase.instances": (
        "record_rng",
        "build_npp_instance",
        "serialize_npp",
        "build_nsp_instance",
        "serialize_nsp",
        "build_completion_pairs",
    ),
    "nextphrase.corpus": ("iter_documents", "split_sentences", "assign_splits"),
    "nextphrase.metrics": (
        "load_segments",
        "evaluate",
        "corpus_bleu",
        "sentence_bleu",
        "meteor",
        "meteor_segment",
        "align",
        "cider_scores",
        "render_report",
        "report_to_json",
    ),
}


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    spans_path, command = argv[0], argv[2:]
    import nextphrase.cli as cli
    from nextphrase.instances import Skip

    def built(key: str):
        return lambda result, counts: counts.update({key: not isinstance(result, Skip)})

    counters = {
        "extract_phrases": lambda groups, counts: counts.update(
            {"phrases.spans_kept": len(groups.np) + len(groups.vp) + len(groups.pp)}
        ),
        "build_npp_instance": built("instances.npp_built"),
        "build_nsp_instance": built("instances.nsp_built"),
    }
    recorder = Recorder()
    for module, attrs in TARGETS.items():
        layer = module.rsplit(".", 1)[1]
        for attr in attrs:
            recorder.patch(module, attr, f"{layer}.{attr}", counters.get(attr))
    root = recorder.open("cli")
    try:
        code = cli.main(command)
    finally:
        recorder.close(root)
        recorder.restore()
    payload = {"exit": code, "spans": recorder.finished(), "counts": dict(recorder.counts)}
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
