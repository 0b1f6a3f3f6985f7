"""Benchmark of the nextphrase command line.

    python3 perfbench/run.py --workload npp-ptb --seed 1 --seconds 25 --trace 0

Generates a seeded corpus for the workload, checks the command's output
(rerun and other-worker-count byte equality, accounting identities,
the golden evaluation report), then runs the command in fresh
processes, one after another, for ``--seconds`` seconds, interleaved
with runs on a one-record input that time set-up.  ``--workload all``
interleaves every workload, alternating their order each round.
``--trace 1`` adds one in-process traced run per workload and reports
per-layer metrics instead of end-to-end ones.  The last line of
standard output is one JSON object with the result.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import self_times
from workloads import WORKLOADS, Inputs, Workload, inputs_for

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data"
WORK_ROOT = ROOT / ".perfbench_work"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}
# quartiles need a few samples even when one command outlasts --seconds
MIN_ROUNDS = 3
END_TO_END_UNITS = {"records_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}


@dataclass(frozen=True)
class Sample:
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    cpu_s: float


class Launcher:
    """Client of launcher.py, the small process that starts every command
    so that its peak RSS is the command's own, not this process's."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=ENV,
        )

    def run(self, argv: list[str], log: Path, script: list[str] | None = None) -> Sample:
        """Run one command to completion and read its process tree's usage."""
        command = [sys.executable, *(script or ["-m", "nextphrase"]), *argv]
        self.proc.stdin.write(json.dumps({"argv": command, "log": str(log)}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        reply = json.loads(line)
        return Sample(reply["exit"], reply["wall_s"], reply["maxrss_kb"] / 1024, reply["cpu_s"])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def digests(out: Path, names: tuple[str, ...]) -> dict[str, str]:
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in names
        if (out / name).is_file()
    }


@dataclass
class Tally:
    """Attempted and failed runs; a run fails on any problem."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: " + "; ".join(problems))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class WorkloadRun:
    def __init__(self, workload: Workload, seed: int, work: Path, launcher: Launcher) -> None:
        self.workload = workload
        self.launcher = launcher
        self.work = work
        self.inputs = inputs_for(workload, seed, work / "full")
        self.tiny = inputs_for(workload, seed, work / "tiny", tiny=True)
        self.tally = Tally()
        self.samples: list[Sample] = []
        self.setup_walls: list[float] = []
        self.reference: dict[str, str] = {}
        self.tiny_reference: dict[str, str] = {}
        self.measured: dict = {}
        self.layers: dict[str, tuple[float, str]] = {}
        self.trace_note = ""

    def _run(
        self, label: str, inputs: Inputs, workers: int, reference: dict | None, script=None
    ) -> tuple[Sample, dict[str, str]]:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        log = self.work / "stderr.log"
        sample = self.launcher.run(self.workload.argv(inputs, out, workers), log, script)
        problems: list[str] = []
        hashes: dict[str, str] = {}
        if sample.exit_code != 0:
            tail = log.read_text(encoding="utf-8", errors="replace").strip()[-300:]
            problems.append(f"exit {sample.exit_code}: {tail}")
        else:
            try:
                problems += self.workload.problems(out, inputs)
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"unreadable outputs: {exc!r}")
            hashes = digests(out, self.workload.outputs)
            missing = [name for name in self.workload.outputs if name not in hashes]
            if missing:
                problems.append(f"missing outputs: {missing}")
            elif reference is not None and hashes != reference:
                changed = sorted(n for n in reference if hashes.get(n) != reference[n])
                problems.append(f"output bytes differ from the reference run: {changed}")
        self.tally.record(label, problems)
        return sample, hashes

    def prepare(self) -> None:
        """Untimed reference runs, which also fill the bytecode caches."""
        workers = self.workload.workers
        _, self.reference = self._run("reference", self.inputs, workers, None)
        stats_path = self.work / "out" / "stats.json"
        if stats_path.is_file():
            stats = json.loads(stats_path.read_text(encoding="utf-8"))
            read = stats.get("sentences_read", stats.get("contexts_read"))
            if "skips" in stats and read:
                self.measured["skip_share"] = sum(stats["skips"].values()) / read
            self.measured["output_counts"] = stats
        self.measured["output_bytes"] = sum(
            (self.work / "out" / name).stat().st_size
            for name in self.reference
            if name != "stats.json"
        )
        if self.workload.other_workers is not None:
            other = self.workload.other_workers
            self._run(f"workers={other}", self.inputs, other, self.reference)
        _, self.tiny_reference = self._run("setup reference", self.tiny, workers, None)
        if self.workload.name == "eval-multiref":
            self.tally.record("golden report", golden_problems(self.launcher, self.work / "golden"))

    def sample(self) -> None:
        sample, _ = self._run("timed", self.inputs, self.workload.workers, self.reference)
        if sample.exit_code == 0:
            self.samples.append(sample)

    def setup_sample(self) -> None:
        sample, _ = self._run("setup", self.tiny, self.workload.workers, self.tiny_reference)
        if sample.exit_code == 0:
            self.setup_walls.append(sample.wall_s)

    def end_to_end(self) -> dict[str, list[float]]:
        """Samples per metric; END_TO_END_UNITS gives the units."""
        return {
            "records_per_s": [self.inputs.records / s.wall_s for s in self.samples],
            "setup_s": self.setup_walls,
            "peak_rss_mb": [s.peak_rss_mb for s in self.samples],
        }

    def trace(self) -> None:
        """One traced run at 1 worker: spans recorded inside forked Pool
        workers would be lost, so fan-out is traced serially."""
        if self.workload.workers != 1:
            self.trace_note = (
                f"traced at 1 worker instead of {self.workload.workers}: "
                "spans in forked Pool workers would be lost"
            )
        spans_path = self.work / "spans.json"
        script = [str(BENCH_DIR / "traced.py"), str(spans_path), "--"]
        sample, _ = self._run("traced", self.inputs, 1, self.reference, script)
        payload = {"spans": [], "counts": {}}  # a failed traced run reports zeros
        if sample.exit_code == 0:
            payload = json.loads(spans_path.read_text(encoding="utf-8"))
        walls = [s.wall_s for s in self.samples]
        cpu = [s.cpu_s / s.wall_s for s in self.samples]
        self.layers = layer_metrics(
            self_times(payload["spans"]),
            payload["counts"],
            output_bytes=self.measured["output_bytes"],
            cpu_over_wall=statistics.median(cpu) if cpu else 0.0,
            overhead_share=sample.wall_s / statistics.median(walls) - 1 if walls else 0.0,
        )


def golden_problems(launcher: Launcher, out: Path) -> list[str]:
    """evaluate on the checked-in fixture must reproduce the golden report."""
    out.mkdir(parents=True, exist_ok=True)
    report = out / "report.txt"
    argv = [
        "evaluate", "--candidates", str(GOLDEN / "candidates.txt"),
        "--references", str(GOLDEN / "references.txt"), "--report", str(report),
    ]
    sample = launcher.run(argv, out / "stderr.log")
    if sample.exit_code != 0:
        return [f"exit {sample.exit_code}"]
    problems = []
    for produced, golden in ((report, "golden_report.txt"), (out / "report.txt.json", "golden_report.json")):
        if produced.read_bytes() != (GOLDEN / golden).read_bytes():
            problems.append(f"{produced.name} differs from {golden}")
    return problems


def layer_metrics(
    summary: dict, counts: dict, output_bytes: int, cpu_over_wall: float, overhead_share: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from span self times and boundary counts; a layer
    the workload never calls reads 0."""

    def calls(name: str) -> int:
        return summary.get(name, {}).get("calls", 0)

    def self_s(*names: str) -> float:
        return sum(summary.get(n, {}).get("self_s", 0.0) for n in names)

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    return {
        "treebank.parse_ptb.calls": (calls("treebank.parse_ptb"), "count"),
        "treebank.parse_ptb.self_s": (self_s("treebank.parse_ptb"), "s"),
        "treebank.read_treebank.self_s": (self_s("treebank.read_treebank"), "s"),
        "phrases.extract_phrases.calls": (calls("phrases.extract_phrases"), "count"),
        "phrases.extract_phrases.self_s": (self_s("phrases.extract_phrases"), "s"),
        "phrases.spans_kept": (counts.get("phrases.spans_kept", 0), "count"),
        "instances.record_rng.self_s": (self_s("instances.record_rng"), "s"),
        "instances.build_npp_instance.self_s": (self_s("instances.build_npp_instance"), "s"),
        "instances.serialize_npp.self_s": (self_s("instances.serialize_npp"), "s"),
        "instances.npp_yield": (
            share(counts.get("instances.npp_built", 0), calls("instances.build_npp_instance")),
            "ratio",
        ),
        "instances.build_nsp_instance.self_s": (self_s("instances.build_nsp_instance"), "s"),
        "instances.serialize_nsp.self_s": (self_s("instances.serialize_nsp"), "s"),
        "instances.nsp_yield": (
            share(counts.get("instances.nsp_built", 0), calls("instances.build_nsp_instance")),
            "ratio",
        ),
        "instances.build_completion_pairs.calls": (calls("instances.build_completion_pairs"), "count"),
        "instances.build_completion_pairs.self_s": (self_s("instances.build_completion_pairs"), "s"),
        "corpus.iter_documents.self_s": (self_s("corpus.iter_documents"), "s"),
        "corpus.split_sentences.calls": (calls("corpus.split_sentences"), "count"),
        "corpus.split_sentences.self_s": (self_s("corpus.split_sentences"), "s"),
        "corpus.assign_splits.self_s": (self_s("corpus.assign_splits"), "s"),
        "metrics.load_segments.self_s": (self_s("metrics.load_segments"), "s"),
        "metrics.corpus_bleu.self_s": (self_s("metrics.corpus_bleu"), "s"),
        "metrics.sentence_bleu.self_s": (self_s("metrics.sentence_bleu"), "s"),
        "metrics.meteor_segment.calls": (calls("metrics.meteor_segment"), "count"),
        "metrics.align.calls": (calls("metrics.align"), "count"),
        "metrics.align.self_s": (self_s("metrics.align"), "s"),
        "metrics.cider_scores.self_s": (self_s("metrics.cider_scores"), "s"),
        "metrics.report.self_s": (self_s("metrics.render_report", "metrics.report_to_json"), "s"),
        "cli.self_s": (self_s("cli"), "s"),
        "cli.output_bytes": (output_bytes, "bytes"),
        "cli.pool.cpu_over_wall": (cpu_over_wall, "ratio"),
        "trace.overhead_share": (overhead_share, "ratio"),
    }


def _print_block(run: WorkloadRun, traced: bool) -> None:
    w = run.workload
    print(f"== {w.name} ({w.workers} worker{'s' if w.workers > 1 else ''}): {w.why}")
    props = {**run.inputs.properties, **run.measured}
    print("input and output properties: " + json.dumps(props, sort_keys=True))
    for name, digest in run.reference.items():
        print(f"sha256 {name} {digest}")
    print(f"{'metric':<16}{'unit':<7}{'median':>12}{'q1':>12}{'q3':>12}{'n':>5}")
    for name, values in run.end_to_end().items():
        q1, median, q3 = quartiles(values)
        print(f"{name:<16}{END_TO_END_UNITS[name]:<7}{median:>12.4f}{q1:>12.4f}{q3:>12.4f}{len(values):>5}")
    t = run.tally
    rate = t.failed / t.attempted
    print(f"{'failure_rate':<16}{'1':<7}{rate:>12.4f}   ({t.failed} of {t.attempted} runs failed)")
    for problem in t.problems:
        print(f"FAILED {problem}")
    if traced:
        if run.trace_note:
            print(f"trace: {run.trace_note}")
        for name, (value, unit) in run.layers.items():
            print(f"  {name:<42}{unit:<7}{value:>14.6f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    missing = [p for p in (SRC / "nextphrase" / "cli.py", GOLDEN / "golden_report.json") if not p.is_file()]
    if missing:
        print(f"error: not a nextphrase checkout, missing {missing[0]}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    launcher = Launcher()
    try:
        runs = [WorkloadRun(WORKLOADS[n], args.seed, work / n, launcher) for n in names]
        for run in runs:
            run.prepare()
        deadline = time.perf_counter() + args.seconds * len(runs)
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            # alternate the order so that drift in machine speed hits every workload alike
            for run in runs if rounds % 2 == 0 else runs[::-1]:
                run.sample()
                run.setup_sample()
            rounds += 1
        if args.trace:
            for run in runs:
                run.trace()
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    metrics = {}
    for run in runs:
        _print_block(run, bool(args.trace))
        prefix = f"{run.workload.name}." if len(runs) > 1 else ""
        if args.trace:
            values = run.layers
        else:
            values = {
                n: (quartiles(v)[1], END_TO_END_UNITS[n]) for n, v in run.end_to_end().items()
            }
        for name, (value, unit) in values.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    attempted = sum(r.tally.attempted for r in runs)
    failed = sum(r.tally.failed for r in runs)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
