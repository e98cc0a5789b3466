#!/usr/bin/env python3
"""wordground benchmark.

    python3 benchmarks/run.py --workload repeated|fresh --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from `src/`.
Set-up makes the inputs from the seed in a fresh interpreter. The run then
measures three stages, interleaved round by round so that each one samples
the whole run; it is one client in a closed loop:

- learning_curve: in-process `staged_learning` of the noisy corpus at sizes
  100..1270 against the 54 shipped instructions, one curve per round;
- cli_oneshot: `python -m wordground.cli` instruct, rescore and train calls,
  one child process at a time, two per round;
- query_stream: one loaded model answering `select_action_object` and
  `rescore_nbest` calls, 250 per round.

The workload decides how much the inputs repeat (see inputs.py). Every
operation's output is checked; a failed check, exception, timeout or
non-zero exit counts as a failed operation. With `--trace 1` the package's
public functions are wrapped (tracer.py) and the per-layer metrics are
printed instead of the end-to-end ones. The last line of standard output is
the result object, the line before it the run's details; both, and the
spans of a traced run, are also written under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCENE = SRC / "wordground" / "data" / "scene.txt"
OUT = ROOT / ".bench_out"

STAGES = ("setup", "learning_curve", "cli_oneshot", "query_stream")
SETUP, CURVE, CLI, QUERY = range(len(STAGES))
UNMEASURED = -1  # warm-ups and the shipped-instruction check
CLI_CALLS_PER_ROUND = 2
QUERIES_PER_ROUND = 250
RESCORE_SHARE = 0.25  # of query_stream operations
MIN_ROUNDS = 5  # digests cover the first MIN_ROUNDS rounds of every stage
CHILD_TIMEOUT_S = 120
SUM_TOLERANCE = 1e-9
RESCORE_LINE = re.compile(r"^\d+\. final=(\S+) ")

# Metric units; BENCHMARK.json lists the same names.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "curve_models_per_s": "1/s",
    "cli_query_p50_ms": "ms",
    "cli_query_p90_ms": "ms",
    "cli_train_p50_ms": "ms",
    "queries_per_s": "1/s",
    "instruct_p50_us": "us",
    "instruct_p90_us": "us",
    "rescore_p50_us": "us",
    "rescore_p90_us": "us",
}
PER_LAYER_UNITS = {
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "network.load_network_ms": "ms",
    "network.save_network_ms": "ms",
    "grounding.load_corpus_ms": "ms",
    "structure.train_model_ms": "ms",
    "structure.learn_word_layer_self_ms": "ms",
    "network.family_counts_calls": "count/model",
    "network.family_counts_ms": "ms/model",
    "network.score_from_counts_calls": "count/model",
    "network.score_from_counts_ms": "ms/model",
    "network.encode_columns_ms": "ms/model",
    "network.fit_cpts_ms": "ms/model",
    "evaluation.evaluate_instructions_ms": "ms",
    "evaluation.staged_learning_self_ms": "ms",
    "structure.parents_per_candidate_eval": "ratio",
    "inference.state_table_builds": "count/query",
    "inference.state_table_ms": "ms",
    "inference.select_action_object_self_ms": "ms",
    "inference.rescore_nbest_ms": "ms/hypothesis",
    "inference.impossible_flagged": "count",
    "inference.unknown_word_warnings": "count/curve",
    "datagen.build_corpus_ms": "ms",
}


class WarningCounter(logging.Handler):
    """Counts the package's log records per stage and keeps them off stderr."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.stage = UNMEASURED
        self.unknown_words = [0] * len(STAGES)
        self.by_message: dict[str, int] = {}

    def emit(self, record: logging.LogRecord) -> None:
        key = str(record.msg)
        self.by_message[key] = self.by_message.get(key, 0) + 1
        if "unknown words" in key and self.stage != UNMEASURED:
            self.unknown_words[self.stage] += 1


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    rev = "unknown: not a git checkout"
    if head.is_file():
        rev = head.read_text().strip()
        ref = ROOT / ".git" / rev.removeprefix("ref: ")
        if rev.startswith("ref: ") and ref.is_file():
            rev = ref.read_text().strip()
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "timing": "wall clock of this process and its children only; "
        "no system-wide tracing, no cache drops",
    }


class Run:
    """One benchmark run: set-up, then rounds of the three stages."""

    def __init__(self, args: argparse.Namespace):
        from inputs import Scale
        from wordground.network import load_network

        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.tiny = args.tiny
        self.scale = Scale.tiny() if args.tiny else Scale()
        self.dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.inputs = self.dir / "inputs"
        self.inputs.mkdir(parents=True)
        self.child_env = dict(os.environ)
        self.child_env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self.warnings = WarningCounter()
        logger = logging.getLogger("wordground")
        logger.addHandler(self.warnings)
        logger.propagate = False
        # Checks read models back through the function as it was before any
        # wrapping, so they add no spans.
        self.load_model = load_network
        self.tracer = None
        if args.trace:
            from tracer import Tracer, install

            self.tracer = Tracer()
            install(self.tracer, {"structure.train_model": _count_parents})
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.series: dict[str, list[float]] = {}

    def record(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {problems}")

    def at(self, stage: int, op: int) -> None:
        """Attribute what follows to `stage` and operation `op`."""
        self.warnings.stage = stage
        if self.tracer is not None:
            self.tracer.stage, self.tracer.op_id = stage, op

    def child(self, mode: str, args: list[str], op: int):
        """Run one child process to completion; returns it (None on timeout)
        and its wall time in ns. Spans of a traced child are adopted."""
        spans = self.dir / "child_spans.json"
        if self.tracer is not None:
            argv = [sys.executable, str(BENCH / "child.py"), mode, str(spans), *args]
        elif mode == "cli":
            argv = [sys.executable, "-m", "wordground.cli", *args]
        else:
            argv = [sys.executable, str(BENCH / "child.py"), mode, "-", *args]
        start = time.perf_counter_ns()
        try:
            proc = subprocess.run(
                argv, cwd=self.inputs, env=self.child_env, capture_output=True,
                text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, None
        end = time.perf_counter_ns()
        if self.tracer is not None and spans.is_file():
            dump = json.loads(spans.read_text(encoding="utf-8"))
            spans.unlink()
            call = self.tracer.add(f"{mode}.call", start, end, -1, op)
            self.tracer.add(f"{mode}.interpreter", start, dump["started"], call, op)
            self.tracer.add(f"{mode}.import", *dump["imported"], call, op)
            self.tracer.adopt(dump, call, op)
        return proc, end - start

    def setup(self) -> tuple[list[float], dict]:
        """Build the inputs in a fresh interpreter and load them, repeated
        `setup_repetitions` times; returns the times and the inputs."""
        from wordground import evaluation, grounding, inference, network

        # Off the clock: the first import in a checkout compiles bytecode.
        warm = subprocess.run(
            [sys.executable, "-c", "import wordground.cli"], env=self.child_env,
            cwd=self.inputs, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if warm.returncode != 0:
            raise RuntimeError(f"cannot import wordground: {warm.stderr[-2000:]}")
        times = []
        for rep in range(self.scale.setup_repetitions):
            self.at(SETUP, rep)
            start = time.perf_counter_ns()
            args = [self.workload, str(self.seed), str(self.inputs), "1" if self.tiny else "0"]
            proc, _ = self.child("setup", args, rep)
            if proc is None or proc.returncode != 0:
                raise RuntimeError(f"set-up failed: {'timeout' if proc is None else proc.stderr[-2000:]}")
            loaded = {
                "corpus": grounding.load_corpus(self.inputs / "corpus_recognized.txt"),
                "model": network.load_network(self.inputs / "model.json"),
                "scene": inference.load_scene(SCENE),
                "instructions": evaluation.default_instructions(),
                "cli_ops": json.loads((self.inputs / "cli_ops.json").read_text(encoding="utf-8")),
            }
            times.append((time.perf_counter_ns() - start) / 1e9)
        return times, loaded

    def execute(self) -> tuple[dict, dict]:
        """Returns the end-to-end metrics and per-stage facts for the
        per-layer metrics."""
        setup_times, inputs = self.setup()
        setup_s = statistics.median(setup_times)
        stages = [
            LearningCurve(self, inputs["corpus"], inputs["instructions"]),
            CliOneshot(self, inputs["cli_ops"]),
            QueryStream(self, inputs["model"], inputs["scene"], inputs["instructions"]),
        ]
        deadline = time.perf_counter() + self.seconds
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            for stage in stages:
                stage.step(rounds)
            rounds += 1
        self.at(UNMEASURED, -1)
        metrics = {"setup_s": setup_s}
        facts = {"rounds": rounds}
        self.series["setup_s"] = setup_times
        for stage in stages:
            metrics.update(stage.metrics())
            facts.update(stage.facts)
            self.series.update(stage.series())
            self.digests[stage.name] = stage.digest.hexdigest()
        peak_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        metrics["peak_rss_mb"] = peak_kb / 1024
        return metrics, facts


class LearningCurve:
    """One `staged_learning` curve per round. `repeated` draws the same
    training subsets every round, `fresh` new ones."""

    name = "learning_curve"

    def __init__(self, run: Run, corpus, instructions):
        from wordground import evaluation

        self.run, self.corpus, self.instructions = run, corpus, instructions
        self.sizes = tuple(s for s in run.scale.curve_sizes if s < len(corpus)) + (len(corpus),)
        run.at(UNMEASURED, -1)
        evaluation.staged_learning(corpus, instructions, sizes=self.sizes[:1], repetitions=1, seed=0)
        self.rates: list[float] = []
        self.first_csv = None
        self.digest = hashlib.sha256()
        self.facts = {"curves": 0}

    def step(self, round_no: int) -> None:
        from wordground import evaluation

        run = self.run
        run.at(CURVE, round_no)
        curve_seed = run.seed * 100_003 + (0 if run.workload == "repeated" else round_no)
        try:
            start = time.perf_counter_ns()
            points = evaluation.staged_learning(
                self.corpus, self.instructions, sizes=self.sizes,
                repetitions=run.scale.curve_repetitions, seed=curve_seed,
            )
            elapsed = (time.perf_counter_ns() - start) / 1e9
        except Exception as exc:  # noqa: BLE001 - a failing call is a failed operation
            run.record([f"raised {exc!r}"], f"curve {round_no}")
            return
        self.rates.append(sum(len(p.repetitions) for p in points) / elapsed)
        csv = evaluation.curve_to_csv(points)
        problems = curve_problems(points, len(self.corpus))
        if self.first_csv is None:
            self.first_csv = csv
        elif run.workload == "repeated" and csv != self.first_csv:
            problems.append("the same subsets gave a different curve")
        if round_no < MIN_ROUNDS:
            self.digest.update(rounded_csv(csv).encode())
        run.record(problems, f"curve {round_no}")
        self.facts["curves"] += 1

    def metrics(self) -> dict:
        return {"curve_models_per_s": statistics.median(self.rates)}

    def series(self) -> dict:
        return {"curve_models_per_s": self.rates}


class CliOneshot:
    """Two `python -m wordground.cli` calls per round, from the op list
    written in set-up."""

    name = "cli_oneshot"

    def __init__(self, run: Run, ops: list[dict]):
        self.run, self.ops = run, ops
        (run.inputs / "trained").mkdir(exist_ok=True)
        self.query_ms: list[float] = []
        self.train_ms: list[float] = []
        self.digest = hashlib.sha256()
        self.facts = {"cli_calls": 0}

    def step(self, round_no: int) -> None:
        for _ in range(CLI_CALLS_PER_ROUND):
            self.call(self.facts["cli_calls"], round_no < MIN_ROUNDS)
            self.facts["cli_calls"] += 1

    def call(self, i: int, digest: bool) -> None:
        run = self.run
        op = self.ops[i % len(self.ops)]
        kind = op["kind"]
        # Paths relative to the inputs directory, the children's working
        # directory: `train` prints them, and stdout enters the digest.
        written = f"trained/{i}.json"
        out_model = run.inputs / written
        report = run.inputs / f"{written}.report.txt"
        if kind == "instruct":
            args = ["instruct", "--model", "model.json", "--scene", str(SCENE), "--words", op["words"]]
        elif kind == "rescore":
            args = ["rescore", "--model", "model.json", "--scene", str(SCENE), "--nbest", op["nbest"]]
        else:
            args = ["train", "--corpus", "corpus_clean.txt", "--model", written, "--alpha", "0"]
        run.at(CLI, i)
        proc, elapsed_ns = run.child("cli", args, i)
        run.record(cli_problems(proc, op, out_model, run.load_model), f"cli {i} {kind}")
        if proc is not None:
            (self.train_ms if kind == "train" else self.query_ms).append(elapsed_ns / 1e6)
            if digest:
                self.digest.update(proc.stdout.encode())
                if kind == "train" and out_model.is_file() and report.is_file():
                    self.digest.update(out_model.read_bytes() + report.read_bytes())
        out_model.unlink(missing_ok=True)
        report.unlink(missing_ok=True)

    def metrics(self) -> dict:
        return {
            "cli_query_p50_ms": percentile(self.query_ms, 50),
            "cli_query_p90_ms": percentile(self.query_ms, 90),
            "cli_train_p50_ms": percentile(self.train_ms, 50),
        }

    def series(self) -> dict:
        return {"cli_query_ms": self.query_ms, "cli_train_ms": self.train_ms}


class QueryStream:
    """250 instruct (75%) or rescore (25%) calls per round on one model.
    Inputs are generated between calls, off the clock."""

    name = "query_stream"

    def __init__(self, run: Run, model, scene, instructions):
        from inputs import Requests
        from wordground import inference, network

        self.run, self.model, self.scene = run, model, scene
        self.digest = hashlib.sha256(network.network_to_json(model).encode())
        run.at(UNMEASURED, -1)
        flagged = 0
        for ins in instructions:  # also the warm-up
            ranking = inference.select_action_object(model, ins.bag, scene)
            flagged += ranking.impossible
            run.record(ranking_problems(ranking, ins.impossible, len(scene)), f"shipped {ins.text!r}")
        self.requests = Requests(run.workload, run.seed, stream=3, scene=scene)
        self.kinds = np.random.default_rng([run.seed, 4])
        self.instruct_us: list[float] = []
        self.rescore_us: list[float] = []
        self.round_rates: list[float] = []
        self.facts = {"queries": 0, "hypotheses": 0, "impossible_flagged": flagged}

    def step(self, round_no: int) -> None:
        from wordground import grounding, inference

        run, clock = self.run, time.perf_counter_ns
        busy_ns = 0
        for _ in range(QUERIES_PER_ROUND):
            i = self.facts["queries"]
            run.at(QUERY, i)
            try:
                if self.kinds.random() < RESCORE_SHARE:
                    nbest = inference.NBestList(tuple(self.requests.nbest()))
                    start = clock()
                    result = inference.rescore_nbest(self.model, nbest, self.scene)
                    elapsed = clock() - start
                    problems = rescore_problems(result, len(nbest.hypotheses))
                    self.rescore_us.append(elapsed / 1e3)
                    self.facts["hypotheses"] += len(nbest.hypotheses)
                    text = "R|" + ";".join(f"{' '.join(h.tokens)},{h.final_score!r}" for h in result)
                else:
                    tokens, impossible = self.requests.bag()
                    bag = grounding.bag_of_words(tokens)
                    start = clock()
                    result = inference.select_action_object(self.model, bag, self.scene)
                    elapsed = clock() - start
                    problems = ranking_problems(result, impossible, len(self.scene))
                    self.instruct_us.append(elapsed / 1e3)
                    text = f"I|{result.impossible}|" + ";".join(
                        f"{a},{o},{p!r}" for a, o, p in result.entries
                    )
                busy_ns += elapsed
            except Exception as exc:  # noqa: BLE001 - a failing call is a failed operation
                problems, text = [f"raised {exc!r}"], "error"
            if round_no < MIN_ROUNDS:
                self.digest.update(text.encode())
            run.record(problems, f"query {i}")
            self.facts["queries"] += 1
        if busy_ns:
            self.round_rates.append(QUERIES_PER_ROUND / (busy_ns / 1e9))

    def metrics(self) -> dict:
        return {
            "queries_per_s": statistics.median(self.round_rates),
            "instruct_p50_us": percentile(self.instruct_us, 50),
            "instruct_p90_us": percentile(self.instruct_us, 90),
            "rescore_p50_us": percentile(self.rescore_us, 50),
            "rescore_p90_us": percentile(self.rescore_us, 90),
        }

    def series(self) -> dict:
        return {"queries_per_s": self.round_rates}


def rounded_csv(csv: str) -> str:
    """The curve CSV with soft and hard at 10 significant digits. The package
    sums soft accuracy over a frozenset, in string-hash order, so the last
    digits of the same curve differ between processes."""
    lines = csv.splitlines()
    for i, line in enumerate(lines[1:], start=1):
        size, rep, soft, hard = line.split(",")
        lines[i] = f"{size},{rep},{float(soft):.10g},{float(hard):.10g}"
    return "\n".join(lines)


# -- output checks ---------------------------------------------------------------------


def curve_problems(points, corpus_size: int) -> list[str]:
    problems = []
    for point in points:
        for soft, hard in point.repetitions:
            if not (0.0 <= soft <= 1.0 and 0.0 <= hard <= 1.0):
                problems.append(f"size {point.train_size}: soft {soft} hard {hard} outside [0,1]")
    full = [p for p in points if p.train_size == corpus_size]
    if len(full) != 1 or len(full[0].repetitions) != 1:
        problems.append("full-size point must have exactly one repetition")
    if points[-1].median_soft() < points[0].median_soft():
        problems.append("median soft accuracy fell from the smallest to the largest size")
    return problems


def ranking_problems(ranking, impossible: bool, n_objects: int) -> list[str]:
    problems = []
    probs = [p for _, _, p in ranking.entries]
    if len(probs) != 3 * n_objects:
        problems.append(f"{len(probs)} entries for {n_objects} objects")
    if ranking.impossible:
        if any(p != 0.0 for p in probs):
            problems.append("impossible ranking has nonzero entries")
    elif abs(sum(probs) - 1.0) > SUM_TOLERANCE or min(probs) < 0.0:
        problems.append(f"ranking sums to {sum(probs)!r}")
    if impossible and not ranking.impossible:
        problems.append("judged-impossible request not flagged")
    return problems


def rescore_problems(results, n: int) -> list[str]:
    scores = [r.final_score for r in results]
    problems = []
    if len(scores) != n:
        problems.append(f"{len(scores)} results for {n} hypotheses")
    if any(not np.isfinite(s) or s < 0 for s in scores):
        problems.append("non-finite or negative score")
    if any(a < b for a, b in zip(scores, scores[1:])):
        problems.append("not sorted best first")
    return problems


def cli_problems(proc, op: dict, out_model: Path, load_network) -> list[str]:
    if proc is None:
        return ["timed out"]
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    lines = proc.stdout.splitlines()
    kind = op["kind"]
    if kind == "instruct":
        if op["impossible"]:
            return [] if lines and lines[0].startswith("IMPOSSIBLE") else ["impossible request not flagged"]
        if not any(line.startswith(("best:", "IMPOSSIBLE")) for line in lines):
            return ["no best: line"]
        return []
    if kind == "rescore":
        finals = [float(m.group(1)) for m in map(RESCORE_LINE.match, lines) if m]
        if len(finals) != op["n"]:
            return [f"{len(finals)} ranked lines for {op['n']} hypotheses"]
        return [] if all(a >= b for a, b in zip(finals, finals[1:])) else ["not sorted"]
    try:
        model = load_network(out_model)
    except (OSError, ValueError, KeyError) as exc:
        return [f"written model does not load: {exc!r}"]
    return [] if model.word_names() else ["written model has no words"]


# -- traced run ------------------------------------------------------------------------


def _count_parents(tracer, network) -> None:
    tracer.count("chosen_parents", sum(len(network.parents[w]) for w in network.word_names()))


def layer_metrics(tracer, facts: dict, unknown_words: list[int]) -> dict:
    """Per-layer metrics from the spans of each stage (see README.md)."""
    stats = {stage: tracer.stats(i) for i, stage in enumerate(STAGES)}

    def spans(stage, name, key="dur"):
        return stats[stage].get(name, {}).get(key, np.zeros(0, dtype=np.int64))

    def median_ms(stage, name, key="dur"):
        values = spans(stage, name, key)
        return float(np.median(values)) / 1e6 if len(values) else 0.0

    def total_ms(stage, name, per):
        return float(spans(stage, name).sum()) / 1e6 / max(per, 1)

    def calls(stage, name, per):
        return len(spans(stage, name)) / max(per, 1)

    lc, cli, qs = STAGES[CURVE], STAGES[CLI], STAGES[QUERY]
    models = len(spans(lc, "structure.train_model"))
    scorings = len(spans(lc, "network.score_from_counts"))
    return {
        "cli.interpreter_ms": median_ms(cli, "cli.interpreter"),
        "cli.import_ms": median_ms(cli, "cli.import"),
        "cli.main_ms": median_ms(cli, "cli.main"),
        "network.load_network_ms": median_ms(cli, "network.load_network"),
        "network.save_network_ms": median_ms(cli, "network.save_network"),
        "grounding.load_corpus_ms": median_ms(cli, "grounding.load_corpus"),
        "structure.train_model_ms": median_ms(lc, "structure.train_model"),
        "structure.learn_word_layer_self_ms": median_ms(lc, "structure.learn_word_layer", "self"),
        "network.family_counts_calls": calls(lc, "network.family_counts", models),
        "network.family_counts_ms": total_ms(lc, "network.family_counts", models),
        "network.score_from_counts_calls": calls(lc, "network.score_from_counts", models),
        "network.score_from_counts_ms": total_ms(lc, "network.score_from_counts", models),
        "network.encode_columns_ms": total_ms(lc, "network.encode_columns", models),
        "network.fit_cpts_ms": total_ms(lc, "network.fit_cpts", models),
        "evaluation.evaluate_instructions_ms": median_ms(lc, "evaluation.evaluate_instructions"),
        "evaluation.staged_learning_self_ms": median_ms(lc, "evaluation.staged_learning", "self"),
        "structure.parents_per_candidate_eval":
            tracer.counts.get((CURVE, "chosen_parents"), 0) / max(scorings, 1),
        "inference.state_table_builds": calls(qs, "inference.StateTable", facts["queries"]),
        "inference.state_table_ms": median_ms(qs, "inference.StateTable"),
        "inference.select_action_object_self_ms": median_ms(qs, "inference.select_action_object", "self"),
        "inference.rescore_nbest_ms": total_ms(qs, "inference.rescore_nbest", facts["hypotheses"]),
        "inference.impossible_flagged": facts["impossible_flagged"],
        "inference.unknown_word_warnings": unknown_words[CURVE] / max(facts["curves"], 1),
        "datagen.build_corpus_ms": median_ms(STAGES[SETUP], "datagen.build_corpus"),
    }


# -- entry point -------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("repeated", "fresh"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "wordground" / "__init__.py").is_file():
        print(f"error: no wordground sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]

    run = Run(args)
    metrics, facts = run.execute()
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": environment(),
        "digests": run.digests,
        "samples": facts,
        "failed_ops_ratio": run.failed / max(run.attempted, 1),
        "failures": run.failures,
        "warnings": run.warnings.by_message,
        "end_to_end": metrics,
    }
    units = END_TO_END_UNITS
    if run.tracer is not None:
        metrics = details["per_layer"] = layer_metrics(run.tracer, facts, run.warnings.unknown_words)
        units = PER_LAYER_UNITS
        run.tracer.write(run.dir / "spans.csv.gz", STAGES)
    shutil.rmtree(run.inputs, ignore_errors=True)
    (run.dir / "result.json").write_text(
        json.dumps({**details, "series": run.series}, indent=1), encoding="utf-8"
    )
    print(json.dumps(details))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
