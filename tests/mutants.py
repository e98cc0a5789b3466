"""Mutation check of the test suite: each mutant makes one string
replacement in a copy of the tree, and Tier-1 must fail on it.

Run from anywhere, with the interpreter that runs Tier-1:

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named mutants only

Each mutant runs Tier-1 with `-x` in its own temporary copy of the tree, so
the checkout is never written to. The runner prints `killed` or `survived`
per mutant, then "killed k of n" and each survivor with the item that owns
it. A mutant whose text is not found exactly once is an error (exit status
1), so the list cannot rot silently. It needs only the standard library,
and pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
# What a copy leaves out: history, caches and build output.
SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", "build", ".bench_*"
)
# A mutant that makes Tier-1 hang is killed, not survived, once this passes.
TIMEOUT_S = 1200


class Mutant(NamedTuple):
    name: str
    path: str  # under src/wordground
    text: str
    replacement: str
    # what the mutant breaks, and for a known survivor the open item that owns it
    note: str


MUTANTS = [
    # -- the probe of ROADMAP item 18
    Mutant(
        "eval-impossible-threshold",
        "evaluation.py",
        "detected += float(p.sum()) == 0.0",
        "detected += float(p.sum()) < 1e-300",
        "survives while the engine keeps no exponent: a normalised posterior sums to 0 or"
        " about 1 (ROADMAP item 5)",
    ),
    Mutant(
        "scene-zero-prior",
        "inference.py",
        "where=selection.prior > 0",
        "where=selection.prior >= 0",
        "a scene object of prior zero divides 0 by 0",
    ),
    Mutant(
        "model-row-sum-tolerance",
        "network.py",
        "table.sum(axis=1) - 1.0) > 1e-9",
        "table.sum(axis=1) - 1.0) > 1e-6",
        "a model file's CPT row may sum to 1 + 1e-8",
    ),
    Mutant(
        "word-product-unsorted",
        "network.py",
        "for word, rows in sorted(rows_of.items()):",
        "for word, rows in rows_of.items():",
        "the product's rounding depends on the order of a bag",
    ),
    Mutant(
        "plan-never-rebuilt",
        "network.py",
        "if self._plan is None or self._plan[0] != key:",
        "if self._plan is None:",
        "a query reads the plan of another scene",
    ),
    Mutant(
        "plan-keyed-by-object-ids",
        "inference.py",
        "key = tuple((obj.id, tuple(obj.features.items())) for obj in scene)",
        "key = tuple(obj.id for obj in scene)",
        "a scene whose objects change features keeps its old plan",
    ),
    Mutant(
        "k2-non-improving-step",
        "structure.py",
        "best = np.argmax(scores, axis=1)",
        "best = np.argmax(scores[:, 1:], axis=1) + 1",
        "K2 adds a parent that does not raise the score",
    ),
    Mutant(
        "min-word-occurrences-2",
        "structure.py",
        "MIN_WORD_OCCURRENCES = 3",
        "MIN_WORD_OCCURRENCES = 2",
        "words heard twice enter the vocabulary",
    ),
    Mutant(
        "model-file-16-digits",
        "network.py",
        'format(float(x) + 0.0, ".17g")',
        'format(float(x) + 0.0, ".16g")',
        "a saved model does not read back bitwise",
    ),
    Mutant(
        "unobserved-cpt-row-zero",
        "structure.py",
        "table[np.isnan(table)] = 1.0 / counts.shape[-1]",
        "table[np.isnan(table)] = 0.0",
        "a CPT row never observed at pseudocount 0 sums to 0",
    ),
    Mutant(
        "rescore-max-over-objects",
        "inference.py",
        "final_score=acoustic * sum(aggregate(scores[j::n]) for j in range(n)),",
        "final_score=acoustic * max(aggregate(scores[j::n]) for j in range(n)),",
        "a hypothesis scores by its best object, not the sum over objects",
    ),
    Mutant(
        "curve-repeats-full-size",
        "evaluation.py",
        "reps = 1 if size == len(corpus) else repetitions",
        "reps = repetitions",
        "the one full-size subset is trained once per repetition",
    ),
    Mutant(
        "no-unknown-words-error",
        "inference.py",
        "if bag and network.word_set.isdisjoint(bag):",
        "if False and network.word_set.isdisjoint(bag):",
        "a request of unknown words scores 1 everywhere instead of raising",
    ),
    Mutant(
        "negative-cpt-accepted",
        "network.py",
        "np.isfinite(table) & (table >= 0)",
        "np.isfinite(table)",
        "a model file with a negative CPT entry loads",
    ),
    Mutant(
        "corpus-dimensions-zero",
        "datagen.py",
        "if n_experiences < 1 or descriptions_per_experience < 1:",
        "if n_experiences < 0 or descriptions_per_experience < 0:",
        "an empty corpus is generated",
    ),
    Mutant(
        "instruct-impossible-threshold",
        "inference.py",
        "impossible=total == 0.0)",
        "impossible=total < 1e-300)",
        "a tiny but nonzero pair total is reported impossible",
    ),
    Mutant(
        "word-factor-keyed-by-parents",
        "network.py",
        "        factor = self._factors.get(word)\n"
        "        if factor is None:\n"
        "            factor = self._factors[word] = super()._factor(word)",
        "        factor = self._factors.get(self.parents[word])\n"
        "        if factor is None:\n"
        "            factor = self._factors[self.parents[word]] = super()._factor(word)",
        "two words with the same parents share one kept factor",
    ),
    # -- the pair scores a scene plan keeps for each known-word bag
    Mutant(
        "kept-scores-never-cleared",
        "inference.py",
        "        kept.clear()",
        "        pass",
        "the kept scores grow past their bound",
    ),
    Mutant(
        "kept-scores-read-after-clear",
        "inference.py",
        "    rows = [kept[k] for k in keys]\n"
        "    # cleared only once this call's rows are read\n"
        "    if len(kept) > _KEPT_BAGS:\n"
        "        kept.clear()\n"
        "    return pairs, rows",
        "    if len(kept) > _KEPT_BAGS:\n"
        "        kept.clear()\n"
        "    return pairs, [kept[k] for k in keys]",
        "a batch past the bound reads its rows from the cleared memo",
    ),
    Mutant(
        "kept-bag-logs-no-warning",
        "inference.py",
        "keys = [tuple(known_words(network, bag)) for bag in bags]",
        "keys = [k if (k := tuple(sorted(network.word_set.intersection(bag)))) in kept"
        " else tuple(known_words(network, bag)) for bag in bags]",
        "a bag answered from the memo no longer warns of its unknown words",
    ),
    Mutant(
        "kept-scores-outlive-the-plan",
        "inference.py",
        "network.state_table.cells_at(cells, flat), {}",
        'network.state_table.cells_at(cells, flat), network.state_table.__dict__.setdefault("kept", {})',
        "a new scene plan answers from the scores of the last scene",
    ),
    # -- the corpus writer's read-back check, with one token map per call
    Mutant(
        "corpus-writer-checks-first-record-only",
        "grounding.py",
        'readable = "," not in text and parse_experience(line, 0, words) == experience',
        'readable = "," not in text and (bool(words) or parse_experience(line, 0, words) == experience)',
        "a record after the first is written without its read-back check",
    ),
]


def apply(tree: Path, mutant: Mutant) -> None:
    path = tree / "src" / "wordground" / mutant.path
    source = path.read_text(encoding="utf-8")
    found = source.count(mutant.text)
    if found != 1:
        raise LookupError(f"{mutant.name}: text found {found} times in {mutant.path}, not once")
    path.write_text(source.replace(mutant.text, mutant.replacement), encoding="utf-8")


def run(mutant: Mutant) -> str:
    """'killed' or 'survived': Tier-1's verdict on a copy with the mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        apply(tree, mutant)
        env = {
            **os.environ,
            "PYTHONPATH": str(tree / "src"),
            "PYTHONDONTWRITEBYTECODE": "1",
            # every property test replays the same examples
            "CI": "1",
        }
        try:
            proc = subprocess.run(
                [sys.executable, *TIER1],
                cwd=tree,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return "killed"
    return "survived" if proc.returncode == 0 else "killed"


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in argv] or MUTANTS
    verdicts, errors = {}, []
    for mutant in chosen:
        try:
            verdicts[mutant.name] = verdict = run(mutant)
        except LookupError as exc:
            errors.append(str(exc))
            print(f"{mutant.name}: error: {exc}", flush=True)
            continue
        print(f"{mutant.name}: {verdict}", flush=True)
    killed = sum(v == "killed" for v in verdicts.values())
    print(f"killed {killed} of {len(verdicts)}")
    for name, verdict in verdicts.items():
        if verdict == "survived":
            print(f"survived: {name}: {by_name[name].note}")
    for error in errors:
        print(f"error: {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
