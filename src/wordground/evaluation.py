"""Quantitative evaluation against a judged instruction set.

Each instruction's judgement is a boolean mask on the (action, color, size,
shape) cell grid, in `CANONICAL_CELL_ORDER`, and the same cells as flat
indices in grid order, both built once when the instruction is made. One
`posterior` call of the model's cached `StateTable` scores every
instruction of a model. Soft accuracy is the posterior mass a model assigns
to the cells, summed in grid order; hard accuracy is the fraction of
instructions whose single best cell is in the mask. Impossible requests,
with an all-False mask, are scored separately as a detection rate and never
enter the soft/hard averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Sequence

import numpy as np

from .grounding import BagOfWords, Experience, bag_of_words, nonblank_lines
from .inference import CANONICAL_CELL_ORDER, default_cells, known_words
from .network import Network, affordance_variables
from .structure import EncodedCorpus, train_model

DEFAULT_SIZES = (100, 300, 500, 700, 900, 1100, 1270)


@dataclass(frozen=True, eq=False)
class Instruction:
    """A word bag plus the judged compatible outcome cells: a read-only
    boolean array over the cell grid in `CANONICAL_CELL_ORDER`, and the
    same cells as flat indices into the grid, in grid order (`cells`).

    An all-False mask marks a request judged impossible.
    """

    bag: BagOfWords
    compatible: np.ndarray
    text: str = ""
    cells: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", np.flatnonzero(self.compatible))

    @property
    def impossible(self) -> bool:
        return not self.cells.size


@dataclass(frozen=True)
class CurvePoint:
    train_size: int
    repetitions: tuple[tuple[float, float], ...]  # (soft, hard) per repetition

    def median_soft(self) -> float:
        return float(np.median([s for s, _ in self.repetitions]))

    def median_hard(self) -> float:
        return float(np.median([h for _, h in self.repetitions]))


@dataclass(frozen=True)
class EvalResult:
    soft: float
    hard: float
    detection_rate: float | None  # None when the set has no impossible requests
    n_scored: int
    n_impossible: int


# -- scoring -------------------------------------------------------------------


def evaluate_instructions(
    network: Network, instructions: Sequence[Instruction]
) -> EvalResult:
    """Soft and hard accuracy plus impossible-request detection rate.

    The soft mass is summed over the instruction's cells in grid order.
    np.argmax returns the first maximum in row-major order, which makes the
    best-cell tie-break deterministic: earlier values of earlier variables
    win; an all-zero posterior, a request judged impossible, has no best cell.
    """
    bags = [known_words(network, ins.bag) for ins in instructions]
    post = network.state_table.posterior(bags, default_cells(network))
    post = post.reshape(len(post), math.prod(post.shape[1:]))
    best = post.argmax(axis=1)
    softs: list[float] = []
    hards: list[float] = []
    detected = 0
    n_impossible = 0
    for ins, p, b in zip(instructions, post, best.tolist()):
        if ins.impossible:
            n_impossible += 1
            detected += float(p.sum()) == 0.0
            continue
        softs.append(float(p[ins.cells].sum()))
        hards.append(1.0 if p[b] > 0 and ins.compatible.flat[b] else 0.0)
    if not softs:
        raise ValueError("instruction set has no possible instructions to score")
    return EvalResult(
        soft=float(np.mean(softs)),
        hard=float(np.mean(hards)),
        detection_rate=(detected / n_impossible) if n_impossible else None,
        n_scored=len(softs),
        n_impossible=n_impossible,
    )


# -- staged learning ---------------------------------------------------------------


def staged_learning(
    corpus: Sequence[Experience],
    instructions: Sequence[Instruction],
    sizes: Sequence[int] = DEFAULT_SIZES,
    repetitions: int = 50,
    seed: int = 0,
    pseudocount: float = 1.0,
) -> list[CurvePoint]:
    """Learning curve over random training subsets.

    At the full corpus size there is only one possible subset, so exactly
    one repetition runs and the point has zero variance by construction.
    The corpus is encoded once; each model trains on an index subset of the
    encoding, with the words that occur in the subset as its vocabulary.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be at least 1, got {repetitions}")
    if not corpus:
        raise ValueError("corpus has no records")
    if not sizes:
        raise ValueError(f"no training sizes to evaluate on a corpus of {len(corpus)} records")
    for size in sizes:
        if size < 1:
            raise ValueError(f"training size must be at least 1, got {size}")
        if size > len(corpus):
            raise ValueError(f"training size {size} exceeds corpus size {len(corpus)}")
    encoded = EncodedCorpus.encode(corpus)
    points = []
    for size in sizes:
        reps = 1 if size == len(corpus) else repetitions
        scores = []
        for rep in range(reps):
            if size == len(corpus):
                subset = encoded
            else:
                rng = np.random.default_rng(
                    np.random.SeedSequence(entropy=seed, spawn_key=(size, rep))
                )
                subset = encoded.subset(rng.choice(len(corpus), size=size, replace=False))
            net = train_model(subset, pseudocount=pseudocount)
            result = evaluate_instructions(net, instructions)
            scores.append((result.soft, result.hard))
        points.append(CurvePoint(train_size=size, repetitions=tuple(scores)))
    return points


def curve_to_csv(points: Sequence[CurvePoint]) -> str:
    lines = ["size,repetition,soft,hard"]
    for point in points:
        for rep, (soft, hard) in enumerate(point.repetitions):
            lines.append(
                f"{point.train_size},{rep},{format(soft, '.17g')},{format(hard, '.17g')}"
            )
    return "\n".join(lines) + "\n"


# -- instruction file -----------------------------------------------------------
#
# One instruction per line:
#   w1 w2 ...|action,color,size,shape;action,color,size,shape;...
# with `*` wildcards standing for every value, or `IMPOSSIBLE` for an empty
# compatible set. `#` starts a comment line.


# The action and object variables of a cell, in `CANONICAL_CELL_ORDER`.
_CELL_VARIABLES = tuple(
    v for n in CANONICAL_CELL_ORDER for v in affordance_variables() if v.name == n
)


def parse_instruction_line(line: str, lineno: int) -> Instruction:
    where = f" at line {lineno}"
    parts = line.rstrip("\n").split("|")
    if len(parts) != 2:
        raise ValueError(f"malformed instruction{where}: expected 'words|cells'")
    text = parts[0].strip()
    bag = bag_of_words(text)
    if not bag:
        raise ValueError(f"malformed instruction{where}: empty word bag")
    compatible = np.zeros([v.cardinality for v in _CELL_VARIABLES], dtype=bool)
    cells_field = parts[1].strip()
    chunks = [] if cells_field == "IMPOSSIBLE" else cells_field.split(";")
    for chunk in chunks:
        values = chunk.strip().split(",")
        if len(values) != len(_CELL_VARIABLES):
            raise ValueError(
                f"malformed instruction{where}: cell {chunk!r} needs {len(_CELL_VARIABLES)} fields"
            )
        index = []
        for value, v in zip(values, _CELL_VARIABLES):
            if value != "*" and value not in v.values:
                raise ValueError(
                    f"malformed instruction{where}: {value!r} is not a {v.name} value"
                )
            index.append(slice(None) if value == "*" else v.values.index(value))
        compatible[tuple(index)] = True
    compatible.flags.writeable = False
    return Instruction(bag=bag, compatible=compatible, text=text)


def load_instructions(path) -> list[Instruction]:
    return [
        parse_instruction_line(line, lineno)
        for lineno, line in nonblank_lines(path)
        if not line.lstrip().startswith("#")
    ]


def default_instructions() -> list[Instruction]:
    """The 54-sentence judged instruction set shipped with the package."""
    shipped = resources.files("wordground").joinpath("data/instructions.txt")
    with resources.as_file(shipped) as path:
        return load_instructions(path)
