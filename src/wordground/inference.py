"""Using the learned network: instruction following, impossibility
detection, and N-best rescoring.

All three queries run on the network's one exact-inference engine,
`StateTable`, built once per network and cached on it
(`Network.state_table`), whose one query form is a bag of heard words: every
configuration of the non-word variables is weighted by the state model and
by the presence probability of every known word in the utterance, then
summed onto the action and object cells. Words whose parents include
effect variables are handled automatically, because effects are part of
the table and are summed out under the state model. One engine call scores
the prior and every bag of a query: the one instruction of
`select_action_object`, or every hypothesis of an N-best list in
`rescore_nbest`.

Impossibility is a result state, not an error: a query whose every
configuration has probability zero returns an all-zero result. A request
with words but none the model knows is an error: it would score 1 anywhere.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .grounding import VALUES, bag_of_words, nonblank_lines
# StateTable is named here too, as the engine of these queries: the
# benchmark's tracer counts its builds through `inference.StateTable`.
from .network import FILE_FIELDS, Network, StateTable  # noqa: F401

logger = logging.getLogger(__name__)

# Preferred cell-tuple order for the default domain; matches the
# `action,color,size,shape` order used by the scene and instruction files.
CANONICAL_CELL_ORDER = FILE_FIELDS[0] + FILE_FIELDS[1]


def default_cells(network: Network) -> tuple[str, ...]:
    """Action and feature variables of the network, in file order when the
    network uses the default domain."""
    present = [
        v.name for v in network.variables if v.kind in ("action", "feature")
    ]
    ordered = [n for n in CANONICAL_CELL_ORDER if n in present]
    ordered.extend(n for n in present if n not in ordered)
    return tuple(ordered)


@dataclass(frozen=True)
class SceneObject:
    """An object in the robot's field of view, named by its feature values."""

    id: str
    features: dict[str, str]


@dataclass(frozen=True)
class NBestList:
    """Recognizer output: hypotheses with words and positive acoustic
    probabilities."""

    hypotheses: tuple[tuple[tuple[str, ...], float], ...]

    def __post_init__(self) -> None:
        if not self.hypotheses:
            raise ValueError("N-best list must be nonempty")
        for tokens, p in self.hypotheses:
            if not 0 < p < np.inf:
                raise ValueError(f"acoustic probability must be finite and positive, got {p}")
            # an empty bag scores 1 for every pair, so it would outrank
            # every hypothesis with words
            if not bag_of_words(tokens):
                raise ValueError(f"N-best hypothesis {tokens!r} has no words")


class UnknownWordsError(ValueError):
    """A request or hypothesis with words, none of them known to the model."""


@dataclass(frozen=True)
class ActionObjectRanking:
    """Full (action, object) posterior grid, best first."""

    entries: tuple[tuple[str, str, float], ...]
    impossible: bool

    @property
    def best(self) -> tuple[str, str, float]:
        return self.entries[0]


def known_words(network: Network, bag: Iterable[str]) -> list[str]:
    """The bag's known words, sorted: the engine input of a bag. Unknown
    words are skipped with one warning, since instructions may contain
    words outside the training vocabulary."""
    words = sorted(set(bag))
    known = network.word_set
    unknown = [w for w in words if w not in known]
    if unknown:
        logger.warning("skipping unknown words: %s", ", ".join(unknown))
    return [w for w in words if w in known]


def _scene_scorer(
    network: Network, scene: Sequence[SceneObject], bags: Sequence[Iterable[str]]
) -> tuple[list[tuple[str, SceneObject]], np.ndarray]:
    """Check the scene and score its (action, object) pairs for each bag.

    Returns the pairs, action-major in action value order then scene order,
    and p(bag | action, object) of every bag and pair, shape (bags, pairs),
    with the effects summed out under the state model. The prior and every
    bag are scored in one `joint` call of the network's cached engine,
    `network.state_table`. A bag with words but no known word raises
    `UnknownWordsError`.
    """
    if not scene:
        raise ValueError("scene must contain at least one object")
    ids = [obj.id for obj in scene]
    for i, obj_id in enumerate(ids):
        if obj_id in ids[:i]:
            raise ValueError(f"duplicate scene object id {obj_id!r}")
    cells = default_cells(network)
    cell_vars = [network.variable(c) for c in cells]
    action_var = next((v for v in cell_vars if v.kind == "action"), None)
    if action_var is None:
        raise ValueError("the model has no action variable")
    for obj in scene:
        for v in cell_vars:
            if v is not action_var and v.name not in obj.features:
                raise ValueError(f"scene object {obj.id!r} does not bind {v.name!r}")
    # each object's feature indices in cell order, with the action's slot at `at`
    at = cell_vars.index(action_var)
    features = [
        [v.index_of(obj.features[v.name]) for v in cell_vars if v is not action_var]
        for obj in scene
    ]
    pairs, index = [], []
    for a, action in enumerate(action_var.values):
        for obj, rest in zip(scene, features):
            pairs.append((action, obj))
            index.append((*rest[:at], a, *rest[at:]))

    bags = [set(bag) for bag in bags]
    for bag in bags:
        if bag and network.word_set.isdisjoint(bag):
            raise UnknownWordsError(f"the model knows none of the words: {', '.join(sorted(bag))}")
    joint = network.state_table.joint([[]] + [known_words(network, bag) for bag in bags], cells)
    prior = joint[0]
    with np.errstate(invalid="ignore", divide="ignore"):
        scores = np.where(prior > 0, joint[1:] / prior, 0.0)
    return pairs, scores[(slice(None),) + tuple(np.array(index).T)]


def select_action_object(
    network: Network,
    bag: Iterable[str],
    scene: Sequence[SceneObject],
) -> ActionObjectRanking:
    """Best (action, object) pair for an instruction, with the full grid.

    Scores every pair by the probability of the words given the action and
    the object's features (effects summed out under the state model), under
    a non-informative prior over the grid. Ties break deterministically by
    action order then object order.
    """
    pairs, scores = _scene_scorer(network, scene, [bag])
    raw = [(action, obj.id, s) for (action, obj), s in zip(pairs, scores[0].tolist())]
    total = sum(s for _, _, s in raw)
    if total > 0:
        raw = [(a, o, s / total) for a, o, s in raw]
    # A stable sort keeps equal scores in pair order.
    entries = sorted(raw, key=lambda e: -e[2])
    return ActionObjectRanking(entries=tuple(entries), impossible=total == 0.0)


@dataclass(frozen=True)
class RescoredHypothesis:
    tokens: tuple[str, ...]
    acoustic_probability: float
    object_scores: dict[str, float]
    final_score: float


def rescore_nbest(
    network: Network,
    nbest: NBestList,
    scene: Sequence[SceneObject],
    action_aggregate: str = "max",
) -> list[RescoredHypothesis]:
    """Re-rank recognizer hypotheses by context.

    Each hypothesis scores, per scene object, the probability of its words
    given the object (effects summed out, actions aggregated by `max` by
    default, or `sum`); the final score is the acoustic probability times
    the sum of the per-object scores. Sorted best first; uniform scaling of
    the acoustic probabilities cannot change the order.
    """
    if action_aggregate not in ("max", "sum"):
        raise ValueError("action_aggregate must be 'max' or 'sum'")
    bags = [bag_of_words(tokens) for tokens, _ in nbest.hypotheses]
    _, pair_scores = _scene_scorer(network, scene, bags)
    n_objects = len(scene)

    results = []
    for (tokens, acoustic), scores in zip(nbest.hypotheses, pair_scores.tolist()):
        per_object: dict[str, float] = {}
        for j, obj in enumerate(scene):
            by_action = scores[j::n_objects]
            per_object[obj.id] = (
                max(by_action) if action_aggregate == "max" else sum(by_action)
            )
        final = acoustic * sum(per_object.values())
        results.append(
            RescoredHypothesis(
                tokens=tuple(tokens),
                acoustic_probability=acoustic,
                object_scores=per_object,
                final_score=final,
            )
        )
    results.sort(key=lambda r: -r.final_score)
    return results


# -- scene and N-best files ---------------------------------------------------

_SCENE_FIELDS = FILE_FIELDS[1]


def parse_scene_line(line: str, lineno: int) -> SceneObject:
    where = f" at line {lineno}"
    parts = line.strip().split("|")
    if len(parts) != 2:
        raise ValueError(f"malformed scene record{where}: expected 'id|color,size,shape'")
    if not parts[0].strip():
        raise ValueError(f"malformed scene record{where}: empty object id")
    values = parts[1].split(",")
    if len(values) != len(_SCENE_FIELDS):
        raise ValueError(
            f"malformed scene record{where}: expected {len(_SCENE_FIELDS)} feature values"
        )
    for name, value in zip(_SCENE_FIELDS, values):
        if value not in VALUES[name]:
            raise ValueError(f"malformed scene record{where}: {value!r} is not a {name} value")
    return SceneObject(id=parts[0], features=dict(zip(_SCENE_FIELDS, values)))


def load_scene(path) -> list[SceneObject]:
    scene: list[SceneObject] = []
    for lineno, line in nonblank_lines(path):
        obj = parse_scene_line(line, lineno)
        if any(seen.id == obj.id for seen in scene):
            raise ValueError(
                f"malformed scene record at line {lineno}: duplicate object id {obj.id!r}"
            )
        scene.append(obj)
    return scene


def parse_nbest_line(line: str, lineno: int) -> tuple[tuple[str, ...], float]:
    where = f" at line {lineno}"
    parts = line.strip().split("|")
    if len(parts) != 2:
        raise ValueError(f"malformed N-best record{where}: expected 'probability|tokens'")
    try:
        p = float(parts[0])
    except ValueError:
        p = np.nan
    if not 0 < p < np.inf:
        raise ValueError(
            f"malformed N-best record{where}: "
            f"acoustic probability must be finite and positive, got {parts[0]!r}"
        )
    tokens = tuple(parts[1].split())
    if not bag_of_words(tokens):
        raise ValueError(f"malformed N-best record{where}: no words")
    return tokens, p


def load_nbest(path) -> NBestList:
    lines = nonblank_lines(path)
    return NBestList(hypotheses=tuple(parse_nbest_line(line, n) for n, line in lines))

