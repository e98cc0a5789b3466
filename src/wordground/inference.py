"""Using the learned network: instruction following, impossibility
detection, and N-best rescoring.

All three queries run on the network's one exact-inference engine,
`StateTable`, which each network builds once and keeps
(`Network.state_table`). A query is a bag of heard words. The engine
weighs every configuration of the non-word variables by the state model
and by the presence probability of each known word of the bag. It then
sums the weights onto the action and object cells. Effects are part of the
table and are summed out, so words whose parents include effect variables
need no special case. A scene is checked and prepared once per network
(`_plan_scene`), so a query on the scene of the last one pays only for its
words. The plan also keeps the pair scores of up to 512 known-word bags
(`_KEPT_BAGS`), so a request it has answered is a lookup. They are
dropped with the plan.

Impossibility is a result state, not an error: a query whose every
configuration has probability zero returns an all-zero result. A request
with words but none the model knows is an error: it would score 1 anywhere.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .grounding import VALUES, BagOfWords, bag_of_words, nonblank_lines
# StateTable is named here too, as the engine of these queries: the
# benchmark's tracer counts its builds through `inference.StateTable`.
from .network import FILE_FIELDS, CellSelection, Network, StateTable  # noqa: F401

logger = logging.getLogger(__name__)

# The most known-word bags whose pair scores a scene plan keeps; one more
# clears them all. A request stream that repeats itself asks far fewer: the
# benchmark's `repeated` workload asks about 90. A kept bag of the shipped
# scene's 18 pairs takes about 0.7 KB, so a full memo stays under 0.5 MB.
_KEPT_BAGS = 512

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
    # each hypothesis's bag of words, made once here where it is checked
    bags: tuple[BagOfWords, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.hypotheses:
            raise ValueError("N-best list must be nonempty")
        bags = []
        for tokens, p in self.hypotheses:
            # a string would be scored by its words but reported by its letters
            if isinstance(tokens, str):
                raise ValueError(
                    f"N-best hypothesis {tokens!r} is a string: give its tokens,"
                    " as bag_of_words splits them"
                )
            if not 0 < p < np.inf:
                raise ValueError(f"acoustic probability must be finite and positive, got {p}")
            # an empty bag scores 1 for every pair, so it would outrank
            # every hypothesis with words
            bags.append(bag_of_words(tokens))
            if not bags[-1]:
                raise ValueError(f"N-best hypothesis {tokens!r} has no words")
        object.__setattr__(self, "bags", tuple(bags))


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


def _plan_scene(
    network: Network, scene: Sequence[SceneObject]
) -> tuple[tuple[tuple[str, str], ...], CellSelection, dict[tuple[str, ...], tuple[float, ...]]]:
    """Check the scene and prepare it for queries on the network.

    Returns its (action, object id) pairs, action-major in action value
    order then scene order, and the selection of each pair's (action,
    object) cell, the sum of its effect states. Pairs that share a cell are
    scored once (`StateTable.cells_at`). The third part is an empty dict
    for the pair scores of each known-word bag."""
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
    # each pair's value index of each cell, pairs action-major then scene order
    index = [
        [a if v is action_var else v.index_of(obj.features[v.name]) for v in cell_vars]
        for a in range(action_var.cardinality)
        for obj in scene
    ]
    pairs = tuple((action, obj_id) for action in action_var.values for obj_id in ids)
    cards = [v.cardinality for v in cell_vars]
    flat = np.ravel_multi_index(np.transpose(index), cards).tolist()
    return pairs, network.state_table.cells_at(cells, flat), {}


def _scene_scorer(
    network: Network, scene: Sequence[SceneObject], bags: Sequence[Iterable[str]]
) -> tuple[tuple[tuple[str, str], ...], list[tuple[float, ...]]]:
    """Score the scene's (action, object) pairs for each bag.

    Returns the pairs as (action, object id), action-major in action value
    order then scene order, and p(bag | action, object) of every pair, one
    tuple per bag, with the effects summed out under the state model.

    The scene is checked and prepared once per network (`StateTable.plan`,
    keyed by each object's id and features). An invalid scene raises on
    every call. The plan also keeps each known-word bag's pair scores as
    floats, so a bag it has answered is a lookup. It keeps at most
    `_KEPT_BAGS` (512) bags, cleared when more, and drops them with the
    plan.

    A bag that is a string, not words, raises `ValueError`; a bag with
    words but no known word raises `UnknownWordsError`. A refused call
    keeps nothing.
    """
    key = tuple((obj.id, tuple(obj.features.items())) for obj in scene)
    pairs, selection, kept = network.state_table.plan(key, lambda: _plan_scene(network, scene))
    for bag in bags:
        if isinstance(bag, str):
            raise ValueError(f"bag {bag!r} is a string, not words: pass bag_of_words({bag!r})")
    bags = [set(bag) for bag in bags]
    for bag in bags:
        if bag and network.word_set.isdisjoint(bag):
            raise UnknownWordsError(f"the model knows none of the words: {', '.join(sorted(bag))}")
    # the engine input of a bag keys its scores; it also logs the bag's
    # unknown words, on a kept bag too
    keys = [tuple(known_words(network, bag)) for bag in bags]
    # Each distinct bag not kept yet is multiplied once, in one batch. A row
    # of the product does not depend on the other rows, so a kept row
    # equals a new one. Only a batch of several bags needs the dedupe.
    new = [k for k in keys if k not in kept]
    if new:
        if len(new) > 1:
            new = list(dict.fromkeys(new))
        joint = selection.joint(new)
        scores = np.zeros(joint.shape)
        np.divide(joint, selection.prior, out=scores, where=selection.prior > 0)
        kept.update(zip(new, map(tuple, scores.tolist())))
    rows = [kept[k] for k in keys]
    # cleared only once this call's rows are read
    if len(kept) > _KEPT_BAGS:
        kept.clear()
    return pairs, rows


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
    row = scores[0]
    total = sum(row)
    if total > 0:
        row = [s / total for s in row]
    raw = [(action, obj_id, s) for (action, obj_id), s in zip(pairs, row)]
    # A stable sort keeps equal scores in pair order, reversed or not.
    entries = sorted(raw, key=itemgetter(2), reverse=True)
    return ActionObjectRanking(entries=tuple(entries), impossible=total == 0.0)


@dataclass(frozen=True)
class RescoredHypothesis:
    tokens: tuple[str, ...]
    acoustic_probability: float
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
    default, or `sum`). The final score is the acoustic probability times
    the sum of the per-object scores, objects in scene order. Sorted best
    first; uniform scaling of the acoustic probabilities cannot change the
    order.
    """
    if action_aggregate not in ("max", "sum"):
        raise ValueError("action_aggregate must be 'max' or 'sum'")
    aggregate = max if action_aggregate == "max" else sum
    _, pair_scores = _scene_scorer(network, scene, nbest.bags)
    n = len(scene)
    # the pairs are action-major, so scores[j::n] are object j's actions
    results = [
        RescoredHypothesis(
            tokens=tuple(tokens),
            acoustic_probability=acoustic,
            final_score=acoustic * sum(aggregate(scores[j::n]) for j in range(n)),
        )
        for (tokens, acoustic), scores in zip(nbest.hypotheses, pair_scores)
    ]
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

